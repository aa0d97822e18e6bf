"""Experiment drivers behind the command line.

Each experiment turns a parameter dictionary and a seed into one
:class:`ExperimentResult`: a result table whose final column names the
claim each row certifies, optional side tables (solver traces, transport
plans), and a list of named tolerance checks. The command line layer owns
argument parsing, manifests, and exit codes; everything here is a pure
function of (params, seed).

Randomness policy: an experiment receives a single integer seed and
derives every generator it needs from ``np.random.SeedSequence(seed)``,
so equal configurations reproduce their outputs byte for byte. Trial
sweeps run in one process, one row after another; each row evaluates its
random configurations as one stack.
"""

import dataclasses
import itertools
import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ._runtime import format_row
from .hamiltonian_gibbs import (
    PERMANENTAL,
    TROPICAL,
    GibbsEnsemble,
    gibbs_exact,
    hamiltonian_w2_gap,
    hamiltonians,
    local_rate,
    sanov_exact,
    sanov_gap_bound,
    zero_temp_mgf,
)
from .legendre import GridFunction, conjugate_at, legendre_transform
from .measures import (
    DiscreteMeasure,
    Domain,
    EmpiricalConfig,
    GridMeasure,
    empirical,
    load_discrete_csv,
    load_grid_csv,
    log_mgf,
)
from .monge_ampere import (
    MasterParams,
    SolverError,
    f_functional,
    f_gradient_residual,
    j_functional,
    ma_operator,
    solve_master,
    w2_to_reference,
)
from .torus_theta import ThetaParams, TorusLattice, theta_rate_error
from .transport import (
    cost_matrix,
    cyclical_monotonicity_check,
    kantorovich_lp,
    w2_semidiscrete,
)

# Claim registry: every result row carries one of these ids in its
# provenance column, and manifests list the ids an experiment certifies.
CLAIMS = {
    "theta-rate-bracket": (
        "the normalized kernel log matches the squared torus distance "
        "within (1/n) log((2R+1)^d)"
    ),
    "theta-rate-one-sided": (
        "the kernel log never drops below -n times the squared distance, "
        "so the rate defect has one sign"
    ),
    "permanent-tropical-sandwich": (
        "permanental and tropical energies of one configuration differ "
        "by at most (1/n) log N!"
    ),
    "hamiltonian-w2-bracket": (
        "per-particle energy tracks the squared transport distance to the "
        "lattice within the kernel bracket"
    ),
    "lattice-empirical-refinement": (
        "the lattice empirical measure approaches the uniform density in "
        "squared transport distance as n grows"
    ),
    "gibbs-concentration": (
        "Gibbs mass inside a fixed transport ball around the rate "
        "minimizer grows toward one as beta increases"
    ),
    "partition-growth-bound": (
        "the per-volume log partition function decays like 1/n at fixed "
        "beta"
    ),
    "sanov-exact-binomial": (
        "the finite-n type probability equals its direct multinomial "
        "recount"
    ),
    "sanov-gap-bound": (
        "the exact type rate exceeds the relative entropy by at most "
        "k log(n+1)/n"
    ),
    "cramer-rate-nonneg": (
        "the convex conjugate of the log moment generating function is "
        "nonnegative"
    ),
    "cramer-zero-at-mean": (
        "the convex conjugate of the log moment generating function "
        "vanishes at the mean"
    ),
    "zero-temp-legendre": (
        "the scaled log moment functional approaches its lattice "
        "conjugate target as n grows"
    ),
    "zero-temp-shift": (
        "adding a constant to the test function shifts the scaled log "
        "moment functional by exactly that constant"
    ),
    "master-equation-fixed-point": (
        "the solved potential pushes the reference density onto the "
        "tilted base measure within the requested residual"
    ),
    "duality-bracket-zero": (
        "squared transport distance plus dual functional plus pairing "
        "vanishes between a potential and its own pushforward"
    ),
    "transport-plan-optimal": (
        "the linear-program coupling has exact marginals and a "
        "cyclically monotone support"
    ),
}


@dataclasses.dataclass(frozen=True)
class Check:
    """One named pass/fail tolerance evaluation.

    failing_rows holds rendered result rows for the command line to print
    when the check fails; it stays empty on success.
    """

    name: str
    passed: bool
    observed: str
    failing_rows: Tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class ResultTable:
    """Rectangular results with a trailing provenance column.

    Every row names the claim it certifies, so merged reports can anchor
    rows back to the claim registry. Cells must be str, int, or finite or
    infinite float; NaN is rejected at render time.
    """

    columns: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]

    def __post_init__(self):
        if not self.columns or self.columns[-1] != "provenance":
            raise ValueError("the last column must be 'provenance'")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("ragged result row")
            if row[-1] not in CLAIMS:
                raise ValueError(f"unknown claim id {row[-1]!r}")

    def render(self) -> str:
        lines = [",".join(self.columns)]
        lines.extend(format_row(row) for row in self.rows)
        return "\n".join(lines) + "\n"


@dataclasses.dataclass(frozen=True)
class Artifact:
    """A side table written next to results.csv (traces, plans, grids)."""

    name: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]

    def render(self) -> str:
        lines = [",".join(self.columns)]
        lines.extend(format_row(row) for row in self.rows)
        return "\n".join(lines) + "\n"


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    table: ResultTable
    checks: Tuple[Check, ...]
    artifacts: Tuple[Artifact, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclasses.dataclass(frozen=True)
class ParamSpec:
    """One experiment parameter: name, string default, parser, help.

    Defaults are stored as strings because every source (config file,
    key=value override, command flag) delivers strings; a single parser
    then applies uniformly. default None marks a required parameter.
    """

    name: str
    default: Optional[str]
    parse: Callable[[str], object]
    help: str


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    name: str
    summary: str
    params: Tuple[ParamSpec, ...]
    claims: Tuple[str, ...]
    tolerances: Dict[str, float]
    runner: Callable[[dict, int], ExperimentResult]


def _parse_int(text: str) -> int:
    return int(text)


def _parse_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _parse_float(text: str) -> float:
    value = float(text)
    if value != value:
        raise ValueError("NaN is not a parameter")
    return value


def _parse_int_list(text: str) -> Tuple[int, ...]:
    items = tuple(int(t) for t in text.split(",") if t.strip() != "")
    if not items:
        raise ValueError("empty integer list")
    return items


def _parse_count_list(text: str) -> Tuple[int, ...]:
    items = _parse_int_list(text)
    if min(items) < 1:
        raise ValueError("every entry must be >= 1")
    return items


def _parse_float_list(text: str) -> Tuple[float, ...]:
    items = tuple(float(t) for t in text.split(",") if t.strip() != "")
    if not items:
        raise ValueError("empty float list")
    return items


def _parse_str(text: str) -> str:
    return text


def _spawn_seeds(seed: int, count: int):
    """Independent integer seeds derived from the one run seed."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1)[0]) for c in children]


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# verify-theta


def _run_verify_theta(params: dict, seed: int) -> ExperimentResult:
    del seed  # deterministic sweep, kept for the uniform runner signature
    dim = params["d"]
    if dim not in (1, 2):
        raise ValueError("d must be 1 or 2")
    rows = []
    one_sided_worst = -math.inf
    for n in sorted(set(params["n"])):
        tparams = ThetaParams(n=n, truncation_radius=params["r"])
        lattice = TorusLattice(n=n, d=dim)
        signed_max, sup = theta_rate_error(tparams, lattice, params["grid"])
        one_sided_worst = max(one_sided_worst, signed_max)
        bound = float(tparams.bracket_width(dim))
        rows.append((n, sup, bound, "theta-rate-bracket"))
    table = ResultTable(
        columns=("n", "sup_error", "bracket_bound", "provenance"),
        rows=tuple(rows),
    )
    sups = [r[1] for r in rows]
    decreasing = all(b < a for a, b in zip(sups, sups[1:]))
    inside = [r for r in rows if r[1] > r[2] + 1e-6]
    checks = (
        Check(
            name="sup-error-monotone",
            passed=decreasing,
            observed="sup errors " + " > ".join(_fmt(s) for s in sups),
        ),
        Check(
            name="sup-error-within-bracket",
            passed=not inside,
            observed=f"worst margin {_fmt(max(r[1] - r[2] for r in rows))}",
            failing_rows=tuple(format_row(r) for r in inside),
        ),
        Check(
            name="defect-one-sided",
            passed=one_sided_worst <= 1e-12,
            observed=f"max signed defect {_fmt(one_sided_worst)}",
        ),
    )
    return ExperimentResult(table=table, checks=checks)


# ---------------------------------------------------------------------------
# verify-hamiltonian


def _sandwich_row(n: int, trials: int, seed: int):
    tparams = ThetaParams(n=n)
    lattice = TorusLattice(n=n, d=1)
    configs = np.random.default_rng(seed).random((trials, n, 1))
    h_perm = hamiltonians(PERMANENTAL, lattice, tparams, configs)
    h_trop = hamiltonians(TROPICAL, lattice, tparams, configs)
    worst = float(np.max(np.abs(h_perm - h_trop)))
    bound = math.log(math.factorial(n)) / n
    return ("sandwich", n, n, trials, worst, bound,
            "permanent-tropical-sandwich")


def _run_verify_hamiltonian(params: dict, seed: int) -> ExperimentResult:
    ns = sorted(set(params["n"]))
    trials = params["trials"]
    sandwich_ns = list(range(2, 8))
    perm_ns = [n for n in (2, 3) if n in ns or n <= max(ns)]
    seeds = _spawn_seeds(seed, len(sandwich_ns) + len(ns) + len(perm_ns))
    s_sand = seeds[: len(sandwich_ns)]
    s_trop = seeds[len(sandwich_ns): len(sandwich_ns) + len(ns)]
    s_perm = seeds[len(sandwich_ns) + len(ns):]

    rows = [_sandwich_row(n, params["sandwich_trials"], s)
            for n, s in zip(sandwich_ns, s_sand)]

    def w2_row(kind, n, s):
        gap = hamiltonian_w2_gap(kind, n, 1, trials, s)
        tparams = ThetaParams(n=n)
        bound = float(tparams.bracket_width(1)) + float(tparams.tail_bound)
        family = "w2-" + kind.tag
        if kind.tag == "permanental":
            bound += math.log(math.factorial(n)) / (n * n)
        return (family, n, n, trials, gap, bound, "hamiltonian-w2-bracket")

    rows += [w2_row(TROPICAL, n, s) for n, s in zip(ns, s_trop)]
    rows += [w2_row(PERMANENTAL, n, s) for n, s in zip(perm_ns, s_perm)]

    reference = GridMeasure.uniform(dim=1, resolution=params["quad"])
    previous = math.inf
    for n in ns:
        lattice_mu = empirical(EmpiricalConfig(points=TorusLattice(n, 1).points))
        value = w2_semidiscrete(reference, lattice_mu)
        rows.append(("lattice-refinement", n, n, 0, value, previous,
                     "lattice-empirical-refinement"))
        previous = value

    table = ResultTable(
        columns=("family", "n", "particles", "trials", "gap", "bound",
                 "provenance"),
        rows=tuple(rows),
    )
    sandwich_bad = [r for r in rows if r[0] == "sandwich"
                    and r[4] > r[5] + 1e-12]
    w2_bad = [r for r in rows if r[0].startswith("w2-")
              and r[4] > r[5] + 1e-12]
    refine_bad = [r for r in rows if r[0] == "lattice-refinement"
                  and not r[4] < r[5]]
    checks = (
        Check(
            name="sandwich-within-bound",
            passed=not sandwich_bad,
            observed=f"{len(sandwich_bad)} of {len(sandwich_ns)} sizes exceed"
                     " (1/n) log N!",
            failing_rows=tuple(format_row(r) for r in sandwich_bad),
        ),
        Check(
            name="w2-within-bracket",
            passed=not w2_bad,
            observed=f"{len(w2_bad)} sweep rows exceed the kernel bracket",
            failing_rows=tuple(format_row(r) for r in w2_bad),
        ),
        Check(
            name="lattice-w2-decreasing",
            passed=not refine_bad,
            observed="lattice-to-uniform distances "
                     + " > ".join(_fmt(r[4]) for r in rows
                                  if r[0] == "lattice-refinement"),
            failing_rows=tuple(format_row(r) for r in refine_bad),
        ),
    )
    return ExperimentResult(table=table, checks=checks)


# ---------------------------------------------------------------------------
# gibbs-ldp


def _load_torus_grid(spec: str, dim: int, resolution: int) -> GridMeasure:
    if spec == "uniform":
        return GridMeasure.uniform(dim=dim, resolution=resolution)
    return load_grid_csv(spec, kind="torus")


def _run_gibbs_ldp(params: dict, seed: int) -> ExperimentResult:
    del seed  # exact ensembles carry no sampling noise
    n, dim, refine = params["n"], params["d"], params["refine"]
    mu0 = _load_torus_grid(params["mu0"], dim, n * refine)
    betas = sorted(set(params["betas"]))
    radius = params["radius"]
    if params["center_res"] < 1:
        raise ValueError("center_res must be >= 1")
    if not radius > 0.0:
        raise ValueError("radius must be > 0")

    # The rate minimizer for uniform mu0 = nu is the uniform density; a
    # two-atom empirical sits about 0.1443 from it in transport distance,
    # so the ball must be measured against a center fine enough to stand
    # in for the continuum (the coarse site-uniform is already 0.153 away
    # from the best configuration and would leave the ball empty).
    cres = params["center_res"]
    axes = [np.arange(cres) / cres] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    cpts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    center = DiscreteMeasure(
        points=cpts,
        weights=np.full(cres ** dim, 1.0 / cres ** dim),
        domain=Domain(kind="torus", dim=dim),
    )
    rows = []
    for beta in betas:
        ens = GibbsEnsemble(beta=beta, n=n, d=dim, mu0=mu0,
                            kind=PERMANENTAL, backend="exact",
                            site_refinement=refine)
        est = local_rate(ens, center, radius)
        rows.append((beta, n, ens.site_count, radius, est.prob, est.value,
                     "gibbs-concentration"))
    table = ResultTable(
        columns=("beta", "n", "sites", "radius", "ball_mass", "rate_value",
                 "provenance"),
        rows=tuple(rows),
    )

    part_rows = []
    for beta in sorted(set(params["partition_betas"])):
        scaled = []
        for pn in sorted(set(params["partition_n"])):
            ens = GibbsEnsemble(beta=beta, n=pn, d=dim,
                                mu0=_load_torus_grid(params["mu0"], dim,
                                                     pn * refine),
                                kind=PERMANENTAL, backend="exact",
                                site_refinement=refine)
            value = gibbs_exact(ens).log_partition / pn ** dim
            scaled.append((pn, value))
        c_beta = max(pn * abs(v) for pn, v in scaled)
        for pn, v in scaled:
            part_rows.append((beta, pn, v, pn * abs(v), c_beta,
                              "partition-growth-bound"))
    partition = Artifact(
        name="partition.csv",
        columns=("beta", "n", "scaled_log_z", "n_scaled_abs", "c_beta",
                 "provenance"),
        rows=tuple(part_rows),
    )

    masses = [r[4] for r in rows]
    monotone = all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))
    magnitudes = {}
    for beta, pn, v, _, _, _ in part_rows:
        magnitudes.setdefault(beta, []).append(abs(v))
    part_ok = all(all(b <= a + 1e-12 for a, b in zip(vs, vs[1:]))
                  for vs in magnitudes.values())
    checks = (
        Check(
            name="ball-mass-monotone",
            passed=monotone,
            observed="ball masses " + " <= ".join(_fmt(m) for m in masses),
            failing_rows=() if monotone
            else tuple(format_row(r) for r in rows),
        ),
        Check(
            name="ball-mass-saturates",
            passed=masses[-1] >= 0.9,
            observed=f"mass at beta={betas[-1]} is {_fmt(masses[-1])}",
            failing_rows=() if masses[-1] >= 0.9
            else (format_row(rows[-1]),),
        ),
        Check(
            name="partition-scaled-decay",
            passed=part_ok,
            observed="per-beta |log Z| / n^d sequences are nonincreasing"
            if part_ok else "a scaled log partition grew under refinement",
            failing_rows=() if part_ok
            else tuple(format_row(r) for r in part_rows),
        ),
    )
    return ExperimentResult(table=table, checks=checks,
                            artifacts=(partition,))


# ---------------------------------------------------------------------------
# sanov-demo


def _compositions(total: int, parts: int):
    """All ordered splits of total into parts nonnegative integers."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        prev, counts = -1, []
        for b in bars + (total + parts - 1,):
            counts.append(b - prev - 1)
            prev = b
        yield tuple(counts)


def _multinomial_prob(counts: Tuple[int, ...], weights: np.ndarray) -> float:
    """Exact type probability recounted from factorials, no logs."""
    n = sum(counts)
    coeff = math.factorial(n)
    for c in counts:
        coeff //= math.factorial(c)
    prob = float(coeff)
    for c, w in zip(counts, weights):
        prob *= float(w) ** c
    return prob


def _run_sanov_demo(params: dict, seed: int) -> ExperimentResult:
    del seed
    k, n = params["k"], params["n"]
    if params["mu0"] == "uniform":
        mu0 = np.full(k, 1.0 / k)
    else:
        mu0 = np.asarray(_parse_float_list(params["mu0"]), dtype=float)
    if len(mu0) != k or np.any(mu0 <= 0.0):
        raise ValueError("mu0 must put positive mass on all k letters")
    mu0 = mu0 / mu0.sum()
    nu = np.asarray(params["nu"], dtype=float)
    if len(nu) != k:
        raise ValueError("nu must have k entries")

    rate, ent = sanov_exact(k, mu0, n, nu)
    prob = math.exp(-n * rate)
    counts = tuple(int(round(n * w)) for w in nu)
    recount = _multinomial_prob(counts, mu0)
    demo_gap = rate - ent
    rows = [("demo", k, n, prob, rate, ent, demo_gap,
             float(sanov_gap_bound(k, n)), "sanov-exact-binomial")]

    def sweep_row(n_s: int):
        if math.comb(n_s + k - 1, k - 1) > 200_000:
            raise ValueError("too many types; lower k or the sweep sizes")
        worst = None
        for counts_s in _compositions(n_s, k):
            r, e = sanov_exact(k, mu0, n_s, np.array(counts_s) / n_s)
            if worst is None or r - e > worst[3]:
                worst = (math.exp(-n_s * r), r, e, r - e)
        return ("sweep", k, n_s, worst[0], worst[1], worst[2], worst[3],
                float(sanov_gap_bound(k, n_s)), "sanov-gap-bound")

    rows += [sweep_row(n_s) for n_s in sorted(set(params["sweep"]))]
    table = ResultTable(
        columns=("family", "alphabet", "n", "prob", "rate", "entropy",
                 "gap", "bound", "provenance"),
        rows=tuple(rows),
    )
    gap_bad = [r for r in rows if not -1e-12 <= r[6] <= r[7] + 1e-12]
    checks = (
        Check(
            name="demo-prob-multinomial",
            passed=abs(prob - recount) <= 1e-12,
            observed=f"exp(-n rate) = {_fmt(prob)}, recount = {_fmt(recount)}",
            failing_rows=() if abs(prob - recount) <= 1e-12
            else (format_row(rows[0]),),
        ),
        Check(
            name="type-gap-within-bound",
            passed=not gap_bad,
            observed=f"worst gap margin {_fmt(max(r[6] - r[7] for r in rows))}",
            failing_rows=tuple(format_row(r) for r in gap_bad),
        ),
    )
    return ExperimentResult(table=table, checks=checks)


# ---------------------------------------------------------------------------
# cramer-demo


def _run_cramer_demo(params: dict, seed: int) -> ExperimentResult:
    del seed
    points = np.asarray(params["points"], dtype=float)
    weights = np.asarray(params["weights"], dtype=float)
    if len(points) != len(weights) or np.any(weights <= 0.0):
        raise ValueError("points and weights must match, weights positive")
    weights = weights / weights.sum()
    lo, hi = float(points.min()) - 1.0, float(points.max()) + 1.0
    atoms = DiscreteMeasure(
        points=points[:, None],
        weights=weights,
        domain=Domain(kind="box", dim=1, bounds=((lo, hi),)),
    )
    mean = float(np.dot(weights, points))

    t_lo, t_hi, t_res = params["t_lo"], params["t_hi"], params["t_res"]
    probe = GridFunction(dim=1, resolution=t_res,
                         values=np.zeros(t_res), kind="box",
                         bounds=((t_lo, t_hi),))
    t_nodes = probe.axis_nodes(0)
    # t = 0 must be a node: the certificates p* >= 0 and p*(mean) = 0 read
    # the supremum at t = 0, and a missed node weakens both by O(step^2).
    if float(np.min(np.abs(t_nodes))) > 1e-12:
        raise ValueError(
            "the t window must contain 0 as a node; shift t_lo/t_hi by "
            "half a step (defaults do)"
        )
    log_mgf_values = np.array([log_mgf(atoms, t * points) for t in t_nodes])
    p = dataclasses.replace(probe, values=log_mgf_values)

    pad = params["pad"]
    rate = legendre_transform(
        p,
        dual_bounds=((float(points.min()) - pad, float(points.max()) + pad),),
        dual_resolution=params["x_res"],
    )
    x_nodes = rate.axis_nodes(0)
    rows = tuple(
        (float(x), float(v), "cramer-rate-nonneg")
        for x, v in zip(x_nodes, rate.values)
    )
    table = ResultTable(columns=("x", "rate", "provenance"), rows=rows)
    mgf_curve = Artifact(
        name="mgf.csv",
        columns=("t", "log_mgf"),
        rows=tuple((float(t), float(v))
                   for t, v in zip(t_nodes, log_mgf_values)),
    )
    at_mean = float(conjugate_at(p, np.array([[mean]]))[0])
    min_rate = float(rate.values.min())
    negative = tuple(format_row(r) for r in rows if r[1] < -1e-12)
    checks = (
        Check(
            name="rate-nonnegative",
            passed=min_rate >= -1e-12,
            observed=f"min rate {_fmt(min_rate)}",
            failing_rows=negative,
        ),
        Check(
            name="rate-zero-at-mean",
            passed=abs(at_mean) <= 1e-12,
            observed=f"rate at the mean {_fmt(at_mean)}",
        ),
    )
    return ExperimentResult(table=table, checks=checks,
                            artifacts=(mgf_curve,))


# ---------------------------------------------------------------------------
# zero-temp-mgf


def _test_functions(resolution: int) -> Tuple[Tuple[str, GridFunction], ...]:
    xs = np.arange(resolution) / resolution
    specs = (
        ("zero", np.zeros(resolution)),
        ("cosine", 0.2 * np.cos(2.0 * np.pi * xs)),
        ("well", -0.8 * cost_matrix(xs[:, None], [[0.5]],
                                    "sqdist_torus")[:, 0]),
    )
    return tuple(
        (name, GridFunction(dim=1, resolution=resolution, values=vals,
                            kind="torus"))
        for name, vals in specs
    )


def _run_zero_temp_mgf(params: dict, seed: int) -> ExperimentResult:
    del seed
    if params["d"] != 1:
        raise ValueError("the scaled moment sweep is 1-d")
    k, quad = params["k"], params["quad"]
    mu0 = _load_torus_grid(params["mu0"], 1, k)
    ns = sorted(set(params["n"]))
    shift = params["shift"]

    rows = []
    last_p: Dict[str, float] = {}
    for name, theta in _test_functions(k):
        for n in ns:
            p_n, target = zero_temp_mgf(theta, n, 1, mu0, quad)
            rows.append(("sweep", name, n, p_n, target, abs(p_n - target),
                         "zero-temp-legendre"))
            last_p[name] = p_n
    n_max = ns[-1]
    for name, theta in _test_functions(k):
        p_shift, _ = zero_temp_mgf(theta.shifted(shift), n_max, 1, mu0, quad)
        want = last_p[name] + shift
        rows.append(("shift", name, n_max, p_shift, want,
                     abs(p_shift - want), "zero-temp-shift"))
    table = ResultTable(
        columns=("family", "theta", "n", "p_n", "target", "gap",
                 "provenance"),
        rows=tuple(rows),
    )

    sweep = [r for r in rows if r[0] == "sweep"]
    bad_series = []
    for name, _ in _test_functions(k):
        gaps = [r[5] for r in sweep if r[1] == name]
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            bad_series.append(name)
    shift_bad = [r for r in rows if r[0] == "shift" and r[5] > 1e-12]
    checks = (
        Check(
            name="legendre-gap-decreasing",
            passed=not bad_series,
            observed="non-monotone series: " + ",".join(bad_series)
            if bad_series else "all three gap series decrease strictly",
            failing_rows=tuple(format_row(r) for r in sweep
                               if r[1] in bad_series),
        ),
        Check(
            name="shift-identity",
            passed=not shift_bad,
            observed=f"worst shift gap "
                     f"{_fmt(max(r[5] for r in rows if r[0] == 'shift'))}",
            failing_rows=tuple(format_row(r) for r in shift_bad),
        ),
    )
    return ExperimentResult(table=table, checks=checks)


# ---------------------------------------------------------------------------
# solve-ma


def _run_solve_ma(params: dict, seed: int) -> ExperimentResult:
    del seed
    dim = params["d"]
    if params["mu0"] == "uniform":
        mu0 = GridMeasure.uniform(dim=dim, resolution=params["k"])
    else:
        mu0 = load_grid_csv(params["mu0"], kind="torus")
        if params["k"] != mu0.resolution:
            raise ValueError("k must match the mu0 grid resolution")
    nu = None
    if params["nu"] != "uniform":
        nu = load_grid_csv(params["nu"], kind="torus")
    mp = MasterParams(beta=params["beta"], mu0=mu0, nu=nu,
                      damping=params["damping"],
                      max_iter=params["max_iter"],
                      residual_tol=params["tol"],
                      scheme=params["scheme"])

    artifacts = []
    try:
        phi = solve_master(mp)
    except SolverError as err:
        trace = tuple(
            (i, r, math.inf, math.inf)
            for i, r in enumerate(err.residuals)
        )
        artifacts.append(Artifact(
            name="residuals.csv",
            columns=("iteration", "residual", "free_energy", "step"),
            rows=trace,
        ))
        residual = err.residuals[-1] if err.residuals else math.inf
        row = (mp.beta, mp.resolution, dim, mp.effective_scheme(),
               len(err.residuals), residual, math.inf, math.inf, math.inf,
               "master-equation-fixed-point")
        table = ResultTable(
            columns=("beta", "resolution", "dim", "scheme", "iterations",
                     "residual", "free_energy", "constant", "bracket_abs",
                     "provenance"),
            rows=(row,),
        )
        checks = (
            Check(name="residual-converged", passed=False,
                  observed=str(err), failing_rows=(format_row(row),)),
            Check(name="bracket-identity", passed=False,
                  observed="solver did not converge"),
        )
        return ExperimentResult(table=table, checks=tuple(checks),
                                artifacts=tuple(artifacts))

    residual = f_gradient_residual(phi, mp)
    free_energy = f_functional(phi, mp)
    constant = mp.beta * free_energy
    push = ma_operator(phi, mp.nu)
    pairing = float(np.sum(phi.f.values.reshape(-1) * push.masses()))
    bracket = abs(w2_to_reference(push, mp.nu)
                  + j_functional(phi, mp.nu) + pairing)

    nodes = phi.f.nodes()
    flat = phi.f.values.reshape(-1)
    coord_cols = tuple(f"coord_{a}" for a in range(dim))
    artifacts.append(Artifact(
        name="potential.csv",
        columns=coord_cols + ("value",),
        rows=tuple(tuple(float(c) for c in pt) + (float(v),)
                   for pt, v in zip(nodes, flat)),
    ))
    artifacts.append(Artifact(
        name="pushforward.csv",
        columns=coord_cols + ("weight",),
        rows=tuple(tuple(float(c) for c in pt) + (float(m),)
                   for pt, m in zip(push.centers(), push.masses())),
    ))
    artifacts.append(Artifact(
        name="residuals.csv",
        columns=("iteration", "residual", "free_energy", "step"),
        rows=tuple((int(i), float(r), float(fv), float(s))
                   for i, r, fv, s in phi.log),
    ))

    row = (mp.beta, mp.resolution, dim, mp.effective_scheme(), len(phi.log),
           residual, free_energy, constant, bracket,
           "master-equation-fixed-point")
    table = ResultTable(
        columns=("beta", "resolution", "dim", "scheme", "iterations",
                 "residual", "free_energy", "constant", "bracket_abs",
                 "provenance"),
        rows=(row,),
    )
    checks = [
        Check(
            name="residual-converged",
            passed=residual <= 1e-6,
            observed=f"density mismatch {_fmt(residual)} after "
                     f"{len(phi.log)} iterations",
            failing_rows=() if residual <= 1e-6 else (format_row(row),),
        ),
        Check(
            name="bracket-identity",
            passed=bracket <= 1e-4,
            observed=f"|W2^2 + J + pairing| = {_fmt(bracket)} at the "
                     "fixed point",
            failing_rows=() if bracket <= 1e-4 else (format_row(row),),
        ),
    ]
    if mp.beta == 0.0:
        checks.append(Check(
            name="constant-zero-at-zero-beta",
            passed=abs(constant) <= 1e-12,
            observed=f"beta F = {_fmt(constant)}",
        ))
    return ExperimentResult(table=table, checks=tuple(checks),
                            artifacts=tuple(artifacts))


# ---------------------------------------------------------------------------
# ot


def _load_measure_csv(path: str) -> DiscreteMeasure:
    """Load a measure file as atoms; torus grids are read at their nodes."""
    try:
        grid = load_grid_csv(path, kind="torus")
    except (ValueError, KeyError):
        return load_discrete_csv(path)
    return DiscreteMeasure(
        points=grid.centers(),
        weights=grid.masses(),
        domain=Domain(kind="torus", dim=grid.dim),
    )


def _run_ot(params: dict, seed: int) -> ExperimentResult:
    del seed
    if not params["mu"] or not params["nu"]:
        raise ValueError("ot needs two measure files: mu=<path> nu=<path>")
    name = params["cost"]
    if name not in ("sqdist_torus", "sqdist_euclid", "neg_inner"):
        raise ValueError(
            "cost must be one of sqdist_torus, sqdist_euclid, neg_inner")
    mu = _load_measure_csv(params["mu"])
    nu = _load_measure_csv(params["nu"])
    costs = cost_matrix(mu.points, nu.points, name)
    plan = kantorovich_lp(mu, nu, costs)
    objective = plan.objective(costs)
    mu_gap = float(np.max(np.abs(plan.coupling.sum(axis=1) - mu.weights)))
    nu_gap = float(np.max(np.abs(plan.coupling.sum(axis=0) - nu.weights)))

    flat = plan.coupling.reshape(-1)
    support = [i for i in np.argsort(-flat, kind="stable")[:8]
               if flat[i] > 1e-12]
    rows_idx = [int(i) // plan.coupling.shape[1] for i in support]
    cols_idx = [int(i) % plan.coupling.shape[1] for i in support]
    monotone, _ = cyclical_monotonicity_check(costs, rows_idx, cols_idx,
                                              max_cycle=4, tol=1e-9)

    row = (name, len(mu.weights), len(nu.weights), objective, mu_gap,
           nu_gap, len(support), int(monotone), "transport-plan-optimal")
    table = ResultTable(
        columns=("cost", "atoms_mu", "atoms_nu", "objective",
                 "mu_marginal_gap", "nu_marginal_gap", "support_size",
                 "monotone_ok", "provenance"),
        rows=(row,),
    )
    nonzero = np.argwhere(plan.coupling > 1e-15)
    plan_csv = Artifact(
        name="plan.csv",
        columns=("i", "j", "mass"),
        rows=tuple((int(i), int(j), float(plan.coupling[i, j]))
                   for i, j in nonzero),
    )
    checks = (
        Check(
            name="marginals-exact",
            passed=max(mu_gap, nu_gap) <= 1e-9,
            observed=f"marginal gaps {_fmt(mu_gap)}, {_fmt(nu_gap)}",
            failing_rows=() if max(mu_gap, nu_gap) <= 1e-9
            else (format_row(row),),
        ),
        Check(
            name="support-cyclically-monotone",
            passed=monotone,
            observed="no improving cycle among the heaviest support pairs"
            if monotone else "found an improving support cycle",
            failing_rows=() if monotone else (format_row(row),),
        ),
    )
    return ExperimentResult(table=table, checks=checks,
                            artifacts=(plan_csv,))


# ---------------------------------------------------------------------------
# registry


EXPERIMENTS: Dict[str, ExperimentSpec] = {}


def _register(spec: ExperimentSpec) -> None:
    EXPERIMENTS[spec.name] = spec


_register(ExperimentSpec(
    name="verify-theta",
    summary="kernel exponent vs squared torus distance over a lattice sweep",
    params=(
        ParamSpec("n", "8,16,32,64", _parse_count_list,
                  "comma list of lattice sharpness values"),
        ParamSpec("d", "1", _parse_int, "torus dimension, 1 or 2"),
        ParamSpec("grid", "256", _parse_count,
                  "argument grid resolution per axis"),
        ParamSpec("r", "2", _parse_int, "kernel truncation radius"),
    ),
    claims=("theta-rate-bracket", "theta-rate-one-sided"),
    tolerances={
        "sup-error-monotone": 0.0,
        "sup-error-within-bracket": 1e-6,
        "defect-one-sided": 1e-12,
    },
    runner=_run_verify_theta,
))

_register(ExperimentSpec(
    name="verify-hamiltonian",
    summary="energy sandwich and transport bracket on random configurations",
    params=(
        ParamSpec("n", "2,4,8", _parse_count_list,
                  "comma list of per-axis particle counts"),
        ParamSpec("trials", "100", _parse_count,
                  "random configurations per bracket row"),
        ParamSpec("sandwich_trials", "25", _parse_count,
                  "random configurations per sandwich row"),
        ParamSpec("quad", "256", _parse_count,
                  "uniform reference resolution for the refinement rows"),
    ),
    claims=("permanent-tropical-sandwich", "hamiltonian-w2-bracket",
            "lattice-empirical-refinement"),
    tolerances={
        "sandwich-within-bound": 1e-12,
        "w2-within-bracket": 1e-12,
        "lattice-w2-decreasing": 0.0,
    },
    runner=_run_verify_hamiltonian,
))

_register(ExperimentSpec(
    name="gibbs-ldp",
    summary="exact Gibbs concentration around the rate minimizer",
    params=(
        ParamSpec("n", "2", _parse_int, "per-axis particle count"),
        ParamSpec("d", "1", _parse_int, "torus dimension"),
        ParamSpec("refine", "4", _parse_int, "sites per lattice cell axis"),
        ParamSpec("betas", "0,1000,10000,100000,300000", _parse_float_list,
                  "inverse temperatures; the n=2 energy spread is about "
                  "2e-4, so concentration needs beta near 1e5"),
        ParamSpec("radius", "0.15", _parse_float,
                  "transport-distance ball radius"),
        ParamSpec("center_res", "64", _parse_int,
                  "atoms per axis for the uniform ball center"),
        ParamSpec("mu0", "uniform", _parse_str,
                  "base measure: uniform or a torus grid CSV path"),
        ParamSpec("partition_betas", "1,2", _parse_float_list,
                  "inverse temperatures for the partition sweep"),
        ParamSpec("partition_n", "2,4", _parse_int_list,
                  "per-axis counts for the partition sweep"),
    ),
    claims=("gibbs-concentration", "partition-growth-bound"),
    tolerances={
        "ball-mass-monotone": 1e-12,
        "ball-mass-saturates": 0.9,
        "partition-scaled-decay": 1e-12,
    },
    runner=_run_gibbs_ldp,
))

_register(ExperimentSpec(
    name="sanov-demo",
    summary="exact type probabilities against the entropy rate",
    params=(
        ParamSpec("k", "2", _parse_count, "alphabet size"),
        ParamSpec("n", "4", _parse_count, "sample count for the demo row"),
        ParamSpec("nu", "0.75,0.25", _parse_float_list,
                  "demo type, must be realizable at n"),
        ParamSpec("mu0", "uniform", _parse_str,
                  "base weights: uniform or a comma list"),
        ParamSpec("sweep", "10,50,200", _parse_count_list,
                  "sample counts for the all-types gap sweep"),
    ),
    claims=("sanov-exact-binomial", "sanov-gap-bound"),
    tolerances={
        "demo-prob-multinomial": 1e-12,
        "type-gap-within-bound": 1e-12,
    },
    runner=_run_sanov_demo,
))

_register(ExperimentSpec(
    name="cramer-demo",
    summary="conjugate of an empirical log moment generating function",
    params=(
        ParamSpec("points", "-1.0,0.0,2.0", _parse_float_list,
                  "atom locations on the line"),
        ParamSpec("weights", "0.2,0.5,0.3", _parse_float_list,
                  "atom weights, normalized internally"),
        ParamSpec("t_lo", "-4.05", _parse_float, "lower end of the t window"),
        ParamSpec("t_hi", "3.95", _parse_float, "upper end of the t window"),
        ParamSpec("t_res", "80", _parse_int, "t nodes (0 must be a node)"),
        ParamSpec("pad", "0.5", _parse_float,
                  "dual window margin beyond the atom range"),
        ParamSpec("x_res", "161", _parse_int, "dual grid resolution"),
    ),
    claims=("cramer-rate-nonneg", "cramer-zero-at-mean"),
    tolerances={
        "rate-nonnegative": 1e-12,
        "rate-zero-at-mean": 1e-12,
    },
    runner=_run_cramer_demo,
))

_register(ExperimentSpec(
    name="zero-temp-mgf",
    summary="scaled log moment functional against its conjugate target",
    params=(
        ParamSpec("n", "8,16,32", _parse_int_list,
                  "lattice sharpness sweep"),
        ParamSpec("k", "64", _parse_int, "test-function grid resolution"),
        ParamSpec("quad", "512", _parse_int, "quadrature resolution"),
        ParamSpec("d", "1", _parse_int, "torus dimension (1 only)"),
        ParamSpec("mu0", "uniform", _parse_str,
                  "base measure: uniform or a torus grid CSV path"),
        ParamSpec("shift", "0.37", _parse_float,
                  "constant for the shift identity row"),
    ),
    claims=("zero-temp-legendre", "zero-temp-shift"),
    tolerances={
        "legendre-gap-decreasing": 0.0,
        "shift-identity": 1e-12,
    },
    runner=_run_zero_temp_mgf,
))

_register(ExperimentSpec(
    name="solve-ma",
    summary="fixed point of the second boundary value problem",
    params=(
        ParamSpec("beta", "0.0", _parse_float, "inverse temperature"),
        ParamSpec("mu0", "uniform", _parse_str,
                  "base measure: uniform or a torus grid CSV path"),
        ParamSpec("k", "64", _parse_int, "torus grid resolution"),
        ParamSpec("nu", "uniform", _parse_str,
                  "reference measure: uniform or a torus grid CSV path"),
        ParamSpec("d", "1", _parse_int, "torus dimension"),
        ParamSpec("tol", "1e-9", _parse_float, "solver residual target"),
        ParamSpec("damping", "0.5", _parse_float, "initial step fraction"),
        ParamSpec("max_iter", "400", _parse_int, "iteration budget"),
        ParamSpec("scheme", "auto", _parse_str,
                  "auto, cells (1-d exact), or descent"),
    ),
    claims=("master-equation-fixed-point", "duality-bracket-zero"),
    tolerances={
        "residual-converged": 1e-6,
        "bracket-identity": 1e-4,
        "constant-zero-at-zero-beta": 1e-12,
    },
    runner=_run_solve_ma,
))

_register(ExperimentSpec(
    name="ot",
    summary="linear-program coupling of two measure files",
    params=(
        ParamSpec("mu", None, _parse_str, "source measure CSV path"),
        ParamSpec("nu", None, _parse_str, "target measure CSV path"),
        ParamSpec("cost", "sqdist_torus", _parse_str,
                  "sqdist_torus, sqdist_euclid, or neg_inner"),
    ),
    claims=("transport-plan-optimal",),
    tolerances={
        "marginals-exact": 1e-9,
        "support-cyclically-monotone": 1e-9,
    },
    runner=_run_ot,
))


def resolve_params(spec: ExperimentSpec, raw: Dict[str, str]) -> dict:
    """Parse raw string parameters against the spec, rejecting unknowns."""
    known = {p.name: p for p in spec.params}
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {', '.join(unknown)} for {spec.name}; "
            f"known: {', '.join(sorted(known))}"
        )
    resolved = {}
    for pspec in spec.params:
        text = raw.get(pspec.name, pspec.default)
        if text is None:
            raise ValueError(f"{spec.name} requires {pspec.name}=<value>")
        try:
            resolved[pspec.name] = pspec.parse(text)
        except ValueError as err:
            raise ValueError(
                f"bad value {text!r} for {pspec.name}: {err}") from err
    return resolved


def run_experiment(name: str, raw_params: Dict[str, str],
                   seed: int) -> ExperimentResult:
    spec = EXPERIMENTS[name]
    return spec.runner(resolve_params(spec, raw_params), seed)
