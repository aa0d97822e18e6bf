"""Experiment drivers behind the command line.

Each experiment turns a parameter dictionary, a seed and its registered
tolerances into one :class:`ExperimentResult`: a result table whose final
column names the claim each row certifies, optional side tables (solver
traces, transport plans), and a list of named checks. Every check reads
its threshold from the tolerances that ``manifest.json`` lists, and fails
exactly when some row breaks it; a failed check carries those rows. The
command line layer owns argument parsing, manifests, and exit codes;
everything here is a pure function of (params, seed).

Randomness policy: an experiment receives a single integer seed and
derives every generator it needs from ``np.random.SeedSequence(seed)``,
so equal configurations reproduce their outputs byte for byte. Trial
sweeps run in one process, one row after another; each row evaluates its
random configurations as one stack.
"""

import dataclasses
import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

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
    sanov_rates,
    zero_temp_mgf_stack,
)
from .legendre import GridFunction, conjugate_at
from .measures import (
    DiscreteMeasure,
    Domain,
    GridMeasure,
    cell_nodes,
    grid_points,
    load_discrete_csv,
    load_grid_csv,
    log_mgf,
)
from .monge_ampere import (
    MasterParams,
    SolverError,
    gprop_consistency,
    solve_master,
)
from .torus_theta import ThetaParams, TorusLattice, theta_rate_error
from .transport import (
    cost_matrix,
    cyclical_monotonicity_check,
    kantorovich_lp,
    w2_circle_atoms,
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


def format_cell(value) -> str:
    """Render one CSV cell deterministically.

    Floats use repr, the shortest round-trip form (``inf`` and ``-inf``
    included); everything else is str().
    """
    if isinstance(value, float):
        if value != value:  # NaN never belongs in a result table
            raise ValueError("refusing to serialize NaN")
        return repr(float(value))  # plain float: numpy scalars repr verbosely
    return str(value)


def format_row(cells: Iterable) -> str:
    return ",".join(format_cell(c) for c in cells)


@dataclasses.dataclass(frozen=True)
class Check:
    """One named tolerance evaluation; it passes when no row breaks it.

    failing_rows holds the rendered rows that break the check, for the
    command line to print. Build checks with :func:`_check`.
    """

    name: str
    observed: str
    failing_rows: Tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failing_rows


def _check(name: str, observed: str, failing: Iterable[tuple]) -> Check:
    """The check called name, failed by each row in failing."""
    return Check(name, observed, tuple(format_row(r) for r in failing))


def _order_breaks(rows, column: int, holds: Callable[[float, float], bool],
                  series: Optional[int] = None):
    """Rows whose value in column breaks the order against the row before.

    With series set, rows form one sequence per value in that column.
    """
    previous, breaks = {}, []
    for row in rows:
        key = None if series is None else row[series]
        if key in previous and not holds(previous[key][column], row[column]):
            breaks.append(row)
        previous[key] = row
    return breaks


@dataclasses.dataclass(frozen=True)
class Artifact:
    """A CSV table written under its name into the run directory."""

    name: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]

    def render(self) -> str:
        lines = [",".join(self.columns)]
        lines.extend(format_row(row) for row in self.rows)
        return "\n".join(lines) + "\n"


@dataclasses.dataclass(frozen=True)
class ResultTable(Artifact):
    """results.csv: rectangular results with a trailing provenance column.

    Every row names the claim it certifies, so merged reports can anchor
    rows back to the claim registry. Cells must be str, int, or finite or
    infinite float; NaN is rejected at render time.
    """

    name: str = dataclasses.field(default="results.csv", init=False)

    def __post_init__(self):
        if not self.columns or self.columns[-1] != "provenance":
            raise ValueError("the last column must be 'provenance'")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("ragged result row")
            if row[-1] not in CLAIMS:
                raise ValueError(f"unknown claim id {row[-1]!r}")


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
    runner: Callable[[dict, int, Dict[str, float]], ExperimentResult]


def _parse_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _parse_resolution(text: str) -> int:
    value = int(text)
    if value < 2:
        raise ValueError("must be >= 2 grid nodes per axis")
    return value


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_positive_float(text: str) -> float:
    value = _parse_float(text)
    if not value > 0.0:
        raise ValueError("must be > 0")
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
    items = tuple(_parse_float(t) for t in text.split(",") if t.strip() != "")
    if not items:
        raise ValueError("empty float list")
    return items


def _parse_weight_list(text: str) -> Tuple[float, ...]:
    items = _parse_float_list(text)
    if min(items) < 0.0:
        raise ValueError("every entry must be >= 0")
    return items


def _parse_uniform_or_weights(text: str):
    return text if text == "uniform" else _parse_weight_list(text)


def _parse_str(text: str) -> str:
    return text


def _parse_dim(*supported: int) -> Callable[[str], int]:
    """Parser for a torus dimension the experiment supports."""

    def parse(text: str) -> int:
        value = int(text)
        if value not in supported:
            raise ValueError("must be " + " or ".join(map(str, supported)))
        return value

    return parse


def _spawn_seeds(seed: int, count: int):
    """Independent integer seeds derived from the one run seed."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1)[0]) for c in children]


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# verify-theta


def _run_verify_theta(params: dict, seed: int,
                      tol: Dict[str, float]) -> ExperimentResult:
    """One row per lattice n; `theta_rate_error` reads its defect off one
    1-d (lattice, grid) table, O(n grid) memory in either dimension."""
    del seed  # deterministic sweep, kept for the uniform runner signature
    dim = params["d"]
    rows, defects = [], []
    for n in sorted(set(params["n"])):
        tparams = ThetaParams(n=n, truncation_radius=params["r"])
        lattice = TorusLattice(n=n, d=dim)
        signed_max, sup = theta_rate_error(tparams, lattice, params["grid"])
        defects.append(signed_max)
        bound = float(tparams.bracket_width(dim))
        rows.append((n, sup, bound, "theta-rate-bracket"))
    table = ResultTable(
        columns=("n", "sup_error", "bracket_bound", "provenance"),
        rows=tuple(rows),
    )
    checks = (
        _check("sup-error-monotone",
               "sup errors " + " > ".join(_fmt(r[1]) for r in rows),
               _order_breaks(rows, 1, lambda a, b:
                             b < a + tol["sup-error-monotone"])),
        _check("sup-error-within-bracket",
               f"worst margin {_fmt(max(r[1] - r[2] for r in rows))}",
               [r for r in rows
                if r[1] > r[2] + tol["sup-error-within-bracket"]]),
        _check("defect-one-sided",
               f"max signed defect {_fmt(max(defects))}",
               [r for r, s in zip(rows, defects)
                if s > tol["defect-one-sided"]]),
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


def _run_verify_hamiltonian(params: dict, seed: int,
                            tol: Dict[str, float]) -> ExperimentResult:
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
        gap = hamiltonian_w2_gap(kind, n, trials, s)
        tparams = ThetaParams(n=n)
        bound = float(tparams.bracket_width(1)) + float(tparams.tail_bound)
        family = "w2-" + kind.tag
        if kind.tag == "permanental":
            bound += math.log(math.factorial(n)) / (n * n)
        return (family, n, n, trials, gap, bound, "hamiltonian-w2-bracket")

    rows += [w2_row(TROPICAL, n, s) for n, s in zip(ns, s_trop)]
    rows += [w2_row(PERMANENTAL, n, s) for n, s in zip(perm_ns, s_perm)]

    # the uniform reference read as atoms at its cell centres
    reference = GridMeasure.uniform(dim=1, resolution=params["quad"])
    centres, cell_masses = reference.centers().reshape(-1), reference.masses()
    previous = math.inf
    for n in ns:
        value = float(w2_circle_atoms(TorusLattice(n, 1).points.reshape(1, -1),
                                      np.full(n, 1.0 / n), centres,
                                      cell_masses)[0])
        rows.append(("lattice-refinement", n, n, 0, value, previous,
                     "lattice-empirical-refinement"))
        previous = value

    table = ResultTable(
        columns=("family", "n", "particles", "trials", "gap", "bound",
                 "provenance"),
        rows=tuple(rows),
    )
    sandwich_bad = [r for r in rows if r[0] == "sandwich"
                    and r[4] > r[5] + tol["sandwich-within-bound"]]
    w2_bad = [r for r in rows if r[0].startswith("w2-")
              and r[4] > r[5] + tol["w2-within-bracket"]]
    refinement = [r for r in rows if r[0] == "lattice-refinement"]
    checks = (
        _check("sandwich-within-bound",
               f"{len(sandwich_bad)} of {len(sandwich_ns)} sizes exceed"
               " (1/n) log N!",
               sandwich_bad),
        _check("w2-within-bracket",
               f"{len(w2_bad)} sweep rows exceed the kernel bracket",
               w2_bad),
        _check("lattice-w2-decreasing",
               "lattice-to-uniform distances "
               + " > ".join(_fmt(r[4]) for r in refinement),
               [r for r in refinement
                if not r[4] < r[5] + tol["lattice-w2-decreasing"]]),
    )
    return ExperimentResult(table=table, checks=checks)


# ---------------------------------------------------------------------------
# gibbs-ldp


def _load_torus_grid(spec: str, dim: int, resolution: int) -> GridMeasure:
    if spec == "uniform":
        return GridMeasure.uniform(dim=dim, resolution=resolution)
    return load_grid_csv(spec)


def _run_gibbs_ldp(params: dict, seed: int,
                   tol: Dict[str, float]) -> ExperimentResult:
    del seed  # exact ensembles carry no sampling noise
    n, dim, refine = params["n"], params["d"], params["refine"]
    mu0 = _load_torus_grid(params["mu0"], dim, n * refine)
    betas = sorted(set(params["betas"]))
    radius = params["radius"]
    if not radius > 0.0:
        raise ValueError("radius must be > 0")

    # The rate minimizer for uniform mu0 = nu is the uniform density; a
    # two-atom empirical sits about 0.1443 from it in transport distance,
    # so the ball must be measured against a center fine enough to stand
    # in for the continuum (the coarse site-uniform is already 0.153 away
    # from the best configuration and would leave the ball empty).
    cres = params["center_res"]
    center = DiscreteMeasure(
        points=grid_points([np.arange(cres) / cres] * dim),
        weights=np.full(cres ** dim, 1.0 / cres ** dim),
        domain=Domain(kind="torus", dim=dim),
    )
    rows = []
    for beta in betas:
        ens = GibbsEnsemble(beta=beta, n=n, d=dim, mu0=mu0,
                            kind=PERMANENTAL,
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
                                kind=PERMANENTAL,
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

    grown = _order_breaks(part_rows, 2, lambda a, b: abs(b) <= abs(a)
                          + tol["partition-scaled-decay"], series=0)
    checks = (
        _check("ball-mass-monotone",
               "ball masses " + " <= ".join(_fmt(r[4]) for r in rows),
               _order_breaks(rows, 4, lambda a, b:
                             b >= a - tol["ball-mass-monotone"])),
        _check("ball-mass-saturates",
               f"mass at beta={betas[-1]} is {_fmt(rows[-1][4])}",
               [r for r in rows[-1:]
                if not r[4] >= tol["ball-mass-saturates"]]),
        _check("partition-scaled-decay",
               "a scaled log partition grew under refinement" if grown
               else "per-beta |log Z| / n^d sequences are nonincreasing",
               grown),
    )
    return ExperimentResult(table=table, checks=checks,
                            artifacts=(partition,))


# ---------------------------------------------------------------------------
# sanov-demo


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every ordered split of total into parts nonnegative integers, one
    row each, from the bar positions of stars and bars."""
    bars = list(itertools.combinations(range(total + parts - 1), parts - 1))
    edges = np.empty((len(bars), parts + 1), dtype=np.int64)
    edges[:, 0], edges[:, -1] = -1, total + parts - 1
    edges[:, 1:-1] = np.reshape(bars, (len(bars), parts - 1))
    return np.diff(edges) - 1


def _multinomial_prob(counts: Tuple[int, ...],
                      weights: np.ndarray) -> Fraction:
    """Exact type probability recounted from factorials, no logs.

    The coefficient and the powers stay exact rationals: the coefficient
    alone overflows a float past about 1.8e308 (k = 5, n = 500 already),
    and the probability underflows one long before the sample caps.
    """
    n = sum(counts)
    coeff = math.factorial(n)
    for c in counts:
        coeff //= math.factorial(c)
    prob = Fraction(coeff)
    for c, w in zip(counts, weights):
        prob *= Fraction(float(w)) ** c
    return prob


def _run_sanov_demo(params: dict, seed: int,
                    tol: Dict[str, float]) -> ExperimentResult:
    del seed
    k, n = params["k"], params["n"]
    if params["mu0"] == "uniform":
        mu0 = np.full(k, 1.0 / k)
    else:
        mu0 = np.asarray(params["mu0"], dtype=float)
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
    # -n rate against the recount's exact log, relative to its size, so a
    # probability far below any absolute tolerance is still compared
    log_recount = (math.log(recount.numerator)
                   - math.log(recount.denominator))
    log_gap = abs(-n * rate - log_recount)
    demo_gap = rate - ent
    rows = [("demo", k, n, prob, rate, ent, demo_gap,
             float(sanov_gap_bound(k, n)), "sanov-exact-binomial")]

    def sweep_row(n_s: int):
        if math.comb(n_s + k - 1, k - 1) > 200_000:
            raise ValueError("too many types; lower k or the sweep sizes")
        rates, ents = sanov_rates(mu0, _compositions(n_s, k))
        worst = int(np.argmax(rates - ents))  # the first of equal gaps
        r, e = float(rates[worst]), float(ents[worst])
        return ("sweep", k, n_s, math.exp(-n_s * r), r, e, r - e,
                float(sanov_gap_bound(k, n_s)), "sanov-gap-bound")

    rows += [sweep_row(n_s) for n_s in sorted(set(params["sweep"]))]
    table = ResultTable(
        columns=("family", "alphabet", "n", "prob", "rate", "entropy",
                 "gap", "bound", "provenance"),
        rows=tuple(rows),
    )
    slack = tol["type-gap-within-bound"]
    checks = (
        _check("demo-prob-multinomial",
               f"exp(-n rate) = {_fmt(prob)}, recount = "
               f"{_fmt(float(recount))}, log gap {_fmt(log_gap)}",
               [] if log_gap <= tol["demo-prob-multinomial"]
               * max(1.0, abs(log_recount)) else [rows[0]]),
        _check("type-gap-within-bound",
               f"worst gap margin {_fmt(max(r[6] - r[7] for r in rows))}",
               [r for r in rows if not -slack <= r[6] <= r[7] + slack]),
    )
    return ExperimentResult(table=table, checks=checks)


# ---------------------------------------------------------------------------
# cramer-demo


def _run_cramer_demo(params: dict, seed: int,
                     tol: Dict[str, float]) -> ExperimentResult:
    del seed
    points = np.asarray(params["points"], dtype=float)
    weights = np.asarray(params["weights"], dtype=float)
    if len(points) != len(weights) or np.any(weights <= 0.0):
        raise ValueError("points and weights must match, weights positive")
    weights = weights / weights.sum()
    mean = float(np.dot(weights, points))

    t_nodes = cell_nodes(params["t_lo"], params["t_hi"], params["t_res"])
    # t = 0 must be a node: the certificates p* >= 0 and p*(mean) = 0 read
    # the supremum at t = 0, and a missed node weakens both by O(step^2).
    if float(np.min(np.abs(t_nodes))) > 1e-12:
        raise ValueError(
            "the t window must contain 0 as a node; shift t_lo/t_hi by "
            "half a step (defaults do)"
        )
    log_mgf_values = log_mgf(weights, t_nodes[:, None] * points[None, :])

    pad = params["pad"]
    x_nodes = cell_nodes(float(points.min()) - pad,
                         float(points.max()) + pad, params["x_res"])
    # the rate on the x grid and, in the last entry, at the mean
    rates = conjugate_at(t_nodes[:, None], log_mgf_values,
                         np.append(x_nodes, mean)[:, None])
    rows = tuple(
        (float(x), float(v), "cramer-rate-nonneg")
        for x, v in zip(x_nodes, rates[:-1])
    )
    table = ResultTable(columns=("x", "rate", "provenance"), rows=rows)
    mgf_curve = Artifact(
        name="mgf.csv",
        columns=("t", "log_mgf"),
        rows=tuple((float(t), float(v))
                   for t, v in zip(t_nodes, log_mgf_values)),
    )
    # the rate at the mean, as a row in the table's columns
    at_mean = (mean, float(rates[-1]), "cramer-zero-at-mean")
    checks = (
        _check("rate-nonnegative",
               f"min rate {_fmt(rates[:-1].min())}",
               [r for r in rows if r[1] < -tol["rate-nonnegative"]]),
        _check("rate-zero-at-mean",
               f"rate at the mean {_fmt(at_mean[1])}",
               [] if abs(at_mean[1]) <= tol["rate-zero-at-mean"]
               else [at_mean]),
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
        (name, GridFunction(dim=1, resolution=resolution, values=vals))
        for name, vals in specs
    )


def _run_zero_temp_mgf(params: dict, seed: int,
                       tol: Dict[str, float]) -> ExperimentResult:
    del seed
    k, quad = params["k"], params["quad"]
    mu0 = _load_torus_grid(params["mu0"], 1, k)
    ns = sorted(set(params["n"]))
    shift = params["shift"]

    names, thetas = zip(*_test_functions(k))
    n_max = ns[-1]
    # one kernel table per n serves the test functions, and at n_max their
    # shifted copies too
    p, target = {}, {}
    for n in ns:
        stack = list(thetas)
        if n == n_max:
            stack += [theta.shifted(shift) for theta in thetas]
        p[n], target[n] = zero_temp_mgf_stack(stack, n, 1, mu0, quad)
    rows = []
    for j, name in enumerate(names):
        for n in ns:
            p_n, t_n = float(p[n][j]), float(target[n][j])
            rows.append(("sweep", name, n, p_n, t_n, abs(p_n - t_n),
                         "zero-temp-legendre"))
    for j, name in enumerate(names):
        p_shift = float(p[n_max][len(names) + j])
        want = float(p[n_max][j]) + shift
        rows.append(("shift", name, n_max, p_shift, want,
                     abs(p_shift - want), "zero-temp-shift"))
    table = ResultTable(
        columns=("family", "theta", "n", "p_n", "target", "gap",
                 "provenance"),
        rows=tuple(rows),
    )

    grew = _order_breaks([r for r in rows if r[0] == "sweep"], 5,
                         lambda a, b: b < a + tol["legendre-gap-decreasing"],
                         series=1)
    shifts = [r for r in rows if r[0] == "shift"]
    checks = (
        _check("legendre-gap-decreasing",
               "non-monotone series: "
               + ",".join(dict.fromkeys(r[1] for r in grew))
               if grew else "all three gap series decrease strictly",
               grew),
        _check("shift-identity",
               f"worst shift gap {_fmt(max(r[5] for r in shifts))}",
               [r for r in shifts if r[5] > tol["shift-identity"]]),
    )
    return ExperimentResult(table=table, checks=checks)


# ---------------------------------------------------------------------------
# solve-ma


def _run_solve_ma(params: dict, seed: int,
                  tol: Dict[str, float]) -> ExperimentResult:
    del seed
    dim = params["d"]
    mu0 = nu = None
    if params["mu0"] != "uniform":
        mu0 = load_grid_csv(params["mu0"])
    if params["nu"] != "uniform":
        nu = load_grid_csv(params["nu"])
    for name, grid in (("mu0", mu0), ("nu", nu)):
        if grid is not None and grid.dim != dim:
            raise ValueError(f"{name} is a {grid.dim}-d grid but d={dim}")
    if mu0 is None:
        mu0 = GridMeasure.uniform(dim=dim, resolution=params["k"])
    elif params["k"] != mu0.resolution:
        raise ValueError("k must match the mu0 grid resolution")
    mp = MasterParams(beta=params["beta"], mu0=mu0, nu=nu,
                      max_iter=params["max_iter"],
                      residual_tol=params["tol"])

    columns = ("beta", "resolution", "dim", "iterations", "residual",
               "free_energy", "constant", "bracket_abs", "provenance")
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
        # the trace starts with the initial potential; count accepted steps
        row = (mp.beta, mp.resolution, dim, max(len(err.residuals) - 1, 0),
               residual, math.inf, math.inf, math.inf,
               "master-equation-fixed-point")
        checks = (
            _check("residual-converged", str(err), [row]),
            _check("bracket-identity", "solver did not converge", [row]),
        )
        return ExperimentResult(table=ResultTable(columns, (row,)),
                                checks=checks, artifacts=tuple(artifacts))

    report = gprop_consistency(mp, probes=0, phi_min=phi)
    residual, bracket = report.residual_tv, abs(report.bracket_gap)
    free_energy = report.free_energy
    constant = mp.beta * free_energy
    push = report.pushforward

    nodes = phi.nodes()
    flat = phi.values.reshape(-1)
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

    steps = len(phi.log) - 1  # the log starts with the initial potential
    row = (mp.beta, mp.resolution, dim, steps, residual, free_energy,
           constant, bracket, "master-equation-fixed-point")
    checks = [
        _check("residual-converged",
               f"density mismatch {_fmt(residual)} after {steps} iterations",
               [] if residual <= tol["residual-converged"] else [row]),
        _check("bracket-identity",
               f"|W2^2 + J + pairing| = {_fmt(bracket)} at the fixed point",
               [] if bracket <= tol["bracket-identity"] else [row]),
    ]
    if mp.beta == 0.0:
        checks.append(_check(
            "constant-zero-at-zero-beta", f"beta F = {_fmt(constant)}",
            [] if abs(constant) <= tol["constant-zero-at-zero-beta"]
            else [row]))
    return ExperimentResult(table=ResultTable(columns, (row,)),
                            checks=tuple(checks), artifacts=tuple(artifacts))


# ---------------------------------------------------------------------------
# ot


def _load_measure_csv(path: str) -> DiscreteMeasure:
    """Load a measure file as atoms; torus grids are read at their nodes."""
    try:
        grid = load_grid_csv(path)
    except (ValueError, KeyError):
        return load_discrete_csv(path)
    return DiscreteMeasure(
        points=grid.centers(),
        weights=grid.masses(),
        domain=Domain(kind="torus", dim=grid.dim),
    )


def _run_ot(params: dict, seed: int,
           tol: Dict[str, float]) -> ExperimentResult:
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
    monotone, _ = cyclical_monotonicity_check(
        costs, rows_idx, cols_idx, tol=tol["support-cyclically-monotone"])

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
        _check("marginals-exact",
               f"marginal gaps {_fmt(mu_gap)}, {_fmt(nu_gap)}",
               [] if max(mu_gap, nu_gap) <= tol["marginals-exact"]
               else [row]),
        _check("support-cyclically-monotone",
               "no improving cycle among the heaviest support pairs"
               if monotone else "found an improving support cycle",
               [] if monotone else [row]),
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
        ParamSpec("d", "1", _parse_dim(1, 2), "torus dimension, 1 or 2"),
        ParamSpec("grid", "256", _parse_count,
                  "argument grid resolution per axis"),
        ParamSpec("r", "2", _parse_count, "kernel truncation radius"),
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
        ParamSpec("n", "2", _parse_count, "per-axis particle count"),
        ParamSpec("d", "1", _parse_dim(1, 2), "torus dimension, 1 or 2"),
        ParamSpec("refine", "4", _parse_count, "sites per lattice cell axis"),
        ParamSpec("betas", "0,1000,10000,100000,300000", _parse_float_list,
                  "inverse temperatures; the n=2 energy spread is about "
                  "2e-4, so concentration needs beta near 1e5"),
        ParamSpec("radius", "0.15", _parse_float,
                  "transport-distance ball radius"),
        ParamSpec("center_res", "64", _parse_resolution,
                  "atoms per axis for the uniform ball center"),
        ParamSpec("mu0", "uniform", _parse_str,
                  "base measure: uniform or a torus grid CSV path"),
        ParamSpec("partition_betas", "1,2", _parse_float_list,
                  "inverse temperatures for the partition sweep"),
        ParamSpec("partition_n", "2,4", _parse_count_list,
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
        ParamSpec("nu", "0.75,0.25", _parse_weight_list,
                  "demo type, must be realizable at n"),
        ParamSpec("mu0", "uniform", _parse_uniform_or_weights,
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
        ParamSpec("t_res", "80", _parse_resolution,
                  "t nodes (0 must be a node)"),
        ParamSpec("pad", "0.5", _parse_float,
                  "dual window margin beyond the atom range"),
        ParamSpec("x_res", "161", _parse_resolution, "dual grid resolution"),
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
        ParamSpec("n", "8,16,32", _parse_count_list,
                  "lattice sharpness sweep"),
        ParamSpec("k", "64", _parse_resolution,
                  "test-function grid resolution"),
        ParamSpec("quad", "512", _parse_resolution, "quadrature resolution"),
        ParamSpec("d", "1", _parse_dim(1), "torus dimension (1 only)"),
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
        ParamSpec("k", "64", _parse_resolution, "torus grid resolution"),
        ParamSpec("nu", "uniform", _parse_str,
                  "reference measure: uniform or a torus grid CSV path"),
        ParamSpec("d", "1", _parse_dim(1),
                  "torus dimension (1 only, until an exact 2-d operator)"),
        ParamSpec("tol", "1e-9", _parse_positive_float,
                  "solver residual target"),
        ParamSpec("max_iter", "400", _parse_count, "accepted-step budget"),
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
    return spec.runner(resolve_params(spec, raw_params), seed,
                       spec.tolerances)
