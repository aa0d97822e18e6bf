"""The benchmark's three workloads: seeded job lists and per-job checks.

A workload builds one round of jobs from the seed; the runner repeats the
round until the run's time is up. Every round holds the same job kinds at
the same sizes, so a round costs the same on every seed and only the values
inside the inputs change. The order of the kinds inside a round is seeded,
which spreads the host's speed drift over all of them.

Each job is a ``run`` callable that calls into the program and a ``check``
callable that returns a list of problems with the output (empty when the
output is right). Checks recompute from ``oracles`` or test a property the
method must have; they run outside the timed region.
"""

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np

from ldpma import cli, legendre, measures
from ldpma import hamiltonian_gibbs as hg
from ldpma import monge_ampere as ma

import oracles


@dataclass(frozen=True)
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]


def smooth_density(rng, k):
    """Positive density on k cells: 1 plus three low Fourier modes.

    The amplitudes sum to 0.8 (below 1), so the density stays above 0.2.
    """
    x = (np.arange(k) + 0.5) / k
    amp = rng.uniform(0.2, 1.0, 3)
    amp *= 0.8 / amp.sum()
    phase = rng.uniform(0.0, 2.0 * np.pi, 3)
    return 1.0 + sum(a * np.cos(2.0 * np.pi * (j + 1) * x + p)
                     for j, (a, p) in enumerate(zip(amp, phase)))


def _normalised(weights):
    return weights / weights.sum()


def _close(label, got, want, tol):
    if abs(got - want) <= tol:
        return []
    return [f"{label}: got {got!r}, want {want!r} (tolerance {tol:g})"]


# ---------------------------------------------------------------------------
# gibbs-exact


TABLE_RECOUNT = 6  # sampled tuples whose Hamiltonian is recounted


def _table_job(kind_name, n, refine, kind, beta, density, sample):
    mu0 = measures.GridMeasure.from_density_values(density)
    ens = hg.GibbsEnsemble(beta=beta, n=n, d=1, mu0=mu0, kind=kind,
                           site_refinement=refine)
    k = n * refine
    log_w = np.log(density) - oracles.logsumexp(np.log(density))
    log_phi = oracles.log_theta(n, (np.arange(k) / k)[:, None])
    naive = (oracles.naive_log_permanent if kind is hg.PERMANENTAL
             else oracles.naive_log_tropical)

    def check(table):
        problems = []
        if table.hamiltonians.shape != (k ** n,):
            return [f"table has shape {table.hamiltonians.shape}"]
        if kind is hg.PERMANENTAL and beta == n:
            # zero temperature: Z = N! prod_i sum_x phi_i(x) w(x)
            want = math.lgamma(n + 1) + float(
                np.sum(oracles.logsumexp(log_phi + log_w[None, :], axis=1)))
            problems += _close("log Z against the product formula",
                               table.log_partition, want, 1e-12)
        if beta == 0.0:
            problems += _close("log Z at beta 0", table.log_partition, 0.0,
                               1e-12)
        for flat in sample:
            idx = np.unravel_index(flat, (k,) * n)
            want = -naive(log_phi[:, list(idx)]) / n
            problems += _close(f"H of tuple {tuple(int(i) for i in idx)}",
                               float(table.hamiltonians[flat]), want, 1e-10)
        return problems

    return Job(kind_name, lambda: hg.gibbs_exact(ens), check)


BALL_RADIUS = 0.15
BALL_CENTER_RES = 64


def _ball_job(kind_name, n, refine, betas):
    k = n * refine
    mu0 = measures.GridMeasure.uniform(dim=1, resolution=k)
    ensembles = [hg.GibbsEnsemble(beta=b, n=n, d=1, mu0=mu0,
                                  kind=hg.PERMANENTAL, site_refinement=refine)
                 for b in betas]
    center = measures.DiscreteMeasure(
        points=(np.arange(BALL_CENTER_RES) / BALL_CENTER_RES)[:, None],
        weights=np.full(BALL_CENTER_RES, 1.0 / BALL_CENTER_RES),
        domain=measures.torus_domain(1))

    def run():
        return [hg.local_rate(e, center, BALL_RADIUS).prob for e in ensembles]

    def check(masses):
        problems = [f"ball mass {m!r} at beta {b!r} outside [0, 1]"
                    for b, m in zip(betas, masses) if not 0.0 <= m <= 1.0]
        problems += [f"ball mass falls from {a!r} to {b!r}"
                     for a, b in zip(masses, masses[1:]) if b < a - 1e-12]
        return problems

    return Job(kind_name, run, check)


def gibbs_exact(seed, outdir):
    """Exact tables at N = 3 (1,728 tuples) and N = 4 (4,096), plus balls.

    Three N = 3 tables sit below the median and three ball jobs above it,
    so the median job is the middle one of the five N = 4 tables.
    """
    del outdir
    rng = np.random.default_rng([seed, 1])

    def table(name, n, refine, kind, beta):
        k = n * refine
        sample = rng.choice(k ** n, size=TABLE_RECOUNT, replace=False)
        return _table_job(name, n, refine, kind, beta,
                          smooth_density(rng, k), sample)

    def betas(count, lo, hi):
        return [0.0] + sorted(10.0 ** rng.uniform(lo, hi, count))

    jobs = [
        table("table-n3-zero-temp", 3, 4, hg.PERMANENTAL, 3.0),
        table("table-n3", 3, 4, hg.PERMANENTAL, rng.uniform(0.5, 2.5)),
        table("table-n3-tropical", 3, 4, hg.TROPICAL, rng.uniform(0.5, 8.0)),
        table("table-n4-zero-temp", 4, 2, hg.PERMANENTAL, 4.0),
        table("table-n4-beta0", 4, 2, hg.PERMANENTAL, 0.0),
        table("table-n4", 4, 2, hg.PERMANENTAL, rng.uniform(0.5, 3.5)),
        table("table-n4", 4, 2, hg.PERMANENTAL, rng.uniform(4.5, 8.0)),
        table("table-n4", 4, 2, hg.PERMANENTAL, rng.uniform(8.0, 16.0)),
        _ball_job("ball-n2", 2, 4, betas(4, 3.0, 5.5)),
        _ball_job("ball-n2", 2, 4, betas(4, 2.5, 5.0)),
        _ball_job("ball-n3", 3, 2, betas(3, 3.0, 5.0)),
    ]
    return [jobs[i] for i in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# ma-path


MA_BETAS = (-0.5, 0.0, 0.5, 1.0, 2.0, 4.0)
MA_RESOLUTIONS = (64, 128, 256)
MA_PROBES = 8
CERT_TOL = 1e-4
TILT_SAMPLES = 64  # brute-force sample points per cell axis
# the 2-d kind: fixed inputs, it fails the same way on every seed
MA_2D_RESOLUTION = 6
MA_2D_BETAS = (0.5, 1.0)


def _master_job(kind_name, beta, density, probe_seed):
    mu0 = measures.GridMeasure.from_density_values(density)
    params = ma.MasterParams(beta=beta, mu0=mu0)
    mu0_masses = density / density.sum()
    nu_masses = np.full(density.shape, 1.0 / density.size)

    def run():
        phi = ma.solve_master(params)
        return phi, ma.gprop_consistency(params, probes=MA_PROBES,
                                         seed=probe_seed, phi_min=phi)

    def check(out):
        phi, report = out
        recount, resolution = oracles.pushforward_recount(
            phi.values, nu_masses, TILT_SAMPLES)
        diff = recount - oracles.tilt_masses(phi.values, beta, mu0_masses)
        if density.ndim == 1:
            # cells 0..i together cover an arc, whose sampled mass is off
            # by at most the two sub-cells at its ends
            diff = np.cumsum(diff)
            resolution = np.full(diff.shape,
                                 2.0 * nu_masses.max() / TILT_SAMPLES)
        problems = [f"cells up to {int(i)}: pushforward and tilt differ by "
                    f"{diff[i]!r}, beyond the sample resolution "
                    f"{resolution[i]!r}"
                    for i in np.flatnonzero(np.abs(diff) - resolution > 1e-9)]
        if abs(report.bracket_gap) > CERT_TOL:
            problems.append(f"transport bracket {report.bracket_gap!r}")
        if report.rate_at_minimizer > CERT_TOL:
            problems.append(f"rate at the minimiser {report.rate_at_minimizer!r}")
        if not report.min_probe_value > report.rate_at_minimizer:
            problems.append(f"a probe rate {report.min_probe_value!r} is not "
                            f"above the minimiser's {report.rate_at_minimizer!r}")
        if beta == 0.0:
            problems += _close("beta F at beta 0",
                               beta * ma.f_functional(phi, params), 0.0, 1e-12)
        return problems

    return Job(kind_name, run, check)


def ma_path(seed, outdir):
    """solve_master plus its certificates at every (beta, k) of the grid."""
    del outdir
    rng = np.random.default_rng([seed, 2])
    jobs = [_master_job(f"solve-1d-k{k}", beta, smooth_density(rng, k),
                        int(rng.integers(2 ** 31)))
            for k in MA_RESOLUTIONS for beta in MA_BETAS]
    k = MA_2D_RESOLUTION
    x = (np.arange(k) + 0.5) / k
    bump = 1.0 + 0.5 * np.outer(np.cos(2.0 * np.pi * x), np.cos(2.0 * np.pi * x))
    jobs += [_master_job("solve-2d-k6", beta, bump, 0)
             for beta in MA_2D_BETAS]
    return [jobs[i] for i in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# verify-sweep


def _read_rows(path):
    with open(path, newline="", encoding="ascii") as handle:
        return list(csv.DictReader(handle))


def _write_measure(path, coords, weights):
    with open(path, "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([f"coord_{a}" for a in range(coords.shape[1])]
                        + ["weight"])
        for row, w in zip(coords, weights):
            writer.writerow([repr(float(c)) for c in row] + [repr(float(w))])


def _cli_job(kind_name, outdir, argv, check_output=lambda run_dir: []):
    run_dir = outdir / kind_name
    full = ["run", *argv, "--out", str(run_dir)]

    def run():
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            code = cli.main(full)
        return code, text.getvalue()

    def check(out):
        code, text = out
        if code != 0:
            return [f"ldpma {' '.join(full)} exited {code}: {text.strip()}"]
        return check_output(run_dir)

    return Job(kind_name, run, check)


def _theta_bracket(dim):
    radius = oracles.THETA_RADIUS

    def check(run_dir):
        problems = []
        for row in _read_rows(run_dir / "results.csv"):
            n = int(row["n"])
            bound = dim * math.log(2 * radius + 1) / n \
                + math.exp(-n * (radius - 1) ** 2)
            if not float(row["sup_error"]) <= bound:
                problems.append(f"n={n}: kernel defect {row['sup_error']} "
                                f"above the bracket {bound!r}")
        return problems
    return check


SANDWICH_NS = range(2, 8)
HAMILTONIAN_NS = (2, 4, 8)
HAMILTONIAN_PERM_NS = (2, 3)


def _sandwich_recount(seed):
    """Recount verify-hamiltonian's sandwich rows at its defaults.

    The experiment draws each size's configurations from the first of the
    child seeds of SeedSequence(seed); here the same configurations get
    their permanental and tropical energies from full permutation sums.
    """
    count = len(SANDWICH_NS) + len(HAMILTONIAN_NS) + len(HAMILTONIAN_PERM_NS)
    children = np.random.SeedSequence(seed).spawn(count)

    def worst_gap(n, child):
        rng = np.random.default_rng(int(child.generate_state(1)[0]))
        gap = 0.0
        for _ in range(25):
            log_phi = oracles.log_theta(n, rng.random((n, 1)))
            gap = max(gap, abs(oracles.naive_log_permanent(log_phi)
                               - oracles.naive_log_tropical(log_phi)) / n)
        return gap

    def check(run_dir):
        rows = {int(r["n"]): float(r["gap"])
                for r in _read_rows(run_dir / "results.csv")
                if r["family"] == "sandwich"}
        if sorted(rows) != list(SANDWICH_NS):
            return [f"sandwich rows for n = {sorted(rows)}"]
        problems = []
        for n, child in zip(SANDWICH_NS, children):
            problems += _close(f"sandwich gap at n={n}", rows[n],
                               worst_gap(n, child), 1e-10)
        return problems
    return check


def _ot_marginals(mu_weights, nu_weights):
    def check(run_dir):
        rows = _read_rows(run_dir / "plan.csv")
        i = np.array([int(r["i"]) for r in rows])
        j = np.array([int(r["j"]) for r in rows])
        mass = np.array([float(r["mass"]) for r in rows])
        gaps = (np.abs(np.bincount(i, mass, len(mu_weights)) - mu_weights).max(),
                np.abs(np.bincount(j, mass, len(nu_weights)) - nu_weights).max())
        return [f"plan marginal off by {g!r}" for g in gaps if g > 1e-9]
    return check


def _ent_dual_job(kind_name, rng, letters):
    mu0_w = _normalised(rng.uniform(0.2, 1.0, letters))
    nu_w = _normalised(rng.uniform(0.2, 1.0, letters))
    mu0 = measures.DiscreteMeasure.from_alphabet_weights(mu0_w)
    nu = measures.DiscreteMeasure.from_alphabet_weights(nu_w)
    ent = oracles.relative_entropy(mu0_w, nu_w)

    def check(out):
        _, sup = out
        problems = []
        if sup > ent + 1e-12:
            problems.append(f"dual supremum {sup!r} above the entropy {ent!r}")
        if ent - sup > 1e-3:
            problems.append(f"dual supremum {sup!r} short of the entropy "
                            f"{ent!r} by more than 1e-3")
        return problems

    return Job(kind_name, lambda: legendre.ent_dual_check(mu0, nu), check)


def verify_sweep(seed, outdir):
    """Registered verification experiments through the CLI, plus entropy
    duality.

    Seven jobs of at most about 0.15 s sit below the median and seven
    (six 4-letter duality checks and the 2-d kernel sweep) above it, so the
    median job is one of the four verify-hamiltonian runs.
    """
    rng = np.random.default_rng([seed, 3])
    outdir = Path(outdir)

    mu0_path = outdir / "mu0.csv"
    k = 64
    _write_measure(mu0_path, ((np.arange(k) + 0.5) / k)[:, None],
                   _normalised(smooth_density(rng, k)))
    mu_w = _normalised(rng.uniform(0.2, 1.0, 40))
    nu_w = _normalised(rng.uniform(0.2, 1.0, 50))
    _write_measure(outdir / "mu.csv", rng.random((40, 2)), mu_w)
    _write_measure(outdir / "nu.csv", rng.random((50, 2)), nu_w)
    sanov_mu0 = _normalised(rng.uniform(0.3, 1.0, 2))
    cramer_points = np.sort(rng.uniform(-2.0, 3.0, 3))
    cramer_weights = _normalised(rng.uniform(0.2, 1.0, 3))

    def floats(values):
        return ",".join(repr(float(v)) for v in values)

    jobs = [
        _cli_job("verify-theta-1d", outdir,
                 ["verify-theta", "n=8,16,32,64", "d=1", "grid=256"],
                 _theta_bracket(1)),
        _cli_job("verify-theta-2d", outdir,
                 ["verify-theta", "n=8,16", "d=2", "grid=64"],
                 _theta_bracket(2)),
        _cli_job("zero-temp-mgf", outdir,
                 ["zero-temp-mgf", f"mu0={mu0_path}", "k=64"]),
        _cli_job("sanov-demo", outdir,
                 ["sanov-demo", f"mu0={floats(sanov_mu0)}"]),
        _cli_job("cramer-demo", outdir,
                 ["cramer-demo", f"points={floats(cramer_points)}",
                  f"weights={floats(cramer_weights)}"]),
        _cli_job("ot", outdir,
                 ["ot", f"mu={outdir / 'mu.csv'}", f"nu={outdir / 'nu.csv'}"],
                 _ot_marginals(mu_w, nu_w)),
        _ent_dual_job("ent-dual-2", rng, 2),
        _ent_dual_job("ent-dual-3", rng, 3),
    ]
    jobs += [_ent_dual_job("ent-dual-4", rng, 4) for _ in range(6)]
    for i in range(4):
        ham_seed = int(rng.integers(2 ** 31))
        jobs.append(_cli_job(f"verify-hamiltonian-{i}", outdir,
                             ["verify-hamiltonian", f"seed={ham_seed}"],
                             _sandwich_recount(ham_seed)))
    return [jobs[i] for i in rng.permutation(len(jobs))]


WORKLOADS = {
    "gibbs-exact": gibbs_exact,
    "ma-path": ma_path,
    "verify-sweep": verify_sweep,
}
