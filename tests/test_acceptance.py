"""Acceptance sweep: every shipped claim, one pass/fail line apiece.

Each test pins one quantitative contract of the package at its stated
tolerance and asserts its runtime budget. Run with ``pytest -v`` to get
the one-line-per-claim table.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from ldpma.cli import main as cli_main
from ldpma.hamiltonian_gibbs import (
    PERMANENTAL,
    TROPICAL,
    GibbsEnsemble,
    hamiltonian,
    hamiltonian_w2_gap,
    local_rate,
    log_partition_product,
    partition_function,
    permanent,
    sanov_exact,
    sanov_gap_bound,
    zero_temp_mgf,
)
from ldpma.legendre import GridFunction, ent_dual_check
from ldpma.measures import (
    DiscreteMeasure,
    EmpiricalConfig,
    GridMeasure,
    empirical,
    torus_domain,
)
from ldpma.monge_ampere import (
    MasterParams,
    gprop_consistency,
    j_functional,
    ma_operator,
    solve_master,
    w2_to_reference,
)
from ldpma.torus_theta import ThetaParams, TorusLattice, log_theta_grid
from ldpma.transport import cost_matrix, hungarian, w2_semidiscrete


def budget(start, seconds):
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"runtime {elapsed:.1f}s over {seconds}s budget"


PERM_CACHE = {n: np.array(list(itertools.permutations(range(n))))
              for n in range(2, 8)}


def test_01_permanent_matches_permutation_sum():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(500):
        n = 2 + trial % 6
        matrix = rng.random((n, n))
        perms = PERM_CACHE[n]
        naive = float(np.prod(matrix[np.arange(n)[None, :], perms],
                              axis=1).sum())
        worst = max(worst, abs(permanent(matrix) - naive) / naive)
    assert worst <= 1e-10, f"worst relative error {worst:.2e}"
    budget(start, 10.0)


def test_02_assignment_matches_brute_force():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    perms = PERM_CACHE[7]
    rows = np.arange(7)
    for _ in range(500):
        matrix = rng.random((7, 7))
        brute = float(matrix[rows[None, :], perms].sum(axis=1).min())
        got = hungarian(matrix)
        recomputed = float(matrix[rows, list(got.permutation)].sum())
        assert recomputed == brute  # same optimal permutation, same sum order
        assert abs(got.cost - brute) <= 1e-12
    budget(start, 10.0)


def test_03_theta_kernel_rate_bracket():
    start = time.monotonic()
    grid = (np.arange(256) / 256)[:, None]
    sups = []
    for n in (8, 16, 32, 64):
        params = ThetaParams(n=n, truncation_radius=2)
        lattice = TorusLattice(n=n, d=1)
        rates = -log_theta_grid(params, lattice.points, grid) / n
        sq = cost_matrix(lattice.points, grid, "sqdist_torus")
        defect = sq - rates  # nonnegative: the kernel dominates the
        assert defect.min() >= -1e-12  # nearest-image Gaussian exactly
        sups.append(float(defect.max()))
    assert sups[0] > sups[1] > sups[2] > sups[3]
    assert sups[-1] <= math.log(5.0) / 64 + 1e-6
    budget(start, 30.0)


def test_04_tropical_hamiltonian_tracks_w2():
    start = time.monotonic()
    for n in (2, 4, 8):
        gap = hamiltonian_w2_gap(TROPICAL, n, 100, seed=404)
        assert gap <= math.log(5.0) / n, f"n={n}: gap {gap:.4f}"
    fine = GridMeasure.uniform(dim=1, resolution=240)
    distances = []
    for n in (2, 4, 8):
        lattice_mu = empirical(
            EmpiricalConfig(points=TorusLattice(n=n, d=1).points))
        distances.append(w2_semidiscrete(fine, lattice_mu))
    assert distances[0] > distances[1] > distances[2]
    budget(start, 120.0)


def test_05_permanental_tropical_sandwich():
    start = time.monotonic()
    rng = np.random.default_rng(505)
    for n in range(2, 8):
        lattice = TorusLattice(n=n, d=1)
        params = ThetaParams(n=n)
        width = math.log(math.factorial(n)) / n
        for _ in range(50):
            config = EmpiricalConfig(points=rng.random((n, 1)))
            h_perm = hamiltonian(PERMANENTAL, lattice, params, config)
            h_trop = hamiltonian(TROPICAL, lattice, params, config)
            assert abs(h_perm - h_trop) <= width + 1e-12
            assert h_perm <= h_trop + 1e-12  # the sum dominates the max term
    budget(start, 30.0)


def test_06_zero_temperature_partition_decay():
    start = time.monotonic()
    mu0 = GridMeasure.uniform(dim=1, resolution=64)
    fitted_c = 1.2  # frozen desk constant covering the whole n range
    values = []
    for n in (2, 4, 8, 16):
        ens = GibbsEnsemble(beta=float(n), n=n, d=1, mu0=mu0,
                            kind=PERMANENTAL)
        v = log_partition_product(ens, 512) / n ** 2
        assert n * abs(v) <= fitted_c, f"n={n}: n|v| = {n * abs(v):.3f}"
        values.append(abs(v))
    assert values[0] > values[1] > values[2] > values[3]
    ens2 = GibbsEnsemble(beta=2.0, n=2, d=1, mu0=mu0, kind=PERMANENTAL)
    tensor = partition_function(ens2, 512)
    product = math.exp(log_partition_product(ens2, 512))
    assert abs(tensor - product) <= 1e-8 * product
    budget(start, 60.0)


def test_07_entropy_duality_on_alphabets():
    start = time.monotonic()
    rng = np.random.default_rng(707)
    for k in (2, 3, 4):
        for _ in range(34):
            mu0_w = rng.dirichlet(np.ones(k)) * 0.9 + 0.05 / k
            nu_w = rng.dirichlet(np.ones(k)) * 0.9 + 0.05 / k
            mu0 = DiscreteMeasure.from_alphabet_weights(mu0_w / mu0_w.sum())
            nu = DiscreteMeasure.from_alphabet_weights(nu_w / nu_w.sum())
            # the closed-form maximizer is checked to 1e-12 internally
            ent, sup = ent_dual_check(mu0, nu)
            assert sup <= ent + 1e-12
            assert ent - sup <= 1e-3
    budget(start, 30.0)


def test_08_multinomial_sanov_gap():
    start = time.monotonic()
    rate, _ = sanov_exact(2, [0.5, 0.5], 4, [0.75, 0.25])
    assert math.exp(-4 * rate) == pytest.approx(0.25, abs=1e-12)
    for n in (10, 50, 200):
        bound = sanov_gap_bound(2, n)
        assert bound == 2 * math.log(n + 1) / n
        for count in range(n + 1):
            nu = np.array([count, n - count]) / n
            rate, ent = sanov_exact(2, [0.5, 0.5], n, nu)
            assert abs(rate - ent) <= bound
    budget(start, 30.0)


def test_09_transport_bracket_at_fixed_point():
    start = time.monotonic()
    k = 128
    xs = np.arange(k) / k
    dens = 1.0 + 0.4 * np.cos(2 * np.pi * xs) + 0.15 * np.sin(4 * np.pi * xs)
    params = MasterParams(beta=1.0,
                          mu0=GridMeasure.from_density_values(dens))
    phi = solve_master(params)
    mu_min = ma_operator(phi, params.nu)
    j = j_functional(phi, params.nu)

    def bracket(mu):
        pairing = float(np.sum(phi.values * mu.masses()))
        return w2_to_reference(mu, params.nu) + j + pairing

    assert abs(bracket(mu_min)) <= 1e-4
    rng = np.random.default_rng(909)
    for _ in range(50):
        bump = rng.normal(0.0, 0.35, size=k)
        masses = mu_min.masses() * np.exp(bump)
        masses /= masses.sum()
        probe = GridMeasure.from_density_values(masses * k)
        assert bracket(probe) > 1e-6  # equality fails by a positive margin
    budget(start, 120.0)


def test_10_rate_function_zero_at_minimizer():
    start = time.monotonic()
    k = 64
    xs = np.arange(k) / k
    dens = 1.0 + 0.4 * np.cos(2 * np.pi * xs) + 0.15 * np.sin(4 * np.pi * xs)
    mu0 = GridMeasure.from_density_values(dens)
    for beta in (-0.5, 0.0, 1.0, 4.0):
        report = gprop_consistency(MasterParams(beta=beta, mu0=mu0),
                                   probes=50, seed=0)
        assert report.rate_at_minimizer <= 1e-4
        assert report.min_probe_value > max(report.rate_at_minimizer, 0.0)
        assert report.passed
    budget(start, 300.0)


def test_11_gibbs_ball_mass_concentrates():
    start = time.monotonic()
    # fine uniform atoms stand in for the continuum minimizer: the ball
    # around them is exactly the minimal-energy configuration class
    center_res = 64
    center = DiscreteMeasure(
        points=(np.arange(center_res) / center_res)[:, None],
        weights=np.full(center_res, 1.0 / center_res),
        domain=torus_domain(1))
    mu0 = GridMeasure.uniform(dim=1, resolution=8)
    masses = []
    for beta in (0.0, 1e3, 1e4, 1e5, 3e5):
        ens = GibbsEnsemble(beta=beta, n=2, d=1, mu0=mu0, kind=PERMANENTAL,
                            site_refinement=4)
        masses.append(local_rate(ens, center, radius=0.15).prob)
    assert all(b > a for a, b in zip(masses, masses[1:])), masses
    assert masses[-1] >= 0.9
    budget(start, 120.0)


def test_12_zero_temp_mgf_converges():
    start = time.monotonic()
    k = 64
    xs = np.arange(k) / k
    half = np.minimum(np.abs(xs - 0.5), 1.0 - np.abs(xs - 0.5))
    thetas = (np.zeros(k), 0.2 * np.cos(2 * np.pi * xs), -0.8 * half ** 2)
    mu0 = GridMeasure.uniform(dim=1, resolution=k)
    for values in thetas:
        theta = GridFunction(dim=1, resolution=k, values=values)
        gaps = []
        for n in (8, 16, 32):
            p_n, target = zero_temp_mgf(theta, n, 1, mu0, 512)
            gaps.append(abs(p_n - target))
        assert gaps[0] > gaps[1] > gaps[2], gaps
        p_base, t_base = zero_temp_mgf(theta, 32, 1, mu0, 512)
        p_shift, t_shift = zero_temp_mgf(
            theta.shifted(0.37), 32, 1, mu0, 512)
        assert p_shift - p_base == pytest.approx(0.37, abs=1e-12)
        assert t_shift - t_base == pytest.approx(0.37, abs=1e-12)
    budget(start, 60.0)


def test_13_reruns_are_byte_identical(tmp_path):
    start = time.monotonic()
    args = ["run", "verify-hamiltonian", "n=2", "trials=5",
            "sandwich_trials=3", "quad=64"]
    a, b, c = (tmp_path / x for x in "abc")
    assert cli_main(args + [f"out={a}", "seed=7"]) == 0
    assert cli_main(args + [f"out={b}", "seed=7"]) == 0
    assert cli_main(args + [f"out={c}", "seed=8"]) == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    assert (a / "results.csv").read_bytes() != (c / "results.csv").read_bytes()

    sm1, sm2 = tmp_path / "sm1", tmp_path / "sm2"
    solve = ["solve-ma", "--beta", "0.5", "--k", "32"]
    assert cli_main(solve + ["--out", str(sm1)]) == 0
    assert cli_main(solve + ["--out", str(sm2)]) == 0
    for name in ("results.csv", "potential.csv", "pushforward.csv",
                 "residuals.csv"):
        assert (sm1 / name).read_bytes() == (sm2 / name).read_bytes()
    budget(start, 30.0)
