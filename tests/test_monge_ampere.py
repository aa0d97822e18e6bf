"""Transport operator, master-equation solver, and rate function."""

import math

import numpy as np
import pytest

from ldpma.legendre import GridFunction
from ldpma import monge_ampere
from ldpma.measures import DiscreteMeasure, GridMeasure, torus_domain
from ldpma.monge_ampere import (
    MasterParams,
    Potential,
    SolverError,
    f_functional,
    f_gradient_residual,
    gprop_consistency,
    j_functional,
    ma_operator,
    normalize_potential,
    nu_mean,
    rate_function_g,
    solve_master,
    tilt_measure,
    transport_map_1d,
    w2_circle,
    w2_to_reference,
)

from oracles import (invert_cells_bisect, power_cells_numpy,
                     torus_cell_masses_1d, w2_circle_atoms_brute,
                     w2_circle_ternary, w2_single_atom)


def torus_grid_function(values):
    values = np.asarray(values, dtype=float)
    return GridFunction(dim=1, resolution=values.size, values=values,
                        kind="torus")


def bump_measure(k, amplitude=0.4):
    xs = np.arange(k) / k
    dens = 1.0 + amplitude * np.cos(2 * np.pi * xs) + 0.15 * np.sin(4 * np.pi * xs)
    return GridMeasure.from_density_values(dens, kind="torus")


def test_normalize_potential_gauge():
    k = 16
    f = torus_grid_function(np.linspace(0.0, 2.0, k))
    nu = bump_measure(k)
    pot = normalize_potential(f, nu)
    assert abs(nu_mean(pot, nu)) <= 1e-10
    assert isinstance(pot, Potential)


def test_ma_operator_matches_power_cell_formula():
    # small potential: every cell is cut by its two neighbors only, so the
    # masses are the exact second-difference lengths
    k = 32
    xs = np.arange(k) / k
    f = torus_grid_function(0.01 * np.cos(2 * np.pi * xs))
    nu = GridMeasure.uniform(dim=1, resolution=k)
    got = ma_operator(f, nu).masses()
    want = torus_cell_masses_1d(f.values)
    assert np.abs(got - want).max() <= 1e-14


def test_ma_operator_density_refines_to_continuum():
    # MA density of a smooth potential is 1 + f''/2 on the flat torus
    amplitude = 0.01
    errors = []
    for k in (8, 16, 32):
        xs = np.arange(k) / k
        f = torus_grid_function(amplitude * np.cos(2 * np.pi * xs))
        nu = GridMeasure.uniform(dim=1, resolution=k)
        density = ma_operator(f, nu).masses() * k
        target = 1.0 - 0.5 * amplitude * (2 * np.pi) ** 2 * np.cos(2 * np.pi * xs)
        errors.append(float(np.abs(density - target).max()))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-3


def test_operator_refuses_box_potentials():
    f = GridFunction(dim=1, resolution=8, values=np.zeros(8), kind="box",
                     bounds=((0.0, 1.0),))
    nu = GridMeasure.uniform(dim=1, resolution=8)
    with pytest.raises(ValueError, match="torus"):
        ma_operator(f, nu)
    with pytest.raises(ValueError, match="torus"):
        j_functional(f, nu)


def test_transport_map_zero_potential_snaps_to_nodes():
    f = torus_grid_function(np.zeros(8))
    queries = np.array([[0.13], [0.49], [0.96]])
    mapped = transport_map_1d(f, queries).ravel()
    assert mapped == pytest.approx([0.1875, 0.4375, 0.9375], abs=1e-15)


def test_j_functional_constant_shift():
    k = 64
    xs = np.arange(k) / k
    f = torus_grid_function(0.05 * np.sin(2 * np.pi * xs))
    nu = bump_measure(k)
    assert j_functional(f.shifted(0.7), nu) == pytest.approx(
        j_functional(f, nu) - 0.7, abs=1e-12)


def test_tilt_measure_zero_beta_is_mu0():
    mu0 = bump_measure(32)
    f = torus_grid_function(np.linspace(0.0, 1.0, 32))
    tilt = tilt_measure(f, 0.0, mu0)
    assert np.abs(tilt.masses() - mu0.masses()).max() == 0.0


def test_duality_bracket_vanishes_off_fixed_point():
    # W2^2 + J + <f, MA f> = 0 for any potential, not only the minimizer:
    # the power cells realize the optimal coupling
    k = 32
    xs = np.arange(k) / k
    nu = GridMeasure.from_density_values(
        1.0 + 0.3 * np.cos(2 * np.pi * xs + 0.7), kind="torus")
    rng = np.random.default_rng(11)
    for _ in range(5):
        raw = 0.02 * rng.standard_normal(k)
        smooth = np.convolve(np.tile(raw, 3), np.ones(5) / 5,
                             mode="same")[k:2 * k]
        f = torus_grid_function(smooth)
        mu = ma_operator(f, nu)
        bracket = (w2_to_reference(mu, nu) + j_functional(f, nu)
                   + float(np.sum(f.values * mu.masses())))
        assert abs(bracket) <= 1e-9


def test_w2_circle_single_atoms():
    mu = DiscreteMeasure(points=np.array([[0.1]]), weights=np.array([1.0]),
                         domain=torus_domain(1))
    nu = DiscreteMeasure(points=np.array([[0.8]]), weights=np.array([1.0]),
                         domain=torus_domain(1))
    assert w2_circle(mu, nu) == pytest.approx(0.09, abs=1e-12)
    assert w2_circle(mu, mu) == 0.0


def test_w2_circle_grid_vs_own_atoms():
    # transporting each cell onto its center costs h^2/12
    g = GridMeasure.uniform(dim=1, resolution=128)
    atoms = DiscreteMeasure(points=g.centers(), weights=g.masses(),
                            domain=torus_domain(1))
    assert w2_circle(g, atoms) == pytest.approx((1 / 128) ** 2 / 12, rel=1e-9)


def test_w2_circle_matches_brute_cut_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(3):
        pa = np.sort(rng.random(4))
        pb = np.sort(rng.random(3))
        wa = rng.random(4) + 0.2
        wa /= wa.sum()
        wb = rng.random(3) + 0.2
        wb /= wb.sum()
        mu = DiscreteMeasure(points=pa[:, None], weights=wa,
                             domain=torus_domain(1))
        nu = DiscreteMeasure(points=pb[:, None], weights=wb,
                             domain=torus_domain(1))
        got = w2_circle(mu, nu)
        want = w2_circle_atoms_brute(pa, wa, pb, wb, cuts=2000)
        assert got <= want + 1e-9
        assert got >= want - 5e-4


def atoms_1d(points, weights):
    return DiscreteMeasure(points=np.asarray(points, dtype=float)[:, None],
                           weights=np.asarray(weights, dtype=float),
                           domain=torus_domain(1))


def seeded_grid(rng, k, zero_share=0.0):
    dens = rng.random(k) + 0.1
    dens[rng.random(k) < zero_share] = 0.0
    dens[rng.integers(k)] = 1.0  # never all zero
    return GridMeasure.from_density_values(dens, kind="torus")


@pytest.mark.parametrize("k", [8, 16, 32, 64, 128, 256])
def test_w2_circle_to_a_grid_matches_the_ternary_search(k):
    rng = np.random.default_rng(k)
    cases = [
        (seeded_grid(rng, k), rng.random(k // 2 + 1)),
        (seeded_grid(rng, k, zero_share=0.3), rng.random(k)),
        (bump_measure(k), (np.arange(k) + 0.5) / k),  # the grid's own nodes
    ]
    for nu, points in cases:
        weights = rng.random(len(points)) + 0.05
        weights /= weights.sum()
        got = w2_circle(atoms_1d(points, weights), nu)
        want = w2_circle_ternary(points, weights, nu.masses())
        assert abs(got - want) <= 1e-14, (got, want)


def test_w2_circle_single_atom_is_the_forced_plan():
    rng = np.random.default_rng(9)
    for k in (1, 5, 16, 64):
        nu = seeded_grid(rng, k, zero_share=0.2)
        for x in (0.0, 0.5, rng.random(), 1.0 - 1e-9):
            got = w2_circle(atoms_1d([x], [1.0]), nu)
            assert got == pytest.approx(w2_single_atom(x, nu.masses()),
                                        abs=1e-15)


def test_w2_circle_is_symmetric_and_refuses_two_grids():
    rng = np.random.default_rng(4)
    nu = seeded_grid(rng, 32, zero_share=0.2)
    mu = atoms_1d(rng.random(7), np.full(7, 1 / 7))
    assert w2_circle(mu, nu) == w2_circle(nu, mu)
    with pytest.raises(ValueError, match="two discrete measures, or one "
                                         "discrete and one grid measure"):
        w2_circle(nu, nu)


@pytest.mark.parametrize("beta", [-0.5, 2.0])
@pytest.mark.parametrize("uniform_nu", [True, False])
def test_solver_cells_bit_identical_to_the_scalar_kernels(beta, uniform_nu,
                                                          monkeypatch):
    # every power-cell scan and cell inversion of a solve, against the
    # numpy-scalar scan and the fixed 200-step bisection
    k = 32
    xs = np.arange(k) / k
    nu = (GridMeasure.uniform(dim=1, resolution=k) if uniform_nu else
          GridMeasure.from_density_values(1.0 + 0.3 * np.sin(2 * np.pi * xs),
                                          kind="torus"))
    cells, invert = monge_ampere._power_cells_1d, monge_ampere._invert_cells_1d
    calls = []

    def checked_cells(values):
        out = cells(values)
        want = power_cells_numpy(values)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(out, want))
        calls.append("cells")
        return out

    def checked_invert(masses, measure):
        out = invert(masses, measure)
        assert np.array_equal(out, invert_cells_bisect(masses,
                                                       measure.masses()))
        calls.append("invert")
        return out

    monkeypatch.setattr(monge_ampere, "_power_cells_1d", checked_cells)
    monkeypatch.setattr(monge_ampere, "_invert_cells_1d", checked_invert)
    solve_master(MasterParams(beta=beta, mu0=bump_measure(k), nu=nu))
    assert calls.count("cells") > 20 and calls.count("invert") > 5


def test_histogram_puts_edge_atoms_in_their_cell():
    k = 10
    like = GridMeasure.uniform(dim=1, resolution=k)
    weights = np.arange(1.0, k + 1) / np.sum(np.arange(1.0, k + 1))
    hist = monge_ampere._as_grid_measure(atoms_1d(np.arange(k) / k, weights),
                                         like)
    assert np.allclose(hist.masses(), weights, rtol=0, atol=1e-15)
    like2 = GridMeasure.uniform(dim=2, resolution=5)
    pts = np.array([[0.2, 0.6], [0.6, 0.2], [0.6, 0.2], [0.0, 0.8]])
    hist2 = monge_ampere._as_grid_measure(
        DiscreteMeasure(points=pts, weights=np.full(4, 0.25),
                        domain=torus_domain(2)), like2)
    want = np.zeros((5, 5))
    want[1, 3], want[3, 1], want[0, 4] = 0.25, 0.5, 0.25
    assert np.allclose(hist2.masses().reshape(5, 5), want, rtol=0, atol=1e-15)


def test_master_params_validation():
    mu0 = bump_measure(16)
    with pytest.raises(ValueError):
        MasterParams(beta=1.0, mu0=mu0,
                     nu=GridMeasure.uniform(dim=1, resolution=8))
    with pytest.raises(ValueError):
        MasterParams(beta=1.0, mu0=mu0, damping=0.0)
    with pytest.raises(ValueError):
        MasterParams(beta=1.0, mu0=mu0, scheme="newton")


def test_solver_zero_beta_uniform_is_identity():
    params = MasterParams(beta=0.0,
                          mu0=GridMeasure.uniform(dim=1, resolution=32))
    phi = solve_master(params)
    assert np.abs(phi.values).max() <= 1e-12
    assert phi.log[-1][1] <= params.residual_tol


def test_solver_zero_beta_transports_nu_to_mu0():
    k = 64
    xs = np.arange(k) / k
    mu0 = bump_measure(k)
    nu = GridMeasure.from_density_values(1.0 + 0.25 * np.sin(2 * np.pi * xs),
                                         kind="torus")
    phi = solve_master(MasterParams(beta=0.0, mu0=mu0, nu=nu))
    push = ma_operator(phi, nu)
    assert np.abs(push.masses() - mu0.masses()).sum() <= 1e-8


def test_solver_beta_one_bump_converges():
    params = MasterParams(beta=1.0, mu0=bump_measure(64))
    phi = solve_master(params)
    assert f_gradient_residual(phi, params) <= params.residual_tol
    assert abs(nu_mean(phi, params.nu)) <= 1e-10
    iters, residuals, values, steps = zip(*phi.log)
    assert residuals[-1] <= params.residual_tol
    assert all(isinstance(r, float) for r in residuals)


def test_cells_and_descent_schemes_agree():
    mu0 = bump_measure(32)
    cells = solve_master(MasterParams(beta=1.0, mu0=mu0, scheme="cells"))
    descent = solve_master(MasterParams(beta=1.0, mu0=mu0, scheme="descent",
                                        residual_tol=1e-8, max_iter=4000))
    assert np.abs(cells.values - descent.values).max() <= 1e-6


def test_solver_raises_with_residual_trace():
    with pytest.raises(SolverError) as err:
        solve_master(MasterParams(beta=4.0, mu0=bump_measure(64), max_iter=2))
    assert len(err.value.residuals) >= 1
    assert all(isinstance(r, float) for r in err.value.residuals)


def test_rate_function_zero_at_minimizer_positive_elsewhere():
    params = MasterParams(beta=1.0, mu0=bump_measure(64))
    phi = solve_master(params)
    mu_min = ma_operator(phi, params.nu)
    assert abs(rate_function_g(mu_min, params, phi).value) <= 1e-9
    rng = np.random.default_rng(3)
    for _ in range(5):
        bump = rng.normal(0.0, 0.35, size=64)
        masses = mu_min.masses() * np.exp(bump)
        masses /= masses.sum()
        probe = GridMeasure.from_density_values(masses * 64, kind="torus")
        assert rate_function_g(probe, params, phi).value > 1e-3


def test_rate_function_accepts_discrete_argument():
    params = MasterParams(beta=1.0, mu0=bump_measure(64))
    phi = solve_master(params)
    pts = ((np.arange(16) + 0.3) / 16)[:, None]
    probe = DiscreteMeasure(points=pts, weights=np.full(16, 1 / 16),
                            domain=torus_domain(1))
    value = rate_function_g(probe, params, phi).value
    assert value > 0.1  # 16 atoms are far from the smooth minimizer


def test_free_energy_constant_invariance():
    params = MasterParams(beta=1.0, mu0=bump_measure(32))
    f = torus_grid_function(0.03 * np.sin(2 * np.pi * np.arange(32) / 32))
    assert f_functional(f.shifted(1.3), params) == pytest.approx(
        f_functional(f, params), abs=1e-12)


@pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0, 4.0])
def test_gprop_consistency_across_betas(beta):
    params = MasterParams(beta=beta, mu0=bump_measure(64))
    report = gprop_consistency(params, probes=12, seed=0)
    assert report.passed, (report.residual_tv, report.bracket_gap,
                           report.entropy_gap, report.rate_at_minimizer)


def test_gprop_consistency_computes_the_constant_once(monkeypatch):
    params = MasterParams(beta=1.0, mu0=bump_measure(32))
    phi = solve_master(params)
    mu_min = ma_operator(phi, params.nu)
    # the certificate's rate values, each from rate_function_g on its own
    rng = np.random.default_rng(5)
    probes = []
    for _ in range(8):
        masses = mu_min.masses() * np.exp(rng.normal(0.0, 0.35, size=32))
        probes.append(GridMeasure(dim=1, resolution=32, kind="torus",
                                  density=masses / masses.sum() * 32))
    want_min = rate_function_g(mu_min, params, phi).value
    want_best = min(rate_function_g(p, params, phi).value for p in probes)

    calls = []
    real = monge_ampere.f_functional

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(monge_ampere, "f_functional", counted)
    report = gprop_consistency(params, probes=8, seed=5, phi_min=phi)
    assert len(calls) == 1
    assert report.rate_at_minimizer == want_min
    assert report.min_probe_value == want_best
    assert report.passed
