"""Transport operator, master-equation solver, and rate function."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ldpma.legendre import GridFunction
from ldpma import monge_ampere, transport
from ldpma.measures import (DiscreteMeasure, GridMeasure, load_grid_csv,
                            log_mgf, save_csv, torus_domain)
from ldpma.monge_ampere import (
    MasterParams,
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
    w2_circle,
    w2_to_reference,
)

from oracles import (cell_masses_two_cdf, dual_energy_loop,
                     inversion_jacobian, invert_cells_bisect,
                     newton_direction_dense,
                     power_cells_numpy, torus_cell_masses_1d,
                     w2_circle_atoms_brute, w2_circle_ternary,
                     w2_single_atom)


def torus_grid_function(values):
    values = np.asarray(values, dtype=float)
    return GridFunction(dim=1, resolution=values.size, values=values)


def bump_measure(k, amplitude=0.4):
    xs = np.arange(k) / k
    dens = 1.0 + amplitude * np.cos(2 * np.pi * xs) + 0.15 * np.sin(4 * np.pi * xs)
    return GridMeasure.from_density_values(dens)


def test_normalize_potential_gauge():
    k = 16
    f = torus_grid_function(np.linspace(0.0, 2.0, k))
    nu = bump_measure(k)
    pot = normalize_potential(f, nu)
    assert abs(nu_mean(pot, nu)) <= 1e-10
    assert isinstance(pot, GridFunction)
    # a potential is read exactly as the plain torus function of its values
    plain = torus_grid_function(pot.values)
    params = MasterParams(beta=1.0, mu0=bump_measure(k), nu=nu)
    assert np.array_equal(ma_operator(pot, nu).masses,
                          ma_operator(plain, nu).masses)
    assert j_functional(pot, nu) == j_functional(plain, nu)
    assert f_functional(pot, params) == f_functional(plain, params)


@pytest.mark.parametrize("k", [48, 100])
def test_grid_measures_hold_their_masses_bit_for_bit(k, tmp_path):
    # the cell volumes 1/48 and 1/100 are not powers of two: a mass sent
    # through a density and back would move in its last bit
    rng = np.random.default_rng(k)
    masses = rng.random(k)
    masses /= masses.sum()
    assert np.array_equal(GridMeasure(dim=1, resolution=k,
                                      masses=masses).masses, masses)
    nu = bump_measure(k)
    f = torus_grid_function(0.01 * rng.normal(size=k))
    assert np.array_equal(ma_operator(f, nu).masses,
                          monge_ampere._transport(f, nu)[0])
    path = tmp_path / "grid.csv"
    save_csv(nu, path)
    assert np.array_equal(load_grid_csv(path).masses, nu.masses)


def test_ma_operator_matches_power_cell_formula():
    # small potential: every cell is cut by its two neighbors only, so the
    # masses are the exact second-difference lengths
    k = 32
    xs = np.arange(k) / k
    f = torus_grid_function(0.01 * np.cos(2 * np.pi * xs))
    nu = GridMeasure.uniform(dim=1, resolution=k)
    got = ma_operator(f, nu).masses
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
        density = ma_operator(f, nu).masses * k
        target = 1.0 - 0.5 * amplitude * (2 * np.pi) ** 2 * np.cos(2 * np.pi * xs)
        errors.append(float(np.abs(density - target).max()))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-3


def test_transport_map_zero_potential_snaps_to_nodes():
    # the transport map sends each point to the node whose power cell
    # (interval) owns it
    f = torus_grid_function(np.zeros(8))
    node_idx, _, lows, _ = monge_ampere._power_cells_1d(f.values)
    queries = np.array([0.13, 0.49, 0.96])
    owners = node_idx[np.searchsorted(lows, queries, side="right") - 1]
    mapped = f.nodes()[owners].ravel()
    assert mapped == pytest.approx([0.1875, 0.4375, 0.9375], abs=1e-15)


def test_power_cells_prune_many_sites_bit_identical_to_the_stack_scan():
    # rough potentials leave most nodes beaten everywhere, so each scan drops
    # many sites over several passes (solver potentials drop none); ties come
    # from rounded values
    rng = np.random.default_rng(7)
    nodes = pruned = 0
    for trial in range(300):
        k = int(rng.integers(1, 160))
        values = rng.normal(0.0, 3.0 * rng.random(), size=k)
        if trial % 3 == 0:
            values = np.round(values, 1)
        out = monge_ampere._power_cells_1d(values)
        want = power_cells_numpy(values)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(out, want)), (trial, k)
        nodes += k
        pruned += k - len(np.unique(out[0]))
    assert pruned > nodes // 2


def test_operator_refuses_other_dimensions_before_any_iteration(monkeypatch):
    # the 1-d power cells are the only exact operator; a 2-d potential or
    # master problem is refused at the operator, naming the dimension,
    # while MasterParams itself still accepts the 2-d grid
    def no_scan(*args):
        raise AssertionError("the transport scan ran")

    monkeypatch.setattr(monge_ampere, "_power_cells_1d", no_scan)
    k = 6
    f = GridFunction(dim=2, resolution=k, values=np.zeros((k, k)))
    nu = GridMeasure.uniform(dim=2, resolution=k)
    params = MasterParams(beta=1.0, mu0=nu)
    for call in (lambda: ma_operator(f, nu), lambda: j_functional(f, nu),
                 lambda: solve_master(params),
                 lambda: gprop_consistency(params, probes=0)):
        with pytest.raises(ValueError, match="not in dimension 2"):
            call()


def test_j_functional_constant_shift():
    k = 64
    xs = np.arange(k) / k
    f = torus_grid_function(0.05 * np.sin(2 * np.pi * xs))
    nu = bump_measure(k)
    assert j_functional(f.shifted(0.7), nu) == pytest.approx(
        j_functional(f, nu) - 0.7, abs=1e-12)


def test_tilt_measure_zero_beta_is_mu0():
    mu0 = bump_measure(32)
    tilt = monge_ampere._tilt_masses(np.linspace(0.0, 1.0, 32), 0.0,
                                     mu0.masses)
    assert np.abs(tilt - mu0.masses).max() == 0.0


def test_duality_bracket_vanishes_off_fixed_point():
    # W2^2 + J + <f, MA f> = 0 for any potential, not only the minimizer:
    # the power cells realize the optimal coupling
    k = 32
    xs = np.arange(k) / k
    nu = GridMeasure.from_density_values(
        1.0 + 0.3 * np.cos(2 * np.pi * xs + 0.7))
    rng = np.random.default_rng(11)
    for _ in range(5):
        raw = 0.02 * rng.standard_normal(k)
        smooth = np.convolve(np.tile(raw, 3), np.ones(5) / 5,
                             mode="same")[k:2 * k]
        f = torus_grid_function(smooth)
        mu = ma_operator(f, nu)
        bracket = (w2_to_reference(mu, nu) + j_functional(f, nu)
                   + float(np.sum(f.values * mu.masses)))
        assert abs(bracket) <= 1e-9


@pytest.mark.parametrize("dim, k", [(1, 32)])
def test_j_envelope_identity_gives_the_pushforward(dim, k):
    # dJ/df_i = -(MA_nu f)_i, by central differences of J alone; the
    # potential is small against h^2, so every cell carries mass
    rng = np.random.default_rng(7)
    shape = (k,) * dim
    nu = GridMeasure.from_density_values(1.0 + 0.5 * rng.random(shape))
    values = 0.2 / k ** 2 * rng.standard_normal(shape)
    h = 1e-7

    def j_at(v):
        return j_functional(GridFunction(dim=dim, resolution=k, values=v), nu)

    grad = np.empty(k ** dim)
    for i in range(k ** dim):
        step = np.zeros(k ** dim)
        step[i] = h
        step = step.reshape(shape)
        grad[i] = (j_at(values + step) - j_at(values - step)) / (2.0 * h)
    push = ma_operator(GridFunction(dim=dim, resolution=k, values=values),
                       nu).masses
    assert np.all(push > 0.0)
    assert np.max(np.abs(grad + push)) <= 1e-8


def test_solver_and_certificates_scan_each_potential_once(monkeypatch):
    cells, invert = monge_ampere._power_cells_1d, monge_ampere._invert_cells_1d
    built = monge_ampere.GridMeasure.__post_init__
    params = MasterParams(beta=1.0, mu0=bump_measure(64))
    calls = []

    def counted_cells(values):
        calls.append("cells")
        return cells(values)

    def counted_invert(masses, measure):
        calls.append("invert")
        return invert(masses, measure)

    def counted_post_init(measure):
        calls.append("measure")
        built(measure)

    monkeypatch.setattr(monge_ampere, "_power_cells_1d", counted_cells)
    monkeypatch.setattr(monge_ampere, "_invert_cells_1d", counted_invert)
    monkeypatch.setattr(monge_ampere.GridMeasure, "__post_init__",
                        counted_post_init)
    phi = solve_master(params)
    # one scan per trial potential, plus one for the starting potential;
    # the solver passes masses between its steps and builds no measure
    assert calls.count("cells") == calls.count("invert") + 1
    assert "measure" not in calls
    calls.clear()
    # the certificates read the solver's last evaluation: no scan at all
    gprop_consistency(params, probes=8, phi_min=phi)
    assert calls == ["measure"]


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
    atoms = DiscreteMeasure(points=g.centers(), weights=g.masses,
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
    return GridMeasure.from_density_values(dens)


@pytest.mark.parametrize("k", [8, 16, 32, 64, 128, 256])
def test_w2_circle_to_a_grid_matches_the_ternary_search(k):
    rng = np.random.default_rng(k)
    cases = [
        (seeded_grid(rng, k), rng.random(k // 2 + 1)),
        (seeded_grid(rng, k, zero_share=0.3), rng.random(k)),
        (bump_measure(k), (np.arange(k) + 0.5) / k),  # the grid's own nodes
    ]
    sweep = np.random.default_rng([k, 1])  # random sizes and empty shares
    cases += [(seeded_grid(sweep, k, zero_share=sweep.choice([0.0, 0.3, 0.6])),
               sweep.random(int(sweep.integers(1, 2 * k + 1))))
              for _ in range(5)]
    for nu, points in cases:
        weights = rng.random(len(points)) + 0.05
        weights /= weights.sum()
        got = w2_circle(atoms_1d(points, weights), nu)
        want = w2_circle_ternary(points, weights, nu.masses)
        assert abs(got - want) <= 1e-14, (got, want)


def test_w2_circle_single_atom_is_the_forced_plan():
    rng = np.random.default_rng(9)
    for k in (1, 5, 16, 64):
        nu = seeded_grid(rng, k, zero_share=0.2)
        for x in (0.0, 0.5, rng.random(), 1.0 - 1e-9):
            got = w2_circle(atoms_1d([x], [1.0]), nu)
            assert got == pytest.approx(w2_single_atom(x, nu.masses),
                                        abs=1e-15)


def test_w2_circle_is_symmetric_and_refuses_two_grids():
    rng = np.random.default_rng(4)
    nu = seeded_grid(rng, 32, zero_share=0.2)
    mu = atoms_1d(rng.random(7), np.full(7, 1 / 7))
    assert w2_circle(mu, nu) == w2_circle(nu, mu)
    with pytest.raises(ValueError, match="two discrete measures, or one "
                                         "discrete and one grid measure"):
        w2_circle(nu, nu)


def test_w2_circle_takes_few_pieces_on_the_master_path(monkeypatch):
    # the minimiser and the probes of the certificates against uniform nu,
    # where bisecting the cut offset evaluates about 13 pieces per row
    searches = []
    real_locate = transport._Quantile.locate

    def counted_locate(quantile, u):
        searches.append(np.shape(u)[0] if np.ndim(u) else 0)
        return real_locate(quantile, u)

    monkeypatch.setattr(transport._Quantile, "locate", counted_locate)
    rows = transport._w2_circle_rows
    pieces = []

    def counted(x, weights, nu):
        start = len(searches)
        out = rows(x, weights, nu)
        # one quantile pass per piece over the rows still searching, and two
        # more for the cost at the optimum; rows only ever leave the search,
        # so the r-th longest took as many pieces as passes held over r rows
        live = searches[start:-2]
        pieces.extend(sum(n > r for n in live) for r in range(len(weights)))
        return out

    monkeypatch.setattr(monge_ampere, "_w2_circle_rows", counted)
    rng = np.random.default_rng(11)
    for k in (64, 256):
        for beta in (-0.5, 1.0, 4.0):
            gprop_consistency(MasterParams(beta=beta, mu0=smooth_mu0(rng, k)),
                              probes=8)
    assert len(pieces) == 2 * 3 * 9
    assert min(pieces) >= 1 and max(pieces) <= 6, pieces


def test_stacked_w2_rows_match_the_one_row_search_and_the_ternary_oracle():
    rng = np.random.default_rng(21)
    for k in (16, 64, 129):
        x = (np.arange(k) + 0.5) / k
        weights = rng.random((5, k)) * (rng.random((5, k)) > 0.2)
        weights[0] = 0.0
        weights[0, 3] = 1.0  # a single atom
        weights /= weights.sum(axis=1, keepdims=True)
        for nu in nu_cases(k).values():
            stacked = transport._w2_circle_rows(x, weights, nu)
            for row, got in zip(weights, stacked):
                assert got == w2_circle(atoms_1d(x, row), nu)
                want = w2_circle_ternary(x, row, nu.masses)
                assert abs(got - want) <= 1e-12 * max(1.0, want)


@pytest.mark.parametrize("beta", [-0.5, 2.0])
@pytest.mark.parametrize("uniform_nu", [True, False])
def test_solver_cells_bit_identical_to_the_scalar_kernels(beta, uniform_nu,
                                                          monkeypatch):
    # every power-cell scan of a solve, against the numpy-scalar scan, and
    # every cell inversion against the fixed 200-step bisection and the
    # masses it was asked for
    k = 32
    xs = np.arange(k) / k
    nu = (GridMeasure.uniform(dim=1, resolution=k) if uniform_nu else
          GridMeasure.from_density_values(1.0 + 0.3 * np.sin(2 * np.pi * xs)))
    cells, invert = monge_ampere._power_cells_1d, monge_ampere._invert_cells_1d
    calls, inverted = [], []

    def checked_cells(values):
        out = cells(values)
        want = power_cells_numpy(values)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(out, want))
        calls.append("cells")
        return out

    def checked_invert(masses, measure):
        out = invert(masses, measure)
        want = invert_cells_bisect(masses, measure.masses)
        assert np.abs(out[0] - want).max() <= 1e-15
        inverted.append((masses, out[0]))
        calls.append("invert")
        return out

    monkeypatch.setattr(monge_ampere, "_power_cells_1d", checked_cells)
    monkeypatch.setattr(monge_ampere, "_invert_cells_1d", checked_invert)
    phi = solve_master(MasterParams(beta=beta, mu0=bump_measure(k), nu=nu))
    # the blend and two full Newton steps, no backtracking
    assert [step for *_, step in phi.log] == [0.0, 0.5, 1.0, 1.0]
    assert calls.count("cells") == 4 and calls.count("invert") == 3
    monkeypatch.undo()
    for masses, values in inverted:
        push = ma_operator(torus_grid_function(values), nu).masses
        assert np.abs(push - masses).max() <= 1e-12


def test_master_params_validation():
    mu0 = bump_measure(16)
    with pytest.raises(ValueError):
        MasterParams(beta=1.0, mu0=mu0,
                     nu=GridMeasure.uniform(dim=1, resolution=8))
    for bad, message in [({"beta": math.inf}, "beta must be finite"),
                         ({"beta": math.nan}, "beta must be finite"),
                         ({"residual_tol": 0.0}, "residual_tol must be > 0"),
                         ({"residual_tol": -1.0}, "residual_tol must be > 0"),
                         ({"max_iter": 0}, "max_iter must be >= 1")]:
        with pytest.raises(ValueError, match=message):
            MasterParams(**{"beta": 1.0, "mu0": mu0, **bad})


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
    nu = GridMeasure.from_density_values(1.0 + 0.25 * np.sin(2 * np.pi * xs))
    phi = solve_master(MasterParams(beta=0.0, mu0=mu0, nu=nu))
    push = ma_operator(phi, nu)
    assert np.abs(push.masses - mu0.masses).sum() <= 1e-8


def test_solver_beta_one_bump_converges():
    params = MasterParams(beta=1.0, mu0=bump_measure(64))
    phi = solve_master(params)
    assert f_gradient_residual(phi, params) <= params.residual_tol
    assert abs(nu_mean(phi, params.nu)) <= 1e-10
    iters, residuals, values, steps = zip(*phi.log)
    assert residuals[-1] <= params.residual_tol
    assert all(isinstance(r, float) for r in residuals)


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
        masses = mu_min.masses * np.exp(bump)
        masses /= masses.sum()
        probe = GridMeasure.from_density_values(masses * 64)
        assert rate_function_g(probe, params, phi).value > 1e-3


def test_rate_function_refuses_a_discrete_measure_and_another_grid():
    params = MasterParams(beta=1.0, mu0=bump_measure(64))
    phi = solve_master(params)
    pts = ((np.arange(64) + 0.5) / 64)[:, None]
    atoms = DiscreteMeasure(points=pts, weights=np.full(64, 1 / 64),
                            domain=torus_domain(1))
    for mu in (atoms, GridMeasure.uniform(dim=1, resolution=32),
               GridMeasure.uniform(dim=2, resolution=64)):
        with pytest.raises(ValueError, match="grid measure on mu0's grid"):
            rate_function_g(mu, params, phi)
    uniform = GridMeasure.uniform(dim=1, resolution=64)
    assert rate_function_g(uniform, params, phi).value > 0.0


def test_free_energy_constant_invariance():
    params = MasterParams(beta=1.0, mu0=bump_measure(32))
    f = torus_grid_function(0.03 * np.sin(2 * np.pi * np.arange(32) / 32))
    assert f_functional(f.shifted(1.3), params) == pytest.approx(
        f_functional(f, params), abs=1e-12)
    with pytest.raises(ValueError, match="different grids"):
        f_functional(torus_grid_function(np.zeros(16)), params)


@pytest.mark.parametrize("beta, k", [
    pytest.param(beta, k, id=str(beta) if k == 64 else f"{beta}-k{k}")
    for k in (64, 48, 100) for beta in (-0.5, 0.0, 1.0, 4.0)])
def test_gprop_consistency_across_betas(beta, k):
    params = MasterParams(beta=beta, mu0=bump_measure(k))
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
        masses = mu_min.masses * np.exp(rng.normal(0.0, 0.35, size=32))
        probes.append(GridMeasure(dim=1, resolution=32,
                                  masses=masses / masses.sum()))
    want_min = rate_function_g(mu_min, params, phi).value
    want_best = min(rate_function_g(p, params, phi).value for p in probes)

    calls, inside = [], []
    real, real_w2 = monge_ampere._evaluate, monge_ampere.w2_to_reference
    real_rows, real_mgf = transport._w2_circle_rows, monge_ampere.log_mgf

    def counted(*args, **kwargs):
        calls.append("evaluate")
        inside.append(True)
        try:
            return real(*args, **kwargs)
        finally:
            inside.pop()

    def counted_w2(*args, **kwargs):
        calls.append("w2")
        return real_w2(*args, **kwargs)

    def counted_rows(x, weights, nu):
        calls.append(f"w2 x{len(weights)}")
        return real_rows(x, weights, nu)

    def counted_mgf(*args, **kwargs):
        if not inside:  # the evaluation's own call is the one expected
            calls.append("log_mgf")
        return real_mgf(*args, **kwargs)

    monkeypatch.setattr(monge_ampere, "_evaluate", counted)
    monkeypatch.setattr(monge_ampere, "w2_to_reference", counted_w2)
    monkeypatch.setattr(monge_ampere, "_w2_circle_rows", counted_rows)
    monkeypatch.setattr(monge_ampere, "log_mgf", counted_mgf)
    # one stacked W2 for mu_min (row 0: bracket and rate alike) and the
    # probes, and the evaluation's log-MGF for the entropy gap; each
    # probe's rate is still the one rate_function_g gives. The solver's
    # output carries its last evaluation; a plain grid function does not
    for potential, want_calls in ((phi, ["w2 x9"]),
                                  (torus_grid_function(phi.values),
                                   ["evaluate", "w2 x9"])):
        calls.clear()
        report = gprop_consistency(params, probes=8, seed=5,
                                   phi_min=potential)
        assert calls == want_calls
        assert report.rate_at_minimizer == want_min
        assert report.min_probe_value == want_best
        assert report.free_energy == f_functional(phi, params)
        assert np.array_equal(report.pushforward.masses, mu_min.masses)
        assert report.passed


def same_report(a, b):
    """Two consistency reports equal bit for bit, pushforward included."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "pushforward":
            assert np.array_equal(x.masses, y.masses)
        else:
            assert x == y, f.name


def test_gprop_consistency_reads_the_carried_evaluation_only_for_its_params(
        monkeypatch):
    params = MasterParams(beta=1.0, mu0=bump_measure(32))
    phi = solve_master(params)
    assert phi.evaluation[0] is params
    plain = gprop_consistency(params, probes=8, seed=3,
                              phi_min=torus_grid_function(phi.values))
    real = monge_ampere._evaluate
    evaluated = []

    def counted(f, p):
        evaluated.append(p)
        return real(f, p)

    monkeypatch.setattr(monge_ampere, "_evaluate", counted)
    same_report(gprop_consistency(params, probes=8, seed=3, phi_min=phi),
                plain)
    assert evaluated == []
    # an equal but distinct params, another beta, other values, and values
    # changed in place each get a fresh evaluation, and the report a plain
    # grid function of the same values gets
    xs = np.arange(32) / 32
    changed = dataclasses.replace(phi)
    changed.values[0] += 1e-3
    cases = [(MasterParams(beta=1.0, mu0=params.mu0), phi),
             (MasterParams(beta=2.0, mu0=params.mu0), phi),
             (params, dataclasses.replace(
                 phi, values=phi.values + 1e-3 * np.cos(2 * np.pi * xs))),
             (params, changed)]
    for p, f in cases:
        assert f.evaluation[0] is params
        evaluated.clear()
        report = gprop_consistency(p, probes=8, seed=3, phi_min=f)
        assert evaluated == [p]
        same_report(report, gprop_consistency(
            p, probes=8, seed=3, phi_min=torus_grid_function(f.values)))
    same_report(gprop_consistency(cases[0][0], probes=8, seed=3,
                                  phi_min=phi), plain)


def test_solver_starts_from_a_fresh_evaluation(monkeypatch):
    params = MasterParams(beta=1.0, mu0=bump_measure(32))
    phi = solve_master(params)
    real = monge_ampere._evaluate
    evaluated = []

    def counted(f, p):
        evaluated.append((f, p))
        return real(f, p)

    monkeypatch.setattr(monge_ampere, "_evaluate", counted)
    # a warm start from the solution: its carried evaluation is not read,
    # the start is evaluated once, and that already converges
    again = solve_master(params, initial=phi)
    assert len(evaluated) == 1 and len(again.log) == 1
    assert again.evaluation[2] is not phi.evaluation[2]
    assert np.array_equal(evaluated[0][0].values, again.values)
    # under another beta the start is evaluated for that beta, and the
    # output carries the evaluation of its own last step
    other = MasterParams(beta=2.0, mu0=params.mu0)
    evaluated.clear()
    moved = solve_master(other, initial=phi)
    assert evaluated[0][1] is other and len(evaluated) >= len(moved.log)
    assert moved.evaluation[0] is other
    assert all(np.array_equal(carried, fresh) for carried, fresh
               in zip(moved.evaluation[2], real(moved, other)))


def test_tilt_shifts_by_the_maximum_over_the_cells_mu0_charges():
    # a potential peaking on the one cell mu0 does not charge: shifted by
    # the maximum over all cells, beta * 1 = 800 underflowed every charged
    # cell and the tilt had no mass
    k = 8
    density = np.ones(k)
    density[3] = 0.0
    mu0 = GridMeasure.from_density_values(density)
    params = MasterParams(beta=800.0, mu0=mu0)
    f = torus_grid_function(np.eye(k)[3])
    masses = mu0.masses
    tilt = monge_ampere._tilt_masses(f.values, params.beta, masses)
    assert np.array_equal(tilt, masses / masses.sum())
    assert f_functional(f, params) == (log_mgf(masses, 800.0 * f.values)
                                       / 800.0 + j_functional(f, params.nu))
    assert f_gradient_residual(f, params) == np.sum(
        np.abs(tilt - ma_operator(f, params.nu).masses))


@pytest.mark.parametrize("k", [32, 64, 128, 256])
def test_dual_energy_matches_the_per_piece_loop(k):
    rng = np.random.default_rng(k)
    xs = np.arange(k) / k
    for nu in (GridMeasure.uniform(dim=1, resolution=k), bump_measure(k),
               seeded_grid(rng, k, zero_share=0.2)):
        for scale in (0.01, 0.3 / k ** 2):
            f = torus_grid_function(scale * np.cos(2 * np.pi * xs + 0.4)
                                    + scale * rng.standard_normal(k))
            want = dual_energy_loop(f.values, nu.masses)
            assert abs(j_functional(f, nu) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("k", [32, 64, 128, 256])
def test_transport_masses_equal_the_two_cdf_scan(k):
    # one CDF read at the k + 1 edges and a bincount give the same bits as
    # the CDF read at both edges of every cell and np.add.at, also where a
    # node serves two cells through the wrap
    rng = np.random.default_rng([k, 3])
    xs = np.arange(k) / k
    wavy = GridMeasure.from_density_values(1.0 + 0.3 * np.sin(2 * np.pi * xs))
    wrapped = 0
    for nu in (GridMeasure.uniform(dim=1, resolution=k), wavy,
               fifth_empty(rng, k)):
        for scale in (0.0, 0.3 / k ** 2, 0.01, 1.0):
            f = torus_grid_function(scale * np.cos(2 * np.pi * xs + 0.4)
                                    + scale * rng.standard_normal(k))
            got = monge_ampere._transport(f, nu)[0]
            want = cell_masses_two_cdf(f.values, nu.masses)
            assert np.array_equal(got, want), (nu, scale)
            node_idx = monge_ampere._power_cells_1d(f.values)[0]
            wrapped += len(node_idx) > len(np.unique(node_idx))
    assert wrapped


EPS = 2.0 ** -53
# measured worst relative error of the factored piece integral over these
# pieces: 2.4 EPS; the cubic difference lost up to 5.3e7 EPS on them
SQUARE_INTEGRAL_REL_TOL = 4.0 * EPS


@pytest.mark.parametrize("k", [8, 16, 64])
def test_piece_integrals_against_exact_fractions(k):
    rng = np.random.default_rng(k)
    xs = np.arange(k) / k
    a, b, s = [], [], []
    for scale in (0.01, 0.3 / k ** 2, 1e-3 / k ** 3, 1e-6 / k ** 3):
        values = (scale * np.cos(2 * np.pi * xs + 0.4)
                  + scale * rng.standard_normal(k))
        _, sites, lows, highs = monge_ampere._power_cells_1d(values)
        for site, lo, hi in zip(sites, lows, highs):
            edges = ([lo] + [j / k for j in range(1, k) if lo < j / k < hi]
                     + [hi])
            a += edges[:-1]
            b += edges[1:]
            s += [site] * (len(edges) - 1)
    a, b, s = np.array(a), np.array(b), np.array(s)
    narrow = b - a < 1.0 / k ** 2
    assert narrow.sum() >= 20
    factored = monge_ampere._square_integrals(a, b, s)
    cubic = ((b - s) ** 3 - (a - s) ** 3) / 3.0
    exact = [((Fraction(hi) - Fraction(c)) ** 3
              - (Fraction(lo) - Fraction(c)) ** 3) / 3
             for lo, hi, c in zip(a, b, s)]
    err_factored = np.array([float(abs(Fraction(got) - want) / want)
                             for got, want in zip(factored, exact)])
    err_cubic = np.array([float(abs(Fraction(got) - want) / want)
                          for got, want in zip(cubic, exact)])
    assert err_factored.max() <= SQUARE_INTEGRAL_REL_TOL
    assert err_factored.max() <= err_cubic.max()
    # the narrow pieces are where the cubic difference cancels
    assert err_cubic[narrow].max() > 1e6 * EPS


def test_stacked_w2_row_zero_is_the_one_row_call(monkeypatch):
    # gprop_consistency's one W2 pass: mu_min's masses as row 0 of the probe
    # stack give W2^2(mu_min, nu) bit for bit, and so the bracket too
    real = transport._w2_circle_rows
    seen = []

    def kept(x, weights, nu):
        out = real(x, weights, nu)
        seen.append((weights, out))
        return out

    monkeypatch.setattr(monge_ampere, "_w2_circle_rows", kept)
    rng = np.random.default_rng(11)
    for k in (32, 64, 128, 256):
        xs = np.arange(k) / k
        for nu in (GridMeasure.uniform(dim=1, resolution=k),
                   GridMeasure.from_density_values(
                       1.0 + 0.3 * np.sin(2 * np.pi * xs)),
                   fifth_empty(rng, k)):
            for beta, probes in ((-0.5, 8), (1.0, 0), (2.0, 50)):
                params = MasterParams(beta=beta, mu0=smooth_mu0(rng, k),
                                      nu=nu)
                phi = solve_master(params)
                report = gprop_consistency(params, probes=probes,
                                           phi_min=phi)
                mu_min = ma_operator(phi, nu)
                weights, w2s = seen.pop()
                assert weights.shape == (1 + probes, k)
                assert np.array_equal(weights[0], mu_min.masses)
                w2 = w2_to_reference(mu_min, nu)
                assert w2s[0] == w2
                pairing = float(np.sum(phi.values * mu_min.masses))
                assert report.bracket_gap == w2 + j_functional(phi, nu) \
                    + pairing


def nu_cases(k):
    xs = np.arange(k) / k
    wavy = 1.0 + 0.3 * np.sin(2 * np.pi * xs)
    empty = wavy.copy()
    empty[10] = 0.0
    return {"uniform": GridMeasure.uniform(dim=1, resolution=k),
            "wavy": GridMeasure.from_density_values(wavy),
            "empty-cell": GridMeasure.from_density_values(empty)}


@pytest.mark.parametrize("case", ["uniform", "wavy", "empty-cell"])
def test_inversion_jacobian_matches_central_differences(case):
    k = 32
    nu = nu_cases(k)[case]
    rng = np.random.default_rng(3)
    masses = rng.random(k) + 0.5
    masses /= masses.sum()
    values, slopes = monge_ampere._invert_cells_1d(masses, nu)
    want = invert_cells_bisect(masses, nu.masses)
    assert np.abs(values - want).max() <= 1e-15
    got = inversion_jacobian(slopes)
    eps = 1e-7
    want = np.empty((k, k))
    for l in range(k):
        bump = np.zeros(k)
        bump[l] = eps
        up = monge_ampere._invert_cells_1d(masses + bump, nu)[0]
        down = monge_ampere._invert_cells_1d(masses - bump, nu)[0]
        want[:, l] = (up - down) / (2.0 * eps)
    assert np.abs(got - want).max() <= 1e-7


def smooth_mu0(rng, k):
    xs = (np.arange(k) + 0.5) / k
    amps = rng.dirichlet(np.ones(3)) * 0.8
    dens = 1.0 + sum(a * np.cos(2 * np.pi * (m + 1) * xs + rng.uniform(0, 6.3))
                     for m, a in enumerate(amps))
    return GridMeasure.from_density_values(dens)


@pytest.mark.parametrize("k", [64, 128, 256])
def test_newton_converges_in_a_few_steps(k):
    rng = np.random.default_rng(k)
    for beta in (-0.5, 0.0, 0.5, 1.0, 2.0, 4.0):
        params = MasterParams(beta=beta, mu0=smooth_mu0(rng, k))
        phi = solve_master(params)
        assert len(phi.log) - 1 <= 6, (beta, phi.log)
        assert phi.log[-1][1] <= params.residual_tol
        assert f_gradient_residual(phi, params) == phi.log[-1][1]


def test_zero_beta_solution_is_the_cell_inversion_of_mu0():
    # at beta = 0 the tilt is mu0 whatever the potential: the solution
    # inverts the cells of mu0 itself
    k = 64
    mu0 = smooth_mu0(np.random.default_rng(1), k)
    for nu in nu_cases(k).values():
        phi = solve_master(MasterParams(beta=0.0, mu0=mu0, nu=nu))
        want = normalize_potential(
            torus_grid_function(invert_cells_bisect(mu0.masses,
                                                    nu.masses)), nu)
        assert np.abs(phi.values - want.values).max() <= 1e-12


def test_newton_solves_a_reference_with_an_empty_cell():
    # the damped blend of the cell masses stalled here, at iteration 25
    # with residual 1.4e-3
    k = 64
    xs = np.arange(k) / k
    params = MasterParams(
        beta=-0.5,
        mu0=GridMeasure.from_density_values(1.0 + 0.4 * np.cos(2 * np.pi * xs)),
        nu=nu_cases(k)["empty-cell"])
    phi = solve_master(params)
    assert len(phi.log) - 1 <= 6
    report = gprop_consistency(params, probes=12, phi_min=phi)
    assert report.passed, (report.residual_tv, report.bracket_gap,
                           report.entropy_gap, report.rate_at_minimizer)


def fifth_empty(rng, k):
    """A seeded reference density with a fifth of its cells empty."""
    dens = rng.random(k) + 0.3
    dens[rng.choice(k, k // 5, replace=False)] = 0.0
    return GridMeasure.from_density_values(dens)


@pytest.mark.parametrize("case", ["uniform", "wavy", "empty-cell",
                                  "fifth-empty"])
def test_inversion_reproduces_the_masses(case):
    # where nu has empty cells, Q_nu jumps, and the boundaries' sum can
    # jump over its target: a bisected anchor then left cells 0 and 63
    # 1.6e-2 off their masses; the boundary at the jump goes into the gap
    k = 64
    nu = (fifth_empty(np.random.default_rng(1), k) if case == "fifth-empty"
          else nu_cases(k)[case])
    rng = np.random.default_rng(0)
    for _ in range(400):
        masses = rng.random(k) + 0.5
        masses /= masses.sum()
        values, _ = monge_ampere._invert_cells_1d(masses, nu)
        push = ma_operator(torus_grid_function(values), nu).masses
        assert np.abs(push - masses).max() <= 1e-12


def test_solver_handles_references_with_a_fifth_of_their_cells_empty():
    # with a bisected anchor 41 of these 160 solves raised, stalled or
    # without an admissible step; two, both at beta = 4, still stall near
    # residual 6e-4 and 7e-4, where the Newton steps cross jumps of Q_nu
    k = 64
    failed = []
    for seed in range(40):
        rng = np.random.default_rng([seed, 7])
        mu0, nu = smooth_mu0(rng, k), fifth_empty(rng, k)
        for beta in (-0.5, 0.0, 1.0, 4.0):
            params = MasterParams(beta=beta, mu0=mu0, nu=nu)
            try:
                phi = solve_master(params)
            except SolverError:
                failed.append((seed, beta))
                continue
            assert phi.log[-1][1] <= params.residual_tol
    assert len(failed) <= 2, failed


@pytest.mark.parametrize("uniform_nu", [True, False])
def test_solver_inversions_take_few_quantile_passes(uniform_nu, monkeypatch):
    # a plain bisection of the anchor from [-1, 1] takes about 65 passes;
    # on the symmetric cosine mu0, whose anchor is about -5e-17, a search
    # that ends by bisecting to neighbouring floats took 55-59
    k = 256
    xs = np.arange(k) / k
    nu = (GridMeasure.uniform(dim=1, resolution=k) if uniform_nu else
          GridMeasure.from_density_values(1.0 + 0.3 * np.sin(2 * np.pi * xs)))
    quantiles = []
    locate = transport._Quantile.locate

    def counted_locate(self, u):
        quantiles.append(np.size(u))
        return locate(self, u)

    monkeypatch.setattr(transport._Quantile, "locate", counted_locate)
    invert = monge_ampere._invert_cells_1d
    passes = []

    def counted(masses, measure):
        start = len(quantiles)
        out = invert(masses, measure)
        assert all(size == k for size in quantiles[start:])  # one row
        passes.append(len(quantiles) - start)
        return out

    monkeypatch.setattr(monge_ampere, "_invert_cells_1d", counted)
    rng = np.random.default_rng(k)
    cosine = GridMeasure.from_density_values(
        1.0 + 0.5 * np.cos(2 * np.pi * (xs + 0.5 / k)))
    for beta in (-0.5, 0.0, 1.0, 4.0):
        solve_master(MasterParams(beta=beta, mu0=smooth_mu0(rng, k), nu=nu))
        solve_master(MasterParams(beta=beta, mu0=cosine, nu=nu))
    assert len(passes) >= 16
    assert min(passes) >= 1 and max(passes) <= 24, passes


@pytest.mark.parametrize("case", ["uniform", "wavy", "empty-cell"])
def test_inversion_leaves_zero_mass_cells_strictly_empty(case):
    k = 32
    nu = nu_cases(k)[case]
    rng = np.random.default_rng(8)
    masses = rng.random(k) + 0.5
    zero = [0, 7, 8, 20]
    masses[zero] = 0.0
    masses /= masses.sum()
    values, _ = monge_ampere._invert_cells_1d(masses, nu)
    for i in zero:  # no cell, not even a point: a margin keeps it empty
        lowered = values.copy()
        lowered[i] -= 0.5 / k ** 2
        assert i not in monge_ampere._power_cells_1d(lowered)[0]
    push = ma_operator(torus_grid_function(values), nu).masses
    assert np.all(push[zero] == 0.0)
    assert np.abs(push - masses).max() <= 1e-12


@pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0])
def test_cells_mu0_does_not_charge_are_hidden_nodes(beta):
    # the tilt vanishes there, so a full Newton step zeroes those masses:
    # they are held at 0 instead of approached by halved steps, and no
    # rounding mass may land there, or Ent(mu0, mu) is infinite
    k = 64
    xs = (np.arange(k) + 0.5) / k
    dens = 1.0 + 0.4 * np.cos(2 * np.pi * xs)
    empty = [5, 30, 31, 32]
    dens[empty] = 0.0
    params = MasterParams(beta=beta, mu0=GridMeasure.from_density_values(dens))
    phi = solve_master(params)
    assert len(phi.log) - 1 <= 3, phi.log
    report = gprop_consistency(params, probes=12, phi_min=phi)
    assert np.all(report.pushforward.masses[empty] == 0.0)
    assert math.isfinite(report.entropy_gap)
    assert report.passed, (report.residual_tv, report.bracket_gap,
                           report.entropy_gap, report.rate_at_minimizer)


NEWTON_BETAS = (-64.0, -16.0, -0.5, 0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0)


def relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("k", [64, 256, 1024])
def test_newton_step_matches_the_dense_solve_on_solver_inputs(k, monkeypatch):
    # every (masses, slopes, tilt, beta) a solve hands to the step, over
    # beta from -64 to 1024; at k = 1024 the last step of each solve, where
    # the residual and so the step are smallest, keeps the dense solves few
    captured = []
    step = monge_ampere._newton_direction

    def capture(*args):
        captured.append(args)
        return step(*args)

    monkeypatch.setattr(monge_ampere, "_newton_direction", capture)
    xs = (np.arange(k) + 0.5) / k
    mu0s = (1.0 + 0.5 * np.cos(2 * np.pi * xs),
            1.0 + 0.3 * np.sin(2 * np.pi * xs)
            + 0.2 * np.cos(6 * np.pi * xs + 1.0))
    worst = 0.0
    for beta in NEWTON_BETAS:
        for dens in mu0s:
            for nu in nu_cases(k).values():
                captured.clear()
                params = MasterParams(
                    beta=beta, mu0=GridMeasure.from_density_values(dens), nu=nu)
                try:
                    solve_master(params)
                except SolverError:
                    pass  # the steps taken still count (cosine mu0, beta -64)
                assert captured, (beta, nu)
                for args in (captured[-1:] if k > 256 else captured):
                    gap = relative_gap(step(*args), newton_direction_dense(*args))
                    worst = max(worst, gap)
    assert worst <= 1e-10, worst


@pytest.mark.parametrize("k", [2, 3, 5, 257])
def test_newton_step_matches_the_dense_solve_on_random_inputs(k):
    rng = np.random.default_rng(k)
    for beta in NEWTON_BETAS + (-1e-12, 1e-12):
        for _ in range(4):
            hidden = rng.random(k) < 0.25
            hidden[rng.choice(k, 2, replace=False)] = False  # a nonzero step
            tilt = np.where(hidden, 0.0, rng.random(k) + 0.2)
            tilt /= tilt.sum()
            masses = tilt * np.exp(0.1 * rng.standard_normal(k))
            masses /= masses.sum()
            slopes = rng.uniform(0.3, 3.0, k)
            got = monge_ampere._newton_direction(masses, slopes, tilt, beta)
            want = newton_direction_dense(masses, slopes, tilt, beta)
            assert relative_gap(got, want) <= 1e-10, (beta, hidden)


@pytest.mark.parametrize("k", [8, 64, 256])
def test_newton_step_is_exact_where_a_cut_cycle_goes_singular(k):
    # cutting one facet of the cycle leaves a path whose lowest modes cross
    # zero at these beta, with uniform tilt and slopes, though J is regular
    # there: an elimination over the whole path lost up to 2 digits in 5
    # near them and met a zero pivot at k = 8, beta = -32
    w = k / 2.0
    path = (np.diag(np.full(k, 2.0 * w)) - np.diag(np.full(k - 1, w), 1)
            - np.diag(np.full(k - 1, w), -1))
    tilt, slopes = np.full(k, 1.0 / k), np.ones(k)
    masses = tilt * np.exp(0.01 * np.random.default_rng(k).standard_normal(k))
    masses /= masses.sum()
    for beta in -k * np.linalg.eigvalsh(path)[:3]:
        for near in (beta, beta * (1.0 + 1e-12)):
            got = monge_ampere._newton_direction(masses, slopes, tilt, near)
            want = newton_direction_dense(masses, slopes, tilt, near)
            assert relative_gap(got, want) <= 1e-10, near


def test_solver_raises_when_the_residual_stalls():
    # below the residual's rounding floor the solver used to spend all of
    # max_iter, 400 steps
    with pytest.raises(SolverError, match="stalled") as err:
        solve_master(MasterParams(beta=1.0, mu0=bump_measure(64),
                                  residual_tol=1e-15))
    residuals = err.value.residuals
    assert len(residuals) < 20
    assert f"{min(residuals):.3e}" in str(err.value)


def test_damped_steps_that_raise_the_residual_do_not_stall():
    # at beta = -64 the damped steps trade residual for free energy before
    # the first full Newton step; counted as stalled, they raised "stalled
    # at iteration 3" at the starting residual 3.183e-1
    k = 256
    xs = (np.arange(k) + 0.5) / k
    mu0 = GridMeasure.from_density_values(1.0 + 0.5 * np.cos(2 * np.pi * xs))
    phi = solve_master(MasterParams(beta=-64.0, mu0=mu0))
    residuals = [r for _, r, _, _ in phi.log]
    assert max(residuals[1:4]) > residuals[0]
    assert residuals[-1] <= 1e-9 and len(residuals) - 1 <= 20
    with pytest.raises(SolverError, match="no admissible step"):
        solve_master(MasterParams(beta=-96.0, mu0=mu0))


def test_master_equation_at_sixteen_thousand_cells():
    # the dense Jacobian alone would take 2.1 GB here; F(phi_1) converges
    # at second order in the grid step, its differences shrinking 16-fold
    # per 4x in k
    free = []
    for k in (1024, 4096, 16384):
        xs = (np.arange(k) + 0.5) / k
        params = MasterParams(beta=1.0, mu0=GridMeasure.from_density_values(
            1.0 + 0.5 * np.cos(2 * np.pi * xs)))
        tracemalloc.start()
        try:
            phi = solve_master(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert phi.log[-1][1] <= params.residual_tol
        free.append(f_functional(phi, params))
    assert peak < 64 * 2 ** 20, peak
    ratio = (free[0] - free[1]) / (free[1] - free[2])
    assert 15.0 <= ratio <= 17.0, (free, ratio)
