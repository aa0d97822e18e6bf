"""Assignments, Kantorovich plans, and Wasserstein distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpma.measures import (
    DiscreteMeasure,
    EmpiricalConfig,
    GridMeasure,
    empirical,
    torus_domain,
)
from ldpma import transport
from ldpma.transport import (
    TransportPlan,
    brute_force_assignment,
    cost_matrix,
    cyclical_monotonicity_check,
    dual_pair_value,
    hungarian,
    kantorovich_lp,
    rockafellar_potential,
    w2_circle_atoms,
    w2_empirical,
    w2_semidiscrete,
)
from ldpma.legendre import GridFunction

from oracles import assignment_brute, w2_circle_atoms_brute


def random_cost(rng, n):
    return rng.random((n, n))


def atoms(points, weights=None):
    pts = np.asarray(points, dtype=float)[:, None]
    w = (np.full(len(pts), 1.0 / len(pts)) if weights is None
         else np.asarray(weights, dtype=float))
    return DiscreteMeasure(points=pts, weights=w, domain=torus_domain(1))


def test_hungarian_matches_brute_small():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5, 6):
        for _ in range(20):
            cost = random_cost(rng, n)
            fast = hungarian(cost)
            _, want = assignment_brute(cost)
            assert fast.cost == pytest.approx(want, abs=1e-12)


def test_brute_force_assignment_returns_argmin():
    rng = np.random.default_rng(5)
    cost = random_cost(rng, 5)
    got = brute_force_assignment(cost)
    perm, want = assignment_brute(cost)
    assert got.cost == pytest.approx(want, abs=1e-15)
    assert tuple(got.permutation) == perm


def test_cost_matrix_torus_wraps():
    xs = np.array([[0.05]])
    ys = np.array([[0.95]])
    c = cost_matrix(xs, ys, "sqdist_torus")
    assert c[0, 0] == pytest.approx(0.01, abs=1e-15)
    c2 = cost_matrix(xs, ys, "sqdist_euclid")
    assert c2[0, 0] == pytest.approx(0.81, abs=1e-15)


def test_cost_matrix_neg_inner():
    xs = np.array([[1.0, 2.0]])
    ys = np.array([[3.0, -1.0]])
    c = cost_matrix(xs, ys, "neg_inner")
    assert c[0, 0] == pytest.approx(-1.0, abs=1e-15)


def test_kantorovich_on_uniform_atoms_equals_assignment():
    rng = np.random.default_rng(2)
    pts_a = rng.random((6, 1))
    pts_b = rng.random((6, 1))
    mu = empirical(EmpiricalConfig(points=pts_a))
    nu = empirical(EmpiricalConfig(points=pts_b))
    costs = cost_matrix(pts_a, pts_b, "sqdist_torus")
    plan = kantorovich_lp(mu, nu, costs)
    best = brute_force_assignment(costs)
    assert plan.objective(costs) == pytest.approx(best.cost / 6.0, abs=1e-10)


def test_plan_marginals_and_validation():
    mu = atoms([0.1, 0.6])
    nu = atoms([0.2, 0.7, 0.9], weights=[0.5, 0.25, 0.25])
    costs = cost_matrix(mu.points, nu.points, "sqdist_torus")
    plan = kantorovich_lp(mu, nu, costs)
    assert np.allclose(plan.coupling.sum(axis=1), mu.weights, atol=1e-10)
    assert np.allclose(plan.coupling.sum(axis=0), nu.weights, atol=1e-10)
    with pytest.raises(ValueError):
        TransportPlan(coupling=plan.coupling * 0.5, source=mu, target=nu)


def test_w2_empirical_single_atoms_torus():
    assert w2_empirical(atoms([0.0]), atoms([0.8])) == pytest.approx(
        0.04, abs=1e-12)
    assert w2_empirical(atoms([0.0]), atoms([0.3])) == pytest.approx(
        0.09, abs=1e-12)


def test_w2_empirical_translation_invariant_on_torus():
    rng = np.random.default_rng(8)
    a = rng.random(5)
    b = rng.random(5)
    base = w2_empirical(atoms(a), atoms(b))
    shifted = w2_empirical(atoms((a + 0.37) % 1.0), atoms((b + 0.37) % 1.0))
    assert shifted == pytest.approx(base, abs=1e-10)


def test_w2_empirical_matches_circle_brute():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.random(4)
        b = rng.random(6)
        wa = rng.random(4) + 0.2
        wa = wa / wa.sum()
        wb = rng.random(6) + 0.2
        wb = wb / wb.sum()
        got = w2_empirical(atoms(a, wa), atoms(b, wb))
        want = w2_circle_atoms_brute(a, wa, b, wb, cuts=2000)
        # the brute cut grid only brackets the optimum from above
        assert got <= want + 1e-9
        assert got >= want - 5e-4


def random_atom_stack(rng, count, n):
    """Sorted rows of n atoms drawn from 8 sites, so atoms often coincide."""
    return np.sort(rng.integers(0, 8, (count, n)) / 8.0, axis=1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_w2_circle_atoms_match_the_lp(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(4):
        rows = random_atom_stack(rng, 6, n)
        weights = rng.random(n) + 0.2
        weights /= weights.sum()
        m = int(rng.integers(1, 9))
        y, w = rng.random(m), rng.random(m) + 0.2
        w /= w.sum()
        got = w2_circle_atoms(rows, weights, y, w)
        want = [w2_empirical(atoms(row, weights), atoms(y, w)) for row in rows]
        assert np.max(np.abs(got - want)) <= 1e-12


def test_w2_circle_atoms_chunks_agree_and_rows_must_be_sorted(monkeypatch):
    rng = np.random.default_rng(9)
    rows = random_atom_stack(rng, 50, 3)
    y = rng.random(5)
    w = np.full(5, 0.2)
    whole = w2_circle_atoms(rows, np.full(3, 1 / 3), y, w)
    # 33 distinct offsets: a budget of 100 puts 3 rows in a chunk, 2 in the last
    monkeypatch.setattr(transport, "CIRCLE_CHUNK", 100)
    assert np.array_equal(w2_circle_atoms(rows, np.full(3, 1 / 3), y, w),
                          whole)
    with pytest.raises(ValueError, match="sorted"):
        w2_circle_atoms(rows[:, ::-1], np.full(3, 1 / 3), y, w)


def test_w2_semidiscrete_uniform_vs_own_atoms():
    # the grid is atomized at cell centers, so against its own centers
    # the plan is the zero-cost diagonal
    k = 32
    g = GridMeasure.uniform(dim=1, resolution=k)
    mu = DiscreteMeasure(points=g.centers(), weights=g.masses(),
                         domain=torus_domain(1))
    assert w2_semidiscrete(g, mu) == 0.0


def test_w2_semidiscrete_refinement_decreases():
    g = GridMeasure.uniform(dim=1, resolution=240)
    values = []
    for n in (2, 4, 8):
        pts = (np.arange(n) / n)[:, None]
        mu = DiscreteMeasure(points=pts, weights=np.full(n, 1.0 / n),
                             domain=torus_domain(1))
        values.append(w2_semidiscrete(g, mu))
    assert values[0] > values[1] > values[2]


def test_cyclical_monotonicity_detects_crossing():
    xs = np.array([[0.0], [1.0]])
    for cost in ("neg_inner", "sqdist_euclid"):
        costs = cost_matrix(xs, xs, cost)
        ok, witness = cyclical_monotonicity_check(costs, [0, 1], [0, 1])
        assert ok and witness is None
        ok, witness = cyclical_monotonicity_check(costs, [0, 1], [1, 0])
        assert not ok and witness == [0, 1]


@given(st.lists(st.floats(min_value=0.0, max_value=1.0),
                min_size=3, max_size=6, unique=True))
@settings(max_examples=40, deadline=None)
def test_monotone_pairs_always_pass(xs):
    xs = np.sort(np.array(xs))[:, None]
    costs = cost_matrix(xs, xs + 0.5, "neg_inner")
    index = list(range(len(xs)))
    ok, _ = cyclical_monotonicity_check(costs, index, index)
    assert ok


def test_rockafellar_potential_supports_pairs():
    pairs = [(np.array([0.0]), np.array([0.1])),
             (np.array([0.5]), np.array([0.6])),
             (np.array([0.9]), np.array([1.2]))]
    values = [rockafellar_potential(pairs, 0, x) for x, _ in pairs]
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    # subgradient inequality: f(x_j) >= f(x_i) + <y_i, x_j - x_i>
    for i, (xi, yi) in enumerate(pairs):
        for j, (xj, _) in enumerate(pairs):
            rhs = values[i] + float(np.dot(yi, xj - xi))
            assert values[j] >= rhs - 1e-10


def test_dual_pair_value_shift_invariant():
    f = GridFunction(dim=1, resolution=16,
                     values=np.sin(2 * np.pi * np.arange(16) / 16) * 0.1,
                     kind="torus")
    mu = atoms([0.125, 0.625])
    nu = GridMeasure.uniform(dim=1, resolution=16)
    base = dual_pair_value(f, mu, nu)
    shifted = dual_pair_value(f.shifted(3.0), mu, nu)
    assert shifted == pytest.approx(base, abs=1e-10)
