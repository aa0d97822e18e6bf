"""Grid Legendre conjugates and the entropy duality on alphabets."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpma.legendre import (
    GridFunction,
    conjugate_at,
    ent_dual_check,
    interpolate_at,
)
from ldpma.measures import (DiscreteMeasure, GridMeasure, cell_nodes,
                            torus_domain)

from oracles import ent_dual_sup_scan, relative_entropy


def parabola(resolution=64, half_width=2.0):
    """Nodes, as one column, and values of x^2 / 2 on a grid of
    [-half_width, half_width]."""
    x = cell_nodes(-half_width, half_width, resolution)
    return x[:, None], 0.5 * x ** 2


def test_conjugate_of_half_square_is_half_square():
    x, f = parabola(resolution=256)
    ys = cell_nodes(-1.0, 1.0, 128)
    fstar = conjugate_at(x, f, ys[:, None])
    want = 0.5 * ys ** 2
    # node-max conjugate of a smooth function carries an O(h^2) defect
    assert np.max(np.abs(fstar - want)) < 5e-4


def test_young_inequality_exact_on_nodes():
    x, f = parabola(resolution=64)
    ys = cell_nodes(-1.5, 1.5, 64)
    fstar = conjugate_at(x, f, ys[:, None])
    gaps = x * ys[None, :] - f[:, None] - fstar[None, :]
    # f(x) + f*(y) >= x y holds exactly by construction of the node max
    assert gaps.max() <= 1e-12


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0),
                min_size=8, max_size=8))
@settings(max_examples=50, deadline=None)
def test_conjugate_is_convex_in_dual_variable(vals):
    v = conjugate_at(cell_nodes(0.0, 1.0, 8)[:, None], np.asarray(vals),
                     cell_nodes(-3.0, 3.0, 33)[:, None])
    assert np.all(v[1:-1] <= (v[:-2] + v[2:]) / 2.0 + 1e-9)


def test_biconjugate_below_original_and_tight_for_convex():
    x, f = parabola(resolution=96)
    # the slopes of f span [-2, 2]; the dual grid pads them by 10%
    ys = cell_nodes(-2.4, 2.4, 4 * 96)[:, None]
    back = conjugate_at(ys, conjugate_at(x, f, ys), x)
    assert np.max(back - f) <= 1e-12
    assert np.max(f - back) <= 5e-3


def test_conjugate_at_matches_a_per_point_scan():
    rng = np.random.default_rng(5)
    f = GridFunction(dim=2, resolution=6, values=rng.normal(size=(6, 6)))
    nodes, ys = f.nodes(), rng.normal(size=(10, 2))
    want = [max(float(x @ y) - v for x, v in zip(nodes, f.values.reshape(-1)))
            for y in ys]
    assert np.allclose(conjugate_at(nodes, f.values, ys), want, atol=1e-14)
    with pytest.raises(ValueError, match="wrong dimension"):
        conjugate_at(nodes, f.values, ys[:, :1])


def test_constant_shift_moves_conjugate_oppositely():
    x, f = parabola(resolution=32)
    ys = cell_nodes(-1.0, 1.0, 16)[:, None]
    fstar = conjugate_at(x, f, ys)
    gstar = conjugate_at(x, f + 0.7, ys)
    assert np.allclose(gstar, fstar - 0.7, atol=1e-14)


def test_interpolate_at_hits_nodes():
    f = GridFunction(dim=1, resolution=16,
                     values=np.cos(2 * np.pi * np.arange(16) / 16))
    vals = interpolate_at(f, f.nodes())
    assert np.allclose(vals, f.values, atol=1e-14)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(dim=1, resolution=4, values=np.zeros(5))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="values must be finite"):
            GridFunction(dim=1, resolution=4, values=[0.0, bad, 0.0, 0.0])


def test_grid_function_is_a_torus_function():
    f = GridFunction(dim=2, resolution=8, values=np.zeros((8, 8)))
    assert [field.name for field in dataclasses.fields(f)] == [
        "dim", "resolution", "values"]
    assert np.array_equal(f.nodes(), GridMeasure.uniform(2, 8).centers())


def test_ent_dual_closed_form_and_grid_sup():
    mu0 = DiscreteMeasure.from_alphabet_weights([0.3, 0.3, 0.4])
    nu = DiscreteMeasure.from_alphabet_weights([0.2, 0.5, 0.3])
    ent, sup = ent_dual_check(mu0, nu)
    want = relative_entropy(mu0.weights, nu.weights)
    assert ent == pytest.approx(want, abs=1e-13)
    assert sup <= ent + 1e-12
    assert ent - sup <= 1e-3


def test_ent_dual_boundary_type():
    mu0 = DiscreteMeasure.from_alphabet_weights([0.5, 0.5])
    nu = DiscreteMeasure.from_alphabet_weights([1.0, 0.0])
    ent, sup = ent_dual_check(mu0, nu)
    assert ent == pytest.approx(np.log(2.0), abs=1e-13)
    assert sup <= ent + 1e-12


def test_ent_dual_sup_matches_per_candidate_scan():
    rng = np.random.default_rng(36)
    for k in (2, 3, 4):
        for _ in range(5):
            mu0 = DiscreteMeasure.from_alphabet_weights(
                rng.dirichlet(np.ones(k)) * 0.9 + 0.1 / k)
            nu = DiscreteMeasure.from_alphabet_weights(
                rng.dirichlet(np.ones(k)) * 0.9 + 0.1 / k)
            _, sup = ent_dual_check(mu0, nu)
            want = ent_dual_sup_scan(mu0.weights, nu.weights)
            assert abs(sup - want) <= 1e-15


def test_ent_dual_refuses_alphabets_past_the_candidate_cap():
    mu0 = DiscreteMeasure.from_alphabet_weights(np.full(8, 1.0 / 8.0))
    with pytest.raises(ValueError, match="4782969 candidates"):
        ent_dual_check(mu0, mu0)


def test_ent_dual_refuses_two_different_alphabets():
    mu0 = DiscreteMeasure.from_alphabet_weights([0.5, 0.5])
    nu = DiscreteMeasure.from_alphabet_weights([0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match="different alphabets"):
        ent_dual_check(mu0, nu)
    with pytest.raises(ValueError, match="finite alphabets"):
        ent_dual_check(mu0, DiscreteMeasure(
            points=[[0.25], [0.75]], weights=[0.5, 0.5],
            domain=torus_domain(1)))
