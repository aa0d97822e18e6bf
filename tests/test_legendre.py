"""Grid Legendre conjugates and the entropy duality on alphabets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpma.legendre import (
    GridFunction,
    conjugate_at,
    ent_dual_check,
    interpolate_at,
    legendre_transform,
)
from ldpma.measures import DiscreteMeasure, torus_domain

from oracles import ent_dual_sup_scan, relative_entropy


def parabola(resolution=64, half_width=2.0):
    step = 2.0 * half_width / resolution
    x = -half_width + (np.arange(resolution) + 0.5) * step
    return GridFunction(dim=1, resolution=resolution, values=0.5 * x ** 2,
                        kind="box", bounds=((-half_width, half_width),))


def test_conjugate_of_half_square_is_half_square():
    f = parabola(resolution=256)
    fstar = legendre_transform(f, dual_bounds=((-1.0, 1.0),),
                               dual_resolution=128)
    ys = fstar.axis_nodes(0)
    want = 0.5 * ys ** 2
    # node-max conjugate of a smooth function carries an O(h^2) defect
    assert np.max(np.abs(fstar.values - want)) < 5e-4


def test_young_inequality_exact_on_nodes():
    f = parabola(resolution=64)
    fstar = legendre_transform(f, dual_bounds=((-1.5, 1.5),),
                               dual_resolution=64)
    xs = f.axis_nodes(0)
    ys = fstar.axis_nodes(0)
    gaps = xs[:, None] * ys[None, :] - f.values[:, None] - fstar.values[None, :]
    # f(x) + f*(y) >= x y holds exactly by construction of the node max
    assert gaps.max() <= 1e-12


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0),
                min_size=8, max_size=8))
@settings(max_examples=50, deadline=None)
def test_conjugate_is_convex_in_dual_variable(vals):
    f = GridFunction(dim=1, resolution=8, values=np.asarray(vals),
                     kind="box", bounds=((0.0, 1.0),))
    fstar = legendre_transform(f, dual_bounds=((-3.0, 3.0),),
                               dual_resolution=33)
    v = fstar.values
    assert np.all(v[1:-1] <= (v[:-2] + v[2:]) / 2.0 + 1e-9)


def test_biconjugate_below_original_and_tight_for_convex():
    f = parabola(resolution=96)
    # the slopes of f span [-2, 2]; the dual grid pads them by 10%
    fstar = legendre_transform(f, dual_bounds=((-2.4, 2.4),),
                               dual_resolution=4 * 96)
    back = conjugate_at(fstar, f.nodes())
    assert np.max(back - f.values) <= 1e-12
    assert np.max(f.values - back) <= 5e-3


def test_conjugate_at_matches_transform_nodes():
    f = parabola(resolution=48)
    fstar = legendre_transform(f, dual_bounds=((-1.0, 1.0),),
                               dual_resolution=16)
    ys = fstar.axis_nodes(0)
    direct = conjugate_at(f, ys[:, None])
    assert np.allclose(direct, fstar.values, atol=1e-14)


def test_constant_shift_moves_conjugate_oppositely():
    f = parabola(resolution=32)
    fstar = legendre_transform(f, dual_bounds=((-1.0, 1.0),),
                               dual_resolution=16)
    gstar = legendre_transform(f.shifted(0.7), dual_bounds=((-1.0, 1.0),),
                               dual_resolution=16)
    assert np.allclose(gstar.values, fstar.values - 0.7, atol=1e-14)


def test_interpolate_at_hits_nodes():
    f = GridFunction(dim=1, resolution=16,
                     values=np.cos(2 * np.pi * np.arange(16) / 16))
    xs = f.axis_nodes(0)
    vals = interpolate_at(f, xs[:, None])
    assert np.allclose(vals, f.values, atol=1e-14)
    with pytest.raises(ValueError, match="torus"):
        interpolate_at(parabola(resolution=16), xs[:, None])


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(dim=1, resolution=4, values=np.zeros(5), kind="box",
                     bounds=((0.0, 1.0),))
    with pytest.raises(ValueError):
        GridFunction(dim=1, resolution=4, values=np.zeros(4), kind="box",
                     bounds=())
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="values must be finite"):
            GridFunction(dim=1, resolution=4, values=[0.0, bad, 0.0, 0.0],
                         kind="torus")


def test_torus_function_has_no_dual_default():
    f = GridFunction(dim=1, resolution=8, values=np.zeros(8), kind="torus")
    assert f.step(0) == pytest.approx(1.0 / 8.0)


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


def test_legendre_transform_is_one_dimensional():
    f = GridFunction(dim=2, resolution=4, values=np.zeros((4, 4)),
                     kind="box", bounds=((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="1-d"):
        legendre_transform(f, dual_bounds=((-1.0, 1.0), (-1.0, 1.0)),
                           dual_resolution=4)
