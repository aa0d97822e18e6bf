"""Measure containers, serialization, entropy, and the log-MGF."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpma.measures import (
    DiscreteMeasure,
    _logsumexp,
    GridMeasure,
    alphabet_domain,
    empirical,
    entropy,
    load_discrete_csv,
    load_grid_csv,
    log_mgf,
    save_csv,
    torus_domain,
)

from oracles import relative_entropy


def weights_strategy(k):
    return st.lists(
        st.floats(min_value=0.05, max_value=1.0), min_size=k, max_size=k
    ).map(lambda w: np.array(w) / np.sum(w))


def test_measures_are_probability_measures_by_construction():
    g = GridMeasure.uniform(dim=2, resolution=8)
    assert g.masses.sum() == pytest.approx(1.0, abs=1e-14)
    assert g.masses.shape == (64,)
    for total in (0.9, 1.0 + 1e-9, math.nan):
        with pytest.raises(ValueError, match="total mass"):
            GridMeasure(dim=1, resolution=4, masses=np.full(4, total / 4))
    GridMeasure(dim=1, resolution=4, masses=np.full(4, (1.0 + 1e-11) / 4))
    for total in (0.9, 1.0 + 1e-11, math.nan):
        with pytest.raises(ValueError, match="total mass"):
            DiscreteMeasure(points=np.array([[0.1], [0.6]]),
                            weights=np.full(2, total / 2),
                            domain=torus_domain(1))
    DiscreteMeasure(points=np.array([[0.1], [0.6]]),
                    weights=np.array([0.5, 0.5 + 1e-13]),
                    domain=torus_domain(1))
    with pytest.raises(ValueError, match="total mass"):
        DiscreteMeasure.from_alphabet_weights([0.5, 0.6])


def test_from_density_values_normalises_by_the_total_mass():
    values = 1.0 + 0.4 * np.cos(2 * np.pi * np.arange(24) / 24)
    g = GridMeasure.from_density_values(values)
    assert np.array_equal(
        g.masses, values / float((values * (1 / 24)).sum()) * (1 / 24))
    with pytest.raises(ValueError, match="zero measure"):
        GridMeasure.from_density_values(np.zeros(4))


def test_cell_index_puts_left_edges_in_their_cell():
    # flooring j/k / (1/k) lands one cell low on 3,615 of these points
    for k in range(1, 257):
        grid = GridMeasure.uniform(dim=1, resolution=k)
        got = grid.cell_indices(np.arange(k) / k)
        assert np.array_equal(got[:, 0], np.arange(k)), k
    ten = GridMeasure.uniform(dim=1, resolution=10)
    assert ten.cell_indices(0.3).tolist() == [[3]]


def test_cell_index_wraps_the_torus():
    torus = GridMeasure.from_density_values(
        1.0 + np.arange(100.0).reshape(10, 10))
    got = torus.cell_indices(np.array([[1.3, -0.25], [-1e-18, 1.0]]))
    assert got.tolist() == [[3, 7], [0, 0]]
    assert torus.density_at(np.array([1.3, -0.25])) == torus.masses[37] * 100


def test_grid_centers_match_lattice():
    g = GridMeasure.uniform(dim=1, resolution=4)
    assert np.allclose(g.centers().reshape(-1), [0.125, 0.375, 0.625, 0.875])


def test_empirical_weights():
    mu = empirical(np.array([[0.1], [0.4], [0.4]]))
    assert np.allclose(mu.weights, 1.0 / 3.0)
    assert mu.atom_count == 3
    with pytest.raises(ValueError, match="total mass 0"):
        empirical(np.empty((0, 1)))
    with pytest.raises(ValueError, match=r"\[0,1\)"):
        empirical(np.array([[0.1], [1.0]]))


def test_discrete_rejects_point_outside_domain():
    with pytest.raises(ValueError):
        DiscreteMeasure(
            points=np.array([[1.5]]),
            weights=np.array([1.0]),
            domain=torus_domain(1),
        )


def test_save_load_discrete_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    mu = DiscreteMeasure(
        points=rng.random((7, 2)),
        weights=np.full(7, 1.0 / 7.0),
        domain=torus_domain(2),
    )
    path = tmp_path / "atoms.csv"
    save_csv(mu, path)
    back = load_discrete_csv(path)
    assert np.array_equal(back.points, mu.points)
    assert np.array_equal(back.weights, mu.weights)
    with pytest.raises(ValueError, match="torus"):
        save_csv(DiscreteMeasure.from_alphabet_weights([0.5, 0.5]), path)


def test_save_load_grid_roundtrip(tmp_path):
    vals = 1.0 + 0.3 * np.cos(2 * np.pi * np.arange(16) / 16)
    vals = vals / vals.mean()
    g = GridMeasure(dim=1, resolution=16, masses=vals / 16)
    path = tmp_path / "grid.csv"
    save_csv(g, path)
    back = load_grid_csv(path)
    assert back.resolution == 16
    assert np.array_equal(back.masses, g.masses)


def test_load_grid_rejects_non_grid_points(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("coord_0,weight\n0.1,0.5\n0.7,0.5\n", encoding="ascii")
    with pytest.raises(ValueError):
        load_grid_csv(path)


def test_loaders_refuse_a_file_off_mass_and_name_it(tmp_path):
    # cell centres of a 4-cell grid, so both loaders reach the mass check
    path = tmp_path / "short.csv"
    path.write_text("coord_0,weight\n0.125,0.225\n0.375,0.225\n"
                    "0.625,0.225\n0.875,0.225\n", encoding="ascii")
    for load in (load_grid_csv, load_discrete_csv):
        with pytest.raises(ValueError, match="total mass 0.9") as err:
            load(path)
        assert str(err.value).startswith(f"{path}: ")


def test_entropy_of_itself_is_zero():
    w = np.array([0.2, 0.5, 0.3])
    assert entropy(w, w) == pytest.approx(0.0, abs=1e-14)


def test_entropy_matches_closed_form():
    mu0 = np.array([0.25, 0.25, 0.5])
    nu = np.array([0.1, 0.6, 0.3])
    want = relative_entropy(mu0, nu)
    assert entropy(mu0, nu) == pytest.approx(want, abs=1e-14)


def test_entropy_zero_mass_letters_drop_out():
    mu0 = np.array([0.5, 0.25, 0.25])
    nu = np.array([0.0, 0.5, 0.5])
    want = relative_entropy(mu0, nu)
    assert entropy(mu0, nu) == pytest.approx(want, abs=1e-14)


@given(weights_strategy(4), weights_strategy(4))
@settings(max_examples=60, deadline=None)
def test_entropy_nonnegative(mu0_w, nu_w):
    assert entropy(mu0_w, nu_w) >= -1e-12


def _random_masses(rng, rows, k, uncharged):
    """rows probability vectors of k sites, each with its own random set
    of about uncharged * k empty sites."""
    masses = rng.random((rows, k)) * (rng.random((rows, k)) >= uncharged)
    masses[:, 0] += 0.1  # no empty row
    return masses / masses.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("k", [2, 3, 6, 64])
def test_stacked_entropy_rows_equal_the_one_row_call(k):
    rng = np.random.default_rng(k)
    ref = rng.random(k) + 0.05
    ref /= ref.sum()
    stack = _random_masses(rng, 40, k, uncharged=0.4)
    assert len({tuple(row > 0) for row in stack}) > 1  # masks differ
    # rows sharing one mask, in a Fortran-ordered stack
    dense = np.asfortranarray(_random_masses(rng, 40, k, uncharged=0.0))
    assert np.array_equal(entropy(ref, dense),
                          [entropy(ref, row.copy()) for row in dense])
    # a row charging a site of zero reference mass has entropy +inf
    ref[k - 1] = 0.0
    stack[3, k - 1] = max(stack[3, k - 1], 0.01)
    stack[7, k - 1] = 0.0
    stacked = entropy(ref, stack)
    loop = [entropy(ref, row) for row in stack]
    assert all(isinstance(v, float) for v in loop)
    assert np.array_equal(stacked, loop)
    assert stacked[3] == math.inf and math.isfinite(stacked[7])
    # a non-contiguous stack: every other row of a Fortran-ordered copy
    wide = np.asfortranarray(np.concatenate([stack, stack]))[::2]
    assert not wide.flags.c_contiguous
    assert np.array_equal(entropy(ref, wide),
                          [entropy(ref, row.copy()) for row in wide])
    with pytest.raises(ValueError, match="sites"):
        entropy(ref, stack[:, :-1])


def _ties_and_dead_rows():
    a = np.log(np.array([[1.0, 2.0, 2.0, 0.5],
                         [3.0, 3.0, 3.0, 3.0],
                         [1.0, 1.0, 1.0, 1.0]]))
    a[2, :] = -np.inf
    return a


LOGSUMEXP_CASES = [
    # ties at the maximum; one row all -inf
    (_ties_and_dead_rows(), None, None),
    (_ties_and_dead_rows(), 0, None),
    (_ties_and_dead_rows(), 1, None),
    # zero weights, one of them on an infinite entry
    (np.array([[0.3, np.inf, -1.0], [2.0, 2.0, -np.inf]]), 1,
     np.array([[0.5, 0.0, 0.25], [0.0, 1.0, 0.3]])),
    (np.array([[0.3, np.inf, -1.0], [2.0, 2.0, -np.inf]]), None,
     np.array([[0.5, 0.0, 0.25], [0.0, 1.0, 0.3]])),
    # weighted 1-d input, as log_mgf passes it
    (np.array([40.0, -3.5, 40.0, 1e-3, -700.0]), None,
     np.array([0.1, 0.2, 0.3, 0.15, 0.25])),
    # a wide dynamic range along axis 0, as log_theta_grid reduces it
    (-64.0 * np.linspace(-3.0, 3.0, 7)[:, None] ** 2
     + np.linspace(0.0, 1.0, 5)[None, :], 0, None),
    (np.full(4, -np.inf), None, None),
]


@pytest.mark.parametrize("a, axis, b", LOGSUMEXP_CASES)
def test_logsumexp_matches_scipy_bit_for_bit(a, axis, b):
    from scipy.special import logsumexp

    got = _logsumexp(a, axis=axis, b=b)
    want = logsumexp(a, axis=axis, b=b)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("a, axis, b", [
    # two tied maxima, each split off with weight 1 and zeroed in the tail
    (np.array([1.5, -0.25, 1.5, 0.75]), None, None),
    (np.array([[1.5, -0.25, 1.5, 0.75], [0.0, 2.0, 2.0, -3.0]]), 1, None),
    # a zero weight in a weighted row, on the largest entry and elsewhere
    (np.array([[0.5, 3.0, -1.0, 0.5]]), 1, np.array([[0.25, 0.0, 0.5, 0.25]])),
    (np.array([2.0, 2.0, 1.0, -0.5]), None, np.array([0.0, 0.5, 0.5, 0.0])),
])
def test_logsumexp_ties_and_zero_weights_match_scipy(a, axis, b):
    from scipy.special import logsumexp

    got = _logsumexp(a, axis=axis, b=b)
    want = logsumexp(a, axis=axis, b=b)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


def test_logsumexp_matches_scipy_on_random_tables():
    from scipy.special import logsumexp

    rng = np.random.default_rng(0)
    for _ in range(200):
        a = np.round(rng.normal(scale=30.0, size=(4, 6)))
        a[rng.random(a.shape) < 0.2] = -np.inf
        b = rng.random(a.shape) * (rng.random(a.shape) > 0.3)
        for axis in (None, 0, 1):
            for weights in (None, b):
                got = _logsumexp(a, axis=axis, b=weights)
                want = logsumexp(a, axis=axis, b=weights)
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want, equal_nan=True)


def test_logsumexp_refuses_a_negative_weight():
    with pytest.raises(ValueError, match="nonnegative"):
        _logsumexp(np.zeros(3), b=np.array([0.5, -0.25, 0.75]))
    with pytest.raises(ValueError, match="nonnegative"):
        _logsumexp(np.zeros((2, 2)), axis=1, b=np.array([[1.0, 0.0],
                                                         [-1e-300, 1.0]]))


def test_logsumexp_full_reduction_is_a_numpy_scalar():
    value = _logsumexp(np.zeros(2))
    assert isinstance(value, np.float64) and np.ndim(value) == 0
    assert value == np.log(2.0)
    assert _logsumexp(np.full((2, 3), -np.inf)) == -np.inf


def test_log_mgf_matches_direct_sum():
    w = np.array([0.2, 0.3, 0.5])
    theta = np.array([-1.0, 0.5, 2.0])
    want = math.log(sum(wi * math.exp(t) for wi, t in zip(w, theta)))
    assert log_mgf(w, theta) == pytest.approx(want, abs=1e-13)


@given(weights_strategy(3),
       st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=3),
       st.floats(min_value=-3, max_value=3))
@settings(max_examples=60, deadline=None)
def test_log_mgf_constant_shift(w, theta, c):
    theta = np.asarray(theta)
    lhs = log_mgf(w, theta + c)
    rhs = log_mgf(w, theta) + c
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_stacked_log_mgf_rows_equal_the_per_node_loop():
    # cramer-demo's defaults: three atoms, 80 t nodes on (-4.05, 3.95)
    points = np.array([-1.0, 0.0, 2.0])
    mu = np.array([0.2, 0.5, 0.3])
    t_nodes = -4.05 + (np.arange(80) + 0.5) * (8.0 / 80)
    stacked = log_mgf(mu, t_nodes[:, None] * points[None, :])
    assert stacked.shape == (80,)
    loop = [log_mgf(mu, t * points) for t in t_nodes]
    assert all(isinstance(v, float) for v in loop)
    assert np.array_equal(stacked, loop)
    bad = t_nodes[:, None] * points[None, :]
    bad[41, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        log_mgf(mu, bad)


def test_grid_shaped_potential_is_one_potential():
    # a grid-shaped potential is flattened by its caller: its rows are never
    # read as a stack of potentials
    mu = GridMeasure.uniform(dim=2, resolution=3).masses
    theta = np.arange(9.0).reshape(3, 3)
    flat = theta.reshape(-1)
    assert log_mgf(mu, flat[None, :])[0] == log_mgf(mu, flat)
    assert log_mgf(mu, np.stack([flat] * 2)).shape == (2,)
    with pytest.raises(ValueError, match="sites"):
        log_mgf(mu, theta)


def test_alphabet_domain_validation():
    with pytest.raises(ValueError):
        alphabet_domain(0)
    d = alphabet_domain(3)
    assert d.kind == "alphabet" and d.size == 3


def test_grid_measure_rejects_negative_density():
    with pytest.raises(ValueError):
        GridMeasure(dim=1, resolution=4,
                    masses=np.array([0.25, -0.125, 0.25, 0.625]))
