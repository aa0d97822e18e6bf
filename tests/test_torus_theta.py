"""Lattice geometry and the periodized Gaussian kernel."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from ldpma.torus_theta import (
    DEFECT_MAX,
    ThetaParams,
    TorusLattice,
    log_theta_grid,
    theta_rate_error,
)
from ldpma.transport import cost_matrix

from oracles import theta_kernel_naive, theta_kernel_naive_nd


def test_lattice_points_row_major():
    lat = TorusLattice(n=2, d=2)
    want = np.array([[0.0, 0.0], [0.0, 0.5], [0.5, 0.0], [0.5, 0.5]])
    assert np.array_equal(lat.points, want)
    assert lat.size == 4


def test_lattice_validation():
    with pytest.raises(ValueError):
        TorusLattice(n=0, d=1)


def test_kernel_matches_direct_periodization():
    params = ThetaParams(n=6, truncation_radius=2)
    centers = np.array([[0.0], [1.0 / 6.0]])
    xs = np.linspace(0.0, 1.0, 17)[:-1][:, None]
    logs = log_theta_grid(params, centers, xs)
    for i, c in enumerate(centers[:, 0]):
        for j, x in enumerate(xs[:, 0]):
            want = theta_kernel_naive(6, float(c), float(x), radius=12)
            got = np.exp(logs[i, j])
            # truncation at radius 2 loses at most the tail bound
            assert got == pytest.approx(want, abs=2.0 * params.tail_bound)


def test_kernel_2d_matches_joint_shift_sum():
    rng = np.random.default_rng(31)
    # off-grid cases, then lattice centres on a grid, whose coordinates
    # repeat along each axis
    mesh = np.meshgrid(np.arange(6) / 6.0, np.arange(6) / 6.0, indexing="ij")
    grid = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    cases = [(n, radius, rng.random((7, 2)), rng.random((9, 2)))
             for n, radius in ((3, 1), (6, 2), (11, 3))]
    cases.append((4, 2, TorusLattice(n=4, d=2).points, grid))
    for n, radius, centers, xs in cases:
        params = ThetaParams(n=n, truncation_radius=radius)
        logs = log_theta_grid(params, centers, xs)
        for i, c in enumerate(centers):
            for j, x in enumerate(xs):
                want = np.log(theta_kernel_naive_nd(n, c, x, radius=radius))
                assert abs(logs[i, j] - want) <= 1e-13


def test_kernel_1d_bit_identical_to_joint_exponent_array():
    rng = np.random.default_rng(32)
    params = ThetaParams(n=16, truncation_radius=2)
    lattice = TorusLattice(n=16, d=1)
    for points in (np.arange(128)[:, None] / 128.0, rng.random((40, 1))):
        # the joint (shifts, centers, points) exponent array, reduced once
        diff = points[None, :, :] - lattice.points[:, None, :]
        offsets = np.arange(-2, 3, dtype=float)[:, None]
        exps = np.empty((len(offsets), lattice.size, len(points)))
        for o, m in enumerate(offsets):
            shifted = diff - m[None, None, :]
            exps[o] = -params.n * np.sum(shifted * shifted, axis=2)
        want = logsumexp(exps, axis=0)
        assert np.array_equal(log_theta_grid(params, lattice.points, points),
                              want)


@given(st.integers(min_value=2, max_value=24),
       st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_kernel_log_never_exceeds_negative_sqdist(n, x):
    params = ThetaParams(n=n)
    logs = log_theta_grid(params, np.array([[0.0]]), np.array([[x]]))
    d = min(x, 1.0 - x)
    # phi >= the nearest-image Gaussian alone
    assert logs[0, 0] >= -n * d * d - 1e-12


def test_rate_error_within_bracket_and_shrinks():
    errors = []
    for n in (4, 8, 16):
        params = ThetaParams(n=n, truncation_radius=2)
        lattice = TorusLattice(n=n, d=1)
        signed, err = theta_rate_error(params, lattice, 128)
        assert signed <= 1e-12
        assert err <= params.bracket_width(1) + 1e-9
        errors.append(err)
    assert errors[0] > errors[1] > errors[2]


def test_rate_error_two_dimensional():
    params = ThetaParams(n=4, truncation_radius=2)
    lattice = TorusLattice(n=4, d=2)
    _, err = theta_rate_error(params, lattice, 24)
    assert 0.0 <= err <= params.bracket_width(2) + 1e-9


def test_theta_params_validation():
    with pytest.raises(ValueError):
        ThetaParams(n=0)
    with pytest.raises(ValueError):
        ThetaParams(n=4, truncation_radius=0)


def test_bracket_width_scales_with_dimension():
    params = ThetaParams(n=10, truncation_radius=2)
    assert params.bracket_width(2) == pytest.approx(
        2.0 * params.bracket_width(1), abs=1e-15)


def _torus_grid_2d(resolution):
    axis = np.arange(resolution) / resolution
    return np.stack([m.reshape(-1) for m in np.meshgrid(axis, axis,
                                                        indexing="ij")],
                    axis=-1)


def _direct_defect(params, centers, points):
    return (-log_theta_grid(params, centers, points) / params.n
            - cost_matrix(centers, points, "sqdist_torus"))


def test_defect_sweep_budget_counts_the_arrays_it_builds():
    # n = 32, d = 2 on a 40-grid: the per-axis extremes equal those of the
    # directly built (1024, 1600) defect
    params, lattice = ThetaParams(n=32), TorusLattice(n=32, d=2)
    signed, sup = theta_rate_error(params, lattice, 40)
    assert signed <= 1e-12
    defect = _direct_defect(params, lattice.points, _torus_grid_2d(40))
    assert (signed, sup) == (defect.max(), np.abs(defect).max())
    # the 160-grid needs no (centers, grid points) array: 1024 x 25600
    # pairs, past the old cap on that array, are a (5, 32, 160) table
    signed, sup = theta_rate_error(params, lattice, 160)
    assert signed <= 1e-12 and sup <= params.bracket_width(2) + 1e-9
    # the cap counts (2R+1) n g entries of the 1-d table
    too_fine = DEFECT_MAX // (5 * 32) + 1
    with pytest.raises(ValueError, match="defect grid too large"):
        theta_rate_error(params, lattice, too_fine)


def test_defect_extremes_at_the_frontier():
    # n = 64, d = 2 on a 1024-grid: 4096 x 1048576 (center, point) pairs
    params, lattice, g = ThetaParams(n=64), TorusLattice(n=64, d=2), 1024
    tracemalloc.start()
    try:
        signed, sup = theta_rate_error(params, lattice, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert signed <= 1e-12 and sup <= params.bracket_width(2) + 1e-9

    # no sampled pair lies beyond the returned extremes
    rng = np.random.default_rng(64)
    centers = lattice.points[rng.integers(lattice.size, size=200)]
    points = rng.integers(g, size=(300, 2)) / g
    defect = _direct_defect(params, centers, points)
    assert defect.max() <= signed and -defect.min() <= sup

    # the pairs built from the 1-d table's extreme pairs attain them
    coords = np.arange(64)[:, None] / 64
    axis = np.arange(g)[:, None] / g
    table = _direct_defect(params, coords, axis)
    top = np.unravel_index(np.argmax(table), table.shape)
    low = np.unravel_index(np.argmin(table), table.shape)
    at = [_direct_defect(params, coords[[i, i]].reshape(1, 2),
                         axis[[j, j]].reshape(1, 2))[0, 0]
          for i, j in (top, low)]
    assert at[0] == signed
    assert max(at[0], -at[1]) == sup
