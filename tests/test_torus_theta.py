"""Lattice geometry and the periodized Gaussian kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from ldpma.torus_theta import (
    ThetaParams,
    TorusLattice,
    log_phi_matrix,
    log_theta_grid,
    theta_rate_error,
)
from ldpma.measures import EmpiricalConfig

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
        err = theta_rate_error(params, lattice, 128)
        assert err <= params.bracket_width(1) + 1e-9
        errors.append(err)
    assert errors[0] > errors[1] > errors[2]


def test_rate_error_two_dimensional():
    params = ThetaParams(n=4, truncation_radius=2)
    lattice = TorusLattice(n=4, d=2)
    err = theta_rate_error(params, lattice, 24)
    assert 0.0 <= err <= params.bracket_width(2) + 1e-9


def test_log_phi_matrix_shape_and_translation():
    params = ThetaParams(n=4)
    lattice = TorusLattice(n=4, d=1)
    pts = np.array([[0.1], [0.35], [0.6], [0.85]])
    logs = log_phi_matrix(lattice, params, EmpiricalConfig(points=pts))
    assert logs.shape == (4, 4)
    # shifting particles by one lattice step permutes the center axis
    shifted = log_phi_matrix(
        lattice, params, EmpiricalConfig(points=(pts + 0.25) % 1.0))
    assert np.allclose(np.roll(logs, 1, axis=0), shifted, atol=1e-12)


def test_theta_params_validation():
    with pytest.raises(ValueError):
        ThetaParams(n=0)
    with pytest.raises(ValueError):
        ThetaParams(n=4, truncation_radius=0)


def test_bracket_width_scales_with_dimension():
    params = ThetaParams(n=10, truncation_radius=2)
    assert params.bracket_width(2) == pytest.approx(
        2.0 * params.bracket_width(1), abs=1e-15)


def test_defect_sweep_budget_counts_the_arrays_it_builds():
    from ldpma.experiments import _theta_defect_extremes

    # n = 32, d = 2 on a 40-grid: 1600 x 1024 x 2 differences, which the
    # old count of (2R+1)^d shift copies put past the cap
    params, lattice = ThetaParams(n=32), TorusLattice(n=32, d=2)
    signed, sup = _theta_defect_extremes(params, lattice, 40)
    assert signed <= 1e-12
    assert sup == pytest.approx(theta_rate_error(params, lattice, 40),
                                abs=1e-13)
    with pytest.raises(ValueError, match="defect grid too large"):
        _theta_defect_extremes(params, lattice, 160)
