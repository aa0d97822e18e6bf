"""Lattice points and sharply-peaked Gaussian-sum kernels on the unit torus.

For a lattice parameter n there are n^d lattice points p_i (coordinates are
multiples of 1/n, row-major order). The kernel attached to p_i is

    phi_i(x) = sum over integer shifts m of exp(-n |x - p_i - m|^2),

truncated to shifts in {-R..R}^d. Its normalized log is pinched between the
squared torus distance and that distance minus (1/n) log((2R+1)^d), which is
what the rate-error sweep measures.

The shift sum factorises over axes, so ``log_theta_grid`` adds d 1-d
log-sum-exp tables over the distinct coordinates of each axis: O(d (2R+1) n g)
work for n lattice and g grid coordinates per axis, not O((2R+1)^d d n^d g^d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .measures import _logsumexp, grid_points
from .transport import cost_matrix

DEFECT_MAX = 1 << 23  # (centers, grid points) entries per defect array


@dataclass(frozen=True)
class TorusLattice:
    """The n^d lattice points of [0,1)^d, coordinates k/n, row-major."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("lattice needs n >= 1 and d >= 1")

    @property
    def size(self) -> int:
        return self.n ** self.d

    @property
    def points(self) -> np.ndarray:
        return grid_points([np.arange(self.n) / self.n] * self.d)


@dataclass(frozen=True)
class ThetaParams:
    """Sharpness n and truncation radius R of the kernel sums.

    The omitted tail is controlled by exp(-n (R-1)^2) per shifted term;
    ``tail_bound`` records it for every evaluation.
    """

    n: int
    truncation_radius: int = 2

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sharpness n must be >= 1")
        if self.truncation_radius < 1:
            raise ValueError("truncation radius must be >= 1")

    @property
    def tail_bound(self) -> float:
        r = self.truncation_radius
        return float(np.exp(-self.n * (r - 1) ** 2))

    def bracket_width(self, d: int) -> float:
        """(1/n) log((2R+1)^d), the two-sided bracket width of the rates."""
        return d * np.log(2 * self.truncation_radius + 1) / self.n


def log_theta_grid(params: ThetaParams, centers: np.ndarray,
                   points: np.ndarray) -> np.ndarray:
    """log phi matrix: rows over kernel centers, columns over points.

    Sums over the axes a the 1-d log sum_{|m|<=R} exp(-n (x_a - p_a - m)^2),
    tabled on that axis's distinct coordinates. Log-sum-exp keeps the result
    finite and deterministic even when the raw sums underflow.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    r = params.truncation_radius
    shifts = np.arange(-r, r + 1, dtype=float)
    out = np.zeros((len(centers), len(points)))
    for axis in range(centers.shape[1]):
        cu, ci = np.unique(centers[:, axis], return_inverse=True)
        pu, pi = np.unique(points[:, axis], return_inverse=True)
        # s[o, a, b] = x_b - p_a - m_o along this axis
        s = (pu[None, None, :] - cu[None, :, None]) - shifts[:, None, None]
        table = _logsumexp(-params.n * (s * s), axis=0)
        out += table[ci[:, None], pi[None, :]]
    return out


def theta_rate_error(params: ThetaParams, lattice: TorusLattice,
                     grid_resolution: int) -> Tuple[float, float]:
    """(max signed, max absolute) defect over a grid of x and all centers.

    The defect is -(1/n) log phi_i(x) - d(p_i, x)^2. It never exceeds
    rounding above zero (the log never exceeds the squared distance), and
    its magnitude is bounded by (1/n) log((2R+1)^d) plus the truncation
    tail. The squared distance adds per-axis ``cost_matrix`` tables over
    the distinct coordinates, as ``log_theta_grid`` adds per-axis log
    tables, so only (centers, grid points) arrays are built, at most
    DEFECT_MAX entries.
    """
    if lattice.d > 2:
        raise ValueError("rate sweep supports dimensions 1 and 2")
    if lattice.size * grid_resolution ** lattice.d > DEFECT_MAX:
        raise ValueError(
            "defect grid too large; lower grid resolution or the lattice n")
    grid = grid_points([np.arange(grid_resolution) / grid_resolution]
                       * lattice.d)
    centers = lattice.points
    defect = log_theta_grid(params, centers, grid)
    np.negative(defect, out=defect)
    defect /= params.n
    sq = np.zeros_like(defect)
    for axis in range(lattice.d):
        cu, ci = np.unique(centers[:, axis], return_inverse=True)
        gu, gi = np.unique(grid[:, axis], return_inverse=True)
        table = cost_matrix(cu[:, None], gu[:, None], "sqdist_torus")
        sq += table[ci[:, None], gi[None, :]]
    defect -= sq
    top, bottom = float(defect.max()), float(defect.min())
    return top, max(top, -bottom)
