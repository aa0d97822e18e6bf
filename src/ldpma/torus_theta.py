"""Lattice points and sharply-peaked Gaussian-sum kernels on the unit torus.

For a lattice parameter n there are n^d lattice points p_i (coordinates are
multiples of 1/n, row-major order). The kernel attached to p_i is

    phi_i(x) = sum over integer shifts m of exp(-n |x - p_i - m|^2),

truncated to shifts in {-R..R}^d. Its normalized log is pinched between the
squared torus distance and that distance minus (1/n) log((2R+1)^d), which is
what the rate-error sweep measures. The sweep's defect adds one 1-d table
over the axes, so it reads that table's extremes: O((2R+1) n g) memory per
sweep in every dimension, never a (centers, grid points) array.

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

DEFECT_MAX = 1 << 23  # (shifts, lattice, grid) entries of the 1-d defect table


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
    tail. Both terms add over axes, and centers and grid are both full
    products of one coordinate set per axis, so defect(p_i, x) adds
    E(p_ia, x_a) over the axes a, E the one 1-d table over (lattice
    coordinate, grid coordinate). Its extremes are d times those of E,
    attained where every axis takes E's extreme pair (doubling is exact,
    so d = 2 matches the direct sum there). Only the (2R+1, n, grid)
    exponent array behind E is built, at most DEFECT_MAX entries.
    """
    if ((2 * params.truncation_radius + 1) * lattice.n * grid_resolution
            > DEFECT_MAX):
        raise ValueError(
            "defect grid too large; lower grid resolution or the lattice n")
    coords = (np.arange(lattice.n) / lattice.n)[:, None]
    grid = (np.arange(grid_resolution) / grid_resolution)[:, None]
    table = log_theta_grid(params, coords, grid)
    np.negative(table, out=table)
    table /= params.n
    table -= cost_matrix(coords, grid, "sqdist_torus")
    top, bottom = lattice.d * float(table.max()), lattice.d * float(table.min())
    return top, max(top, -bottom)
