"""Discrete Legendre conjugates on grids and the entropy duality check.

Contents:

- ``GridFunction``: finite scalar samples at the cell centres of the
  unit torus.
- ``conjugate_at``: the discrete conjugate f*(y) = max over nodes x of
  <x, y> - f(x), one scan of node and value arrays at arbitrary dual
  points.
- ``interpolate_at``: multilinear interpolation of a ``GridFunction``.
- ``ent_dual_check``: relative entropy against the supremum of
  <theta, nu> - log integral exp(theta) d mu0 over a refined theta grid.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .measures import (DiscreteMeasure, cell_nodes, entropy, grid_points,
                       log_mgf)

MAX_DIM = 2


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Scalar function sampled at the cell centres (i + 0.5) / resolution
    of the unit torus [0, 1)^dim.

    Parameters
    ----------
    dim : int
        1 or 2.
    resolution : int
        Nodes per axis, >= 2.
    values : np.ndarray
        Shape (resolution,) * dim, every entry finite.
    """

    dim: int
    resolution: int
    values: np.ndarray

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"supported up to dimension {MAX_DIM}")
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2 per axis")
        values = np.array(self.values, dtype=float)
        expected = (self.resolution,) * self.dim
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} != {expected}")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", values)

    def nodes(self) -> np.ndarray:
        """All nodes, shape (resolution**dim, dim), row-major order."""
        return grid_points([cell_nodes(0.0, 1.0, self.resolution)] * self.dim)

    def shifted(self, constant: float) -> "GridFunction":
        return dataclasses.replace(self, values=self.values + constant)


# ---------------------------------------------------------------------------
# Conjugation
# ---------------------------------------------------------------------------


def conjugate_at(nodes: np.ndarray, values: np.ndarray,
                 points: np.ndarray) -> np.ndarray:
    """max over the (n, d) ``nodes`` x of <x, y> - f(x), for each row y of
    the (q, d) ``points``, where ``values`` holds the n values f(x) in the
    order of the nodes."""
    nodes = np.asarray(nodes, dtype=float)
    neg_f = -np.asarray(values, dtype=float).reshape(-1)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != nodes.shape[1]:
        raise ValueError("query points have the wrong dimension")
    out = np.empty(len(points))
    chunk = max(1, 2 ** 22 // max(len(nodes), 1))
    for start in range(0, len(points), chunk):
        block = points[start:start + chunk]
        pairings = block @ nodes.T  # (q, nodes)
        out[start:start + chunk] = np.max(pairings + neg_f[None, :], axis=1)
    return out


def interpolate_at(f: GridFunction, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of grid values at arbitrary points.

    Exact at grid nodes; queries wrap around the torus.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != f.dim:
        raise ValueError("query points have the wrong dimension")
    k = f.resolution
    step = 1.0 / k
    t = (points - 0.5 * step) / step
    low = np.floor(t).astype(np.int64)
    frac = t - low

    out = np.zeros(len(points))
    for corner in itertools.product((0, 1), repeat=f.dim):
        weight = np.ones(len(points))
        for a, bit in enumerate(corner):
            weight = weight * (frac[:, a] if bit else (1.0 - frac[:, a]))
        idx = np.mod(low + np.array(corner), k)
        out += weight * f.values[tuple(idx.T)]
    return out


# ---------------------------------------------------------------------------
# Entropy / log-MGF duality on finite alphabets
# ---------------------------------------------------------------------------


ENT_DUAL_MAX_CANDIDATES = 9 ** 6


def ent_dual_check(mu0: DiscreteMeasure,
                   nu: DiscreteMeasure) -> Tuple[float, float]:
    """Relative entropy vs the dual supremum on a refined theta grid.

    Returns ``(entropy, grid_sup)`` where grid_sup is the maximum of
    <theta, nu> - log integral exp(theta) d mu0 over a shrinking lattice of
    potentials theta (gauge-fixed so the last coordinate is 0; the pairing
    is shift invariant): 8 rounds, the first of half-width 8, each a
    quarter as wide as the last. Each round scores its 9^(k-1) candidates
    in one batch; more than ``ENT_DUAL_MAX_CANDIDATES`` (k > 7) is
    refused. When nu is strictly positive, the closed-form maximizer theta
    = log(nu / mu0) is also evaluated and must attain the entropy to within
    1e-12, else this raises.
    """
    if mu0.domain.kind != "alphabet" or nu.domain.kind != "alphabet":
        raise ValueError("duality check runs on finite alphabets")
    if mu0.domain != nu.domain or not np.array_equal(mu0.points, nu.points):
        raise ValueError("mu0 and nu live on different alphabets")
    k = mu0.domain.size
    count = 9 ** (k - 1)
    if count > ENT_DUAL_MAX_CANDIDATES:
        raise ValueError(f"{k}-letter alphabet needs {count} candidates per "
                         f"round, more than {ENT_DUAL_MAX_CANDIDATES}")
    if np.any(mu0.weights <= 0):
        raise ValueError("reference measure must be strictly positive")

    ent = entropy(mu0.weights, nu.weights)
    nu_w = nu.weights

    def pairing(thetas: np.ndarray) -> np.ndarray:
        return thetas @ nu_w - log_mgf(mu0.weights, thetas)

    if np.all(nu_w > 0):
        closed = np.log(nu_w / mu0.weights)
        attained = float(pairing(closed[None, :])[0])
        if abs(attained - ent) > 1e-12:
            raise RuntimeError(
                f"closed-form maximizer off by {attained - ent!r}"
            )

    if k == 1:
        return ent, 0.0

    # the gauge coordinate's offsets are 0, so every candidate keeps it at 0
    center = np.zeros(k)
    width = 8.0
    best = float(pairing(center[None, :])[0])
    offsets = np.array([o + (0,) for o in itertools.product(
        range(-4, 5), repeat=k - 1)], dtype=float) / 4.0
    for _ in range(8):
        candidates = center[None, :] + width * offsets
        values = pairing(candidates)
        at = int(np.argmax(values))
        if values[at] > best:
            best = float(values[at])
            center = candidates[at]
        width /= 4.0
    return ent, best
