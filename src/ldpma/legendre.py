"""Discrete Legendre conjugates on grids and the entropy duality check.

Contents:

- ``GridFunction``: finite scalar samples on a regular grid.
- ``legendre_transform``: conjugate f*(y) = max over nodes of <x,y> - f(x)
  of a 1-d function, direct scan onto a dual grid.
- ``conjugate_at``: the same scan evaluated at arbitrary dual points.
- ``ent_dual_check``: relative entropy against the supremum of
  <theta, nu> - log integral exp(theta) d mu0 over a refined theta grid.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .measures import DiscreteMeasure, _logsumexp, entropy, grid_points

MAX_DIM = 2


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Scalar function sampled at the cell centers of a regular grid.

    Parameters
    ----------
    dim : int
        1 or 2.
    resolution : int
        Nodes per axis, >= 2.
    values : np.ndarray
        Shape (resolution,) * dim, every entry finite.
    kind : str
        ``"torus"`` (the default) or ``"box"``; torus nodes are
        (i + 0.5)/resolution.
    bounds : tuple of (float, float)
        Per-axis intervals for boxes.
    """

    dim: int
    resolution: int
    values: np.ndarray
    kind: str = "torus"
    bounds: tuple = ()

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
        bounds = self.bounds
        if self.kind == "torus":
            bounds = tuple((0.0, 1.0) for _ in range(self.dim))
        elif self.kind == "box":
            bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
            if len(bounds) != self.dim:
                raise ValueError("box grid needs one (lo, hi) pair per axis")
        else:
            raise ValueError("kind must be 'box' or 'torus'")
        object.__setattr__(self, "bounds", bounds)

    # ---- geometry ----

    def axis_nodes(self, axis: int) -> np.ndarray:
        lo, hi = self.bounds[axis]
        step = (hi - lo) / self.resolution
        return lo + (np.arange(self.resolution) + 0.5) * step

    def nodes(self) -> np.ndarray:
        return grid_points([self.axis_nodes(a) for a in range(self.dim)])

    def step(self, axis: int = 0) -> float:
        lo, hi = self.bounds[axis]
        return (hi - lo) / self.resolution

    # ---- values ----

    def shifted(self, constant: float) -> "GridFunction":
        return dataclasses.replace(self, values=self.values + constant)


# ---------------------------------------------------------------------------
# Conjugation
# ---------------------------------------------------------------------------


def conjugate_at(f: GridFunction, points: np.ndarray) -> np.ndarray:
    """max over nodes of <x, y> - f(x), for each query row y.

    The scan is the correctness oracle for :func:`legendre_transform`.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != f.dim:
        raise ValueError("query points have the wrong dimension")
    nodes = f.nodes()
    neg_f = -f.values.reshape(-1)
    out = np.empty(len(points))
    chunk = max(1, 2 ** 22 // max(len(nodes), 1))
    for start in range(0, len(points), chunk):
        block = points[start:start + chunk]
        pairings = block @ nodes.T  # (q, nodes)
        out[start:start + chunk] = np.max(pairings + neg_f[None, :], axis=1)
    return out


def interpolate_at(f: GridFunction, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of torus grid values at arbitrary points.

    Exact at grid nodes; queries wrap around the torus. Box grids are
    refused.
    """
    if f.kind != "torus":
        raise ValueError("interpolate_at needs a torus grid")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != f.dim:
        raise ValueError("query points have the wrong dimension")
    k = f.resolution
    step = f.step(0)  # the same on every torus axis
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


def legendre_transform(f: GridFunction, dual_bounds: tuple,
                       dual_resolution: int) -> GridFunction:
    """Discrete conjugate of a 1-d ``f`` on a box grid of dual points.

    f*(y_j) = max over grid nodes x_i of <x_i, y_j> - f(x_i).
    """
    if f.dim != 1:
        raise ValueError("legendre_transform is 1-d; use conjugate_at")
    dual = GridFunction(dim=1, resolution=dual_resolution,
                        values=np.zeros(dual_resolution),
                        kind="box", bounds=dual_bounds)
    scores = (np.outer(dual.axis_nodes(0), f.axis_nodes(0))
              - f.values[None, :])
    return dataclasses.replace(dual, values=np.max(scores, axis=1))


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
    log_mu0 = np.log(mu0.weights)
    nu_w = nu.weights

    def pairing(thetas: np.ndarray) -> np.ndarray:
        return thetas @ nu_w - _logsumexp(thetas + log_mu0, axis=1)

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
