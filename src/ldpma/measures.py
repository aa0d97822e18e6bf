"""Measure types and the basic functionals built on them.

This module provides:

- ``Domain``: where a measure lives (unit torus or finite alphabet).
- ``DiscreteMeasure``: weighted atoms; carries empirical measures and
  Gibbs marginals.
- ``cell_nodes``: the cell centres of a regular grid on an interval.
- ``GridMeasure``: a density on the regular grid of cells that tiles the
  unit torus; carries reference densities and transport-operator images.
- ``EmpiricalConfig``: an ordered particle configuration.
- ``empirical``: the configuration -> uniform-atom measure map.
- ``entropy``: relative entropy of masses against reference masses.
- ``log_mgf``: log of the exponential integral of a potential against
  masses.

The two functionals take mass arrays, as every caller already holds them
(``GridMeasure.masses()``, ``DiscreteMeasure.weights``), and each takes a
(T, sites) stack as well as one row: a row's value equals its one-row
call bit for bit, so a certificate may evaluate all its rows at once.
``entropy`` makes one full-width pass over the stack, whichever sites
each row charges.

All values are immutable after construction and safe to share between
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Cells whose reference density does not exceed this are treated as null
# sets when testing absolute continuity.
NULL_DENSITY = 1e-15

PROBABILITY_TOL_DISCRETE = 1e-12
PROBABILITY_TOL_GRID = 1e-10


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """Where a measure's atoms or cells live.

    Parameters
    ----------
    kind : str
        ``"torus"`` (unit torus, coordinates in [0,1) per axis) or
        ``"alphabet"`` (finite symbol set, atoms are integer indices).
    dim : int
        Spatial dimension; 1 for alphabets.
    size : int, optional
        Alphabet cardinality for ``"alphabet"``; ignored otherwise.
    """

    kind: str
    dim: int
    size: int = 0

    def __post_init__(self):
        if self.kind not in ("torus", "alphabet"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind == "alphabet" and self.size < 1:
            raise ValueError("alphabet domain needs size >= 1")


def torus_domain(dim: int) -> Domain:
    return Domain(kind="torus", dim=dim)


def alphabet_domain(size: int) -> Domain:
    return Domain(kind="alphabet", dim=1, size=int(size))


# ---------------------------------------------------------------------------
# Discrete measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely many weighted atoms on a domain.

    Parameters
    ----------
    points : np.ndarray
        Shape (N, d) float array of atom locations for spatial domains, or
        shape (N,) integer array of symbol indices for alphabets. Coincident
        atoms are legal and are kept distinct.
    weights : np.ndarray
        Shape (N,) nonnegative weights.
    domain : Domain
    is_probability : bool
        When True the weights must sum to 1 within 1e-12.
    """

    points: np.ndarray
    weights: np.ndarray
    domain: Domain
    is_probability: bool = True

    def __post_init__(self):
        points = np.asarray(self.points)
        weights = np.asarray(self.weights, dtype=float)
        if self.domain.kind == "alphabet":
            points = points.astype(np.int64).reshape(-1)
        else:
            points = np.atleast_2d(np.asarray(points, dtype=float))
            if points.shape[1] != self.domain.dim:
                raise ValueError(
                    f"atoms have dimension {points.shape[1]}, "
                    f"domain has {self.domain.dim}"
                )
        if weights.ndim != 1 or len(weights) != len(points):
            raise ValueError("weights must be a vector matching the atom count")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if self.domain.kind == "torus":
            if np.any(points < 0.0) or np.any(points >= 1.0):
                raise ValueError("torus atoms must lie in [0,1) per axis")
        else:
            if np.any(points < 0) or np.any(points >= self.domain.size):
                raise ValueError("alphabet atoms must be valid symbol indices")
        if self.is_probability:
            total = float(np.sum(weights))
            if abs(total - 1.0) > PROBABILITY_TOL_DISCRETE:
                raise ValueError(
                    f"probability measure has total weight {total!r}"
                )

    # ---- constructors ----

    @staticmethod
    def from_alphabet_weights(weights: Sequence[float]) -> "DiscreteMeasure":
        """Probability measure on the full alphabet 0..k-1 with the given
        weights."""
        w = np.asarray(weights, dtype=float)
        return DiscreteMeasure(points=np.arange(len(w)), weights=w,
                               domain=alphabet_domain(len(w)))

    # ---- accessors ----

    @property
    def atom_count(self) -> int:
        return len(self.weights)

    def total_mass(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True, eq=False)
class EmpiricalConfig:
    """An ordered tuple of N particle positions on the unit torus.

    Parameters
    ----------
    points : np.ndarray
        Shape (N, d). Must be nonempty and inside [0,1)^d.
    """

    points: np.ndarray

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if points.size == 0:
            raise ValueError("empty configuration")
        object.__setattr__(self, "points", points)
        if np.any(points < 0.0) or np.any(points >= 1.0):
            raise ValueError("configuration points must lie in [0,1)^d")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def empirical(config: EmpiricalConfig) -> DiscreteMeasure:
    """Uniform-atom measure of a configuration: weight 1/N at each point.

    Coincident points remain distinct atoms of weight 1/N each.
    """
    n = config.size
    return DiscreteMeasure(
        points=config.points.copy(),
        weights=np.full(n, 1.0 / n),
        domain=torus_domain(config.dim),
        is_probability=True,
    )


# ---------------------------------------------------------------------------
# Grid measures
# ---------------------------------------------------------------------------


def cell_nodes(lo: float, hi: float, k: int) -> np.ndarray:
    """Centres of the k equal cells of [lo, hi]."""
    return lo + (np.arange(k) + 0.5) * ((hi - lo) / k)


def grid_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Every point of the product of per-axis coordinates, row-major.

    Shape (product of the axis lengths, number of axes); the last axis
    varies fastest.
    """
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


@dataclass(frozen=True, eq=False)
class GridMeasure:
    """A density on the regular grid of cells tiling the torus [0,1)^dim.

    The mass of a cell is density * cell volume; quadrature is the cell
    midpoint rule throughout.

    Parameters
    ----------
    dim : int
    resolution : int
        Cells per axis.
    density : np.ndarray
        Shape (resolution,) * dim, nonnegative.
    is_probability : bool
        When True the total mass must be 1 within 1e-10.
    """

    dim: int
    resolution: int
    density: np.ndarray
    is_probability: bool = True

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")
        density = np.asarray(self.density, dtype=float)
        expected = (self.resolution,) * self.dim
        if density.shape != expected:
            raise ValueError(f"density shape {density.shape} != {expected}")
        if (density < 0).any():
            raise ValueError("density must be nonnegative")
        object.__setattr__(self, "density", density)
        if self.is_probability:
            total = self.total_mass()
            if abs(total - 1.0) > PROBABILITY_TOL_GRID:
                raise ValueError(f"probability grid measure has mass {total!r}")

    # ---- constructors ----

    @staticmethod
    def uniform(dim: int, resolution: int) -> "GridMeasure":
        return GridMeasure(dim=dim, resolution=resolution,
                           density=np.full((resolution,) * dim, 1.0))

    @staticmethod
    def from_density_values(values: np.ndarray) -> "GridMeasure":
        """Build a probability grid measure from raw nonnegative values."""
        values = np.asarray(values, dtype=float)
        dim = values.ndim
        resolution = values.shape[0]
        measure = GridMeasure(dim=dim, resolution=resolution, density=values,
                              is_probability=False)
        total = measure.total_mass()
        if total <= 0:
            raise ValueError("cannot normalize a zero measure")
        return GridMeasure(dim=dim, resolution=resolution,
                           density=values / total)

    # ---- geometry ----

    def cell_volume(self) -> float:
        return math.prod([1.0 / self.resolution] * self.dim)

    def centers(self) -> np.ndarray:
        """All cell centers, shape (resolution**dim, dim), row-major order."""
        return grid_points([cell_nodes(0.0, 1.0, self.resolution)] * self.dim)

    # ---- mass ----

    def masses(self) -> np.ndarray:
        """Cell masses in row-major order (density times cell volume)."""
        return self.density.reshape(-1) * self.cell_volume()

    def total_mass(self) -> float:
        return float(self.masses().sum())

    def cell_indices(self, points: np.ndarray) -> np.ndarray:
        """(n, dim) cell multi-indices of n points, wrapped onto the torus.

        Coordinates are searched against the float cell edges, so a point
        on a left edge j / resolution lands in cell j; flooring x / step
        can land one cell low.
        """
        points = np.asarray(points, dtype=float).reshape(-1, self.dim)
        k = self.resolution
        edges = np.arange(k + 1) / k
        return (np.searchsorted(edges, points % 1.0, side="right") - 1) % k

    def cell_index(self, point: np.ndarray) -> tuple:
        """Multi-index of the cell containing a point; the torus wraps."""
        return tuple(int(i) for i in self.cell_indices(point)[0])

    def density_at(self, point: np.ndarray) -> float:
        return float(self.density[self.cell_index(point)])


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


def _site_rows(values, sites: int) -> np.ndarray:
    """A (T, sites) float view of one per-site vector or a stack of them."""
    rows = np.atleast_2d(np.asarray(values, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != sites:
        raise ValueError(f"values of shape {np.shape(values)} do not match "
                         f"{sites} sites")
    return rows


def entropy(ref, masses):
    """Relative entropy of cell or atom masses against reference masses.

    ``masses`` is one (sites,) vector, giving a float, or a (T, sites)
    stack, giving T values. A row's value is the sum of m * log(m / ref)
    over the sites it charges when the reference exceeds 1e-15 at each of
    them, and +inf otherwise; nonnegative for probability pairs, zero only
    at masses == ref. The terms are written into a C-ordered array of the
    stack's full width, zero at the sites a row does not charge, and each
    row is summed along its own row, so a row's value does not depend on
    its stack.
    """
    ref = np.asarray(ref, dtype=float).reshape(-1)
    stack = _site_rows(masses, len(ref))
    charged = stack > 0.0
    live = charged & (ref > NULL_DENSITY)
    terms = np.zeros(stack.shape)
    np.divide(stack, ref, out=terms, where=live)
    np.log(terms, out=terms, where=live)
    np.multiply(stack, terms, out=terms, where=live)
    out = terms.sum(axis=1)
    out[(charged != live).any(axis=1)] = math.inf
    return float(out[0]) if np.ndim(masses) < 2 else out


def _logsumexp(a, axis=None, b=None):
    """log(sum(b * exp(a))) over ``axis`` for float64 input and nonnegative
    weights ``b`` (a negative weight raises ValueError).

    Follows the real-input algorithm of ``scipy.special.logsumexp`` (1.17)
    step by step, so the two agree bit for bit. The maxima are split off
    for precision: with m their total weight and s the weighted sum of
    exp(a - max) over the rest, the result is log1p(s/m) + log m + max; with
    no negative weight neither s + 1 nor m is negative, so scipy's sign
    handling never fires and is left out. An entry of zero weight adds
    nothing, even where ``a`` is infinite. Only where that result is not
    finite (an all -inf slice, say) is the direct log of the sum computed,
    from the original ``a``, and it stands there. One exp pass gives s, its
    entries at the maxima zeroed in place; errstate is entered only where a
    maximum or the result is not finite (elsewhere only overflow at the ends
    of the float range warns, as in scipy). The reduced axes are dropped; a
    full reduction returns a numpy scalar.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    shifted = a
    if b is not None:
        b = np.asarray(b, dtype=float)
        if (b < 0.0).any():
            raise ValueError("logsumexp weights must be nonnegative")
        shifted = np.where(b == 0, -np.inf, a)
    a_max = shifted.max(axis=axis, keepdims=True)
    with (contextlib.nullcontext() if np.isfinite(a_max).all() else
          np.errstate(divide="ignore", invalid="ignore", over="ignore")):
        at_max = shifted == a_max
        weights = at_max if b is None else b * at_max
        m = weights.sum(axis=axis, keepdims=True, dtype=float)
        tail = np.exp(shifted - a_max)
        tail[at_max] = 0.0
        if b is not None:
            tail *= b
        out = (np.log1p(tail.sum(axis=axis, keepdims=True) / m) + np.log(m)
               + a_max)
    if not np.isfinite(out).all():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            weighted = np.exp(a) if b is None else b * np.exp(a)
            out = np.where(np.isfinite(out), out,
                           np.log(weighted.sum(axis=axis, keepdims=True)))
    out = out.squeeze(axis=axis)
    return out[()] if out.ndim == 0 else out


def log_mgf(masses, theta):
    """log of the sum of masses * exp(theta) over the sites masses charge.

    ``theta`` is one (sites,) potential, giving a float, or a (T, sites)
    stack, giving T values, each equal to its one-row call bit for bit.
    Computed in log space, so large potentials are safe; a potential must
    be finite on the charged sites.
    """
    masses = np.asarray(masses, dtype=float).reshape(-1)
    values = _site_rows(theta, len(masses))
    carrying = masses > 0.0
    if not carrying.any():
        raise ValueError("measure has no mass")
    # a C-ordered copy (values[:, carrying] need not be one), so each row
    # sums in the order it would alone
    values = np.compress(carrying, values, axis=1)
    if not np.isfinite(values).all():
        raise ValueError("potential must be finite on the support")
    out = _logsumexp(values, axis=1, b=masses[carrying])
    return float(out[0]) if np.ndim(theta) < 2 else out


# ---------------------------------------------------------------------------
# Serialization: one row per atom/cell, columns coord_0..coord_{d-1}, weight
# ---------------------------------------------------------------------------


def save_csv(measure: DiscreteMeasure | GridMeasure, path) -> None:
    """Write a measure as CSV rows ``coord_0, ..., coord_{d-1}, weight``.

    Grid measures write one row per cell (cell center, cell mass); torus
    atoms one row per atom. Alphabet measures are refused.
    """
    if isinstance(measure, GridMeasure):
        dim = measure.dim
        coords = measure.centers()
        weights = measure.masses()
    else:
        if measure.domain.kind != "torus":
            raise ValueError("only torus atoms and grids are written")
        dim, coords = measure.domain.dim, measure.points
        weights = measure.weights
    header = [f"coord_{a}" for a in range(dim)] + ["weight"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row, weight in zip(coords, weights):
            writer.writerow([repr(float(c)) for c in row] + [repr(float(weight))])


def load_discrete_csv(path) -> DiscreteMeasure:
    """Read torus atoms written by :func:`save_csv` back as a
    DiscreteMeasure."""
    coords, weights = _read_rows(path)
    total = float(np.sum(weights))
    return DiscreteMeasure(points=coords, weights=weights,
                           domain=torus_domain(coords.shape[1]),
                           is_probability=abs(total - 1.0) <= PROBABILITY_TOL_DISCRETE)


def load_grid_csv(path) -> GridMeasure:
    """Read cells written by :func:`save_csv` back as a GridMeasure.

    The rows must cover a full regular torus grid in row-major order.
    """
    coords, weights = _read_rows(path)
    dim = coords.shape[1]
    cells = len(weights)
    resolution = round(cells ** (1.0 / dim))
    if resolution ** dim != cells:
        raise ValueError(f"{cells} rows do not form a cubic grid")
    probe = GridMeasure.uniform(dim, resolution)
    if not np.allclose(probe.centers(), coords, atol=1e-9):
        raise ValueError("rows are not the cell centers of a regular grid")
    density = (weights / probe.cell_volume()).reshape((resolution,) * dim)
    total = float(np.sum(weights))
    return GridMeasure(dim=dim, resolution=resolution, density=density,
                       is_probability=abs(total - 1.0) <= PROBABILITY_TOL_GRID)


def _read_rows(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if not header or header[-1] != "weight":
            raise ValueError("measure CSV must end with a weight column")
        rows = [[float(cell) for cell in row] for row in reader if row]
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        raise ValueError("measure CSV has no rows")
    return data[:, :-1], data[:, -1]
