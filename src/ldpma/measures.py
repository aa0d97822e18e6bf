"""Measure types and the basic functionals built on them.

This module provides:

- ``Domain``: where a measure lives (unit torus or finite alphabet).
- ``DiscreteMeasure``: weighted atoms; carries empirical measures and
  Gibbs marginals.
- ``cell_nodes``: the cell centres of a regular grid on an interval.
- ``GridMeasure``: the cell masses of a measure on the regular grid of
  cells that tiles the unit torus; carries reference measures and
  transport-operator images.
- ``empirical``: the uniform-atom measure of a configuration, an (N, d)
  array of points.
- ``entropy``: relative entropy of masses against reference masses.
- ``log_mgf``: log of the exponential integral of a potential against
  masses.

The two functionals take mass arrays, as every caller already holds them
(``GridMeasure.masses``, ``DiscreteMeasure.weights``), and each takes a
(T, sites) stack as well as one row: a row's value equals its one-row
call bit for bit, so a certificate may evaluate all its rows at once.
``entropy`` makes one full-width pass over the stack, whichever sites
each row charges.

Both measure types are probability measures by construction: a total mass
off 1 by more than PROBABILITY_TOL_DISCRETE (atoms) or PROBABILITY_TOL_GRID
(cells) is refused, and the CSV loaders name the file they refuse.

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
    """A probability measure of finitely many weighted atoms on a domain.

    Parameters
    ----------
    points : np.ndarray
        Shape (N, d) float array of atom locations for spatial domains, or
        shape (N,) integer array of symbol indices for alphabets. Coincident
        atoms are legal and are kept distinct.
    weights : np.ndarray
        Shape (N,) nonnegative weights summing to 1 within 1e-12.
    domain : Domain
    """

    points: np.ndarray
    weights: np.ndarray
    domain: Domain

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
        total = float(np.sum(weights))
        if not abs(total - 1.0) <= PROBABILITY_TOL_DISCRETE:  # NaN too
            raise ValueError(f"measure has total mass {total!r}, not 1")

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


def empirical(points: np.ndarray) -> DiscreteMeasure:
    """Uniform-atom measure of an (N, d) configuration: weight 1/N at each
    point.

    Coincident points remain distinct atoms of weight 1/N each; an empty
    configuration has total mass 0 and is refused.
    """
    points = np.array(points, dtype=float, ndmin=2)
    return DiscreteMeasure(points=points,
                           weights=np.full(len(points), 1.0) / len(points),
                           domain=torus_domain(points.shape[1]))


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
    """A probability measure on the regular grid of cells tiling the
    torus [0,1)^dim, held as its cell masses.

    Quadrature is the cell midpoint rule throughout.

    Parameters
    ----------
    dim : int
    resolution : int
        Cells per axis.
    masses : np.ndarray
        Shape (resolution**dim,): the cell masses in row-major order (the
        last axis varies fastest), nonnegative, of total 1 within 1e-10.
    """

    dim: int
    resolution: int
    masses: np.ndarray

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")
        masses = np.asarray(self.masses, dtype=float)
        expected = (self.resolution ** self.dim,)
        if masses.shape != expected:
            raise ValueError(f"masses shape {masses.shape} != {expected}")
        if (masses < 0).any():
            raise ValueError("masses must be nonnegative")
        object.__setattr__(self, "masses", masses)
        total = float(masses.sum())
        if not abs(total - 1.0) <= PROBABILITY_TOL_GRID:  # NaN too
            raise ValueError(f"measure has total mass {total!r}, not 1")

    # ---- constructors ----

    @staticmethod
    def uniform(dim: int, resolution: int) -> "GridMeasure":
        volume = math.prod([1.0 / resolution] * dim)
        return GridMeasure(dim=dim, resolution=resolution,
                           masses=np.full(resolution ** dim, volume))

    @staticmethod
    def from_density_values(values: np.ndarray) -> "GridMeasure":
        """Build a probability grid measure from raw nonnegative density
        values of shape (resolution,) * dim."""
        values = np.asarray(values, dtype=float)
        dim = values.ndim
        resolution = values.shape[0]
        volume = math.prod([1.0 / resolution] * dim)
        total = float((values.reshape(-1) * volume).sum())
        if total <= 0:
            raise ValueError("cannot normalize a zero measure")
        return GridMeasure(dim=dim, resolution=resolution,
                           masses=(values / total).reshape(-1) * volume)

    # ---- geometry ----

    def centers(self) -> np.ndarray:
        """All cell centers, shape (resolution**dim, dim), row-major order."""
        return grid_points([cell_nodes(0.0, 1.0, self.resolution)] * self.dim)

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

    def density_at(self, point: np.ndarray) -> float:
        """Density of the cell containing a point (its mass over the cell
        volume); the torus wraps."""
        grid = self.masses.reshape((self.resolution,) * self.dim)
        return float(grid[tuple(self.cell_indices(point)[0])]
                     * self.resolution ** self.dim)


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
        weights = measure.masses
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
    with _naming(path):
        coords, weights = _read_rows(path)
        return DiscreteMeasure(points=coords, weights=weights,
                               domain=torus_domain(coords.shape[1]))


def load_grid_csv(path) -> GridMeasure:
    """Read cells written by :func:`save_csv` back as a GridMeasure.

    The rows must cover a full regular torus grid in row-major order; their
    weights are the measure's masses as read.
    """
    with _naming(path):
        coords, weights = _read_rows(path)
        dim = coords.shape[1]
        cells = len(weights)
        resolution = round(cells ** (1.0 / dim))
        if resolution ** dim != cells:
            raise ValueError(f"{cells} rows do not form a cubic grid")
        centers = grid_points([cell_nodes(0.0, 1.0, resolution)] * dim)
        if not np.allclose(centers, coords, atol=1e-9):
            raise ValueError("rows are not the cell centers of a regular grid")
        return GridMeasure(dim=dim, resolution=resolution, masses=weights)


@contextlib.contextmanager
def _naming(path):
    """Prefix the path to a ValueError raised while reading a file."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


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
