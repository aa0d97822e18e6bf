"""Measure types and the basic functionals built on them.

This module provides:

- ``Domain``: where a measure lives (unit torus, box, or finite alphabet).
- ``DiscreteMeasure``: weighted atoms; carries empirical measures and
  Gibbs marginals.
- ``GridMeasure``: a density sampled on a regular grid of cells; carries
  reference densities and transport-operator images.
- ``EmpiricalConfig``: an ordered particle configuration.
- ``empirical``: the configuration -> uniform-atom measure map.
- ``entropy``: relative entropy of one measure against a reference.
- ``log_mgf``: log of the exponential integral of a potential.

All values are immutable after construction and safe to share between
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.special import logsumexp

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
        One of ``"torus"`` (unit torus, coordinates in [0,1) per axis),
        ``"box"`` (axis-aligned product of intervals), or ``"alphabet"``
        (finite symbol set, atoms are integer indices).
    dim : int
        Spatial dimension; 1 for alphabets.
    bounds : tuple of (float, float), optional
        Per-axis intervals for ``"box"``; ignored otherwise.
    size : int, optional
        Alphabet cardinality for ``"alphabet"``; ignored otherwise.
    """

    kind: str
    dim: int
    bounds: tuple = ()
    size: int = 0

    def __post_init__(self):
        if self.kind not in ("torus", "box", "alphabet"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind == "box":
            if len(self.bounds) != self.dim:
                raise ValueError("box domain needs one (lo, hi) pair per axis")
            for lo, hi in self.bounds:
                if not hi > lo:
                    raise ValueError("box bounds must satisfy lo < hi")
        if self.kind == "alphabet" and self.size < 1:
            raise ValueError("alphabet domain needs size >= 1")

    def contains(self, point: np.ndarray) -> bool:
        if self.kind == "torus":
            return bool(np.all(point >= 0.0) and np.all(point < 1.0))
        if self.kind == "box":
            lows = np.array([b[0] for b in self.bounds])
            highs = np.array([b[1] for b in self.bounds])
            return bool(np.all(point >= lows) and np.all(point <= highs))
        idx = int(point)
        return 0 <= idx < self.size


def torus_domain(dim: int) -> Domain:
    return Domain(kind="torus", dim=dim)


def box_domain(bounds: Sequence[Sequence[float]]) -> Domain:
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    return Domain(kind="box", dim=len(bounds), bounds=bounds)


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
        elif self.domain.kind == "box":
            lows = np.array([b[0] for b in self.domain.bounds])
            highs = np.array([b[1] for b in self.domain.bounds])
            if np.any(points < lows) or np.any(points > highs):
                raise ValueError("box atoms must lie inside the bounds")
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
    def from_alphabet_weights(weights: Sequence[float],
                              is_probability: bool = True) -> "DiscreteMeasure":
        """Measure on the full alphabet 0..k-1 with the given weights."""
        w = np.asarray(weights, dtype=float)
        return DiscreteMeasure(
            points=np.arange(len(w)),
            weights=w,
            domain=alphabet_domain(len(w)),
            is_probability=is_probability,
        )

    # ---- accessors ----

    @property
    def atom_count(self) -> int:
        return len(self.weights)

    def total_mass(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True, eq=False)
class EmpiricalConfig:
    """An ordered tuple of N particle positions.

    Parameters
    ----------
    points : np.ndarray
        Shape (N, d). Must be nonempty and inside the domain.
    domain : Domain
        Spatial domain; defaults to the unit torus of matching dimension.
    """

    points: np.ndarray
    domain: Domain = None  # type: ignore[assignment]

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if points.size == 0:
            raise ValueError("empty configuration")
        object.__setattr__(self, "points", points)
        domain = self.domain or torus_domain(points.shape[1])
        object.__setattr__(self, "domain", domain)
        if domain.kind == "torus":
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
        domain=config.domain,
        is_probability=True,
    )


# ---------------------------------------------------------------------------
# Grid measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GridMeasure:
    """A density sampled on a regular grid of cells.

    The mass of a cell is density * cell volume; quadrature is the cell
    midpoint rule throughout.

    Parameters
    ----------
    dim : int
    resolution : int
        Cells per axis.
    density : np.ndarray
        Shape (resolution,) * dim, nonnegative.
    kind : str
        ``"torus"`` (cells tile [0,1)^d) or ``"box"``.
    bounds : tuple of (float, float), optional
        Per-axis intervals for boxes; the torus fixes ((0,1),)*dim.
    is_probability : bool
        When True the total mass must be 1 within 1e-10.
    """

    dim: int
    resolution: int
    density: np.ndarray
    kind: str = "torus"
    bounds: tuple = ()
    is_probability: bool = True

    def __post_init__(self):
        if self.kind not in ("torus", "box"):
            raise ValueError("grid measures live on a torus or a box")
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")
        density = np.asarray(self.density, dtype=float)
        expected = (self.resolution,) * self.dim
        if density.shape != expected:
            raise ValueError(f"density shape {density.shape} != {expected}")
        if np.any(density < 0):
            raise ValueError("density must be nonnegative")
        bounds = self.bounds
        if self.kind == "torus":
            bounds = tuple((0.0, 1.0) for _ in range(self.dim))
        else:
            bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
            if len(bounds) != self.dim:
                raise ValueError("box grid needs one (lo, hi) pair per axis")
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "bounds", bounds)
        if self.is_probability:
            total = self.total_mass()
            if abs(total - 1.0) > PROBABILITY_TOL_GRID:
                raise ValueError(f"probability grid measure has mass {total!r}")

    # ---- constructors ----

    @staticmethod
    def uniform(dim: int, resolution: int, kind: str = "torus",
                bounds: tuple = ()) -> "GridMeasure":
        if kind == "torus":
            volume = 1.0
        else:
            volume = 1.0
            for lo, hi in bounds:
                volume *= hi - lo
        density = np.full((resolution,) * dim, 1.0 / volume)
        return GridMeasure(dim=dim, resolution=resolution, density=density,
                           kind=kind, bounds=bounds)

    @staticmethod
    def from_density_values(values: np.ndarray, kind: str = "torus",
                            bounds: tuple = (),
                            normalize: bool = True) -> "GridMeasure":
        """Build a probability grid measure from raw nonnegative values."""
        values = np.asarray(values, dtype=float)
        dim = values.ndim
        resolution = values.shape[0]
        measure = GridMeasure(dim=dim, resolution=resolution, density=values,
                              kind=kind, bounds=bounds, is_probability=False)
        if not normalize:
            return measure
        total = measure.total_mass()
        if total <= 0:
            raise ValueError("cannot normalize a zero measure")
        return GridMeasure(dim=dim, resolution=resolution,
                           density=values / total, kind=kind, bounds=bounds)

    # ---- geometry ----

    def steps(self) -> np.ndarray:
        return np.array([(hi - lo) / self.resolution for lo, hi in self.bounds])

    def cell_volume(self) -> float:
        return float(np.prod(self.steps()))

    def axis_centers(self, axis: int) -> np.ndarray:
        lo, hi = self.bounds[axis]
        step = (hi - lo) / self.resolution
        return lo + (np.arange(self.resolution) + 0.5) * step

    def centers(self) -> np.ndarray:
        """All cell centers, shape (resolution**dim, dim), row-major order."""
        axes = [self.axis_centers(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    # ---- mass ----

    def masses(self) -> np.ndarray:
        """Cell masses in row-major order (density times cell volume)."""
        return self.density.reshape(-1) * self.cell_volume()

    def total_mass(self) -> float:
        return float(np.sum(self.masses()))

    def cell_indices(self, points: np.ndarray) -> np.ndarray:
        """(n, dim) cell multi-indices of n points; torus wraps.

        Each axis is searched against the float cell edges, so a point on a
        left edge (j / resolution on the torus) lands in cell j; flooring
        x / step can land one cell low.
        """
        points = np.asarray(points, dtype=float).reshape(-1, self.dim)
        k = self.resolution
        idx = np.empty(points.shape, dtype=np.int64)
        for a, (lo, hi) in enumerate(self.bounds):
            edges = lo + (hi - lo) * (np.arange(k + 1) / k)
            coords = points[:, a]
            if self.kind == "torus":
                cells = np.searchsorted(edges, coords % 1.0, side="right") - 1
                idx[:, a] = cells % k
            else:
                if np.any((coords < lo) | (coords > hi)):
                    raise ValueError(f"points outside box axis {a}")
                cells = np.searchsorted(edges, coords, side="right") - 1
                idx[:, a] = np.minimum(cells, k - 1)
        return idx

    def cell_index(self, point: np.ndarray) -> tuple:
        """Multi-index of the cell containing a point; torus wraps."""
        return tuple(int(i) for i in self.cell_indices(point)[0])

    def density_at(self, point: np.ndarray) -> float:
        return float(self.density[self.cell_index(point)])


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


MeasureLike = Union[DiscreteMeasure, GridMeasure]


def _paired_masses(mu0: MeasureLike, nu: MeasureLike):
    """Aligned (reference, argument) mass vectors for entropy and friends."""
    if isinstance(mu0, GridMeasure) and isinstance(nu, GridMeasure):
        if (mu0.dim, mu0.resolution, mu0.kind, mu0.bounds) != \
           (nu.dim, nu.resolution, nu.kind, nu.bounds):
            raise ValueError("grid measures live on different grids")
        return mu0.masses(), nu.masses()
    if isinstance(mu0, DiscreteMeasure) and isinstance(nu, DiscreteMeasure):
        if mu0.domain != nu.domain:
            raise ValueError("discrete measures live on different domains")
        if mu0.domain.kind == "alphabet":
            if not np.array_equal(mu0.points, nu.points):
                raise ValueError("alphabet atom lists do not match")
        else:
            if mu0.points.shape != nu.points.shape or \
               not np.array_equal(mu0.points, nu.points):
                raise ValueError(
                    "entropy between discrete measures needs matching atoms"
                )
        return mu0.weights, nu.weights
    raise ValueError("entropy arguments must be two measures of the same kind")


def entropy(mu0: MeasureLike, nu: MeasureLike) -> float:
    """Relative entropy of ``nu`` against the reference ``mu0``.

    Returns sum over cells/atoms of nu * log(nu / mu0) when nu is absolutely
    continuous against mu0 (reference mass > 1e-15 wherever nu has mass),
    and +inf otherwise. Nonnegative for probability pairs, zero only at
    nu == mu0.
    """
    ref, arg = _paired_masses(mu0, nu)
    carrying = arg > 0.0
    if np.any(ref[carrying] <= NULL_DENSITY):
        return math.inf
    a = arg[carrying]
    r = ref[carrying]
    return float(np.sum(a * np.log(a / r)))


def _theta_values(mu: MeasureLike, theta) -> np.ndarray:
    """Potential values aligned with the measure's quadrature points."""
    if hasattr(theta, "values"):
        flat = np.asarray(theta.values, dtype=float).reshape(-1)
    else:
        flat = np.asarray(theta, dtype=float).reshape(-1)
    if isinstance(mu, GridMeasure):
        expected = mu.resolution ** mu.dim
    else:
        expected = mu.atom_count
    if flat.size != expected:
        raise ValueError(
            f"potential has {flat.size} values, measure has {expected} sites"
        )
    return flat


def log_mgf(mu: MeasureLike, theta) -> float:
    """log of the integral of exp(theta) against mu.

    ``theta`` may be a per-site value array or any object with a ``values``
    array matching the measure's quadrature (grid cells in row-major order,
    or atoms in order). Computed in log space, so large potentials are safe.
    """
    values = _theta_values(mu, theta)
    masses = mu.masses() if isinstance(mu, GridMeasure) else np.asarray(mu.weights)
    carrying = masses > 0.0
    if not np.any(carrying):
        raise ValueError("measure has no mass")
    if not np.all(np.isfinite(values[carrying])):
        raise ValueError("potential must be finite on the support")
    return float(logsumexp(values[carrying], b=masses[carrying]))


# ---------------------------------------------------------------------------
# Serialization: one row per atom/cell, columns coord_0..coord_{d-1}, weight
# ---------------------------------------------------------------------------


def save_csv(measure: MeasureLike, path) -> None:
    """Write a measure as CSV rows ``coord_0, ..., coord_{d-1}, weight``.

    Grid measures write one row per cell (cell center, cell mass); discrete
    measures one row per atom. Alphabet atoms store the symbol index in
    coord_0.
    """
    if isinstance(measure, GridMeasure):
        dim = measure.dim
        coords = measure.centers()
        weights = measure.masses()
    else:
        if measure.domain.kind == "alphabet":
            dim = 1
            coords = measure.points.reshape(-1, 1).astype(float)
        else:
            dim = measure.domain.dim
            coords = measure.points
        weights = measure.weights
    header = [f"coord_{a}" for a in range(dim)] + ["weight"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row, weight in zip(coords, weights):
            writer.writerow([repr(float(c)) for c in row] + [repr(float(weight))])


def load_discrete_csv(path, domain: Domain = None) -> DiscreteMeasure:
    """Read atoms written by :func:`save_csv` back as a DiscreteMeasure."""
    coords, weights = _read_rows(path)
    if domain is None:
        domain = torus_domain(coords.shape[1])
    points = coords[:, 0].astype(np.int64) if domain.kind == "alphabet" else coords
    total = float(np.sum(weights))
    return DiscreteMeasure(points=points, weights=weights, domain=domain,
                           is_probability=abs(total - 1.0) <= PROBABILITY_TOL_DISCRETE)


def load_grid_csv(path, kind: str = "torus", bounds: tuple = ()) -> GridMeasure:
    """Read cells written by :func:`save_csv` back as a GridMeasure.

    The rows must cover a full regular grid in row-major order.
    """
    coords, weights = _read_rows(path)
    dim = coords.shape[1]
    cells = len(weights)
    resolution = round(cells ** (1.0 / dim))
    if resolution ** dim != cells:
        raise ValueError(f"{cells} rows do not form a cubic grid")
    probe = GridMeasure.uniform(dim, resolution, kind=kind, bounds=bounds)
    if not np.allclose(probe.centers(), coords, atol=1e-9):
        raise ValueError("rows are not the cell centers of a regular grid")
    density = (weights / probe.cell_volume()).reshape((resolution,) * dim)
    total = float(np.sum(weights))
    return GridMeasure(dim=dim, resolution=resolution, density=density,
                       kind=kind, bounds=bounds,
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
