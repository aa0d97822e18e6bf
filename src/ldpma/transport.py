"""Discrete and semi-discrete optimal transport.

Assignments between equal-size point sets, coupling matrices with prescribed
marginals, squared Wasserstein values and cyclical monotonicity
certificates. Every circle W2 reads nu through one quantile, `_Quantile`,
whose `cut_costs` price the cut offsets that atoms and grids select.

scipy is imported inside ``hungarian`` and ``kantorovich_lp``, the only
functions that call it, so importing this module loads numpy alone. The
Hamiltonians reach ``hungarian`` only for tropical stacks past N = 9.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .measures import DiscreteMeasure, GridMeasure, torus_domain

MARGINAL_TOL = 1e-10
PLAN_SIZE_MAX = 2 ** 24
SEMIDISCRETE_CELL_MAX = 65536
CIRCLE_CHUNK = 1 << 20  # (atom sets, cut offsets) costs held at once
MAX_CYCLE = 4  # longest cycle cyclical_monotonicity_check enumerates


# ---------------------------------------------------------------------------
# Costs
# ---------------------------------------------------------------------------


def cost_matrix(xs: np.ndarray, ys: np.ndarray, cost: str) -> np.ndarray:
    """Pairwise cost matrix, rows over xs, columns over ys."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if cost == "sqdist_torus":
        if np.any(xs < 0) or np.any(xs >= 1) or np.any(ys < 0) or np.any(ys >= 1):
            raise ValueError("torus points must lie in [0,1) per axis")
        delta = np.abs(xs[:, None, :] - ys[None, :, :])
        wrap = np.minimum(delta, 1.0 - delta)
        return np.sum(wrap * wrap, axis=2)
    if cost == "sqdist_euclid":
        diff = xs[:, None, :] - ys[None, :, :]
        return np.sum(diff * diff, axis=2)
    if cost == "neg_inner":
        return -(xs @ ys.T)
    raise ValueError(f"unknown cost {cost!r}; choose from neg_inner, "
                     "sqdist_euclid, sqdist_torus")


# ---------------------------------------------------------------------------
# Assignments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assignment:
    """A permutation and its total cost against the matrix that made it."""

    permutation: tuple
    cost: float

    def __post_init__(self):
        if sorted(self.permutation) != list(range(len(self.permutation))):
            raise ValueError("not a permutation")


def hungarian(cost: np.ndarray) -> Assignment:
    """Optimal assignment for any square finite matrix."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    if cost.ndim != 2 or cost.shape != (n, n):
        raise ValueError("cost matrix must be square")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost entries must be finite")
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(cost)
    return Assignment(permutation=tuple(int(c) for c in cols),
                      cost=float(cost[rows, cols].sum()))


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Nonnegative coupling with the marginals of its two measures."""

    coupling: np.ndarray
    source: DiscreteMeasure
    target: DiscreteMeasure

    def __post_init__(self):
        coupling = np.asarray(self.coupling, dtype=float)
        if coupling.shape != (self.source.atom_count, self.target.atom_count):
            raise ValueError("coupling shape must be (source atoms, target atoms)")
        if np.any(coupling < -MARGINAL_TOL):
            raise ValueError("coupling must be nonnegative")
        coupling = np.maximum(coupling, 0.0)
        object.__setattr__(self, "coupling", coupling)
        row_gap = np.max(np.abs(coupling.sum(axis=1) - self.source.weights))
        col_gap = np.max(np.abs(coupling.sum(axis=0) - self.target.weights))
        if row_gap > MARGINAL_TOL or col_gap > MARGINAL_TOL:
            raise ValueError(
                f"marginals off by (rows {row_gap:.2e}, cols {col_gap:.2e})"
            )

    def objective(self, cost: np.ndarray) -> float:
        return float(np.sum(self.coupling * np.asarray(cost, dtype=float)))


def kantorovich_lp(mu: DiscreteMeasure, nu: DiscreteMeasure,
                   cost: np.ndarray) -> TransportPlan:
    """Minimum-cost coupling of two discrete measures, both of mass 1.

    Solved as the standard linear program with exact marginal constraints;
    feasibility tolerances are tightened so the plan's marginals land within
    1e-10 and the objective within 1e-9 of the optimum.
    """
    cost = np.asarray(cost, dtype=float)
    n, m = mu.atom_count, nu.atom_count
    if cost.shape != (n, m):
        raise ValueError("cost matrix shape must match the atom counts")
    if n * m > PLAN_SIZE_MAX:
        raise ValueError("plan too large; coarsen the instance")

    import scipy.sparse as sp
    from scipy.optimize import linprog

    # row-sum and column-sum equality constraints over the flattened coupling
    row_idx = np.repeat(np.arange(n), m)
    col_idx = np.tile(np.arange(m), n) + n
    vars_idx = np.arange(n * m)
    a_eq = sp.coo_matrix(
        (np.ones(2 * n * m),
         (np.concatenate([row_idx, col_idx]),
          np.concatenate([vars_idx, vars_idx]))),
        shape=(n + m, n * m),
    ).tocsr()
    b_eq = np.concatenate([mu.weights, nu.weights])

    result = linprog(
        cost.reshape(-1), A_eq=a_eq, b_eq=b_eq,
        bounds=(0, None), method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if not result.success:
        raise RuntimeError(f"transport LP failed: {result.message}")
    coupling = result.x.reshape(n, m)
    return TransportPlan(coupling=coupling, source=mu, target=nu)


# ---------------------------------------------------------------------------
# Wasserstein values
# ---------------------------------------------------------------------------


def w2_empirical(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Squared torus Wasserstein distance between two uniform empirical
    measures.

    With equal atom counts and uniform weights this is the assignment value
    (1/N) min over permutations of the squared-distance sum. Unequal or
    non-uniform instances route through :func:`kantorovich_lp`.
    """
    n, m = mu.atom_count, nu.atom_count
    uniform = (
        n == m
        and np.max(np.abs(mu.weights - 1.0 / n)) <= 1e-12
        and np.max(np.abs(nu.weights - 1.0 / n)) <= 1e-12
    )
    costs = cost_matrix(mu.points, nu.points, "sqdist_torus")
    if uniform:
        return hungarian(costs).cost / n
    plan = kantorovich_lp(mu, nu, costs)
    return plan.objective(costs)


def _knots(mass: np.ndarray) -> np.ndarray:
    """Cumulative masses along the last axis from 0, the last pinned to 1."""
    t = np.zeros(mass.shape[:-1] + (mass.shape[-1] + 1,))
    t[..., 1:] = mass.cumsum(axis=-1)
    t[..., -1] = 1.0
    return t


class _Quantile(NamedTuple):
    """The quantile Q of a measure nu on the circle, scaled to mass 1, piece
    by charged grid cell or atom: piece j holds the mass coordinates [t[j],
    t[j + 1]), where Q(u) = left[j] + (u - t[j]) / rho[j], rho the density
    of a cell and inf at an atom. Cells and atoms of zero mass hold none,
    so Q jumps over them.
    """

    t: np.ndarray  # knots: cumulative masses, t[-1] = 1
    mass: np.ndarray
    left: np.ndarray
    right: np.ndarray
    rho: np.ndarray  # density

    @classmethod
    def of(cls, nu: GridMeasure) -> "_Quantile":
        k = nu.resolution
        masses = nu.masses / nu.masses.sum()
        keep = masses > 0.0
        edges = np.arange(k + 1) / k
        mass = masses[keep]
        return cls(_knots(mass), mass, edges[:-1][keep], edges[1:][keep],
                   mass * k)

    @classmethod
    def of_atoms(cls, y: np.ndarray, w: np.ndarray) -> "_Quantile":
        order = np.argsort(y, kind="stable")
        y, w = np.asarray(y, dtype=float)[order], np.asarray(w, dtype=float)[order]
        keep = w > 0.0
        mass = w[keep] / w[keep].sum()
        return cls(_knots(mass), mass, y[keep], y[keep], np.full(len(mass), np.inf))

    def locate(self, u):
        """(charged piece, offset into it, Q) at coordinates u in [0, 1]."""
        j = np.minimum(self.t.searchsorted(u, side="right") - 1,
                       len(self.mass) - 1)
        delta = u - self.t[j]
        return j, delta, self.left[j] + delta / self.rho[j]

    def wrapped(self, s):
        """(charged piece, offset into it, s mod 1, Q) at any coordinates s,
        Q gaining 1 per wrap."""
        wraps = np.floor(s)
        u = s - wraps
        j, delta, y = self.locate(u)
        return j, delta, u, y + wraps

    def cut_costs(self, t_mu: np.ndarray, alpha: np.ndarray):
        """(B, C) at the cut offsets alpha for atoms at the mass coordinates
        t_mu (one row for all offsets, or one per offset): B[r, i] integrates
        Q over atom i's coordinates shifted by alpha[r], C[r] integrates Q^2
        over [alpha[r], 1 + alpha[r]], and the cut costs sum_i mu_i x_i^2 -
        2 x . B[r] + C[r] for atoms x with masses mu."""
        mass, left, right = self.mass, self.left, self.right
        m1 = np.concatenate([[0.0], (mass * (left + right) / 2).cumsum()])
        m2 = np.concatenate([[0.0], (
            mass * (left * left + left * right + right * right) / 3).cumsum()])

        def inner(u):  # integrals of Q and Q^2 over [0, u], u in [0, 1]
            j, delta, y = self.locate(u)
            a = left[j]
            return (m1[j] + delta * (a + y) / 2,
                    m2[j] + delta * (a * a + a * y + y * y) / 3)

        # the integrals over [0, s] at any s, through Q(t + 1) = Q(t) + 1
        s = t_mu + alpha[:, None]
        k = np.floor(s)
        u = s - k
        (p1, p2), (g1, g2) = inner(u), inner(1.0)
        p1, p2 = (k * g1 + k * (k - 1) / 2 + p1 + k * u,
                  k * g2 + k * (k - 1) * g1 + (k - 1) * k * (2 * k - 1) / 6
                  + p2 + 2 * k * p1 + k * k * u)
        return np.diff(p1, axis=1), p2[:, -1] - p2[:, 0]


def w2_circle_atoms(points: np.ndarray, weights: np.ndarray,
                    y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact squared circle W2 from each row of a (C, N) stack of atom sets,
    rows sorted in [0, 1) and sharing the weights, to one measure (y, w).

    W2^2 is the minimum over the cut offset alpha in [-1, 1] of the integral
    of (Q_mu(t) - Q_nu(t + alpha))^2, where Q_nu gains 1 per wrap (Delon,
    Salomon & Sobolevski 2010). Both quantiles are steps, so the cost is
    piecewise linear in alpha with breaks at T_nu(j) - T_mu(i) + {-1, 0, 1}
    (T the cumulative weights), and its minimum sits on a break: each row
    takes the least of the breaks' `_Quantile.cut_costs`, CIRCLE_CHUNK costs
    at a time.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if np.any(np.diff(x, axis=1) < 0.0):
        raise ValueError("atom rows must be sorted")
    mu = np.asarray(weights, dtype=float) / np.sum(weights)
    quantile = _Quantile.of_atoms(y, w)
    t_mu = _knots(mu)
    alphas = np.unique(np.clip(
        (quantile.t[None, :] - t_mu[:, None]).reshape(-1, 1) + [-1.0, 0.0, 1.0],
        -1.0, 1.0))
    b, c = quantile.cut_costs(t_mu, alphas)
    step = max(1, CIRCLE_CHUNK // len(alphas))
    best = [np.min(((rows * rows) @ mu)[:, None] - 2.0 * (rows @ b.T) + c, axis=1)
            for rows in (x[lo:lo + step] for lo in range(0, len(x), step))]
    return np.maximum(np.concatenate(best), 0.0)


def _piece_search(quantile: _Quantile, base: np.ndarray, line) -> tuple:
    """Zero in [-1, 1] of a nondecreasing, piecewise-linear function D of an
    offset g, for every row of base at once.

    Row r's D reads Q at the coordinates base[r] + g, so it is linear
    between the offsets where one of them crosses a knot; ``line(q, dq)``
    gives each row's D and slope on its current piece from Q and Q' there.
    Each row keeps a bracket, from [-1, 1] and g = 0, and takes the zero of
    its piece's line: when that lies outside the piece, the bracket shrinks
    to that side of the piece, and the next guess is the zero if it lies
    inside the new bracket and the bracket at least halved, else the
    bracket's midpoint. A row stops when its piece holds the zero, or when
    its bracket can shrink no further: D then changes sign at a break, the
    row's zero. Returns the zeros and whether each sits on a break.
    """
    rows = len(base)
    zero, on_break = np.zeros(rows), np.zeros(rows, dtype=bool)
    live = np.arange(rows)  # the rows still searching, and their state
    g, low, high = np.zeros(rows), np.full(rows, -1.0), np.full(rows, 1.0)
    while live.size:
        j, delta, u, q = quantile.wrapped(base + g[:, None])
        value, slope = line(q, 1.0 / quantile.rho[j])
        at = g - value / slope
        lower = np.maximum(g - delta.min(axis=1), low)
        upper = np.minimum(g + (quantile.t[j + 1] - u).min(axis=1), high)
        found = (lower <= at) & (at <= upper)
        above = at > upper
        new_lo, new_hi = np.where(above, upper, low), np.where(above, high, lower)
        stuck = ~found & (((new_lo == low) & (new_hi == high))
                          | (new_lo >= new_hi))
        done = found | stuck
        if done.any():  # record the finished rows; drop them or stop
            zero[live[done]] = np.where(stuck, np.clip(at, low, high), at)[done]
            on_break[live[done]] = stuck[done]
            if done.all():
                break
            go = ~done
            live, base, at, low, high, new_lo, new_hi = (
                a[go] for a in (live, base, at, low, high, new_lo, new_hi))
        halved = new_hi - new_lo <= 0.5 * (high - low)
        jump = halved & (new_lo < at) & (at < new_hi)
        g, low, high = np.where(jump, at, 0.5 * (new_lo + new_hi)), new_lo, new_hi
    return zero, on_break


def _w2_circle_rows(x: np.ndarray, weights: np.ndarray,
                    nu: GridMeasure) -> np.ndarray:
    """W2^2 to a 1-d grid nu from each row of a stack of weights on shared
    atoms at the sorted positions x. Q_nu is piecewise linear, so the cost
    of the cut offset alpha is convex and piecewise quadratic, with breaks
    where T_mu(i) + alpha meets a knot T_nu(j) + n of nu's cumulative
    weights. Its slope D(alpha) = 1 + 2 Q(alpha) - 2 sum_i x_i [Q(T_i +
    alpha) - Q(T_{i-1} + alpha)] is nondecreasing and linear on each piece,
    and :func:`_piece_search` finds its zero for every row at once; the
    cost there comes from `_Quantile.cut_costs`. Every row reduction is a
    sum along the row, so a row's value does not depend on the stack it is
    in.
    """
    quantile = _Quantile.of(nu)
    t_mu = _knots(weights / weights.sum(axis=1, keepdims=True))

    def dot_x(a):  # x . a along each row
        return (a * x).sum(axis=1)

    def slope_line(q, dq):  # D and its slope on each row's piece
        return (1.0 + 2.0 * q[:, 0] - 2.0 * dot_x(np.diff(q, axis=1)),
                2.0 * dq[:, 0] - 2.0 * dot_x(np.diff(dq, axis=1)))

    alpha, _ = _piece_search(quantile, t_mu, slope_line)
    b, c = quantile.cut_costs(t_mu, alpha)
    cost = ((x * x) * np.diff(t_mu, axis=1)).sum(axis=1) - 2.0 * dot_x(b) + c
    return np.maximum(cost, 0.0)


def w2_semidiscrete(nu: GridMeasure, mu: DiscreteMeasure) -> float:
    """Squared Wasserstein distance from a grid density to a discrete measure.

    Each torus grid cell becomes an atom at its center carrying the cell
    mass and the instance is handed to the coupling LP under the squared
    torus distance. The midpoint atomization
    carries an O(step) bias that vanishes under grid refinement.
    """
    cells = nu.resolution ** nu.dim
    if cells > SEMIDISCRETE_CELL_MAX:
        raise ValueError("grid too fine; use a coarser grid")
    nu_atoms = DiscreteMeasure(points=nu.centers(), weights=nu.masses,
                               domain=torus_domain(nu.dim))
    costs = cost_matrix(nu_atoms.points, mu.points, "sqdist_torus")
    plan = kantorovich_lp(nu_atoms, mu, costs)
    return plan.objective(costs)


# ---------------------------------------------------------------------------
# Cyclical monotonicity
# ---------------------------------------------------------------------------


def cyclical_monotonicity_check(
    costs: np.ndarray,
    rows: Sequence[int],
    cols: Sequence[int],
    tol: float = 1e-12,
) -> Tuple[bool, Optional[List[int]]]:
    """Verify that no cyclic reassignment of support pairs lowers the cost.

    The support pairs are (rows[p], cols[p]) in a cost matrix. For every
    subset of up to MAX_CYCLE pairs and every cyclic order, giving
    each pair's row the next pair's column must not lower the summed cost
    by more than tol; on inner-product costs this is the classical
    cyclical monotonicity inequality. Returns (True, None) or (False,
    witness) with the witness as the cycle of pair indices, found in
    deterministic enumeration order.
    """
    n = len(rows)
    if len(cols) != n:
        raise ValueError("rows and cols must pair up")
    sub = np.asarray(costs, dtype=float)[np.ix_(rows, cols)]
    for size in range(2, min(MAX_CYCLE, n) + 1):
        for subset in itertools.combinations(range(n), size):
            base = sum(sub[p, p] for p in subset)
            anchor, rest = subset[0], subset[1:]
            for order in itertools.permutations(rest):
                cycle = (anchor,) + order
                shifted = sum(sub[cycle[i], cycle[(i + 1) % size]]
                              for i in range(size))
                if shifted < base - tol:
                    return False, list(cycle)
    return True, None
