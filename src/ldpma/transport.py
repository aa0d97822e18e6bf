"""Discrete and semi-discrete optimal transport.

Assignments between equal-size point sets, coupling matrices with prescribed
marginals, squared Wasserstein values and cyclical monotonicity
certificates.

scipy is imported inside ``hungarian`` and ``kantorovich_lp``, the only
functions that call it, so importing this module loads numpy alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .measures import DiscreteMeasure, GridMeasure, torus_domain

MARGINAL_TOL = 1e-10
BRUTE_FORCE_MAX = 9
PLAN_SIZE_MAX = 2 ** 24
SEMIDISCRETE_CELL_MAX = 65536
CIRCLE_CHUNK = 1 << 20  # (atom sets, cut offsets) costs held at once


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


_PERM_CACHE: Dict[int, np.ndarray] = {}


def _all_permutations(n: int) -> np.ndarray:
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(list(itertools.permutations(range(n))),
                                  dtype=np.int64)
    return _PERM_CACHE[n]


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
    """Minimum-cost coupling of two discrete measures.

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
    if abs(mu.total_mass() - nu.total_mass()) > 1e-9:
        raise ValueError("infeasible: total masses differ")

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


def circle_primitives(s, inner):
    """Integrals of Q and Q^2 over [0, s] for a quantile Q on [0, 1] that
    gains 1 per wrap, Q(t + 1) = Q(t) + 1. ``inner(u)`` gives the two
    integrals over [0, u] for u in [0, 1]."""
    k = np.floor(s)
    u = s - k
    p1, p2 = inner(u)
    g1, g2 = inner(1.0)
    return (k * g1 + k * (k - 1) / 2 + p1 + k * u,
            k * g2 + k * (k - 1) * g1 + (k - 1) * k * (2 * k - 1) / 6
            + p2 + 2 * k * p1 + k * k * u)


def w2_circle_atoms(points: np.ndarray, weights: np.ndarray,
                    y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact squared circle W2 from each row of a (C, N) stack of atom sets,
    rows sorted in [0, 1) and sharing the weights, to one measure (y, w).

    W2^2 is the minimum over the cut offset alpha in [-1, 1] of the integral
    of (Q_mu(t) - Q_nu(t + alpha))^2, where Q_nu gains 1 per wrap (Delon,
    Salomon & Sobolevski 2010). Both quantiles are steps, so the cost is
    piecewise linear in alpha with breaks at T_nu(j) - T_mu(i) + {-1, 0, 1}
    (T the cumulative weights), and its minimum sits on a break. Per break,
    cost = sum_i mu_i x_i^2 - 2 x . B[alpha] + C[alpha], where B[alpha, i] and
    C[alpha] integrate Q_nu and Q_nu^2 over atom i's and the whole t-range.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if np.any(np.diff(x, axis=1) < 0.0):
        raise ValueError("atom rows must be sorted")
    mu = np.asarray(weights, dtype=float) / np.sum(weights)
    order = np.argsort(y, kind="stable")
    y, nu = np.asarray(y, dtype=float)[order], np.asarray(w, dtype=float)[order]
    nu = nu / nu.sum()
    t_mu = np.concatenate([[0.0], np.cumsum(mu)])
    t_nu = np.concatenate([[0.0], np.cumsum(nu)])
    t_mu[-1] = t_nu[-1] = 1.0
    g1 = np.concatenate([[0.0], np.cumsum(nu * y)])
    g2 = np.concatenate([[0.0], np.cumsum(nu * y * y)])

    def inner(u):  # integrals of Q_nu and Q_nu^2 over [0, u]
        return np.interp(u, t_nu, g1), np.interp(u, t_nu, g2)

    alphas = np.unique(np.clip(
        (t_nu[None, :] - t_mu[:, None]).reshape(-1, 1) + [-1.0, 0.0, 1.0],
        -1.0, 1.0))
    b = np.diff(circle_primitives(t_mu[None, :] + alphas[:, None], inner)[0],
                axis=1)
    c = (circle_primitives(alphas + 1.0, inner)[1]
         - circle_primitives(alphas, inner)[1])
    step = max(1, CIRCLE_CHUNK // len(alphas))
    best = [np.min(((rows * rows) @ mu)[:, None] - 2.0 * (rows @ b.T) + c, axis=1)
            for rows in (x[lo:lo + step] for lo in range(0, len(x), step))]
    return np.maximum(np.concatenate(best), 0.0)


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
    nu_atoms = DiscreteMeasure(
        points=nu.centers(), weights=nu.masses(),
        domain=torus_domain(nu.dim), is_probability=nu.is_probability,
    )
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
    max_cycle: int = 4,
    tol: float = 1e-12,
) -> Tuple[bool, Optional[List[int]]]:
    """Verify that no cyclic reassignment of support pairs lowers the cost.

    The support pairs are (rows[p], cols[p]) in a cost matrix. For every
    subset of up to ``max_cycle`` pairs and every cyclic order, giving
    each pair's row the next pair's column must not lower the summed cost
    by more than tol; on inner-product costs this is the classical
    cyclical monotonicity inequality. Returns (True, None) or (False,
    witness) with the witness as the cycle of pair indices, found in
    deterministic enumeration order.
    """
    n = len(rows)
    if len(cols) != n:
        raise ValueError("rows and cols must pair up")
    if max_cycle > 6 and n > 10:
        needed = sum(math.comb(n, s) * math.factorial(s - 1)
                     for s in range(2, max_cycle + 1))
        raise ValueError(
            f"enumeration budget exceeded (needs {needed} cycles); "
            "lower max_cycle to 6 or pass at most 10 pairs"
        )
    sub = np.asarray(costs, dtype=float)[np.ix_(rows, cols)]
    for size in range(2, min(max_cycle, n) + 1):
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
