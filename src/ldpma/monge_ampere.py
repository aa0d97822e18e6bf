"""Transport operator, master equation, and the transport-entropy rate function.

Everything here lives on the flat torus chart [0,1)^d. The central object
is the operator

    MA_nu f = (T_f)_# nu,    T_f(y) = argmin_x [ d(x,y)^2 + f(x) ],

the pushforward of a reference density nu under the transport map of the
potential f. In one dimension the argmin regions are computed exactly: they
form a power diagram of the grid nodes (lifted by integer shifts for the
wrap), each cell an interval whose nu-mass has a closed form. That keeps
the master-equation residual at solver precision instead of at histogram
granularity.

The master equation couples the operator to a Gibbs tilt,

    MA_nu f = e^{beta f} mu0 / integral(e^{beta f} mu0),

and its solution phi_min calibrates the rate function

    G(mu) = beta W2^2(mu, nu) + Ent(mu0, mu) + beta F(phi_min),

which vanishes exactly at mu = MA_nu phi_min and is positive elsewhere.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .legendre import GridFunction
from .measures import DiscreteMeasure, GridMeasure, entropy, log_mgf
from .transport import circle_primitives, w2_circle_atoms

NORMALIZATION_TOL = 1e-10
# d >= 2 torus quadrature: subpoints per nu-cell axis for the transport
# assignment (mass quantum = cell mass / D2_SUBSAMPLE^d)
D2_SUBSAMPLE = 3


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Potential:
    """A finite grid potential, conventionally mean-zero under nu.

    The normalization gauge is enforced by :func:`normalize_potential` and
    by every solver step; the class itself only guards finiteness. Solver
    output carries its iteration log in ``log``.
    """

    f: GridFunction
    log: tuple = ()

    def __post_init__(self):
        if self.f.finite_count() != self.f.values.size:
            raise ValueError("potentials must be finite everywhere")

    @property
    def values(self) -> np.ndarray:
        return self.f.values

    @property
    def grid(self) -> GridFunction:
        return self.f


def _as_grid_function(theta: Union[Potential, GridFunction]) -> GridFunction:
    return theta.f if isinstance(theta, Potential) else theta


def nu_mean(theta: Union[Potential, GridFunction], nu: GridMeasure) -> float:
    """Integral of the potential against nu (grids must agree)."""
    f = _as_grid_function(theta)
    if f.resolution != nu.resolution or f.dim != nu.dim:
        raise ValueError("potential and nu live on different grids")
    return float(np.sum(f.values.reshape(-1) * nu.masses()))


def normalize_potential(theta: Union[Potential, GridFunction],
                        nu: GridMeasure, log: tuple = ()) -> Potential:
    """Shift to the mean-zero gauge under nu, verified to 1e-10."""
    f = _as_grid_function(theta)
    shifted = f.shifted(-nu_mean(f, nu))
    out = Potential(f=shifted, log=log)
    if abs(nu_mean(out, nu)) > NORMALIZATION_TOL:
        raise RuntimeError("normalization did not land within tolerance")
    return out


# ---------------------------------------------------------------------------
# One-dimensional power diagrams (exact transport cells on the circle)
# ---------------------------------------------------------------------------


def _power_cells_1d(values: np.ndarray):
    """Exact argmin intervals of min_i [ (y - x_i)^2 + f_i ] on [0,1).

    Nodes are lifted by shifts m in {-1,0,1} and scanned left to right;
    a stack prunes sites whose interval closes before it opens (the pooled
    cells of nodes beaten everywhere). Returns (node index, serving site
    position, low, high) arrays with the intervals clipped to [0,1) and
    the lows strictly increasing.
    """
    k = len(values)
    h = 1.0 / k
    nodes = (np.arange(k) + 0.5) * h
    positions = np.concatenate([nodes - 1.0, nodes, nodes + 1.0]).tolist()
    weights = np.tile(values, 3).tolist()

    def boundary(i, j):
        # equal-cost point of sites i (left) and j (right)
        return 0.5 * (positions[i] + positions[j]) + \
            (weights[j] - weights[i]) / (2.0 * (positions[j] - positions[i]))

    stack = []  # site index
    lefts = []  # opening point of the stacked site's interval
    for s in range(len(positions)):
        while stack:
            b = boundary(stack[-1], s)
            if b <= lefts[-1]:
                stack.pop()
                lefts.pop()
            else:
                break
        lefts.append(boundary(stack[-1], s) if stack else -math.inf)
        stack.append(s)

    node_idx, sites, lows, highs = [], [], [], []
    for pos_in_stack, site in enumerate(stack):
        lo = lefts[pos_in_stack]
        hi = lefts[pos_in_stack + 1] if pos_in_stack + 1 < len(stack) else 1.0
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        if hi > lo:
            node_idx.append(site % k)
            sites.append(positions[site])
            lows.append(lo)
            highs.append(hi)
    return (np.array(node_idx), np.array(sites),
            np.array(lows), np.array(highs))


def _cdf_eval(nu: GridMeasure, points: np.ndarray) -> np.ndarray:
    """CDF of a 1-d grid measure at points in [0,1] (piecewise linear)."""
    k = nu.resolution
    masses = nu.masses()
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    pts = np.clip(points, 0.0, 1.0)
    cell = np.minimum((pts * k).astype(np.int64), k - 1)
    frac = pts * k - cell
    return cum[cell] + frac * masses[cell]


def w2_circle(mu, nu) -> float:
    """Squared Wasserstein distance of two probability measures on the circle.

    Takes two discrete measures, or one discrete measure and one 1-d torus
    grid measure in either order (grid pairs are refused). W2^2 is the
    minimum over the cut offset alpha in [-1, 1] of the integral over t of
    (Q_mu(t) - Q_nu(t + alpha))^2, Q_nu gaining 1 per wrap (Delon, Salomon
    & Sobolevski 2010). Two discrete measures go to `w2_circle_atoms`.

    Against a grid nu the quantile is piecewise linear, so the cost is
    convex and piecewise quadratic in alpha, with breaks where T_mu(i) +
    alpha meets a knot T_nu(j) + n of nu's cumulative weights. Its slope
    D(alpha) = 1 + 2 Q(alpha) - 2 sum_i x_i [Q(T_i + alpha) - Q(T_{i-1} +
    alpha)] is nondecreasing and linear on each piece. Bisection jumps to
    the ends of the piece holding its midpoint until a piece holds the zero
    of D (or D changes sign at a break); the cost there comes from the
    wrap-extended primitives of Q and Q^2. Cells with zero density are
    skipped, which makes Q jump over them.
    """
    if isinstance(mu, GridMeasure):
        mu, nu = nu, mu
    if isinstance(mu, GridMeasure):
        raise ValueError("w2_circle takes two discrete measures, or one "
                         "discrete and one grid measure, not two grids")
    pts = mu.points.reshape(-1)
    order = np.argsort(pts, kind="stable")
    x, weights = pts[order], mu.weights[order]
    if not isinstance(nu, GridMeasure):
        return float(w2_circle_atoms(x, weights, nu.points.reshape(-1),
                                     nu.weights)[0])
    if nu.dim != 1 or nu.kind != "torus":
        raise ValueError("w2_circle needs a 1-d torus grid measure")
    k = nu.resolution
    masses = nu.masses() / nu.total_mass()
    keep = masses > 0.0
    edges = np.arange(k + 1) / k
    mass, left, right = masses[keep], edges[:-1][keep], edges[1:][keep]
    rho = mass * k
    t_mu = np.concatenate([[0.0], np.cumsum(weights / weights.sum())])
    t_nu = np.concatenate([[0.0], np.cumsum(mass)])
    t_mu[-1] = t_nu[-1] = 1.0
    m1 = np.concatenate([[0.0], np.cumsum(mass * (left + right) / 2)])
    m2 = np.concatenate([[0.0], np.cumsum(
        mass * (left * left + left * right + right * right) / 3)])

    def locate(u):  # charged cell, offset into it and Q at u in [0, 1]
        j = np.minimum(np.searchsorted(t_nu, u, side="right") - 1, len(mass) - 1)
        delta = u - t_nu[j]
        return j, delta, left[j] + delta / rho[j]

    def inner(u):  # integrals of Q and Q^2 over [0, u]
        j, delta, y = locate(u)
        a = left[j]
        return (m1[j] + delta * (a + y) / 2,
                m2[j] + delta * (a * a + a * y + y * y) / 3)

    lo, hi = -1.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        wraps = np.floor(t_mu + mid)
        u = t_mu + mid - wraps
        j, delta, y = locate(u)
        q, dq = y + wraps, 1.0 / rho[j]
        slope = 2.0 * dq[0] - 2.0 * x @ np.diff(dq)
        alpha = mid - (1.0 + 2.0 * q[0] - 2.0 * x @ np.diff(q)) / slope
        lower = max(mid - np.min(delta), lo)
        upper = min(mid + np.min(t_nu[j + 1] - u), hi)
        if lower <= alpha <= upper:
            break
        bracket = (upper, hi) if alpha > upper else (lo, lower)
        if bracket == (lo, hi) or bracket[0] >= bracket[1]:
            alpha = min(max(alpha, lo), hi)
            break
        lo, hi = bracket
    p1, p2 = circle_primitives(t_mu + alpha, inner)
    cost = (x * x) @ np.diff(t_mu) - 2.0 * x @ np.diff(p1) + p2[-1] - p2[0]
    return max(float(cost), 0.0)


# ---------------------------------------------------------------------------
# The transport operator
# ---------------------------------------------------------------------------


def _lifted_conjugate_scan(f: GridFunction, points: np.ndarray):
    """(values, argmin nodes) of min over x of [d(x,y)^2 + f(x)] on the torus.

    The minimum over integer shifts is folded into a classical scan over
    3^d lifted copies of the nodes; ties break by the first (lexicographic)
    lifted node, so the map is deterministic.
    """
    nodes = f.nodes()
    k_total = len(nodes)
    d = f.dim
    shifts = np.array(
        np.meshgrid(*([[-1.0, 0.0, 1.0]] * d), indexing="ij")
    ).reshape(d, -1).T
    lifted = (nodes[None, :, :] + shifts[:, None, :]).reshape(-1, d)
    owner = np.tile(np.arange(k_total), len(shifts)).reshape(len(shifts), -1)
    owner = owner.reshape(-1)
    fvals = np.tile(f.values.reshape(-1), len(shifts))

    points = np.atleast_2d(points)
    sq = np.sum(lifted * lifted, axis=1)
    out_val = np.empty(len(points))
    out_node = np.empty(len(points), dtype=np.int64)
    chunk = max(1, (1 << 22) // max(len(lifted), 1))
    for lo in range(0, len(points), chunk):
        ys = points[lo:lo + chunk]
        # |y - x|^2 + f = |y|^2 - 2<x,y> + |x|^2 + f
        scores = (np.sum(ys * ys, axis=1)[:, None]
                  - 2.0 * ys @ lifted.T + (sq + fvals)[None, :])
        pick = np.argmin(scores, axis=1)
        out_val[lo:lo + chunk] = scores[np.arange(len(ys)), pick]
        out_node[lo:lo + chunk] = owner[pick]
    return out_val, out_node


def _torus_subsample(nu: GridMeasure, r: int):
    """Symmetric r^d-point quadrature cloud inside each nu cell."""
    centers = nu.centers()
    h = 1.0 / nu.resolution
    offs1 = ((np.arange(r) + 0.5) / r - 0.5) * h
    offs = np.array(np.meshgrid(*([offs1] * nu.dim), indexing="ij"))
    offs = offs.reshape(nu.dim, -1).T
    pts = (centers[:, None, :] + offs[None, :, :]).reshape(-1, nu.dim) % 1.0
    weights = np.repeat(nu.masses(), r ** nu.dim) / float(r ** nu.dim)
    return pts, weights


def _torus_pair(theta: Union[Potential, GridFunction],
                nu: GridMeasure) -> GridFunction:
    """The potential's grid function, once both it and nu are on the torus."""
    f = _as_grid_function(theta)
    if f.kind != "torus":
        raise ValueError("the potential must live on the torus")
    if nu.kind != "torus" or nu.dim != f.dim:
        raise ValueError("nu must be a torus measure of matching dimension")
    return f


def ma_operator(theta: Union[Potential, GridFunction],
                nu: GridMeasure) -> GridMeasure:
    """Pushforward of nu under the transport map of the potential.

    Torus, d = 1: exact power-diagram intervals, nu-masses by closed-form
    CDF differences (no histogram granularity). Torus, d = 2: nu cells are
    subsampled at 3^d symmetric points each, every subpoint assigned to
    its argmin node (mass quantum cellmass/3^d; the subsampling keeps the
    assignment responsive to sub-cell boundary moves, which the descent
    solver needs).

    The output lives on the potential's grid and carries total mass 1.
    """
    f = _torus_pair(theta, nu)
    k = f.resolution
    if f.dim == 1:
        node_idx, _, lows, highs = _power_cells_1d(f.values.reshape(-1))
        cell_mass = _cdf_eval(nu, highs) - _cdf_eval(nu, lows)
        masses = np.zeros(k)
        np.add.at(masses, node_idx, cell_mass)
    else:
        pts, weights = _torus_subsample(nu, D2_SUBSAMPLE)
        _, owners = _lifted_conjugate_scan(f, pts)
        masses = np.zeros(k ** f.dim)
        np.add.at(masses, owners, weights)
    density = masses.reshape((k,) * f.dim) * (k ** f.dim)
    return GridMeasure(dim=f.dim, resolution=k, density=density, kind="torus")


def transport_map_1d(theta: Union[Potential, GridFunction],
                     points: np.ndarray) -> np.ndarray:
    """T_f at given torus points: the owning node of each point, mod 1."""
    f = _as_grid_function(theta)
    if f.kind != "torus" or f.dim != 1:
        raise ValueError("transport map helper is 1-d torus only")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    _, owners = _lifted_conjugate_scan(f, pts)
    return f.nodes()[owners]


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


def j_functional(theta: Union[Potential, GridFunction],
                 nu: GridMeasure) -> float:
    """Dual-side potential energy.

    The integral of g_f(y) = -min_x [d(x,y)^2 + f(x)] against nu: exact in
    d = 1 (piecewise-quadratic integrand over power cells, cubic
    antiderivative per nu cell), the same subsampled cell quadrature as
    ma_operator in d = 2 (so dJ/dtheta_i = -mass_i holds at quadrature
    level). Adding a constant c to the potential lowers the value by
    exactly c.
    """
    f = _torus_pair(theta, nu)
    if f.dim == 1:
        return _j_exact_1d(f, nu)
    pts, weights = _torus_subsample(nu, D2_SUBSAMPLE)
    vals, _ = _lifted_conjugate_scan(f, pts)
    return float(np.sum(-vals * weights))


def _j_exact_1d(f: GridFunction, nu: GridMeasure) -> float:
    values = f.values.reshape(-1)
    node_idx, sites, lows, highs = _power_cells_1d(values)
    total = 0.0
    kn = nu.resolution
    nu_masses = nu.masses()
    for node, site, lo, hi in zip(node_idx, sites, lows, highs):
        # split [lo, hi) at nu cell edges; density constant per piece
        first = int(math.floor(lo * kn))
        last = min(int(math.ceil(hi * kn)), kn)
        edges = [lo] + [e / kn for e in range(first + 1, last)
                        if lo < e / kn < hi] + [hi]
        for a, b in zip(edges[:-1], edges[1:]):
            cell = min(int((0.5 * (a + b)) * kn), kn - 1)
            rho = nu_masses[cell] * kn  # density on the piece
            integral = ((b - site) ** 3 - (a - site) ** 3) / 3.0
            total += rho * integral + rho * (b - a) * values[node]
    return -total


def tilt_measure(theta: Union[Potential, GridFunction],
                 beta: float, mu0: GridMeasure) -> GridMeasure:
    """The Gibbs tilt e^{beta theta} mu0, normalized, on mu0's grid."""
    f = _as_grid_function(theta)
    if f.resolution != mu0.resolution or f.dim != mu0.dim:
        raise ValueError("potential and mu0 live on different grids")
    logs = beta * f.values.reshape(-1)
    logs = logs - np.max(logs)
    raw = np.exp(logs) * mu0.masses()
    total = raw.sum()
    if total <= 0.0:
        raise ValueError("tilt has no mass; mu0 vanishes everywhere relevant")
    masses = raw / total
    density = masses.reshape(mu0.density.shape) * (mu0.resolution ** mu0.dim)
    return GridMeasure(dim=mu0.dim, resolution=mu0.resolution, density=density,
                       kind=mu0.kind,
                       bounds=mu0.bounds if mu0.kind == "box" else ())


@dataclass(frozen=True)
class MasterParams:
    """Problem data and solver knobs for the master equation.

    nu defaults to the uniform density on mu0's grid. beta may take any
    sign; existence for beta < 0 is not claimed, the solver simply reports
    non-convergence outside its range. Both measures must share one torus
    grid (the solver's state space).
    """

    beta: float
    mu0: GridMeasure
    nu: Optional[GridMeasure] = None
    damping: float = 0.5
    max_iter: int = 400
    residual_tol: float = 1e-9
    scheme: str = "auto"

    def __post_init__(self):
        if self.mu0.kind != "torus":
            raise ValueError("the master equation is posed on the torus")
        if not self.mu0.is_probability:
            raise ValueError("mu0 must be a probability measure")
        nu = self.nu
        if nu is None:
            nu = GridMeasure.uniform(dim=self.mu0.dim,
                                     resolution=self.mu0.resolution)
            object.__setattr__(self, "nu", nu)
        if (nu.kind, nu.dim, nu.resolution) != ("torus", self.mu0.dim,
                                                self.mu0.resolution):
            raise ValueError("mu0 and nu must share one torus grid")
        if not nu.is_probability:
            raise ValueError("nu must be a probability measure")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.scheme not in ("auto", "cells", "descent"):
            raise ValueError("scheme must be auto, cells, or descent")

    @property
    def dim(self) -> int:
        return self.mu0.dim

    @property
    def resolution(self) -> int:
        return self.mu0.resolution

    def effective_scheme(self) -> str:
        if self.scheme != "auto":
            return self.scheme
        return "cells" if self.dim == 1 else "descent"


def f_functional(theta: Union[Potential, GridFunction],
                 params: MasterParams) -> float:
    """(1/beta) log integral(e^{beta theta} mu0) + J_nu(theta).

    At beta = 0 the first term degenerates to its derivative limit, the
    plain mu0-average of theta. Invariant under adding constants to theta.
    """
    f = _as_grid_function(theta)
    j = j_functional(f, params.nu)
    if params.beta == 0.0:
        mean = float(np.sum(f.values.reshape(-1) * params.mu0.masses()))
        return mean + j
    return log_mgf(params.mu0, params.beta * f.values.reshape(-1)) / params.beta + j


def f_gradient_residual(theta: Union[Potential, GridFunction],
                        params: MasterParams) -> float:
    """Total-variation norm of (Gibbs tilt - MA_nu theta).

    This signed measure is the Gateaux gradient of the free energy; the
    master equation says it vanishes. The norm is the full absolute mass
    of the difference (not halved).
    """
    f = _as_grid_function(theta)
    tilt = tilt_measure(f, params.beta, params.mu0)
    ma = ma_operator(f, params.nu)
    return float(np.sum(np.abs(tilt.masses() - ma.masses())))


# ---------------------------------------------------------------------------
# Master-equation solver
# ---------------------------------------------------------------------------


class SolverError(RuntimeError):
    """Non-convergence, carrying the residual trace for diagnosis."""

    def __init__(self, message: str, residuals):
        super().__init__(message)
        self.residuals = tuple(residuals)


def _invert_cells_1d(masses: np.ndarray, nu: GridMeasure) -> np.ndarray:
    """Potential whose power cells carry exactly the given nu-masses.

    Cyclic consistency pins the quantile anchor: the boundary positions
    must sum to the node midpoints' sum, a strictly increasing condition
    solved by bisection. Needs every target mass positive.
    """
    k = len(masses)
    if np.any(masses <= 0.0):
        raise ValueError("cell inversion needs strictly positive masses")
    h = 1.0 / k
    mids = (np.arange(k) + 1.0) * h  # boundary targets: node_i + h/2
    target_sum = float(np.sum(mids))
    cum = np.cumsum(masses)
    total = nu.total_mass()
    knots_t = np.concatenate([[0.0], np.cumsum(nu.masses())])
    knots_t[-1] = total
    knots_x = np.arange(nu.resolution + 1) / nu.resolution

    def boundaries(s: float) -> np.ndarray:
        # nu's piecewise-linear quantile at s + cum, gaining 1 per wrap
        t = s + cum
        wraps = np.floor(t)
        frac = np.clip((t - wraps) * total, 0.0, total)
        return np.interp(frac, knots_t, knots_x) + wraps

    lo, hi = -1.0, 1.0
    # g(s) = sum b_i(s) - target is nondecreasing with g(s+1) = g(s) + k
    while np.sum(boundaries(lo)) > target_sum:
        lo -= 1.0
    while np.sum(boundaries(hi)) < target_sum:
        hi += 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        bracket = (mid, hi) if np.sum(boundaries(mid)) < target_sum else (lo, mid)
        if bracket == (lo, hi):
            break  # each step depends only on (lo, hi): a fixed point
        lo, hi = bracket
    b = boundaries(0.5 * (lo + hi))
    increments = 2.0 * h * (b - mids)
    values = np.concatenate([[0.0], np.cumsum(increments[:-1])])
    return values


def _descent_lift(mismatch: np.ndarray, beta: float) -> np.ndarray:
    """Potential-space lift of the density mismatch (descent scheme).

    Cell masses respond to the potential through the second-difference
    boundary operator: a face between axis neighbors carries nu-measure
    ~ h^{d-1} and shifts by (df_j - df_i)/(2h), so the per-axis eigenvalue
    is -2 k^{2-d} sin^2. The Gibbs tilt responds through beta times its
    own mass. The lift inverts that linearized response in Fourier space,
    which is a convolution with the operator's Green kernel. A bare
    one-cell average in place of the inverse is unstable: the high modes
    of the boundary response grow like the resolution, so any step large
    enough to move the low modes scrambles the assignment.
    """
    k = mismatch.shape[0]
    dim = mismatch.ndim
    sq = np.sin(np.pi * np.fft.fftfreq(k)) ** 2
    lam = np.zeros(mismatch.shape)
    for axis in range(dim):
        shape = [1] * dim
        shape[axis] = k
        lam = lam + sq.reshape(shape)
    lam = -2.0 * float(k) ** (2 - dim) * lam - beta / float(k ** dim)
    # beta < 0 can push low modes toward singularity; clamp keeps the
    # lift finite and the damping loop does the rest
    lam = np.minimum(lam, -1e-12)
    hat = np.fft.fftn(mismatch) / lam
    hat[(0,) * dim] = 0.0
    delta = np.real(np.fft.ifftn(hat))
    return -delta


def solve_master(params: MasterParams,
                 initial: Optional[Potential] = None) -> Potential:
    """Solve MA_nu f = e^{beta f} mu0 / Z to the requested residual.

    The cells scheme (1-d) alternates the Gibbs tilt with an exact power
    cell inversion, damped and backtracked so the free energy does not
    increase; the descent scheme steps against the smoothed density
    mismatch. Output is mean-zero under nu and carries the iteration log
    as (iteration, residual, free energy, step) tuples. Non-convergence
    raises :class:`SolverError` with the residual trace.
    """
    k = params.resolution
    if initial is None:
        f = GridFunction(dim=params.dim, resolution=k,
                         values=np.zeros((k,) * params.dim), kind="torus")
        current = normalize_potential(f, params.nu)
    else:
        current = normalize_potential(initial.f, params.nu)
    scheme = params.effective_scheme()
    if scheme == "cells" and params.dim != 1:
        raise ValueError("the cells scheme is 1-d only")

    log = []
    residual = f_gradient_residual(current, params)
    f_value = f_functional(current, params)
    best_residual, best_iter = residual, 0
    for it in range(params.max_iter):
        log.append((it, residual, f_value, params.damping))
        if residual <= params.residual_tol:
            return dataclasses.replace(current, log=tuple(log))

        tilt = tilt_measure(current, params.beta, params.mu0).masses()
        ma = ma_operator(current, params.nu).masses()
        step = params.damping
        improved = None
        for _ in range(40):
            if scheme == "cells":
                blend = (1.0 - step) * ma + step * tilt
                blend = np.maximum(blend, 1e-300)
                blend = blend / blend.sum()
                values = _invert_cells_1d(blend, params.nu)
                trial_f = GridFunction(dim=1, resolution=k, values=values,
                                       kind="torus")
            else:
                mismatch = (tilt - ma).reshape((k,) * params.dim)
                lift = _descent_lift(mismatch, params.beta)
                trial_f = GridFunction(
                    dim=params.dim, resolution=k,
                    values=current.values - step * lift, kind="torus")
            trial = normalize_potential(trial_f, params.nu)
            trial_res = f_gradient_residual(trial, params)
            trial_val = f_functional(trial, params)
            if scheme == "cells":
                accept = trial_res <= residual or trial_val <= f_value + 1e-15
            else:
                # assignment masses are quantized, so the free energy is
                # too flat to arbitrate; insist on residual progress
                accept = trial_res <= residual
            if accept:
                improved = (trial, trial_res, trial_val)
                break
            step *= 0.5
        if improved is None:
            message = (f"no admissible step at iteration {it} "
                       f"(residual {residual:.3e})")
            if scheme == "descent":
                floor = (1.0 / D2_SUBSAMPLE) ** params.dim
                message += (f"; the subsampled assignment cannot resolve "
                            f"residuals much below {floor:.2f}, raise "
                            f"residual_tol or D2_SUBSAMPLE")
            raise SolverError(message, [r for _, r, _, _ in log])
        current, residual, f_value = improved
        if residual < best_residual * (1.0 - 1e-6):
            best_residual, best_iter = residual, it + 1
        elif scheme == "descent" and it + 1 - best_iter >= 40:
            log.append((it + 1, residual, f_value, step))
            raise SolverError(
                f"stalled at residual {residual:.3e} (quantized assignment "
                f"floor; raise residual_tol above it)",
                [r for _, r, _, _ in log])

    log.append((params.max_iter, residual, f_value, params.damping))
    if residual <= params.residual_tol:
        return dataclasses.replace(current, log=tuple(log))
    raise SolverError(
        f"master equation not converged after {params.max_iter} iterations "
        f"(residual {residual:.3e}, tolerance {params.residual_tol:.1e})",
        [r for _, r, _, _ in log])


# ---------------------------------------------------------------------------
# Rate function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateValue:
    """Rate-function evaluation split into its three components."""

    beta_w2: float
    ent: float
    constant: float

    def __post_init__(self):
        if self.value < -1e-9:
            raise ValueError(f"rate value {self.value!r} below -1e-9")

    @property
    def value(self) -> float:
        return self.beta_w2 + self.ent + self.constant

    @property
    def components(self) -> tuple:
        return (self.beta_w2, self.ent, self.constant)

    def __float__(self) -> float:
        return float(self.value)


def _as_grid_measure(mu, like: GridMeasure) -> GridMeasure:
    """Cell histogram of a discrete measure on a reference grid."""
    if isinstance(mu, GridMeasure):
        return mu
    flat = np.ravel_multi_index(like.cell_indices(mu.points).T,
                                (like.resolution,) * like.dim)
    masses = np.bincount(flat, weights=mu.weights,
                         minlength=like.resolution ** like.dim)
    density = masses.reshape(like.density.shape) / like.cell_volume()
    return GridMeasure(dim=like.dim, resolution=like.resolution,
                       density=density, kind=like.kind,
                       bounds=like.bounds if like.kind == "box" else (),
                       is_probability=mu.total_mass() > 1.0 - 1e-9)


def w2_to_reference(mu, nu: GridMeasure) -> float:
    """W2^2 between a probability measure and a 1-d/2-d torus grid density.

    Grid arguments are read as atoms at their cell centers: the transport
    machinery places mass exactly on the node lattice, and the duality
    bracket is an identity only under that convention (spreading the mass
    over cells shifts the cost by an O(h^2) quantization term).
    """
    if isinstance(mu, GridMeasure):
        from .measures import torus_domain

        mu = DiscreteMeasure(points=mu.centers(), weights=mu.masses(),
                             domain=torus_domain(mu.dim))
    if nu.dim == 1:
        return w2_circle(mu, nu)
    from .transport import w2_semidiscrete

    return w2_semidiscrete(nu, mu)


def rate_function_g(mu, params: MasterParams, phi_min: Potential) -> RateValue:
    """beta W2^2(mu, nu) + Ent(mu0, mu) + beta F(phi_min).

    The constant is exactly the offset that zeroes the minimum, attained
    at mu = MA_nu phi_min. Discrete arguments contribute their W2^2
    directly; their entropy term reads from the cell histogram on mu0's
    grid. Measures charging a cell where mu0 vanishes get +inf.
    """
    return _rate_value(mu, params, params.beta * f_functional(phi_min, params))


def _rate_value(mu, params: MasterParams, constant: float) -> RateValue:
    """`rate_function_g` with its constant beta F(phi_min) already known."""
    w2 = w2_to_reference(mu, params.nu)
    ent = entropy(params.mu0, _as_grid_measure(mu, params.mu0))
    return RateValue(beta_w2=params.beta * w2, ent=ent, constant=constant)


@dataclass(frozen=True)
class ConsistencyReport:
    """Certificates tying the solver output to the rate function."""

    beta: float
    residual_tv: float
    bracket_gap: float
    entropy_gap: float
    rate_at_minimizer: float
    min_probe_value: float
    probes: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return (self.residual_tv <= self.tolerance
                and abs(self.bracket_gap) <= self.tolerance
                and abs(self.entropy_gap) <= self.tolerance
                and self.rate_at_minimizer <= self.tolerance
                and self.min_probe_value > self.rate_at_minimizer)


def gprop_consistency(params: MasterParams, probes: int = 50, seed: int = 0,
                      tolerance: float = 1e-5,
                      phi_min: Optional[Potential] = None) -> ConsistencyReport:
    """Verify the master equation, both duality equalities, and minimality.

    Certificates: TV residual of the master equation; the transport
    bracket W2^2 + J + <f, mu> at the fixed point (zero exactly at the
    minimizer); the entropy duality gap Ent - (beta <phi, mu> - I(beta
    phi)); and a probe sweep showing the rate function is strictly larger
    at perturbed measures. The rate function's constant beta F(phi_min) is
    computed once for the minimiser and every probe.
    """
    if phi_min is None:
        phi_min = solve_master(params)
    mu_min = ma_operator(phi_min, params.nu)

    residual_tv = f_gradient_residual(phi_min, params)

    w2 = w2_to_reference(mu_min, params.nu)
    j = j_functional(phi_min, params.nu)
    pairing = float(np.sum(phi_min.values.reshape(-1) * mu_min.masses()))
    bracket_gap = w2 + j + pairing

    ent = entropy(params.mu0, mu_min)
    if params.beta == 0.0:
        i_term = 0.0
    else:
        i_term = log_mgf(params.mu0, params.beta * phi_min.values.reshape(-1))
    entropy_gap = ent - (params.beta * pairing - i_term)

    constant = params.beta * f_functional(phi_min, params)
    rate_min = _rate_value(mu_min, params, constant).value

    rng = np.random.default_rng(seed)
    k = params.resolution
    best = math.inf
    for _ in range(probes):
        bump = rng.normal(0.0, 0.35, size=(k,) * params.dim)
        masses = mu_min.masses() * np.exp(bump.reshape(-1))
        masses = masses / masses.sum()
        probe = GridMeasure(dim=params.dim, resolution=k,
                            density=masses.reshape((k,) * params.dim)
                            * (k ** params.dim), kind="torus")
        best = min(best, _rate_value(probe, params, constant).value)
    return ConsistencyReport(beta=params.beta, residual_tv=residual_tv,
                             bracket_gap=bracket_gap, entropy_gap=entropy_gap,
                             rate_at_minimizer=rate_min,
                             min_probe_value=best, probes=probes,
                             tolerance=tolerance)
