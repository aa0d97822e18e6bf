"""Transport operator, master equation, and the transport-entropy rate function.

Everything here lives on the circle, the one-dimensional torus [0,1). The
central object is the operator

    MA_nu f = (T_f)_# nu,    T_f(y) = argmin_x [ d(x,y)^2 + f(x) ],

the pushforward of a reference density nu under the transport map of the
potential f. The argmin regions are computed exactly: they form a power
diagram of the grid nodes (lifted by integer shifts for the wrap), each
cell an interval whose nu-mass has a closed form. That keeps the
master-equation residual at solver precision instead of at histogram
granularity. A potential is a torus :class:`GridFunction`; the solver's
output is its subclass :class:`Potential`, which adds the iteration log
and its last evaluation, so every function here takes either. Potentials on
higher-dimensional tori are refused until an exact operator for them
exists.

The same scan gives the dual energy J_nu(f), the nu-integral of
-min_x [d(x,y)^2 + f(x)], and its envelope identity dJ/df_i = -(MA_nu f)_i
ties the two together; `_transport` returns both at once, J from the
factored cubic difference (b - a)(u^2 + u v + v^2) / 3 on each piece.
The solver and its certificates read the tilt, the pushforward, J, the
log-MGF, the free energy and the residual of a potential from one
evaluation of that scan, one per potential: the certificates read the one
the solver's last step accepted. Tilt and pushforward are cell-mass
arrays, which is what a grid measure holds, and a pushforward is wrapped
in one only where it leaves this module.

The master equation couples the operator to a Gibbs tilt,

    MA_nu f = e^{beta f} mu0 / integral(e^{beta f} mu0),

which `solve_master` solves by damped Newton on the cell masses m: the
potential is the exact power-cell inversion Inv(m), and the Newton system
of the residual m - tilt(Inv(m)) becomes, through the power cells' own
derivative, a cyclic tridiagonal one. So each step costs O(k) and a solve
takes a few steps at every beta. Inv(m) puts each cell boundary at nu's
quantile of its mass coordinate, shifted by one anchor; the anchor comes
from the same piece search that finds circle W2's cut offset, and where
nu has empty cells a boundary may sit inside one. The solution
phi_min calibrates the rate function

    G(mu) = beta W2^2(mu, nu) + Ent(mu0, mu) + beta F(phi_min),

which vanishes exactly at mu = MA_nu phi_min and is positive elsewhere;
its certificates evaluate G at the minimiser and on all their probes in
one stacked W2 pass, the minimiser as row 0.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .legendre import GridFunction
from .measures import GridMeasure, cell_nodes, entropy, log_mgf
from .transport import (_piece_search, _Quantile, _w2_circle_rows,
                        w2_circle_atoms)

NORMALIZATION_TOL = 1e-10
# slack of every certificate of gprop_consistency
CONSISTENCY_TOL = 1e-5
# accepted steps after the first full Newton step without a new lowest
# residual before the solver gives up: the residual is at its rounding floor
STALL_STEPS = 3
# rows left to the Newton step's dense pivoted solve: elimination without
# pivoting then stays on arcs whose lowest mode crosses zero only below
# beta = -(pi^2 / 8) REDUCED_ROWS^2, about -1,260, on uniform data
REDUCED_ROWS = 32


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Potential(GridFunction):
    """A torus grid function in the mean-zero gauge under nu.

    :func:`normalize_potential` and every solver step enforce the gauge;
    finiteness comes with the :class:`GridFunction`. Solver output carries
    its iteration log in ``log`` and, in ``evaluation``, the params, values
    and evaluation (tilt, pushforward, J, log-MGF, F, residual) of its last
    step. :func:`gprop_consistency` reads that only for the same params
    object and equal values (``dataclasses.replace`` copies the field).
    """

    log: tuple = ()
    evaluation: tuple = field(default=(), repr=False)


def nu_mean(theta: GridFunction, nu: GridMeasure) -> float:
    """Integral of the potential against nu (grids must agree)."""
    if theta.resolution != nu.resolution or theta.dim != nu.dim:
        raise ValueError("potential and nu live on different grids")
    return float(np.sum(theta.values.reshape(-1) * nu.masses))


def normalize_potential(theta: GridFunction, nu: GridMeasure) -> Potential:
    """Shift to the mean-zero gauge under nu, verified to 1e-10."""
    out = Potential(dim=theta.dim, resolution=theta.resolution,
                    values=theta.values - nu_mean(theta, nu))
    if abs(nu_mean(out, nu)) > NORMALIZATION_TOL:
        raise RuntimeError("normalization did not land within tolerance")
    return out


# ---------------------------------------------------------------------------
# One-dimensional power diagrams (exact transport cells on the circle)
# ---------------------------------------------------------------------------


def _power_cells_1d(values: np.ndarray):
    """Exact argmin intervals of min_i [ (y - x_i)^2 + f_i ] on [0,1).

    Nodes are lifted by shifts m in {-1,0,1}. Each pass computes the
    equal-cost boundaries of all neighbouring kept sites at once and drops
    every site whose interval closes before it opens: such a site lies on
    or above the chord of its neighbours, so it serves no point whatever
    else is dropped. Passes repeat until none is dropped (the pooled cells
    of nodes beaten everywhere are gone). Returns (node index, serving site
    position, low, high) arrays with the intervals clipped to [0,1) and
    the lows strictly increasing.
    """
    k = len(values)
    nodes = cell_nodes(0.0, 1.0, k)
    positions = np.concatenate([nodes - 1.0, nodes, nodes + 1.0])
    weights = np.concatenate([values, values, values])
    kept = np.arange(3 * k)
    while True:
        p, w = positions[kept], weights[kept]
        # equal-cost point of each kept site and its right neighbour
        b = 0.5 * (p[:-1] + p[1:]) + (w[1:] - w[:-1]) / (2.0 * (p[1:] - p[:-1]))
        empty = b[1:] <= b[:-1]
        if not empty.any():
            break
        kept = kept[np.concatenate([[True], ~empty, [True]])]
    lows = np.maximum(np.concatenate([[-math.inf], b]), 0.0)
    highs = np.minimum(np.concatenate([b, [1.0]]), 1.0)
    live = highs > lows
    return kept[live] % k, p[live], lows[live], highs[live]


def _cdf_eval(masses: np.ndarray, points: np.ndarray) -> np.ndarray:
    """CDF of 1-d grid cell masses at points in [0,1] (piecewise linear)."""
    k = len(masses)
    cum = np.concatenate([[0.0], masses.cumsum()])
    pts = np.clip(points, 0.0, 1.0)
    cell = np.minimum((pts * k).astype(np.int64), k - 1)
    frac = pts * k - cell
    return cum[cell] + frac * masses[cell]


def w2_circle(mu, nu) -> float:
    """Squared Wasserstein distance of two probability measures on the circle.

    Takes two discrete measures (`w2_circle_atoms`), or one discrete and one
    1-d torus grid measure in either order (`_w2_circle_rows`); grid pairs
    are refused.
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
    if nu.dim != 1:
        raise ValueError("w2_circle needs a 1-d grid measure")
    return float(_w2_circle_rows(x, weights[None, :], nu)[0])


# ---------------------------------------------------------------------------
# The transport operator
# ---------------------------------------------------------------------------


def _torus_pair(f: GridFunction, nu: GridMeasure) -> None:
    """Refuse all but a circle potential on nu's torus: the one place the
    operator refuses other dimensions."""
    if f.dim != 1:
        raise ValueError(f"the transport operator is exact in dimension 1 "
                         f"only, not in dimension {f.dim}")
    if nu.dim != f.dim:
        raise ValueError("nu must be a measure of matching dimension")


def _transport(f: GridFunction, nu: GridMeasure):
    """(cell masses of MA_nu f, J_nu(f)) from one scan of the power cells.

    The argmin regions are the exact power-diagram intervals of the
    circle. They tile [0, 1), each cell's high edge the next one's low, so
    nu's CDF is read once at the k + 1 edges and a cell's nu-mass is the
    difference across it; a node serving two cells (through the wrap) adds
    both in order. J integrates the piecewise-quadratic integrand over
    each interval split at nu's cell edges: on a piece [a, b] served from
    s, the integral of (y - s)^2 is (b - a)(u^2 + u v + v^2) / 3 with u =
    b - s and v = a - s (:func:`_square_integrals`), the factored cubic
    difference, which keeps its digits on pieces as narrow as 1/k^2. So
    dJ/df_i = -mass_i holds exactly.
    """
    values, nu_masses = f.values, nu.masses
    node_idx, sites, lows, highs = _power_cells_1d(values)
    edges = np.concatenate([lows, highs[-1:]])
    masses = np.bincount(node_idx, weights=np.diff(_cdf_eval(nu_masses, edges)),
                         minlength=f.resolution)
    # split all cells at nu's cell edges at once, the density being
    # constant on each piece
    kn = nu.resolution
    cuts = np.unique(np.concatenate([edges, np.arange(1, kn) / kn]))
    a, b = cuts[:-1], cuts[1:]
    owner = lows.searchsorted(a, side="right") - 1
    site = sites[owner]
    rho = nu_masses[np.minimum((0.5 * (a + b) * kn).astype(np.int64),
                                 kn - 1)] * kn
    return masses, -float((rho * _square_integrals(a, b, site)
                           + rho * (b - a) * values[node_idx[owner]]).sum())


def _square_integrals(a: np.ndarray, b: np.ndarray,
                      s: np.ndarray) -> np.ndarray:
    """Integral of (y - s)^2 over each [a, b]: the cubic difference ((b -
    s)^3 - (a - s)^3) / 3 in its factored form (b - a)(u^2 + u v + v^2) / 3,
    u = b - s and v = a - s, which cancels no two nearly equal cubes."""
    u, v = b - s, a - s
    return (b - a) * (u * u + u * v + v * v) / 3.0


def ma_operator(f: GridFunction, nu: GridMeasure) -> GridMeasure:
    """Pushforward of nu under the transport map of the potential.

    The cell masses are the exact nu-masses of the potential's power
    cells on the circle (see :func:`_transport`); a potential of another
    dimension raises ValueError. The output lives on the potential's grid
    and carries total mass 1.
    """
    _torus_pair(f, nu)
    return GridMeasure(dim=f.dim, resolution=f.resolution,
                       masses=_transport(f, nu)[0])


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


def j_functional(f: GridFunction, nu: GridMeasure) -> float:
    """Dual-side potential energy.

    The integral of g_f(y) = -min_x [d(x,y)^2 + f(x)] against nu, from the
    same scan as :func:`ma_operator` (see :func:`_transport`), so that
    dJ/df_i = -(MA_nu f)_i. Adding a constant c to the potential lowers the
    value by exactly c.
    """
    _torus_pair(f, nu)
    return _transport(f, nu)[1]


def _tilt_masses(values: np.ndarray, beta: float,
                 mu0_masses: np.ndarray) -> np.ndarray:
    """Cell masses of the Gibbs tilt e^{beta values} mu0, normalized: only
    the cells mu0 charges are exponentiated, shifted by their maximum, so a
    peak where mu0 vanishes underflows none of them."""
    charged = mu0_masses > 0.0
    logs = beta * values.reshape(-1)
    logs -= logs.max(where=charged, initial=-np.inf)
    raw = np.exp(logs, where=charged, out=np.zeros(len(logs))) * mu0_masses
    total = raw.sum()
    if total <= 0.0:
        raise ValueError("tilt has no mass; mu0 vanishes everywhere relevant")
    return raw / total


@dataclass(frozen=True)
class MasterParams:
    """Problem data and solver budget for the master equation.

    nu defaults to the uniform density on mu0's grid. beta may take any
    sign; existence for beta < 0 is not claimed, the solver simply reports
    non-convergence outside its range. Both measures must share one torus
    grid (the solver's state space). max_iter caps the accepted steps and
    residual_tol is the TV residual to reach. The step length is not a
    parameter: each Newton step starts at 1 and halves on rejection.
    Grids of any dimension are accepted here; the operator refuses all
    but the circle when the solver or a certificate first evaluates it.
    """

    beta: float
    mu0: GridMeasure
    nu: Optional[GridMeasure] = None
    max_iter: int = 400
    residual_tol: float = 1e-9

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if not self.residual_tol > 0.0:
            raise ValueError("residual_tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        nu = self.nu
        if nu is None:
            nu = GridMeasure.uniform(dim=self.mu0.dim,
                                     resolution=self.mu0.resolution)
            object.__setattr__(self, "nu", nu)
        if (nu.dim, nu.resolution) != (self.mu0.dim, self.mu0.resolution):
            raise ValueError("mu0 and nu must share one torus grid")

    @property
    def dim(self) -> int:
        return self.mu0.dim

    @property
    def resolution(self) -> int:
        return self.mu0.resolution


class _Evaluation(NamedTuple):
    """What the solver and its certificates read off one potential."""

    tilt: np.ndarray  # cell masses of the Gibbs tilt
    push: np.ndarray  # cell masses of MA_nu f
    j: float  # J_nu(f)
    log_mgf: float  # log integral(e^{beta f} mu0), 0 at beta = 0
    free_energy: float
    residual: float  # TV norm of tilt - push


def _evaluate(f: GridFunction, params: MasterParams) -> _Evaluation:
    """Tilt, pushforward, J, log-MGF, free energy and residual from one
    scan, as cell masses on mu0's grid (which the potential must share)."""
    _torus_pair(f, params.nu)
    if f.resolution != params.mu0.resolution:
        raise ValueError("potential and mu0 live on different grids")
    mu0_masses = params.mu0.masses
    tilt = _tilt_masses(f.values, params.beta, mu0_masses)
    push, j = _transport(f, params.nu)
    flat = f.values.reshape(-1)
    if params.beta == 0.0:
        log_z = 0.0
        free_energy = float((flat * mu0_masses).sum()) + j
    else:
        log_z = log_mgf(mu0_masses, params.beta * flat)
        free_energy = log_z / params.beta + j
    return _Evaluation(tilt=tilt, push=push, j=j, log_mgf=log_z,
                       free_energy=free_energy,
                       residual=float(np.abs(tilt - push).sum()))


def f_functional(f: GridFunction, params: MasterParams) -> float:
    """(1/beta) log integral(e^{beta f} mu0) + J_nu(f).

    At beta = 0 the first term degenerates to its derivative limit, the
    plain mu0-average of f. Invariant under adding constants to f.
    """
    return _evaluate(f, params).free_energy


def f_gradient_residual(f: GridFunction, params: MasterParams) -> float:
    """Total-variation norm of (Gibbs tilt - MA_nu f).

    This signed measure is the Gateaux gradient of the free energy; the
    master equation says it vanishes. The norm is the full absolute mass
    of the difference (not halved).
    """
    return _evaluate(f, params).residual


# ---------------------------------------------------------------------------
# Master-equation solver
# ---------------------------------------------------------------------------


class SolverError(RuntimeError):
    """Non-convergence, carrying the solver's log for diagnosis: its
    (iteration, residual, free energy, step) tuples, and the residuals."""

    def __init__(self, message: str, log):
        super().__init__(message)
        self.log = tuple(log)
        self.residuals = tuple(r for _, r, _, _ in self.log)


def _invert_cells_1d(masses: np.ndarray, nu: GridMeasure):
    """(potential, quantile slopes) for power cells carrying these nu-masses.

    Cyclic consistency pins the quantile anchor s: the boundaries b_j =
    Q_nu(s + c_j), c the cumulative masses, must sum to the node
    midpoints' sum. The sum less its target is nondecreasing and piecewise
    linear in s, its pieces ending where some s + c_j crosses a knot of
    Q_nu, so :func:`_piece_search`, which also finds the cut offset of
    circle W2, finds s: on the master path in 2-3 quantile passes on
    uniform nu and 4-7 on a wavy one, the last pass included.

    Where nu has empty cells Q_nu jumps, and the sum may jump over its
    target: no s then solves it, and the search stops on the jump. The
    boundary at the jump's edge then moves into the gap by the sum's
    excess; no mass lies there, so every cell keeps its mass, and the
    boundaries sum to their target.

    The slopes are Q_nu' at each s + c_j, read from the nu cell that
    charges that mass coordinate, so they stay finite where nu has empty
    cells; :func:`_newton_direction` reads the derivative off them. A
    zero target mass leaves its node's cell a single point, shared with
    both neighbours; raising that node's value by h^2 empties the cell
    strictly, so rounding gives it no mass. The masses must be
    nonnegative and sum to 1.
    """
    k = len(masses)
    if (masses < 0.0).any():
        raise ValueError("cell inversion needs nonnegative masses")
    h = 1.0 / k
    mids = (np.arange(k) + 1.0) * h  # boundary targets: node_i + h/2
    target_sum = float(mids.sum())
    cum = masses.cumsum()
    quantile = _Quantile.of(nu)
    (s,), (on_break,) = _piece_search(
        quantile, cum[None, :],
        lambda q, dq: (q.sum(axis=1) - target_sum, dq.sum(axis=1)))
    j, delta, u, b = quantile.wrapped(s + cum)
    if on_break:  # the boundary nearest a knot sits at the jump's edge
        excess = np.sum(b) - target_sum
        near = np.minimum(delta, quantile.t[j + 1] - u)
        edges = np.flatnonzero(near == near.min())
        # boundaries sharing that knot keep their order: from the jump's
        # top the first moves down into the gap, from its foot the last up
        b[edges[0] if excess > 0.0 else edges[-1]] -= excess
    increments = 2.0 * h * (b - mids)
    values = np.concatenate([[0.0], increments[:-1].cumsum()])
    values[masses == 0.0] += h * h
    return values, 1.0 / quantile.rho[j]


def _cyclic_tridiagonal_solve(lower: np.ndarray, diag: np.ndarray,
                              upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve lower_i x_{i-1} + diag_i x_i + upper_i x_{i+1} = rhs_i, the
    indices taken mod n.

    Odd-even cyclic reduction: each even row takes in its odd neighbours,
    which leaves a cyclic tridiagonal system on the even rows (for odd n,
    rows n - 1 and 0 stay direct neighbours); once that is solved, each odd
    row gives its unknown. Each pass halves the rows, and the last
    REDUCED_ROWS or fewer go to a dense solve with partial pivoting.
    Elimination without pivoting only ever works on arcs of the cycle
    shorter than 2n / REDUCED_ROWS: a longer arc's lowest mode can cross
    zero where the whole system is regular.
    """
    n = len(diag)
    if n <= REDUCED_ROWS:
        rows = np.arange(n)
        dense = np.zeros((n, n))
        # each fill's (row, column) pairs are distinct; at n <= 2 the fills
        # meet on one entry and add in this order
        dense[rows, rows] += diag
        dense[rows, (rows - 1) % n] += lower
        dense[rows, (rows + 1) % n] += upper
        return np.linalg.solve(dense, rhs)
    even = np.arange(0, n, 2)
    left, right = (even - 1) % n, (even + 1) % n
    takes_left, takes_right = left % 2 == 1, right % 2 == 1
    from_left = np.divide(-lower[even], diag[left], where=takes_left,
                          out=np.zeros(len(even)))
    from_right = np.divide(-upper[even], diag[right], where=takes_right,
                           out=np.zeros(len(even)))
    x = np.empty_like(rhs)
    x[even] = _cyclic_tridiagonal_solve(
        np.where(takes_left, from_left * lower[left], lower[even]),
        diag[even] + from_left * upper[left] + from_right * lower[right],
        np.where(takes_right, from_right * upper[right], upper[even]),
        rhs[even] + from_left * rhs[left] + from_right * rhs[right])
    odd = np.arange(1, n, 2)
    x[odd] = (rhs[odd] - lower[odd] * x[odd - 1]
              - upper[odd] * x[(odd + 1) % n]) / diag[odd]
    return x


def _newton_direction(masses: np.ndarray, slopes: np.ndarray,
                      tilt: np.ndarray, beta: float) -> np.ndarray:
    """Newton step for R(m) = m - tilt(Inv(m)) on the cell masses m.

    The tilt moves with the potential by beta (diag t - t t^T), so R has
    Jacobian J = I - beta (diag t - t t^T) DInv(m). Its columns sum to 1;
    the step solves (J + 1 1^T / k) z = t - m, which keeps the sum of z at
    half the residual's sum. Nothing here is k x k.

    The power cells' own derivative undoes DInv: with w_j = k / (2 q_j)
    the weight across boundary j (q the inversion's quantile slopes), the
    cyclic facet tridiagonal (L u)_i = w_i (u_{i+1} - u_i) - w_{i-1} (u_i -
    u_{i-1}) is dm/df, and L DInv = I on sum-zero vectors. So J L = M +
    beta t t^T with M = L - beta diag t, a cyclic tridiagonal matrix with
    M 1 = -beta t. Then:

    1. alpha = sum(t - m) / 2k takes the residual's part along
       (J + 1 1^T / k) 1, whose sum is 2k; the rest y0 sums to zero.
    2. u = M^-1 y0 solves J L u = y0, since t^T u = -1^T y0 / beta = 0.
    3. z = L u + alpha 1 = y0 + beta t u + alpha 1, which needs no second
       differences of u (those would lose digits in proportion to k^2).
       At beta = 0, J = I and z = y0 + alpha 1.
    """
    k = len(masses)
    # (J + 1 1^T / k) 1 = 2 - beta (diag t - t t^T) DInv 1, read off the
    # inversion's derivative 2h (P_i ds_l + max(P_i - P_l, 0))
    prefix = np.concatenate([[0.0], slopes[:-1].cumsum()])
    total = prefix[-1] + slopes[-1]
    below = np.concatenate([[0.0], prefix[:-1].cumsum()])
    dinv_ones = (2.0 / k) * (prefix * ((prefix - total).sum() / total)
                             + np.arange(k) * prefix - below)
    ones_image = 2.0 - beta * tilt * (dinv_ones - tilt @ dinv_ones)
    residual = tilt - masses
    alpha = residual.sum() / (2.0 * k)
    rest = residual - alpha * ones_image
    if beta == 0.0:
        return rest + alpha
    w = k / (2.0 * slopes)
    before = np.concatenate([w[-1:], w[:-1]])  # w_{i-1}
    u = _cyclic_tridiagonal_solve(before, -(w + before) - beta * tilt, w,
                                  rest)
    return rest + beta * tilt * u + alpha


def solve_master(params: MasterParams,
                 initial: Optional[GridFunction] = None) -> Potential:
    """Solve MA_nu f = e^{beta f} mu0 / Z to the requested residual.

    Damped Newton on the cell masses m, the potential being the exact
    power-cell inversion Inv(m): the first step blends the pushforward
    halfway toward the tilt (positive wherever either is), every later one
    solves the Jacobian of m - tilt(Inv(m)) in O(k) time and memory (see
    :func:`_newton_direction`; Kitagawa, Merigot & Thibert 2019). Cells mu0
    does not charge get mass exactly 0 (their nodes are
    hidden: the inversion leaves their cells strictly empty). A step is
    halved until the other masses stay positive and either the residual
    or the free energy does not increase. Each trial potential is
    evaluated once, and the accepted trial's evaluation seeds the next
    iteration; the steps pass cell-mass arrays and build no grid measure.
    Output is mean-zero under nu and carries the iteration log
    as (iteration, residual, free energy, accepted step) tuples, the start
    logged with step 0, and its last evaluation (a warm start's is not
    read). A grid of dimension other than 1 raises ValueError
    before the first evaluation. Non-convergence raises
    :class:`SolverError` with the log so far: after max_iter accepted
    steps, or once STALL_STEPS accepted steps in a row after the first full
    Newton step bring no new lowest residual: the residual then sits at its
    rounding floor above residual_tol (the message names the lowest one).
    """
    k = params.resolution
    if initial is None:
        initial = GridFunction(dim=params.dim, resolution=k,
                               values=np.zeros((k,) * params.dim))
    current = normalize_potential(initial, params.nu)

    ev = _evaluate(current, params)
    log = [(0, ev.residual, ev.free_energy, 0.0)]
    hidden = params.mu0.masses == 0.0  # the tilt never charges these cells
    nu_masses = params.nu.masses
    masses = slopes = None  # the masses the current potential inverts
    # accepted steps since a new lowest residual, counted once a full Newton
    # step was accepted: damped steps may trade residual for free energy
    lowest, stalled, local = ev.residual, 0, False
    while ev.residual > params.residual_tol:
        it = len(log) - 1
        if it >= params.max_iter:
            raise SolverError(
                f"master equation not converged after {params.max_iter} "
                f"iterations (residual {ev.residual:.3e}, tolerance "
                f"{params.residual_tol:.1e})", log)
        if stalled >= STALL_STEPS:
            raise SolverError(
                f"master equation stalled at iteration {it}: {STALL_STEPS} "
                f"accepted steps brought no residual below {lowest:.3e} "
                f"(tolerance {params.residual_tol:.1e})", log)
        if masses is None:  # the start is no inversion: blend toward the tilt
            masses = ev.push
            direction, step = ev.tilt - masses, 0.5
        else:
            direction = _newton_direction(masses, slopes, ev.tilt, params.beta)
            step = 1.0
        for _ in range(40):
            trial_masses = masses + step * direction
            trial_masses[hidden] = 0.0
            if (trial_masses[~hidden] <= 0.0).any():
                step *= 0.5
                continue
            trial_masses = trial_masses / trial_masses.sum()
            values, trial_slopes = _invert_cells_1d(trial_masses, params.nu)
            trial = Potential(dim=1, resolution=k, values=values - float(
                (values * nu_masses).sum()))  # the gauge of nu_mean
            trial_ev = _evaluate(trial, params)
            if (trial_ev.residual <= ev.residual
                    or trial_ev.free_energy <= ev.free_energy + 1e-15):
                break
            step *= 0.5
        else:
            raise SolverError(f"no admissible step at iteration {it} "
                              f"(residual {ev.residual:.3e})", log)
        current, ev = trial, trial_ev
        masses, slopes = trial_masses, trial_slopes
        log.append((it + 1, ev.residual, ev.free_energy, step))
        local = local or step == 1.0
        lowest, stalled = ((ev.residual, 0) if ev.residual < lowest
                           else (lowest, stalled + 1 if local else 0))
    return dataclasses.replace(current, log=tuple(log),
                               evaluation=(params, current.values, ev))


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

    def __float__(self) -> float:
        return float(self.value)


def w2_to_reference(mu: GridMeasure, nu: GridMeasure) -> float:
    """W2^2 between a probability grid measure and a circle grid density.

    mu is read as atoms at its cell centers: the transport machinery
    places mass exactly on the node lattice, and the duality bracket is an
    identity only under that convention (spreading the mass over cells
    shifts the cost by an O(h^2) quantization term). The distance is the
    exact circle W2 of `_w2_circle_rows`, on the sorted centres; grids of
    another dimension are refused.
    """
    if mu.dim != 1 or nu.dim != 1:
        raise ValueError("w2_to_reference needs two 1-d grid measures")
    return float(_w2_circle_rows(mu.centers().reshape(-1),
                                 mu.masses[None, :], nu)[0])


def rate_function_g(mu: GridMeasure, params: MasterParams,
                    phi_min: GridFunction) -> RateValue:
    """beta W2^2(mu, nu) + Ent(mu0, mu) + beta F(phi_min).

    The constant is exactly the offset that zeroes the minimum, attained
    at mu = MA_nu phi_min. mu is a grid measure on mu0's grid; anything
    else is refused. Measures charging a cell where mu0 vanishes get +inf.
    """
    if not isinstance(mu, GridMeasure) or \
            (mu.dim, mu.resolution) != (params.dim, params.resolution):
        raise ValueError("the rate function takes a grid measure on mu0's "
                         "grid")
    w2 = w2_to_reference(mu, params.nu)
    ent = entropy(params.mu0.masses, mu.masses)
    return RateValue(beta_w2=params.beta * w2, ent=ent,
                     constant=params.beta * f_functional(phi_min, params))


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
    free_energy: float  # F(phi_min)
    pushforward: GridMeasure  # mu_min = MA_nu phi_min

    @property
    def passed(self) -> bool:
        return (self.residual_tv <= CONSISTENCY_TOL
                and abs(self.bracket_gap) <= CONSISTENCY_TOL
                and abs(self.entropy_gap) <= CONSISTENCY_TOL
                and self.rate_at_minimizer <= CONSISTENCY_TOL
                and self.min_probe_value > self.rate_at_minimizer)


def gprop_consistency(params: MasterParams, probes: int = 50, seed: int = 0,
                      phi_min: Optional[GridFunction] = None
                      ) -> ConsistencyReport:
    """Verify the master equation, both duality equalities, and minimality.

    Certificates: TV residual of the master equation; the transport
    bracket W2^2 + J + <f, mu> at the fixed point (zero exactly at the
    minimizer); the entropy duality gap Ent - (beta <phi, mu> - I(beta
    phi)); and a probe sweep showing the rate function is strictly larger
    at perturbed measures. One evaluation of phi_min gives mu_min, the
    residual, J, the log-MGF I(beta phi) and the rate function's constant
    beta F(phi_min), shared by the minimiser and every probe: the one
    solve_master left on phi_min for this params object and these values,
    else a fresh one. The probes
    multiply mu_min by e^{N(0, 0.35^2)} per cell, all drawn in one call,
    and their masses and entropies are computed for all probes at once.
    One stacked piece search gives every W2^2: mu_min's masses are row 0,
    which equals :func:`w2_to_reference` at mu_min bit for bit (a row's
    value does not depend on its stack) and serves both the bracket and
    the rate at the minimiser; one :func:`entropy` call on the same stack
    gives every entropy. Each probe row's rate equals
    :func:`rate_function_g` at that probe, and the lowest must clear the
    floor of :class:`RateValue`.
    """
    if phi_min is None:
        phi_min = solve_master(params)
    carried = getattr(phi_min, "evaluation", ())
    ev = (carried[2] if carried and carried[0] is params
          and np.array_equal(carried[1], phi_min.values)
          else _evaluate(phi_min, params))
    k = params.resolution
    mu_min = GridMeasure(dim=params.dim, resolution=k, masses=ev.push)

    stack = ev.push[None, :]
    if probes:
        bumps = np.random.default_rng(seed).normal(0.0, 0.35, (probes, k))
        masses = ev.push * np.exp(bumps)
        masses = masses / masses.sum(axis=1, keepdims=True)
        stack = np.concatenate([stack, masses])
    w2s = _w2_circle_rows(mu_min.centers().reshape(-1), stack, params.nu)
    w2 = float(w2s[0])
    pairing = float((phi_min.values.reshape(-1) * ev.push).sum())
    bracket_gap = w2 + ev.j + pairing

    ents = entropy(params.mu0.masses, stack)
    ent = float(ents[0])
    entropy_gap = ent - (params.beta * pairing - ev.log_mgf)

    constant = params.beta * ev.free_energy
    rate_min = RateValue(beta_w2=params.beta * w2, ent=ent,
                         constant=constant).value

    best = math.inf
    if probes:
        values = params.beta * w2s[1:] + ents[1:] + constant
        low = 1 + int(np.argmin(values))  # the floor holds for all if for it
        best = RateValue(beta_w2=float(params.beta * w2s[low]),
                         ent=float(ents[low]), constant=constant).value
    return ConsistencyReport(beta=params.beta, residual_tv=ev.residual,
                             bracket_gap=bracket_gap, entropy_gap=entropy_gap,
                             rate_at_minimizer=rate_min,
                             min_probe_value=best, probes=probes,
                             free_energy=ev.free_energy,
                             pushforward=mu_min)
