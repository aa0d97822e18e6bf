"""Permanental and tropical particle Hamiltonians and their Gibbs ensembles.

The Hamiltonian of a configuration (x_1..x_N) with N = n^d is

    H_n = -(1/n) log per Phi      (permanental)
    H_n = -(1/n) log tsper Phi    (tropical)

where Phi is the kernel matrix [phi_i(x_j)] and tsper replaces the
permutation sum by a maximum. Both are permutation symmetric; they differ
by at most (1/n) log N!. Normalized by the particle count, H_n/N tracks
the squared Wasserstein distance from the lattice to the configuration.
One recursion over column subsets, `_subset_dp`, evaluates both kinds:
(sum, product) on the row-scaled matrix and (max, sum) on its logs. Only
tropical stacks past TROPICAL_SUBSET_MAX take an assignment instead.

The Gibbs ensemble at inverse temperature beta weights configurations by
e^{-beta H} against mu0^(x)N. `gibbs_exact` enumerates it over a site
discretization (the n-lattice refined by an integer factor, so every
lattice point is a representable site). H is symmetric in the particles,
so it, like `partition_function`, sums over unordered configurations (at
most EXACT_TABLE_MAX), each weighted by its count of ordered tuples.
Rate estimates read off -(1/r_n) log(ball probability) with r_n = n^d.

``gammaln`` is imported from scipy inside the two functions that call it.
``math.lgamma`` is no substitute: it differs from ``gammaln(n + 1)`` in
the last bit from n = 2 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .legendre import GridFunction, conjugate_at, interpolate_at
from .measures import (DiscreteMeasure, GridMeasure, _logsumexp, cell_nodes,
                       empirical, entropy, grid_points)
from .torus_theta import ThetaParams, TorusLattice, log_theta_grid
from .transport import cost_matrix, hungarian, w2_circle_atoms, w2_empirical

PERMANENT_MAX = 20
TUPLE_CHUNK = 1 << 18  # f rows x matrices per `_subset_dp` stack: at most 2 MB
TROPICAL_SUBSET_MAX = 9  # tropical stacks past this N take one assignment each
W2_GAP_PERMANENTAL_MAX = 9
W2_GAP_TROPICAL_MAX = 64
EXACT_TABLE_MAX = 1 << 22
BALL_CHUNK = 1 << 20  # (groups, particles, center atoms) costs held at once
SANOV_ALPHABET_MAX = 6
SANOV_N_MAX = 500


# ---------------------------------------------------------------------------
# Permanents
# ---------------------------------------------------------------------------


def _subset_dp(stack: np.ndarray, add, mul) -> np.ndarray:
    """add over permutations sigma of mul over rows i of a[i, sigma(i)], for
    each matrix a of a (T, N, N) stack, in about N 2^(N-1) terms.

    f[S] reduces the first |S| rows over their bijections onto the columns
    S: it adds mul(f[S - j], a[|S| - 1, j]) over the members j one after
    another in column order, so no value depends on the stack around it.
    """
    n = stack.shape[1]
    if n > PERMANENT_MAX:
        raise ValueError(f"permanent supports N <= {PERMANENT_MAX}")
    a = np.ascontiguousarray(stack.transpose(1, 2, 0))  # [i, j, t]
    masks = np.arange(1 << n, dtype=np.int32)
    sizes = np.bitwise_count(masks)
    f = np.empty((1 << n, stack.shape[0]))
    f[1 << np.arange(n)] = a[0]
    for k in range(2, n + 1):
        subsets = rest = masks[sizes == k]
        total = None
        for _ in range(k):  # peel the members off in column order
            low = rest & -rest
            rest = rest ^ low
            term = mul(f[subsets ^ low], a[k - 1, np.bitwise_count(low - 1)])
            total = term if total is None else add(total, term)
        f[subsets] = total
    return f[-1]


def permanent(matrix: np.ndarray) -> float:
    """Exact permanent, the one-matrix case of `_subset_dp`.

    Rows are scaled by their largest entry first so the products stay in
    range. Checked against the naive permutation sum to relative 1e-12 for
    N <= 5; no signed terms cancel, so all-ones matrices give N! exactly up
    to N = 20. N <= PERMANENT_MAX, checked before the 2^N-row table exists.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape != (n, n):
        raise ValueError("permanent needs a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("permanent needs finite entries")
    if n == 0:
        return 1.0
    scale = np.max(np.abs(a), axis=1)
    if np.any(scale == 0.0):
        return 0.0  # a zero row kills every product
    value = _subset_dp((a / scale[:, None])[None], np.add, np.multiply)
    return float(value[0]) * float(np.prod(scale))


def _log_permanents(logs: np.ndarray, tropical: bool) -> np.ndarray:
    """log per(exp(L)) of a (T, N, N) stack, rows shifted by their maximum
    (a zero total gives -inf); when tropical, max_sigma of the summed logs."""
    if tropical:
        return _subset_dp(logs, np.maximum, np.add)
    shifts = np.max(logs, axis=2)
    value = _subset_dp(np.exp(logs - shifts[..., None]), np.add, np.multiply)
    return np.sum(shifts, axis=1) + np.log(
        value, where=value > 0.0, out=np.full_like(value, -np.inf))


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HamiltonianKind:
    """Permutation-sum (permanental) or permutation-max (tropical) energy."""

    tag: str

    def __post_init__(self):
        if self.tag not in ("permanental", "tropical"):
            raise ValueError("kind tag must be 'permanental' or 'tropical'")


PERMANENTAL = HamiltonianKind("permanental")
TROPICAL = HamiltonianKind("tropical")


def hamiltonians(kind: HamiltonianKind, lattice: TorusLattice,
                 params: ThetaParams, configs: np.ndarray) -> np.ndarray:
    """H_n of each configuration in a (T, N, d) stack of N = n^d torus points.

    Permutation symmetric in the particles; the permanental and tropical
    values differ by at most (1/n) log N!. One kernel evaluation covers the
    whole stack; `_log_permanents` takes both kinds TUPLE_CHUNK // 2^N
    matrices at a time, and tropical stacks past TROPICAL_SUBSET_MAX (the
    only route up to W2_GAP_TROPICAL_MAX) one assignment per matrix.
    """
    configs = np.asarray(configs, dtype=float)
    if configs.ndim != 3 or configs.shape[1:] != (lattice.size, lattice.d):
        raise ValueError(
            f"configurations have shape {configs.shape[1:]}, lattice needs "
            f"{(lattice.size, lattice.d)}")
    if np.any(configs < 0.0) or np.any(configs >= 1.0):
        raise ValueError("configuration points must lie in [0,1)^d")
    trials, nn, n = len(configs), lattice.size, lattice.n
    log_phi = log_theta_grid(params, lattice.points,
                             configs.reshape(-1, lattice.d))
    stack = log_phi.reshape(nn, trials, nn).swapaxes(0, 1)  # [t, i, j]
    tropical = kind.tag == "tropical"
    if tropical and nn > TROPICAL_SUBSET_MAX:
        return np.array([hungarian(-m).cost / n for m in stack])
    chunk = max(1, TUPLE_CHUNK // (1 << nn))
    return np.concatenate([-_log_permanents(stack[lo:lo + chunk], tropical) / n
                           for lo in range(0, trials, chunk)])


def hamiltonian(kind: HamiltonianKind, lattice: TorusLattice,
                params: ThetaParams, points: np.ndarray) -> float:
    """H_n of one (N, d) configuration, the T = 1 case of `hamiltonians`."""
    return float(hamiltonians(kind, lattice, params,
                              np.asarray(points)[None])[0])


def hamiltonian_w2_gap(kind: HamiltonianKind, n: int, trials: int,
                       seed: int) -> float:
    """max over random circle configs of |H_n/n - W2^2(lattice, config)|.

    The reference is the exact circle W2 of `w2_circle_atoms`, one call over
    all sorted configurations; the gap is bounded by the kernel bracket
    width (1/n) log(2R+1) plus the truncation tail.
    """
    cap = W2_GAP_PERMANENTAL_MAX if kind.tag == "permanental" else W2_GAP_TROPICAL_MAX
    if n > cap:
        raise ValueError(f"{kind.tag} gap sweep supports N <= {cap}")
    if trials < 1:
        raise ValueError("gap sweep needs trials >= 1")
    lattice = TorusLattice(n=n, d=1)
    configs = np.random.default_rng(seed).random((trials, n, 1))
    h = hamiltonians(kind, lattice, ThetaParams(n=n), configs)
    uniform = np.full(n, 1.0 / n)
    ref = w2_circle_atoms(np.sort(configs[:, :, 0], axis=1), uniform,
                          lattice.points[:, 0], uniform)
    return float(np.max(np.abs(h / n - ref)))


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GibbsEnsemble:
    """Configuration law e^{-beta H} mu0^(x)N / Z on the torus.

    beta = n is the zero-temperature regime where the partition function
    collapses to a product formula. The sites are the n-lattice refined by
    site_refinement per axis (so the lattice points are representable);
    `gibbs_exact` and `local_rate` enumerate the unordered configurations
    of N of them, and refuse ensembles with more than EXACT_TABLE_MAX.
    """

    beta: float
    n: int
    d: int
    mu0: GridMeasure
    kind: HamiltonianKind
    site_refinement: int = 4

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.d > 2:
            raise ValueError("need n >= 1 and d in {1, 2}")
        if self.mu0.dim != self.d:
            raise ValueError("mu0 dimension does not match the ensemble")
        if self.site_refinement < 1:
            raise ValueError("site refinement must be >= 1")

    @property
    def particle_count(self) -> int:
        return self.n ** self.d

    @property
    def lattice(self) -> TorusLattice:
        return TorusLattice(n=self.n, d=self.d)

    @property
    def params(self) -> ThetaParams:
        return ThetaParams(n=self.n)

    @property
    def sites_per_axis(self) -> int:
        return self.n * self.site_refinement

    @property
    def site_count(self) -> int:
        return self.sites_per_axis ** self.d

    def site_points(self) -> np.ndarray:
        k = self.sites_per_axis
        return grid_points([np.arange(k) / k] * self.d)

    def site_log_weights(self) -> np.ndarray:
        """log of the mu0 site masses, normalized to a probability vector."""
        k = self.sites_per_axis
        # every axis has the same sites, so the diagonal sites (j/k, ...,
        # j/k) give each axis's cells without the k^d site array
        diagonal = np.repeat((np.arange(k) / k)[:, None], self.d, axis=1)
        cells = self.mu0.cell_indices(diagonal)[:, 0]
        masses = self.mu0.masses.reshape((self.mu0.resolution,) * self.d)
        masses = masses[np.ix_(*[cells] * self.d)].reshape(-1)
        if np.all(masses == 0.0):
            raise ValueError("mu0 vanishes on every site")
        logs = np.log(masses, where=masses > 0.0,
                      out=np.full_like(masses, -np.inf))
        return logs - _logsumexp(logs)


def _class_terms(ensemble: GibbsEnsemble, points: np.ndarray,
                 log_w: np.ndarray):
    """(classes, log multiplicities, H, log weights) of the unordered
    N-configurations of the points, log_w the points' log masses.

    Classes are nondecreasing index rows in lexicographic order, built by
    extending each row ending at l by every index from l on (no m^N array).
    A class holds N!/prod_j c_j! ordered tuples, c_j its run lengths, each
    weighing the sum of its log masses. H takes the N = 2 closed form or
    `_log_permanents` in stacks of TUPLE_CHUNK // 2^N rows.
    """
    nn, m, n = ensemble.particle_count, len(points), ensemble.n
    count = math.comb(m + nn - 1, nn)
    if count > EXACT_TABLE_MAX:
        raise ValueError(f"exact table of {count} configuration classes "
                         f"exceeds EXACT_TABLE_MAX = {EXACT_TABLE_MAX}")
    rows = np.arange(m)[:, None]
    for _ in range(nn - 1):
        size = m - rows[:, -1]
        first = np.repeat(rows[:, -1] - np.cumsum(size) + size, size)
        rows = np.column_stack([np.repeat(rows, size, axis=0),
                                first + np.arange(size.sum())])
    log_phi = log_theta_grid(ensemble.params, ensemble.lattice.points, points)
    tropical = ensemble.kind.tag == "tropical"
    if nn == 2:
        straight = log_phi[0, rows[:, 0]] + log_phi[1, rows[:, 1]]
        crossed = log_phi[0, rows[:, 1]] + log_phi[1, rows[:, 0]]
        pair = np.maximum if tropical else np.logaddexp
        hams = -pair(straight, crossed) / n
    else:
        chunk = max(1, TUPLE_CHUNK // (1 << nn))
        hams = np.concatenate([-_log_permanents(  # [t, i, j] stacks
            log_phi[np.arange(nn)[:, None], rows[lo:lo + chunk, None, :]],
            tropical) / n for lo in range(0, count, chunk)])
    run = repeats = np.ones(count, dtype=np.int64)
    log_weights = log_w[rows[:, 0]]
    for i in range(1, nn):  # prod_j c_j! multiplies each place in its run
        run = np.where(rows[:, i] == rows[:, i - 1], run + 1, 1)
        repeats = repeats * run
        log_weights = log_weights + log_w[rows[:, i]]
    return rows, np.log(math.factorial(nn) // repeats), hams, log_weights


@dataclass(frozen=True, eq=False)
class GibbsTable:
    """Exact configuration law over configuration classes: each of the
    exp(log_multiplicity[c]) site tuples that sort to row c of `classes`
    has H class_hamiltonians[c] and log probability class_log_probs[c].
    `hamiltonians` and `log_probs` spell these out row-major over (M,)*N
    tuples, refusing past EXACT_TABLE_MAX of them."""

    ensemble: GibbsEnsemble
    sites: np.ndarray
    classes: np.ndarray
    log_multiplicity: np.ndarray
    class_hamiltonians: np.ndarray
    class_log_probs: np.ndarray
    log_partition: float

    def _tuple_classes(self) -> np.ndarray:
        shape = (len(self.sites),) * self.classes.shape[1]
        if math.prod(shape) > EXACT_TABLE_MAX:
            raise ValueError(f"tuple view of {math.prod(shape)} site tuples "
                             f"exceeds EXACT_TABLE_MAX = {EXACT_TABLE_MAX}")
        rows = np.sort(np.indices(shape).reshape(len(shape), -1), axis=0)
        return np.searchsorted(np.ravel_multi_index(self.classes.T, shape),
                               np.ravel_multi_index(rows, shape))

    @property
    def hamiltonians(self) -> np.ndarray:
        return self.class_hamiltonians[self._tuple_classes()]

    @property
    def log_probs(self) -> np.ndarray:
        return self.class_log_probs[self._tuple_classes()]

    def grouped(self) -> tuple:
        """(class rows, class masses), a mass counting every member tuple."""
        return self.classes, np.exp(self.log_multiplicity
                                    + self.class_log_probs)


def gibbs_exact(ensemble: GibbsEnsemble) -> GibbsTable:
    """Full probability table of the ensemble on its site discretization.

    A tuple of a class carries e^{-beta H} times its site masses; one
    logsumexp over classes, weighted by multiplicity, normalizes the table,
    and its total is checked against 1 to 1e-12.
    """
    sites = ensemble.site_points()
    classes, log_mult, hams, log_weights = _class_terms(
        ensemble, sites, ensemble.site_log_weights())
    raw = -ensemble.beta * hams + log_weights
    # center before normalizing: at large beta the raw logs are huge and
    # subtracting log_z directly loses the 1e-12 the check below demands
    shift = float(raw.max())
    centered = raw - shift
    log_z_centered = float(_logsumexp(centered + log_mult))
    log_probs = centered - log_z_centered
    total = float(np.exp(_logsumexp(log_probs + log_mult)))
    if abs(total - 1.0) > 1e-12:
        raise RuntimeError(f"table normalization off by {total - 1.0:.2e}")
    return GibbsTable(ensemble=ensemble, sites=sites, classes=classes,
                      log_multiplicity=log_mult, class_hamiltonians=hams,
                      class_log_probs=log_probs,
                      log_partition=log_z_centered + shift)


# ---------------------------------------------------------------------------
# Partition functions
# ---------------------------------------------------------------------------


def _quadrature(mu0: GridMeasure, resolution: int):
    """Cell-center nodes of a k-grid and the logs of their mu0 weights,
    normalized to a probability (-inf where mu0 vanishes)."""
    pts = grid_points([cell_nodes(0.0, 1.0, resolution)] * mu0.dim)
    grid = mu0.masses.reshape((mu0.resolution,) * mu0.dim)
    weights = grid[tuple(mu0.cell_indices(pts).T)]
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("mu0 vanishes on the quadrature grid")
    weights = weights / total
    return pts, np.log(weights, where=weights > 0.0,
                       out=np.full_like(weights, -np.inf))


def partition_function(ensemble: GibbsEnsemble, quadrature_resolution: int) -> float:
    """Z by tensor quadrature over k^d nodes per particle, summed over the
    nodes' configuration classes as in `gibbs_exact`.

    In the zero-temperature permanental case (beta = n) the quadrature
    collapses algebraically to N! times a product of one-particle
    integrals; when that shortcut applies the two values are compared and
    must agree to 1e-8.
    """
    pts, log_w = _quadrature(ensemble.mu0, quadrature_resolution)
    _, log_mult, hams, log_weights = _class_terms(ensemble, pts, log_w)
    z = float(np.exp(_logsumexp(-ensemble.beta * hams + log_weights + log_mult)))

    if ensemble.kind.tag == "permanental" and ensemble.beta == ensemble.n:
        z_prod = float(np.exp(log_partition_product(ensemble,
                                                    quadrature_resolution)))
        if abs(z - z_prod) > 1e-8 * max(1.0, abs(z_prod)):
            raise RuntimeError(
                f"quadrature {z!r} disagrees with product formula {z_prod!r}")
    return z


def log_partition_product(ensemble: GibbsEnsemble,
                          quadrature_resolution: int) -> float:
    """log of the zero-temperature product formula N! prod_i (integral of
    phi_i mu0), stable for large n.

    Valid for the permanental kind at beta = n, where e^{-beta H} is the
    permanent itself and the tensor integral factorizes exactly.
    """
    if ensemble.kind.tag != "permanental" or ensemble.beta != ensemble.n:
        raise ValueError("product formula needs permanental kind and beta = n")
    pts, log_w = _quadrature(ensemble.mu0, quadrature_resolution)
    log_phi = log_theta_grid(ensemble.params, ensemble.lattice.points, pts)
    log_integrals = _logsumexp(log_phi + log_w[None, :], axis=1)
    nn = ensemble.particle_count
    from scipy.special import gammaln
    return float(gammaln(nn + 1) + np.sum(log_integrals))


# ---------------------------------------------------------------------------
# Rate estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RateEstimate:
    """A ball probability under the ensemble and -(1/r_n) log of it."""

    value: float
    prob: float

    def __post_init__(self):
        if not -1e-12 <= self.prob <= 1.0 + 1e-12:
            raise ValueError("probability out of range")
        if self.prob <= 1.0 and self.value < -1e-9:
            raise ValueError("rate of a probability must be nonnegative")


def local_rate(ensemble: GibbsEnsemble, center: DiscreteMeasure,
               radius: float) -> RateEstimate:
    """Exact -(1/n^d) log of the W2-ball probability around a center.

    A configuration class of the table is in the ball when the W2 distance
    (not squared) of its empirical measure to the center is below the
    radius. In 1-d one call of the exact circle kernel `w2_circle_atoms`
    over the sorted class rows gives every distance. For d >= 2 each class
    is first bracketed: the ball is out of reach when sum_j nu_j min_i
    c(x_i, y_j) exceeds r^2 + 1e-9, and certain when the product coupling
    costs below r^2 - 1e-9; only classes in between solve the LP. Class
    masses are added in class order. Zero mass reports value +inf. The
    table comes from `gibbs_exact`, whose cap applies.
    """
    table = gibbs_exact(ensemble)
    nn = ensemble.particle_count
    keys, masses = table.grouped()
    if ensemble.d == 1:
        w2sq = w2_circle_atoms(table.sites[keys, 0], np.full(nn, 1.0 / nn),
                               center.points[:, 0], center.weights)
        inside = np.sqrt(w2sq) < radius
    else:
        cost = cost_matrix(table.sites, center.points, "sqdist_torus")
        step = max(1, BALL_CHUNK // (nn * center.atom_count))
        lower = np.concatenate([np.min(cost[keys[lo:lo + step]], axis=1)
                                @ center.weights
                                for lo in range(0, len(keys), step)])
        inside = (cost @ center.weights)[keys].mean(axis=1) < radius ** 2 - 1e-9
        for c in np.flatnonzero(~inside & (lower <= radius ** 2 + 1e-9)):
            w2sq = w2_empirical(empirical(table.sites[keys[c]]), center)
            inside[c] = math.sqrt(max(w2sq, 0.0)) < radius
    prob = float(np.cumsum(masses[inside])[-1]) if inside.any() else 0.0
    prob = min(prob, 1.0)
    value = -math.log(prob) / nn if prob > 0.0 else math.inf
    return RateEstimate(value=value, prob=prob)


# ---------------------------------------------------------------------------
# Sanov at desk scale
# ---------------------------------------------------------------------------


def sanov_rates(mu0_weights, counts):
    """(-(1/n) log P[type class], Ent(mu0, counts/n)) of each row of a
    (types, k) stack of counts summing to one n, in one ``gammaln`` pass
    and one :func:`entropy` call. Uncharged letters add exact zeros to the
    log-probability, and numpy adds the k <= SANOV_ALPHABET_MAX < 8 terms
    of a row left to right, so a row equals its one-row call bit for
    bit."""
    mu0 = DiscreteMeasure.from_alphabet_weights(mu0_weights).weights
    counts = np.asarray(counts)
    n = int(counts[0].sum())
    if len(mu0) > SANOV_ALPHABET_MAX:
        raise ValueError(f"alphabet capped at {SANOV_ALPHABET_MAX}")
    if n > SANOV_N_MAX:
        raise ValueError(f"sample count capped at {SANOV_N_MAX}")
    if np.any(counts.sum(axis=1) != n):
        raise ValueError("type counts must share one sample count")
    from scipy.special import gammaln
    charged = counts > 0
    with np.errstate(divide="ignore"):
        log_mu0 = np.where(charged, np.log(mu0), 0.0)
    log_p = gammaln(n + 1) - np.sum(gammaln(counts + 1), axis=1)
    log_p += np.sum(counts * log_mu0, axis=1)
    return -log_p / n, entropy(mu0, counts / n)


def sanov_exact(alphabet_size: int, mu0_weights, n: int, nu_weights):
    """Exact multinomial rate vs relative entropy for a realizable type,
    the one-row case of `sanov_rates`.

    Returns (-(1/n) log P[type class], Ent(mu0, nu)). The two differ by at
    most sanov_gap_bound(alphabet_size, n), the polynomial prefactor of the
    method of types.
    """
    mu0 = np.asarray(mu0_weights, dtype=float)
    nu = np.asarray(nu_weights, dtype=float)
    if mu0.shape != (alphabet_size,) or nu.shape != (alphabet_size,):
        raise ValueError("weight vectors must match the alphabet size")
    counts = nu * n
    rounded = np.rint(counts)
    if np.max(np.abs(counts - rounded)) > 1e-9 or rounded.sum() != n:
        raise ValueError("type not realizable at this n")
    counts = rounded.astype(int)
    if np.any((counts > 0) & (mu0 <= 0.0)):
        raise ValueError("type charges a letter of mu0-probability zero")
    rate, ent = sanov_rates(mu0, counts[None])
    return float(rate[0]), float(ent[0])


def sanov_gap_bound(alphabet_size: int, n: int) -> float:
    """Method-of-types prefactor bound k log(n+1) / n."""
    return alphabet_size * math.log(n + 1) / n


# ---------------------------------------------------------------------------
# Zero-temperature moment generating function
# ---------------------------------------------------------------------------


def zero_temp_mgf_stack(thetas, n: int, d: int, mu0: GridMeasure,
                        quadrature_resolution: int):
    """Scaled log-MGFs at beta = n against their lattice Legendre targets,
    for a sequence of test functions sharing one kernel table.

    p_n(theta) = (1/n^d) sum_i (1/n) log of (integral of e^{n theta} phi_i mu0),
    the exact product-formula reduction of the permanental ensemble. The
    target averages over lattice points the torus supremum

        sup_x [theta(x) - d(x, p_i)^2],

    evaluated through the classical conjugate of |x|^2 - theta at the
    shifted arguments 2(p_i + m), m in {-1,0,1}^d. The quadrature and the
    kernel table are built once for all thetas. Returns (p_n, target), one
    entry per theta.
    """
    for theta in thetas:
        if theta.dim != d:
            raise ValueError("theta must live on the d-torus chart")
    if mu0.dim != d:
        raise ValueError("mu0 must be a grid measure of dimension d")
    lattice = TorusLattice(n=n, d=d)
    params = ThetaParams(n=n)

    pts, log_w = _quadrature(mu0, quadrature_resolution)
    theta_q = np.array([interpolate_at(theta, pts) for theta in thetas])
    log_phi = log_theta_grid(params, lattice.points, pts)
    log_integrals = _logsumexp(n * theta_q[:, None, :] + log_phi[None]
                               + log_w[None, None, :], axis=2)
    p_n = np.mean(log_integrals, axis=1) / n

    offsets = grid_points([np.array([-1.0, 0.0, 1.0])] * d)
    shifted = lattice.points[:, None, :] + offsets[None, :, :]
    flat = shifted.reshape(-1, d)
    norms = np.sum(flat * flat, axis=1).reshape(len(lattice.points), -1)
    targets = []
    for theta in thetas:
        # sup_x [theta - |x - y|^2] = g*(2y) - |y|^2 with g = |x|^2 - theta
        nodes = theta.nodes()
        conj = conjugate_at(nodes, np.sum(nodes * nodes, axis=1)
                            - theta.values.reshape(-1),
                            2.0 * flat).reshape(len(lattice.points), -1)
        targets.append(float(np.mean(np.max(conj - norms, axis=1))))
    return p_n, np.array(targets)


def zero_temp_mgf(theta: GridFunction, n: int, d: int, mu0: GridMeasure,
                  quadrature_resolution: int):
    """(p_n, target) of one test function, the one-theta case of
    `zero_temp_mgf_stack`."""
    p_n, target = zero_temp_mgf_stack([theta], n, d, mu0,
                                      quadrature_resolution)
    return float(p_n[0]), float(target[0])
