"""Permanental and tropical particle Hamiltonians and their Gibbs ensembles.

The Hamiltonian of a configuration (x_1..x_N) with N = n^d is

    H_n = -(1/n) log per Phi      (permanental)
    H_n = -(1/n) log tsper Phi    (tropical)

where Phi is the kernel matrix [phi_i(x_j)] and tsper replaces the
permutation sum by a maximum. Both are permutation symmetric; they differ
by at most (1/n) log N!. Normalized by the particle count, H_n/N tracks
the squared Wasserstein distance from the lattice to the configuration.

The Gibbs ensemble at inverse temperature beta weights configurations by
e^{-beta H} against mu0^(x)N. Two backends realize it: exact enumeration
over a site discretization (the n-lattice refined by an integer factor, so
every lattice point is a representable site) and a Metropolis chain. Rate
estimates read off -(1/r_n) log(ball probability) with r_n = n^d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import gammaln, logsumexp

from .legendre import GridFunction, conjugate_at, interpolate_at
from .measures import (DiscreteMeasure, EmpiricalConfig, GridMeasure,
                       empirical, entropy)
from .torus_theta import ThetaParams, TorusLattice, log_theta_grid
from .transport import (BRUTE_FORCE_MAX, _all_permutations, cost_matrix,
                        hungarian, w2_circle_atoms, w2_empirical)

PERMANENT_MAX = 24
PERMANENT_CHUNK = 1 << 16
TUPLE_CHUNK = 1 << 14
W2_GAP_PERMANENTAL_MAX = 9
W2_GAP_TROPICAL_MAX = 64
EXACT_TABLE_MAX = 1 << 22
TENSOR_QUAD_MAX = 1 << 24
BALL_CHUNK = 1 << 20  # (groups, particles, center atoms) costs held at once
SANOV_ALPHABET_MAX = 6
SANOV_N_MAX = 500


# ---------------------------------------------------------------------------
# Permanents
# ---------------------------------------------------------------------------


def _ryser(b: np.ndarray) -> np.ndarray:
    """Ryser's formula on a (T, N, N) stack, subsets in chunks of their index."""
    n = b.shape[1]
    if n > PERMANENT_MAX:
        raise ValueError(f"permanent supports N <= {PERMANENT_MAX}")
    if not np.all(np.isfinite(b)):
        raise ValueError("permanent needs finite entries")
    total = np.zeros(b.shape[0])
    subsets = np.arange(1, 1 << n, dtype=np.int64)
    for lo in range(0, len(subsets), PERMANENT_CHUNK):
        ks = subsets[lo:lo + PERMANENT_CHUNK]
        mask = ((ks[:, None] >> np.arange(n)) & 1).astype(float)
        rowsums = mask @ b.swapaxes(1, 2)  # [t, s, i] = sum_{j in S} b[t, i, j]
        sign = np.where((n - mask.sum(axis=1).astype(int)) % 2 == 0, 1.0, -1.0)
        total += np.sum(sign * np.prod(rowsums, axis=2), axis=1)
    return total


def permanent(matrix: np.ndarray) -> float:
    """Exact permanent by Ryser's formula, the one-matrix case of `_ryser`.

    Rows are scaled by their largest entry first so the products stay in
    range. Checked against the naive permutation sum to relative 1e-12 for
    N <= 5, and on all-ones matrices: exact N! at N = 9 and 12, relative
    3e-9 at N = 16, where the 2^16 signed terms cancel. Hard cap N <= 24;
    above ~16 expect minutes.
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
    return float(_ryser((a / scale[:, None])[None])[0]) * float(np.prod(scale))


def tropical_permanent(matrix: np.ndarray) -> float:
    """max over permutations of the entry product, for positive matrices.

    Computed in log-space as the min-cost assignment of -log A, so the
    value is exact up to one exp at the end.
    """
    a = np.asarray(matrix, dtype=float)
    if np.any(a <= 0.0):
        raise ValueError("tropical permanent needs strictly positive entries")
    return float(np.exp(-hungarian(-np.log(a)).cost))


def _log_permanents(logs: np.ndarray) -> np.ndarray:
    """log per(exp(L)) for a (T, N, N) stack; rows are shifted by their
    maximum, and a zero or negative Ryser total gives -inf."""
    shifts = np.max(logs, axis=2)
    value = _ryser(np.exp(logs - shifts[..., None]))
    return np.sum(shifts, axis=1) + np.log(
        value, where=value > 0.0, out=np.full_like(value, -np.inf))


def log_permanent(log_matrix: np.ndarray) -> float:
    """log per(exp(L)) with per-row shifts, for matrices given in log form."""
    logs = np.asarray(log_matrix, dtype=float)
    if logs.ndim != 2 or logs.shape[0] != logs.shape[1]:
        raise ValueError("permanent needs a square matrix")
    return float(_log_permanents(logs[None])[0])


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
    whole stack. The permanental kind runs Ryser on TUPLE_CHUNK // 2^N
    matrices at a time; the tropical kind is (1/n) min_sigma sum of
    -log phi, one assignment per matrix.
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
    if kind.tag == "tropical":
        return np.array([hungarian(-m).cost / n for m in stack])
    chunk = max(1, TUPLE_CHUNK // (1 << nn))
    return np.concatenate([-_log_permanents(stack[lo:lo + chunk]) / n
                           for lo in range(0, trials, chunk)])


def hamiltonian(kind: HamiltonianKind, lattice: TorusLattice,
                params: ThetaParams, config: EmpiricalConfig) -> float:
    """H_n of one configuration, the T = 1 case of `hamiltonians`."""
    return float(hamiltonians(kind, lattice, params, config.points[None])[0])


def hamiltonian_w2_gap(kind: HamiltonianKind, n: int, d: int, trials: int,
                       seed: int) -> float:
    """max over random configs of |H_n/N - W2^2(lattice, config)|.

    Both empirical measures are uniform on N = n^d atoms, so the reference
    is an assignment value; the gap is bounded by the kernel bracket width
    (1/n) log((2R+1)^d) plus the truncation tail.
    """
    nn = n ** d
    cap = W2_GAP_PERMANENTAL_MAX if kind.tag == "permanental" else W2_GAP_TROPICAL_MAX
    if nn > cap:
        raise ValueError(f"{kind.tag} gap sweep supports N <= {cap}")
    if trials < 1:
        raise ValueError("gap sweep needs trials >= 1")
    lattice = TorusLattice(n=n, d=d)
    configs = np.random.default_rng(seed).random((trials, nn, d))
    h = hamiltonians(kind, lattice, ThetaParams(n=n), configs)
    costs = cost_matrix(lattice.points, configs.reshape(-1, d), "sqdist_torus")
    ref = np.array([hungarian(c).cost / nn
                    for c in costs.reshape(nn, trials, nn).swapaxes(0, 1)])
    return float(np.max(np.abs(h / nn - ref)))


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GibbsEnsemble:
    """Configuration law e^{-beta H} mu0^(x)N / Z on the torus.

    beta = n is the zero-temperature regime where the partition function
    collapses to a product formula. The exact backend enumerates site
    tuples on the refined lattice (refinement s keeps the lattice points
    representable); the mcmc backend runs a Metropolis chain.
    """

    beta: float
    n: int
    d: int
    mu0: GridMeasure
    kind: HamiltonianKind
    backend: str = "exact"
    site_refinement: int = 4

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.d > 2:
            raise ValueError("need n >= 1 and d in {1, 2}")
        if self.backend not in ("exact", "mcmc"):
            raise ValueError("backend must be 'exact' or 'mcmc'")
        if self.mu0.dim != self.d:
            raise ValueError("mu0 dimension does not match the ensemble")
        if self.mu0.kind != "torus":
            raise ValueError("ensembles live on the torus")
        if not self.mu0.is_probability:
            raise ValueError("mu0 must be a probability measure")
        if self.site_refinement < 1:
            raise ValueError("site refinement must be >= 1")
        if self.backend == "exact":
            if self.site_count ** self.particle_count > EXACT_TABLE_MAX:
                raise ValueError(
                    "exact table too large; use the mcmc backend"
                )

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
        axes = [np.arange(k) / k] * self.d
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def site_log_weights(self) -> np.ndarray:
        """log of the mu0 site masses, normalized to a probability vector.

        Site j/k lies in mu0 cell (j * resolution) // k of each axis.
        """
        k = self.sites_per_axis
        cells = (np.arange(k) * self.mu0.resolution) // k
        dens = self.mu0.density[np.ix_(*[cells] * self.d)].reshape(-1)
        if np.all(dens == 0.0):
            raise ValueError("mu0 vanishes on every site")
        logs = np.log(dens, where=dens > 0.0, out=np.full_like(dens, -np.inf))
        return logs - logsumexp(logs)


def _site_log_phi(ensemble: GibbsEnsemble, points: np.ndarray) -> np.ndarray:
    return log_theta_grid(ensemble.params, ensemble.lattice.points, points)


def _tuple_hamiltonians(ensemble: GibbsEnsemble,
                        log_phi: np.ndarray) -> np.ndarray:
    """H for every site tuple, flattened row-major over (M,)*N.

    N = 2 is closed-form in the matrix entries. Other N evaluate stacks of
    the tuples' log matrices at once: Ryser when permanental, the maximum
    over all N! permutations of the summed logs when tropical (so N <=
    BRUTE_FORCE_MAX). A stack holds TUPLE_CHUNK // 2^N (// N!) tuples.
    """
    nn, m = log_phi.shape
    n = ensemble.n
    tropical = ensemble.kind.tag == "tropical"
    if nn == 2:
        straight = log_phi[0][:, None] + log_phi[1][None, :]
        crossed = log_phi[0][None, :] + log_phi[1][:, None]
        if tropical:
            h = -np.maximum(straight, crossed) / n
        else:
            h = -np.logaddexp(straight, crossed) / n
        return h.reshape(-1)
    if tropical and nn > BRUTE_FORCE_MAX:
        raise ValueError(f"tropical tables support N <= {BRUTE_FORCE_MAX}")
    perms = _all_permutations(nn) if tropical else None
    chunk = max(1, TUPLE_CHUNK // (len(perms) if tropical else 1 << nn))
    rows = np.arange(nn)
    out = np.empty(m ** nn)
    for lo in range(0, out.size, chunk):
        flat = np.arange(lo, min(lo + chunk, out.size))
        cols = np.stack(np.unravel_index(flat, (m,) * nn), axis=1)
        stack = log_phi[rows[None, :, None], cols[:, None, :]]  # [t, i, j]
        if tropical:
            out[flat] = -stack[:, rows, perms].sum(axis=2).max(axis=1) / n
        else:
            out[flat] = -_log_permanents(stack) / n
    return out


@dataclass(frozen=True, eq=False)
class GibbsTable:
    """Exact configuration law over site tuples, row-major tuple order."""

    ensemble: GibbsEnsemble
    sites: np.ndarray
    log_probs: np.ndarray
    hamiltonians: np.ndarray
    log_partition: float

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def grouped(self) -> list:
        """(sorted site tuple, total probability) per unordered configuration,
        each total added up in row-major tuple order."""
        nn = self.ensemble.particle_count
        m = self.ensemble.site_count
        tuples = np.sort(np.indices((m,) * nn).reshape(nn, -1).T, axis=1)
        keys, inverse = np.unique(tuples, axis=0, return_inverse=True)
        masses = np.bincount(inverse.reshape(-1), weights=self.probs,
                             minlength=len(keys))
        return list(zip(map(tuple, keys.tolist()), masses.tolist()))


def gibbs_exact(ensemble: GibbsEnsemble) -> GibbsTable:
    """Full probability table of the ensemble on its site discretization.

    Each tuple carries e^{-beta H} times the product of its site masses;
    the table is normalized and its total checked against 1 to 1e-12.
    """
    if ensemble.backend != "exact":
        raise ValueError("exact table needs the exact backend; use gibbs_mcmc")
    sites = ensemble.site_points()
    log_w = ensemble.site_log_weights()
    log_phi = _site_log_phi(ensemble, sites)
    hams = _tuple_hamiltonians(ensemble, log_phi)

    nn = ensemble.particle_count
    m = ensemble.site_count
    log_base = log_w
    for _ in range(nn - 1):
        log_base = (log_base[:, None] + log_w[None, :]).reshape(-1)
    raw = -ensemble.beta * hams + log_base
    # center before normalizing: at large beta the raw logs are huge and
    # subtracting log_z directly loses the 1e-12 the check below demands
    shift = float(raw.max())
    centered = raw - shift
    log_z_centered = float(logsumexp(centered))
    log_z = log_z_centered + shift
    log_probs = centered - log_z_centered
    total = float(np.exp(logsumexp(log_probs)))
    if abs(total - 1.0) > 1e-12:
        raise RuntimeError(f"table normalization off by {total - 1.0:.2e}")
    return GibbsTable(ensemble=ensemble, sites=sites, log_probs=log_probs,
                      hamiltonians=hams, log_partition=log_z)


@dataclass(frozen=True, eq=False)
class McmcRun:
    """Post-burn-in sample stream with its acceptance bookkeeping."""

    configs: np.ndarray  # (kept, N, d)
    acceptance_rate: float
    seed: int

    def __iter__(self) -> Iterator[EmpiricalConfig]:
        for pts in self.configs:
            yield EmpiricalConfig(points=pts)


def gibbs_mcmc(ensemble: GibbsEnsemble, steps: int, burn_in: int,
               seed: int) -> McmcRun:
    """Metropolis chain targeting the ensemble, one particle move per step.

    Proposals are uniform on the torus; the acceptance ratio is
    e^{-beta (H' - H)} times the mu0 density ratio at the moved particle.
    Identical seeds give identical streams. The chain starts from the
    lattice configuration.
    """
    if steps < burn_in:
        raise ValueError("steps must cover the burn-in")
    rng = np.random.default_rng(seed)
    lattice = ensemble.lattice
    params = ensemble.params
    nn = ensemble.particle_count
    state = lattice.points.copy()
    h = hamiltonian(ensemble.kind, lattice, params,
                    EmpiricalConfig(points=state))
    dens = np.array([ensemble.mu0.density_at(p) for p in state])
    kept = []
    accepted = 0
    for step in range(steps):
        i = int(rng.integers(nn))
        proposal = rng.random(ensemble.d)
        new_dens = ensemble.mu0.density_at(proposal)
        u = rng.random()
        if new_dens > 0.0:
            trial = state.copy()
            trial[i] = proposal
            h_trial = hamiltonian(ensemble.kind, lattice, params,
                                  EmpiricalConfig(points=trial))
            if dens[i] == 0.0:
                log_ratio = math.inf
            else:
                log_ratio = (-ensemble.beta * (h_trial - h)
                             + math.log(new_dens / dens[i]))
            accept = True if u <= 0.0 else math.log(u) < log_ratio
            if accept:
                state = trial
                h = h_trial
                dens[i] = new_dens
                accepted += 1
        if step >= burn_in:
            kept.append(state.copy())
    return McmcRun(configs=np.array(kept), acceptance_rate=accepted / steps,
                   seed=seed)


# ---------------------------------------------------------------------------
# Partition functions
# ---------------------------------------------------------------------------


def _quadrature(mu0: GridMeasure, resolution: int):
    """Cell-center nodes of a k-grid weighted by mu0, as a probability."""
    axes = [(np.arange(resolution) + 0.5) / resolution] * mu0.dim
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    # center (2j + 1) / 2k lies in mu0 cell ((2j + 1) R) // 2k, R cells per axis
    cells = ((2 * np.arange(resolution) + 1) * mu0.resolution) // (2 * resolution)
    dens = mu0.density[np.ix_(*[cells] * mu0.dim)].reshape(-1)
    weights = dens / resolution ** mu0.dim
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("mu0 vanishes on the quadrature grid")
    weights = weights / total
    return pts, weights


def partition_function(ensemble: GibbsEnsemble, quadrature_resolution: int) -> float:
    """Z by tensor quadrature over k^d nodes per particle.

    In the zero-temperature permanental case (beta = n) the quadrature
    collapses algebraically to N! times a product of one-particle
    integrals; when that shortcut applies the two values are compared and
    must agree to 1e-8.
    """
    nn = ensemble.particle_count
    m = quadrature_resolution ** ensemble.d
    if m ** nn > TENSOR_QUAD_MAX:
        raise ValueError("tensor quadrature budget exceeded; lower k or n")
    pts, weights = _quadrature(ensemble.mu0, quadrature_resolution)
    log_w = np.log(weights, where=weights > 0.0,
                   out=np.full_like(weights, -np.inf))
    log_phi = log_theta_grid(ensemble.params, ensemble.lattice.points, pts)
    hams = _tuple_hamiltonians(ensemble, log_phi)
    log_base = log_w
    for _ in range(nn - 1):
        log_base = (log_base[:, None] + log_w[None, :]).reshape(-1)
    log_z = float(logsumexp(-ensemble.beta * hams + log_base))
    z = float(np.exp(log_z))

    if ensemble.kind.tag == "permanental" and ensemble.beta == ensemble.n:
        z_prod = partition_function_product(ensemble, quadrature_resolution)
        if abs(z - z_prod) > 1e-8 * max(1.0, abs(z_prod)):
            raise RuntimeError(
                f"quadrature {z!r} disagrees with product formula {z_prod!r}")
    return z


def partition_function_product(ensemble: GibbsEnsemble,
                               quadrature_resolution: int) -> float:
    """Zero-temperature product formula N! prod_i (integral of phi_i mu0).

    Valid for the permanental kind at beta = n, where e^{-beta H} is the
    permanent itself and the tensor integral factorizes exactly.
    """
    if ensemble.kind.tag != "permanental" or ensemble.beta != ensemble.n:
        raise ValueError("product formula needs permanental kind and beta = n")
    return float(np.exp(log_partition_product(ensemble, quadrature_resolution)))


def log_partition_product(ensemble: GibbsEnsemble,
                          quadrature_resolution: int) -> float:
    """log of the product formula, stable for large n."""
    if ensemble.kind.tag != "permanental" or ensemble.beta != ensemble.n:
        raise ValueError("product formula needs permanental kind and beta = n")
    pts, weights = _quadrature(ensemble.mu0, quadrature_resolution)
    log_w = np.log(weights, where=weights > 0.0,
                   out=np.full_like(weights, -np.inf))
    log_phi = log_theta_grid(ensemble.params, ensemble.lattice.points, pts)
    log_integrals = logsumexp(log_phi + log_w[None, :], axis=1)
    nn = ensemble.particle_count
    return float(gammaln(nn + 1) + np.sum(log_integrals))


# ---------------------------------------------------------------------------
# Rate estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RateEstimate:
    """-(1/r_n) log of a ball probability under the ensemble."""

    center: DiscreteMeasure
    radius: float
    normalization: float
    value: float
    prob: float
    method: str

    def __post_init__(self):
        if not -1e-12 <= self.prob <= 1.0 + 1e-12:
            raise ValueError("probability out of range")
        if self.prob <= 1.0 and self.value < -1e-9:
            raise ValueError("rate of a probability must be nonnegative")


def local_rate(ensemble: GibbsEnsemble, center: DiscreteMeasure,
               radius: float, ) -> RateEstimate:
    """Exact -(1/n^d) log of the W2-ball probability around a center.

    Configurations are grouped by unordered site multiset; a group is in
    the ball when the W2 distance (not squared) of its empirical measure
    to the center is below the radius. In 1-d every group's distance comes
    from one batched call of the exact circle kernel `w2_circle_atoms`.
    For d >= 2 each group is first bracketed: the ball is out of reach when
    sum_j nu_j min_i c(x_i, y_j) exceeds r^2 + 1e-9, and certain when the
    product coupling costs below r^2 - 1e-9; only groups in between solve
    the LP. Member masses are added in group order. Zero mass reports
    value +inf.
    """
    if ensemble.backend != "exact":
        raise ValueError("local rates need the exact backend")
    table = gibbs_exact(ensemble)
    nn = ensemble.particle_count
    keys, masses = map(np.array, zip(*table.grouped()))
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
            mu = empirical(EmpiricalConfig(points=table.sites[keys[c]]))
            w2sq = w2_empirical(mu, center, metric="torus")
            inside[c] = math.sqrt(max(w2sq, 0.0)) < radius
    prob = float(np.cumsum(masses[inside])[-1]) if inside.any() else 0.0
    r_n = float(nn)
    if prob <= 0.0:
        value = math.inf
    else:
        value = -math.log(min(prob, 1.0)) / r_n
    return RateEstimate(center=center, radius=radius, normalization=r_n,
                        value=value, prob=min(prob, 1.0), method="exact")


# ---------------------------------------------------------------------------
# Sanov at desk scale
# ---------------------------------------------------------------------------


def sanov_exact(alphabet_size: int, mu0_weights, n: int, nu_weights):
    """Exact multinomial rate vs relative entropy for a realizable type.

    Returns (-(1/n) log P[type class], Ent(mu0, nu)). The two differ by at
    most sanov_gap_bound(alphabet_size, n), the polynomial prefactor of the
    method of types.
    """
    if alphabet_size > SANOV_ALPHABET_MAX:
        raise ValueError(f"alphabet capped at {SANOV_ALPHABET_MAX}")
    if n > SANOV_N_MAX:
        raise ValueError(f"sample count capped at {SANOV_N_MAX}")
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

    log_p = gammaln(n + 1) - np.sum(gammaln(counts + 1))
    log_p += float(np.sum(counts[counts > 0] * np.log(mu0[counts > 0])))
    rate = -log_p / n

    mu0_m = DiscreteMeasure.from_alphabet_weights(mu0)
    nu_m = DiscreteMeasure.from_alphabet_weights(counts / n)
    return float(rate), float(entropy(mu0_m, nu_m))


def sanov_gap_bound(alphabet_size: int, n: int) -> float:
    """Method-of-types prefactor bound k log(n+1) / n."""
    return alphabet_size * math.log(n + 1) / n


# ---------------------------------------------------------------------------
# Zero-temperature moment generating function
# ---------------------------------------------------------------------------


def zero_temp_mgf(theta: GridFunction, n: int, d: int, mu0: GridMeasure,
                  quadrature_resolution: int):
    """Scaled log-MGF at beta = n against its lattice Legendre target.

    p_n(theta) = (1/n^d) sum_i (1/n) log of (integral of e^{n theta} phi_i mu0),
    the exact product-formula reduction of the permanental ensemble. The
    target averages over lattice points the torus supremum

        sup_x [theta(x) - d(x, p_i)^2],

    evaluated through the classical conjugate of |x|^2 - theta at the
    shifted arguments 2(p_i + m), m in {-1,0,1}^d. Returns (p_n, target).
    """
    if theta.kind != "torus" or theta.dim != d:
        raise ValueError("theta must live on the d-torus chart")
    if theta.finite_count() != theta.values.size:
        raise ValueError("theta must be finite everywhere")
    if mu0.dim != d or mu0.kind != "torus":
        raise ValueError("mu0 must be a torus grid measure of dimension d")
    lattice = TorusLattice(n=n, d=d)
    params = ThetaParams(n=n)

    pts, weights = _quadrature(mu0, quadrature_resolution)
    log_w = np.log(weights, where=weights > 0.0,
                   out=np.full_like(weights, -np.inf))
    theta_q = interpolate_at(theta, pts)
    log_phi = log_theta_grid(params, lattice.points, pts)
    log_integrals = logsumexp(n * theta_q[None, :] + log_phi + log_w[None, :],
                              axis=1)
    p_n = float(np.mean(log_integrals) / n)

    # sup_x [theta - |x - y|^2] = g*(2y) - |y|^2 with g = |x|^2 - theta
    nodes = theta.nodes()
    g = GridFunction(dim=d, resolution=theta.resolution,
                     values=(np.sum(nodes * nodes, axis=1)
                             - theta.values.reshape(-1)).reshape(theta.values.shape),
                     kind="torus")
    offsets = np.array(
        np.meshgrid(*([[-1.0, 0.0, 1.0]] * d), indexing="ij")
    ).reshape(d, -1).T
    shifted = lattice.points[:, None, :] + offsets[None, :, :]
    flat = shifted.reshape(-1, d)
    conj = conjugate_at(g, 2.0 * flat).reshape(len(lattice.points), -1)
    norms = np.sum(flat * flat, axis=1).reshape(len(lattice.points), -1)
    target = float(np.mean(np.max(conj - norms, axis=1)))
    return p_n, target
