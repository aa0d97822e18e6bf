"""Independent recomputations the benchmark checks the program against.

Nothing here imports ldpma: each function restates a definition from the
paper or the package docs in plain numpy, so a fault in the program cannot
also hide in its check.
"""

import itertools
import math

import numpy as np

# the program's default kernel truncation radius R
THETA_RADIUS = 2


def log_theta(n, points, radius=THETA_RADIUS):
    """log phi_i(x_j) for the n^d lattice points p_i = k/n (row-major).

    phi_i(x) = sum over shifts m in {-R..R}^d of exp(-n |x - p_i - m|^2).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = points.shape[1]
    axes = np.meshgrid(*([np.arange(n) / n] * d), indexing="ij")
    lattice = np.stack([a.reshape(-1) for a in axes], axis=-1)
    shifts = np.array(list(itertools.product(range(-radius, radius + 1),
                                             repeat=d)), dtype=float)
    diff = points[None, None, :, :] - lattice[None, :, None, :] \
        - shifts[:, None, None, :]
    expo = -n * np.sum(diff * diff, axis=-1)  # (shift, centre, point)
    top = expo.max(axis=0)
    return top + np.log(np.exp(expo - top).sum(axis=0))


def _permutations(n):
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def naive_log_permanent(log_matrix):
    """log of the permutation sum of exp(L), by enumerating all N! terms."""
    log_matrix = np.asarray(log_matrix, dtype=float)
    n = log_matrix.shape[0]
    terms = log_matrix[np.arange(n)[None, :], _permutations(n)].sum(axis=1)
    top = terms.max()
    return float(top + math.log(np.exp(terms - top).sum()))


def naive_log_tropical(log_matrix):
    """log of the permutation max of exp(L), by enumerating all N! terms."""
    log_matrix = np.asarray(log_matrix, dtype=float)
    n = log_matrix.shape[0]
    return float(log_matrix[np.arange(n)[None, :], _permutations(n)]
                 .sum(axis=1).max())


def logsumexp(values, axis=None):
    values = np.asarray(values, dtype=float)
    top = np.max(values, axis=axis, keepdims=True)
    out = top + np.log(np.sum(np.exp(values - top), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis) if axis is not None else float(out.item())


def relative_entropy(mu0, nu):
    """sum nu log(nu / mu0) over the atoms nu charges."""
    mu0 = np.asarray(mu0, dtype=float)
    nu = np.asarray(nu, dtype=float)
    on = nu > 0
    return float(np.sum(nu[on] * np.log(nu[on] / mu0[on])))


def tilt_masses(phi, beta, mu0_masses):
    """Gibbs tilt e^{beta phi} mu0 / Z as cell masses."""
    logs = beta * np.asarray(phi, dtype=float).reshape(-1)
    raw = np.exp(logs - logs.max()) * np.asarray(mu0_masses).reshape(-1)
    return raw / raw.sum()


def pushforward_recount(phi, nu_masses, samples_per_cell):
    """Cell masses of T_phi # nu by a brute-force argmin over sample points.

    phi lives on the k^d torus grid with nodes at cell centres. Each cell of
    nu (piecewise constant) is split into samples_per_cell^d sub-cells, and
    each sub-cell centre y goes to the node minimising d(x, y)^2 + phi(x),
    the minimum taken over the 3^d integer shifts of every node. Returns
    (masses, resolution): resolution[i] is the nu-mass of the sub-cells
    labelled i, or next to a sub-cell labelled i, that touch a sub-cell with
    another label, which bounds how far the sampled mass of cell i can sit
    from the exact one.
    """
    phi = np.asarray(phi, dtype=float)
    d, k, s = phi.ndim, phi.shape[0], samples_per_cell
    fine = k * s
    axes = np.meshgrid(*([(np.arange(k) + 0.5) / k] * d), indexing="ij")
    nodes = np.stack([a.reshape(-1) for a in axes], axis=-1)
    shifts = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=d)))
    lifted = (nodes[None, :, :] + shifts[:, None, :]).reshape(-1, d)
    offset = np.tile(phi.reshape(-1), len(shifts))
    owner = np.tile(np.arange(k ** d), len(shifts))

    axes = np.meshgrid(*([(np.arange(fine) + 0.5) / fine] * d), indexing="ij")
    ys = np.stack([a.reshape(-1) for a in axes], axis=-1)
    labels = np.empty(len(ys), dtype=np.int64)
    chunk = max(1, (1 << 18) // len(lifted))  # keep temporaries small
    for lo in range(0, len(ys), chunk):
        diff = ys[lo:lo + chunk, None, :] - lifted[None, :, :]
        score = np.sum(diff * diff, axis=-1) + offset[None, :]
        labels[lo:lo + chunk] = owner[np.argmin(score, axis=1)]

    coarse = np.stack(np.meshgrid(*([np.arange(fine) // s] * d),
                                  indexing="ij"), axis=-1).reshape(-1, d)
    flat_cell = np.ravel_multi_index(coarse.T, (k,) * d)
    weight = np.asarray(nu_masses, dtype=float).reshape(-1)[flat_cell] / s ** d
    masses = np.bincount(labels, weights=weight, minlength=k ** d)

    grid = labels.reshape((fine,) * d)
    boundary = np.zeros(grid.shape, dtype=bool)
    touching = [grid]
    for axis in range(d):
        for step in (1, -1):
            other = np.roll(grid, step, axis=axis)
            boundary |= other != grid
            touching.append(other)
    # a boundary sub-cell counts once towards each label it or a neighbour has
    band = boundary.reshape(-1)
    near = np.sort(np.stack([lab.reshape(-1)[band] for lab in touching]),
                   axis=0)
    first = np.ones(near.shape, dtype=bool)
    first[1:] = near[1:] != near[:-1]
    resolution = np.zeros(k ** d)
    np.add.at(resolution, near[first],
              np.broadcast_to(weight[band], near.shape)[first])
    return masses, resolution
