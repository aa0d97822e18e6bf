"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: permutation sums, dense scans,
closed forms. The package must agree with these, not the other way
around, so nothing imports from ldpma.
"""

import itertools
import math

import numpy as np


def permanent_naive(matrix: np.ndarray) -> float:
    """Permutation-sum permanent, O(n! n)."""
    n = matrix.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        prod = 1.0
        for i, j in enumerate(perm):
            prod *= matrix[i, j]
        total += prod
    return total


def tropical_naive(matrix: np.ndarray) -> float:
    """Max over permutations of the product, the permanent's tropical twin."""
    n = matrix.shape[0]
    best = -math.inf
    for perm in itertools.permutations(range(n)):
        prod = 1.0
        for i, j in enumerate(perm):
            prod *= matrix[i, j]
        best = max(best, prod)
    return best


def assignment_brute(cost: np.ndarray):
    """(best permutation, min total cost) by exhaustive search."""
    n = cost.shape[0]
    best_perm, best_cost = None, math.inf
    for perm in itertools.permutations(range(n)):
        value = sum(cost[i, perm[i]] for i in range(n))
        if value < best_cost:
            best_perm, best_cost = perm, value
    return best_perm, best_cost


def theta_kernel_naive(n: int, center: float, x: float,
                       radius: int = 12) -> float:
    """1-d Gaussian periodization by direct summation over many images."""
    return sum(
        math.exp(-n * (x - center - m) ** 2)
        for m in range(-radius, radius + 1)
    )


def theta_kernel_naive_nd(n: int, center, x, radius: int = 2) -> float:
    """d-dim Gaussian periodization summed over every joint shift in
    {-radius..radius}^d, one term per shift vector, with no factoring."""
    center = [float(c) for c in center]
    x = [float(v) for v in x]
    total = 0.0
    for shift in itertools.product(range(-radius, radius + 1),
                                   repeat=len(x)):
        sq = sum((xa - ca - m) ** 2 for xa, ca, m in zip(x, center, shift))
        total += math.exp(-n * sq)
    return total


def ent_dual_sup_scan(mu0, nu, rounds: int = 8, span: float = 8.0) -> float:
    """Refined-lattice supremum of <theta, nu> - log sum exp(theta) mu0,
    evaluated one candidate at a time.

    Same lattice and strict-improvement rule as the package's duality
    check: 9 offsets per free coordinate, the last coordinate gauge-fixed
    at 0, the width divided by 4 each round.
    """
    log_mu0 = [math.log(w) for w in mu0]
    k = len(log_mu0)

    def value(free):
        theta = list(free) + [0.0]
        terms = [t + lw for t, lw in zip(theta, log_mu0)]
        top = max(terms)
        log_mgf = top + math.log(math.fsum(math.exp(t - top) for t in terms))
        return math.fsum(t * q for t, q in zip(theta, nu)) - log_mgf

    center = [0.0] * (k - 1)
    width = span
    best = value(center)
    for _ in range(rounds):
        round_best, round_at = -math.inf, None
        for offset in itertools.product(range(-4, 5), repeat=k - 1):
            cand = [c + width * (o / 4.0) for c, o in zip(center, offset)]
            v = value(cand)
            if v > round_best:
                round_best, round_at = v, cand
        if round_best > best:
            best, center = round_best, round_at
        width /= 4.0
    return best


def multinomial_type_prob(counts, weights) -> float:
    """Exact probability of a type class from factorials."""
    n = sum(counts)
    coeff = math.factorial(n)
    for c in counts:
        coeff //= math.factorial(c)
    prob = float(coeff)
    for c, w in zip(counts, weights):
        prob *= float(w) ** c
    return prob


def relative_entropy(mu0, nu) -> float:
    """sum nu log(nu / mu0) with the 0 log 0 = 0 convention."""
    total = 0.0
    for p, q in zip(mu0, nu):
        if q > 0.0:
            total += q * math.log(q / p)
    return total


def torus_cell_masses_1d(values: np.ndarray) -> np.ndarray:
    """Exact per-node cell widths of a 1-d torus potential vs uniform.

    The power cell of node i under potential f has width
    h (1 + (f_{i-1} - 2 f_i + f_{i+1}) / (2 h^2)); the formula holds while
    every width stays positive.
    """
    k = len(values)
    h = 1.0 / k
    second = np.roll(values, 1) - 2.0 * values + np.roll(values, -1)
    return h * (1.0 + second / (2.0 * h * h))


def w2_circle_atoms_brute(points_a, weights_a, points_b, weights_b,
                          cuts: int = 4096) -> float:
    """Squared transport cost on the circle by cut enumeration.

    For each candidate cut the circle unrolls to an interval and the
    optimal coupling is the monotone quantile one; the circle optimum is
    the minimum over cuts. Dense cut sampling brackets the true value.
    """
    def unrolled_cost(shift: float) -> float:
        a = np.sort((np.asarray(points_a) - shift) % 1.0)
        order_a = np.argsort((np.asarray(points_a) - shift) % 1.0,
                             kind="stable")
        b = np.sort((np.asarray(points_b) - shift) % 1.0)
        order_b = np.argsort((np.asarray(points_b) - shift) % 1.0,
                             kind="stable")
        wa = np.asarray(weights_a)[order_a]
        wb = np.asarray(weights_b)[order_b]
        ia = ib = 0
        ra, rb = wa[0], wb[0]
        total = 0.0
        while True:
            m = min(ra, rb)
            total += m * (a[ia] - b[ib]) ** 2
            ra -= m
            rb -= m
            if ra <= 1e-15:
                ia += 1
                if ia == len(a):
                    break
                ra = wa[ia]
            if rb <= 1e-15:
                ib += 1
                if ib == len(b):
                    break
                rb = wb[ib]
        return total

    return min(unrolled_cost(c / cuts) for c in range(cuts))


def torus_w2_lp(points_a, weights_a, points_b, weights_b) -> float:
    """Squared torus W2 of two discrete measures as a dense Kantorovich LP."""
    from scipy.optimize import linprog

    a = np.atleast_2d(np.asarray(points_a, dtype=float))
    b = np.atleast_2d(np.asarray(points_b, dtype=float))
    delta = np.abs(a[:, None, :] - b[None, :, :])
    cost = np.sum(np.minimum(delta, 1.0 - delta) ** 2, axis=2)
    n, m = cost.shape
    rows = np.kron(np.eye(n), np.ones((1, m)))
    cols = np.kron(np.ones((1, n)), np.eye(m))
    result = linprog(cost.reshape(-1), A_eq=np.vstack([rows, cols]),
                     b_eq=np.concatenate([weights_a, weights_b]),
                     bounds=(0, None), method="highs",
                     options={"primal_feasibility_tolerance": 1e-10,
                              "dual_feasibility_tolerance": 1e-10})
    assert result.success, result.message
    return float(np.sum(result.x * cost.reshape(-1)))


def class_w2_lp(table, center_points, center_weights):
    """W2^2 from each configuration class of a Gibbs table (its groups, in
    order, read through `grouped()` and `sites`) to a center measure, one
    LP per class with uniform weight on the class's atoms."""
    out = []
    for key, _ in table.grouped():
        pts = table.sites[list(key)]
        out.append(torus_w2_lp(pts, np.full(len(key), 1.0 / len(key)),
                               center_points, center_weights))
    return out


def local_rate_lp(table, w2sq, radius):
    """(ball mass, memberships) of the per-class loop: a class is inside
    when sqrt(W2^2) < radius, and member masses are added left to right."""
    prob, inside = 0.0, []
    for (_, mass), value in zip(table.grouped(), w2sq):
        inside.append(math.sqrt(max(value, 0.0)) < radius)
        if inside[-1]:
            prob += mass
    return prob, inside
