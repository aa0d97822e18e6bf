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


def gibbs_table_ordered(log_phi, log_w, beta, n, tropical):
    """(log Z, H, log probabilities) of the Gibbs law over every ordered
    tuple of sites, row-major over (M,)*N, which the class table must
    reproduce.

    log_phi[i, x] is the log kernel of lattice point i at site x, log_w[x]
    the log site mass. Each tuple's log permanent (or its tropical maximum)
    is taken over all N! permutations, so keep N small.
    """
    nn, m = log_phi.shape
    cols = np.indices((m,) * nn).reshape(nn, -1).T
    terms = np.stack([sum(log_phi[i, cols[:, p]] for i, p in enumerate(perm))
                      for perm in itertools.permutations(range(nn))], axis=1)
    top = np.max(terms, axis=1)
    log_per = top if tropical else top + np.log(
        np.sum(np.exp(terms - top[:, None]), axis=1))
    hams = -log_per / n
    raw = -beta * hams + np.sum(log_w[cols], axis=1)
    shift = np.max(raw)
    log_z = shift + math.log(math.fsum(np.exp(raw - shift)))
    return log_z, hams, raw - log_z


def class_w2_lp(table, center_points, center_weights):
    """W2^2 from each configuration class of a Gibbs table (its groups, in
    order, read through `grouped()` and `sites`) to a center measure, one
    LP per class with uniform weight on the class's atoms."""
    out = []
    for key in table.grouped()[0]:
        pts = table.sites[key]
        out.append(torus_w2_lp(pts, np.full(len(key), 1.0 / len(key)),
                               center_points, center_weights))
    return out


def local_rate_lp(table, w2sq, radius):
    """(ball mass, memberships) of the per-class loop: a class is inside
    when sqrt(W2^2) < radius, and member masses are added left to right."""
    prob, inside = 0.0, []
    for mass, value in zip(table.grouped()[1], w2sq):
        inside.append(math.sqrt(max(value, 0.0)) < radius)
        if inside[-1]:
            prob += mass
    return prob, inside


def _quantile_knots(points=None, weights=None, grid_masses=None):
    """(cumulative knots, position knots, is_step) of a 1-d circle quantile:
    a step quantile over sorted atoms, or the piecewise-linear quantile of a
    grid measure with knots at the cell edges."""
    if grid_masses is not None:
        k = len(grid_masses)
        cum = np.concatenate([[0.0], np.cumsum(grid_masses)])
        cum[-1] = float(np.sum(grid_masses))
        return cum, np.arange(k + 1) / k, False
    pts = np.asarray(points, dtype=float).reshape(-1)
    order = np.argsort(pts, kind="stable")
    w = np.asarray(weights, dtype=float)[order]
    return np.concatenate([[0.0], np.cumsum(w)]), pts[order], True


def _quantile_eval(knots_t, knots_x, is_step, t):
    wraps = np.floor(t)
    frac = t - wraps
    total = knots_t[-1]
    s = np.clip(frac * total, 0.0, total)
    if is_step:
        idx = np.clip(np.searchsorted(knots_t, s, side="left") - 1,
                      0, len(knots_x) - 1)
        base = knots_x[idx]
    else:
        base = np.interp(s, knots_t, knots_x)
    return base + wraps


def w2_circle_ternary(points, weights, grid_masses, iters: int = 200):
    """Squared circle W2 from atoms to a grid measure by ternary search over
    the cut offset alpha in [-1, 1].

    For each alpha the integral of (Q_mu(t) - Q_nu(t + alpha))^2 is split at
    every quantile knot; on each piece the integrand is quadratic, so a
    three-sample interior rule integrates it exactly.
    """
    qm = _quantile_knots(points, weights)
    qn = _quantile_knots(grid_masses=np.asarray(grid_masses, dtype=float))

    def cost(alpha):
        cuts = np.concatenate([qm[0] / qm[0][-1],
                               (qn[0] / qn[0][-1] - alpha) % 1.0, [0.0, 1.0]])
        cuts = np.unique(np.clip(cuts, 0.0, 1.0))
        a, b = cuts[:-1], cuts[1:]
        keep = b - a > 1e-300
        a, b = a[keep], b[keep]
        mid = 0.5 * (a + b)
        quarter = 0.25 * (b - a)
        ts = np.concatenate([mid - quarter, mid, mid + quarter])
        gap = _quantile_eval(*qm, ts) - _quantile_eval(*qn, ts + alpha)
        g = (gap * gap).reshape(3, -1)
        return float(np.sum((b - a) * (g[1] + (2.0 / 3.0)
                                       * (g[0] + g[2] - 2.0 * g[1]))))

    lo, hi = -1.0, 1.0
    for _ in range(iters):
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        if cost(m1) <= cost(m2):
            hi = m2
        else:
            lo = m1
    return min(cost(0.5 * (lo + hi)), cost(0.0))


def w2_single_atom(x: float, grid_masses) -> float:
    """Squared circle W2 from one atom at x to a grid measure: the plan is
    forced, so it is the integral of d(x, y)^2 against the grid density,
    cell by cell, each cell split where y - x crosses a half-integer."""
    k = len(grid_masses)
    total = 0.0
    for j, mass in enumerate(grid_masses):
        a, b = j / k, (j + 1) / k
        cuts = [a] + [x + 0.5 + n for n in (-2, -1, 0, 1)
                      if a < x + 0.5 + n < b] + [b]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            c = x + round(0.5 * (lo + hi) - x)  # nearest image of x
            total += mass * k * ((hi - c) ** 3 - (lo - c) ** 3) / 3.0
    return total


def power_cells_numpy(values):
    """(node index, site, low, high) of the 1-d torus power cells by the
    lifted stack scan, every quantity a numpy scalar."""
    k = len(values)
    h = 1.0 / k
    nodes = (np.arange(k) + 0.5) * h
    positions = np.concatenate([nodes - 1.0, nodes, nodes + 1.0])
    weights = np.tile(values, 3)
    owners = np.tile(np.arange(k), 3)

    def boundary(i, j):
        return 0.5 * (positions[i] + positions[j]) + \
            (weights[j] - weights[i]) / (2.0 * (positions[j] - positions[i]))

    stack, lefts = [], []
    for s in range(len(positions)):
        while stack:
            if boundary(stack[-1], s) <= lefts[-1]:
                stack.pop()
                lefts.pop()
            else:
                break
        lefts.append(boundary(stack[-1], s) if stack else -np.inf)
        stack.append(s)

    node_idx, sites, lows, highs = [], [], [], []
    for pos, site in enumerate(stack):
        lo = lefts[pos]
        hi = lefts[pos + 1] if pos + 1 < len(stack) else np.inf
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        if hi > lo:
            node_idx.append(int(owners[site]))
            sites.append(positions[site])
            lows.append(lo)
            highs.append(hi)
    return (np.array(node_idx), np.array(sites),
            np.array(lows), np.array(highs))


def grid_cdf(nu_masses, points):
    """CDF of a 1-d grid density at points in [0, 1], linear on each cell."""
    nu_masses = np.asarray(nu_masses, dtype=float)
    k = len(nu_masses)
    cum = np.concatenate([[0.0], np.cumsum(nu_masses)])
    pts = np.clip(points, 0.0, 1.0)
    cell = np.minimum((pts * k).astype(np.int64), k - 1)
    return cum[cell] + (pts * k - cell) * nu_masses[cell]


def cell_masses_two_cdf(values, nu_masses):
    """nu-masses of the 1-d torus power cells: the CDF read at every cell's
    high edge and at its low edge apart, and each difference added into
    its node one at a time."""
    node_idx, _, lows, highs = power_cells_numpy(values)
    masses = np.zeros(len(values))
    np.add.at(masses, node_idx,
              grid_cdf(nu_masses, highs) - grid_cdf(nu_masses, lows))
    return masses


def invert_cells_bisect(masses, nu_masses, steps: int = 200):
    """Potential whose 1-d power cells carry the given nu-masses: a fixed
    count of bisection steps on the quantile anchor."""
    k = len(masses)
    h = 1.0 / k
    mids = (np.arange(k) + 1.0) * h
    target_sum = float(np.sum(mids))
    cum = np.cumsum(masses)
    knots = _quantile_knots(grid_masses=np.asarray(nu_masses, dtype=float))

    def boundaries(s):
        return _quantile_eval(*knots, s + cum)

    lo, hi = -1.0, 1.0
    while np.sum(boundaries(lo)) > target_sum:
        lo -= 1.0
    while np.sum(boundaries(hi)) < target_sum:
        hi += 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if np.sum(boundaries(mid)) < target_sum:
            lo = mid
        else:
            hi = mid
    b = boundaries(0.5 * (lo + hi))
    increments = 2.0 * h * (b - mids)
    return np.concatenate([[0.0], np.cumsum(increments[:-1])])


def dual_energy_loop(values, nu_masses):
    """J_nu(f) = -integral of min_x [d(x, y)^2 + f(x)] against a 1-d grid
    density: each power cell of the lifted stack scan is split at nu's cell
    edges, and the cubic antiderivative is added piece by piece, left to
    right."""
    kn = len(nu_masses)
    total = 0.0
    for node, site, lo, hi in zip(*power_cells_numpy(values)):
        first = int(math.floor(lo * kn))
        last = min(int(math.ceil(hi * kn)), kn)
        edges = [lo] + [e / kn for e in range(first + 1, last)
                        if lo < e / kn < hi] + [hi]
        for a, b in zip(edges[:-1], edges[1:]):
            cell = min(int((0.5 * (a + b)) * kn), kn - 1)
            rho = nu_masses[cell] * kn
            integral = ((b - site) ** 3 - (a - site) ** 3) / 3.0
            total += rho * integral + rho * (b - a) * values[node]
    return -total


def inversion_jacobian(slopes):
    """Dense d(potential)/d(masses) of the 1-d power-cell inversion, from
    its quantile slopes q.

    db_j/dm_l = q_j (ds/dm_l + [l <= j]) where the anchor moves by ds/dm_l =
    -sum_{j >= l} q_j / sum_j q_j, and f_i sums 2h (b_j - mid_j) over j < i.
    With P_i = sum_{j < i} q_j that gives 2h (P_i ds_l + max(P_i - P_l, 0)).
    """
    slopes = np.asarray(slopes, dtype=float)
    k = len(slopes)
    prefix = np.concatenate([[0.0], np.cumsum(slopes[:-1])])
    total = prefix[-1] + slopes[-1]
    ds = (prefix - total) / total
    return (2.0 / k) * (np.outer(prefix, ds)
                        + np.maximum(prefix[:, None] - prefix[None, :], 0.0))


def newton_direction_dense(masses, slopes, tilt, beta):
    """Newton step for R(m) = m - tilt(Inv(m)) by a dense k x k solve.

    The Jacobian is I - beta (diag t - t t^T) DInv(m); its columns sum to 1,
    so adding 1 1^T / k makes the step sum to half the residual's sum.
    """
    k = len(masses)
    dinv = inversion_jacobian(slopes)
    jac = (np.eye(k) + 1.0 / k
           - beta * (tilt[:, None] * dinv - np.outer(tilt, tilt @ dinv)))
    return np.linalg.solve(jac, tilt - masses)
