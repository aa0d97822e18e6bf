"""Permanents, particle Hamiltonians, Gibbs tables, Sanov, zero temperature."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from ldpma import hamiltonian_gibbs, transport
from ldpma.hamiltonian_gibbs import (
    PERMANENTAL,
    TROPICAL,
    GibbsEnsemble,
    _log_permanents,
    gibbs_exact,
    hamiltonian,
    hamiltonian_w2_gap,
    hamiltonians,
    local_rate,
    log_partition_product,
    partition_function,
    permanent,
    sanov_exact,
    sanov_gap_bound,
    sanov_rates,
    zero_temp_mgf,
    zero_temp_mgf_stack,
)
from ldpma.legendre import GridFunction
from ldpma.measures import (
    DiscreteMeasure,
    EmpiricalConfig,
    GridMeasure,
    torus_domain,
)
from ldpma.torus_theta import ThetaParams, TorusLattice, log_theta_grid
from ldpma.transport import cost_matrix, hungarian

from oracles import (
    class_w2_lp,
    gibbs_table_ordered,
    local_rate_lp,
    multinomial_type_prob,
    permanent_naive,
    relative_entropy,
    tropical_naive,
)


def test_permanent_matches_naive():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            m = rng.random((n, n))
            assert permanent(m) == pytest.approx(
                permanent_naive(m), rel=1e-12)


def test_permanent_known_values():
    assert permanent(np.ones((3, 3))) == pytest.approx(6.0, abs=1e-12)
    assert permanent(np.eye(4)) == pytest.approx(1.0, abs=1e-15)


def test_permanent_all_ones_accuracy():
    # the subset recursion adds nonnegative integers, so nothing cancels
    for n in (9, 12, 16):
        assert permanent(np.ones((n, n))) == math.factorial(n)


def test_permanent_refuses_past_the_cap_before_allocating():
    ones = np.ones((21, 21))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="N <= 20"):
            permanent(ones)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # a 2^21-row table would take 16 MB


def test_log_permanent_stable_for_tiny_entries():
    logs = np.full((3, 3), -500.0)
    got = _log_permanents(logs[None], False)[0]
    assert got == pytest.approx(math.log(6.0) - 1500.0, abs=1e-9)


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_hamiltonian_sandwich_exact(n, seed):
    rng = np.random.default_rng(seed)
    lattice = TorusLattice(n=n, d=1)
    params = ThetaParams(n=n)
    config = EmpiricalConfig(points=rng.random((n, 1)))
    h_perm = hamiltonian(PERMANENTAL, lattice, params, config)
    h_trop = hamiltonian(TROPICAL, lattice, params, config)
    width = math.log(math.factorial(n)) / n
    # perm >= max term and perm <= N! max term, so the order is strict
    assert h_perm <= h_trop + 1e-12
    assert h_perm >= h_trop - width - 1e-12


def test_hamiltonian_w2_gap_within_bracket():
    for n in (2, 4):
        gap = hamiltonian_w2_gap(TROPICAL, n, 25, seed=0)
        params = ThetaParams(n=n)
        assert gap <= params.bracket_width(1) + params.tail_bound


def test_lattice_reference_matches_the_per_trial_assignment(monkeypatch):
    # the gap's reference, one batched circle W2 over the sorted trials,
    # against the one torus-cost Hungarian assignment per trial it replaced
    refs = []
    real = hamiltonian_gibbs.w2_circle_atoms

    def captured(*args):
        refs.append(real(*args))
        return refs[-1]

    monkeypatch.setattr(hamiltonian_gibbs, "w2_circle_atoms", captured)
    trials = 30
    for n in (2, 3, 4, 8, 16):
        gap = hamiltonian_w2_gap(TROPICAL, n, trials, seed=n)
        configs = np.random.default_rng(n).random((trials, n, 1))
        lattice = TorusLattice(n=n, d=1)
        costs = cost_matrix(lattice.points, configs.reshape(-1, 1),
                            "sqdist_torus").reshape(n, trials, n)
        want = np.array([hungarian(costs[:, t]).cost / n
                         for t in range(trials)])
        assert np.max(np.abs(refs[-1] - want)) <= 1e-15
        h = hamiltonians(TROPICAL, lattice, ThetaParams(n=n), configs)
        assert abs(gap - np.max(np.abs(h / n - want))) <= 1e-15


def _looped_hamiltonians(kind, n, configs):
    lattice, params = TorusLattice(n=n, d=1), ThetaParams(n=n)
    return np.concatenate([hamiltonians(kind, lattice, params, pts[None])
                           for pts in configs])


@pytest.mark.parametrize("kind, n", [(PERMANENTAL, n) for n in range(2, 9)]
                         + [(TROPICAL, n) for n in (*range(2, 9), 16)])
def test_stacked_hamiltonians_match_one_at_a_time(kind, n):
    configs = np.random.default_rng(n).random((7, n, 1))
    got = hamiltonians(kind, TorusLattice(n=n, d=1), ThetaParams(n=n),
                       configs)
    assert np.array_equal(got, _looped_hamiltonians(kind, n, configs))


@pytest.mark.parametrize(
    "kind, n", [(PERMANENTAL, n) for n in range(2, 9)]
    + [(TROPICAL, n) for n in range(2, 9)],
    ids=[str(n) for n in range(2, 9)] + [f"tropical-{n}" for n in range(2, 9)])
def test_stacked_hamiltonians_with_a_partial_last_stack(monkeypatch, kind, n):
    # stacks of 3 matrices: 3 + 3 + 1 over seven configurations
    monkeypatch.setattr(hamiltonian_gibbs, "TUPLE_CHUNK", 3 << n)
    configs = np.random.default_rng(n).random((7, n, 1))
    got = hamiltonians(kind, TorusLattice(n=n, d=1), ThetaParams(n=n),
                       configs)
    assert np.array_equal(got, _looped_hamiltonians(kind, n, configs))


@pytest.mark.parametrize("n", range(2, 10))
def test_tropical_subset_recursion_matches_the_assignment(n):
    # both add the chosen logs row by row up to N = 7; from 8 terms on,
    # the numpy sum inside `hungarian` adds them pairwise
    configs = np.random.default_rng([n, 5]).random((40, n, 1))
    lattice, params = TorusLattice(n=n, d=1), ThetaParams(n=n)
    got = hamiltonians(TROPICAL, lattice, params, configs)
    log_phi = log_theta_grid(params, lattice.points, configs.reshape(-1, 1))
    want = np.array([hungarian(-m).cost / n for m in
                     log_phi.reshape(n, 40, n).swapaxes(0, 1)])
    if n <= 7:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-14


def test_hamiltonians_shape_and_translation():
    params, lattice = ThetaParams(n=4), TorusLattice(n=4, d=1)
    pts = np.array([[0.1], [0.35], [0.6], [0.85]])
    # one lattice step permutes the kernel centres, a relabelling the
    # particles; neither changes H
    stack = np.stack([pts, (pts + 0.25) % 1.0, pts[::-1]])
    for kind in (PERMANENTAL, TROPICAL):
        h = hamiltonians(kind, lattice, params, stack)
        assert h.shape == (3,)
        assert h[1:] == pytest.approx([h[0], h[0]], abs=1e-12)
        assert h[0] == hamiltonian(kind, lattice, params,
                                   EmpiricalConfig(points=pts))
    with pytest.raises(ValueError, match="lattice needs"):
        hamiltonians(PERMANENTAL, lattice, params, stack[:, :3])
    with pytest.raises(ValueError, match="lattice needs"):
        hamiltonians(PERMANENTAL, lattice, params, pts)
    with pytest.raises(ValueError, match="lattice needs"):
        hamiltonians(PERMANENTAL, lattice, params, np.zeros((2, 4, 2)))
    with pytest.raises(ValueError, match=r"\[0,1\)\^d"):
        hamiltonians(PERMANENTAL, lattice, params, stack + 0.2)


def uniform_ensemble(beta, n=2, refine=4):
    mu0 = GridMeasure.uniform(dim=1, resolution=n * refine)
    return GibbsEnsemble(beta=beta, n=n, d=1, mu0=mu0, kind=PERMANENTAL,
                         site_refinement=refine)


def test_gibbs_exact_normalizes():
    table = gibbs_exact(uniform_ensemble(3.0))
    assert np.exp(table.log_probs).sum() == pytest.approx(1.0, abs=1e-12)
    grouped_mass = table.grouped()[1].sum()
    assert grouped_mass == pytest.approx(1.0, abs=1e-12)


def test_gibbs_zero_beta_is_base_product():
    table = gibbs_exact(uniform_ensemble(0.0))
    # uniform site weights: every tuple carries 1 / sites^N
    want = 1.0 / table.ensemble.site_count ** table.ensemble.particle_count
    assert np.allclose(np.exp(table.log_probs), want, atol=1e-15)


def test_gibbs_exact_large_beta_stays_normalized():
    table = gibbs_exact(uniform_ensemble(3.0e5))
    probs = np.exp(table.log_probs)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert probs.max() <= 1.0


def test_local_rate_extreme_radii():
    ens = uniform_ensemble(1.0)
    center_pts = (np.arange(16) / 16)[:, None]
    center = DiscreteMeasure(points=center_pts,
                             weights=np.full(16, 1.0 / 16.0),
                             domain=torus_domain(1))
    wide = local_rate(ens, center, radius=10.0)
    assert wide.prob == pytest.approx(1.0, abs=1e-12)
    assert wide.value == pytest.approx(0.0, abs=1e-12)
    empty = local_rate(ens, center, radius=1e-9)
    assert empty.prob == 0.0
    assert empty.value == math.inf


def table_ensemble(kind, n, d, refine, beta=2.0):
    k = n * refine
    values = 1.0 + np.add.outer(np.arange(k), 0.5 * np.arange(k)) % 7.0
    mu0 = GridMeasure.from_density_values(values if d == 2 else values[0])
    return GibbsEnsemble(beta=beta, n=n, d=d, mu0=mu0, kind=kind,
                         site_refinement=refine)


def site_log_phi(ens):
    return log_theta_grid(ens.params, ens.lattice.points, ens.site_points())


@pytest.mark.parametrize("n, refine", [(3, 4), (4, 2)])
@pytest.mark.parametrize("kind", [PERMANENTAL, TROPICAL],
                         ids=["permanental", "tropical"])
def test_table_hamiltonians_equal_the_per_tuple_loop(kind, n, refine,
                                                     monkeypatch):
    # every tuple reads its class, the loop's value on the sorted row; the
    # loop on the tuple as it stands differs only in the last bit
    ens = table_ensemble(kind, n, 1, refine)
    log_phi = site_log_phi(ens)

    def loop(idx):
        logs = log_phi[:, list(idx)]
        return (hungarian(-logs).cost / n if kind is TROPICAL
                else -_log_permanents(logs[None], False)[0] / n)

    tuples = list(np.ndindex(*([ens.site_count] * n)))
    want = np.array([loop(sorted(idx)) for idx in tuples])
    got = gibbs_exact(ens).hamiltonians
    assert np.array_equal(got, want)
    assert np.max(np.abs(got - [loop(idx) for idx in tuples])) <= 4.4e-16
    # a budget of 88 puts 11 (N = 3) or 5 (N = 4) classes in a stack, and
    # the 364 classes at N = 3 leave a partial last stack
    monkeypatch.setattr(hamiltonian_gibbs, "TUPLE_CHUNK", 88)
    assert np.array_equal(gibbs_exact(ens).hamiltonians, want)


@pytest.mark.parametrize("n, d, refine", [(2, 1, 4), (3, 1, 4), (4, 1, 2),
                                          (5, 1, 1), (2, 2, 2)])
@pytest.mark.parametrize("kind", [PERMANENTAL, TROPICAL],
                         ids=["permanental", "tropical"])
def test_class_table_matches_the_ordered_table(kind, n, d, refine):
    # non-uniform mu0; at n = 2, d = 2, 16 sites hold 65,536 tuples
    ens = table_ensemble(kind, n, d, refine, beta=3.0)
    log_z, _, log_probs = gibbs_table_ordered(
        site_log_phi(ens), ens.site_log_weights(), ens.beta, n,
        kind is TROPICAL)
    table = gibbs_exact(ens)
    assert table.log_partition == pytest.approx(log_z, abs=1e-13)
    nn = ens.particle_count
    rows = np.sort(np.indices((ens.site_count,) * nn).reshape(nn, -1), axis=0)
    keys, inverse = np.unique(rows.T, axis=0, return_inverse=True)
    masses = np.bincount(inverse.reshape(-1), weights=np.exp(log_probs))
    classes, got = table.grouped()
    assert np.array_equal(classes, keys)
    assert np.max(np.abs(got - masses)) <= 1e-15


def test_tables_send_one_matrix_per_class(monkeypatch):
    sizes = []
    real = hamiltonian_gibbs._log_permanents

    def counted(logs, tropical):
        sizes.append(len(logs))
        return real(logs, tropical)

    monkeypatch.setattr(hamiltonian_gibbs, "_log_permanents", counted)
    gibbs_exact(table_ensemble(PERMANENTAL, 4, 1, 2))
    assert sum(sizes) == 330  # C(11, 4) classes, not 8^4 = 4,096 tuples


@pytest.mark.parametrize("kind", [PERMANENTAL, TROPICAL],
                         ids=["permanental", "tropical"])
def test_table_hamiltonians_match_permutation_sums(kind):
    naive = tropical_naive if kind is TROPICAL else permanent_naive
    rng = np.random.default_rng(7)
    for n, refine in ((3, 4), (4, 2)):
        ens = table_ensemble(kind, n, 1, refine)
        log_phi = site_log_phi(ens)
        hams = gibbs_exact(ens).hamiltonians
        for flat in rng.integers(len(hams), size=8):
            idx = np.unravel_index(flat, (ens.site_count,) * n)
            want = -math.log(naive(np.exp(log_phi[:, list(idx)]))) / n
            assert hams[flat] == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_exact_table_cap_is_checked_where_tables_are_built():
    # 7 particles on 28 sites: 5,379,616 classes; the ensemble builds, the
    # exact routes refuse it
    ens = GibbsEnsemble(beta=1.0, n=7, d=1,
                        mu0=GridMeasure.uniform(dim=1, resolution=28),
                        kind=PERMANENTAL)
    center = DiscreteMeasure(points=np.array([[0.5]]), weights=np.ones(1),
                             domain=torus_domain(1))
    with pytest.raises(ValueError, match="EXACT_TABLE_MAX"):
        gibbs_exact(ens)
    with pytest.raises(ValueError, match="EXACT_TABLE_MAX"):
        local_rate(ens, center, 0.1)


def test_tropical_tables_evaluate_past_nine_particles():
    # one quadrature node: Z = e^{-beta H} for the one tuple, all at x = 1/2
    ens = GibbsEnsemble(beta=1.0, n=10, d=1,
                        mu0=GridMeasure.uniform(dim=1, resolution=10),
                        kind=TROPICAL)
    log_phi = log_theta_grid(ens.params, ens.lattice.points, np.array([[0.5]]))
    h = hungarian(-np.repeat(log_phi, 10, axis=1)).cost / 10
    assert partition_function(ens, quadrature_resolution=1) == pytest.approx(
        math.exp(-h), rel=1e-14)


@pytest.mark.parametrize("n, d, refine", [(2, 2, 2), (5, 1, 2), (7, 1, 2),
                                          (8, 1, 1)],
                         ids=["2-2", "5-1", "7-1-refine2", "8-1-refine1"])
def test_zero_temperature_table_matches_product_formula(n, d, refine):
    # 3,876, 2,002, 77,520 and 6,435 classes (16^4, 10^5, 14^7 and 8^8
    # ordered tuples), non-uniform mu0
    ens = table_ensemble(PERMANENTAL, n, d, refine, beta=float(n))
    log_w = ens.site_log_weights()
    want = math.lgamma(ens.particle_count + 1) + float(
        np.sum(logsumexp(site_log_phi(ens) + log_w[None, :], axis=1)))
    assert gibbs_exact(ens).log_partition == pytest.approx(want, abs=1e-12)


def test_tuple_views_refuse_past_the_cap_before_allocating():
    table = gibbs_exact(table_ensemble(PERMANENTAL, 8, 1, 1, beta=8.0))
    tracemalloc.start()
    try:
        for view in ("hamiltonians", "log_probs"):
            with pytest.raises(ValueError, match="16777216 site tuples"):
                getattr(table, view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # the 8^8 tuple rows would take 1 GB


def test_quadrature_reads_the_cell_each_center_lies_in():
    # 5 nodes on a 10-cell mu0: center (2j + 1) / 10 lies in cell 2j + 1,
    # also at 0.3 and 0.7 where floating division lands one cell low
    values = 1.0 + np.arange(10.0)
    mu0 = GridMeasure.from_density_values(values)
    ens = GibbsEnsemble(beta=1.0, n=1, d=1, mu0=mu0, kind=PERMANENTAL)
    nodes = (np.arange(5) + 0.5) / 5
    log_w = np.log(values[1::2] / values[1::2].sum())
    log_phi = log_theta_grid(ens.params, ens.lattice.points, nodes[:, None])
    want = float(logsumexp(log_phi[0] + log_w))
    assert log_partition_product(ens, 5) == pytest.approx(want, abs=1e-14)


def test_site_weights_read_the_cell_each_site_starts():
    # 10 sites per axis on a 10-cell mu0: site j/10 lies in cell j, also
    # at 3/10, 6/10 and 7/10 where floating division lands one cell low
    values = 1.0 + np.arange(10.0)
    mu0 = GridMeasure.from_density_values(values)
    ens = GibbsEnsemble(beta=1.0, n=5, d=1, mu0=mu0, kind=PERMANENTAL,
                        site_refinement=2)
    want = np.log(values / values.sum())
    assert np.allclose(ens.site_log_weights(), want, atol=1e-14)


def test_partition_tensor_vs_product_route():
    ens = uniform_ensemble(2.0)  # beta = n: the product formula applies
    tensor = partition_function(ens, quadrature_resolution=2048)
    product = math.exp(log_partition_product(ens, quadrature_resolution=2048))
    assert tensor == pytest.approx(product, rel=1e-8)


def test_product_formula_requires_zero_temperature_coupling():
    with pytest.raises(ValueError):
        log_partition_product(uniform_ensemble(1.5), 256)


def test_sanov_exact_binomial_quarter():
    rate, ent = sanov_exact(2, [0.5, 0.5], 4, [0.75, 0.25])
    assert math.exp(-4 * rate) == pytest.approx(0.25, abs=1e-12)
    assert ent == pytest.approx(
        relative_entropy([0.5, 0.5], [0.75, 0.25]), abs=1e-13)


def test_sanov_rejects_unrealizable_type():
    with pytest.raises(ValueError):
        sanov_exact(2, [0.5, 0.5], 4, [0.7, 0.3])


@given(st.integers(min_value=1, max_value=11))
@settings(max_examples=30, deadline=None)
def test_sanov_gap_bound_over_types(count):
    n = 12
    counts = (count, n - count)
    nu = np.array(counts) / n
    rate, ent = sanov_exact(2, [0.5, 0.5], n, nu)
    prob = multinomial_type_prob(counts, [0.5, 0.5])
    assert math.exp(-n * rate) == pytest.approx(prob, rel=1e-10)
    assert -1e-12 <= rate - ent <= sanov_gap_bound(2, n) + 1e-12


def _compositions(n, k):
    """Every count row of k letters summing to n."""
    if k == 1:
        return [(n,)]
    return [(c,) + rest for c in range(n + 1)
            for rest in _compositions(n - c, k - 1)]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_stacked_sanov_rows_equal_the_one_type_call(k):
    # every type at n = 7, most of them with zero counts, against the
    # scalar call and against the per-type sums over charged letters only
    rng = np.random.default_rng(k)
    mu0 = rng.uniform(0.1, 1.0, k)
    mu0 /= mu0.sum()
    n = 7
    counts = np.array(_compositions(n, k))
    rates, ents = sanov_rates(mu0, counts)
    assert np.sum(counts == 0) > 0
    for row, rate, ent in zip(counts, rates, ents):
        assert (rate, ent) == sanov_exact(k, mu0, n, row / n)
        c = row > 0
        log_p = gammaln(n + 1) - np.sum(gammaln(row + 1))
        log_p += float(np.sum(row[c] * np.log(mu0[c])))
        nu = row[c] / n
        assert rate == -log_p / n
        assert ent == np.sum(nu * np.log(nu / mu0[c]))


def test_stacked_sanov_refuses_what_the_one_type_call_refuses():
    with pytest.raises(ValueError, match="one sample count"):
        sanov_rates([0.5, 0.5], np.array([[1, 2], [2, 2]]))
    with pytest.raises(ValueError, match="sample count capped"):
        sanov_rates([0.5, 0.5], np.array([[501, 0]]))
    with pytest.raises(ValueError, match="alphabet capped"):
        sanov_rates(np.full(7, 1 / 7), np.eye(7, dtype=int)[:1])


def test_shared_kernel_table_equals_per_theta_calls():
    k = 64
    xs = np.arange(k) / k
    mu0 = GridMeasure.from_density_values(1.0 + 0.5 * np.sin(2 * np.pi * xs))
    thetas = [GridFunction(dim=1, resolution=k, values=v)
              for v in (np.zeros(k), 0.2 * np.cos(2 * np.pi * xs),
                        -0.8 * cost_matrix(xs[:, None], [[0.5]],
                                           "sqdist_torus")[:, 0])]
    thetas += [theta.shifted(0.37) for theta in thetas]
    for n in (8, 16, 32):
        p, target = zero_temp_mgf_stack(thetas, n, 1, mu0, 512)
        for j, theta in enumerate(thetas):
            assert (p[j], target[j]) == zero_temp_mgf(theta, n, 1, mu0, 512)


def test_zero_temp_shift_identity():
    k = 32
    xs = np.arange(k) / k
    theta = GridFunction(dim=1, resolution=k,
                         values=0.1 * np.cos(2 * np.pi * xs))
    mu0 = GridMeasure.uniform(dim=1, resolution=k)
    p, _ = zero_temp_mgf(theta, 8, 1, mu0, 256)
    p_shift, _ = zero_temp_mgf(theta.shifted(0.41), 8, 1, mu0, 256)
    assert p_shift - p == pytest.approx(0.41, abs=1e-12)


def test_zero_temp_gap_shrinks():
    k = 32
    xs = np.arange(k) / k
    theta = GridFunction(dim=1, resolution=k,
                         values=0.1 * np.cos(2 * np.pi * xs))
    mu0 = GridMeasure.uniform(dim=1, resolution=k)
    gaps = []
    for n in (8, 16, 32):
        p, target = zero_temp_mgf(theta, n, 1, mu0, 256)
        gaps.append(abs(p - target))
    assert gaps[0] > gaps[1] > gaps[2]


def count_lps(monkeypatch):
    calls = []
    solve = transport.kantorovich_lp

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(transport, "kantorovich_lp", counted)
    return calls


@pytest.mark.parametrize("n, refine", [(2, 4), (3, 2), (4, 2)])
def test_local_rate_1d_equals_the_per_class_lp(n, refine, monkeypatch):
    rng = np.random.default_rng(n)
    y = rng.random(16)
    w = rng.random(16) + 0.2
    w /= w.sum()
    center = DiscreteMeasure(points=y[:, None], weights=w,
                             domain=torus_domain(1))
    ens = table_ensemble(PERMANENTAL, n, 1, refine, beta=1e3)
    table = gibbs_exact(ens)
    w2sq = class_w2_lp(table, y[:, None], w)
    edge = math.sqrt(sorted(w2sq)[len(w2sq) // 2])  # a class's distance
    calls = count_lps(monkeypatch)
    for radius in (0.15, edge - 5e-7, edge + 5e-7):
        want, _ = local_rate_lp(table, w2sq, radius)
        assert local_rate(ens, center, radius).prob == min(want, 1.0)
    assert calls == []


def test_local_rate_2d_brackets_before_solving(monkeypatch):
    # n = 2, d = 2, refinement 1: 35 classes of 4 atoms against 8 x 8 atoms
    ens = table_ensemble(PERMANENTAL, 2, 2, 1)
    axis = np.arange(8) / 8
    pts = np.stack([m.reshape(-1) for m in np.meshgrid(axis, axis,
                                                       indexing="ij")], -1)
    center = DiscreteMeasure(points=pts, weights=np.full(64, 1 / 64),
                             domain=torus_domain(2))
    table = gibbs_exact(ens)
    w2sq = class_w2_lp(table, pts, center.weights)
    calls = count_lps(monkeypatch)
    solved = []
    for radius in (0.15, 0.27, 0.3, 0.5):
        want, _ = local_rate_lp(table, w2sq, radius)
        del calls[:]
        assert local_rate(ens, center, radius).prob == min(want, 1.0)
        solved.append(len(calls))
    # every lower bound is at least 0.2165 > 0.15, and the product coupling
    # costs 0.4146^2 for every class, so only the middle radii solve LPs
    assert solved[0] == solved[3] == 0
    assert 0 < solved[1] < 35 and 0 < solved[2] < 35
