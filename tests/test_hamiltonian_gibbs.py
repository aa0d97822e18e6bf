"""Permanents, particle Hamiltonians, Gibbs tables, Sanov, zero temperature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from ldpma import hamiltonian_gibbs, transport
from ldpma.hamiltonian_gibbs import (
    PERMANENTAL,
    TROPICAL,
    GibbsEnsemble,
    gibbs_exact,
    gibbs_mcmc,
    hamiltonian,
    hamiltonian_w2_gap,
    hamiltonians,
    local_rate,
    log_partition_product,
    log_permanent,
    partition_function,
    permanent,
    sanov_exact,
    sanov_gap_bound,
    tropical_permanent,
    zero_temp_mgf,
)
from ldpma.legendre import GridFunction
from ldpma.measures import (
    DiscreteMeasure,
    EmpiricalConfig,
    GridMeasure,
    torus_domain,
)
from ldpma.torus_theta import ThetaParams, TorusLattice, log_theta_grid
from ldpma.transport import hungarian

from oracles import (
    class_w2_lp,
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
    # Ryser's signed subset sum cancels: exact at N = 9 and 12, not at 16
    for n in (9, 12):
        assert permanent(np.ones((n, n))) == math.factorial(n)
    assert permanent(np.ones((16, 16))) == pytest.approx(math.factorial(16),
                                                         rel=1e-8)


def test_tropical_permanent_matches_naive():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        for _ in range(10):
            m = rng.random((n, n)) + 0.1
            assert tropical_permanent(m) == pytest.approx(
                tropical_naive(m), rel=1e-12)


def test_log_permanent_stable_for_tiny_entries():
    logs = np.full((3, 3), -500.0)
    got = log_permanent(logs)
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
        gap = hamiltonian_w2_gap(TROPICAL, n, 1, 25, seed=0)
        params = ThetaParams(n=n)
        assert gap <= params.bracket_width(1) + params.tail_bound


def _looped_hamiltonians(kind, n, configs):
    lattice, params = TorusLattice(n=n, d=1), ThetaParams(n=n)
    out = []
    for pts in configs:
        log_phi = log_theta_grid(params, lattice.points, pts)
        if kind is TROPICAL:
            out.append(hungarian(-log_phi).cost / n)
        else:
            out.append(-log_permanent(log_phi) / n)
    return np.array(out)


@pytest.mark.parametrize("kind, n", [(PERMANENTAL, n) for n in range(2, 9)]
                         + [(TROPICAL, n) for n in (*range(2, 9), 16)])
def test_stacked_hamiltonians_match_one_at_a_time(kind, n):
    configs = np.random.default_rng(n).random((7, n, 1))
    got = hamiltonians(kind, TorusLattice(n=n, d=1), ThetaParams(n=n),
                       configs)
    assert np.array_equal(got, _looped_hamiltonians(kind, n, configs))


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_hamiltonians_with_a_partial_last_stack(monkeypatch, n):
    # stacks of 3 matrices: 3 + 3 + 1 over seven configurations
    monkeypatch.setattr(hamiltonian_gibbs, "TUPLE_CHUNK", 3 << n)
    configs = np.random.default_rng(n).random((7, n, 1))
    got = hamiltonians(PERMANENTAL, TorusLattice(n=n, d=1),
                       ThetaParams(n=n), configs)
    assert np.array_equal(got,
                          _looped_hamiltonians(PERMANENTAL, n, configs))


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
                         backend="exact", site_refinement=refine)


def test_gibbs_exact_normalizes():
    table = gibbs_exact(uniform_ensemble(3.0))
    assert np.exp(table.log_probs).sum() == pytest.approx(1.0, abs=1e-12)
    grouped_mass = sum(mass for _, mass in table.grouped())
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
    mu0 = GridMeasure.from_density_values(values if d == 2 else values[0],
                                          kind="torus")
    return GibbsEnsemble(beta=beta, n=n, d=d, mu0=mu0, kind=kind,
                         site_refinement=refine)


def site_log_phi(ens):
    return log_theta_grid(ens.params, ens.lattice.points, ens.site_points())


@pytest.mark.parametrize("n, refine", [(3, 4), (4, 2)])
@pytest.mark.parametrize("kind", [PERMANENTAL, TROPICAL],
                         ids=["permanental", "tropical"])
def test_table_hamiltonians_equal_the_per_tuple_loop(kind, n, refine,
                                                     monkeypatch):
    ens = table_ensemble(kind, n, 1, refine)
    log_phi = site_log_phi(ens)
    m = ens.site_count
    want = np.empty(m ** n)
    for flat, idx in enumerate(np.ndindex(*([m] * n))):
        logs = log_phi[:, list(idx)]
        want[flat] = (hungarian(-logs).cost / n if kind is TROPICAL
                      else -log_permanent(logs) / n)
    assert np.array_equal(gibbs_exact(ens).hamiltonians, want)
    # a budget of 88 puts 3 to 14 tuples in a chunk, none dividing the count
    monkeypatch.setattr(hamiltonian_gibbs, "TUPLE_CHUNK", 88)
    assert np.array_equal(gibbs_exact(ens).hamiltonians, want)


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


def test_tropical_tables_refuse_past_the_exhaustive_cap():
    ens = GibbsEnsemble(beta=1.0, n=10, d=1,
                        mu0=GridMeasure.uniform(dim=1, resolution=10),
                        kind=TROPICAL, backend="mcmc")
    with pytest.raises(ValueError, match="tropical tables"):
        partition_function(ens, quadrature_resolution=1)


@pytest.mark.parametrize("n, d", [(2, 2), (5, 1)])
def test_zero_temperature_table_matches_product_formula(n, d):
    # 16^4 = 65,536 and 10^5 = 100,000 tuples, non-uniform mu0
    ens = table_ensemble(PERMANENTAL, n, d, 2, beta=float(n))
    log_w = ens.site_log_weights()
    want = math.lgamma(ens.particle_count + 1) + float(
        np.sum(logsumexp(site_log_phi(ens) + log_w[None, :], axis=1)))
    assert gibbs_exact(ens).log_partition == pytest.approx(want, abs=1e-12)


def test_quadrature_reads_the_cell_each_center_lies_in():
    # 5 nodes on a 10-cell mu0: center (2j + 1) / 10 lies in cell 2j + 1,
    # also at 0.3 and 0.7 where floating division lands one cell low
    values = 1.0 + np.arange(10.0)
    mu0 = GridMeasure.from_density_values(values, kind="torus")
    ens = GibbsEnsemble(beta=1.0, n=1, d=1, mu0=mu0, kind=PERMANENTAL,
                        backend="mcmc")
    nodes = (np.arange(5) + 0.5) / 5
    log_w = np.log(values[1::2] / values[1::2].sum())
    log_phi = log_theta_grid(ens.params, ens.lattice.points, nodes[:, None])
    want = float(logsumexp(log_phi[0] + log_w))
    assert log_partition_product(ens, 5) == pytest.approx(want, abs=1e-14)


def test_site_weights_read_the_cell_each_site_starts():
    # 10 sites per axis on a 10-cell mu0: site j/10 lies in cell j, also
    # at 3/10, 6/10 and 7/10 where floating division lands one cell low
    values = 1.0 + np.arange(10.0)
    mu0 = GridMeasure.from_density_values(values, kind="torus")
    ens = GibbsEnsemble(beta=1.0, n=5, d=1, mu0=mu0, kind=PERMANENTAL,
                        backend="mcmc", site_refinement=2)
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


def test_mcmc_deterministic_and_in_domain():
    ens = GibbsEnsemble(beta=1.0, n=2, d=1,
                        mu0=GridMeasure.uniform(dim=1, resolution=8),
                        kind=PERMANENTAL, backend="mcmc")
    run_a = gibbs_mcmc(ens, steps=200, burn_in=50, seed=4)
    run_b = gibbs_mcmc(ens, steps=200, burn_in=50, seed=4)
    assert np.array_equal(run_a.configs, run_b.configs)
    assert 0.0 < run_a.acceptance_rate <= 1.0
    assert np.all((run_a.configs >= 0.0) & (run_a.configs < 1.0))


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


def test_zero_temp_shift_identity():
    k = 32
    xs = np.arange(k) / k
    theta = GridFunction(dim=1, resolution=k,
                         values=0.1 * np.cos(2 * np.pi * xs), kind="torus")
    mu0 = GridMeasure.uniform(dim=1, resolution=k)
    p, _ = zero_temp_mgf(theta, 8, 1, mu0, 256)
    p_shift, _ = zero_temp_mgf(theta.shifted(0.41), 8, 1, mu0, 256)
    assert p_shift - p == pytest.approx(0.41, abs=1e-12)


def test_zero_temp_gap_shrinks():
    k = 32
    xs = np.arange(k) / k
    theta = GridFunction(dim=1, resolution=k,
                         values=0.1 * np.cos(2 * np.pi * xs), kind="torus")
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
