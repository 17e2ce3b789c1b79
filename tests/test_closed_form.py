"""Closed-form spectral-efficiency bound: moments, cache, special cases."""

import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

from cfrs import closed_form
from cfrs.closed_form import (DegenerateStatisticsError, PowerAllocation,
                              _chunks, _sinr_terms, build_cache,
                              evaluate_cache, normalization_coeffs,
                              sum_se_batch, sum_se_vectors, upsilon_moments)
from cfrs.config import SystemConfig
from cfrs.estimation import (PilotAssignment, assign_pilots,
                             estimation_statistics, perfect_csi_statistics)
from cfrs.geometry import (LinkStatistics, draw_geometry, hermitian_sqrt,
                           link_statistics)
from cfrs.monte_carlo import sample_moments
from cfrs.rng import substream
from cfrs.scenario import EnvScenario
from conftest import (copilot_matrix, dense_copilot_traces, dense_qbar,
                      dense_qbar_perfect, einsum_sinr_terms, max_rel_diff,
                      moment_samples, random_allocation, uncorrelated_cache,
                      whole_network_cache, whole_network_variances)


def test_power_allocation_roundtrip():
    rng = substream(3, "alloc")
    alloc = random_allocation(3, 4, rng)
    vec = alloc.to_vector()
    assert vec.shape == (4 + 12,)
    back = PowerAllocation.from_vector(vec, 3, 4)
    np.testing.assert_array_equal(back.rho, alloc.rho)
    np.testing.assert_array_equal(back.eta, alloc.eta)


def test_power_allocation_constructors():
    eq = PowerAllocation.equal_split(3, 2, rho0=0.4)
    assert eq.rho.shape == (2,) and np.all(eq.rho == 0.4)
    assert np.all(eq.eta == 1.0)
    none = PowerAllocation.no_rs(3, 2)
    assert np.all(none.rho == 0.0)


def test_power_allocation_validation():
    with pytest.raises(ValueError):
        PowerAllocation(rho=np.array([1.2]), eta=np.ones((2, 1)))
    with pytest.raises(ValueError):
        PowerAllocation(rho=np.array([0.5]), eta=np.full((2, 1), -0.1))
    with pytest.raises(ValueError):
        PowerAllocation(rho=np.array([0.5, 0.5]), eta=np.ones((2, 1)))
    with pytest.raises(ValueError):
        PowerAllocation.from_vector(np.zeros(5), 2, 2)
    # NaN compares false against both bounds, so it needs its own check.
    with pytest.raises(ValueError):
        PowerAllocation(rho=[np.nan], eta=[[np.nan]])
    with pytest.raises(ValueError):
        PowerAllocation(rho=np.array([0.5]), eta=np.array([[np.inf]]))
    with pytest.raises(ValueError):
        PowerAllocation.from_vector(np.array([np.nan, 0.5]), 1, 1)


@pytest.fixture(scope="module")
def desk_moments(desk_pieces):
    """One 40,000-draw pass of every sampled moment on the desk drop."""
    cfg, stats, est, pilots = desk_pieces
    return sample_moments(est, moment_samples(est.C), 40000,
                          substream(31, "moments"))


def test_closed_moments_against_sampling(desk_cache, desk_moments):
    """The cache's moments of g_kl^H ghat_il, E = p1 and E|.|^2 = |p1|^2 + p2,
    against sampling at every (k, i, l); the acceptance suite repeats the
    sweep at a much larger draw count."""
    first = desk_cache.p1
    second = np.abs(first) ** 2 + desk_cache.p2
    assert np.all(np.abs(desk_moments["first"].mean - first) <= 0.05 * np.abs(first))
    assert np.all(np.abs(desk_moments["second"].mean - second) <= 0.05 * second)


def test_upsilon_decomposition_against_sampling(desk_pieces, desk_moments):
    """u4 + u5 reproduces the combined third moment estimated directly."""
    _, stats, est, pilots = desk_pieces
    combos = [(0, 1, 2), (1, 0, 2), (2, 2, 1), (0, 0, 0)]
    for k, i, j in combos:
        u4, u5 = upsilon_moments(k, i, j, 0, est)
        mc3 = desk_moments["upsilon3"].mean[k, i, j, 0]
        err = desk_moments["upsilon3"].stderr[k, i, j, 0]
        scale = max(abs(u4 + u5), 10 * err)
        assert abs(mc3 - (u4 + u5)) <= 0.06 * scale


def test_normalizers_match_sampling(desk_pieces, desk_moments):
    _, stats, est, pilots = desk_pieces
    mu_c, mu_p = normalization_coeffs(est)
    assert np.all(mu_c > 0) and np.all(mu_p > 0)
    for l in range(stats.L):
        mc = desk_moments["common_norm"].mean[l]
        assert abs(mc - 1.0 / mu_c[l]) <= 0.03 / mu_c[l]
    mc = desk_moments["private_norm"].mean[1, 0]
    assert abs(mc - 1.0 / mu_p[1, 0]) <= 0.03 / mu_p[1, 0]


def test_report_consistency(desk_cache):
    alloc = random_allocation(3, 2, substream(17, "alloc"))
    rep = evaluate_cache(desk_cache, alloc)
    assert rep.sinr_common.shape == (3,)
    assert np.all(rep.sinr_common > 0) and np.all(rep.sinr_private > 0)
    assert rep.se_common == pytest.approx(
        rep.prelog * np.log2(1.0 + rep.sinr_common.min()))
    assert rep.sum_se == pytest.approx(rep.se_common + rep.se_private.sum())
    # No common power means no common-message rate.
    rep0 = evaluate_cache(desk_cache, PowerAllocation.no_rs(3, 2))
    assert rep0.se_common == 0.0


def test_batch_matches_scalar_evaluation(desk_cache):
    rng = substream(19, "batch")
    allocs = [random_allocation(3, 2, rng) for _ in range(8)]
    rho = np.stack([a.rho for a in allocs])
    eta = np.stack([a.eta for a in allocs])
    batch = sum_se_batch(desk_cache, rho, eta)
    single = np.array([evaluate_cache(desk_cache, a).sum_se for a in allocs])
    np.testing.assert_allclose(batch, single, rtol=1e-12)
    # Rows laid out as to_vector gives them score the same, bit for bit.
    vectors = np.stack([a.to_vector() for a in allocs])
    np.testing.assert_array_equal(sum_se_vectors(desk_cache, vectors), batch)
    with pytest.raises(ValueError, match=r"\(P, 8\), got \(8, 7\)"):
        sum_se_vectors(desk_cache, vectors[:, 1:])


def test_wrapper_equals_cache_path(desk_cfg):
    """EnvScenario builds the same cache as the quick-start chain written out
    step by step."""
    cfg = desk_cfg
    geo = draw_geometry(cfg, substream(cfg.seed, "geometry"))
    stats = link_statistics(cfg, geo)
    pilots = assign_pilots(cfg.K, cfg.tau_p, substream(cfg.seed, "pilots"))
    est = estimation_statistics(stats, pilots, cfg)
    by_hand = build_cache(stats, est, pilots, cfg)
    scenario_cache = EnvScenario(cfg).cache()
    for name, value in vars(by_hand).items():
        np.testing.assert_array_equal(getattr(scenario_cache, name), value, err_msg=name)
    alloc = PowerAllocation.equal_split(3, 2, rho0=0.3)
    assert evaluate_cache(scenario_cache, alloc).sum_se == evaluate_cache(by_hand, alloc).sum_se


def _dense_cache_fields(stats, Qbar, pilots):
    """The cache fields that depend on the co-pilot cross-moments, written
    directly on the dense (K, K, L, N, N) tensor: the common variance sums
    tr(Qbar_ijl R_kl) + hbar_kl^H Qbar_ijl hbar_kl over every pair (i, j)."""
    hbar = stats.hbar
    trQbar = np.trace(Qbar, axis1=-2, axis2=-1)
    p1 = np.einsum("kln,iln->kil", hbar.conj(), hbar) + trQbar * copilot_matrix(pilots)[:, :, None]
    trQbarR = np.einsum("ijlnm,klmn->kijl", Qbar, stats.R)
    hQbarh = np.einsum("kln,ijlnm,klm->kijl", hbar.conj(), Qbar, hbar)
    s = hbar.sum(axis=0)
    sRs = np.einsum("ln,klnm,lm->kl", s.conj(), stats.R, s)
    common = np.einsum("ln,ln->l", s.conj(), s) + trQbar.sum(axis=(0, 1))
    return {"c1": p1.sum(axis=1), "p1": p1,
            "c2": ((trQbarR + hQbarh).sum(axis=(1, 2)) + sRs).real,
            "mu_c": 1.0 / common.real}


@pytest.mark.parametrize("pieces", ["desk_pieces", "full_pieces", "perfect_csi"])
def test_cache_matches_dense_oracle(pieces, request):
    if pieces == "perfect_csi":
        cfg, stats, _, pilots = request.getfixturevalue("full_pieces")
        est = perfect_csi_statistics(stats)
        Qbar = dense_qbar_perfect(stats)
    else:
        cfg, stats, est, pilots = request.getfixturevalue(pieces)
        Qbar = dense_qbar(stats, pilots, cfg)
    cache = build_cache(stats, est, pilots, cfg)
    for name, expected in _dense_cache_fields(stats, Qbar, pilots).items():
        assert max_rel_diff(getattr(cache, name), expected) <= 1e-12, name
    # Off the pilot groups p1 is exactly the line-of-sight product, which is
    # what lets the SINR assembly use p1 for every user pair.
    off = ~copilot_matrix(pilots)
    hdot = np.einsum("kln,iln->kil", stats.hbar.conj(), stats.hbar)
    np.testing.assert_array_equal(cache.p1[off], hdot[off])


def _aligned_stats(beta_los, beta_nlos, N):
    """Statistics with R = beta_nlos * I and phase-aligned LoS means, the
    regime where the scalar cache applies."""
    hbar = np.sqrt(beta_los)[..., None] * np.ones(N)
    R = beta_nlos[..., None, None] * np.eye(N)
    return LinkStatistics(hbar=hbar.astype(complex), R=R.astype(complex),
                          beta_los=beta_los, beta_nlos=beta_nlos,
                          zeta=np.hypot(beta_los, beta_nlos))


def test_scalar_cache_matches_matrix_cache():
    cfg = SystemConfig(L=3, K=4, N=3, tau_p=2, seed=2)
    rng = substream(23, "beta")
    beta_los = rng.uniform(0.5, 2.0, size=(4, 3))
    beta_nlos = rng.uniform(0.5, 2.0, size=(4, 3))
    stats = _aligned_stats(beta_los, beta_nlos, cfg.N)
    pilots = assign_pilots(4, 2, substream(23, "pilots"))
    est = estimation_statistics(stats, pilots, cfg)
    matrix_cache = build_cache(stats, est, pilots, cfg)
    scalar_cache = uncorrelated_cache(beta_los, beta_nlos, pilots, cfg)
    for trial in range(5):
        alloc = random_allocation(4, 3, rng)
        a = evaluate_cache(matrix_cache, alloc)
        b = evaluate_cache(scalar_cache, alloc)
        np.testing.assert_allclose(a.sinr_common, b.sinr_common, rtol=1e-10)
        np.testing.assert_allclose(a.sinr_private, b.sinr_private, rtol=1e-10)
    alloc = PowerAllocation.equal_split(4, 3, rho0=0.5)
    assert evaluate_cache(scalar_cache, alloc).sum_se \
        == pytest.approx(evaluate_cache(matrix_cache, alloc).sum_se, rel=1e-10)


def _classical_private_sinrs(beta, eta, pilots, cfg):
    """Textbook bound for single-antenna Rayleigh links with MR precoding and
    no common message: coherent pilot contamination plus average interference,
    written directly from the large-scale coefficients."""
    K, L = beta.shape
    p = cfg.p_dl_mw
    ptau = cfg.p_pilot_mw * cfg.tau_p
    lam = np.zeros((K, L))
    for i in range(K):
        members = np.flatnonzero(copilot_matrix(pilots)[i])
        lam[i] = ptau * beta[members].sum(axis=0) + cfg.noise_mw
    q = ptau * beta ** 2 / lam
    sinr = np.zeros(K)
    for k in range(K):
        signal = np.sum(np.sqrt(eta[k] * q[k])) ** 2
        interference = np.sum(eta * beta[k][None, :])
        for i in np.flatnonzero(copilot_matrix(pilots)[k]):
            if i == k:
                continue
            c = ptau * beta[k] * beta[i] / lam[i]
            interference += np.sum(np.sqrt(eta[i] / q[i]) * c) ** 2
        sinr[k] = (p / K) * signal / ((p / K) * interference + cfg.noise_mw)
    return sinr


def test_reduces_to_classical_rayleigh_bound():
    """At N = 1, Rayleigh fading, and zero common power, the matrix bound
    collapses to the standard contaminated-MR expression."""
    cfg = SystemConfig(L=5, K=4, N=1, tau_p=2, seed=6)
    rng = substream(29, "beta")
    beta = rng.uniform(0.2, 3.0, size=(4, 5))
    stats = _aligned_stats(np.zeros((4, 5)), beta, 1)
    pilots = assign_pilots(4, 2, substream(29, "pilots"))
    est = estimation_statistics(stats, pilots, cfg)
    cache = build_cache(stats, est, pilots, cfg)
    eta = rng.uniform(0.1, 1.0, size=(4, 5))
    alloc = PowerAllocation(rho=np.zeros(5), eta=eta)
    rep = evaluate_cache(cache, alloc)
    oracle = _classical_private_sinrs(beta, eta, pilots, cfg)
    np.testing.assert_allclose(rep.sinr_private, oracle, rtol=1e-10)
    expected = cfg.prelog * np.sum(np.log2(1.0 + oracle))
    assert rep.sum_se == pytest.approx(expected, rel=1e-10)


# Property checks as seeded loops over random inputs.

def _relabelled_drop(stats, est, pilots, users, aps):
    """The drop with its users reordered by `users` and its APs by `aps`:
    every per-link statistic, the estimation fields and the pilots alike,
    the link statistics and pilots that est carries included."""
    def link(x):
        return x[users][:, aps]

    stats = dataclasses.replace(stats, **{f.name: link(getattr(stats, f.name))
                                          for f in dataclasses.fields(stats)})
    pilots = PilotAssignment(pilots.pilot_of[users], pilots.tau_p)
    copilot = copilot_matrix(pilots)
    pairs = np.argwhere(copilot)
    traces = dense_copilot_traces(link(est.G), copilot)[tuple(pairs.T)]
    est = dataclasses.replace(est, G=link(est.G), W=est.W[:, aps], Q=link(est.Q),
                              C=link(est.C), copilot_pairs=pairs, copilot_traces=traces,
                              Qbar_sum=est.Qbar_sum[aps], pilots=pilots, stats=stats)
    return stats, est, pilots


@pytest.mark.parametrize("pieces", ["desk_pieces", "full_pieces"])
def test_sum_se_invariant_under_relabelling(pieces, request):
    """Permuting the users, or the APs, of the drop and of 20 random
    allocations together leaves every sum SE unchanged."""
    cfg, stats, est, pilots = request.getfixturevalue(pieces)
    K, L = stats.K, stats.L
    rng = substream(41, pieces)
    rho, eta = rng.uniform(size=(20, L)), rng.uniform(size=(20, K, L))
    base = sum_se_batch(build_cache(stats, est, pilots, cfg), rho, eta)
    for users, aps in [(np.roll(np.arange(K), 1), np.arange(L)),
                       (rng.permutation(K), np.arange(L)),
                       (np.arange(K), np.roll(np.arange(L), 1)),
                       (np.arange(K), rng.permutation(L))]:
        cache = build_cache(*_relabelled_drop(stats, est, pilots, users, aps), cfg)
        got = sum_se_batch(cache, rho[:, aps], eta[:, users][:, :, aps])
        np.testing.assert_allclose(got, base, rtol=1e-12, atol=0)


@pytest.mark.parametrize("pieces", ["desk_pieces", "full_pieces"])
def test_sinrs_finite_and_positive_for_valid_allocations(pieces, request):
    cfg, stats, est, pilots = request.getfixturevalue(pieces)
    cache = build_cache(stats, est, pilots, cfg)
    rng = substream(43, pieces)
    for _ in range(50):
        alloc = PowerAllocation(rho=rng.uniform(size=stats.L),
                                eta=rng.uniform(size=(stats.K, stats.L)))
        rep = evaluate_cache(cache, alloc)
        for sinr in (rep.sinr_common, rep.sinr_private):
            assert np.all(np.isfinite(sinr)) and np.all(sinr > 0)


@pytest.mark.parametrize("pieces", ["desk_pieces", "full_pieces"])
def test_no_rs_scores_as_zero_common_split(pieces, request):
    cfg, stats, est, pilots = request.getfixturevalue(pieces)
    cache = build_cache(stats, est, pilots, cfg)
    K, L = stats.K, stats.L
    no_rs = evaluate_cache(cache, PowerAllocation.no_rs(K, L))
    zero = evaluate_cache(cache, PowerAllocation.equal_split(K, L, 0.0))
    assert no_rs.sum_se == zero.sum_se
    np.testing.assert_array_equal(no_rs.sinr_common, zero.sinr_common)
    np.testing.assert_array_equal(no_rs.sinr_private, zero.sinr_private)


def test_wrong_shaped_allocation_is_rejected(desk_cache):
    """An allocation for another (K, L) raises, naming both shapes, instead
    of broadcasting against the K=3, L=2 statistics."""
    alloc = PowerAllocation.equal_split(1, 1, 0.5)
    shapes = r"\(1,\).*\(1, 1\).*\(3, 2\)"
    with pytest.raises(ValueError, match=shapes):
        evaluate_cache(desk_cache, alloc)
    with pytest.raises(ValueError, match=r"\(1, 1\).*\(1, 1, 1\).*\(3, 2\)"):
        sum_se_batch(desk_cache, alloc.rho[None], alloc.eta[None])
    with pytest.raises(ValueError, match=r"\(4, 2\).*\(4, 2, 2\).*\(3, 2\)"):
        sum_se_batch(desk_cache, np.full((4, 2), 0.5), np.ones((4, 2, 2)))


def _paper_scale_pieces():
    cfg = SystemConfig(K=40, L=100, seed=5)
    scenario = EnvScenario(cfg)
    est = scenario.drop_statistics()
    return cfg, est.stats, est, scenario.pilots


@pytest.mark.parametrize("pieces", ["desk_pieces", "full_pieces", "copilot_pieces",
                                    "K40_L100", "pickled"])
def test_gemm_sinr_matches_einsum(pieces, request):
    """The GEMM assembly agrees with one einsum per term, on caches in the
    GEMM layout that build_cache stores and on a pickled one, which
    unpickles in plain C order."""
    if pieces == "K40_L100":
        cfg, stats, est, pilots = _paper_scale_pieces()
    else:
        name = "full_pieces" if pieces == "pickled" else pieces
        cfg, stats, est, pilots = request.getfixturevalue(name)
    cache = build_cache(stats, est, pilots, cfg)
    if pieces == "pickled":
        cache = pickle.loads(pickle.dumps(cache))
        assert cache.p1.flags.c_contiguous
    else:
        for name in ("p1", "p2"):
            assert getattr(cache, name).transpose(1, 2, 0).flags.c_contiguous, name
        for name in ("c1", "c2"):
            assert getattr(cache, name).T.flags.c_contiguous, name
    K, L = stats.K, stats.L
    rng = substream(47, pieces)
    rho = np.concatenate([rng.uniform(size=(18, L)), np.zeros((1, L)),
                          np.ones((1, L)), np.full((1, L), 0.5)])
    eta = np.concatenate([rng.uniform(size=(18, K, L)), np.ones((3, K, L))])
    for got, want in zip(_sinr_terms(cache, rho, eta), einsum_sinr_terms(cache, rho, eta)):
        assert got.shape == want.shape == (21, K)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_statistics_path_needs_no_eigendecomposition(monkeypatch):
    """A K=40, L=100 drop goes from link statistics through the estimation
    statistics to the cache without one call of numpy.linalg.eigh: the
    correlation matrices are PSD by construction."""
    calls = []
    eigh = np.linalg.eigh

    def spy(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    cfg = SystemConfig(K=40, L=100, N=4, tau_p=10, seed=60)
    stats = link_statistics(cfg, draw_geometry(cfg, substream(cfg.seed, "geometry")))
    pilots = assign_pilots(cfg.K, cfg.tau_p, substream(cfg.seed, "pilots"))
    est = estimation_statistics(stats, pilots, cfg)
    build_cache(stats, est, pilots, cfg)
    assert calls == []
    # The spy does see the one caller that still needs an eigendecomposition.
    hermitian_sqrt(stats.R[0, 0])
    assert calls == [(4, 4)]


def _drop(balanced=True, **kw):
    """(cfg, stats, est, pilots) of one drop through the quick-start chain."""
    cfg = SystemConfig(**kw)
    stats = link_statistics(cfg, draw_geometry(cfg, substream(cfg.seed, "geometry")))
    pilots = assign_pilots(cfg.K, cfg.tau_p, substream(cfg.seed, "pilots"), balanced)
    return cfg, stats, estimation_statistics(stats, pilots, cfg), pilots


def _with_block(monkeypatch, stats, n_aps):
    """Set the block budget to n_aps APs of stats' network."""
    K, N = stats.K, stats.N
    monkeypatch.setattr(closed_form, "_ENTRY_BUDGET", n_aps * (K + 1) * max(2 * N * N, K))


def _build_with_blocks(monkeypatch, stats, est, pilots, cfg):
    """build_cache's cache and the blocks of APs it worked through."""
    seen = []

    def spy(*args):
        seen.append(_chunks(*args))
        return seen[-1]

    monkeypatch.setattr(closed_form, "_chunks", spy)
    cache = build_cache(stats, est, pilots, cfg)
    monkeypatch.setattr(closed_form, "_chunks", _chunks)
    return cache, seen[0]


_BLOCK_CASES = {"multiple": [4, 4], "one_ap_tail": [4, 4, 1], "desk": [2],
                "single_user": [3, 3, 1], "empty_pilot": [5, 5, 2],
                "perfect_csi": [7, 7, 6], "K40_L100": [39, 39, 22]}


@pytest.mark.parametrize("case, blocks", _BLOCK_CASES.items(), ids=list(_BLOCK_CASES))
def test_blockwise_cache_equals_whole_network_oracle(case, blocks, monkeypatch, request):
    """build_cache, one block of APs at a time, returns every field of the
    whole-network build bit for bit: at every block edge, with a dense trace
    tensor in place of the co-pilot pairs, and with the dense sum of the
    common normalizer."""
    if case == "desk":
        cfg, stats, est, pilots = request.getfixturevalue("desk_pieces")
    elif case == "perfect_csi":
        cfg, stats, _, pilots = request.getfixturevalue("full_pieces")
        est = perfect_csi_statistics(stats)
        _with_block(monkeypatch, stats, 7)
    elif case == "K40_L100":
        cfg, stats, est, pilots = _drop(K=40, L=100, N=4, tau_p=10, seed=60)
    elif case == "empty_pilot":
        cfg, stats, est, pilots = _drop(balanced=False, K=9, L=12, N=4, tau_p=5, seed=60)
        assert np.bincount(pilots.pilot_of, minlength=cfg.tau_p).min() == 0
        _with_block(monkeypatch, stats, 5)
    else:
        K, L = {"multiple": (5, 8), "one_ap_tail": (5, 9), "single_user": (1, 7)}[case]
        cfg, stats, est, pilots = _drop(K=K, L=L, N=2, tau_p=2, seed=61)
        _with_block(monkeypatch, stats, blocks[0])
    cache, used = _build_with_blocks(monkeypatch, stats, est, pilots, cfg)
    assert [b.stop - b.start for b in used] == blocks
    for name, value in vars(whole_network_cache(stats, est, cfg)).items():
        np.testing.assert_array_equal(getattr(cache, name), value, err_msg=name)


def test_imaginary_residue_in_last_block_raises_at_whole_network_threshold(monkeypatch):
    """An imaginary residue in one AP of the last block is checked against the
    largest term of the whole network, as the whole-network build checks it:
    just past the tolerance both raise, just inside it neither does."""
    cfg, stats, est, pilots = _drop(K=5, L=9, N=2, tau_p=2, seed=61)
    _with_block(monkeypatch, stats, 4)

    def with_residue(eps):
        # Q_il + j eps [[0, 1], [1, 0]] adds j eps 2 Re X[0, 1] with the
        # Hermitian X = R_kl^T + O_kl to p2[k, i, l] for every k, and leaves
        # tr Q_il (the private normalizer) and the common terms alone.
        Q = est.Q.copy()
        Q[1, stats.L - 1] += 1j * eps * np.array([[0.0, 1.0], [1.0, 0.0]])
        return dataclasses.replace(est, Q=Q)

    probe = 1e-3 * np.abs(est.Q).max()
    var = whole_network_variances(stats, with_residue(probe))[:, :stats.K]
    threshold = probe * closed_form._REAL_TOL / (np.abs(var.imag).max() / np.abs(var).max())
    with pytest.raises(DegenerateStatisticsError, match="private variance terms"):
        whole_network_cache(stats, with_residue(1.001 * threshold), cfg)
    with pytest.raises(DegenerateStatisticsError, match="private variance terms"):
        build_cache(stats, with_residue(1.001 * threshold), pilots, cfg)
    inside = with_residue(0.999 * threshold)
    cache, used = _build_with_blocks(monkeypatch, stats, inside, pilots, cfg)
    assert used[-1] == slice(8, 9)
    for name, value in vars(whole_network_cache(stats, inside, cfg)).items():
        np.testing.assert_array_equal(getattr(cache, name), value, err_msg=name)


def test_build_cache_peak_memory():
    """At K=40, L=100 a build holds its returned fields plus about one block's
    workspaces: at most 4 MiB of temporaries (1 MiB a workspace), where the
    whole-network build held 7.5 MiB."""
    cfg, stats, est, pilots = _drop(K=40, L=100, N=4, tau_p=10, seed=60)
    tracemalloc.start()
    try:
        cache = build_cache(stats, est, pilots, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fields = sum(v.nbytes for v in vars(cache).values() if isinstance(v, np.ndarray))
    assert peak <= fields + 4 * closed_form._ENTRY_BUDGET * 16
