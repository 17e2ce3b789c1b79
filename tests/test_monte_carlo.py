"""Monte Carlo channel sampling, precoding, and achievable-rate estimates."""

import dataclasses
import itertools
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from cfrs import monte_carlo
from cfrs.closed_form import (PowerAllocation, build_cache, evaluate_cache,
                              normalization_coeffs)
from cfrs.config import SystemConfig
from cfrs.diffusion import Environment
from cfrs.estimation import (EstimationError, PilotAssignment, copilot_cross_moment,
                             estimation_statistics, perfect_csi_statistics)
from cfrs.geometry import hermitian_sqrt
from cfrs.monte_carlo import ChannelSampler, achievable_sum_se, sample_moments
from cfrs.rng import substream
from cfrs.scenario import EnvScenario
from conftest import (expected_tx_power, fresh_estimates, fresh_normals, fresh_sinrs,
                      joint_draw_achievable, max_rel_diff, mc_uatf_sinrs, moment_samples,
                      observation_covariances, random_allocation, sample_tx_power,
                      unit_precoders)


def _desk_drop_under_los(rician_db):
    cfg = SystemConfig(L=2, K=3, N=2, tau_p=2, rician_db=rician_db, seed=7)
    scenario = EnvScenario(cfg)
    est = scenario.drop_statistics()
    return cfg, est.stats, est, scenario.pilots


@pytest.fixture(scope="module")
def los_pieces():
    """The desk network under strong LoS (30 dB Rician factor): sample norms
    whose mean dwarfs their spread."""
    return _desk_drop_under_los(30.0)


@pytest.fixture(scope="module")
def los40_pieces():
    """The desk network at a 40 dB Rician factor, where the first block's
    shift carries the most of every sample."""
    return _desk_drop_under_los(40.0)


ORACLE_DROPS = ["desk_pieces", "full_pieces", "copilot_pieces"]


def _sinrs_by_hand(ghat, v_c, v_p, C, alloc, cfg):
    """The SINRs of one block, term by term as instantaneous_sinrs defines them."""
    K, L, _ = ghat.shape
    p_d, p, s2 = cfg.p_dl_mw, cfg.p_dl_mw / K, cfg.noise_mw
    w = (1.0 - alloc.rho)[None, :] * alloc.eta
    sinr_c, sinr_p = np.empty(K), np.empty(K)
    for k in range(K):
        s_c = sum(np.sqrt(alloc.rho[l]) * np.vdot(ghat[k, l], v_c[l]) for l in range(L))
        coh = [abs(sum(np.sqrt(w[i, l]) * np.vdot(ghat[k, l], v_p[i, l])
                       for l in range(L))) ** 2 for i in range(K)]
        e_c = sum(alloc.rho[l] * np.vdot(v_c[l], C[k, l] @ v_c[l]).real for l in range(L))
        e_p = sum(w[i, l] * np.vdot(v_p[i, l], C[k, l] @ v_p[i, l]).real
                  for i in range(K) for l in range(L))
        others = sum(coh[i] for i in range(K) if i != k)
        sinr_c[k] = p_d * abs(s_c) ** 2 / (p_d * e_c + p * (sum(coh) + e_p) + s2)
        sinr_p[k] = p * coh[k] / (p * (others + e_p) + s2)
    return sinr_c, sinr_p


@pytest.mark.parametrize("drop", ORACLE_DROPS)
def test_instantaneous_sinrs_match_hand_loop(drop, request):
    cfg, stats, est, pilots = request.getfixturevalue(drop)
    _, ghat = ChannelSampler(est).draw(6, substream(79, drop, "draw"))
    mu = normalization_coeffs(est)
    v_c, v_p = unit_precoders(ghat, *mu)
    allocs = [PowerAllocation.no_rs(stats.K, stats.L),
              PowerAllocation.equal_split(stats.K, stats.L, 0.6),
              random_allocation(stats.K, stats.L, substream(79, drop, "alloc"))]
    for alloc in allocs:
        batched = fresh_sinrs(ghat, est.C, *mu, alloc, cfg)
        for b in range(ghat.shape[0]):
            ref = _sinrs_by_hand(ghat[b], v_c[b], v_p[b], est.C, alloc, cfg)
            for value, expected in zip((x[b] for x in batched), ref):
                assert value.shape == (stats.K,)
                np.testing.assert_allclose(value, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("drop", ORACLE_DROPS)
def test_sampler_draw_matches_per_link_reference(drop, request):
    """g = hbar + R^1/2 w per link, and ghat = hbar + sqrt(p tau_p) R S^-1 y
    with y the despread pilot signal of the user's group and S its
    covariance, on the same stream:
    each block reads its K channel normals w, then its tau_p noise normals."""
    cfg, stats, est, pilots = request.getfixturevalue(drop)
    n = 5
    g, ghat = ChannelSampler(est).draw(n, substream(83, drop))
    z = fresh_normals(substream(83, drop), n, (stats.K + pilots.tau_p, stats.L, stats.N))
    w, noise = z[:, :stats.K], z[:, stats.K:]
    ptau = cfg.p_pilot_mw * cfg.tau_p
    Rhalf = hermitian_sqrt(stats.R)
    S = observation_covariances(stats, pilots, cfg)
    g_ref = np.empty_like(g)
    ghat_ref = np.empty_like(ghat)
    for b in range(n):
        for l in range(stats.L):
            scattered = [Rhalf[k, l] @ w[b, k, l] for k in range(stats.K)]
            for k in range(stats.K):
                g_ref[b, k, l] = stats.hbar[k, l] + scattered[k]
                t = pilots.pilot_of[k]
                y = (np.sqrt(ptau) * sum(scattered[i] for i in range(stats.K)
                                         if pilots.pilot_of[i] == t)
                     + np.sqrt(cfg.noise_mw) * noise[b, t, l])
                ghat_ref[b, k, l] = (stats.hbar[k, l] + np.sqrt(ptau)
                                     * stats.R[k, l] @ np.linalg.solve(S[k, l], y))
    assert max_rel_diff(g, g_ref) <= 1e-12
    assert max_rel_diff(ghat, ghat_ref) <= 1e-12


def _moment_samples_by_hand(g, ghat, C):
    """Every moment_samples sample, tuple by tuple as its docstring defines
    them, each (n, *field shape); g and ghat are (n, K, L, N)."""
    _, K, L, _ = g.shape

    def inner(x, y):
        return np.sum(x.conj() * y, axis=-1)

    first = np.empty((len(g), K, K, L), dtype=complex)
    u3, u4, u5 = (np.empty((len(g), K, K, K, L), dtype=complex) for _ in range(3))
    for k, i, l in itertools.product(range(K), range(K), range(L)):
        first[:, k, i, l] = inner(g[:, k, l], ghat[:, i, l])
    for k, i, j, l in itertools.product(range(K), range(K), range(K), range(L)):
        u3[:, k, i, j, l] = (inner(g[:, k, l], ghat[:, i, l]).conj()
                             * inner(g[:, k, l], ghat[:, j, l]))
        u4[:, k, i, j, l] = (inner(ghat[:, k, l], ghat[:, i, l]).conj()
                             * inner(ghat[:, k, l], ghat[:, j, l]))
        u5[:, k, i, j, l] = inner(ghat[:, i, l], ghat[:, j, l] @ C[k, l].T)
    common = np.stack([inner(ghat[:, :, l].sum(axis=1), ghat[:, :, l].sum(axis=1)).real
                       for l in range(L)], axis=-1)
    private = np.stack([[inner(ghat[:, i, l], ghat[:, i, l]).real for l in range(L)]
                        for i in range(K)]).transpose(2, 0, 1)
    return first, np.abs(first) ** 2, u3, u4, u5, common, private


@pytest.mark.parametrize("drop, n", [
    pytest.param("desk_pieces", 1500, id="desk_pieces"),
    pytest.param("copilot_pieces", 300, id="copilot_pieces"),
    pytest.param("los_pieces", 1500, id="los_pieces"),
    pytest.param("los40_pieces", 1500, id="los40_pieces"),
    pytest.param("full_pieces", 40, id="full_pieces"),
    pytest.param("desk_pieces", 695, id="desk_pieces_one_block_tail"),
])
def test_sample_moments_match_hand_loop(drop, n, request):
    """One pass equals the per-tuple sample means and their ddof=1 standard
    errors (var(re) + var(im) for complex moments) of one draw of all n
    blocks on the same stream. The pass spans more than one chunk and ends
    on a partial one (of a single block for 695 desk draws). The samples
    function's tuples variant picks the same Upsilon samples."""
    cfg, stats, est, pilots = request.getfixturevalue(drop)
    moments = sample_moments(est, moment_samples(est.C), n,
                             substream(97, drop))
    chunk = monte_carlo._MOMENT_ENTRY_BUDGET // (stats.K * stats.L * stats.N)
    assert chunk < n and n % chunk
    g, ghat = ChannelSampler(est).draw(n, substream(97, drop))
    names = ["first", "second", "upsilon3", "upsilon4", "upsilon5", "common_norm",
             "private_norm"]
    assert list(moments) == names
    tuples = [(stats.K - 1, 0, 1, stats.L - 1), (0, 0, 0, 0)]
    picked = moment_samples(est.C, tuples)(g, ghat)
    for name, x in zip(names, _moment_samples_by_hand(g, ghat, est.C)):
        if name.startswith("upsilon"):     # the tuples variant picks entries
            want = np.stack([x[:, k, i, j, l] for k, i, j, l in tuples], axis=-1)
            np.testing.assert_allclose(picked[name], want, rtol=1e-12, atol=0, err_msg=name)
        got = moments[name]
        var = x.real.var(axis=0, ddof=1) + x.imag.var(axis=0, ddof=1)
        assert got.mean.shape == got.stderr.shape == x.shape[1:], name
        np.testing.assert_allclose(got.mean, x.mean(axis=0), rtol=1e-12, atol=0,
                                   err_msg=name)
        np.testing.assert_allclose(got.stderr, np.sqrt(var / n), rtol=1e-12, atol=0,
                                   err_msg=name)


def test_sample_moments_peak_memory(desk_pieces):
    """A pass holds one chunk's samples at a time: a 5,000-draw desk pass of
    the moments criterion 01 reads (every first and second moment and norm,
    four Upsilon tuples) peaks at about 1.2 MB traced, where one 5,000-block
    chunk would take 8.2 MB."""
    cfg, stats, est, pilots = desk_pieces
    samples = moment_samples(est.C, [(0, 1, 2, 0), (1, 0, 2, 0), (2, 2, 1, 0), (0, 0, 0, 0)])
    tracemalloc.start()
    try:
        sample_moments(est, samples, 5000, substream(97, "memory"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def _achievable_peak(pieces, n_chunks):
    """Traced peak bytes of an achievable_sum_se pass of n_chunks chunks of
    1 MiB (65,536 complex entries a (n, K, L, N) tensor), and the blocks of
    one chunk."""
    cfg, stats, est, pilots = pieces
    chunk = 65_536 // (stats.L * stats.N * max(stats.K, stats.N))
    alloc = PowerAllocation.equal_split(stats.K, stats.L, 0.5)
    tracemalloc.start()
    try:
        achievable_sum_se(stats, est, pilots, cfg, alloc, n_chunks * chunk,
                          substream(139, "memory"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, chunk


def test_achievable_peak_memory(copilot_pieces):
    """A pass holds one chunk's working set, written into one workspace, and
    its per-block outputs: a 10-chunk co-pilot pass (3,410 blocks) peaks at
    about 4.6 times the bytes of one chunk's estimates beside its outputs,
    traced, where one 3,410-block chunk would take about 46."""
    cfg, stats, est, pilots = copilot_pieces
    n_chunks = 10
    peak, chunk = _achievable_peak(copilot_pieces, n_chunks)
    estimates = chunk * stats.K * stats.L * stats.N * np.dtype(complex).itemsize
    outputs = n_chunks * chunk * (stats.K + 1) * np.dtype(float).itemsize
    assert peak <= 5.2 * estimates + outputs, (peak - outputs) / estimates


def test_achievable_peak_memory_is_flat_in_blocks(copilot_pieces):
    """The workspace, not the number of blocks, sets a pass's memory: a
    12-chunk pass peaks no more than 10% above a 2-chunk pass (5% traced)."""
    twelve, _ = _achievable_peak(copilot_pieces, 12)
    two, _ = _achievable_peak(copilot_pieces, 2)
    assert twelve <= 1.1 * two, twelve / two


@pytest.mark.parametrize("count", [2.5, 100.0, float("nan")])
def test_block_counts_must_be_integers(count, desk_pieces):
    """A block count that is not an integer fails naming its argument, not
    in range()."""
    cfg, stats, est, pilots = desk_pieces
    alloc = PowerAllocation.equal_split(3, 2, rho0=0.4)
    with pytest.raises(ValueError, match="n_blocks must be an integer"):
        achievable_sum_se(stats, est, pilots, cfg, alloc, count, substream(59, "count"))
    with pytest.raises(ValueError, match="n_draws must be an integer"):
        sample_moments(est, moment_samples(est.C), count,
                       substream(97, "count"))


def test_sample_moments_rejects_single_draw(desk_pieces):
    cfg, stats, est, pilots = desk_pieces
    with pytest.raises(ValueError):
        sample_moments(est, moment_samples(est.C), 1,
                       substream(97, "one"))


def test_expected_tx_power_hand_values():
    cfg_like = type("C", (), {"p_dl_mw": 200.0})()
    full = PowerAllocation(rho=np.ones(2), eta=np.ones((3, 2)) * 0.1)
    np.testing.assert_allclose(expected_tx_power(full, cfg_like), [200.0, 200.0])
    no_rs = PowerAllocation(rho=np.zeros(2), eta=np.ones((3, 2)))
    np.testing.assert_allclose(expected_tx_power(no_rs, cfg_like), [200.0, 200.0])
    # rho = 0.5, eta column [1, 0.5, 0.5]: 200 * (0.5 + 0.5 * (2/3)) = 166.67
    mixed = PowerAllocation(rho=np.array([0.5]),
                            eta=np.array([[1.0], [0.5], [0.5]]))
    np.testing.assert_allclose(expected_tx_power(mixed, cfg_like),
                               [200.0 * (0.5 + 0.5 * 2.0 / 3.0)])


def test_sampler_estimates_match_statistics(desk_pieces):
    """The vectorized sampler reproduces the closed estimation statistics."""
    cfg, stats, est, pilots = desk_pieces
    sampler = ChannelSampler(est)
    n = 50000
    g, ghat = sampler.draw(n, substream(43, "draw"))
    assert g.shape == ghat.shape == (n, stats.K, stats.L, stats.N)
    np.testing.assert_allclose(ghat.mean(axis=0), stats.hbar,
                               atol=8 * np.sqrt(stats.zeta.max() / n))
    tol = 8 * stats.zeta.max() / np.sqrt(n)
    for k in range(stats.K):
        for l in range(stats.L):
            ce = ghat[:, k, l] - stats.hbar[k, l]
            emp = np.einsum("bn,bm->nm", ce, ce.conj()) / n
            np.testing.assert_allclose(emp, est.Q[k, l], atol=tol)


def test_sampler_channels_match_statistics():
    cfg = SystemConfig(L=2, K=2, N=2, tau_p=2, seed=13)
    scenario = EnvScenario(cfg)
    est = scenario.drop_statistics()
    stats = est.stats
    sampler = ChannelSampler(est)
    g, _ = sampler.draw(40000, substream(13, "mc"))
    assert g.shape == (40000, 2, 2, 2)
    mean = g.mean(axis=0)
    np.testing.assert_allclose(mean, stats.hbar,
                               atol=6 * np.abs(stats.hbar).max() / np.sqrt(40000))
    centered = g - stats.hbar[None]
    for k in range(2):
        for l in range(2):
            emp = np.einsum("bn,bm->nm", centered[:, k, l],
                            centered[:, k, l].conj()) / 40000
            np.testing.assert_allclose(emp, stats.R[k, l],
                                       atol=8 * stats.zeta[k, l] / np.sqrt(40000))


def test_sampler_estimate_moments(desk_pieces):
    """Empirical moments of the sampled estimates match Q and Qbar, and the
    residual is uncorrelated with the estimate. E{(ghat_k - hbar_k)
    (ghat_i - hbar_i)^H} is Qbar_ik = G_k G_i^H."""
    cfg, stats, est, pilots = desk_pieces
    n = 20000
    g, ghat = ChannelSampler(est).draw(n, substream(21, "mc"))
    gtilde = g - ghat
    tol = 8 * stats.zeta.max() / np.sqrt(n)
    for k in range(stats.K):
        for l in range(stats.L):
            ce = ghat[:, k, l] - stats.hbar[k, l]
            emp_q = np.einsum("bn,bm->nm", ce, ce.conj()) / n
            np.testing.assert_allclose(emp_q, est.Q[k, l], atol=tol)
            cross = np.einsum("bn,bm->nm", ce, gtilde[:, k, l].conj()) / n
            np.testing.assert_allclose(cross, 0.0, atol=tol)
    # Co-pilot users share despread noise, so their estimates correlate. The
    # cross-moment is far below zeta.max(), so it is held to a tolerance
    # relative to its own size: 10%, about seven standard errors at this n.
    pairs = 0
    for k in range(stats.K):
        for i in range(stats.K):
            if i == k or pilots.pilot_of[i] != pilots.pilot_of[k]:
                continue
            for l in range(stats.L):
                ck = ghat[:, k, l] - stats.hbar[k, l]
                ci = ghat[:, i, l] - stats.hbar[i, l]
                emp = np.einsum("bn,bm->nm", ck, ci.conj()) / n
                ref = copilot_cross_moment(i, k, l, est)
                assert np.abs(emp - ref).max() <= 0.1 * np.abs(ref).max()
                pairs += 1
    assert pairs > 0


def test_sampler_single_draw(desk_pieces):
    cfg, stats, est, pilots = desk_pieces
    sampler = ChannelSampler(est)
    g, ghat = sampler.draw(1, substream(5, "one"))
    assert g.shape == ghat.shape == (1, stats.K, stats.L, stats.N)
    # The same stream reproduces the same channel and estimate.
    same_g, same_ghat = sampler.draw(1, substream(5, "one"))
    np.testing.assert_array_equal(g, same_g)
    np.testing.assert_array_equal(ghat, same_ghat)


def test_sampler_perfect_csi_returns_truth(desk_pieces):
    cfg, stats, est, pilots = desk_pieces
    sampler = ChannelSampler(perfect_csi_statistics(stats))
    g, ghat = sampler.draw(16, substream(43, "perfect"))
    np.testing.assert_array_equal(g, ghat)


def _covariance_z(dev, reference):
    """|z| of every entry of the sample covariance E{d_kl d_il^H} of dev
    (n, K, L, N) against reference (K, K, L, N, N). Each entry's standard
    error is sqrt((var re + var im) / n) of its per-block samples."""
    n, K, L, N = dev.shape
    X = dev.transpose(2, 0, 1, 3).reshape(L, n, K * N)         # [l, b, (k, a)]
    mean = X.swapaxes(1, 2) @ X.conj() / n
    power = np.abs(X) ** 2
    var = (power.swapaxes(1, 2) @ power / n - np.abs(mean) ** 2) * n / (n - 1)
    assert np.all(var > 0)
    ref = reference.transpose(2, 0, 3, 1, 4).reshape(L, K * N, K * N)
    return np.abs(mean - ref) / np.sqrt(var / n)


def _estimate_covariances(stats, est, pilots):
    """E{(ghat_kl - hbar_kl)(ghat_il - hbar_il)^H} by case: Q_kl for i = k,
    the co-pilot cross-moment Qbar_ikl for co-pilot pairs, zero otherwise;
    under perfect CSI, R_kl for i = k and zero otherwise."""
    K, L, N = stats.K, stats.L, stats.N
    perfect = est.ptau == 0
    ref = np.zeros((K, K, L, N, N), dtype=complex)
    for k, i, l in itertools.product(range(K), range(K), range(L)):
        if i == k:
            ref[k, i, l] = stats.R[k, l] if perfect else est.Q[k, l]
        elif not perfect and pilots.pilot_of[k] == pilots.pilot_of[i]:
            ref[k, i, l] = copilot_cross_moment(i, k, l, est)
    return ref


@pytest.mark.parametrize("csi", ["imperfect", "perfect"])
def test_estimate_draw_law(csi, copilot_pieces):
    """draw_estimates gives ghat - hbar the covariance of the MMSE estimates,
    co-pilot cross-moments included: every entry passes a z-test at a
    Bonferroni threshold for a family-wise error of 1e-3."""
    cfg, stats, est, pilots = copilot_pieces
    if csi == "perfect":
        est = perfect_csi_statistics(stats)
    n = 20000
    ghat = fresh_estimates(ChannelSampler(est), n, substream(101, csi))
    z = _covariance_z(ghat - stats.hbar, _estimate_covariances(stats, est, pilots))
    threshold = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * z.size))
    assert z.max() <= threshold, (z.max(), threshold)


@pytest.mark.parametrize("csi", ["imperfect", "perfect"])
def test_estimate_draw_is_chunk_invariant(csi, copilot_pieces, monkeypatch):
    """37 blocks and then 63 read the same normals as 100 blocks at once, and
    give the same per-block rates; achievable_sum_se does not depend on its
    chunk size."""
    cfg, stats, est, pilots = copilot_pieces
    if csi == "perfect":
        est = perfect_csi_statistics(stats)
    sampler = ChannelSampler(est)
    shape = ((stats.K if csi == "perfect" else pilots.tau_p), stats.L, stats.N)
    rng = substream(103, csi)
    parts = [fresh_normals(rng, n, shape) for n in (37, 63)]
    np.testing.assert_array_equal(np.concatenate(parts),
                                  fresh_normals(substream(103, csi), 100, shape))

    alloc = random_allocation(stats.K, stats.L, substream(103, csi, "alloc"))
    mu = normalization_coeffs(est)

    def totals(ghat):
        sinr_c, sinr_p = fresh_sinrs(ghat, est.C, *mu, alloc, cfg)
        return np.log2(1.0 + sinr_c.min(axis=-1)) + np.log2(1.0 + sinr_p).sum(axis=-1)

    rng = substream(107, csi)
    parts = np.concatenate([totals(fresh_estimates(sampler, n, rng)) for n in (37, 63)])
    whole = totals(fresh_estimates(sampler, 100, substream(107, csi)))
    np.testing.assert_allclose(parts, whole, rtol=1e-12, atol=0)

    one = achievable_sum_se(stats, est, pilots, cfg, alloc, 100, substream(109, csi))
    per_block = stats.L * stats.N * max(stats.K, stats.N)
    monkeypatch.setattr(monte_carlo, "_ENTRY_BUDGET", 37 * per_block)
    chunked = achievable_sum_se(stats, est, pilots, cfg, alloc, 100, substream(109, csi))
    assert chunked.sum_se == pytest.approx(one.sum_se, rel=1e-12, abs=0)
    assert chunked.stderr == pytest.approx(one.stderr, rel=1e-12, abs=0)


def test_achievable_calls_public_kernels_once_per_chunk(copilot_pieces, monkeypatch):
    """achievable_sum_se runs every chunk through ChannelSampler.draw_estimates
    and the module-level instantaneous_sinrs, the names a tracer wraps: each
    is called once per chunk, on that chunk's blocks."""
    cfg, stats, est, pilots = copilot_pieces
    seen = {"draw_estimates": [], "instantaneous_sinrs": []}

    def counted(name, fn, blocks):
        def wrapper(*args, **kwargs):
            seen[name].append(blocks(args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ChannelSampler, "draw_estimates",
                        counted("draw_estimates", ChannelSampler.draw_estimates,
                                lambda args: args[1]))
    monkeypatch.setattr(monte_carlo, "instantaneous_sinrs",
                        counted("instantaneous_sinrs", monte_carlo.instantaneous_sinrs,
                                lambda args: len(args[0])))
    chunk = 65_536 // (stats.L * stats.N * max(stats.K, stats.N))
    alloc = PowerAllocation.equal_split(stats.K, stats.L, 0.4)
    achievable_sum_se(stats, est, pilots, cfg, alloc, 3 * chunk + 5, substream(149, "calls"))
    assert seen["draw_estimates"] == [chunk, chunk, chunk, 5]
    assert seen["instantaneous_sinrs"] == [chunk, chunk, chunk, 5]


@pytest.mark.parametrize("csi", ["imperfect", "perfect"])
def test_joint_draw_is_chunk_invariant(csi, copilot_pieces):
    """37 blocks and then 63 read the same normals as 100 blocks at once and
    give the same channels and estimates, up to the last bits BLAS blocking
    moves; under perfect CSI the channels are draw_estimates' on the same
    stream, bit for bit."""
    cfg, stats, est, pilots = copilot_pieces
    if csi == "perfect":
        est = perfect_csi_statistics(stats)
    sampler = ChannelSampler(est)
    shape = (stats.K + (0 if csi == "perfect" else pilots.tau_p), stats.L, stats.N)
    rng = substream(137, csi)
    parts = [fresh_normals(rng, n, shape) for n in (37, 63)]
    np.testing.assert_array_equal(np.concatenate(parts),
                                  fresh_normals(substream(137, csi), 100, shape))

    rng = substream(139, csi)
    parts = [sampler.draw(n, rng) for n in (37, 63)]
    whole = sampler.draw(100, substream(139, csi))
    for got, expected in zip(zip(*parts), whole):
        np.testing.assert_allclose(np.concatenate(got), expected, rtol=1e-12, atol=0)
    if csi == "perfect":
        np.testing.assert_array_equal(whole[0],
                                      fresh_estimates(sampler, 100, substream(139, csi)))


@pytest.mark.parametrize("drop", ["desk_pieces", "copilot_pieces", "perfect_csi"])
def test_achievable_agrees_with_joint_draw(drop, request):
    """Estimates drawn from their own law give the achievable rate of
    estimates drawn from sampled channels and pilot noise, within four
    combined standard errors."""
    cfg, stats, est, pilots = request.getfixturevalue(
        "desk_pieces" if drop == "perfect_csi" else drop)
    if drop == "perfect_csi":
        est = perfect_csi_statistics(stats)
    alloc = random_allocation(stats.K, stats.L, substream(113, drop, "alloc"))
    rep = achievable_sum_se(stats, est, pilots, cfg, alloc, 4000, substream(113, drop))
    joint, stderr = joint_draw_achievable(stats, est, pilots, cfg, alloc, 4000,
                                          substream(113, drop, "joint"))
    assert abs(rep.sum_se - joint) <= 4 * np.hypot(rep.stderr, stderr)


def test_estimate_draw_rejects_indefinite_observation(desk_pieces):
    """A pilot observation covariance without a Cholesky factor fails in the
    estimator with EstimationError, before any statistic reaches a cache or a
    sampler: never a NaN rate."""
    cfg, stats, _, pilots = desk_pieces
    bad = dataclasses.replace(stats, R=-1e3 * stats.R)   # pilot SNRs reach -400
    with pytest.raises(EstimationError, match="not positive definite"):
        estimation_statistics(bad, pilots, cfg)


def test_achievable_reads_the_pilots_of_its_statistics(copilot_pieces):
    """The pilot groups come with est alone. Handed an assignment with every
    user's pilot shifted by one position, achievable_sum_se reports exactly
    what the right assignment gives; it once sampled the estimates on the
    shifted groups and moved the rate by ~17 standard errors, with no error."""
    cfg, stats, est, pilots = copilot_pieces
    shifted = PilotAssignment(np.roll(pilots.pilot_of, 1), pilots.tau_p)
    assert np.any(shifted.pilot_of != pilots.pilot_of)
    alloc = PowerAllocation.equal_split(stats.K, stats.L, 0.5)
    right, wrong = (achievable_sum_se(stats, est, assignment, cfg, alloc, 400,
                                      substream(17, "assignment"))
                    for assignment in (pilots, shifted))
    for name, value in vars(right).items():
        np.testing.assert_array_equal(getattr(wrong, name), value, err_msg=name)


def test_cache_and_rate_read_the_link_statistics_of_their_estimates(copilot_pieces):
    """The link statistics come with est alone. Handed those of another
    environment, (-5 dB, 40 deg) against the drop's (5 dB, 15 deg),
    build_cache and achievable_sum_se return exactly what the right ones
    give. They once mixed the two with no error: an equal split (rho = 0.4)
    scored 4.760 against 5.911 bits/s/Hz in the closed form, and 6.13
    against 6.34 (+/- 0.009) over 4,000 simulated blocks."""
    cfg, stats, est, pilots = copilot_pieces
    other = EnvScenario(cfg).drop_statistics(Environment(-5.0, 40.0)).stats
    assert not np.array_equal(other.R, stats.R)
    right, wrong = (build_cache(link, est, pilots, cfg) for link in (stats, other))
    for name, value in vars(right).items():
        np.testing.assert_array_equal(getattr(wrong, name), value, err_msg=name)
    alloc = PowerAllocation.equal_split(stats.K, stats.L, 0.4)
    right, wrong = (achievable_sum_se(link, est, pilots, cfg, alloc, 400,
                                      substream(17, "environment"))
                    for link in (stats, other))
    for name, value in vars(right).items():
        np.testing.assert_array_equal(getattr(wrong, name), value, err_msg=name)


def test_achievable_rejects_wrong_shaped_allocation(desk_pieces):
    cfg, stats, est, pilots = desk_pieces
    alloc = PowerAllocation.equal_split(1, 1, 0.5)
    with pytest.raises(ValueError, match=r"\(1,\).*\(1, 1\).*\(3, 2\)"):
        achievable_sum_se(stats, est, pilots, cfg, alloc, 10, substream(131, "shape"))


def test_precoders_unit_average_power(desk_pieces):
    cfg, stats, est, pilots = desk_pieces
    _, ghat = ChannelSampler(est).draw(50000, substream(47, "prec"))
    v_c, v_p = unit_precoders(ghat, *normalization_coeffs(est))
    pc = np.einsum("bln,bln->bl", v_c.conj(), v_c).real.mean(axis=0)
    np.testing.assert_allclose(pc, 1.0, atol=0.03)
    pp = np.einsum("biln,biln->bil", v_p.conj(), v_p).real.mean(axis=0)
    np.testing.assert_allclose(pp, 1.0, atol=0.03)


def test_mc_uatf_agrees_with_closed_form(desk_pieces, desk_cache):
    cfg, stats, est, pilots = desk_pieces
    alloc = random_allocation(3, 2, substream(53, "alloc"))
    rep = evaluate_cache(desk_cache, alloc)
    sc, sp = mc_uatf_sinrs(stats, est, pilots, cfg, alloc, 30000,
                           substream(53, "mc"))
    np.testing.assert_allclose(sc, rep.sinr_common, rtol=0.05)
    np.testing.assert_allclose(sp, rep.sinr_private, rtol=0.05)


def test_achievable_report_and_determinism(desk_pieces):
    cfg, stats, est, pilots = desk_pieces
    alloc = PowerAllocation.equal_split(3, 2, rho0=0.4)
    rep = achievable_sum_se(stats, est, pilots, cfg, alloc, 2000,
                            substream(59, "mc"))
    again = achievable_sum_se(stats, est, pilots, cfg, alloc, 2000,
                              substream(59, "mc"))
    assert rep.sum_se == again.sum_se
    assert rep.n_blocks == 2000
    numpy_count = achievable_sum_se(stats, est, pilots, cfg, alloc, np.int64(2000),
                                    substream(59, "mc"))
    assert numpy_count.sum_se == rep.sum_se
    assert rep.stderr > 0
    assert rep.sum_se == pytest.approx(
        rep.se_common + rep.se_private.sum(), rel=1e-12)
    with pytest.raises(ValueError):
        achievable_sum_se(stats, est, pilots, cfg, alloc, 1, substream(59, "x"))


def test_achievable_stderr_shrinks_with_blocks(desk_pieces):
    cfg, stats, est, pilots = desk_pieces
    alloc = PowerAllocation.equal_split(3, 2, rho0=0.4)
    small = achievable_sum_se(stats, est, pilots, cfg, alloc, 500,
                              substream(61, "a"))
    large = achievable_sum_se(stats, est, pilots, cfg, alloc, 8000,
                              substream(61, "b"))
    assert large.stderr < 0.6 * small.stderr


def test_achievable_dominates_statistical_bound(desk_pieces, desk_cache):
    """Instantaneous-CSI decoding cannot do worse on average than the
    statistical-CSI bound evaluated in closed form."""
    cfg, stats, est, pilots = desk_pieces
    alloc = PowerAllocation.equal_split(3, 2, rho0=0.5)
    closed = evaluate_cache(desk_cache, alloc).sum_se
    mc = achievable_sum_se(stats, est, pilots, cfg, alloc, 6000,
                           substream(67, "mc"))
    assert mc.sum_se + 3 * mc.stderr > closed


def test_perfect_csi_achievable_beats_imperfect(desk_pieces):
    cfg, stats, est, pilots = desk_pieces
    alloc = PowerAllocation.equal_split(3, 2, rho0=0.5)
    imp = achievable_sum_se(stats, est, pilots, cfg, alloc, 6000,
                            substream(71, "i"))
    per = achievable_sum_se(stats, perfect_csi_statistics(stats), pilots, cfg, alloc,
                            6000, substream(71, "p"))
    assert per.sum_se > imp.sum_se


def test_tx_power_estimator_matches_analytic(desk_pieces):
    cfg, stats, est, pilots = desk_pieces
    alloc = random_allocation(3, 2, substream(73, "alloc"))
    expected = expected_tx_power(alloc, cfg)
    for l in range(stats.L):
        mc, err = sample_tx_power(stats, est, pilots, cfg, alloc, l, 30000,
                                  substream(73, "tx", l))
        assert abs(mc - expected[l]) <= 4 * err
