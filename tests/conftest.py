"""Shared fixtures and reference implementations.

The desk-scale configuration (two access points, three users, two antennas)
is small enough that closed-form and Monte Carlo quantities can be compared
in seconds, so most statistical tests run on it. Session scope lets the
module tests and the acceptance suite share the same statistics objects.

The oracles below (eigenvalue-projected correlation matrices, dense co-pilot
tensor from inverted observation covariances, dense co-pilot traces from the
estimator factors, subtraction-free error covariances, whole-network cache,
scalar uncorrelated cache,
per-term einsum SINR assembly, sample-moment SINR assembly, achievable rate
from the joint channel draw, transmit-power audit, per-parameter training
loop, reverse chain on fresh arrays) are independent routes to quantities
the package computes; the tests compare the two. moment_samples forms every
closed-form moment per block for the sampling passes of the moment tests.
"""

import itertools
import math

import numpy as np
import pytest

from cfrs import diffusion
from cfrs.closed_form import (_ENTRY_BUDGET, DegenerateStatisticsError, SECache, _chunks,
                              _ensure_real, build_cache, normalization_coeffs)
from cfrs.config import SystemConfig
from cfrs.diffusion import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, BATCH_SIZE, T_EMBED,
                            forward_diffuse)
from cfrs.monte_carlo import ChannelSampler, instantaneous_sinrs
from cfrs.rng import complex_normal_blocks
from cfrs.scenario import EnvScenario


@pytest.fixture(scope="session")
def desk_cfg():
    return SystemConfig(L=2, K=3, N=2, tau_p=2, seed=7)


@pytest.fixture(scope="session")
def desk_pieces(desk_cfg):
    """(cfg, stats, est, pilots) on the desk-scale network."""
    scenario = EnvScenario(desk_cfg)
    est = scenario.drop_statistics()
    return desk_cfg, est.stats, est, scenario.pilots


@pytest.fixture(scope="session")
def desk_cache(desk_pieces):
    cfg, stats, est, pilots = desk_pieces
    return build_cache(stats, est, pilots, cfg)


@pytest.fixture(scope="session")
def full_pieces():
    """One network drop at the default full scale (20 APs, 4 users)."""
    cfg = SystemConfig(seed=3)
    scenario = EnvScenario(cfg)
    est = scenario.drop_statistics()
    return cfg, est.stats, est, scenario.pilots


@pytest.fixture(scope="session")
def copilot_pieces():
    """A drop with K=8 users on tau_p=3 pilots over L=6 APs."""
    cfg = SystemConfig(L=6, K=8, N=4, tau_p=3, seed=17)
    scenario = EnvScenario(cfg)
    est = scenario.drop_statistics()
    return cfg, est.stats, est, scenario.pilots


def random_allocation(K, L, rng):
    """In-bounds power allocation with no structure, for invariance checks."""
    from cfrs.closed_form import PowerAllocation

    return PowerAllocation(rho=rng.uniform(0.05, 0.95, size=L),
                           eta=rng.uniform(0.05, 1.0, size=(K, L)))


def eigh_projected_correlation(beta_nlos, angles, asd_rad, N):
    """Reference correlation matrices by the route that does not rely on
    their PSD structure: the cluster average of exp(j pi d sin(phi_c)) damped
    by exp(-(asd_rad pi d cos(phi_c))^2 / 2) at every offset d = s - m,
    Hermitian-symmetrized, projected onto the PSD cone by clipping the
    eigenvalues and rescaled to trace N * beta_nlos."""
    angles = np.asarray(angles, dtype=float)
    beta_nlos = np.asarray(beta_nlos, dtype=float)
    offsets = np.arange(1 - N, N)[:, None]
    sin = np.sin(angles)[..., None, :]
    cos = np.cos(angles)[..., None, :]
    damp = 0.5 * (asd_rad ** 2) * (np.pi * offsets * cos) ** 2
    per_offset = np.sum(np.exp(1j * np.pi * offsets * sin - damp), axis=-1)
    diff = np.arange(N)[:, None] - np.arange(N)[None, :]
    R = (beta_nlos / angles.shape[-1])[..., None, None] * per_offset[..., diff + N - 1]
    R = 0.5 * (R + np.swapaxes(R.conj(), -1, -2))
    w, V = np.linalg.eigh(R)
    w = np.clip(w, 0.0, None)
    total = w.sum(axis=-1)
    zero = beta_nlos == 0.0
    w *= (N * beta_nlos / np.where(zero, 1.0, total))[..., None]
    R = (V * w[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)
    R[zero] = 0.0
    return R


def copilot_matrix(pilots):
    """(K, K) boolean matrix; entry (k, i) is True iff i shares k's pilot."""
    return pilots.pilot_of[:, None] == pilots.pilot_of[None, :]


def observation_covariances(stats, pilots, cfg):
    """Per-user pilot observation covariances S_kl = p tau_p sum_{i on k's
    pilot} R_il + sigma^2 I, (K, L, N, N), summed user by user from R."""
    ptau = cfg.p_pilot_mw * cfg.tau_p
    copilot = copilot_matrix(pilots)
    S = np.empty_like(stats.R)
    for k in range(stats.K):
        S[k] = ptau * stats.R[copilot[k]].sum(axis=0) + cfg.noise_mw * np.eye(stats.N)
    return S


def dense_qbar(stats, pilots, cfg):
    """Reference (K, K, L, N, N) co-pilot cross-moments built from R, the
    inverted observation covariances Psi = S^-1 and the pilots:
    Qbar_kil = p tau_p R_il Psi_kl R_kl on pilot groups, zero elsewhere."""
    ptau = cfg.p_pilot_mw * cfg.tau_p
    Psi = np.linalg.inv(observation_covariances(stats, pilots, cfg))
    PsiR = np.einsum("klab,klbc->klac", Psi, stats.R)
    Qbar = np.einsum("ilab,klbc->kilac", stats.R, PsiR) * ptau
    return Qbar * copilot_matrix(pilots)[:, :, None, None, None]


def error_covariances(stats, pilots, cfg):
    """Reference MMSE error covariances without the cancelling subtraction
    R - Q: C_kl = R_kl S_kl^-1 (p tau_p sum_{i on k's pilot, i != k} R_il
    + sigma^2 I), whose second factor leaves out user k's own term."""
    ptau = cfg.p_pilot_mw * cfg.tau_p
    copilot = copilot_matrix(pilots)
    C = np.empty_like(stats.R)
    for k in range(stats.K):
        others = copilot[k] & (np.arange(stats.K) != k)
        X = ptau * stats.R[others].sum(axis=0) + cfg.noise_mw * np.eye(stats.N)
        C[k] = stats.R[k] @ np.linalg.solve(X + ptau * stats.R[k], X)
    return C


def dense_qbar_perfect(stats):
    """Reference cross-moments of perfect CSI: R_kl on the diagonal only."""
    K, L, N = stats.K, stats.L, stats.N
    Qbar = np.zeros((K, K, L, N, N), dtype=complex)
    Qbar[np.arange(K), np.arange(K)] = stats.R
    return Qbar


def dense_copilot_traces(G, copilot):
    """Reference (K, K, L) co-pilot traces tr Qbar_kil = tr(G_il G_kl^H) from
    the estimator factors G (K, L, N, N) and the (K, K) co-pilot map, zero
    where copilot[k, i] is False (an identity map under perfect CSI)."""
    traces = np.einsum("klab,ilab->kil", G.conj(), G)
    return traces * copilot[:, :, None]


def stored_traces(est):
    """The estimation statistics' co-pilot traces scattered into a dense
    (K, K, L) tensor, zero off the stored pairs."""
    K, L = est.G.shape[:2]
    dense = np.zeros((K, K, L), dtype=complex)
    dense[tuple(est.copilot_pairs.T)] = est.copilot_traces
    return dense


def whole_network_variances(stats, est):
    """The complex (L, K+1, K) variance terms of the cache, the private rows
    i and the common row against the columns k, as one
    (K+1, 2N^2) @ (2N^2, K) product per AP over the whole network at once."""
    K, L, N = stats.K, stats.L, stats.N
    NN = N * N
    hbar = stats.hbar
    O = hbar.conj()[..., :, None] * hbar[..., None, :]             # (K, L, N, N)
    s = hbar.sum(axis=0)
    rows = np.empty((L, K + 1, 2, NN), dtype=complex)
    rows[:, :K, 0] = est.Q.reshape(K, L, NN).transpose(1, 0, 2)
    rows[:, :K, 1] = O.reshape(K, L, NN).transpose(1, 0, 2)
    rows[:, K, 0] = est.Qbar_sum.reshape(L, NN)
    rows[:, K, 1] = (s.conj()[:, :, None] * s[:, None, :]).reshape(L, NN)
    cols = np.empty((L, K, 2, N, N), dtype=complex)
    np.add(stats.R.swapaxes(-1, -2), O, out=cols[:, :, 0].transpose(1, 0, 2, 3))
    cols[:, :, 1] = stats.R.transpose(1, 0, 2, 3)
    return rows.reshape(L, K + 1, 2 * NN) @ cols.reshape(L, K, 2 * NN).swapaxes(-1, -2)


def whole_network_cache(stats, est, cfg):
    """Reference SECache built for the whole network at once, with the
    co-pilot traces as a dense (K, K, L) tensor that is zero off the pilot
    groups: the line-of-sight einsum, the dense trace tensor added to p1 and
    summed over both user axes into the common normalizer, and the complex
    variance terms checked for an imaginary residue as a whole."""
    hbar = stats.hbar
    trQbar = stored_traces(est)
    p1 = np.einsum("kln,iln->ilk", hbar.conj(), hbar, order="C")
    p1 += trQbar.transpose(1, 2, 0)
    var = whole_network_variances(stats, est)
    p2 = _ensure_real(var[:, :stats.K], "private variance terms")
    c2 = _ensure_real(var[:, stats.K], "common variance terms")
    s = hbar.sum(axis=0)
    common = np.einsum("ln,ln->l", s.conj(), s) + trQbar.sum(axis=(0, 1))
    common = _ensure_real(common, "common normalizer")
    private = (np.einsum("kln,kln->kl", hbar.conj(), hbar)
               + np.trace(est.Q, axis1=-2, axis2=-1))
    private = _ensure_real(private, "private normalizer")
    if np.any(common <= 0) or np.any(private <= 0):
        raise DegenerateStatisticsError("precoder normalizer is not positive")
    return SECache(c1=p1.sum(axis=0).T, c2=c2.T, p1=p1.transpose(2, 0, 1),
                   p2=p2.transpose(2, 1, 0),
                   mu_c=1.0 / common, mu_p=1.0 / private,
                   p_dl=cfg.p_dl_mw, noise=cfg.noise_mw, prelog=cfg.prelog)


def uncorrelated_cache(beta_los, beta_nlos, pilots, cfg):
    """Reference cache for R_kl = beta_nlos_kl I and phase-aligned LoS
    vectors, built from scalar formulas only (no matrix algebra)."""
    beta_los = np.asarray(beta_los, dtype=float)
    beta_nlos = np.asarray(beta_nlos, dtype=float)
    K, L = beta_los.shape
    N = cfg.N
    ptau = cfg.p_pilot_mw * cfg.tau_p
    copilot = copilot_matrix(pilots)

    denom = ptau * np.einsum("ki,il->kl", copilot.astype(float), beta_nlos) + cfg.noise_mw
    gamma = ptau * beta_nlos ** 2 / denom

    sqrt_los = np.sqrt(beta_los)
    sqrt_gam = np.sqrt(gamma)
    los_ki = N * sqrt_los[:, None, :] * sqrt_los[None, :, :]       # (K, K, L)
    gam_ki = N * sqrt_gam[:, None, :] * sqrt_gam[None, :, :]
    p1 = los_ki + gam_ki * copilot[:, :, None]
    c1 = p1.sum(axis=1)
    p2 = (N * beta_nlos[:, None, :] * gamma[None]
          + N * beta_los[:, None, :] * gamma[None]
          + N * beta_los[None] * beta_nlos[:, None, :])
    pair = np.einsum("ij,il,jl->l", copilot.astype(float), sqrt_gam, sqrt_gam)
    c2 = (N * pair[None, :] * (beta_nlos + beta_los)
          + N * beta_nlos * (sqrt_los.sum(axis=0)[None, :] ** 2))

    mu_c = 1.0 / c1.sum(axis=0).real
    mu_p = 1.0 / (N * beta_los + N * gamma)
    if np.any(mu_c <= 0) or np.any(mu_p <= 0):
        raise DegenerateStatisticsError("precoder normalizer is not positive")
    return SECache(c1=c1.astype(complex), c2=c2, p1=p1.astype(complex), p2=p2,
                   mu_c=mu_c, mu_p=mu_p, p_dl=cfg.p_dl_mw, noise=cfg.noise_mw,
                   prelog=cfg.prelog)


def einsum_sinr_terms(cache, rho, eta):
    """SINR assembly with one einsum per term over the (K, K, L) fields.
    rho is (P, L), eta is (P, K, L); returns (sinr_common, sinr_private)."""
    K = cache.p1.shape[0]
    a = np.sqrt(rho * cache.mu_c)
    Tc1 = np.abs(np.einsum("pl,kl->pk", a, cache.c1)) ** 2
    Tc2 = np.einsum("pl,kl->pk", rho * cache.mu_c, cache.c2)
    w = (1.0 - rho)[:, None, :] * eta * cache.mu_p[None]
    Tp1 = np.abs(np.einsum("pil,kil->pki", np.sqrt(w), cache.p1)) ** 2
    Tp2 = np.einsum("pil,kil->pki", w, cache.p2)
    inter = Tp2.sum(axis=2) + Tp1.sum(axis=2)
    p_over_k = cache.p_dl / K
    den_c = cache.p_dl * Tc2 + p_over_k * inter + cache.noise
    own = Tp1[:, np.arange(K), np.arange(K)]
    den_p = p_over_k * (inter - own) + cache.noise
    return cache.p_dl * Tc1 / den_c, p_over_k * own / den_p


def unit_precoders(ghat, mu_c, mu_p):
    """Unit-average-power common (..., L, N) and private (..., K, L, N) precoders."""
    return np.sqrt(mu_c)[:, None] * ghat.sum(axis=-3), np.sqrt(mu_p)[:, :, None] * ghat


def fresh_normals(rng, n, shape):
    """complex_normal_blocks into fresh memory."""
    return complex_normal_blocks(rng, n, shape, np.empty(n * math.prod(shape), complex))


def fresh_estimates(sampler, n, rng):
    """sampler.draw_estimates into fresh buffers."""
    K, tau_p = sampler.stats.K, sampler.est.pilots.tau_p
    size = n * sampler.stats.L * sampler.stats.N
    return sampler.draw_estimates(n, rng, np.empty(size * max(K, tau_p), complex),
                                  np.empty(size * K, complex))


def fresh_sinrs(ghat, C, mu_c, mu_p, alloc, cfg):
    """instantaneous_sinrs of the blocks ghat (n, K, L, N) on fresh buffers."""
    n, K, L, N = ghat.shape
    return instantaneous_sinrs(ghat, C, mu_c, mu_p, alloc, cfg, np.empty(ghat.size, complex),
                               np.empty(n * L * N * max(K, 2 * N), complex),
                               np.empty(n * L * N * N, complex))


def _oracle_chunks(stats, n):
    """Chunk lengths of the oracles' joint draws, sized like achievable_sum_se's."""
    return [blk.stop - blk.start for blk in
            _chunks(n, stats.L * stats.N * max(stats.K, stats.N), _ENTRY_BUDGET)]


def mc_uatf_sinrs(stats, est, pilots, cfg, alloc, n_draws, rng):
    """Sample-moment assembly of the statistical SINR lower bounds.

    Estimates the mean and mean-square of the effective common and private
    channels g^H u over n_draws blocks and assembles them exactly as the
    closed-form bound does. Returns (sinr_c, sinr_p), each (K,).
    """
    sampler = ChannelSampler(est)
    mu = normalization_coeffs(est)
    K, L, N = stats.K, stats.L, stats.N
    amp_c = np.sqrt(alloc.rho)[:, None]
    amp_p = np.sqrt((1.0 - alloc.rho)[None, :] * alloc.eta)[:, :, None]
    sums = [0.0] * 4           # sum rec_c, |rec_c|^2, rec_p[k, k], |rec_p|^2
    for n in _oracle_chunks(stats, n_draws):
        g, ghat = sampler.draw(n, rng)
        v_c, v_p = unit_precoders(ghat, *mu)
        u_c, u_p = amp_c * v_c, amp_p * v_p
        gH = g.reshape(n, K, L * N).conj()
        rec_c = (gH @ u_c.reshape(n, L * N, 1))[..., 0]
        rec_p = gH @ u_p.reshape(n, K, L * N).swapaxes(-1, -2)
        terms = (rec_c, np.abs(rec_c) ** 2, rec_p[:, np.arange(K), np.arange(K)],
                 np.abs(rec_p) ** 2)
        sums = [acc + t.sum(axis=0) for acc, t in zip(sums, terms)]
    mean_c, msq_c, mean_p, msq_p = (acc / n_draws for acc in sums)
    p_d = cfg.p_dl_mw
    den_c = p_d * (msq_c - np.abs(mean_c) ** 2) + (p_d / K) * msq_p.sum(axis=1) + cfg.noise_mw
    own = np.abs(mean_p) ** 2
    den_p = (p_d / K) * (msq_p.sum(axis=1) - own) + cfg.noise_mw
    return p_d * np.abs(mean_c) ** 2 / den_c, (p_d / K) * own / den_p


def joint_draw_achievable(stats, est, pilots, cfg, alloc, n_blocks, rng):
    """Achievable sum SE from the joint (g, ghat) draw: the estimates come
    from sampled channels and pilot noise, not from their own law. Returns
    (sum SE, standard error)."""
    sampler = ChannelSampler(est)
    mu = normalization_coeffs(est)
    totals = []
    for n in _oracle_chunks(stats, n_blocks):
        _, ghat = sampler.draw(n, rng)
        sinr_c, sinr_p = fresh_sinrs(ghat, est.C, *mu, alloc, cfg)
        totals.append(np.log2(1.0 + sinr_c.min(axis=-1)) + np.log2(1.0 + sinr_p).sum(axis=-1))
    total = cfg.prelog * np.concatenate(totals)
    return float(total.mean()), float(total.std(ddof=1) / np.sqrt(n_blocks))


def _inner(x, y):
    """x^H y over the last axis, as a sum over its few entries."""
    return sum(x[..., q].conj() * y[..., q] for q in range(x.shape[-1]))


def moment_samples(C, tuples=None):
    """A sample_moments samples function of every closed-form moment, from
    the error covariances C (K, L, N, N). Each sample has a leading block
    axis; the others follow SECache.p1[k, i, l] and upsilon_moments(k, i, j, l):
      first[k, i, l]           g_kl^H ghat_il
      second[k, i, l]          |g_kl^H ghat_il|^2
      upsilon3[k, i, j, l]     (g_kl^H ghat_il)^* (g_kl^H ghat_jl)
      upsilon4[k, i, j, l]     (ghat_kl^H ghat_il)^* (ghat_kl^H ghat_jl)
      upsilon5[k, i, j, l]     ghat_il^H C_kl ghat_jl
      common_norm[l]           || sum_i ghat_il ||^2
      private_norm[i, l]       || ghat_il ||^2
    With tuples, a list of (k, i, j, l), the Upsilon samples hold only those
    entries, in that order on their last axis.
    """
    K, L, N = C.shape[:3]
    if tuples is None:
        shape = (K, K, K, L)
        tuples = list(itertools.product(*map(range, shape)))
    else:
        shape = (len(tuples),)
    k, i, j, l = np.array(tuples).T
    Ckl = C[k, l]                                                   # (T, N, N)

    def samples(g, ghat):
        a = _inner(g[:, :, None], ghat[:, None])                    # [b, k, i, l]
        c = _inner(ghat[:, :, None], ghat[:, None])
        hj = ghat[:, j, l]                                          # (n, T, N)
        Chj = sum(Ckl[..., m] * hj[:, :, None, m] for m in range(N))  # C_kl ghat_jl
        upsilon = {"upsilon3": a[:, k, i, l].conj() * a[:, k, j, l],
                   "upsilon4": c[:, k, i, l].conj() * c[:, k, j, l],
                   "upsilon5": _inner(ghat[:, i, l], Chj)}
        return {"first": a, "second": np.abs(a) ** 2,
                **{name: x.reshape(-1, *shape) for name, x in upsilon.items()},
                "common_norm": (np.abs(ghat.sum(axis=1)) ** 2).sum(axis=-1),
                "private_norm": (np.abs(ghat) ** 2).sum(axis=-1)}
    return samples


def max_rel_diff(a, b):
    """Largest absolute difference relative to the largest magnitude of the
    reference b; a zero reference must be matched exactly."""
    diff = np.max(np.abs(np.asarray(a) - np.asarray(b)))
    scale = np.max(np.abs(b))
    if scale == 0:
        return 0.0 if diff == 0 else np.inf
    return diff / scale


def expected_tx_power(alloc, cfg):
    """Analytic per-AP average transmit power, shape (L,)."""
    return cfg.p_dl_mw * (alloc.rho
                          + (1.0 - alloc.rho) * alloc.eta.sum(axis=0) / alloc.eta.shape[0])


def sample_tx_power(stats, est, pilots, cfg, alloc, l, n_draws, rng):
    """Sample mean and standard error of ||x_l||^2, the power AP l radiates
    with the normalized precoders and fresh unit-power data symbols (the
    common one, then K private ones per block, drawn ahead of the channels)."""
    sampler = ChannelSampler(est)
    mu = normalization_coeffs(est)
    amp_c = np.sqrt(cfg.p_dl_mw * alloc.rho[l])
    amp_p = np.sqrt(cfg.p_dl_mw * (1.0 - alloc.rho[l]) * alloc.eta[:, l] / stats.K)
    symbols = fresh_normals(rng, n_draws, (stats.K + 1,))
    samples = []
    for n in _oracle_chunks(stats, n_draws):
        _, ghat = sampler.draw(n, rng)
        v_c, v_p = unit_precoders(ghat, *mu)
        s, symbols = symbols[:n], symbols[n:]
        x = (amp_c * v_c[:, l] * s[:, :1]
             + np.einsum("i,bin,bi->bn", amp_p, v_p[:, :, l], s[:, 1:]))
        samples.append(np.einsum("bn,bn->b", x.conj(), x).real)
    samples = np.concatenate(samples)
    return float(samples.mean()), float(np.sqrt(samples.var(ddof=1) / n_draws))


def fresh_time_embedding(t):
    """Sinusoidal features of the (1-based) steps t, shape (B, T_EMBED),
    computed afresh for every row."""
    half = T_EMBED // 2
    freqs = 10000.0 ** (-np.arange(half) / half)
    ang = np.asarray(t, dtype=float)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def dict_loss_and_grads(params, x, t, env, target):
    """Noise-prediction loss of the tanh MLP and its gradient as fresh
    per-parameter arrays, computed from the integer steps t."""
    B = x.shape[0]
    inp = np.concatenate([x, fresh_time_embedding(t), np.broadcast_to(env, (B, 2))],
                         axis=1)
    a1 = np.tanh(inp @ params["W1"].T + params["b1"])
    a2 = np.tanh(a1 @ params["W2"].T + params["b2"])
    diff = a2 @ params["W3"].T + params["b3"] - target
    loss = float((diff ** 2).sum() / B)
    dout = 2.0 * diff / B
    grads = {"W3": dout.T @ a2, "b3": dout.sum(axis=0)}
    dz2 = dout @ params["W3"] * (1.0 - a2 ** 2)
    grads["W2"] = dz2.T @ a1
    grads["b2"] = dz2.sum(axis=0)
    dz1 = dz2 @ params["W2"] * (1.0 - a1 ** 2)
    grads["W1"] = dz1.T @ inp
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads


class DictAdam:
    """Adam over a dict of parameter arrays, one key at a time."""

    def __init__(self, params, lr):
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for k, g in grads.items():
            self.m[k] = ADAM_BETA1 * self.m[k] + (1.0 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1.0 - ADAM_BETA2) * g ** 2
            params[k] -= self.lr * (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c)
                                                        + ADAM_EPS)


def dict_train(params, schedule, dataset, lr, rng, n_steps):
    """The diffusion training loop on a dict of parameters, updated in place:
    the same draws per step as DiffusionTrainer. Returns the losses."""
    opt = DictAdam(params, lr)
    feats = dataset.features()
    losses = []
    for _ in range(n_steps):
        idx = rng.integers(0, len(dataset.x0), size=BATCH_SIZE)
        t = rng.integers(1, schedule.T + 1, size=BATCH_SIZE)
        eps = rng.standard_normal((BATCH_SIZE, dataset.dim))
        x0 = dataset.x0[idx]
        if diffusion.EXPLORE_NOISE > 0.0:
            x0 = np.clip(x0 + diffusion.EXPLORE_NOISE * rng.standard_normal(x0.shape),
                         0.0, 1.0)
        loss, grads = dict_loss_and_grads(params, forward_diffuse(x0, t, eps, schedule),
                                          t, feats[idx], eps)
        opt.step(params, grads)
        losses.append(loss)
    return np.asarray(losses)


def reference_reverse_sample(model, schedule, env, dim, rng):
    """The reverse chain with fresh arrays and scalar coefficients at every
    step: the same generator calls, in the same order, as reverse_sample."""
    feats = env.features()[None, :]
    x = rng.standard_normal((1, dim))
    for t in range(schedule.T, 0, -1):
        vt = schedule.v[t - 1]
        at = schedule.alpha[t - 1]
        abt = schedule.alpha_bar[t - 1]
        eps = model(x, np.array([t]), feats)
        x = x / np.sqrt(at) - vt / np.sqrt(at * (1.0 - abt)) * eps
        if t > 1:
            x = x + np.sqrt(vt) * rng.standard_normal(x.shape)
    if not np.all(np.isfinite(x)):
        raise ValueError("reverse chain produced a non-finite allocation")
    return np.clip(x, 0.0, 1.0)[0]
