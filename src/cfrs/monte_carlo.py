"""Monte Carlo evaluation of the rate-splitting downlink.

Draws coherence blocks (channel, pilot noise, estimates), forms the common
and private precoders, and evaluates the per-block achievable rates
(successive decoding of the common message, then the private one). A block
costs one (K, L*N) GEMM for the effective channels plus O(K L N^2) work for
the estimation-error terms. sample_moments estimates every closed-form moment
from one pass, for `cfrs validate` and the tests.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .closed_form import PowerAllocation, normalization_coeffs
from .config import SystemConfig
from .estimation import EstimationStatistics, PilotAssignment
from .geometry import LinkStatistics, hermitian_sqrt
from .rng import complex_normal

# Entries of a chunk's largest per-block tensor: (K, L, N), or (L, N, N) if N > K.
_CHUNK_ENTRY_BUDGET = 1_000_000
# Blocks per chunk asked of chunk_size; the random streams depend on them.
_ACHIEVABLE_CHUNK = 2048
# Entries per chunk of sample_moments' largest per-block tensor,
# K^2 L max(K, N^2): 694 blocks at desk scale (K=3, L=2, N=2).
_MOMENT_ENTRY_BUDGET = 50_000


class ChannelSampler:
    """Vectorized per-block sampler of channels and their MMSE estimates.

    The pilot noise of a coherence block is drawn once per (pilot, AP) and
    shared by every user on that pilot, which reproduces the estimation-error
    correlation between co-pilot users. Statistics without pilot energy
    (est.ptau == 0, as from perfect_csi_statistics) give perfect CSI: the
    estimate is the channel itself.
    """

    def __init__(self, stats: LinkStatistics, est: EstimationStatistics,
                 pilots: PilotAssignment, cfg: SystemConfig):
        self.stats = stats
        self.pilots = pilots
        self.cfg = cfg
        self.perfect_csi = est.ptau == 0
        self.Rhalf = hermitian_sqrt(stats.R)
        ptau = cfg.p_pilot_mw * cfg.tau_p
        self.Bmat = np.sqrt(ptau) * np.einsum("klab,klbc->klac", stats.R, est.Psi)
        self.indicator = (np.arange(pilots.tau_p)[:, None]
                          == pilots.pilot_of[None, :]).astype(float)
        self.mu_c, self.mu_p = normalization_coeffs(stats, est, pilots)

    def draw(self, n, rng):
        """Return (g, ghat), each C-contiguous of shape (n, K, L, N). Rhalf, the
        pilot-group sum and Bmat act as matmuls on blocks-last (K, L, N, n) views."""
        stats, cfg = self.stats, self.cfg
        w = complex_normal(rng, (n, stats.K, stats.L, stats.N))
        scattered = self.Rhalf @ np.moveaxis(w, 0, -1)              # (K, L, N, n)
        g = np.add(stats.hbar[None], np.moveaxis(scattered, -1, 0), order="C")
        if self.perfect_csi:
            return g, g
        noise = complex_normal(rng, (n, self.pilots.tau_p, stats.L, stats.N))
        innovation = (self.indicator @ scattered.reshape(stats.K, -1)).reshape(
            self.pilots.tau_p, *scattered.shape[1:])                 # (tau_p, L, N, n)
        innovation *= np.sqrt(cfg.p_pilot_mw * cfg.tau_p)
        innovation += np.sqrt(cfg.noise_mw) * np.moveaxis(noise, 0, -1)
        spread = self.Bmat @ innovation[self.pilots.pilot_of]       # (K, L, N, n)
        ghat = np.add(stats.hbar[None], np.moveaxis(spread, -1, 0), order="C")
        return g, ghat

    def chunk_size(self, requested):
        per_block = self.stats.L * self.stats.N * max(self.stats.K, self.stats.N)
        return max(1, min(requested, _CHUNK_ENTRY_BUDGET // per_block))


def build_precoders(ghat, mu_c, mu_p):
    """Average-power-normalized precoders from estimates of shape (..., K, L, N).

    Returns (v_c, v_p): the common precoder sqrt(mu_c) sum_i ghat_il of shape
    (..., L, N) and the private ones sqrt(mu_p) ghat_il of shape (..., K, L, N).
    """
    v_c = np.sqrt(mu_c)[:, None] * ghat.sum(axis=-3)
    v_p = np.sqrt(mu_p)[:, :, None] * ghat
    return v_c, v_p


def _weighted_precoders(v_c, v_p, alloc: PowerAllocation):
    """sqrt(rho_l) v_c,l and sqrt(w_il) v_il, with w_il = (1 - rho_l) eta_il."""
    w = (1.0 - alloc.rho)[None, :] * alloc.eta
    return np.sqrt(alloc.rho)[:, None] * v_c, np.sqrt(w)[:, :, None] * v_p


def _effective_gains(h, u_c, u_p):
    """s_c[k] = sum_l h_kl^H u_c,l and s_p[k, i] = sum_l h_kl^H u_il, one GEMM
    each over the flattened (L*N) antennas of h and u_p, both (..., K, L, N)."""
    *batch, K, L, N = h.shape
    hH = h.reshape(*batch, K, L * N).conj()
    s_c = hH @ u_c.reshape(*batch, L * N, 1)
    s_p = hH @ u_p.reshape(*batch, K, L * N).swapaxes(-1, -2)
    return s_c[..., 0], s_p


def instantaneous_sinrs(ghat, v_c, v_p, C, alloc: PowerAllocation, cfg: SystemConfig):
    """Per-block SINRs of the common and private messages at every user.

    Each user decodes the common message first (all private streams are
    noise), strips it, then decodes its own private stream. With
    w_il = (1 - rho_l) eta_il, p = p_d / K and the noise power s2:

      s_c[k] = sum_l sqrt(rho_l) ghat_kl^H v_c,l,  e_c[k] = sum_l rho_l v_c,l^H C_kl v_c,l
      s_p[k, i] = sum_l sqrt(w_il) ghat_kl^H v_il,  e_p[k] = sum_il w_il v_il^H C_kl v_il
      sinr_c[k] = p_d |s_c[k]|^2 / (p_d e_c[k] + p (sum_i |s_p[k, i]|^2 + e_p[k]) + s2)
      sinr_p[k] = p |s_p[k, k]|^2 / (p (sum_{i != k} |s_p[k, i]|^2 + e_p[k]) + s2)

    Leading axes of ghat are batch axes; returns (sinr_c, sinr_p), (..., K).
    """
    *batch, K, L, N = ghat.shape
    p_d = cfg.p_dl_mw
    u_c, u_p = _weighted_precoders(v_c, v_p, alloc)
    s_c, s_p = _effective_gains(ghat, u_c, u_p)
    coh = np.abs(s_p) ** 2                                          # (..., K, K)

    # e = sum_l tr(C_kl S_l), S_l = u_c,l u_c,l^H or sum_i u_il u_il^H; as
    # tr(C S) = sum_nm C[n, m] S[m, n], C meets S transposed: conj(u)[n] u[m].
    Ct = C.reshape(K, L * N * N).T
    S_c = u_c.conj()[..., :, None] * u_c[..., None, :]              # (..., L, N, N)
    u_l = np.moveaxis(u_p, -3, -2)                                  # (..., L, K, N)
    S_p = u_l.conj().swapaxes(-1, -2) @ u_l
    err_c = (S_c.reshape(*batch, -1) @ Ct).real
    err_p = (S_p.reshape(*batch, -1) @ Ct).real
    den_c = p_d * err_c + (p_d / K) * (coh.sum(axis=-1) + err_p) + cfg.noise_mw
    own = coh[..., np.arange(K), np.arange(K)]
    den_p = (p_d / K) * (coh.sum(axis=-1) - own + err_p) + cfg.noise_mw
    return p_d * np.abs(s_c) ** 2 / den_c, (p_d / K) * own / den_p


@dataclass(frozen=True)
class AchievableReport:
    sum_se: float
    stderr: float             # standard error of the sum estimate
    se_common: float          # mean common-message SE (limited by the worst user)
    se_private: np.ndarray    # (K,) mean private SEs
    n_blocks: int
    prelog: float


def achievable_sum_se(stats: LinkStatistics, est: EstimationStatistics,
                      pilots: PilotAssignment, cfg: SystemConfig,
                      alloc: PowerAllocation, n_blocks, rng) -> AchievableReport:
    """Ergodic achievable sum SE averaged over sampled coherence blocks."""
    if n_blocks < 2:
        raise ValueError("n_blocks must be at least 2")
    sampler = ChannelSampler(stats, est, pilots, cfg)
    chunk = sampler.chunk_size(_ACHIEVABLE_CHUNK)
    se_c_sum = 0.0
    se_p_sum = np.zeros(stats.K)
    totals = []
    for start in range(0, n_blocks, chunk):
        n = min(chunk, n_blocks - start)
        _, ghat = sampler.draw(n, rng)
        v_c, v_p = build_precoders(ghat, sampler.mu_c, sampler.mu_p)
        sinr_c, sinr_p = instantaneous_sinrs(ghat, v_c, v_p, est.C, alloc, cfg)
        se_c = np.log2(1.0 + sinr_c.min(axis=-1))
        se_p = np.log2(1.0 + sinr_p)
        se_c_sum += se_c.sum()
        se_p_sum += se_p.sum(axis=0)
        totals.append(se_c + se_p.sum(axis=-1))
    total = np.concatenate(totals)
    prelog = cfg.prelog
    return AchievableReport(
        sum_se=float(prelog * total.mean()),
        stderr=float(prelog * total.std(ddof=1) / np.sqrt(n_blocks)),
        se_common=float(prelog * se_c_sum / n_blocks),
        se_private=prelog * se_p_sum / n_blocks,
        n_blocks=n_blocks,
        prelog=prelog,
    )


class Estimate(NamedTuple):
    """Sample means and their standard errors, entry by entry."""
    mean: np.ndarray
    stderr: np.ndarray        # ddof=1; var(re) + var(im) for complex samples


@dataclass(frozen=True)
class SampleMoments:
    """Sample means of the closed-form moments over n_draws blocks.

    Indices follow closed_moments(k, i, l) and upsilon_moments(k, i, j, l):
      first[k, i, l]           E{g_kl^H ghat_il}
      second[k, i, l]          E{|g_kl^H ghat_il|^2}
      upsilon3[k, i, j, l]     E{(g_kl^H ghat_il)^* (g_kl^H ghat_jl)}
      upsilon4[k, i, j, l]     E{(ghat_kl^H ghat_il)^* (ghat_kl^H ghat_jl)}
      upsilon5[k, i, j, l]     E{ghat_il^H C_kl ghat_jl}
      common_norm[l]           E{|| sum_i ghat_il ||^2}
      private_norm[i, l]       E{|| ghat_il ||^2}
    """
    first: Estimate
    second: Estimate
    upsilon3: Estimate
    upsilon4: Estimate
    upsilon5: Estimate
    common_norm: Estimate
    private_norm: Estimate


def _pairs(x):
    """[..., k, i, j] = conj(x[..., k, i]) x[..., k, j]."""
    return x.conj()[..., :, None] * x[..., None, :]


def _moment_samples(g, ghat, C):
    """Yield (x, axes) for every SampleMoments field in field order: x holds
    the per-block samples, C-contiguous with the block axis at 1, and axes
    takes x's other axes to the field's index order. Batched matmuls form the
    inner products; one GEMM per AP contracts the outer products with C."""
    gl, hl = g.transpose(2, 0, 1, 3), ghat.transpose(2, 0, 1, 3)   # (L, n, K, N)
    L, n, K, N = hl.shape
    kil, kijl = (1, 2, 0), (1, 2, 3, 0)
    a = gl.conj() @ hl.swapaxes(-1, -2)             # [l, b, k, i] = g_kl^H ghat_il
    yield a, kil
    yield np.abs(a) ** 2, kil
    yield _pairs(a), kijl
    yield _pairs(hl.conj() @ hl.swapaxes(-1, -2)), kijl   # of ghat_kl^H ghat_il
    # [l, b, i, j, k] = ghat_il^H C_kl ghat_jl: the outer products
    # conj(ghat_il) ghat_jl^T, flattened over their (N, N) axes, against C_kl.
    u5 = ((hl.conj()[..., :, None, :, None] * hl[..., None, :, None, :]).reshape(L, -1, N * N)
          @ C.transpose(1, 2, 3, 0).reshape(L, N * N, K))
    yield u5.reshape(L, n, K, K, K), (3, 1, 2, 0)
    yield (np.abs(hl.sum(axis=2)) ** 2).sum(axis=-1), (0,)
    yield (np.abs(hl) ** 2).sum(axis=-1), (1, 0)


def sample_moments(stats: LinkStatistics, est: EstimationStatistics,
                   pilots: PilotAssignment, cfg: SystemConfig,
                   n_draws, rng) -> SampleMoments:
    """Estimate every closed-form moment from one pass of n_draws blocks."""
    if n_draws < 2:
        raise ValueError("n_draws must be at least 2")
    sampler = ChannelSampler(stats, est, pilots, cfg)
    per_block = stats.K ** 2 * stats.L * max(stats.K, stats.N ** 2)
    chunk = max(1, min(n_draws, _MOMENT_ENTRY_BUDGET // per_block))
    # Per field: x_0, sum(x - x_0) and sum |x - x_0|^2, with x_0 the first
    # block's sample. Unshifted, the variance of an entry whose mean dwarfs its
    # spread (a LoS-dominated norm) loses digits in proportion to mean^2 / var.
    acc = []
    for start in range(0, n_draws, chunk):
        n = min(chunk, n_draws - start)
        for f, (x, axes) in enumerate(_moment_samples(*sampler.draw(n, rng), est.C)):
            if f == len(acc):
                acc.append([x[:, :1].copy(), 0.0, 0.0, axes])
            d = x - acc[f][0]
            acc[f][1] += d.sum(axis=1)
            acc[f][2] += (np.abs(d) ** 2).sum(axis=1)
    estimates = []
    for x0, s1, s2, axes in acc:
        var = (s2 - np.abs(s1) ** 2 / n_draws) / (n_draws - 1)
        estimates.append(Estimate((x0[:, 0] + s1 / n_draws).transpose(axes),
                                  np.sqrt(var / n_draws).transpose(axes)))
    return SampleMoments(*estimates)
