"""Monte Carlo evaluation of the rate-splitting downlink.

Draws coherence blocks and evaluates the per-block achievable rates
(successive decoding of the common message, then the private one).
ChannelSampler draws channels and estimates and knows nothing of precoding;
instantaneous_sinrs goes from the estimates to the rates in one step, forming
the power-weighted maximum-ratio precoders itself. ChannelSampler has one
draw per kind of caller:

- draw_estimates serves achievable_sum_se, whose rates read only the
  estimates and the error covariance C. It samples ghat from its own
  Gaussian law: a block costs tau_p L N complex normals (K L N under perfect
  CSI) and one (N, N) product per (k, l).
- draw serves sample_moments and the tests: the joint law of the channels g
  and their estimates ghat. A block costs (K + tau_p) L N complex normals,
  the R^1/2 product, a (tau_p, K) pilot-group GEMM, the whitening of the
  pilot innovation and the estimator product.

Both draws follow one stream rule: the normals are drawn blocks first
(rng.complex_normal_blocks), so block b reads the b-th run of the stream
whatever the chunk it falls in, and chunks are sized for memory alone.

The rates of a block then cost the weighted precoders, one (K, L*N) GEMM for
the effective channels and O(K L N^2) work for the estimation-error terms.
sample_moments estimates every closed-form moment from one pass, for
`cfrs validate` and the tests. It never forms the K^3 L per-block Upsilon3/4 samples: their shifted
sums are block-axis Grams of the inner products' deviations from the first
block (the shifted-data form of the sample variance, Chan, Golub & LeVeque
1983), so a chunk of n blocks costs O(K^3 L N n) arithmetic in a fixed
number of numpy calls, with no per-block matmul.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .closed_form import PowerAllocation, check_allocation_shape, normalization_coeffs
from .config import SystemConfig
from .estimation import EstimationStatistics, PilotAssignment
from .geometry import LinkStatistics, hermitian_sqrt
from .rng import complex_normal_blocks

# Entries of a chunk's largest per-block tensor: (K, L, N), or (L, N, N) if N > K.
_CHUNK_ENTRY_BUDGET = 1_000_000
# Entries per chunk of sample_moments, counted as K^2 L max(K, N^2) per block:
# 694 blocks at desk scale (K=3, L=2, N=2). The largest per-block tensors left
# are the (L, K, K, K) complex Upsilon5 sample and the (2, L, K, 3K+1) real
# Gram rows of Upsilon3/4, of similar size; for N > 1 the count bounds both.
_MOMENT_ENTRY_BUDGET = 50_000


class ChannelSampler:
    """Vectorized per-block sampler of channels and their MMSE estimates.

    Both draws read their normals blocks first, one block of the stream per
    coherence block, so a block's draw does not depend on how many blocks a
    call draws. Both end in the estimator's own step,

        ghat_kl = hbar_kl + G_kl z_{source[k], l},

    with the per-link factors G of the estimation statistics: the sampler
    owns no estimator matrix.

    draw returns the joint law of (g, ghat), for sample_moments and the
    tests. The pilot noise of a coherence block is drawn once per (pilot, AP)
    and shared by every user on that pilot, which reproduces the
    estimation-error correlation between co-pilot users. A block costs
    (K + tau_p) L N complex normals, the K channel sources first and then
    the tau_p noise sources (K alone under perfect CSI). The channels are
    hbar + R^1/2 w; their pilot innovation, summed over each pilot group by
    one (tau_p, K) GEMM and whitened by W^H = L^-1, is the z of the
    estimator step.

    draw_estimates returns ghat alone, for achievable_sum_se: z is drawn
    directly, tau_p L N complex normals a block, whose products G_kl G_il^H
    are the cross-moments Qbar exactly, co-pilot pairs included.

    Statistics without pilot energy (est.ptau == 0, as from
    perfect_csi_statistics) give perfect CSI: the estimate is the channel
    itself, and each user is its own source with G = R^1/2.
    """

    def __init__(self, stats: LinkStatistics, est: EstimationStatistics,
                 pilots: PilotAssignment, cfg: SystemConfig):
        self.stats = stats
        self.est = est
        self.pilots = pilots
        self.cfg = cfg
        self.perfect_csi = est.ptau == 0
        self.indicator = (np.arange(pilots.tau_p)[:, None]
                          == pilots.pilot_of[None, :]).astype(float)
        if self.perfect_csi:
            self.source, self.n_sources = np.arange(stats.K), stats.K
        else:
            self.source, self.n_sources = pilots.pilot_of, pilots.tau_p

    @cached_property
    def Rhalf(self):
        return hermitian_sqrt(self.stats.R)

    def _estimates(self, z):
        """hbar + G z[source], C-contiguous (n, K, L, N), from the sources
        z (n_sources, L, N, n) laid out blocks last."""
        spread = self.est.G @ z[self.source]                        # (K, L, N, n)
        return np.add(self.stats.hbar[None], np.moveaxis(spread, -1, 0), order="C")

    def draw(self, n, rng):
        """Return (g, ghat), each C-contiguous of shape (n, K, L, N). A block's
        K channel normals z[:K] and tau_p pilot-noise normals z[K:] are one
        block of the stream; Rhalf, the pilot-group sum, the whitening and G
        act as matmuls on blocks-last (K, L, N, n) views."""
        stats, est, K = self.stats, self.est, self.stats.K
        n_noise = 0 if self.perfect_csi else self.pilots.tau_p
        z = complex_normal_blocks(rng, n, (K + n_noise, stats.L, stats.N))
        z = np.moveaxis(z, 0, -1)                                   # (K + tau_p, L, N, n)
        scattered = self.Rhalf @ z[:K]                              # (K, L, N, n)
        g = np.add(stats.hbar[None], np.moveaxis(scattered, -1, 0), order="C")
        if self.perfect_csi:
            return g, g
        innovation = (self.indicator @ scattered.reshape(K, -1)).reshape(
            n_noise, *scattered.shape[1:])                          # (tau_p, L, N, n)
        innovation *= np.sqrt(est.ptau)
        innovation += np.sqrt(self.cfg.noise_mw) * z[K:]
        return g, self._estimates(est.W.conj().swapaxes(-1, -2) @ innovation)

    def draw_estimates(self, n, rng):
        """Return ghat alone, C-contiguous of shape (n, K, L, N)."""
        stats = self.stats
        z = complex_normal_blocks(rng, n, (self.n_sources, stats.L, stats.N))
        return self._estimates(np.moveaxis(z, 0, -1))


def _chunks(n, per_block, budget):
    """Lengths of the chunks that cover n blocks of per_block entries each,
    at most budget entries a chunk. The draws read their normals blocks
    first, so the chunking decides memory alone, never the result."""
    step = max(1, min(n, budget // per_block))
    return [min(step, n - start) for start in range(0, n, step)]


def _effective_gains(h, u_c, u_p):
    """s_c[k] = sum_l h_kl^H u_c,l and s_p[k, i] = sum_l h_kl^H u_il, one GEMM
    each over the flattened (L*N) antennas of h and u_p, both (..., K, L, N)."""
    *batch, K, L, N = h.shape
    hH = h.reshape(*batch, K, L * N).conj()
    s_c = hH @ u_c.reshape(*batch, L * N, 1)
    s_p = hH @ u_p.reshape(*batch, K, L * N).swapaxes(-1, -2)
    return s_c[..., 0], s_p


def instantaneous_sinrs(ghat, C, mu_c, mu_p, alloc: PowerAllocation, cfg: SystemConfig):
    """Per-block SINRs of the common and private messages at every user.

    The precoders are maximum ratio, normalized to unit average power by the
    normalization_coeffs mu_c (L,) and mu_p (K, L), then weighted by the
    power split rho and the power control eta:

      u_c,l = sqrt(rho_l mu_c,l) sum_i ghat_il,  u_il = sqrt((1 - rho_l) eta_il mu_p,il) ghat_il

    Each user decodes the common message first (all private streams are
    noise), strips it, then decodes its own private stream. With p = p_d / K
    and the noise power s2:

      s_c[k] = sum_l ghat_kl^H u_c,l,   e_c[k] = sum_l u_c,l^H C_kl u_c,l
      s_p[k, i] = sum_l ghat_kl^H u_il, e_p[k] = sum_il u_il^H C_kl u_il
      sinr_c[k] = p_d |s_c[k]|^2 / (p_d e_c[k] + p (sum_i |s_p[k, i]|^2 + e_p[k]) + s2)
      sinr_p[k] = p |s_p[k, k]|^2 / (p (sum_{i != k} |s_p[k, i]|^2 + e_p[k]) + s2)

    Leading axes of ghat (..., K, L, N) are batch axes; returns (sinr_c,
    sinr_p), each (..., K).
    """
    *batch, K, L, N = ghat.shape
    p_d = cfg.p_dl_mw
    u_c = np.sqrt(alloc.rho * mu_c)[:, None] * ghat.sum(axis=-3)
    u_p = np.sqrt((1.0 - alloc.rho) * alloc.eta * mu_p)[:, :, None] * ghat
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
    """Ergodic achievable sum SE averaged over sampled coherence blocks.

    The rates read only the estimates and est.C, so the blocks come from
    ChannelSampler.draw_estimates. Its stream is blocks first: chunks are
    sized for memory alone and do not move the result.
    """
    if n_blocks < 2:
        raise ValueError("n_blocks must be at least 2")
    check_allocation_shape(alloc.rho.shape, alloc.eta.shape, stats.K, stats.L)
    mu_c, mu_p = normalization_coeffs(stats, est)
    sampler = ChannelSampler(stats, est, pilots, cfg)
    se_c, se_p = [], []
    for n in _chunks(n_blocks, stats.L * stats.N * max(stats.K, stats.N),
                     _CHUNK_ENTRY_BUDGET):
        sinr_c, sinr_p = instantaneous_sinrs(sampler.draw_estimates(n, rng), est.C,
                                             mu_c, mu_p, alloc, cfg)
        se_c.append(np.log2(1.0 + sinr_c.min(axis=-1)))
        se_p.append(np.log2(1.0 + sinr_p))
    se_c, se_p = np.concatenate(se_c), np.concatenate(se_p)
    total = se_c + se_p.sum(axis=-1)
    prelog = cfg.prelog
    return AchievableReport(
        sum_se=float(prelog * total.mean()),
        stderr=float(prelog * total.std(ddof=1) / np.sqrt(n_blocks)),
        se_common=float(prelog * se_c.mean()),
        se_private=prelog * se_p.mean(axis=0),
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

    Indices follow SECache.p1[k, i, l] and upsilon_moments(k, i, j, l):
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


def _chunk_samples(g, ghat, Cl):
    """Per-block samples of one chunk, blocks last.

    Returns ac, with ac[0] = a = g_kl^H ghat_il and ac[1] = c = ghat_kl^H
    ghat_il as [s, l, k, i, b], and the list of the Upsilon5 sample
    ghat_il^H C_kl ghat_jl as [l, k, i, j, b], the common norms [l, b] and the
    private norms [l, i, b]. Cl[l] stacks the C_kl as (K N, N) rows.
    """
    gT, hT = (np.ascontiguousarray(x.transpose(2, 3, 1, 0)) for x in (g, ghat))  # (L, N, K, n)
    L, N, K, n = hT.shape
    hc = hT.conj()
    ac = np.einsum("slqkb,lqib->slkib", np.stack([gT.conj(), hc]), hT)
    Ch = (Cl @ hT.reshape(L, N, K * n)).reshape(L, K, N, K, n)  # [l, k, :, j] = C_kl ghat_jl
    u5 = hc[:, None, 0, :, None] * Ch[:, :, 0, None]
    for q in range(1, N):
        u5 += hc[:, None, q, :, None] * Ch[:, :, q, None]
    return ac, [u5, (np.abs(hT.sum(axis=2)) ** 2).sum(axis=1), (np.abs(hT) ** 2).sum(axis=1)]


def _deviation_gram(x, m):
    """Block-axis Gram of the real rows [Re D; Im D; |D|^2; 1] of the
    deviations D = x - m of x (..., K, n) from m (..., K): (..., 3K+1, 3K+1)."""
    K, n = x.shape[-2:]
    X = np.empty(x.shape[:-2] + (3 * K + 1, n))
    np.subtract(x.real, m.real[..., None], out=X[..., :K, :])
    np.subtract(x.imag, m.imag[..., None], out=X[..., K:2 * K, :])
    np.multiply(X[..., :K, :], X[..., :K, :], out=X[..., 2 * K:3 * K, :])
    X[..., 2 * K:3 * K, :] += X[..., K:2 * K, :] ** 2
    X[..., -1, :] = 1.0
    return X @ X.swapaxes(-1, -2)


def _gram_sums(m, W):
    """Shifted sums of x and of its pairs y_ij = conj(x_i) x_j from W, the
    block-axis Gram of the real rows [Re D; Im D; |D|^2; 1] of D = x - m,
    shape (..., 3K+1, 3K+1).

    Returns (m, sum D, sum |D|^2), each (..., K), and (y0, sum(y - y0),
    sum |y - y0|^2), each (..., K, K), about y0_ij = conj(m_i) m_j:

      sum(y - y0)   = conj(m_i) sum D_j + m_j conj(sum D_i) + sum conj(D_i) D_j
      sum|y - y0|^2 = |m_i|^2 sum|D_j|^2 + |m_j|^2 sum|D_i|^2 + sum |D_i|^2 |D_j|^2
                      + 2 Re[conj(m_i m_j) sum D_i D_j + conj(m_i) sum D_i |D_j|^2
                             + conj(m_j) sum D_j |D_i|^2]
    """
    K = m.shape[-1]
    Z = W[..., :K, :] + 1j * W[..., K:2 * K, :]       # [i, r] = sum D_i X_r
    dd = Z[..., :K] + 1j * Z[..., K:2 * K]            # sum D_i D_j
    ddc = (Z[..., :K] - 1j * Z[..., K:2 * K]).conj()  # sum conj(D_i) D_j
    de, s1 = Z[..., 2 * K:3 * K], Z[..., -1]          # sum D_i |D_j|^2, sum D_i
    ee, sq = W[..., 2 * K:3 * K, 2 * K:3 * K], W[..., 2 * K:3 * K, -1]
    mi, mj = m[..., :, None], m[..., None, :]
    t1 = mi.conj() * s1[..., None, :] + mj * s1[..., :, None].conj() + ddc
    t2 = (np.abs(mi) ** 2 * sq[..., None, :] + np.abs(mj) ** 2 * sq[..., :, None] + ee
          + 2 * ((mi * mj).conj() * dd + mi.conj() * de
                 + mj.conj() * de.swapaxes(-1, -2)).real)
    return (m, s1, sq), (mi.conj() * mj, t1, t2)


def _estimate(x0, s1, s2, n, axes):
    """The Estimate of samples x from x0, sum(x - x0) and sum |x - x0|^2."""
    var = (s2 - np.abs(s1) ** 2 / n) / (n - 1)
    return Estimate((x0 + s1 / n).transpose(axes), np.sqrt(var / n).transpose(axes))


def sample_moments(stats: LinkStatistics, est: EstimationStatistics,
                   pilots: PilotAssignment, cfg: SystemConfig,
                   n_draws, rng) -> SampleMoments:
    """Estimate every closed-form moment from one pass of n_draws blocks.

    Each entry's mean and variance come from sums of its deviations from the
    first block's sample x0: unshifted, the variance of an entry whose mean
    dwarfs its spread (a LoS-dominated norm) loses digits in proportion to
    mean^2 / var. A chunk of n blocks is laid out blocks-last as (L, N, K, n):

    - the inner products a = g_kl^H ghat_il and c = ghat_kl^H ghat_il come
      from one einsum over N;
    - Upsilon3/4 are never formed per block. With m the first block's a (or
      c) and D = a - m, every shifted sum they need, and those of the first
      and second moments, is a block-axis Gram of the real rows
      [Re D; Im D; |D|^2; 1], one (3K+1, n) @ (n, 3K+1) GEMM per (l, k);
      _gram_sums assembles them;
    - the Upsilon5 sample is one GEMM of C_l against ghat_l plus a
      contraction over N, and it and the norms accumulate per block.

    A chunk costs O(K^3 L N n) arithmetic in a fixed number of numpy calls.
    """
    if n_draws < 2:
        raise ValueError("n_draws must be at least 2")
    sampler = ChannelSampler(stats, est, pilots, cfg)
    K, L, N = stats.K, stats.L, stats.N
    Cl = est.C.transpose(1, 0, 2, 3).reshape(L, K * N, N)   # [l, k N + a, b] = C_kl[a, b]
    gram, shifts, sums = 0.0, None, [[0.0, 0.0] for _ in range(3)]
    for n in _chunks(n_draws, K ** 2 * L * max(K, N ** 2), _MOMENT_ENTRY_BUDGET):
        ac, samples = _chunk_samples(*sampler.draw(n, rng), Cl)
        if shifts is None:
            m, shifts = ac[..., 0].copy(), [x[..., 0].copy() for x in samples]
        gram += _deviation_gram(ac, m)
        for acc, x, x0 in zip(sums, samples, shifts):
            x -= x0[..., None]
            dv = x.view(np.float64)        # sum |x - x0|^2 = dv . dv
            acc[0] += x.sum(axis=-1)
            acc[1] += np.einsum("...b,...b->...", dv, dv)
        del ac, samples            # a pass holds one chunk's tensors at a time
    kil, kijl = (1, 2, 0), (1, 2, 3, 0)
    (first, u3), (_, u4) = (_gram_sums(m[s], gram[s]) for s in range(2))
    second = tuple(x.diagonal(axis1=-2, axis2=-1).real for x in u3)   # |a|^2 = y_ii
    u5, common, private = (_estimate(x0, *acc, n_draws, axes) for x0, acc, axes
                           in zip(shifts, sums, [kijl, (0,), (1, 0)]))
    return SampleMoments(*(_estimate(*x, n_draws, axes) for x, axes in
                           [(first, kil), (second, kil), (u3, kijl), (u4, kijl)]),
                         u5, common, private)
