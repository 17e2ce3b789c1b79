"""Monte Carlo evaluation of the rate-splitting downlink.

Draws coherence blocks and evaluates the per-block achievable rates
(successive decoding of the common message, then the private one).
ChannelSampler(est) draws channels and estimates, with the link statistics,
pilot groups and noise that est carries, and knows nothing of precoding;
instantaneous_sinrs goes from the estimates to the rates in one step, forming
the power-weighted maximum-ratio precoders itself. ChannelSampler has one
draw per kind of caller:

- draw_estimates serves achievable_sum_se, whose rates read only the
  estimates and the error covariance C. It samples ghat from its own
  Gaussian law: a block costs tau_p L N complex normals and one (N, N)
  product per (k, l).
- draw serves sample_moments and the tests: the joint law of the channels g
  and their estimates ghat. A block costs (K + tau_p) L N complex normals,
  the R^1/2 product, a (tau_p, K) pilot-group GEMM, the whitening of the
  pilot innovation and the estimator product.

Both draws follow one stream rule: the normals are drawn blocks first
(rng.complex_normal_blocks), so block b reads the b-th run of the stream
whatever the chunk it falls in, and the chunking never moves a result.
achievable_sum_se draws chunks whose (n, K, L, N) tensors take about 1 MiB
and writes every chunk into one workspace that the call allocates once:
draw_estimates and instantaneous_sinrs take that workspace's flat buffers as
arguments, and draw, whose callers keep its arrays, allocates its own.

The rates of a block then cost the weighted precoders, one (K, L*N) GEMM for
the effective channels and O(K L N^2) work for the estimation-error terms.
sample_moments averages whatever per-block samples its caller forms from the
joint draw, each shifted by its first block's value; `cfrs validate` forms
the six moments it checks, and the tests form every closed-form moment.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .closed_form import (_ENTRY_BUDGET, PowerAllocation, _chunks, check_allocation_shape,
                          normalization_coeffs)
from .config import SystemConfig
from .estimation import EstimationStatistics, PilotAssignment
from .geometry import LinkStatistics, hermitian_sqrt
from .rng import complex_normal_blocks

# Entries of the (K, L, N) draw per chunk of sample_moments: 694 blocks at desk
# scale (K=3, L=2, N=2). A pass holds one chunk's draws and samples at a time,
# so this bounds its memory whatever the number of draws.
_MOMENT_ENTRY_BUDGET = 8_333


class ChannelSampler:
    """Vectorized per-block sampler of channels and their MMSE estimates.

    Both draws read their normals blocks first, one block of the stream per
    coherence block, so a block's draw does not depend on how many blocks a
    call draws. Both end in the estimator's own step,

        ghat_kl = hbar_kl + G_kl z_{t(k), l},

    with the per-link factors G, pilots t(k), pilot energy and noise of the
    estimation statistics, and the channel law (hbar, R) they carry: the
    sampler owns no estimator matrix, assignment or link statistics.

    draw returns the joint law of (g, ghat), for sample_moments and the
    tests. The pilot noise of a coherence block is drawn once per (pilot, AP)
    and shared by every user on that pilot, which reproduces the
    estimation-error correlation between co-pilot users. A block costs
    (K + tau_p) L N complex normals, the K channel sources first and then
    the tau_p noise sources (K alone under perfect CSI). The channels are
    hbar + R^1/2 w; their pilot innovation, summed over each pilot group by
    one (tau_p, K) GEMM and whitened by W^H = L^-1, is the z of the
    estimator step.

    draw_estimates returns ghat alone, for achievable_sum_se, in the
    buffers of its workspace: z is drawn directly, tau_p L N complex normals
    a block, whose products G_kl G_il^H are the cross-moments Qbar exactly,
    co-pilot pairs included.

    Statistics without pilot energy (est.ptau == 0, as from
    perfect_csi_statistics) give perfect CSI: each user is its own pilot
    with G = R^1/2, and draw returns the channel itself as the estimate.
    """

    def __init__(self, est: EstimationStatistics):
        self.stats = est.stats
        self.est = est
        pilots = est.pilots
        self.indicator = (np.arange(pilots.tau_p)[:, None] == pilots.pilot_of).astype(float)

    @cached_property
    def Rhalf(self):
        return hermitian_sqrt(self.stats.R)

    def _estimates(self, z, work, out):
        """The estimator step ghat = hbar + G z[pilot_of] for sources z (n,
        tau_p, L, N) of any strides. Flat complex buffers of n K L N entries:
        out holds z[pilot_of], then the returned C-contiguous ghat; work
        holds G z[pilot_of] blocks last."""
        n, K, L, N = len(z), self.stats.K, self.stats.L, self.stats.N
        # mode="clip" writes straight into out; the default mode buffers it.
        gathered = np.take(z, self.est.pilots.pilot_of, axis=1,
                           out=_view(out, n, K, L, N), mode="clip")
        spread = np.matmul(self.est.G, np.moveaxis(gathered, 0, -1),
                           out=_view(work, K, L, N, n))
        return np.add(self.stats.hbar[None], np.moveaxis(spread, -1, 0), out=gathered)

    def draw(self, n, rng):
        """Return (g, ghat), each C-contiguous of shape (n, K, L, N), in fresh
        memory. A block's K channel normals z[:K] and tau_p pilot-noise
        normals z[K:] are one block of the stream; Rhalf, the pilot-group
        sum and the whitening act as matmuls on blocks-last (K, L, N, n)
        views, and the whitened innovation is the z of the estimator step."""
        stats, est, K = self.stats, self.est, self.stats.K
        n_noise = 0 if est.ptau == 0 else est.pilots.tau_p          # 0 under perfect CSI
        size = n * stats.L * stats.N
        normals = np.empty(size * (K + n_noise), complex)
        z = complex_normal_blocks(rng, n, (K + n_noise, stats.L, stats.N), normals)
        z = np.moveaxis(z, 0, -1)                                   # (K + tau_p, L, N, n)
        scattered = self.Rhalf @ z[:K]                              # (K, L, N, n)
        g = np.add(stats.hbar[None], np.moveaxis(scattered, -1, 0), order="C")
        if not n_noise:
            return g, g                                             # ghat = g
        innovation = (self.indicator @ scattered.reshape(K, -1)).reshape(
            n_noise, *scattered.shape[1:])                          # (tau_p, L, N, n)
        innovation *= np.sqrt(est.ptau)
        innovation += np.sqrt(est.noise_mw) * z[K:]
        white = est.W.conj().swapaxes(-1, -2) @ innovation
        return g, self._estimates(np.moveaxis(white, -1, 0), np.empty(size * K, complex),
                                  np.empty(size * K, complex))

    def draw_estimates(self, n, rng, work, out):
        """Return ghat alone, C-contiguous of shape (n, K, L, N), through flat
        complex buffers: work, of n L N max(K, tau_p) entries, holds the
        normals and then G z[pilot_of] blocks last; out, of n K L N entries,
        holds the gathered z[pilot_of] and then ghat."""
        z = complex_normal_blocks(rng, n, (self.est.pilots.tau_p, self.stats.L, self.stats.N),
                                  work)
        return self._estimates(z, work, out)


def _view(buf, *shape):
    """The first prod(shape) entries of the flat buffer buf, C-contiguous of
    that shape: a chunk shorter than the workspace's uses a prefix."""
    return buf[:math.prod(shape)].reshape(shape)


def instantaneous_sinrs(ghat, C, mu_c, mu_p, alloc: PowerAllocation, cfg: SystemConfig,
                        precoders, work, gram):
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

    ghat holds n blocks (n, K, L, N); returns (sinr_c, sinr_p), each (n, K).
    The largest temporaries go into flat complex buffers: u_p into precoders
    and the conjugates into work (n K L N entries each), the (n, L, N, N)
    Grams into gram.
    """
    n, K, L, N = ghat.shape
    p_d = cfg.p_dl_mw
    u_c = np.sqrt(alloc.rho * mu_c)[:, None] * ghat.sum(axis=-3)           # (n, L, N)
    u_p = np.multiply(np.sqrt((1.0 - alloc.rho) * alloc.eta * mu_p)[:, :, None], ghat,
                      out=_view(precoders, n, K, L, N))
    # s_c[k] = sum_l h_kl^H u_c,l and s_p[k, i] = sum_l h_kl^H u_il, one GEMM
    # each over the flattened (L*N) antennas.
    hH = np.conjugate(ghat, out=_view(work, n, K, L, N)).reshape(n, K, L * N)
    s_c = (hH @ u_c.reshape(n, L * N, 1))[..., 0]
    s_p = hH @ u_p.reshape(n, K, L * N).swapaxes(-1, -2)
    coh = np.abs(s_p) ** 2                                          # (n, K, K)

    # e = sum_l tr(C_kl S_l), S_l = u_c,l u_c,l^H or sum_i u_il u_il^H; as
    # tr(C S) = sum_nm C[n, m] S[m, n], C meets S transposed: conj(u)[n] u[m].
    Ct = C.reshape(K, L * N * N).T
    S_c = np.multiply(u_c.conj()[..., :, None], u_c[..., None, :],
                      out=_view(gram, n, L, N, N))
    err_c = (S_c.reshape(n, -1) @ Ct).real
    u_l = np.moveaxis(u_p, -3, -2)                                  # (n, L, K, N)
    u_l_conj = np.moveaxis(np.conjugate(u_p, out=_view(work, n, K, L, N)), -3, -2)
    S_p = np.matmul(u_l_conj.swapaxes(-1, -2), u_l, out=_view(gram, n, L, N, N))
    err_p = (S_p.reshape(n, -1) @ Ct).real
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

    stats and pilots are not read, as in build_cache: est carries both. The
    rates read only the estimates and est.C, so the blocks come from
    ChannelSampler.draw_estimates and their rates from instantaneous_sinrs.
    The stream is blocks first, so the chunking does not move the result: a
    chunk's (n, K, L, N) tensors take about 1 MiB (_ENTRY_BUDGET), and every
    chunk is written into one workspace that the call allocates once.
    """
    _check_count("n_blocks", n_blocks)
    stats = est.stats
    check_allocation_shape(alloc.rho.shape, alloc.eta.shape, stats.K, stats.L)
    mu_c, mu_p = normalization_coeffs(est)
    sampler = ChannelSampler(est)
    chunks = _chunks(n_blocks, stats.L * stats.N * max(stats.K, stats.N), _ENTRY_BUDGET)
    # The workspace, flat buffers that every chunk writes through prefix
    # views, each reused once its contents are dead: work holds the normals,
    # then G z[pilot_of], then conj(ghat) and conj(u_p) in turn; estimates
    # the gathered sources, then ghat; precoders u_p; gram S_c, then S_p.
    size = chunks[0].stop * stats.L * stats.N
    work = np.empty(size * max(stats.K, est.pilots.tau_p), complex)
    estimates = np.empty(size * stats.K, complex)
    precoders = np.empty(size * stats.K, complex)
    gram = np.empty(size * stats.N, complex)
    se_c, se_p = np.empty(n_blocks), np.empty((n_blocks, stats.K))
    for blk in chunks:
        ghat = sampler.draw_estimates(blk.stop - blk.start, rng, work, estimates)
        sinr_c, sinr_p = instantaneous_sinrs(ghat, est.C, mu_c, mu_p, alloc, cfg,
                                             precoders, work, gram)
        np.log2(1.0 + sinr_c.min(axis=-1), out=se_c[blk])
        np.log2(1.0 + sinr_p, out=se_p[blk])
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


def _check_count(name, n):
    """A block count is an integer (a numpy one included) of at least 2, the
    fewest that give a standard error."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"{name} must be at least 2")


class Estimate(NamedTuple):
    """Sample means and their standard errors, entry by entry."""
    mean: np.ndarray
    stderr: np.ndarray        # ddof=1; var(re) + var(im) for complex samples


def sample_moments(est: EstimationStatistics, samples, n_draws, rng) -> dict:
    """Average per-block samples of the joint draw over n_draws blocks.

    samples(g, ghat) maps a chunk's channels and estimates, each (n, K, L,
    N), to {name: (n, ...) array}; the result maps each name to the Estimate
    of its samples. Each entry's mean and variance come from sums of its
    deviations from the first block's sample: unshifted, the variance of an
    entry whose mean dwarfs its spread (a LoS-dominated norm) loses digits
    in proportion to mean^2 / var (the shifted-data form, Chan, Golub &
    LeVeque 1983).
    """
    _check_count("n_draws", n_draws)
    sampler = ChannelSampler(est)
    shifts, sums = None, None
    for blk in _chunks(n_draws, est.stats.hbar.size, _MOMENT_ENTRY_BUDGET):
        chunk = samples(*sampler.draw(blk.stop - blk.start, rng))
        if shifts is None:
            shifts = {name: x[0].copy() for name, x in chunk.items()}
            sums = {name: [0.0, 0.0] for name in chunk}
        for name, x in chunk.items():
            d = x - shifts[name]
            sums[name][0] += d.sum(axis=0)
            sums[name][1] += (d.real ** 2 + d.imag ** 2).sum(axis=0)
        del chunk, x, d            # a pass holds one chunk's samples at a time
    estimates = {}
    for name, (s1, s2) in sums.items():
        var = (s2 - np.abs(s1) ** 2 / n_draws) / (n_draws - 1)
        estimates[name] = Estimate(shifts[name] + s1 / n_draws, np.sqrt(var / n_draws))
    return estimates
