"""Closed-form spectral efficiency of the rate-splitting downlink.

The downlink superimposes one common message, precoded at AP l by the sum of
that AP's channel estimates, on K private messages precoded by the individual
estimates (maximum-ratio). Treating the statistical mean of the effective
channel as the only channel knowledge at each user yields a use-and-then-
forget style lower bound whose SINRs depend on the channel statistics alone.

All user/AP coupling enters through a small set of per-(k, i, l) scalars that
are cached once per network, stored in the layout the SINR assembly reads as
matrix operands: re-evaluating the bound for a batch of P power allocations
costs one batched GEMM over the users, one (P, K*L) @ (K*L, K) GEMM and two
(P, L) products. That cache is what the optimizers iterate on. Building it
costs one (K+1, 2N^2) @ (2N^2, K) GEMM per AP for every variance term, run
over blocks of APs whose temporaries take about 1 MiB each and are reused
from block to block, so a build holds little beyond the fields it returns.
The co-pilot traces enter p1 and the common normalizer per user pair that
shares a pilot, never as a dense (K, K, L) tensor.
"""

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .estimation import EstimationStatistics, PilotAssignment, copilot_cross_moment
from .geometry import LinkStatistics

_REAL_TOL = 1e-10
# Entries of the largest temporary of one chunk: of APs in build_cache (39 at
# K=40, N=4), of coherence blocks in achievable_sum_se (8 at K=20, L=100,
# N=4). 65,536 complex entries take 1 MiB. Small chunks pay only because each
# call reuses workspaces it allocates once: on 20 paper-scale drops (two
# 100-block achievable_sum_se calls each, one BLAS thread, 2-vCPU VM), one
# chunk a call took 5.7k-6.7k minor page faults a drop and 88.7 MB peak RSS;
# 1 MiB chunks with fresh temporaries 19.9k and 46.6 MB; with the workspace
# 3.1k and 46.5 MB.
_ENTRY_BUDGET = 65_536


class DegenerateStatisticsError(RuntimeError):
    """Raised when a normalization or SINR denominator is not positive."""


def _check_real(scale, resid, name):
    """Raise unless the imaginary residue resid of terms whose largest
    magnitude is scale is numerical roundoff."""
    if scale > 0 and resid > _REAL_TOL * scale:
        raise DegenerateStatisticsError(
            f"{name}: imaginary residue {resid:.3e} exceeds tolerance at scale {scale:.3e}")


def _ensure_real(x, name):
    """Drop an imaginary part that must vanish analytically; the residue is
    checked against numerical roundoff."""
    x = np.asarray(x)
    scale = np.max(np.abs(x)) if x.size else 0.0
    resid = np.max(np.abs(x.imag)) if np.iscomplexobj(x) else 0.0
    _check_real(scale, resid, name)
    return x.real if np.iscomplexobj(x) else x


def check_allocation_shape(rho_shape, eta_shape, K, L):
    """Raise ValueError unless rho ends in (L,) and eta in (K, L): numpy would
    otherwise broadcast an allocation of another size and score it silently."""
    if tuple(rho_shape[-1:]) != (L,) or tuple(eta_shape[-2:]) != (K, L):
        raise ValueError(f"allocation shapes rho {tuple(rho_shape)} and eta "
                         f"{tuple(eta_shape)} do not fit the statistics' "
                         f"(K, L) = ({K}, {L})")


@dataclass(frozen=True)
class PowerAllocation:
    """Per-AP power split rho (fraction on the common message) and per-link
    private power-control coefficients eta, both inside [0, 1]."""

    rho: np.ndarray  # (L,)
    eta: np.ndarray  # (K, L)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        if rho.ndim != 1 or eta.ndim != 2 or eta.shape[1] != rho.shape[0]:
            raise ValueError("rho must be (L,) and eta (K, L)")
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(eta))):
            raise ValueError("rho and eta must be finite")
        if np.any(rho < 0) or np.any(rho > 1):
            raise ValueError("rho entries must lie in [0, 1]")
        if np.any(eta < 0) or np.any(eta > 1):
            raise ValueError("eta entries must lie in [0, 1]")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "eta", eta)

    @classmethod
    def equal_split(cls, K, L, rho0):
        return cls(rho=np.full(L, float(rho0)), eta=np.ones((K, L)))

    @classmethod
    def no_rs(cls, K, L):
        return cls(rho=np.zeros(L), eta=np.ones((K, L)))

    def to_vector(self):
        """Flatten to [rho (L entries), eta (K*L entries, row-major)]."""
        return np.concatenate([self.rho, self.eta.ravel()])

    @classmethod
    def from_vector(cls, vec, K, L):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (L + K * L,):
            raise ValueError(f"expected vector of length {L + K * L}")
        return cls(rho=vec[:L].copy(), eta=vec[L:].reshape(K, L).copy())


def sum_se_vectors(cache: "SECache", x):
    """sum_se_batch of allocation vectors: the rows of x (P, L + K*L) are laid
    out as PowerAllocation.to_vector gives them. Returns (P,)."""
    K, L = cache.mu_p.shape
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != L + K * L:
        raise ValueError(f"allocation vectors must be (P, {L + K * L}), got {x.shape}")
    return sum_se_batch(cache, x[:, :L], x[:, L:].reshape(len(x), K, L))


@dataclass(frozen=True)
class SEReport:
    sinr_common: np.ndarray   # (K,) common-message SINR at each user
    sinr_private: np.ndarray  # (K,)
    se_common: float          # prelog * log2(1 + min_k sinr_common)
    se_private: np.ndarray    # (K,) prelog * log2(1 + sinr_private)
    sum_se: float
    prelog: float


# ---------------------------------------------------------------------------
# Per-tuple cross-moments of the common-precoder interference: the slow,
# readable forms `cfrs validate` checks the sampled Upsilon fields against.
# ---------------------------------------------------------------------------

def upsilon_moments(k, i, j, l, est: EstimationStatistics):
    """Cross-moments that govern the common-precoder interference at user k.

    Returns (u4, u5) with
      u4 = E{(ghat_kl^H ghat_il)^* (ghat_kl^H ghat_jl)} and
      u5 = E{ghat_il^H C_kl ghat_jl},
    so that u4 + u5 = E{(g_kl^H ghat_il)^* (g_kl^H ghat_jl)}. The pilot
    sharing pattern of (k, i, j) in est.pilots decides which coupling terms
    survive: the cross-moments of users on different pilots are zero.
    """
    hbar = est.stats.hbar
    hk = hbar[k, l]
    hi = hbar[i, l]
    hj = hbar[j, l]
    a_i = hk.conj() @ hi
    a_j = hk.conj() @ hj
    Qbar_ij = copilot_cross_moment(i, j, l, est)
    tq_i = np.trace(copilot_cross_moment(k, i, l, est))
    tq_j = np.trace(copilot_cross_moment(k, j, l, est))
    u4 = (np.conj(a_i) * a_j + hi.conj() @ est.Q[k, l] @ hj
          + hk.conj() @ Qbar_ij @ hk + np.trace(Qbar_ij @ est.Q[k, l])
          + np.conj(tq_i) * a_j + tq_j * np.conj(a_i) + np.conj(tq_i) * tq_j)
    u5 = hi.conj() @ est.C[k, l] @ hj + np.trace(Qbar_ij @ est.C[k, l])
    return complex(u4), complex(u5)


def normalization_coeffs(est: EstimationStatistics):
    """Average-power normalizers of the two precoders.

    mu_c[l] = 1 / E{|| sum_i ghat_il ||^2} for the common precoder and
    mu_p[i, l] = 1 / E{|| ghat_il ||^2} for the private ones.
    """
    hbar = est.stats.hbar
    s = hbar.sum(axis=0)                                     # (L, N)
    common = np.einsum("ln,ln->l", s.conj(), s)              # ||sum_i hbar||^2
    # Summed over the co-pilot pairs in row-major (k, i) order, as numpy sums
    # a dense (K, K, L) tensor over both user axes when L >= 2 (at L = 1 it
    # sums pairwise, which can differ in the last bit).
    common = common + np.add.reduce(est.copilot_traces, axis=0)
    common = _ensure_real(common, "common normalizer")
    trQ = np.trace(est.Q, axis1=-2, axis2=-1)
    private = np.einsum("kln,kln->kl", hbar.conj(), hbar) + trQ
    private = _ensure_real(private, "private normalizer")
    if np.any(common <= 0) or np.any(private <= 0):
        raise DegenerateStatisticsError("precoder normalizer is not positive")
    return 1.0 / common, 1.0 / private


# ---------------------------------------------------------------------------
# Cached per-link scalars and the SINR assembly.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SECache:
    """Everything the closed-form bound needs, reduced to per-(k, i, l)
    scalars so that new allocations are cheap to score.

    build_cache stores p1 and p2 contiguous as (i, L, k) and c1 and c2 as
    (L, K), the operand layouts of _sinr_terms; the fields below are their
    transposed views. A cache in any other layout scores the same, at the
    cost of one copy per call."""

    c1: np.ndarray       # (K, L) complex: coherent common gain at user k via AP l
    c2: np.ndarray       # (K, L) real: common-precoder variance seen by user k
    p1: np.ndarray       # (K, K, L) complex: coherent private gain of stream i at k
    p2: np.ndarray       # (K, K, L) real: private variance terms
    mu_c: np.ndarray     # (L,)
    mu_p: np.ndarray     # (K, L)
    p_dl: float
    noise: float
    prelog: float


def _chunks(n, per_item, budget):
    """Slices covering range(n), each of as many items of per_item entries
    as fit budget entries, and at least one."""
    step = max(1, budget // per_item)
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def build_cache(stats: LinkStatistics, est: EstimationStatistics,
                pilots: PilotAssignment, cfg: SystemConfig) -> SECache:
    """The SECache of a drop. stats and pilots are not read: est carries
    both, so a cache cannot mix two drops or environments. They stay for the
    positional calls in perfbench/workloads.py and the README quick start
    until ROADMAP items 1 and 5 change the benchmark."""
    stats = est.stats
    K, L, N = stats.K, stats.L, stats.N
    NN = N * N
    hbar = stats.hbar
    hbar_c = hbar.conj()
    s = hbar.sum(axis=0)                                           # (L, N)
    pair_k, pair_i = est.copilot_pairs.T
    # Stored contiguous as (i, L, k) and (L, k); the fields are the (k, i, L)
    # and (k, L) views. Every block writes its APs' entries in place.
    p1 = np.empty((K, L, K), dtype=complex)
    p2 = np.empty((K, L, K))
    c2 = np.empty((L, K))

    # Every variance term is an inner product <X, Y> = sum_nm X[n, m] Y[n, m]
    # over the flattened N^2 axis, of one (N, N) matrix per row user and one
    # per column user. With O_kl = conj(hbar_kl) hbar_kl^T, so that
    # hbar^H X hbar = <O, X>:
    #   p2[k, i, l] = tr(Q_il R_kl) + hbar_kl^H Q_il hbar_kl + hbar_il^H R_kl hbar_il
    #               = <Q_il, R_kl^T + O_kl> + <O_il, R_kl>,
    #   c2[k, l]    = <M_l, R_kl^T + O_kl> + <S_l, R_kl>,
    # where M_l = sum_ij Qbar_ijl is the estimates' pair sum seen by the common
    # precoder and S_l the outer product of s_l = sum_i hbar_il. The K rows i
    # and one common row meet the K columns k in a single
    # (K+1, 2N^2) @ (2N^2, K) product per AP, in workspaces sized for one
    # block of APs and reused by every block. A block holds as many APs as
    # fit their rows or their (K+1, K) product, the larger, in _ENTRY_BUDGET.
    blocks = _chunks(L, (K + 1) * max(2 * NN, K), _ENTRY_BUDGET)
    nb = blocks[0].stop
    rows = np.empty((nb, K + 1, 2, N, N), dtype=complex)
    cols = np.empty((nb, K, 2, N, N), dtype=complex)
    var = np.empty((nb, K + 1, K), dtype=complex)
    # Running max |x| and max |imag x| of the private and the common terms,
    # for one network-wide _check_real each; np.maximum keeps a NaN.
    bounds = np.zeros((2, 2))
    for blk in blocks:
        n = blk.stop - blk.start
        # hbar_kl^H hbar_il plus the co-pilot traces. Off the pilot groups
        # p1 is this line-of-sight product bit for bit, so it stays an
        # einsum (one rounding order for every caller).
        np.einsum("kln,iln->ilk", hbar_c[:, blk], hbar[:, blk], out=p1[:, blk])
        p1[pair_i, blk, pair_k] += est.copilot_traces[:, blk]

        r, c = rows[:n], cols[:n]
        O = r[:, :K, 1]                                            # (n, K, N, N)
        np.multiply(hbar_c[:, blk, :, None], hbar[:, blk, None, :], out=O.swapaxes(0, 1))
        r[:, :K, 0] = est.Q[:, blk].transpose(1, 0, 2, 3)
        r[:, K, 0] = est.Qbar_sum[blk]
        r[:, K, 1] = s[blk].conj()[:, :, None] * s[blk][:, None, :]
        R = stats.R[:, blk].transpose(1, 0, 2, 3)
        np.add(R.swapaxes(-1, -2), O, out=c[:, :, 0])
        c[:, :, 1] = R
        v = np.matmul(r.reshape(n, K + 1, 2 * NN),
                      c.reshape(n, K, 2 * NN).swapaxes(-1, -2), out=var[:n])
        for row, part in enumerate((v[:, :K], v[:, K])):
            np.maximum(bounds[row], (np.max(np.abs(part)), np.max(np.abs(part.imag))),
                       out=bounds[row])
        p2[:, blk] = v[:, :K].real.transpose(1, 0, 2)
        c2[blk] = v[:, K].real
    _check_real(*bounds[0], "private variance terms")
    _check_real(*bounds[1], "common variance terms")

    mu_c, mu_p = normalization_coeffs(est)
    return SECache(c1=p1.sum(axis=0).T, c2=c2.T, p1=p1.transpose(2, 0, 1),
                   p2=p2.transpose(2, 0, 1), mu_c=mu_c, mu_p=mu_p,
                   p_dl=cfg.p_dl_mw, noise=cfg.noise_mw, prelog=cfg.prelog)


def _sinr_terms(cache: SECache, rho, eta):
    """Batched SINR assembly. rho is (P, L), eta is (P, K, L); returns
    (sinr_common, sinr_private), each (P, K).

    Each coherent gain |sum_l x_pl g_kl|^2 is one real product against the
    complex operand viewed as (re, im) float pairs:
      Tc1[p, k]    = |sqrt(rho mu_c)[p] @ c1 (L, K)|^2
      Tp1[i, p, k] = |sqrt(w)[i, p] @ p1[i] (L, K)|^2, batched over streams i,
    with w[p, i, l] = (1 - rho) eta mu_p. The variances enter only summed,
    so Tc2 = (rho mu_c) @ c2 (L, K) and sum_i Tp2 = w (P, K*L) @ p2 (K*L, K).
    """
    c1 = np.ascontiguousarray(cache.c1.T)                          # (L, K)
    c2 = np.ascontiguousarray(cache.c2.T)
    p1 = np.ascontiguousarray(cache.p1.transpose(1, 2, 0))         # (i, L, k)
    p2 = np.ascontiguousarray(cache.p2.transpose(1, 2, 0))
    K, L, _ = p1.shape
    r = rho * cache.mu_c                                           # (P, L)
    y = (np.sqrt(r) @ c1.view(float)).view(complex)                # (P, K)
    Tc1 = np.square(y.real) + np.square(y.imag)
    Tc2 = r @ c2

    w = (1.0 - rho)[:, None, :] * eta * cache.mu_p                 # (P, K, L)
    z = (np.sqrt(w.transpose(1, 0, 2)) @ p1.view(float)).view(complex)
    Tp1 = np.square(z.real) + np.square(z.imag)                    # (i, P, k)

    # Every pair (k, i) adds its coherent term: off the pilot groups p1 is the
    # line-of-sight gain alone, because only co-pilot pairs carry a trace.
    inter = w.reshape(len(w), K * L) @ p2.reshape(K * L, K) + Tp1.sum(axis=0)
    p_over_k = cache.p_dl / K
    den_c = cache.p_dl * Tc2 + p_over_k * inter + cache.noise
    if np.any(den_c <= 0):
        raise DegenerateStatisticsError("common SINR denominator is not positive")
    sinr_c = cache.p_dl * Tc1 / den_c

    own = np.diagonal(Tp1, axis1=0, axis2=2)                       # (P, K): i = k
    den_p = p_over_k * (inter - own) + cache.noise
    if np.any(den_p <= 0):
        raise DegenerateStatisticsError("private SINR denominator is not positive")
    sinr_p = p_over_k * own / den_p
    return sinr_c, sinr_p


def evaluate_cache(cache: SECache, alloc: PowerAllocation) -> SEReport:
    check_allocation_shape(alloc.rho.shape, alloc.eta.shape, *cache.mu_p.shape)
    sinr_c, sinr_p = _sinr_terms(cache, alloc.rho[None], alloc.eta[None])
    sinr_c, sinr_p = sinr_c[0], sinr_p[0]
    se_common = cache.prelog * np.log2(1.0 + sinr_c.min())
    se_private = cache.prelog * np.log2(1.0 + sinr_p)
    return SEReport(sinr_common=sinr_c, sinr_private=sinr_p,
                    se_common=float(se_common), se_private=se_private,
                    sum_se=float(se_common + se_private.sum()), prelog=cache.prelog)


def sum_se_batch(cache: SECache, rho, eta):
    """Sum spectral efficiency for a batch of allocations.

    rho has shape (P, L) and eta (P, K, L); returns (P,). Used as the
    vectorized objective by the optimizers.
    """
    rho, eta = np.asarray(rho, dtype=float), np.asarray(eta, dtype=float)
    check_allocation_shape(rho.shape, eta.shape, *cache.mu_p.shape)
    sinr_c, sinr_p = _sinr_terms(cache, rho, eta)
    se = np.log2(1.0 + sinr_c.min(axis=1)) + np.log2(1.0 + sinr_p).sum(axis=1)
    return cache.prelog * se
