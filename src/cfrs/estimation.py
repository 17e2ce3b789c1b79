"""Pilot assignment and MMSE channel estimation statistics, in square-root form.

Users sharing a pilot contaminate each other's estimates. With pilot power p
and pilot length tau_p, the despread observation y_tl of pilot t at AP l has
covariance S_tl = p tau_p sum_{i in t} R_il + sigma^2 I, and the MMSE
estimate of link (k, l) is hbar_kl + sqrt(p tau_p) R_kl S_tl^-1 y_tl with
t = t(k) (Björnson, Hoydis & Sanguinetti, Massive MIMO Networks, 2017, §3).
It is stated once, in square-root (whitened) form (Kailath, Sayed & Hassibi,
Linear Estimation, 2000): with one Cholesky factor S_tl = L_tl L_tl^H per
(pilot, AP), W_tl = L_tl^-H and G_kl = sqrt(p tau_p) R_kl W_{t(k), l}, the
whitened observation z_tl = W_tl^H y_tl is CN(0, I) and

    ghat_kl = hbar_kl + G_kl z_{t(k), l}.

Every statistic is a product of G: the estimate covariance Q_kl = G_kl G_kl^H,
the error covariance C_kl = R_kl - Q_kl, and the cross-moment of two co-pilot
estimates Qbar_kil = G_il G_kl^H, zero when k and i use different pilots.

The closed form needs Qbar only through its traces tr Qbar_kil and its sum
over all user pairs, sum_{k,i} Qbar_kil (L, N, N). Both are computed per
pilot group: the traces as one (m, N^2) @ (N^2, m) GEMM per AP over the
group's m users, and the sum as B_tl B_tl^H with B_tl = sum_{i in t} G_il.
A trace is zero unless k and i share a pilot, so only the co-pilot pairs'
traces are stored, (P, L) for P = sum_t m_t^2 pairs (160 of 1,600 at K=40,
tau_p=10), with the pairs themselves in row-major (k, i) order, the order in
which numpy sums a dense (K, K, L) tensor over both user axes when L >= 2.
EstimationStatistics stores those reductions; copilot_cross_moment gives
single entries. It also records what it was built from, the assignment, the
noise power and the link statistics (hbar, R): a drop's statistics travel as
one value, and nothing downstream reads them from anywhere else.
"""

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .geometry import LinkStatistics, hermitian_sqrt


class EstimationError(RuntimeError):
    """Raised when a pilot observation covariance is not positive definite."""


@dataclass(frozen=True)
class PilotAssignment:
    pilot_of: np.ndarray  # (K,) pilot index of each user, in [0, tau_p); a read-only copy
    tau_p: int

    def __post_init__(self):
        if not isinstance(self.tau_p, (int, np.integer)) or self.tau_p < 1:
            raise ValueError(f"tau_p must be a positive integer, got {self.tau_p!r}")
        pilot_of = np.array(self.pilot_of)
        if pilot_of.ndim != 1 or not np.issubdtype(pilot_of.dtype, np.integer):
            raise ValueError("pilot_of must be a 1-D array of integers")
        if np.any(pilot_of < 0) or np.any(pilot_of >= self.tau_p):
            raise ValueError(f"pilot_of entries must lie in [0, tau_p) = [0, {self.tau_p})")
        pilot_of.flags.writeable = False
        object.__setattr__(self, "pilot_of", pilot_of)


def assign_pilots(K, tau_p, rng, balanced=True) -> PilotAssignment:
    """Assign each of K users one of tau_p pilots.

    Balanced assignment spreads users as evenly as possible over the pilots
    (random grouping); unbalanced draws pilots independently at random.
    """
    if tau_p < 1:
        raise ValueError("tau_p must be positive")
    if balanced:
        order = rng.permutation(K)
        pilot_of = np.empty(K, dtype=int)
        pilot_of[order] = np.arange(K) % tau_p
    else:
        pilot_of = rng.integers(0, tau_p, size=K)
    return PilotAssignment(pilot_of=pilot_of, tau_p=tau_p)


@dataclass(frozen=True)
class EstimationStatistics:
    G: np.ndarray         # (K, L, N, N) per-link factors: ghat_kl = hbar_kl + G_kl z_{t(k), l}
    W: np.ndarray         # (tau_p, L, N, N) whiteners L_tl^-H; no pilots for perfect CSI
    Q: np.ndarray         # (K, L, N, N) estimate covariances, G G^H
    C: np.ndarray         # (K, L, N, N) error covariances, R - Q
    copilot_pairs: np.ndarray   # (P, 2) user pairs (k, i) on one pilot, row-major; (k, k) among them
    copilot_traces: np.ndarray  # (P, L) tr Qbar_kil of those pairs; tr Q_kl where i = k
    Qbar_sum: np.ndarray  # (L, N, N) sum of Qbar_kil over all user pairs (k, i)
    ptau: float           # pilot energy p tau_p; 0 for perfect CSI
    noise_mw: float       # noise power of the pilot observation; 0 for perfect CSI
    pilots: PilotAssignment  # the pilot groups of G; one pilot per user for perfect CSI
    stats: LinkStatistics    # the link statistics (hbar, R) the estimates are built on


def estimation_statistics(stats: LinkStatistics, pilots: PilotAssignment,
                          cfg: SystemConfig) -> EstimationStatistics:
    """Second-order statistics of the MMSE channel estimates for all links.
    Raises EstimationError if a pilot observation covariance has no Cholesky
    factor."""
    K, L, N = stats.K, stats.L, stats.N
    if pilots.pilot_of.shape != (K,):
        raise ValueError(f"pilot_of has {len(pilots.pilot_of)} entries for K = {K} users")
    ptau = cfg.p_pilot_mw * cfg.tau_p
    W = np.empty((pilots.tau_p, L, N, N), dtype=complex)
    G = np.empty((K, L, N, N), dtype=complex)
    pair_k, pair_i = np.nonzero(pilots.pilot_of[:, None] == pilots.pilot_of[None, :])
    traces = np.empty((len(pair_k), L), dtype=complex)
    Qbar_sum = np.zeros((L, N, N), dtype=complex)
    for t in range(pilots.tau_p):
        members = np.flatnonzero(pilots.pilot_of == t)
        R_t = stats.R[members]                                  # (m, L, N, N)
        S = ptau * R_t.sum(axis=0) + cfg.noise_mw * np.eye(N)
        try:
            chol = np.linalg.cholesky(S)
        except np.linalg.LinAlgError as exc:
            raise EstimationError(f"pilot {t}: observation covariance is not "
                                  "positive definite") from exc
        W[t] = np.linalg.inv(chol).conj().swapaxes(-1, -2)
        G_t = np.sqrt(ptau) * (R_t @ W[t])                      # (m, L, N, N)
        G[members] = G_t
        # tr(G_il G_kl^H) = sum_ab conj(G_kl[a, b]) G_il[a, b], one
        # (m, N^2) @ (N^2, m) product per AP over the group's pairs only.
        # The members ascend, so the group's pairs in row-major (k, i) order
        # are the product's (k, i) entries in its own row-major order.
        m = len(members)
        G_flat = G_t.transpose(1, 0, 2, 3).reshape(L, m, N * N)
        tr_t = G_flat.conj() @ G_flat.swapaxes(-1, -2)          # (L, k, i)
        traces[pilots.pilot_of[pair_k] == t] = tr_t.reshape(L, m * m).T
        B = G_t.sum(axis=0)                                     # (L, N, N)
        Qbar_sum += B @ B.conj().swapaxes(-1, -2)
    Q = G @ G.conj().swapaxes(-1, -2)
    return EstimationStatistics(G=G, W=W, Q=Q, C=stats.R - Q,
                                copilot_pairs=np.stack([pair_k, pair_i], axis=1),
                                copilot_traces=traces, Qbar_sum=Qbar_sum, ptau=ptau,
                                noise_mw=cfg.noise_mw, pilots=pilots, stats=stats)


def perfect_csi_statistics(stats: LinkStatistics) -> EstimationStatistics:
    """Statistics of an oracle estimator that returns the true channel.

    Q = R and C = 0, and estimates of different users are uncorrelated, so
    Qbar_kil is R_kl for i = k and zero otherwise: every user is a pilot
    group of one, pilot_of = arange(K), whose one pair (k, k) has the trace
    tr R_kl. Each user is its own source, G = R^1/2, and there is no pilot
    energy, noise or whitener. Keeps the downstream code path identical.
    """
    K, L, N = stats.K, stats.L, stats.N
    users = np.arange(K)
    return EstimationStatistics(
        G=hermitian_sqrt(stats.R),
        W=np.zeros((0, L, N, N), dtype=complex),
        Q=stats.R.copy(),
        C=np.zeros((K, L, N, N), dtype=complex),
        copilot_pairs=np.stack([users, users], axis=1),
        copilot_traces=np.trace(stats.R, axis1=-2, axis2=-1),
        Qbar_sum=stats.R.sum(axis=0),
        ptau=0.0,
        noise_mw=0.0,
        pilots=PilotAssignment(pilot_of=users, tau_p=K),
        stats=stats,
    )


def copilot_cross_moment(k, i, l, est: EstimationStatistics):
    """One entry Qbar_kil (N, N) of the co-pilot cross-moments: Q_kl for
    i = k, G_il G_kl^H when k and i share a pilot of est.pilots, else zero."""
    if i == k:
        return est.Q[k, l]
    if est.pilots.pilot_of[k] != est.pilots.pilot_of[i]:
        return np.zeros_like(est.Q[k, l])
    return est.G[i, l] @ est.G[k, l].conj().T
