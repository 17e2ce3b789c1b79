"""Pilot assignment and MMSE channel estimation statistics.

Users sharing a pilot contaminate each other's estimates. With pilot power p
and pilot length tau_p, the estimate of link (k, l) is

    ghat_kl = hbar_kl + sqrt(p tau_p) R_kl Psi_kl (z_kl - zbar_kl),

where z_kl is the despread pilot observation (shared by all users on the same
pilot) and Psi_kl = (sum_{i in P_k} p tau_p R_il + sigma^2 I)^{-1}. The
estimation-error covariance is C_kl = R_kl - Q_kl with
Q_kl = p tau_p R_kl Psi_kl R_kl, and the cross-moment of two co-pilot
estimates is Qbar_kil = p tau_p R_il Psi_kl R_kl; it vanishes when k and i use
different pilots.

The closed form needs Qbar only through its traces tr Qbar_kil (K, K, L) and
its sum over all user pairs, sum_{k,i} Qbar_kil (L, N, N). Psi_kl is shared
by the users of pilot t, so both are computed per pilot group: the traces
over the group's co-pilot pairs only (every other entry is zero), and the
sum as p tau_p A_tl Psi_tl A_tl with A_tl = sum_{i in t} R_il.
EstimationStatistics stores those two reductions; copilot_cross_moment gives
single entries.
"""

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .geometry import LinkStatistics


class EstimationError(RuntimeError):
    """Raised when the pilot observation covariance is not invertible."""


@dataclass(frozen=True)
class PilotAssignment:
    pilot_of: np.ndarray  # (K,) pilot index of each user, in [0, tau_p)
    tau_p: int

    @property
    def copilot(self):
        """(K, K) boolean matrix; entry (k, i) is True iff i shares k's pilot."""
        return self.pilot_of[:, None] == self.pilot_of[None, :]


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
    Psi: np.ndarray       # (K, L, N, N) inverse pilot-observation covariances
    Q: np.ndarray         # (K, L, N, N) estimate covariances
    C: np.ndarray         # (K, L, N, N) error covariances, R - Q
    trQbar: np.ndarray    # (K, K, L) tr Qbar_kil; zero off pilot group, tr Q_kl on the diagonal
    Qbar_sum: np.ndarray  # (L, N, N) sum of Qbar_kil over all user pairs (k, i)
    ptau: float           # pilot energy p tau_p; 0 for perfect CSI


def estimation_statistics(stats: LinkStatistics, pilots: PilotAssignment,
                          cfg: SystemConfig) -> EstimationStatistics:
    """Second-order statistics of the MMSE channel estimates for all links."""
    K, L, N = stats.K, stats.L, stats.N
    ptau = cfg.p_pilot_mw * cfg.tau_p
    eye = np.eye(N)
    # One observation covariance per (pilot, AP); users on the same pilot share it.
    Psi = np.empty((K, L, N, N), dtype=complex)
    Q = np.empty((K, L, N, N), dtype=complex)
    trQbar = np.zeros((K, K, L), dtype=complex)
    Qbar_sum = np.zeros((L, N, N), dtype=complex)
    for t in np.unique(pilots.pilot_of):
        members = np.flatnonzero(pilots.pilot_of == t)
        R_t = stats.R[members]                                  # (m, L, N, N)
        A = R_t.sum(axis=0)                                     # (L, N, N)
        S = ptau * A + cfg.noise_mw * eye
        try:
            Psi_t = np.linalg.inv(S)
        except np.linalg.LinAlgError as exc:
            raise EstimationError(f"pilot {t}: observation covariance is singular") from exc
        Psi[members] = Psi_t[None]
        PsiR = Psi_t @ R_t                                      # (m, L, N, N)
        Q[members] = ptau * (R_t @ PsiR)
        # tr(R_il Psi_kl R_kl) = sum_ab R_il[a, b] (Psi_kl R_kl)[b, a], one
        # (m, N^2) @ (N^2, m) product per AP over the group's pairs only.
        m = len(members)
        PsiR_T = PsiR.swapaxes(-1, -2).transpose(1, 0, 2, 3).reshape(L, m, N * N)
        R_flat = R_t.transpose(1, 0, 2, 3).reshape(L, m, N * N)
        tr_t = ptau * (PsiR_T @ R_flat.swapaxes(-1, -2))        # (L, k, i)
        trQbar[members[:, None], members[None, :]] = tr_t.transpose(1, 2, 0)
        Qbar_sum += ptau * (A @ Psi_t @ A)
    C = stats.R - Q
    return EstimationStatistics(Psi=Psi, Q=Q, C=C, trQbar=trQbar, Qbar_sum=Qbar_sum,
                                ptau=ptau)


def perfect_csi_statistics(stats: LinkStatistics) -> EstimationStatistics:
    """Statistics of an oracle estimator that returns the true channel.

    Q = R and C = 0, and estimates of different users are uncorrelated, so
    Qbar_kil is R_kl for i = k and zero otherwise. Keeps the downstream code
    path identical.
    """
    K, L, N = stats.K, stats.L, stats.N
    trQbar = np.zeros((K, K, L), dtype=complex)
    trQbar[np.arange(K), np.arange(K)] = np.trace(stats.R, axis1=-2, axis2=-1)
    return EstimationStatistics(
        Psi=np.zeros((K, L, N, N), dtype=complex),
        Q=stats.R.copy(),
        C=np.zeros((K, L, N, N), dtype=complex),
        trQbar=trQbar,
        Qbar_sum=stats.R.sum(axis=0),
        ptau=0.0,
    )


def copilot_cross_moment(k, i, l, stats: LinkStatistics, est: EstimationStatistics,
                         pilots: PilotAssignment):
    """One entry Qbar_kil (N, N) of the co-pilot cross-moments: Q_kl for
    i = k, p tau_p R_il Psi_kl R_kl when k and i share a pilot, else zero."""
    if i == k:
        return est.Q[k, l]
    if pilots.pilot_of[k] != pilots.pilot_of[i]:
        return np.zeros_like(est.Q[k, l])
    return est.ptau * (stats.R[i, l] @ (est.Psi[k, l] @ stats.R[k, l]))

