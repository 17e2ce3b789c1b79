"""Network geometry, large-scale fading, and correlated Rician link statistics.

Each access point carries a uniform linear array of N antennas. The channel of
a (user k, access point l) link is

    g_kl ~ CN(hbar_kl, R_kl),

where hbar_kl is the deterministic line-of-sight component steered along the
nominal angle of the link, and R_kl is the spatial correlation of the
non-line-of-sight part, built from N_c scattering clusters with Gaussian
angular spread around nominal angles drawn once per link.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, db_to_linear

# Three-slope distance law in dB: -140.7 - 35 log10(d_km) beyond 50 m, a
# 20 dB/decade segment between 10 m and 50 m, flat inside 10 m. The two inner
# constants follow from continuity at the breakpoints.
_D_FLOOR_M = 10.0
_D_KNEE_M = 50.0
_FAR_CONST_DB = -140.7
_MID_CONST_DB = _FAR_CONST_DB - 15.0 * math.log10(_D_KNEE_M / 1000.0)
_FLOOR_DB = _MID_CONST_DB - 20.0 * math.log10(_D_FLOOR_M / 1000.0)

_SHADOW_SIGMA_DB = 8.0
_CLUSTER_HALF_WIDTH_RAD = math.radians(40.0)


@dataclass(frozen=True)
class Placement:
    """Uniformly drawn positions over the square area, in meters."""

    ap_positions: np.ndarray  # (L, 2)
    ue_positions: np.ndarray  # (K, 2)


@dataclass(frozen=True)
class Geometry:
    """One network drop: positions plus every per-link random draw that is
    held fixed while propagation parameters (Rician factor, angular spread)
    vary."""

    placement: Placement
    distances: np.ndarray       # (K, L) meters
    phi: np.ndarray             # (K, L) nominal angle of each link, radians
    cluster_angles: np.ndarray  # (K, L, N_c) nominal cluster angles, radians
    zeta: np.ndarray            # (K, L) large-scale channel gain, linear


@dataclass(frozen=True)
class LinkStatistics:
    """First- and second-order channel statistics for all K x L links."""

    hbar: np.ndarray      # (K, L, N) complex line-of-sight means
    R: np.ndarray         # (K, L, N, N) complex PSD correlation matrices
    beta_los: np.ndarray  # (K, L) line-of-sight gains
    beta_nlos: np.ndarray  # (K, L) scattered gains
    zeta: np.ndarray      # (K, L) total large-scale gains
    phi: np.ndarray       # (K, L) nominal angles

    @property
    def K(self):
        return self.hbar.shape[0]

    @property
    def L(self):
        return self.hbar.shape[1]

    @property
    def N(self):
        return self.hbar.shape[2]


def place_network(cfg: SystemConfig, rng) -> Placement:
    """Drop L access points and K users uniformly over the square area."""
    ap = rng.uniform(0.0, cfg.area_side, size=(cfg.L, 2))
    ue = rng.uniform(0.0, cfg.area_side, size=(cfg.K, 2))
    return Placement(ap_positions=ap, ue_positions=ue)


def path_loss(distance_m):
    """Large-scale gain (linear) of the three-slope distance law.

    Accepts a scalar or array of distances in meters. The gain is continuous
    at both breakpoints and non-increasing in distance.
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distances must be positive")
    d_km = d / 1000.0
    pl_db = np.where(
        d > _D_KNEE_M,
        _FAR_CONST_DB - 35.0 * np.log10(d_km),
        np.where(d > _D_FLOOR_M, _MID_CONST_DB - 20.0 * np.log10(d_km), _FLOOR_DB),
    )
    out = 10.0 ** (pl_db / 10.0)
    if np.isscalar(distance_m):
        return float(out)
    return out


def rician_split(zeta, kappa):
    """Split a large-scale gain into line-of-sight and scattered parts.

    Returns (beta_los, beta_nlos) with
    beta_los = sqrt(kappa / (kappa + 1)) * zeta and
    beta_nlos = sqrt(1 / (kappa + 1)) * zeta. kappa = 0 gives pure Rayleigh.
    """
    zeta = np.asarray(zeta, dtype=float)
    if np.any(zeta < 0):
        raise ValueError("zeta must be nonnegative")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    beta_los = np.sqrt(kappa / (kappa + 1.0)) * zeta
    beta_nlos = np.sqrt(1.0 / (kappa + 1.0)) * zeta
    return beta_los, beta_nlos


def correlation_matrix_from_angles(beta_nlos, angles, asd_rad, N):
    """Spatial correlation matrices of the scattered component.

    angles has shape (..., N_c) and beta_nlos shape (...); the result has
    shape (..., N, N), one matrix per leading index. Entry (s, m) averages
    exp(j pi (s-m) sin(phi_t)) over the clusters, each damped by a Gaussian
    angular spread of std asd_rad around its nominal angle. Each matrix is
    projected onto the PSD cone (eigenvalue clipping) and rescaled so that
    trace(R) = N * beta_nlos holds exactly; beta_nlos = 0 gives the zero
    matrix.
    """
    angles = np.asarray(angles, dtype=float)
    beta_nlos = np.asarray(beta_nlos, dtype=float)
    # Entries depend on s - m only (Toeplitz), so sum each of the 2N - 1
    # distinct offsets once and index them into place.
    offsets = np.arange(1 - N, N)[:, None]                     # (2N-1, 1) integer s - m
    sin = np.sin(angles)[..., None, :]                         # (..., 1, N_c)
    cos = np.cos(angles)[..., None, :]
    arg = np.pi * offsets * sin                                # (..., 2N-1, N_c)
    damp = 0.5 * (asd_rad ** 2) * (np.pi * offsets * cos) ** 2
    per_offset = np.sum(np.exp(1j * arg - damp), axis=-1)      # (..., 2N-1)
    diff = np.arange(N)[:, None] - np.arange(N)[None, :]
    R = (beta_nlos / angles.shape[-1])[..., None, None] * per_offset[..., diff + N - 1]
    R = 0.5 * (R + np.swapaxes(R.conj(), -1, -2))
    w, V = np.linalg.eigh(R)
    w = np.clip(w, 0.0, None)
    total = w.sum(axis=-1)
    zero = beta_nlos == 0.0
    if np.any((total <= 0.0) & ~zero):
        raise ValueError("correlation matrix collapsed to zero")
    w *= (N * beta_nlos / np.where(zero, 1.0, total))[..., None]
    R = (V * w[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)
    R[zero] = 0.0
    return R


def draw_geometry(cfg: SystemConfig, rng) -> Geometry:
    """Drop a network and fix every per-link geometric random draw."""
    placement = place_network(cfg, rng)
    delta = placement.ue_positions[:, None, :] - placement.ap_positions[None, :, :]
    distances = np.linalg.norm(delta, axis=-1)
    phi = np.arctan2(delta[..., 1], delta[..., 0])
    angles = rng.uniform(
        phi[..., None] - _CLUSTER_HALF_WIDTH_RAD,
        phi[..., None] + _CLUSTER_HALF_WIDTH_RAD,
        size=(cfg.K, cfg.L, cfg.N_c),
    )
    zeta = path_loss(distances)
    if cfg.shadowing:
        zeta = zeta * 10.0 ** (_SHADOW_SIGMA_DB * rng.standard_normal(zeta.shape) / 10.0)
    return Geometry(placement=placement, distances=distances, phi=phi,
                    cluster_angles=angles, zeta=zeta)


def link_statistics(cfg: SystemConfig, geometry: Geometry,
                    rician_db=None, asd_deg=None) -> LinkStatistics:
    """Build line-of-sight means and correlation matrices for a geometry.

    rician_db and asd_deg override the config values, which lets one geometry
    be re-evaluated under different propagation environments.
    """
    kappa = db_to_linear(cfg.rician_db if rician_db is None else rician_db)
    asd = math.radians(cfg.asd_deg if asd_deg is None else asd_deg)
    beta_los, beta_nlos = rician_split(geometry.zeta, kappa)
    n = np.arange(cfg.N)
    hbar = np.sqrt(beta_los)[..., None] * np.exp(
        1j * 2.0 * np.pi * cfg.d_H * n * np.sin(geometry.phi)[..., None])
    R = correlation_matrix_from_angles(beta_nlos, geometry.cluster_angles, asd, cfg.N)
    return LinkStatistics(hbar=hbar, R=R, beta_los=beta_los, beta_nlos=beta_nlos,
                          zeta=geometry.zeta, phi=geometry.phi)


def hermitian_sqrt(R):
    """Batched Hermitian square root via eigendecomposition."""
    w, V = np.linalg.eigh(R)
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)

