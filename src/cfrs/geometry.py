"""Network geometry, large-scale fading, and correlated Rician link statistics.

Each access point carries a uniform linear array of N antennas. The channel of
a (user k, access point l) link is

    g_kl ~ CN(hbar_kl, R_kl),

where hbar_kl is the deterministic line-of-sight component steered along the
nominal angle of the link, and R_kl is the spatial correlation of the
non-line-of-sight part, built from N_c scattering clusters with Gaussian
angular spread around nominal angles drawn once per link. R_kl is formed in
closed form: each cluster adds a steering-phased Gaussian-kernel Toeplitz
matrix, which is PSD, so the sum is PSD by construction and no
eigendecomposition is needed; its diagonal is beta_nlos exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, check_propagation, db_to_linear

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
    shape (..., N, N), one matrix per leading index. Entry (s, m) is
    beta_nlos times the cluster average of

        exp(-asd_rad^2 (pi (s-m) cos(phi_c))^2 / 2) exp(j pi (s-m) sin(phi_c)),

    the Gaussian local-scattering approximation of a spread of std asd_rad
    around each nominal angle phi_c. Each cluster's term is D_c T_c D_c^H
    with D_c the diagonal steering phases and T_c a Gaussian-kernel matrix
    in s - m, which is PSD; so every matrix is PSD by construction, and its
    diagonal is exactly beta_nlos, so trace(R) = N * beta_nlos.
    beta_nlos = 0 gives the zero matrix.
    """
    angles = np.asarray(angles, dtype=float)
    beta_nlos = np.asarray(beta_nlos, dtype=float)
    if not (np.all(np.isfinite(angles)) and np.all(np.isfinite(beta_nlos))):
        raise ValueError("cluster angles and beta_nlos must be finite")
    if not (math.isfinite(asd_rad) and asd_rad >= 0):
        raise ValueError("the angular spread must be finite and nonnegative")
    if np.any(beta_nlos < 0):
        raise ValueError("correlation matrix collapsed: beta_nlos must be nonnegative")
    # Entries depend on s - m only (Toeplitz). Average each positive offset
    # d = 1..N-1 over the clusters; offset 0 is 1 and the negative offsets
    # are the conjugates. The phases exp(j pi d sin(phi_c)) are powers of
    # the d = 1 phase. Clusters go first, so that each average adds whole
    # arrays in the same order for any batch shape.
    n_c = angles.shape[-1]
    ang = np.moveaxis(angles, -1, 0)                            # (N_c, ...)
    arg = np.pi * np.sin(ang)
    step = np.cos(arg) + 1j * np.sin(arg)
    spread = -0.5 * np.square(asd_rad * np.pi * np.cos(ang))
    offset = np.empty(beta_nlos.shape + (2 * N - 1,), dtype=complex)
    offset[..., N - 1] = beta_nlos
    phase = np.ones_like(step)
    for d in range(1, N):
        phase = phase * step
        offset[..., N - 1 + d] = beta_nlos * (sum(np.exp(d * d * spread) * phase) / n_c)
    offset[..., :N - 1] = offset[..., :N - 1:-1].conj()
    diff = np.arange(N)[:, None] - np.arange(N)[None, :]
    return np.take(offset, diff + N - 1, axis=-1)


def draw_geometry(cfg: SystemConfig, rng) -> Geometry:
    """Drop a network and fix every per-link geometric random draw."""
    placement = place_network(cfg, rng)
    delta = placement.ue_positions[:, None, :] - placement.ap_positions[None, :, :]
    phi = np.arctan2(delta[..., 1], delta[..., 0])
    angles = rng.uniform(
        phi[..., None] - _CLUSTER_HALF_WIDTH_RAD,
        phi[..., None] + _CLUSTER_HALF_WIDTH_RAD,
        size=(cfg.K, cfg.L, cfg.N_c),
    )
    zeta = path_loss(np.linalg.norm(delta, axis=-1))
    if cfg.shadowing:
        zeta = zeta * 10.0 ** (_SHADOW_SIGMA_DB * rng.standard_normal(zeta.shape) / 10.0)
    return Geometry(placement=placement, phi=phi, cluster_angles=angles, zeta=zeta)


def link_statistics(cfg: SystemConfig, geometry: Geometry,
                    rician_db=None, asd_deg=None) -> LinkStatistics:
    """Build line-of-sight means and correlation matrices for a geometry.

    rician_db and asd_deg override the config values, which lets one geometry
    be re-evaluated under different propagation environments; they must pass
    the checks SystemConfig makes.
    """
    rician_db = cfg.rician_db if rician_db is None else rician_db
    asd_deg = cfg.asd_deg if asd_deg is None else asd_deg
    check_propagation(rician_db, asd_deg)
    kappa = db_to_linear(rician_db)
    asd = math.radians(asd_deg)
    beta_los, beta_nlos = rician_split(geometry.zeta, kappa)
    n = np.arange(cfg.N)
    hbar = np.sqrt(beta_los)[..., None] * np.exp(
        1j * 2.0 * np.pi * cfg.d_H * n * np.sin(geometry.phi)[..., None])
    R = correlation_matrix_from_angles(beta_nlos, geometry.cluster_angles, asd, cfg.N)
    return LinkStatistics(hbar=hbar, R=R, beta_los=beta_los, beta_nlos=beta_nlos,
                          zeta=geometry.zeta)


def hermitian_sqrt(R):
    """Batched Hermitian square root via eigendecomposition."""
    w, V = np.linalg.eigh(R)
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)

