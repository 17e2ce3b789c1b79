"""System configuration and unit conversions.

All powers are carried internally in mW (linear scale); dBm values appear only
at the configuration boundary.
"""

import math
from dataclasses import dataclass


def dbm_to_mw(dbm):
    return db_to_linear(dbm)


def db_to_linear(db):
    """Convert a dB ratio to linear scale. -inf maps to 0, and a ratio past
    the float range to inf."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of one cell-free downlink deployment."""

    L: int = 20                # access points
    K: int = 4                 # single-antenna user terminals
    N: int = 4                 # antennas per access point (uniform linear array)
    tau_c: int = 200           # channel uses per coherence block
    tau_p: int = 2             # pilot sequence length (tau_p <= tau_c)
    area_side: float = 500.0   # side of the square coverage area, meters
    d_H: float = 0.5           # antenna spacing in wavelengths (0 < d_H <= 0.5)
    N_c: int = 6               # scattering clusters per link
    asd_deg: float = 15.0      # angular standard deviation of cluster scattering, degrees
    rician_db: float = 5.0     # Rician factor, dB; -inf gives Rayleigh fading
    p_pilot_dbm: float = 20.0  # uplink pilot power
    p_dl_dbm: float = 23.0     # downlink power budget per access point
    noise_dbm: float = -96.0   # noise power over the signal bandwidth
    seed: int = 1
    shadowing: bool = False    # lognormal shadow fading on the large-scale gains
    balanced_pilots: bool = True

    def __post_init__(self):
        for name in ("area_side", "asd_deg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # A power that overflows or underflows fails here, not later as a NaN
        # rate; a pilot power of 0 mW would also read as perfect CSI.
        for name in ("p_pilot_dbm", "p_dl_dbm", "noise_dbm"):
            if not 0 < dbm_to_mw(getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must give a finite, positive power in mW")
        if not db_to_linear(self.rician_db) < math.inf:
            raise ValueError("rician_db must be -inf or give a finite linear factor")
        if self.asd_deg <= 0:
            raise ValueError("asd_deg must be positive")
        if self.L < 1:
            raise ValueError("L must be a positive integer")
        if self.K < 1:
            raise ValueError("K must be a positive integer")
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if self.tau_c < 1:
            raise ValueError("tau_c must be a positive integer")
        if not 1 <= self.tau_p <= self.tau_c:
            raise ValueError("tau_p must satisfy 1 <= tau_p <= tau_c")
        if self.area_side <= 0:
            raise ValueError("area_side must be positive")
        if not 0 < self.d_H <= 0.5:
            raise ValueError("d_H must lie in (0, 0.5]")
        if self.N_c < 1:
            raise ValueError("N_c must be a positive integer")

    @property
    def p_pilot_mw(self):
        return dbm_to_mw(self.p_pilot_dbm)

    @property
    def p_dl_mw(self):
        return dbm_to_mw(self.p_dl_dbm)

    @property
    def noise_mw(self):
        return dbm_to_mw(self.noise_dbm)

    @property
    def prelog(self):
        """Fraction of the coherence block left for downlink data."""
        return (self.tau_c - self.tau_p) / self.tau_c
