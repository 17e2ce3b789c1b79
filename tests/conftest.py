"""Shared fixtures.

The desk-scale configuration (two access points, three users, two antennas)
is small enough that closed-form and Monte Carlo quantities can be compared
in seconds, so most statistical tests run on it. Session scope lets the
module tests and the acceptance suite share the same statistics objects.
"""

import numpy as np
import pytest

from cfrs.closed_form import build_cache
from cfrs.config import SystemConfig
from cfrs.scenario import EnvScenario


@pytest.fixture(scope="session")
def desk_cfg():
    return SystemConfig(L=2, K=3, N=2, tau_p=2, seed=7)


@pytest.fixture(scope="session")
def desk_pieces(desk_cfg):
    """(cfg, stats, est, pilots) on the desk-scale network."""
    scenario = EnvScenario(desk_cfg)
    stats, est = scenario.drop_statistics()
    return desk_cfg, stats, est, scenario.pilots


@pytest.fixture(scope="session")
def desk_cache(desk_pieces):
    cfg, stats, est, pilots = desk_pieces
    return build_cache(stats, est, pilots, cfg)


@pytest.fixture(scope="session")
def full_pieces():
    """One network drop at the default full scale (20 APs, 4 users)."""
    cfg = SystemConfig(seed=3)
    scenario = EnvScenario(cfg)
    stats, est = scenario.drop_statistics()
    return cfg, stats, est, scenario.pilots


def random_allocation(K, L, rng):
    """In-bounds power allocation with no structure, for invariance checks."""
    from cfrs.closed_form import PowerAllocation

    return PowerAllocation(rho=rng.uniform(0.05, 0.95, size=L),
                           eta=rng.uniform(0.05, 1.0, size=(K, L)))


def dense_qbar(stats, est, pilots, cfg):
    """Reference (K, K, L, N, N) co-pilot cross-moments built from R, Psi and
    the pilots: Qbar_kil = p tau_p R_il Psi_kl R_kl on pilot groups, zero
    elsewhere."""
    ptau = cfg.p_pilot_mw * cfg.tau_p
    PsiR = np.einsum("klab,klbc->klac", est.Psi, stats.R)
    Qbar = np.einsum("ilab,klbc->kilac", stats.R, PsiR) * ptau
    return Qbar * pilots.copilot[:, :, None, None, None]


def dense_qbar_perfect(stats):
    """Reference cross-moments of perfect CSI: R_kl on the diagonal only."""
    K, L, N = stats.K, stats.L, stats.N
    Qbar = np.zeros((K, K, L, N, N), dtype=complex)
    Qbar[np.arange(K), np.arange(K)] = stats.R
    return Qbar


def max_rel_diff(a, b):
    """Largest absolute difference relative to the largest magnitude of the
    reference b; a zero reference must be matched exactly."""
    diff = np.max(np.abs(np.asarray(a) - np.asarray(b)))
    scale = np.max(np.abs(b))
    if scale == 0:
        return 0.0 if diff == 0 else np.inf
    return diff / scale
