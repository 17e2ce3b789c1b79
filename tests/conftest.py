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
from cfrs.monte_carlo import ChannelSampler, build_precoders
from cfrs.rng import complex_normal
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


def expected_tx_power(alloc, cfg):
    """Analytic per-AP average transmit power, shape (L,)."""
    return cfg.p_dl_mw * (alloc.rho
                          + (1.0 - alloc.rho) * alloc.eta.sum(axis=0) / alloc.eta.shape[0])


def sample_tx_power(stats, est, pilots, cfg, alloc, l, n_draws, rng):
    """Sample mean and standard error of ||x_l||^2, the power AP l radiates
    with the normalized precoders and fresh unit-power data symbols."""
    sampler = ChannelSampler(stats, est, pilots, cfg)
    chunk = sampler.chunk_size(8192)
    amp_c = np.sqrt(cfg.p_dl_mw * alloc.rho[l])
    amp_p = np.sqrt(cfg.p_dl_mw * (1.0 - alloc.rho[l]) * alloc.eta[:, l] / stats.K)
    samples = []
    for start in range(0, n_draws, chunk):
        n = min(chunk, n_draws - start)
        _, ghat = sampler.draw(n, rng)
        v_c, v_p = build_precoders(ghat, sampler.mu_c, sampler.mu_p)
        s_c = complex_normal(rng, (n,))
        s_i = complex_normal(rng, (n, stats.K))
        x = (amp_c * v_c[:, l] * s_c[:, None]
             + np.einsum("i,bin,bi->bn", amp_p, v_p[:, :, l], s_i))
        samples.append(np.einsum("bn,bn->b", x.conj(), x).real)
    samples = np.concatenate(samples)
    return float(samples.mean()), float(np.sqrt(samples.var(ddof=1) / n_draws))
