"""Distance law, Rician split, and spatial correlation structure."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cfrs.config import SystemConfig, db_to_linear
from cfrs.geometry import (correlation_matrix_from_angles, draw_geometry,
                           link_statistics, path_loss, rician_split)
from cfrs.rng import substream
from conftest import eigh_projected_correlation


def test_path_loss_far_slope_anchor():
    # 35 dB/decade beyond 50 m, pinned at -140.7 dB for 1 km.
    assert path_loss(1000.0) == pytest.approx(10 ** (-140.7 / 10), rel=1e-12)
    ratio_db = 10 * math.log10(path_loss(100.0) / path_loss(1000.0))
    assert ratio_db == pytest.approx(35.0, abs=1e-9)


def test_path_loss_continuous_at_breakpoints():
    for d in (10.0, 50.0):
        below = path_loss(d * (1 - 1e-9))
        above = path_loss(d * (1 + 1e-9))
        assert below == pytest.approx(above, rel=1e-6)


def test_path_loss_flat_inside_floor():
    assert path_loss(1.0) == path_loss(9.9)
    d = np.array([5.0, 30.0, 200.0, 800.0])
    g = path_loss(d)
    assert g.shape == (4,)
    assert np.all(np.diff(g) < 0)


def test_path_loss_rejects_nonpositive():
    with pytest.raises(ValueError):
        path_loss(0.0)
    with pytest.raises(ValueError):
        path_loss(np.array([10.0, -1.0]))


def test_rician_split_power_identity():
    zeta = np.array([1.0, 0.25])
    for kappa_db in (-10.0, 0.0, 5.0, 20.0):
        kappa = db_to_linear(kappa_db)
        blos, bnlos = rician_split(zeta, kappa)
        np.testing.assert_allclose(blos ** 2 + bnlos ** 2, zeta ** 2, rtol=1e-12)
        np.testing.assert_allclose(blos / bnlos, np.sqrt(kappa), rtol=1e-12)


def test_rician_split_rayleigh_limit():
    blos, bnlos = rician_split(np.array([2.0]), 0.0)
    assert blos[0] == 0.0
    assert bnlos[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        rician_split(np.array([1.0]), -0.1)


def test_link_statistics_los_structure():
    cfg = SystemConfig(L=3, K=2, N=5, d_H=0.5, rician_db=6.0, seed=4)
    geo = draw_geometry(cfg, substream(4, "geometry"))
    stats = link_statistics(cfg, geo)
    hbar = stats.hbar
    np.testing.assert_allclose(
        np.abs(hbar), np.broadcast_to(np.sqrt(stats.beta_los)[..., None], hbar.shape),
        rtol=1e-12)
    # Uniform linear array: constant phase increment 2 pi d_H sin(phi) along
    # the array, starting from a real first entry.
    steps = hbar[..., 1:] / hbar[..., :-1]
    expected = np.exp(1j * 2 * np.pi * cfg.d_H * np.sin(geo.phi))[..., None]
    np.testing.assert_allclose(steps, np.broadcast_to(expected, steps.shape),
                               atol=1e-12)
    np.testing.assert_allclose(hbar[..., 0], np.sqrt(stats.beta_los), rtol=1e-12)


def test_correlation_matrix_trace_and_psd():
    rng = substream(11, "angles")
    for trial in range(20):
        beta = rng.uniform(0.1, 3.0)
        angles = rng.uniform(-np.pi, np.pi, size=6)
        asd = math.radians(rng.uniform(5.0, 80.0))
        N = int(rng.integers(1, 6))
        R = correlation_matrix_from_angles(beta, angles, asd, N)
        assert R.shape == (N, N)
        np.testing.assert_allclose(R, R.conj().T, atol=1e-14)
        assert np.trace(R).real == pytest.approx(N * beta, rel=1e-12)
        assert np.linalg.eigvalsh(R).min() >= -1e-12


def test_correlation_matrix_single_antenna_is_scalar_gain():
    R = correlation_matrix_from_angles(0.7, np.array([0.2, -0.4]), 0.1, 1)
    assert R.shape == (1, 1)
    assert R[0, 0] == pytest.approx(0.7)


def test_correlation_small_spread_concentrates_energy():
    """Narrow angular spread around a single cluster approaches the rank-one
    outer product of the steering vector; wide spread flattens the spectrum."""
    angles = np.array([0.35])
    narrow = correlation_matrix_from_angles(1.0, angles, math.radians(1.0), 4)
    wide = correlation_matrix_from_angles(1.0, angles, math.radians(60.0), 4)
    assert np.linalg.eigvalsh(narrow)[-1] > np.linalg.eigvalsh(wide)[-1]
    assert np.linalg.eigvalsh(narrow)[-1] == pytest.approx(4.0, rel=0.05)


def test_correlation_matrix_batched_zero_and_collapse():
    angles = np.array([[0.2, -0.4], [0.1, 0.5], [0.3, 0.3]])
    R = correlation_matrix_from_angles(np.array([0.7, 0.0, 1.3]), angles, 0.2, 3)
    assert R.shape == (3, 3, 3)
    assert np.all(R[1] == 0)
    np.testing.assert_array_equal(R[2], correlation_matrix_from_angles(1.3, angles[2], 0.2, 3))
    with pytest.raises(ValueError, match="collapsed"):
        correlation_matrix_from_angles(np.array([0.7, -1.0, 1.3]), angles, 0.2, 3)


def test_correlation_matrix_matches_projected_oracle():
    """The closed-form matrices equal the eigenvalue-projected oracle to
    1e-12 of their trace, and are PSD to roundoff, over every array size and
    cluster count from 1 to 8, spreads from 1e-4 to 180 degrees, and angles
    at +-pi/2 where the spread damps nothing."""
    rng = substream(21, "oracle-angles")
    for N in range(1, 9):
        for n_c in range(1, 9):
            for asd_deg in (1e-4, 1e-2, 1.0, 15.0, 60.0, 180.0):
                angles = rng.uniform(-np.pi, np.pi, size=(8, n_c))
                angles[0] = np.pi / 2
                angles[1] = -np.pi / 2
                angles[2, 0] = np.pi / 2
                beta = rng.uniform(0.1, 3.0, size=8)
                beta[3] = 0.0
                asd = math.radians(asd_deg)
                R = correlation_matrix_from_angles(beta, angles, asd, N)
                assert R.flags.c_contiguous
                oracle = eigh_projected_correlation(beta, angles, asd, N)
                trace = N * beta
                err = np.max(np.abs(R - oracle), axis=(-1, -2))
                assert np.all(err <= 1e-12 * trace), (N, n_c, asd_deg)
                least = np.linalg.eigvalsh(R)[..., 0]
                assert np.all(least >= -1e-12 * trace), (N, n_c, asd_deg)


@pytest.mark.parametrize("beta, angle", [
    (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf), (np.nan, 0.3), (np.inf, 0.3),
])
def test_correlation_matrix_rejects_non_finite(beta, angle):
    angles = np.array([[0.2, angle], [0.1, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        correlation_matrix_from_angles(np.array([beta, 0.7]), angles, 0.2, 3)


@pytest.mark.parametrize("name, value", [
    ("asd_deg", -15.0), ("asd_deg", 0.0), ("asd_deg", float("inf")), ("asd_deg", float("nan")),
    ("rician_db", float("nan")), ("rician_db", float("inf")),
])
def test_link_statistics_rejects_bad_overrides(name, value):
    """An environment applied to a config, replace(cfg, ...), passes the
    checks SystemConfig makes, instead of returning matrices of a negative
    spread or NaN statistics."""
    cfg = SystemConfig(L=3, K=2, N=3, tau_p=2, seed=4)
    geo = draw_geometry(cfg, substream(4, "geometry"))
    with pytest.raises(ValueError, match=name):
        link_statistics(replace(cfg, **{name: value}), geo)
    rayleigh = link_statistics(replace(cfg, rician_db=float("-inf")), geo)
    assert np.all(rayleigh.beta_los == 0) and np.all(np.isfinite(rayleigh.R))


def test_link_statistics_equals_per_link_matrices():
    """One batched call over all K x L links gives every link's matrix bit
    for bit as a call for that link alone."""
    cfg = SystemConfig(L=9, K=5, N=4, tau_p=2, seed=12)
    geo = draw_geometry(cfg, substream(12, "geometry"))
    stats = link_statistics(replace(cfg, asd_deg=25.0), geo)
    assert stats.R.shape == (5, 9, 4, 4)
    for k in range(cfg.K):
        for l in range(cfg.L):
            single = correlation_matrix_from_angles(
                stats.beta_nlos[k, l], geo.cluster_angles[k, l], math.radians(25.0), cfg.N)
            np.testing.assert_array_equal(stats.R[k, l], single)


def test_place_network_inside_area():
    cfg = SystemConfig(seed=5)
    p = draw_geometry(cfg, substream(5, "geometry"))
    assert p.ap_positions.shape == (cfg.L, 2)
    assert p.ue_positions.shape == (cfg.K, 2)
    for arr in (p.ap_positions, p.ue_positions):
        assert np.all(arr >= 0.0) and np.all(arr <= cfg.area_side)


def test_draw_geometry_deterministic():
    cfg = SystemConfig(L=4, K=3, N=2, tau_p=2, seed=9)
    g1 = draw_geometry(cfg, substream(9, "geometry"))
    g2 = draw_geometry(cfg, substream(9, "geometry"))
    np.testing.assert_array_equal(g1.zeta, g2.zeta)
    np.testing.assert_array_equal(g1.cluster_angles, g2.cluster_angles)
    assert g1.zeta.shape == (3, 4)
    assert np.all(g1.zeta > 0)


def test_draw_geometry_shadowing():
    """Shadow fading is the drop's last draw: it leaves every angle as it
    was and scales each gain by an independent 8 dB lognormal factor."""
    cfg = SystemConfig(L=100, K=40, seed=5)
    plain = draw_geometry(cfg, substream(5, "geometry"))
    shadowed = draw_geometry(replace(cfg, shadowing=True), substream(5, "geometry"))
    np.testing.assert_array_equal(shadowed.phi, plain.phi)
    np.testing.assert_array_equal(shadowed.cluster_angles, plain.cluster_angles)
    sigma_db = np.std(10.0 * np.log10(shadowed.zeta / plain.zeta))
    assert abs(sigma_db - 8.0) <= 0.5, sigma_db


def test_link_statistics_env_overrides_keep_geometry():
    """Changing the Rician factor or the angular spread re-splits the same
    large-scale gains without moving anybody."""
    cfg = SystemConfig(L=3, K=2, N=3, tau_p=2, seed=4)
    geo = draw_geometry(cfg, substream(4, "geometry"))
    base = link_statistics(cfg, geo)
    hot = link_statistics(replace(cfg, rician_db=15.0, asd_deg=40.0), geo)
    np.testing.assert_array_equal(base.zeta, hot.zeta)
    assert np.all(hot.beta_los > base.beta_los)
    total_b = base.beta_los ** 2 + base.beta_nlos ** 2
    total_h = hot.beta_los ** 2 + hot.beta_nlos ** 2
    np.testing.assert_allclose(total_b, total_h, rtol=1e-12)
    # LoS mean matches the split in norm.
    np.testing.assert_allclose(np.sum(np.abs(hot.hbar) ** 2, axis=-1),
                               cfg.N * hot.beta_los, rtol=1e-12)

