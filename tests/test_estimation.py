"""Pilot assignment and MMSE estimation statistics."""

from dataclasses import replace

import numpy as np
import pytest

from cfrs.config import SystemConfig
from cfrs.estimation import (PilotAssignment, assign_pilots, copilot_cross_moment,
                             estimation_statistics, perfect_csi_statistics)
from cfrs.geometry import hermitian_sqrt
from cfrs.rng import substream
from cfrs.scenario import EnvScenario
from conftest import (copilot_matrix, dense_copilot_traces, dense_qbar,
                      dense_qbar_perfect, error_covariances, max_rel_diff,
                      stored_traces)


def test_assign_pilots_balanced_counts():
    rng = substream(2, "pilots")
    for K, tau_p in ((4, 2), (7, 3), (5, 5), (3, 2)):
        p = assign_pilots(K, tau_p, rng)
        counts = np.bincount(p.pilot_of, minlength=tau_p)
        assert counts.max() - counts.min() <= 1
        assert p.pilot_of.min() >= 0 and p.pilot_of.max() < tau_p


def test_assign_pilots_copilot_matrix():
    p = assign_pilots(6, 3, substream(8, "pilots"))
    cop = copilot_matrix(p)
    assert cop.shape == (6, 6)
    assert np.all(np.diag(cop))
    np.testing.assert_array_equal(cop, cop.T)
    for k in range(6):
        np.testing.assert_array_equal(np.flatnonzero(cop[k]),
                                      np.flatnonzero(p.pilot_of == p.pilot_of[k]))


def test_assign_pilots_unbalanced_and_errors():
    p = assign_pilots(50, 4, substream(1, "pilots"), balanced=False)
    assert p.pilot_of.shape == (50,)
    with pytest.raises(ValueError):
        assign_pilots(4, 0, substream(1, "pilots"))


@pytest.mark.parametrize("pilot_of, tau_p, field", [
    ([0, 1, 2], 2, "pilot_of"), ([0, 1, -1], 2, "pilot_of"), ([0.0, 1.0, 1.5], 2, "pilot_of"),
    ([[0, 1, 1]], 2, "pilot_of"), ([0, 0, 0], 0, "tau_p"), ([0, 1, 1], 2.0, "tau_p"),
    ([0, 1], 2, "pilot_of has 2 entries for K = 3"),
])
def test_pilot_assignment_rejects_bad_groups(desk_pieces, pilot_of, tau_p, field):
    """An assignment with a pilot outside [0, tau_p), a non-integer or
    non-1-D pilot_of, or no pilots fails where it is made and names the
    field; one for another number of users fails in the estimator. A user on
    a pilot past tau_p once left its G uninitialized and surfaced as a
    misleading DegenerateStatisticsError in the cache."""
    cfg, stats, _, _ = desk_pieces
    with pytest.raises(ValueError, match=field):
        estimation_statistics(stats, PilotAssignment(np.array(pilot_of), tau_p), cfg)


def test_pilot_assignment_is_frozen(desk_cfg):
    """The groups that the estimation statistics were built on cannot change
    under them: pilot_of is a read-only copy of the caller's array, shared
    by the scenario and est.pilots. An in-place edit once desynchronized it
    from G, W and copilot_pairs with no error."""
    groups = np.array([0, 1, 1])
    pilots = PilotAssignment(groups, 2)
    groups[0] = 1
    np.testing.assert_array_equal(pilots.pilot_of, [0, 1, 1])
    scenario = EnvScenario(desk_cfg)
    est = scenario.drop_statistics()
    assert est.pilots is scenario.pilots
    before = scenario.pilots.pilot_of.copy()
    with pytest.raises(ValueError, match="read-only"):
        scenario.pilots.pilot_of[:] = np.roll(before, 1)
    np.testing.assert_array_equal(est.pilots.pilot_of, before)


def test_estimation_statistics_identities(desk_pieces):
    cfg, stats, est, pilots = desk_pieces
    K, L = stats.K, stats.L
    # Error and estimate covariances partition R.
    np.testing.assert_allclose(est.Q + est.C, stats.R, atol=1e-14)
    # Diagonal of the cross-moment traces is the trace of the estimate covariance.
    trQbar = stored_traces(est)
    for k in range(K):
        np.testing.assert_allclose(trQbar[k, k], np.trace(est.Q[k], axis1=-2, axis2=-1),
                                   atol=1e-14)
    # Off pilot group the cross-moments vanish identically, so only the
    # co-pilot pairs are stored, in row-major (k, i) order.
    np.testing.assert_array_equal(est.copilot_pairs, np.argwhere(copilot_matrix(pilots)))
    assert est.copilot_traces.shape == (len(est.copilot_pairs), L)
    # Q and C are PSD.
    for arr in (est.Q, est.C):
        w = np.linalg.eigvalsh(arr.reshape(K * L, cfg.N, cfg.N))
        assert w.min() >= -1e-12


def test_estimation_noise_limit_kills_estimate(desk_pieces):
    """With overwhelming noise the estimate carries almost no information:
    Q -> 0 and C -> R."""
    cfg, stats, _, pilots = desk_pieces
    deaf = replace(cfg, noise_dbm=80.0)
    est = estimation_statistics(stats, pilots, deaf)
    assert np.abs(est.Q).max() < 1e-9 * np.abs(stats.R).max()
    np.testing.assert_allclose(est.C, stats.R, rtol=1e-6, atol=1e-18)


def test_error_covariance_matches_subtraction_free_oracle():
    """C = R - G G^H keeps its accuracy on near links, where R and Q nearly
    cancel: every link of the paper-scale drop is within 5e-11 of
    R S^-1 (p tau_p sum_{i != k} R_i + sigma^2 I), relative to its own size."""
    cfg = SystemConfig(K=20, L=100, N=4, tau_p=10, seed=60)
    scenario = EnvScenario(cfg)
    est = scenario.drop_statistics()
    stats = est.stats
    ref = error_covariances(stats, scenario.pilots, cfg)
    err = np.abs(est.C - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))
    assert err.max() <= 5e-11


def test_perfect_csi_statistics(desk_pieces):
    _, stats, _, _ = desk_pieces
    est = perfect_csi_statistics(stats)
    np.testing.assert_array_equal(est.Q, stats.R)
    np.testing.assert_array_equal(est.G, hermitian_sqrt(stats.R))
    assert est.W.shape[0] == 0 and est.ptau == 0
    assert np.all(est.C == 0)
    np.testing.assert_array_equal(est.Qbar_sum, stats.R.sum(axis=0))
    # Every user is a pilot group of one: only the pairs (k, k) are stored.
    np.testing.assert_array_equal(est.copilot_pairs,
                                  np.argwhere(np.eye(stats.K, dtype=bool)))
    trQbar = stored_traces(est)
    for k in range(stats.K):
        np.testing.assert_array_equal(trQbar[k, k],
                                      np.trace(stats.R[k], axis1=-2, axis2=-1))


@pytest.mark.parametrize("pieces", ["desk_pieces", "full_pieces", "perfect_csi"])
def test_reductions_match_dense_oracle(pieces, request):
    """The co-pilot traces, the pair sum and single entries agree with the
    dense (K, K, L, N, N) cross-moment tensor and the traces also with the
    dense traces of the estimator factors, and no field stores a (K, K, L)
    or a (K, K, L, N, N) tensor."""
    if pieces == "perfect_csi":
        cfg, stats, _, pilots = request.getfixturevalue("full_pieces")
        est = perfect_csi_statistics(stats)
        Qbar = dense_qbar_perfect(stats)
        copilot = np.eye(stats.K, dtype=bool)
    else:
        cfg, stats, est, pilots = request.getfixturevalue(pieces)
        Qbar = dense_qbar(stats, pilots, cfg)
        copilot = copilot_matrix(pilots)
    K, L, N = stats.K, stats.L, stats.N
    trQbar = stored_traces(est)
    assert max_rel_diff(trQbar, np.trace(Qbar, axis1=-2, axis2=-1)) <= 1e-12
    assert max_rel_diff(trQbar, dense_copilot_traces(est.G, copilot)) <= 1e-12
    assert max_rel_diff(est.Qbar_sum, Qbar.sum(axis=(0, 1))) <= 1e-12
    for k in range(K):
        for i in range(K):
            for l in range(L):
                entry = copilot_cross_moment(k, i, l, est)
                assert max_rel_diff(entry, Qbar[k, i, l]) <= 1e-12
    for name, value in vars(est).items():
        assert np.shape(value) not in ((K, K, L), (K, K, L, N, N)), name
