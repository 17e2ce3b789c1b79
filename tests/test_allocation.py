"""Power-allocation heuristics and the genetic search."""

import numpy as np
import pytest

from cfrs.allocation import (GAConfig, best_on_grid, ga_optimize,
                             heuristic_control, heuristic_split, optimize_eta,
                             optimize_joint, optimize_rho)
from cfrs.closed_form import PowerAllocation, evaluate_cache
from cfrs.rng import substream
from conftest import random_allocation

ZETA = np.array([[1.0, 4.0], [9.0, 16.0]])


def test_heuristic_split_hand_values():
    rho = heuristic_split(ZETA, 0.5)
    # Column root-mean gains deviate symmetrically, so the nudges are
    # +-min(rho0, 1-rho0)/1.2 around 0.5.
    np.testing.assert_allclose(rho, [0.5 - 0.5 / 1.2, 0.5 + 0.5 / 1.2],
                               rtol=1e-12)
    assert rho[1] == pytest.approx(0.9166666667)


def test_heuristic_split_bounds_and_degenerate():
    rng = substream(7, "zeta")
    for rho0 in (0.0, 0.1, 0.5, 0.9, 1.0):
        rho = heuristic_split(rng.uniform(0.1, 5.0, size=(4, 6)), rho0)
        assert np.all(rho >= 0.0) and np.all(rho <= 1.0)
    # Identical columns leave nothing to deviate on.
    flat = heuristic_split(np.ones((3, 4)), 0.3)
    np.testing.assert_array_equal(flat, 0.3)
    with pytest.raises(ValueError):
        heuristic_split(ZETA, 1.2)


@pytest.mark.parametrize("zeta", [
    pytest.param(substream(7, "grid").uniform(0.1, 5.0, size=(4, 6)), id="random"),
    pytest.param(np.ones((3, 4)), id="degenerate"),
])
def test_heuristic_split_grid_matches_scalar_calls(zeta):
    """A 1-D grid of rho0 gives, row by row, the bits of one call per entry,
    the degenerate zeta and rho0 in {0, 1} included; any entry out of range
    rejects the whole grid."""
    grid = np.array([0.0, 0.25, 0.5, 0.99, 1.0])
    rho = heuristic_split(zeta, grid)
    assert rho.shape == (len(grid), zeta.shape[1])
    np.testing.assert_array_equal(rho, np.stack([heuristic_split(zeta, r) for r in grid]))
    for bad in ([0.5, 1.2], [-0.1, 0.5], [0.5, np.nan]):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            heuristic_split(zeta, bad)


def test_heuristic_control_hand_values():
    eta = heuristic_control(ZETA)
    expected = np.array([[0.66874030, 0.56234133],
                         [1.0, 0.84089642]])
    np.testing.assert_allclose(eta, expected, rtol=1e-7)


def test_heuristic_control_bounds():
    rng = substream(11, "zeta")
    eta = heuristic_control(rng.uniform(0.01, 10.0, size=(5, 7)))
    assert np.all(eta > 0.0) and np.all(eta <= 1.0)
    assert eta.max() == pytest.approx(1.0)
    np.testing.assert_array_equal(heuristic_control(np.ones((2, 3))),
                                  np.ones((2, 3)))
    with pytest.raises(ValueError):
        heuristic_control(np.array([[1.0, 0.0]]))


def test_ga_quadratic_optimum():
    target = np.array([0.3, 0.7, 0.55])

    def objective(pop):
        return -np.sum((pop - target) ** 2, axis=1)

    res = ga_optimize(objective, 3, GAConfig(pop_size=40, generations=120),
                      substream(13, "ga"))
    np.testing.assert_allclose(res.x, target, atol=0.02)
    assert res.value > -1e-3


def test_ga_best_history_nondecreasing_and_deterministic():
    def objective(pop):
        return np.sin(5 * pop[:, 0]) + pop[:, 1]

    cfg = GAConfig(pop_size=30, generations=50)
    a = ga_optimize(objective, 2, cfg, substream(17, "ga"))
    b = ga_optimize(objective, 2, cfg, substream(17, "ga"))
    assert np.all(np.diff(a.best_history) >= 0)
    assert a.value == b.value
    np.testing.assert_array_equal(a.x, b.x)
    assert len(a.best_history) == 50


def test_ga_respects_bounds_and_init():
    def objective(pop):
        return pop.sum(axis=1)

    init = np.full((1, 4), 0.93)
    res = ga_optimize(objective, 4, GAConfig(pop_size=12, generations=10),
                      substream(19, "ga"), init=init)
    # Elitism keeps the best candidate, so a strong seed is never lost.
    assert res.value >= objective(init)[0]
    assert np.all(res.x >= 0.0) and np.all(res.x <= 1.0)
    with pytest.raises(ValueError):
        ga_optimize(objective, 4, GAConfig(pop_size=2, generations=1),
                    substream(19, "x"))


@pytest.mark.parametrize("where", ["everywhere", "half_box"])
def test_ga_rejects_nonfinite_objective(where):
    """A NaN objective must fail loudly, not come back as a NaN optimum."""
    def objective(pop):
        values = pop.sum(axis=1)
        if where == "everywhere":
            return np.full(len(pop), np.nan)
        return np.where(pop[:, 0] > 0.5, np.nan, values)

    with pytest.raises(ValueError, match="non-finite"):
        ga_optimize(objective, 3, GAConfig(pop_size=12, generations=10),
                    substream(21, "nan"))


def test_optimizers_improve_on_seeds(desk_cache):
    rng = substream(23, "ga")
    ga_cfg = GAConfig(pop_size=20, generations=30)
    eta = np.ones((3, 2))
    res_rho = optimize_rho(desk_cache, eta, ga_cfg, rng)
    grid = np.repeat(np.linspace(0.0, 0.99, 21)[:, None], 2, axis=1)
    _, grid_best, _ = best_on_grid(desk_cache, grid, np.broadcast_to(eta, (21, 3, 2)))
    assert res_rho.value >= grid_best - 1e-9

    res_eta = optimize_eta(desk_cache, np.full(2, 0.3), ga_cfg, rng,
                           init=[eta])
    fixed = evaluate_cache(desk_cache,
                           PowerAllocation(rho=np.full(2, 0.3), eta=eta)).sum_se
    assert res_eta.value >= fixed - 1e-9

    seed_alloc = random_allocation(3, 2, rng)
    seed_val = evaluate_cache(desk_cache, seed_alloc).sum_se
    alloc, res = optimize_joint(desk_cache, ga_cfg, rng, init=[seed_alloc])
    assert res.value >= seed_val
    assert evaluate_cache(desk_cache, alloc).sum_se == pytest.approx(res.value)
    assert np.all(alloc.rho >= 0) and np.all(alloc.rho <= 1)
    assert np.all(alloc.eta >= 0) and np.all(alloc.eta <= 1)


def test_best_on_grid_matches_argmax(desk_cache):
    rng = substream(29, "grid")
    allocs = [random_allocation(3, 2, rng) for _ in range(6)]
    rho = np.stack([a.rho for a in allocs])
    eta = np.stack([a.eta for a in allocs])
    best, value, values = best_on_grid(desk_cache, rho, eta)
    assert values.shape == (6,)
    k = int(np.argmax(values))
    assert value == pytest.approx(values[k])
    np.testing.assert_array_equal(best.rho, allocs[k].rho)
    np.testing.assert_array_equal(best.eta, allocs[k].eta)
    assert not np.shares_memory(best.eta, eta)
    direct = evaluate_cache(desk_cache, allocs[k]).sum_se
    assert value == pytest.approx(direct, rel=1e-12)
