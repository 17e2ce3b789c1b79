"""Fixed-drop scenario swept over propagation environments."""

import numpy as np
import pytest

from cfrs.allocation import GAConfig, heuristic_control
from cfrs.closed_form import PowerAllocation, evaluate_cache, sum_se_batch
from cfrs.config import SystemConfig
from cfrs.diffusion import Environment
from cfrs.rng import substream
from cfrs.scenario import DEFAULT_RHO_GRID, EnvScenario, build_expert_dataset

CFG = SystemConfig(L=3, K=2, N=2, tau_p=2, seed=19)
TINY_GA = GAConfig(pop_size=12, generations=12)


@pytest.fixture(scope="module")
def scenario():
    return EnvScenario(CFG)


def test_environment_sweep_keeps_geometry(scenario):
    a = scenario.statistics(Environment(-5.0, 10.0))
    b = scenario.statistics(Environment(15.0, 60.0))
    np.testing.assert_array_equal(a.zeta, b.zeta)
    np.testing.assert_array_equal(a.zeta, scenario.zeta)
    assert np.all(b.beta_los > a.beta_los)
    assert scenario.dims == (2, 3)
    # Default environment falls back to the config's propagation values.
    base = scenario.statistics()
    np.testing.assert_array_equal(
        base.beta_los, scenario.statistics(Environment(CFG.rician_db,
                                                       CFG.asd_deg)).beta_los)


def test_baselines_score_consistently(scenario):
    env = Environment(5.0, 15.0)
    cache = scenario.cache(env)
    assert scenario.no_rs_value(cache) == pytest.approx(
        evaluate_cache(cache, PowerAllocation.no_rs(2, 3)).sum_se)

    alloc, value, values = scenario.best_equal_split(cache)
    assert values.shape == (len(DEFAULT_RHO_GRID),)
    assert value == pytest.approx(values.max())
    assert np.all(alloc.eta == 1.0)
    manual = max(evaluate_cache(cache, PowerAllocation.equal_split(2, 3, r)).sum_se
                 for r in DEFAULT_RHO_GRID)
    assert value == pytest.approx(manual)

    halloc, hvalue, hvalues = scenario.best_heuristic(cache)
    assert hvalue == pytest.approx(hvalues.max())
    np.testing.assert_array_equal(halloc.eta, heuristic_control(scenario.zeta))


def test_expert_beats_baselines(scenario):
    env = Environment(5.0, 15.0)
    cache = scenario.cache(env)
    _, equal_val, _ = scenario.best_equal_split(cache)
    _, heur_val, _ = scenario.best_heuristic(cache)
    _, value = scenario.expert(cache, TINY_GA, substream(41, "ga"))
    assert value >= max(equal_val, heur_val) - 1e-12


def test_expert_candidate_screening(scenario):
    """A candidate pool that contains a better vector must win over the GA."""
    env = Environment(5.0, 15.0)
    cache = scenario.cache(env)
    strong, value = scenario.expert(cache, GAConfig(pop_size=30, generations=60),
                                    substream(43, "strong"))
    weak_ga = GAConfig(pop_size=6, generations=2)
    _, screened = scenario.expert(cache, weak_ga, substream(43, "weak"),
                                  candidates=strong.to_vector()[None])
    assert screened >= value - 1e-12


def _env_grid():
    return [Environment(k, a) for k in (-5.0, 10.0) for a in (15.0, 50.0)]


def test_build_expert_dataset_and_verify(scenario):
    ds = build_expert_dataset(scenario, _env_grid(), TINY_GA,
                              substream(47, "expert"))
    assert len(ds) == 4 and ds.dim == 3 + 2 * 3
    assert np.all(ds.sum_se > 0)
    # Every stored value re-scores on its environment's cache.
    K, L = scenario.dims
    for env, x, value in zip(_env_grid(), ds.x0, ds.sum_se):
        rescored = sum_se_batch(scenario.cache(env), x[None, :L],
                                x[None, L:].reshape(1, K, L))
        np.testing.assert_allclose(rescored, [value], rtol=1e-10, atol=1e-10)

    # The same GA runs without the screen: the dataset draws each
    # environment's run from one generator, in grid order.
    rng = substream(47, "expert")
    plain = [scenario.expert(scenario.cache(env), TINY_GA, rng)[1] for env in _env_grid()]
    # The screen can only raise values: each point keeps the pool's best.
    assert np.all(ds.sum_se >= np.array(plain) - 1e-12)
