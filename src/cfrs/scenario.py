"""One network drop evaluated across propagation environments.

The geometry (positions, large-scale gains, scattering-cluster angles) and
the pilot assignment are frozen from the seed; the Rician factor and angular
spread can then be swept without redrawing anything, which is what the
environment-adaptive optimizer trains and evaluates on; an environment is
applied as a config that states it. This module is the only place a drop is
built, and the one path from a drop to an expert dataset and a trained policy.
"""

from dataclasses import replace

import numpy as np

from .allocation import (GAConfig, best_on_grid, heuristic_control,
                         heuristic_split, optimize_joint)
from .closed_form import PowerAllocation, build_cache, evaluate_cache, sum_se_vectors
from .config import SystemConfig
from .diffusion import DiffusionTrainer, EpsNetwork, ExpertDataset, make_schedule
from .estimation import assign_pilots, estimation_statistics
from .geometry import draw_geometry, link_statistics
from .rng import substream

DEFAULT_RHO_GRID = tuple(float(x) for x in np.linspace(0.0, 0.99, 21))


class EnvScenario:
    """One drop. rngs, if given, is the (geometry, pilots) generator pair;
    by default they are the seed's "geometry" and "pilots" substreams."""

    def __init__(self, cfg: SystemConfig, seed=None, rngs=None):
        self.cfg = cfg
        if rngs is None:
            seed = cfg.seed if seed is None else seed
            rngs = substream(seed, "geometry"), substream(seed, "pilots")
        geometry_rng, pilot_rng = rngs
        self.geometry = draw_geometry(cfg, geometry_rng)
        self.pilots = assign_pilots(cfg.K, cfg.tau_p, pilot_rng,
                                    balanced=cfg.balanced_pilots)

    @property
    def zeta(self):
        return self.geometry.zeta

    @property
    def dims(self):
        return self.cfg.K, self.cfg.L

    def drop_statistics(self, env=None):
        """The MMSE estimation statistics under env, the config's own
        environment by default; est.stats holds the link statistics."""
        cfg = self.cfg if env is None else replace(self.cfg, rician_db=env.kappa_db,
                                                   asd_deg=env.asd_deg)
        return estimation_statistics(link_statistics(cfg, self.geometry), self.pilots, cfg)

    def cache(self, env=None):
        est = self.drop_statistics(env)
        return build_cache(est.stats, est, self.pilots, self.cfg)

    # -- baseline allocations ------------------------------------------------

    def no_rs_value(self, cache):
        K, L = self.dims
        return evaluate_cache(cache, PowerAllocation.no_rs(K, L)).sum_se

    def best_equal_split(self, cache, rho_grid=DEFAULT_RHO_GRID):
        K, L = self.dims
        rho = np.repeat(np.asarray(rho_grid, dtype=float)[:, None], L, axis=1)
        return best_on_grid(cache, rho, np.ones((len(rho), K, L)))

    def best_heuristic(self, cache, rho_grid=DEFAULT_RHO_GRID):
        """Heuristic splitting swept over the initial factor, joined with the
        heuristic power control; best grid point by the closed-form value."""
        rho = heuristic_split(self.zeta, rho_grid)
        eta = heuristic_control(self.zeta)
        return best_on_grid(cache, rho, np.broadcast_to(eta, (len(rho),) + eta.shape))

    def expert(self, cache, ga_cfg: GAConfig, rng, candidates=None):
        """Genetic joint optimization on an environment's cache, seeded with
        the statistical baselines on the default splitting-factor grid.

        candidates, if given, is a pool of allocation vectors (rows of length
        L + K*L) screened after the GA run; the better of the two wins. Pass
        a cross-screened training set here so that held-out references are
        held to the same standard as the stored experts.

        Returns (PowerAllocation, closed-form sum SE)."""
        K, L = self.dims
        heur, _, _ = self.best_heuristic(cache)
        equal, _, _ = self.best_equal_split(cache)
        alloc, res = optimize_joint(cache, ga_cfg, rng, init=[heur, equal])
        best, value = alloc, res.value
        if candidates is not None and len(candidates):
            vals = sum_se_vectors(cache, candidates)
            j = int(np.argmax(vals))
            if vals[j] > value:
                best = PowerAllocation.from_vector(candidates[j], K, L)
                value = float(vals[j])
        return best, value


def build_expert_dataset(scenario: EnvScenario, envs, ga_cfg: GAConfig,
                         rng) -> ExpertDataset:
    """Run the genetic expert on a fixed network drop for each environment.

    Each grid point first gets its own warm-started GA run. Every environment
    is then re-scored against the whole pool of winners and keeps the best
    vector for its own statistics. Near-optimal allocations transfer well
    between neighbouring environments, so the screen raises the stored values
    and, just as important for a conditional model, removes the run-to-run GA
    scatter that would otherwise make the env -> x0 map jump between
    unrelated near-optima.
    """
    envs = list(envs)
    caches, vecs, values = [], [], []
    for env in envs:
        cache = scenario.cache(env)
        alloc, value = scenario.expert(cache, ga_cfg, rng)
        caches.append(cache)
        vecs.append(alloc.to_vector())
        values.append(value)
    vecs = np.stack(vecs)
    values = np.array(values, dtype=float)
    for _ in range(4):
        changed = 0
        for m, cache in enumerate(caches):
            pool = sum_se_vectors(cache, vecs)
            j = int(np.argmax(pool))
            if pool[j] > values[m] + 1e-12:
                vecs[m] = vecs[j].copy()
                values[m] = float(pool[j])
                changed += 1
        if not changed:
            break
    return ExpertDataset(kappa_db=np.array([e.kappa_db for e in envs], dtype=float),
                         asd_deg=np.array([e.asd_deg for e in envs], dtype=float),
                         x0=vecs, sum_se=values)


def train_policy(cfg: SystemConfig, seed, envs, ga_cfg: GAConfig, lr):
    """Build the seed's drop, its expert dataset over envs, and a trainer for
    a fresh noise-prediction network at Adam step size lr; nothing is trained
    yet.

    Returns (scenario, dataset, trainer). trainer.run(n) takes n steps and
    may be called repeatedly; the policy is trainer.net with trainer.schedule.
    """
    scenario = EnvScenario(cfg, seed=seed)
    dataset = build_expert_dataset(scenario, envs, ga_cfg, substream(seed, "expert"))
    K, L = scenario.dims
    net = EpsNetwork(L + K * L, rng=substream(seed, "init"))
    trainer = DiffusionTrainer(net, make_schedule(), dataset, lr,
                               substream(seed, "train"))
    return scenario, dataset, trainer

