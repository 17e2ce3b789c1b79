"""Power allocation: statistical heuristics and a real-coded genetic search.

The heuristics steer power with nothing but the large-scale gains. The
genetic algorithm optimizes the closed-form sum SE directly; its objective is
batched over the population, so one call scores all candidates.
"""

from dataclasses import dataclass

import numpy as np

from .closed_form import PowerAllocation, SECache, sum_se_batch, sum_se_vectors

SPLIT_EPSILON = 1.2  # above 1, so that heuristic_split stays inside (0, 1)
SPLIT_EXPONENT = 0.5
CONTROL_EXPONENT = 0.25

# Genetic search over the unit box, where every allocation vector lives.
CROSSOVER_RATE = 0.8
MUTATION_RATE = 0.1
MUTATION_SIGMA = 0.08
ELITISM = 2
TOURNAMENT = 3
BLEND_ALPHA = 0.5


def heuristic_split(zeta, rho0):
    """Per-AP power-splitting factors from the large-scale gains.

    Starting from a common factor rho0, each AP's split is nudged by how far
    its (root-mean) user gain sits from the network average; the step
    omega = min(rho0, 1 - rho0) / SPLIT_EPSILON keeps every factor in (0, 1).
    APs with stronger average links put more power on the common message.

    rho0 is a scalar, giving (L,), or a 1-D grid of P factors, giving (P, L).
    """
    zeta = np.asarray(zeta, dtype=float)
    rho0 = np.asarray(rho0, dtype=float)
    if not np.all((rho0 >= 0.0) & (rho0 <= 1.0)):
        raise ValueError("rho0 must lie in [0, 1]")
    rho0 = rho0[..., None]
    zl = zeta.mean(axis=0) ** SPLIT_EXPONENT
    dev = zl - zl.mean()
    m = np.max(np.abs(dev))
    if m == 0.0:
        return np.repeat(rho0, zeta.shape[1], axis=-1)
    omega = np.minimum(rho0, 1.0 - rho0) / SPLIT_EPSILON
    return rho0 + omega * dev / m


def heuristic_control(zeta):
    """Private power-control coefficients from the large-scale gains.

    eta_kl grows with the user's average gain (stronger users get more of
    their share) and shrinks for APs whose average gain is high (which are
    already well heard). All entries land in (0, 1] and the best user at the
    weakest AP gets exactly 1.
    """
    zeta = np.asarray(zeta, dtype=float)
    if np.any(zeta <= 0):
        raise ValueError("zeta must be positive")
    zk = zeta.mean(axis=1) ** CONTROL_EXPONENT
    zl = zeta.mean(axis=0) ** CONTROL_EXPONENT
    return (zk / zk.max())[:, None] * (zl.min() / zl)[None, :]


@dataclass(frozen=True)
class GAConfig:
    pop_size: int
    generations: int

    def __post_init__(self):
        # Elites plus at least one child, and two parents to breed from.
        floor = max(2, ELITISM + 1)
        if self.pop_size < floor:
            raise ValueError(f"population too small: pop_size must be at least {floor}")


@dataclass(frozen=True)
class GAResult:
    x: np.ndarray
    value: float
    best_history: np.ndarray  # best-so-far fitness per generation (nondecreasing)


def _fitness(objective, pop):
    fit = np.asarray(objective(pop), dtype=float)
    if not np.all(np.isfinite(fit)):
        raise ValueError("GA objective returned a non-finite value")
    return fit


def ga_optimize(objective, dim, ga_cfg: GAConfig, rng, init=None) -> GAResult:
    """Maximize a batched objective over the unit box with a real-coded GA.

    objective maps a (P, dim) population to (P,) fitness values. Tournament
    selection, blend crossover, Gaussian mutation clamped to the box, and
    elitism; with elites carried over unchanged the best-so-far trace never
    decreases. Optional init rows are injected into the initial population.
    Raises ValueError if the objective returns a value that is not finite.
    """
    P = ga_cfg.pop_size
    pop = rng.uniform(0.0, 1.0, size=(P, dim))
    if init is not None:
        init = np.atleast_2d(np.asarray(init, dtype=float))
        take = min(len(init), P)
        pop[:take] = np.clip(init[:take], 0.0, 1.0)
    fit = _fitness(objective, pop)
    best_hist = []
    n_child = P - ELITISM
    for _ in range(ga_cfg.generations):
        elite_idx = np.argsort(fit)[-ELITISM:]
        elites, elite_fit = pop[elite_idx].copy(), fit[elite_idx].copy()

        cand = rng.integers(0, P, size=(2, n_child, TOURNAMENT))
        winners = cand[np.arange(2)[:, None, None], np.arange(n_child)[None, :, None],
                       np.argmax(fit[cand], axis=2)[:, :, None]][:, :, 0]
        pa, pb = pop[winners[0]], pop[winners[1]]
        u = rng.uniform(-BLEND_ALPHA, 1.0 + BLEND_ALPHA, size=(n_child, dim))
        cross = rng.random(n_child) < CROSSOVER_RATE
        children = np.where(cross[:, None], pa + u * (pb - pa), pa)

        mutate = rng.random((n_child, dim)) < MUTATION_RATE
        children = children + mutate * rng.normal(0.0, MUTATION_SIGMA,
                                                  size=(n_child, dim))
        children = np.clip(children, 0.0, 1.0)

        pop = np.concatenate([elites, children], axis=0)
        fit = np.concatenate([elite_fit, _fitness(objective, children)])
        best_hist.append(fit.max())
    best = int(np.argmax(fit))
    return GAResult(x=pop[best].copy(), value=float(fit[best]),
                    best_history=np.maximum.accumulate(np.asarray(best_hist)))


# ---------------------------------------------------------------------------
# Closed-form objectives for the three searchable variable sets.
# ---------------------------------------------------------------------------

def optimize_rho(cache: SECache, eta, ga_cfg: GAConfig, rng, init=None) -> GAResult:
    """GA over the per-AP splitting factors with eta held fixed."""
    eta = np.asarray(eta, dtype=float)

    def objective(pop):
        return sum_se_batch(cache, pop, np.broadcast_to(eta, (len(pop),) + eta.shape))

    return ga_optimize(objective, eta.shape[1], ga_cfg, rng, init=init)


def optimize_eta(cache: SECache, rho, ga_cfg: GAConfig, rng, init=None) -> GAResult:
    """GA over the private power-control matrix with rho held fixed."""
    rho = np.asarray(rho, dtype=float)
    K = cache.p1.shape[0]
    L = rho.shape[0]

    def objective(pop):
        return sum_se_batch(cache, np.broadcast_to(rho, (len(pop), L)),
                            pop.reshape(len(pop), K, L))

    init_vecs = None if init is None else [np.asarray(e).ravel() for e in init]
    return ga_optimize(objective, K * L, ga_cfg, rng, init=init_vecs)


def optimize_joint(cache: SECache, ga_cfg: GAConfig, rng, init=None):
    """GA over rho and eta together. init takes PowerAllocation seeds.

    Returns (PowerAllocation, GAResult).
    """
    K, L = cache.mu_p.shape
    init_vecs = None if init is None else [a.to_vector() for a in init]
    res = ga_optimize(lambda pop: sum_se_vectors(cache, pop), L + K * L, ga_cfg, rng,
                      init=init_vecs)
    return PowerAllocation.from_vector(res.x, K, L), res


def best_on_grid(cache: SECache, rho, eta):
    """Score stacked allocations, rho (P, L) and eta (P, K, L), on the cache.

    Returns (best_alloc, value, values); only the winner becomes a
    PowerAllocation."""
    values = sum_se_batch(cache, rho, eta)
    best = int(np.argmax(values))
    return (PowerAllocation(rho=np.array(rho[best]), eta=np.array(eta[best])),
            float(values[best]), values)
