"""Experiment orchestration: figure-style sweeps emitting CSV files.

Every experiment writes exactly one CSV (fixed column set per experiment id)
plus a JSON sidecar holding the fully resolved configuration and seed, so a
result file can always be traced back to the run that produced it. All
randomness flows from the single spec seed through named substreams; reruns
of the same spec are byte-identical. A geometry sweep maps one item per
(setting, drop) to {row key: values}, keys in CSV row order, and writes each
key with the means of its values over the drops. The items can be dispatched
to a process pool sized by the CFRS_WORKERS environment variable without
changing any output.
"""

import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import get_args, get_origin

import numpy as np

from .allocation import (GAConfig, best_on_grid, heuristic_control, heuristic_split,
                         optimize_eta, optimize_rho)
from .closed_form import PowerAllocation, build_cache, evaluate_cache, sum_se_vectors
from .config import SystemConfig
from .diffusion import Environment, reverse_sample
from .estimation import perfect_csi_statistics
from .monte_carlo import achievable_sum_se
from .rng import substream
from .scenario import DEFAULT_RHO_GRID, EnvScenario, train_policy

# Small network used for the conditional-optimizer experiments. The
# statistical heuristics need an AP-rich drop to behave as designed, so this
# keeps eight access points while shrinking the antenna count.
DIFFUSION_SYSTEM = SystemConfig(K=4, L=8, N=2, tau_p=2, seed=60)
TRAIN_KAPPAS_DB = tuple(float(x) for x in np.arange(-10.0, 19.0, 4.0))
TRAIN_ASDS_DEG = tuple(float(x) for x in np.arange(5.0, 81.0, 15.0))
HELD_OUT_KAPPAS_DB = (-8.0, 0.0, 8.0, 16.0)
HELD_OUT_ASDS_DEG = (12.5, 42.5, 72.5)


class ConfigError(ValueError):
    """Raised for config-file syntax or constraint problems."""


@dataclass(frozen=True)
class ExperimentSpec:
    experiment: str = "cdf"
    system: SystemConfig = field(default_factory=SystemConfig)
    seed: int = 1
    out_dir: str = "results"
    n_geometries: int = 50
    n_blocks: int = 10000
    rho_grid: tuple[float, ...] = DEFAULT_RHO_GRID
    power_grid_dbm: tuple[float, ...] = (3.0, 13.0, 23.0, 33.0, 43.0)
    ap_grid: tuple[int, ...] = (4, 8, 12, 16, 20)
    kappa_grid_db: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    ue_grid: tuple[int, ...] = (4, 6)
    ga_pop: int = 24
    ga_generations: int = 60
    train_steps: int = 30000
    train_lr: float = 1e-3

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ConfigError(f"unknown experiment id {self.experiment!r}; "
                              f"expected one of {', '.join(EXPERIMENT_IDS)}")
        # Monte Carlo needs two blocks for a standard error.
        for name, least in (("n_geometries", 1), ("n_blocks", 2),
                            ("ga_generations", 1), ("train_steps", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}")
        for f in fields(self):
            if get_origin(f.type) is not tuple:
                continue
            grid = getattr(self, f.name)
            if len(grid) == 0:
                raise ConfigError(f"{f.name} must not be empty")
            if not all(math.isfinite(v) for v in grid):
                raise ConfigError(f"{f.name} must hold finite values")
            # A grid value keys its CSV rows, so a repeat would merge rows.
            if len(set(grid)) != len(grid):
                raise ConfigError(f"{f.name} must not repeat a value")
        if not all(0.0 <= r <= 1.0 for r in self.rho_grid):
            raise ConfigError("rho_grid must hold values in [0, 1]")
        # The sweeps use these entries as the drops' L and K.
        for name in ("ap_grid", "ue_grid"):
            if min(getattr(self, name)) < 1:
                raise ConfigError(f"{name} must hold values of at least 1")
        if not (math.isfinite(self.train_lr) and self.train_lr > 0):
            raise ConfigError("train_lr must be positive and finite")
        try:
            self.ga_config
        except ValueError as exc:
            raise ConfigError(f"ga_pop must be a valid GA population size: {exc}") from exc

    @property
    def ga_config(self):
        return GAConfig(pop_size=self.ga_pop, generations=self.ga_generations)


# -- config file handling -----------------------------------------------------

# Every field but the nested system is a config key, parsed by its annotation.
# Spec fields come last, so the spec's seed shadows the system's.
_KEYS = {f.name: (cls, f.type) for cls in (SystemConfig, ExperimentSpec)
         for f in fields(cls) if f.type is not SystemConfig}


def _parse_value(key, raw, lineno, kind):
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return tuple(_parse_value(key, p.strip(), lineno, item)
                     for p in raw.split(",") if p.strip())
    try:
        if kind is bool:
            if raw.lower() in ("true", "false"):
                return raw.lower() == "true"
            raise ValueError
        return kind(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse {key} = {raw!r} as {kind.__name__}")


def parse_config_text(text, path="<config>"):
    """Parse `key = value` lines into an ExperimentSpec.

    Blank lines and '#' comments are skipped; unknown keys and malformed
    values are rejected with the offending line number; field constraints are
    reported with the field name. An empty file yields the full defaults.
    """
    kwargs = {SystemConfig: {}, ExperimentSpec: {}}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if not raw:
            raise ConfigError(f"{path}: line {lineno}: empty value for {key!r}")
        if key not in _KEYS:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        cls, kind = _KEYS[key]
        kwargs[cls][key] = _parse_value(key, raw, lineno, kind)
    try:
        system = SystemConfig(**kwargs[SystemConfig])
        return ExperimentSpec(system=system, **kwargs[ExperimentSpec])
    except ValueError as exc:  # constraint violations carry the field name
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), path=str(path))


# -- shared plumbing ----------------------------------------------------------

def _pmap(fn, items):
    """Map fn over items, optionally on a process pool (CFRS_WORKERS).

    Results come back in input order and every item derives its own RNG
    substream, so the worker count never changes the output.
    """
    items = list(items)
    raw = os.environ.get("CFRS_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"CFRS_WORKERS must be an integer, got {raw!r}") from None
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_report(spec: ExperimentSpec, columns, rows, extra=None):
    os.makedirs(spec.out_dir, exist_ok=True)
    csv_path = os.path.join(spec.out_dir, f"{spec.experiment}.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    parameters = asdict(spec)
    for name in ("experiment", "seed", "system", "out_dir"):
        del parameters[name]
    system = asdict(spec.system)
    if system["rician_db"] == -math.inf:
        system["rician_db"] = "-inf"  # Rayleigh fading, spelled as in configs
    meta = {
        "experiment": spec.experiment,
        "seed": spec.seed,
        "system": system,
        "parameters": parameters,
        "columns": list(columns),
        "rows": len(rows),
    }
    if extra:
        meta.update(extra)
    sidecar_path = csv_path + ".json"
    with open(sidecar_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return [csv_path, sidecar_path]


def _scenario(cfg: SystemConfig, seed, tag, index):
    """Drop number index of a sweep, on the sweep's own substreams."""
    return EnvScenario(cfg, rngs=(substream(seed, tag, "geometry", str(index)),
                                  substream(seed, tag, "pilots", str(index))))


# -- geometry sweeps -----------------------------------------------------------

def _cdf_item(args):
    spec, g = args
    cfg = spec.system
    scenario = _scenario(cfg, spec.seed, "cdf", g)
    est = scenario.drop_statistics()
    cache = build_cache(est.stats, est, scenario.pilots, cfg)
    no_rs = PowerAllocation.no_rs(cfg.K, cfg.L)
    rs, _, _ = scenario.best_equal_split(cache, spec.rho_grid)
    # (sum SE, MC standard error); the closed-form bound has none.
    out = {}
    out[(g, "uatf_no_rs")] = (evaluate_cache(cache, no_rs).sum_se, 0.0)
    out[(g, "uatf_rs")] = (evaluate_cache(cache, rs).sum_se, 0.0)
    mc_rng = substream(spec.seed, "cdf", "mc", str(g))
    for variant, alloc in (("achievable_no_rs", no_rs), ("achievable_rs", rs)):
        rep = achievable_sum_se(est.stats, est, scenario.pilots, cfg, alloc, spec.n_blocks,
                                mc_rng)
        out[(g, variant)] = (rep.sum_se, rep.stderr)
    return out


def _power_item(args):
    spec, g = args
    cfg0 = spec.system
    scenario = _scenario(cfg0, spec.seed, "power", g)
    # The estimates do not depend on the downlink power.
    est_i = scenario.drop_statistics()
    est_p = perfect_csi_statistics(est_i.stats)
    no_rs = PowerAllocation.no_rs(cfg0.K, cfg0.L)
    # Nor do the cache fields: each power reprices one cache per CSI case.
    cases = [(csi, est, build_cache(est.stats, est, scenario.pilots, cfg0))
             for csi, est in (("imperfect", est_i), ("perfect", est_p))]
    out = {}
    for p_dbm in spec.power_grid_dbm:
        cfg = replace(cfg0, p_dl_dbm=float(p_dbm))
        for csi, est, cache0 in cases:
            cache = replace(cache0, p_dl=cfg.p_dl_mw)
            rs, _, _ = scenario.best_equal_split(cache, spec.rho_grid)
            for variant, alloc in (("no_rs", no_rs), ("rs", rs)):
                rep = achievable_sum_se(est.stats, est, scenario.pilots, cfg, alloc,
                                        spec.n_blocks,
                                        substream(spec.seed, "power", "mc",
                                                  str(g), csi, variant, repr(float(p_dbm))))
                # The squared error; _pooled_stderr turns its mean into the
                # standard error of the mean over drops.
                out[(float(p_dbm), csi, variant)] = (
                    evaluate_cache(cache, alloc).sum_se, rep.sum_se, rep.stderr ** 2)
    return out


def _pooled_stderr(spec, row):
    return (*row[:-1], np.sqrt(row[-1] / spec.n_geometries))


def _split_item(args):
    spec, g = args
    out = {}
    for channel in ("rician", "rayleigh"):
        cfg = spec.system if channel == "rician" else \
            replace(spec.system, rician_db=float("-inf"))
        scenario = _scenario(cfg, spec.seed, f"split-{channel}", g)
        cache = scenario.cache()
        eta_equal = np.ones((cfg.K, cfg.L))
        eta_batch = np.broadcast_to(eta_equal, (len(spec.rho_grid),) + eta_equal.shape)
        equal_best, _, equal = scenario.best_equal_split(cache, spec.rho_grid)
        heur_best, _, heur = best_on_grid(cache, heuristic_split(scenario.zeta, spec.rho_grid),
                                          eta_batch)
        res = optimize_rho(cache, eta_equal, spec.ga_config,
                           substream(spec.seed, f"split-{channel}", "ga", str(g)),
                           init=[equal_best.rho, heur_best.rho])
        for i, rho0 in enumerate(spec.rho_grid):
            for variant, value in (("equal", equal[i]), ("heuristic", heur[i]),
                                   ("ga", res.value)):
                out[(channel, float(rho0), variant)] = (value,)
    return out


def _control_item(args):
    spec, g = args
    cfg = spec.system
    K, L = cfg.K, cfg.L
    scenario = _scenario(cfg, spec.seed, "control", g)
    cache = scenario.cache()
    eta_equal = np.ones((K, L))
    eta_heur = heuristic_control(scenario.zeta)
    rhos = np.repeat(np.asarray(spec.rho_grid, dtype=float)[:, None], L, axis=1)
    _, _, equal = scenario.best_equal_split(cache, spec.rho_grid)
    _, _, heur = best_on_grid(cache, rhos, np.broadcast_to(eta_heur, (len(rhos), K, L)))
    out = {}
    for i, rho0 in enumerate(spec.rho_grid):
        res = optimize_eta(cache, rhos[i], spec.ga_config,
                           substream(spec.seed, "control", "ga", str(g), repr(float(rho0))),
                           init=[eta_equal.ravel(), eta_heur.ravel()])
        for variant, value in (("equal", equal[i]), ("heuristic", heur[i]),
                               ("ga", res.value)):
            out[(float(rho0), variant)] = (value,)
    return out


def _ap_item(args):
    spec, n_aps, g = args
    cfg = replace(spec.system, L=int(n_aps))
    scenario = _scenario(cfg, spec.seed, f"ap-{n_aps}", g)
    cache = scenario.cache()
    no_rs = scenario.no_rs_value(cache)
    _, rs, _ = scenario.best_equal_split(cache, spec.rho_grid)
    _, rs_heur, _ = scenario.best_heuristic(cache, spec.rho_grid)
    return {(int(n_aps), "no_rs"): (no_rs,), (int(n_aps), "rs"): (rs,),
            (int(n_aps), "rs_heuristic"): (rs_heur,)}


def _rician_item(args):
    spec, kappa_db, n_ues, g = args
    cfg = replace(spec.system, K=int(n_ues), tau_p=max(1, int(n_ues) // 2),
                  rician_db=float(kappa_db))
    scenario = _scenario(cfg, spec.seed, f"rician-{n_ues}-{kappa_db}", g)
    cache = scenario.cache()
    no_rs = scenario.no_rs_value(cache)
    _, rs, _ = scenario.best_equal_split(cache, spec.rho_grid)
    key = (float(kappa_db), int(n_ues))
    return {(*key, "no_rs"): (no_rs,), (*key, "rs"): (rs,)}


def _mean_rows(results):
    """Merge the items' {row key: values} in first-seen key order into rows
    (*key, *per-column means). Each mean runs over a 1-D sequence in drop
    order, which fixes the summation order and so the last bits."""
    merged = {}
    for out in results:
        for key, values in out.items():
            merged.setdefault(key, []).append(values)
    return [(*key, *(np.mean(column) for column in zip(*values)))
            for key, values in merged.items()]


def _sweep(item, columns, settings=lambda spec: [()], finish=None):
    """Runner that maps item over spec.n_geometries drops at every setting,
    passing (spec, *setting, drop index), and averages its rows over drops."""
    def run(spec):
        rows = _mean_rows(_pmap(item, [(spec, *setting, g) for setting in settings(spec)
                                       for g in range(spec.n_geometries)]))
        return columns, [finish(spec, row) for row in rows] if finish else rows, None
    return run


def training_envs():
    return [Environment(k, a) for k in TRAIN_KAPPAS_DB for a in TRAIN_ASDS_DEG]


def held_out_envs():
    return [Environment(k, a) for k in HELD_OUT_KAPPAS_DB for a in HELD_OUT_ASDS_DEG]


def _train_policy(spec):
    return train_policy(spec.system, spec.seed, training_envs(), spec.ga_config,
                        spec.train_lr)


def _run_train_diffusion(spec):
    scenario, dataset, trainer = _train_policy(spec)
    held = held_out_envs()
    caches = [scenario.cache(env) for env in held]
    eval_every = max(500, spec.train_steps // 40)
    rows = []
    done = 0
    while done < spec.train_steps:
        n = min(eval_every, spec.train_steps - done)
        trainer.run(n)
        done += n
        window = trainer.window_loss()
        values = []
        for i, env in enumerate(held):
            x = reverse_sample(trainer.net, trainer.schedule, env, trainer.net.dim,
                               substream(spec.seed, "eval", str(done), str(i)))
            values.append(sum_se_vectors(caches[i], x[None])[0])
        rows.append((done, window, float(np.mean(values))))
    extra = {"expert_mean_sum_se": float(dataset.sum_se.mean())}
    return ("step", "loss_window_mean", "held_out_mean_sum_se"), rows, extra


def _run_eval_dynamic(spec):
    scenario, dataset, trainer = _train_policy(spec)
    trainer.run(spec.train_steps)
    rows = []
    for i, env in enumerate(held_out_envs()):
        cache = scenario.cache(env)
        no_rs = scenario.no_rs_value(cache)
        _, heur, _ = scenario.best_heuristic(cache)
        x = reverse_sample(trainer.net, trainer.schedule, env, trainer.net.dim,
                           substream(spec.seed, "sample", str(i)))
        diff = float(sum_se_vectors(cache, x[None])[0])
        _, expert = scenario.expert(cache, spec.ga_config,
                                    substream(spec.seed, "held-expert", str(i)),
                                    candidates=dataset.x0)
        for variant, value in (("no_rs", no_rs), ("heuristic", heur),
                               ("diffusion", diff), ("expert", expert)):
            rows.append((env.kappa_db, env.asd_deg, variant, float(value)))
    return ("env_kappa_db", "env_asd_deg", "variant", "sum_se"), rows, None


_RUNNERS = {
    "cdf": _sweep(_cdf_item, ("geometry_id", "variant", "sum_se", "stderr")),
    "power_sweep": _sweep(_power_item, ("p_dl_dbm", "csi", "variant", "sum_se_uatf",
                                        "sum_se_achievable", "achievable_stderr"),
                          finish=_pooled_stderr),
    "rho_sweep_split": _sweep(_split_item, ("channel", "rho0", "variant", "sum_se")),
    "rho_sweep_control": _sweep(_control_item, ("rho0", "variant", "sum_se")),
    "ap_sweep": _sweep(_ap_item, ("n_aps", "variant", "sum_se"),
                       settings=lambda spec: [(n,) for n in spec.ap_grid]),
    "rician_sweep": _sweep(_rician_item, ("kappa_db", "n_ues", "variant", "sum_se"),
                           settings=lambda spec: itertools.product(spec.kappa_grid_db,
                                                                   spec.ue_grid)),
    "train_diffusion": _run_train_diffusion,
    "eval_dynamic": _run_eval_dynamic,
}
EXPERIMENT_IDS = tuple(_RUNNERS)

# reproduce <figure-id> presets: one spec per figure-style sweep
FIGURE_PRESETS = {
    "fig2": ExperimentSpec(experiment="cdf"),
    "fig3": ExperimentSpec(experiment="power_sweep", n_geometries=10, n_blocks=4000),
    "fig4": ExperimentSpec(experiment="rho_sweep_split", n_geometries=20),
    "fig5": ExperimentSpec(experiment="rho_sweep_control", n_geometries=10),
    "fig6": ExperimentSpec(experiment="ap_sweep", n_geometries=20),
    "fig7": ExperimentSpec(experiment="rician_sweep", n_geometries=20),
    "fig8": ExperimentSpec(experiment="train_diffusion", system=DIFFUSION_SYSTEM, seed=60),
    "fig9": ExperimentSpec(experiment="eval_dynamic", system=DIFFUSION_SYSTEM, seed=60),
}


def run_experiment(spec: ExperimentSpec):
    """Execute one experiment; returns the list of files written."""
    columns, rows, extra = _RUNNERS[spec.experiment](spec)
    return _write_report(spec, columns, rows, extra)
