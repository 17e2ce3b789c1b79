"""Command-line entry point.

Subcommands: run a config file, reproduce a figure-style sweep, train and
save the conditional optimizer, generate an allocation for an environment,
and validate the closed forms against their Monte Carlo estimators. A process
builds its parser once and reparses a checkpoint only when its bytes change,
so a repeated in-process infer costs about its reverse chain. validate
reads the first and second moments and the normalizers from the SECache the
optimizers score, and the Upsilon cross-moments from upsilon_moments, and
samples each of its six moments per block in one sample_moments pass. Reports
are strict JSON on stdout; errors print a single JSON object {"error":
message} to stderr and exit nonzero so scripts can parse failures. Exit codes:

    0  success
    1  invalid value or checkpoint (a non-finite weight too), I/O failure or
       non-finite report (ValueError, OSError)
    2  bad command line (unknown command or option, missing or malformed
       value), bad config or train option, unknown figure or missing file
       (UsageError, ConfigError, FileNotFoundError)
    3  validate: a Monte Carlo estimate missed its tolerance (report on stdout)
    4  degenerate statistics: a normalizer or SINR denominator is not positive
    5  channel estimation failed: a pilot observation covariance is not
       positive definite
    6  training diverged
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .closed_form import (DegenerateStatisticsError, PowerAllocation, build_cache,
                          sum_se_batch, upsilon_moments)
from .config import SystemConfig
from .diffusion import (Environment, TrainingError, load_checkpoint, reverse_sample,
                        save_checkpoint)
from .estimation import EstimationError
from .experiments import (DIFFUSION_SYSTEM, FIGURE_PRESETS, ConfigError,
                          ExperimentSpec, parse_config, run_experiment,
                          training_envs)
from .monte_carlo import sample_moments
from .rng import substream
from .scenario import EnvScenario, train_policy


def _fail(message, code=1):
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def _cmd_run(args):
    """run and reproduce: the spec comes from a config file or a figure preset."""
    if args.command == "run":
        spec = parse_config(args.config)
    elif args.figure in FIGURE_PRESETS:
        spec = FIGURE_PRESETS[args.figure]
    else:
        raise ConfigError(f"unknown figure id {args.figure!r}; "
                          f"expected one of {', '.join(sorted(FIGURE_PRESETS))}")
    if args.out_dir is not None:
        spec = replace(spec, out_dir=args.out_dir)
    print(json.dumps({"written": run_experiment(spec)}, allow_nan=False))
    return 0


def _cmd_train(args):
    spec = ExperimentSpec(train_steps=args.steps, train_lr=args.lr)
    _, dataset, trainer = train_policy(DIFFUSION_SYSTEM, args.seed, training_envs(),
                                       spec.ga_config, spec.train_lr)
    losses = trainer.run(spec.train_steps)
    os.makedirs(args.out_dir, exist_ok=True)
    ckpt = os.path.join(args.out_dir, "diffusion.npz")
    ds_path = os.path.join(args.out_dir, "expert_dataset.csv")
    save_checkpoint(ckpt, trainer.net, trainer.schedule)
    dataset.save_csv(ds_path)
    print(json.dumps({
        "written": [ckpt, ds_path],
        "steps": spec.train_steps,
        "final_loss": float(np.mean(losses[-min(200, len(losses)):])),
        "expert_mean_sum_se": float(dataset.sum_se.mean()),
    }, allow_nan=False))
    return 0


def _cmd_infer(args):
    env = Environment(args.kappa_db, args.asd_deg)
    net, schedule = load_checkpoint(args.checkpoint)
    system = DIFFUSION_SYSTEM
    K, L = system.K, system.L
    dim = L + K * L
    if net.dim != dim:
        raise ConfigError(f"checkpoint dimension {net.dim} does not match the "
                          f"packaged system (L + K*L = {dim})")
    x = reverse_sample(net, schedule, env, dim, substream(args.seed, "infer"))
    alloc = PowerAllocation.from_vector(x, K, L)
    result = {
        "kappa_db": args.kappa_db,
        "asd_deg": args.asd_deg,
        "in_training_range": env.in_training_range(),
        "rho": [float(v) for v in alloc.rho],
        "eta": [[float(v) for v in row] for row in alloc.eta],
    }
    if args.evaluate:
        scenario = EnvScenario(system, seed=args.seed)
        cache = scenario.cache(env)
        result["sum_se"] = float(sum_se_batch(cache, alloc.rho[None], alloc.eta[None])[0])
    print(json.dumps(result, allow_nan=False))
    return 0


def _inner(x, y):
    """x^H y over the last axis."""
    return np.sum(x.conj() * y, axis=-1)


def _validate_samples(C):
    """The per-block samples of validate's checks at AP 0, named as the
    checks, from (n, K, L, N) draws: a = g_00^H ghat_10 and |a|^2, the
    Upsilon4 and Upsilon5 samples of (k, i, j) = (0, 1, 2) with C_00 = C,
    and the two precoder norms."""
    def samples(g, ghat):
        h = ghat[:, :, 0]                                       # (n, K, N)
        a = _inner(g[:, 0, 0], h[:, 1])
        return {"first_moment[0,1,0]": a,
                "second_moment[0,1,0]": np.abs(a) ** 2,
                "upsilon4[0,1,2,0]": _inner(h[:, 0], h[:, 1]).conj() * _inner(h[:, 0], h[:, 2]),
                "upsilon5[0,1,2,0]": _inner(h[:, 1], h[:, 2] @ C.T),
                "common_normalizer[0]": np.sum(np.abs(h.sum(axis=1)) ** 2, axis=-1),
                "private_normalizer[0,0]": np.sum(np.abs(h[:, 0]) ** 2, axis=-1)}
    return samples


def _cmd_validate(args):
    cfg = SystemConfig(K=3, L=2, N=2, tau_p=2, seed=args.seed)
    scenario = EnvScenario(cfg)
    est = scenario.drop_statistics()
    # The cache draws nothing, so building it first fails a degenerate drop
    # before the sampling pass and leaves the stream where it was.
    cache = build_cache(est.stats, est, scenario.pilots, cfg)
    m = sample_moments(est, _validate_samples(est.C[0, 0]), args.draws,
                       substream(args.seed, "mc"))
    first = cache.p1[0, 1, 0]
    u4, u5 = upsilon_moments(0, 1, 2, 0, est)

    checks = []
    for name, closed, tol in [
            ("first_moment[0,1,0]", first, 0.01),
            ("second_moment[0,1,0]", abs(first) ** 2 + cache.p2[0, 1, 0], 0.02),
            ("upsilon4[0,1,2,0]", u4, 0.02),
            ("upsilon5[0,1,2,0]", u5, 0.02),
            ("common_normalizer[0]", 1.0 / cache.mu_c[0], 0.02),
            ("private_normalizer[0,0]", 1.0 / cache.mu_p[0, 0], 0.02)]:
        estimate, err = m[name]
        rel = abs(estimate - closed) / max(abs(closed), 1e-300)
        checks.append({"name": name, "closed": _c2j(closed), "monte_carlo": _c2j(estimate),
                       "stderr": float(err), "rel_err": float(rel), "tol": tol,
                       "ok": bool(rel <= tol)})

    ok = all(c["ok"] for c in checks)
    print(json.dumps({"ok": ok, "draws": args.draws, "checks": checks}, indent=2,
                     allow_nan=False))
    return 0 if ok else 3


def _c2j(value):
    value = complex(value)
    if value.imag == 0.0:
        return value.real
    return {"re": value.real, "im": value.imag}


class UsageError(Exception):
    """A command line argparse rejects: unknown command or option, missing
    or malformed value."""


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as UsageError, which main turns into the JSON
    error contract (exit 2), instead of printing usage text and exiting.
    Subparsers are built with the parser's own class, so they report alike;
    --help still prints and exits 0."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The cfrs parser, built by the first call and shared by every later
    one; parse_args reads it and never changes it."""
    parser = _Parser(
        prog="cfrs",
        description="Rate-splitting cell-free massive MIMO simulator and optimizer")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment described by a config file")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--out-dir", default=None, help="override the output directory")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("reproduce", help="run a packaged figure-style sweep")
    p_rep.add_argument("figure", help="figure id, fig2 through fig9")
    p_rep.add_argument("--out-dir", default=None, help="override the output directory")
    p_rep.set_defaults(func=_cmd_run)

    p_train = sub.add_parser("train", help="build the expert dataset and train the optimizer")
    p_train.add_argument("--steps", type=int, default=30000)
    p_train.add_argument("--lr", type=float, default=1e-3)
    p_train.add_argument("--seed", type=int, default=60,
                         help="seeds the network drop, the GA experts and the training")
    p_train.add_argument("--out-dir", default="results")
    p_train.set_defaults(func=_cmd_train)

    p_inf = sub.add_parser("infer", help="generate an allocation for an environment")
    p_inf.add_argument("--kappa-db", type=float, required=True)
    p_inf.add_argument("--asd-deg", type=float, required=True)
    p_inf.add_argument("--checkpoint", default="results/diffusion.npz")
    p_inf.add_argument("--seed", type=int, default=60,
                       help="seeds the reverse chain; with --evaluate it also picks the "
                            "drop the allocation is scored on, so pass the seed the "
                            "checkpoint was trained with to score it on its own drop")
    p_inf.add_argument("--evaluate", action="store_true",
                       help="also report the closed-form sum SE on the drop of --seed")
    p_inf.set_defaults(func=_cmd_infer)

    p_val = sub.add_parser("validate", help="check closed-form moments against Monte Carlo")
    p_val.add_argument("--draws", type=int, default=200000)
    p_val.add_argument("--seed", type=int, default=7)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        return _fail(str(exc), code=2)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(str(exc), code=2)
    except FileNotFoundError as exc:
        return _fail(f"file not found: {exc.filename}", code=2)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), code=1)
    except DegenerateStatisticsError as exc:
        return _fail(f"degenerate statistics: {exc}", code=4)
    except EstimationError as exc:
        return _fail(f"channel estimation failed: {exc}", code=5)
    except TrainingError as exc:
        return _fail(f"training failed: {exc}", code=6)


if __name__ == "__main__":
    sys.exit(main())
