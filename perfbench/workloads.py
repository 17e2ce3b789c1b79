"""The benchmark's workloads.

Every workload runs closed loop in one process: one operation at a time, the
next one started when the previous one has returned. Inputs come from the
workload seed only. The workloads call the package through the quick-start
chain (``draw_geometry`` ... ``achievable_sum_se``) and through the ``cfrs``
command line in-process (``cfrs.cli.main(argv)``), the interfaces the
ROADMAP keeps.
"""

import contextlib
import csv
import io
import json
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from cfrs import cli
from cfrs.closed_form import PowerAllocation, build_cache, evaluate_cache, sum_se_batch
from cfrs.config import SystemConfig
from cfrs.estimation import assign_pilots, estimation_statistics
from cfrs.geometry import draw_geometry, link_statistics
from cfrs.monte_carlo import achievable_sum_se
from cfrs.rng import substream

DESK = dict(K=3, L=2, N=2, tau_p=2)
DENSE = dict(K=40, L=100, N=4, tau_p=10)
PAPER = dict(K=20, L=100, N=4, tau_p=10)
RHO_GRID = np.linspace(0.0, 0.99, 21)
MC_BLOCKS = 100            # four full 25-block chunks at paper scale
TRAIN_STEPS = 1000         # policy_train: steps of each `cfrs train`
CHECKPOINT_STEPS = 200     # policy_infer: steps of the set-up checkpoint
VALIDATE_DRAWS = 50000
# The packaged diffusion system (K=4 users, L=8 APs) and its training ranges.
POLICY_K, POLICY_L = 4, 8
KAPPA_RANGE_DB = (-10.0, 20.0)
ASD_RANGE_DEG = (5.0, 90.0)
TRAINING_ENVS = 48


@dataclass
class Outcome:
    """What one operation produced."""

    seconds: float                              # the timed part of the operation
    values: dict = field(default_factory=dict)  # every output, compared bit for bit
    closed: dict = field(default_factory=dict)  # closed-form values, checked to 1e-12
    mc: dict = field(default_factory=dict)      # name -> (mean, stderr)
    quality: dict = field(default_factory=dict) # higher-is-better scores
    errors: list = field(default_factory=list)  # violated invariants
    facts: dict = field(default_factory=dict)   # per-layer facts read from outputs


def op_seed(seed, i):
    """Seed of the i-th operation of a run: distinct within and across runs."""
    return seed + 1000 * i


def cli_call(argv):
    """Run ``cfrs <argv>`` in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code
    if rc != 0 and err.getvalue():
        out.write(err.getvalue())
    return rc, out.getvalue()


def _finite(errors, name, value):
    if not np.all(np.isfinite(value)):
        errors.append(f"{name} is not finite: {value!r}")


def _check_allocation(errors, where, result):
    rho = np.asarray(result.get("rho"), dtype=float)
    eta = np.asarray(result.get("eta"), dtype=float)
    if rho.shape != (POLICY_L,) or eta.shape != (POLICY_K, POLICY_L):
        errors.append(f"{where}: rho {rho.shape} / eta {eta.shape} have the wrong shape")
        return rho, eta
    for name, v in (("rho", rho), ("eta", eta)):
        if not (np.all(np.isfinite(v)) and np.all(v >= 0.0) and np.all(v <= 1.0)):
            errors.append(f"{where}: {name} leaves [0, 1]")
    return rho, eta


def drop_chain(scale, s):
    """One network drop through the quick-start chain up to the cache, then a
    21-point equal-split grid and the no-RS value on it."""
    cfg = SystemConfig(seed=s, **scale)
    geometry = draw_geometry(cfg, substream(s, "geometry"))
    stats = link_statistics(cfg, geometry)
    pilots = assign_pilots(cfg.K, cfg.tau_p, substream(s, "pilots"))
    est = estimation_statistics(stats, pilots, cfg)
    cache = build_cache(stats, est, pilots, cfg)
    P = len(RHO_GRID)
    grid = sum_se_batch(cache, np.repeat(RHO_GRID[:, None], cfg.L, axis=1),
                        np.ones((P, cfg.K, cfg.L)))
    no_rs = evaluate_cache(cache, PowerAllocation.no_rs(cfg.K, cfg.L)).sum_se
    return cfg, stats, pilots, est, np.asarray(grid, dtype=float), float(no_rs)


def _drop_errors(grid, no_rs):
    errors = []
    _finite(errors, "equal-split grid", grid)
    _finite(errors, "no-RS value", no_rs)
    # The grid holds rho = 0, the no-RS allocation; allow for roundoff between
    # the batched and the single evaluation.
    if grid.max() < no_rs * (1.0 - 1e-12):
        errors.append(f"best equal split {grid.max()!r} < no-RS {no_rs!r}")
    return errors


class Workload:
    name = ""
    traced_ops = 1

    def setup(self, seed, workdir):
        """Warm-up and anything the operations need; runs before timing."""

    def op(self, seed, i):
        raise NotImplementedError


class StatsDense(Workload):
    name = "stats_dense"
    traced_ops = 2

    def setup(self, seed, workdir):
        # A full-size drop: the first one in a process is ~30% slower while
        # its ~400 MB are touched for the first time.
        drop_chain(DENSE, op_seed(seed, -1))

    def op(self, seed, i):
        t0 = time.perf_counter()
        _, _, _, _, grid, no_rs = drop_chain(DENSE, op_seed(seed, i))
        seconds = time.perf_counter() - t0
        values = {"grid": grid, "no_rs": no_rs}
        return Outcome(seconds, values, closed=dict(values), errors=_drop_errors(grid, no_rs))


class McPaper(Workload):
    name = "mc_paper"
    traced_ops = 2

    def _run(self, scale, s, n_blocks):
        cfg, stats, pilots, est, grid, no_rs = drop_chain(scale, s)
        best = PowerAllocation.equal_split(cfg.K, cfg.L, RHO_GRID[int(np.argmax(grid))])
        rng = substream(s, "mc")
        reps = [achievable_sum_se(stats, est, pilots, cfg, alloc, n_blocks, rng)
                for alloc in (PowerAllocation.no_rs(cfg.K, cfg.L), best)]
        return grid, no_rs, reps

    def setup(self, seed, workdir):
        self._run(PAPER, op_seed(seed, -1), MC_BLOCKS)

    def op(self, seed, i):
        t0 = time.perf_counter()
        grid, no_rs, reps = self._run(PAPER, op_seed(seed, i), MC_BLOCKS)
        seconds = time.perf_counter() - t0
        mc = {"mc_no_rs": (reps[0].sum_se, reps[0].stderr),
              "mc_best_equal": (reps[1].sum_se, reps[1].stderr)}
        errors = _drop_errors(grid, no_rs)
        for name, (mean, se) in mc.items():
            _finite(errors, name, [mean, se])
            if not se > 0.0:
                errors.append(f"{name}: standard error {se!r} is not positive")
        values = {"grid": grid, "no_rs": no_rs, **{k: np.array(v) for k, v in mc.items()}}
        return Outcome(seconds, values, closed={"grid": grid, "no_rs": no_rs},
                       mc=mc, errors=errors)


def _train(workdir, steps, s):
    """`cfrs train`; returns (seconds, exit code, JSON, checkpoint, dataset)."""
    out_dir = tempfile.mkdtemp(prefix=f"train-{s}-", dir=workdir)
    t0 = time.perf_counter()
    rc, text = cli_call(["train", "--steps", steps, "--seed", s, "--out-dir", out_dir])
    seconds = time.perf_counter() - t0
    if rc != 0:
        return seconds, rc, text, None, None
    info = json.loads(text)
    written = info.get("written", [])
    ckpt = next((p for p in written if p.endswith(".npz")), None)
    dataset = next((p for p in written if p.endswith(".csv")), None)
    return seconds, rc, info, ckpt, dataset


def _infer(ckpt, kappa_db, asd_deg, s, evaluate):
    argv = ["infer", "--checkpoint", ckpt, "--kappa-db", kappa_db,
            "--asd-deg", asd_deg, "--seed", s]
    rc, text = cli_call(argv + (["--evaluate"] if evaluate else []))
    return rc, (json.loads(text) if rc == 0 else text)


class PolicyTrain(Workload):
    """One operation: `cfrs train`, then `cfrs infer --evaluate` at each
    training environment of the run's own expert dataset (not timed)."""

    name = "policy_train"

    def setup(self, seed, workdir):
        self.workdir = workdir
        drop_chain(DESK, seed)

    def op(self, seed, i):
        s = op_seed(seed, i)
        seconds, rc, info, ckpt, dataset = _train(self.workdir, TRAIN_STEPS, s)
        if rc != 0 or ckpt is None or dataset is None:
            return Outcome(seconds, errors=[f"train exited {rc}: {str(info)[:300]}"])
        errors = []
        _finite(errors, "final_loss", info["final_loss"])
        with open(dataset, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != TRAINING_ENVS:
            errors.append(f"expert dataset has {len(rows)} rows, not {TRAINING_ENVS}")
        expert = np.array([float(r["sum_se"]) for r in rows])
        policy, rhos, etas = [], [], []
        for r in rows:
            rc, result = _infer(ckpt, r["env_kappa_db"], r["env_asd_deg"], s, True)
            if rc != 0:
                errors.append(f"infer --evaluate exited {rc}: {result[:300]}")
                continue
            rho, eta = _check_allocation(errors, "infer --evaluate", result)
            rhos.append(rho)
            etas.append(eta)
            policy.append(float(result["sum_se"]))
        policy = np.array(policy)
        _finite(errors, "evaluated sum SE", policy)
        ratio = float(policy.mean() / expert.mean()) if len(policy) else 0.0
        values = {"final_loss": info["final_loss"], "expert_sum_se": expert,
                  "policy_sum_se": policy, "rho": np.array(rhos), "eta": np.array(etas)}
        facts = {"diffusion.steps": info["steps"], "diffusion.final_loss": info["final_loss"],
                 "diffusion.policy_se_ratio": ratio}
        return Outcome(seconds, values, closed={"expert_sum_se": expert},
                       quality={"policy_se_ratio": ratio}, errors=errors, facts=facts)


class PolicyInfer(Workload):
    """One operation: `cfrs infer` at an environment no other operation uses,
    on a checkpoint trained during set-up."""

    name = "policy_infer"
    traced_ops = 100

    def setup(self, seed, workdir):
        _, rc, info, self.ckpt, _ = _train(workdir, CHECKPOINT_STEPS, seed)
        if rc != 0 or self.ckpt is None:
            raise RuntimeError(f"set-up train exited {rc}: {info}")
        rc, result = _infer(self.ckpt, 0.0, 30.0, seed, False)
        if rc != 0:
            raise RuntimeError(f"warm-up infer exited {rc}: {result}")

    def op(self, seed, i):
        env = np.random.default_rng([seed, i])
        kappa_db = env.uniform(*KAPPA_RANGE_DB)
        asd_deg = env.uniform(*ASD_RANGE_DEG)
        t0 = time.perf_counter()
        rc, result = _infer(self.ckpt, repr(kappa_db), repr(asd_deg), seed, False)
        seconds = time.perf_counter() - t0
        if rc != 0:
            return Outcome(seconds, errors=[f"infer exited {rc}: {result[:300]}"])
        errors = []
        rho, eta = _check_allocation(errors, "infer", result)
        if result.get("in_training_range") is not True:
            errors.append("an environment inside the training range is reported outside")
        return Outcome(seconds, {"rho": rho, "eta": eta}, errors=errors)


class ValidateDesk(Workload):
    name = "validate_desk"

    def setup(self, seed, workdir):
        cli_call(["validate", "--draws", 2000, "--seed", seed])

    def op(self, seed, i):
        s = op_seed(seed, i)
        t0 = time.perf_counter()
        rc, text = cli_call(["validate", "--draws", VALIDATE_DRAWS, "--seed", s])
        seconds = time.perf_counter() - t0
        # Exit 3 means a Monte Carlo estimate missed its fixed relative
        # tolerance; at desk scale some drops have moments that are small
        # next to the sampling error, so that is a reported outcome, not a
        # fault. Faults are other exit codes and inconsistent reports.
        if rc not in (0, 3):
            return Outcome(seconds, errors=[f"validate exited {rc}: {text[:300]}"])
        report = json.loads(text)
        errors = []
        if (rc == 0) != bool(report["ok"]) or report["ok"] != all(c["ok"] for c in report["checks"]):
            errors.append(f"exit code {rc} disagrees with the report's ok flags")
        closed, estimate = [], []
        for c in report["checks"]:
            a, b = _complex(c["closed"]), _complex(c["monte_carlo"])
            closed.append([a.real, a.imag])
            estimate.append([b.real, b.imag])
            rel = abs(b - a) / max(abs(a), 1e-300)
            if not np.isclose(rel, c["rel_err"], rtol=1e-9, atol=0.0):
                errors.append(f"{c['name']}: rel_err {c['rel_err']!r} != {rel!r}")
            if c["ok"] != (c["rel_err"] <= c["tol"]):
                errors.append(f"{c['name']}: ok flag disagrees with rel_err and tol")
        closed, estimate = np.array(closed), np.array(estimate)
        _finite(errors, "closed moments", closed)
        _finite(errors, "Monte Carlo moments", estimate)
        values = {"closed": closed, "monte_carlo": estimate,
                  "ok": np.array([c["ok"] for c in report["checks"]])}
        return Outcome(seconds, values, closed={"closed": closed}, errors=errors)


def _complex(v):
    return complex(v["re"], v["im"]) if isinstance(v, dict) else complex(v)


WORKLOADS = {w.name: w for w in (StatsDense, McPaper, PolicyTrain, PolicyInfer, ValidateDesk)}
