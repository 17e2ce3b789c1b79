"""Span tracing of the cfrs layers, installed from outside the package.

Each target function or method is replaced, at every cfrs module namespace
that binds it, by a wrapper that records a span (name, start, end, parent) in
memory. Hooks read exact work counts from the arguments or the result.
Nothing inside ``src/`` is edited; ``uninstall`` restores every original.
"""

import functools
import sys
import time

import numpy as np


def _rows(tr, args, kwargs, result):
    rho = args[1] if len(args) > 1 else kwargs["rho"]
    tr.add("closed_form.sum_se_batch.rows", np.shape(rho)[0])


def _blocks(tr, args, kwargs, result):
    n = int(args[1] if len(args) > 1 else kwargs["n"])
    tr.add("monte_carlo.blocks", n)
    tr.peak("monte_carlo.blocks_per_chunk", n)


def _stats_mb(tr, args, kwargs, result):
    nbytes = sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))
    tr.peak("estimation.stats_mb", nbytes / 1e6)


def _ga_history(tr, args, kwargs, result):
    hist = np.asarray(result.best_history)
    tr.add("allocation.ga.rises", int(np.count_nonzero(np.diff(hist) > 0)))
    tr.add("allocation.ga.generations", max(len(hist) - 1, 0))


# Target name -> hook(tracer, args, kwargs, result) or None. The first
# component names the module where the function lives today; a target moved
# to another cfrs module is still found, and a missing one is reported absent.
TARGETS = {
    "geometry.draw_geometry": None,
    "geometry.link_statistics": None,
    "estimation.estimation_statistics": _stats_mb,
    "closed_form.build_cache": None,
    "closed_form.sum_se_batch": _rows,
    "closed_form.evaluate_cache": None,
    "monte_carlo.achievable_sum_se": None,
    "monte_carlo.ChannelSampler.__init__": None,
    "monte_carlo.ChannelSampler.draw": _blocks,
    "monte_carlo.build_precoders": None,
    "monte_carlo.instantaneous_sinrs": None,
    "monte_carlo.mc_moment_estimators": None,
    "rng.complex_normal": None,
    "allocation.ga_optimize": _ga_history,
    "allocation.optimize_joint": None,
    "scenario.EnvScenario.cache": None,
    "scenario.EnvScenario.expert": None,
    "scenario.build_expert_dataset": None,
    "diffusion.EpsNetwork.loss_and_grads": None,
    "diffusion.EpsNetwork.__call__": None,
    "diffusion.Adam.step": None,
    "diffusion.DiffusionTrainer.step": None,
    "diffusion.load_checkpoint": None,
    "diffusion.reverse_sample": None,
    "cli.main": None,
}


def _cfrs_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cfrs" or name.startswith("cfrs."))]


def _lookup(modules, target):
    """Return (owner, attribute, original) for a target, or None if absent."""
    home, *path = target.split(".")
    ordered = sorted(modules, key=lambda m: m.__name__ != f"cfrs.{home}")
    for module in ordered:
        owner = module
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        if owner is None:
            continue
        if isinstance(owner, type):
            if path[-1] in owner.__dict__:
                return owner, path[-1], owner.__dict__[path[-1]]
        elif callable(getattr(owner, path[-1], None)):
            return owner, path[-1], getattr(owner, path[-1])
    return None


class Tracer:
    """Holds spans and counters in memory until the run ends."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self.counts = {}
        self.absent = []
        self._stack = []
        self._patches = []    # (owner, attribute, original)

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name, value):
        self.counts[name] = max(self.counts.get(name, value), value)

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # The signature or result type changed: report the
                    # counter as absent instead of failing the operation.
                    if f"{name} (counts)" not in self.absent:
                        self.absent.append(f"{name} (counts)")
            return result

        return traced

    def install(self, callers=()):
        """Wrap every target at every namespace that binds it: the cfrs
        modules and the caller modules given, such as the benchmark's own."""
        modules = _cfrs_modules()
        self.absent = []
        for name, hook in TARGETS.items():
            found = _lookup(modules, name)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapped = self._wrap(name, original, hook)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in modules + list(callers):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def layer_totals(self):
        """Per target: (calls, self seconds). Self time is the span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + (end - start) - child[i])
        return totals

    def dump(self):
        return {"absent": self.absent, "counts": self.counts,
                "spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.spans]}
