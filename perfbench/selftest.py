"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

1. The recorded reference passes the output check and a perturbed one fails
   it, for every workload that has a reference, so the gate is live.
2. Every workload's traced run is correct, which includes traced and
   untraced outputs being bit-identical, and two traced runs report identical
   counts. The metric names match BENCHMARK.json.
3. An untraced run reports the end-to-end metrics named in BENCHMARK.json.
4. In a directory holding only BENCHMARK.json and the benchmark, the run
   exits nonzero without printing a result.

Exits nonzero at the first failed test. Takes about a minute and a half.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # first: it pins the BLAS threads before numpy is imported

import numpy as np  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(condition, message):
    if not condition:
        sys.exit(f"FAIL: {message}")
    print(f"ok: {message}", flush=True)


def perturbed(entry):
    """Copies of a reference entry, each with one value moved past its tolerance."""
    for name, values in entry["closed"].items():
        bad = copy.deepcopy(entry)
        moved = np.array(values, dtype=float)
        flat = moved.reshape(-1)
        flat[np.argmax(np.abs(flat))] *= 1.0 + 1e-9
        bad["closed"][name] = moved.tolist()
        yield f"closed {name}", bad
    for name, (mean, se) in entry["mc"].items():
        bad = copy.deepcopy(entry)
        bad["mc"][name] = [mean + 20.0 * se, se]
        yield f"mc {name}", bad
    for name, value in entry["quality"].items():
        bad = copy.deepcopy(entry)
        bad["quality"][name] = value + 2.0 * run.QUALITY_SLACK
        yield f"quality {name}", bad


def reference_gate():
    from workloads import WORKLOADS
    ref = json.loads((run.HERE / "reference.json").read_text())
    for name, entries in ref["workloads"].items():
        workload = WORKLOADS[name]()
        workdir = tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=run.OUT)
        try:
            workload.setup(ref["seed"], workdir)
            outcome, errors = run.run_op(workload, ref["seed"], 0, [])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        check(not errors, f"{name}: operation 0 passes its invariants")
        check(not run.reference_errors(outcome, entries[0]),
              f"{name}: operation 0 matches the recorded reference")
        for what, bad in perturbed(entries[0]):
            check(run.reference_errors(outcome, bad),
                  f"{name}: a perturbed reference ({what}) fails the check")


def bench(*args):
    """Run run.py; return its result, or None if it exited nonzero."""
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          cwd=str(run.ROOT), capture_output=True, text=True, timeout=900)
    return json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None


def traced_counts():
    names = {m["name"] for m in SPEC["per_layer"]}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        counts = []
        for _ in range(2):
            result = bench("--workload", workload, "--trace", "1")
            check(result is not None and result["correct"],
                  f"{workload}: traced run is correct and bit-identical to untraced")
            check(set(result["metrics"]) == names,
                  f"{workload}: traced metrics are the per_layer metrics")
            counts.append({k: m["value"] for k, m in result["metrics"].items()
                           if m["unit"] not in ("s", "%")})
        check(counts[0] == counts[1], f"{workload}: two traced runs report identical counts")


def end_to_end_names():
    result = bench("--workload", "stats_dense", "--seconds", "1")
    check(result is not None and result["correct"], "stats_dense: untraced run is correct")
    check(set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]},
          "untraced metrics are the end_to_end metrics")


def bare_directory():
    bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(SPEC["command"] + ["--workload", "stats_dense", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=str(bare), capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the package the run exits nonzero and prints no result")


def main():
    run.import_package()
    run.OUT.mkdir(exist_ok=True)
    bare_directory()
    reference_gate()
    end_to_end_names()
    traced_counts()
    print("all self-tests passed")


if __name__ == "__main__":
    main()
