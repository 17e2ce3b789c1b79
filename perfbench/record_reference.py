"""Record the reference outcomes that run.py checks at the default seed.

    python3 perfbench/record_reference.py

Run it from the root of a checkout of the commit whose results are the
reference; it rewrites perfbench/reference.json.
"""

import json
import shutil
import tempfile

import run

# Operations recorded per workload; policy_infer has no closed-form output.
RECORDED_OPS = {"stats_dense": 2, "mc_paper": 2, "policy_train": 1, "validate_desk": 2}


def _plain(value):
    return value.tolist() if hasattr(value, "tolist") else value


def main():
    run.import_package()
    from workloads import WORKLOADS
    run.OUT.mkdir(exist_ok=True)
    recorded = {}
    for name, n_ops in RECORDED_OPS.items():
        workload = WORKLOADS[name]()
        workdir = tempfile.mkdtemp(prefix=f"reference-{name}-", dir=run.OUT)
        try:
            workload.setup(run.DEFAULT_SEED, workdir)
            entries = []
            for i in range(n_ops):
                outcome, errors = run.run_op(workload, run.DEFAULT_SEED, i, [])
                if errors:
                    raise SystemExit(f"{name}: {errors}")
                entries.append({"closed": {k: _plain(v) for k, v in outcome.closed.items()},
                                "mc": {k: list(v) for k, v in outcome.mc.items()},
                                "quality": outcome.quality})
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        recorded[name] = entries
        print(f"{name}: {n_ops} operations recorded", flush=True)
    ref = {"seed": run.DEFAULT_SEED, "source": run.environment()["git_sha"],
           "workloads": recorded}
    (run.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
