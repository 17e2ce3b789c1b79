"""Rewrite the golden outputs in tests/golden/ from the current tree.

    PYTHONPATH=src python tests/record_golden.py

A change that moves an output reruns this and lists each moved file, with
its worst relative move, in CHANGES.md.
"""

import shutil
import tempfile
from pathlib import Path

from golden import (GOLDEN_DIR, TRAIN_ARGV, VALIDATE_ARGV, VALIDATE_SEEDS, run_cli,
                    sha256, tiny_spec)

from cfrs.experiments import EXPERIMENT_IDS, run_experiment


def main():
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for experiment in EXPERIMENT_IDS:
            for path in run_experiment(tiny_spec(experiment, Path(tmp) / experiment)):
                shutil.copyfile(path, GOLDEN_DIR / Path(path).name)
        for seed in VALIDATE_SEEDS:
            rc, out = run_cli(VALIDATE_ARGV + [str(seed)])
            if rc != 0:
                raise SystemExit(f"validate --seed {seed} exited {rc}")
            (GOLDEN_DIR / f"validate_seed{seed}.json").write_text(out, encoding="utf-8")
        train = Path(tmp) / "train"
        rc, _ = run_cli(TRAIN_ARGV + [str(train)])
        if rc != 0:
            raise SystemExit(f"train exited {rc}")
        shutil.copyfile(train / "expert_dataset.csv", GOLDEN_DIR / "expert_dataset.csv")
        (GOLDEN_DIR / "diffusion.npz.sha256").write_text(
            sha256(train / "diffusion.npz") + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
