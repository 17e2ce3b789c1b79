"""Golden outputs: the files in tests/golden/ and how fresh outputs are
compared against them.

The golden set is every runner's CSV and sidecar at the tiny size of
test_every_runner_writes_reproducible_outputs, the stdout of
`cfrs validate --draws 50000` at seeds 7, 60 and 61, and what
`cfrs train --steps 50 --seed 60` writes: the SHA-256 of diffusion.npz and
the expert dataset. tests/record_golden.py rewrites them.

A number is compared at 1e-12 relative and everything between numbers
exactly: the algebra may reorder a sum, but a moved random stream shifts a
Monte Carlo value by about its standard error, far above that.
"""

import contextlib
import hashlib
import io
import re
from pathlib import Path

from cfrs import cli
from cfrs.experiments import FIGURE_PRESETS, ExperimentSpec

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12
VALIDATE_SEEDS = (7, 60, 61)
VALIDATE_ARGV = ["validate", "--draws", "50000", "--seed"]
TRAIN_ARGV = ["train", "--steps", "50", "--seed", "60", "--out-dir"]

_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def tiny_spec(experiment, out_dir):
    """The experiment's figure preset at the reproducibility test's size."""
    preset = next(p for p in FIGURE_PRESETS.values() if p.experiment == experiment)
    return ExperimentSpec(**{**preset.__dict__, "n_geometries": 2, "n_blocks": 200,
                             "ga_pop": 8, "ga_generations": 5, "train_steps": 600,
                             "out_dir": str(out_dir)})


def run_cli(argv):
    """(exit code, stdout) of one in-process cfrs command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def assert_matches(text, name):
    """Assert that text equals the golden file name: numbers at RTOL
    relative, the text between them exactly."""
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    got, want = _NUMBER.split(text), _NUMBER.split(golden)
    assert len(got) == len(want), f"{name}: {len(got)} tokens, golden has {len(want)}"
    for pos, (a, b) in enumerate(zip(got, want)):
        if pos % 2 == 0:
            assert a == b, f"{name}: text {a!r} where golden has {b!r}"
        else:
            x, y = float(a), float(b)
            assert abs(x - y) <= RTOL * max(abs(x), abs(y)), \
                f"{name}: {a} where golden has {b}"
