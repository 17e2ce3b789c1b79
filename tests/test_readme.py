"""The README's quick start runs as written: the chain from geometry to the
closed-form bound and the simulated rate that the benchmark also calls."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    bound_line, rate_line = out.getvalue().splitlines()
    bound = float(bound_line)
    rate, sep, stderr = rate_line.split()
    rate, stderr = float(rate), float(stderr)
    assert sep == "+/-"
    assert all(math.isfinite(x) and x > 0 for x in (bound, rate, stderr))
    assert stderr < 0.01 * rate
