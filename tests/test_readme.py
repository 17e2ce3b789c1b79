"""The README's quick start runs as written: the chain from geometry to the
closed-form bound and the simulated rate that the benchmark also calls. Its
prose calls name the parameters of the functions they call."""

import contextlib
import importlib
import inspect
import io
import math
import pkgutil
import re
from pathlib import Path

import cfrs

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


def _cfrs_names():
    """Every module of cfrs by name, and every function and class that a
    cfrs module defines, by name."""
    modules = {info.name: importlib.import_module(f"cfrs.{info.name}")
               for info in pkgutil.iter_modules(cfrs.__path__)}
    names = {name: obj for module in modules.values() for name, obj in vars(module).items()
             if callable(obj) and getattr(obj, "__module__", "").startswith("cfrs.")}
    return modules, names


def _resolve(dotted, modules, names):
    """The cfrs function or class that a dotted name such as
    `closed_form.build_cache` or `ChannelSampler.draw` names, else None."""
    parts = dotted.removeprefix("cfrs.").split(".")
    obj = modules.get(parts[0]) or names.get(parts[0])
    for part in parts[1:]:
        obj = getattr(obj, part, None)
    if inspect.isfunction(obj) or inspect.isclass(obj) or inspect.ismethod(obj):
        return obj if obj.__module__.startswith("cfrs.") else None
    return None


def _inline_calls(text):
    """(name, args) of every call written in backticks outside the fenced
    blocks: `name(a, b=c)` gives ("name", ["a", "b=c"]). A bracketed or
    quoted argument counts as one expression, `0`."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    for span in re.findall(r"`([^`]+)`", text):
        for name, args in re.findall(r"([A-Za-z_][\w.]*)\(([^()]*)\)", span):
            args = re.sub(r"\[[^\]]*\]|\"[^\"]*\"|'[^']*'", "0", args)
            yield name, [a.strip() for a in args.split(",") if a.strip()]


def test_readme_calls_use_current_signatures():
    """Every backticked call of a cfrs function or class in the README uses
    the names of that function's parameters: a positional name is the
    parameter at its position, a keyword is a parameter, and `...` stands
    for any run of arguments. A signature change that leaves the prose
    behind fails here."""
    modules, names = _cfrs_names()
    checked, stale = 0, []
    for name, args in _inline_calls(README.read_text()):
        obj = _resolve(name, modules, names)
        if obj is None:
            continue
        params = list(inspect.signature(obj).parameters)
        if params[:1] == ["self"]:          # a method named through its class
            params = params[1:]
        checked += 1
        call = f"{name}({', '.join(args)})"
        positional = [a for a in args if "=" not in a]
        keywords = [a.split("=")[0].strip() for a in args if "=" in a]
        if any(k not in params for k in keywords):
            stale.append(call)
        elif not any(a in ("...", "…") for a in positional) and (
                len(positional) > len(params)
                or any(a.isidentifier() and a != p for a, p in zip(positional, params))):
            stale.append(call)
    assert checked >= 15, checked
    assert stale == []
