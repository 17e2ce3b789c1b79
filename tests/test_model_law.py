"""The rate-splitting model is stated once, in closed_form: the closed form
and the Monte Carlo both route through its SINR law and its rate law, a
zero denominator fails loudly on either, and no other code in the package
restates either law."""

import ast
import pathlib
import types

import numpy as np
import pytest

from cfrs import closed_form, monte_carlo
from cfrs.closed_form import (DegenerateStatisticsError, PowerAllocation, evaluate_cache,
                              normalization_coeffs, sinr_law, sum_se_batch)
from cfrs.monte_carlo import ChannelSampler, achievable_sum_se
from cfrs.rng import substream
from conftest import fresh_estimates, fresh_sinrs

LAWS = ("sinr_law", "rate_law")

EVALUATORS = {
    "sum_se_batch": lambda cfg, stats, est, pilots, cache, alloc:
        sum_se_batch(cache, alloc.rho[None], alloc.eta[None]),
    "evaluate_cache": lambda cfg, stats, est, pilots, cache, alloc:
        evaluate_cache(cache, alloc),
    "achievable_sum_se": lambda cfg, stats, est, pilots, cache, alloc:
        achievable_sum_se(stats, est, pilots, cfg, alloc, 4, substream(5, "mc")),
}


@pytest.mark.parametrize("evaluator", EVALUATORS)
def test_evaluators_route_through_the_laws(evaluator, desk_pieces, desk_cache, monkeypatch):
    """Counting wrappers, bound at every module that names the laws, see
    each evaluator call both."""
    calls = dict.fromkeys(LAWS, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in LAWS:
        wrapper = counted(name, getattr(closed_form, name))
        for module in (closed_form, monte_carlo):
            monkeypatch.setattr(module, name, wrapper)
    cfg, stats, est, pilots = desk_pieces
    alloc = PowerAllocation.equal_split(cfg.K, cfg.L, 0.3)
    EVALUATORS[evaluator](cfg, stats, est, pilots, desk_cache, alloc)
    assert all(calls[name] > 0 for name in LAWS), calls


@pytest.mark.parametrize("which, private, own", [("common", 0.0, 0.0), ("private", 1.0, 1.0)])
def test_sinr_law_rejects_a_zero_denominator(which, private, own):
    """Without noise, no common variance and no private power the common
    denominator is 0; with the user's own stream as all the private power,
    the private one is."""
    K = 3
    with pytest.raises(DegenerateStatisticsError, match=f"{which} SINR denominator"):
        sinr_law(np.ones(K), np.zeros(K), np.full(K, private), np.full(K, own), 1.0, 0.0)


def test_monte_carlo_rejects_a_zero_denominator(desk_pieces):
    """A block without noise and without transmit power once gave NaN SINRs
    (0 / 0): the Monte Carlo now fails as the closed form does."""
    cfg, stats, est, pilots = desk_pieces
    ghat = fresh_estimates(ChannelSampler(est), 3, np.random.default_rng(1))
    silent = PowerAllocation(np.zeros(cfg.L), np.zeros((cfg.K, cfg.L)))
    noiseless = types.SimpleNamespace(p_dl_mw=cfg.p_dl_mw, noise_mw=0.0)
    with pytest.raises(DegenerateStatisticsError, match="common SINR denominator"):
        fresh_sinrs(ghat, est.C, *normalization_coeffs(est), silent, noiseless)


class _Restatements(ast.NodeVisitor):
    """(line, what) of every reference to log2 outside rate_law and every
    DegenerateStatisticsError about a SINR denominator raised outside
    sinr_law."""

    def __init__(self):
        self.scope = []
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def _log2(self, node, name):
        if name == "log2" and "rate_law" not in self.scope:
            self.found.append((node.lineno, "log2"))

    def visit_Attribute(self, node):
        self._log2(node, node.attr)
        self.generic_visit(node)

    def visit_Name(self, node):
        self._log2(node, node.id)

    def visit_Raise(self, node):
        text = ast.unparse(node.exc) if node.exc is not None else ""
        if ("DegenerateStatisticsError" in text and "SINR" in text
                and "sinr_law" not in self.scope):
            self.found.append((node.lineno, "SINR denominator check"))
        self.generic_visit(node)


def _restatements(source):
    visitor = _Restatements()
    visitor.visit(ast.parse(source))
    return visitor.found


def test_guard_finds_a_restated_law():
    source = """
def rate_law(sinr_c, sinr_p):
    return np.log2(1.0 + sinr_c.min(axis=-1)), np.log2(1.0 + sinr_p)

def sinr_law(den):
    if den <= 0:
        raise DegenerateStatisticsError("common SINR denominator is not positive")

def elsewhere(sinr, den):
    if den <= 0:
        raise DegenerateStatisticsError("private SINR denominator is not positive")
    return log2(1.0 + sinr) + math.log2(2.0)
"""
    assert _restatements(source) == [(11, "SINR denominator check"), (12, "log2"),
                                     (12, "log2")]


def test_the_package_states_each_law_once():
    """closed_form defines the three parts of the model; log2 appears only in
    rate_law, and a SINR denominator is checked only in sinr_law, in every
    module of the package."""
    package = pathlib.Path(closed_form.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    defined = {node.name for node in ast.parse(sources["closed_form.py"]).body
               if isinstance(node, ast.FunctionDef)}
    assert {"power_weights", "sinr_law", "rate_law"} <= defined
    found = {name: _restatements(source) for name, source in sources.items()}
    assert {name: hits for name, hits in found.items() if hits} == {}
