"""Shared fixtures."""

import sys
from collections import Counter

import pytest

from ruledmin import surface
from ruledmin.curves import CurveExpr


@pytest.fixture
def call_counts(monkeypatch):
    """Counts sweep_grid calls under "sweep" and CurveExpr.eval calls under "eval"."""
    counts = Counter()
    sweep_grid, curve_eval = surface.sweep_grid, CurveExpr.eval

    def counting_sweep(*args, **kwargs):
        counts["sweep"] += 1
        return sweep_grid(*args, **kwargs)

    def counting_eval(self, *args, **kwargs):
        counts["eval"] += 1
        return curve_eval(self, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("ruledmin") and getattr(module, "sweep_grid", None) is sweep_grid:
            monkeypatch.setattr(module, "sweep_grid", counting_sweep)
    monkeypatch.setattr(CurveExpr, "eval", counting_eval)
    return counts
