"""Shared fixtures."""

import sys
import threading
from collections import Counter

import pytest

from ruledmin import surface
from ruledmin.basisfn import _Terms
from ruledmin.curves import CurveExpr


@pytest.fixture
def call_counts(monkeypatch):
    """Counts sweep_grid calls under "sweep" and samplings of a CurveExpr under
    "eval": each CurveExpr.eval call and each jet a jet table samples with its
    term sizes go through one _Terms._sample call."""
    counts = Counter()
    sweep_grid, sample = surface.sweep_grid, _Terms._sample

    def counting_sweep(*args, **kwargs):
        counts["sweep"] += 1
        return sweep_grid(*args, **kwargs)

    def counting_sample(self, *args, **kwargs):
        counts["eval"] += isinstance(self, CurveExpr)
        return sample(self, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("ruledmin") and getattr(module, "sweep_grid", None) is sweep_grid:
            monkeypatch.setattr(module, "sweep_grid", counting_sweep)
    monkeypatch.setattr(_Terms, "_sample", counting_sample)
    return counts


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started, recorded by a threading.Thread that counts and
    checks that no other one it started is still running."""
    started = []

    class Counting(threading.Thread):
        def start(self):
            assert not any(thread.is_alive() for thread in started), "two helpers at once"
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counting)
    return started
