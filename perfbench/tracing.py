"""Per-layer spans for the traced benchmark run, installed from outside the package.

`install()` replaces each public function of the ruledmin modules (and a few
named methods) with a wrapper that records a span: name, start, end, parent
span and op id. Every module namespace that holds the original function gets
the wrapper, so calls through `from .x import f` bindings are seen too.
Nothing under src/ is edited. Spans stay in memory (compact arrays) and are
written once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = (
    "cli", "jsonio", "catalog", "classify", "surface", "curves",
    "basisfn", "metric", "existence", "families", "export",
)
# methods the layer metrics need besides module-level functions
METHODS = (("curves", "CurveExpr", "eval"), ("families", "FrameSpec", "__post_init__"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.counters: dict[str, float] = {}
        self.peaks: list[float] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}

    def intern(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def open(self, idx: int) -> int:
        sid = len(self.start)
        self.name_id.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        depth = self._depth.get(idx, 0)
        self.outer.append(1 if depth == 0 else 0)
        self._depth[idx] = depth + 1
        self._stack.append(sid)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        idx = self.name_id[sid]
        self._depth[idx] -= 1

    def save(self, path: str, op_kinds: list[str]) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            op_kind=np.array(op_kinds),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )

    # merging spans recorded in another process (traced cold CLI calls)
    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [self.name_id[i], self.start[i], self.end[i], self.parent[i], self.outer[i]]
                for i in range(len(self.start))
            ],
            "counters": self.counters,
            "peaks": self.peaks,
        }

    def merge(self, data: dict, op_id: int) -> None:
        base = len(self.start)
        remap = [self.intern(nm) for nm in data["names"]]
        for nid, s, e, par, outer in data["spans"]:
            self.name_id.append(remap[nid])
            self.start.append(s)
            self.end.append(e)
            self.parent.append(par + base if par >= 0 else -1)
            self.op.append(op_id)
            self.outer.append(outer)
        for k, v in data["counters"].items():
            self.count(k, v)
        self.peaks.extend(data["peaks"])


def _after_symbolic_inner(tr, res, args):
    tr.count("curves.symbolic_inner_none", res is None)


def _after_product_atoms(tr, res, args):
    tr.count("basisfn.product_atoms_calls")
    tr.count("basisfn.product_atoms_none", res is None)


def _after_gauge(tr, res, args):
    tr.count("surface.gauge_exact", bool(res.exact))


def _after_sweep(tr, res, args):
    tr.count("surface.sweep_points", res.s_grid.size * res.t_grid.size)


def _after_dumps(tr, res, args):
    tr.count("jsonio.dumps_bytes", len(res))


def _after_export(tr, res, args):
    tr.count("export.bytes_written", len(res.encode()))


def _after_search(tr, res, args):
    tr.count("existence.search_trials", res.trials)
    tr.count("existence.search_found", bool(res.found))


AFTER = {
    "curves.symbolic_inner": _after_symbolic_inner,
    "basisfn.product_atoms": _after_product_atoms,
    "surface.gauge_normalize": _after_gauge,
    "surface.sweep_grid": _after_sweep,
    "jsonio.dumps": _after_dumps,
    "export.obj_mesh": _after_export,
    "export.csv_grid": _after_export,
    "existence.brute_force_cross_check": _after_search,
}


def _wrap(tr: Tracer, name: str, fn):
    idx = tr.intern(name)
    after = AFTER.get(name)
    if name == "surface.sweep_grid":
        # tracemalloc runs only inside the sweep, so other layers pay nothing
        @functools.wraps(fn)
        def traced_sweep(*args, **kwargs):
            tracemalloc.start()
            sid = tr.open(idx)
            try:
                res = fn(*args, **kwargs)
            finally:
                tr.close(sid)
                tr.peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()
            after(tr, res, args)
            return res

        return traced_sweep

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tr.open(idx)
        try:
            res = fn(*args, **kwargs)
        finally:
            tr.close(sid)
        if after is not None:
            after(tr, res, args)
        return res

    return traced


def install(tr: Tracer) -> None:
    """Wrap the public functions of every layer (and METHODS) so each call records a span.

    A method or `surface.quad` the package no longer has is skipped; its
    metrics then read 0, as for a layer the workload never reaches.
    """
    mods = {name: importlib.import_module(f"ruledmin.{name}") for name in LAYERS}
    targets: dict[int, tuple[object, str]] = {}  # id(original) -> (original, span name)
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                targets[id(obj)] = (obj, f"{layer}.{attr}")
    # scipy's quad as seen from the gauge code
    quad = getattr(mods["surface"], "quad", None)
    if callable(quad):
        targets[id(quad)] = (quad, "surface.quad")

    wrappers = {key: _wrap(tr, name, fn) for key, (fn, name) in targets.items()}
    namespaces = [vars(m) for m in mods.values()] + [vars(sys.modules["ruledmin"])]

    def swap(table: dict) -> None:
        for key, obj in list(table.items()):
            w = wrappers.get(id(obj))
            if w is not None and obj is targets[id(obj)][0]:
                table[key] = w

    for ns in namespaces:
        swap(ns)
        # dispatch tables such as cli._HANDLERS hold the functions too
        for attr, obj in list(ns.items()):
            if isinstance(obj, dict) and not attr.startswith("__"):
                swap(obj)
    for layer, cls_name, meth in METHODS:
        cls = getattr(mods[layer], cls_name, None)
        fn = getattr(cls, meth, None)
        if fn is not None:
            setattr(cls, meth, _wrap(tr, f"{layer}.{cls_name}.{meth}", fn))


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def _span_sums(tr: Tracer):
    """Inclusive ms per name (outermost spans only), calls per name, self ms per layer."""
    n = len(tr.start)
    if n == 0:
        return {}, {}, {}
    names = np.frombuffer(tr.name_id, dtype=np.int32)
    dur = np.frombuffer(tr.end, dtype=np.float64) - np.frombuffer(tr.start, dtype=np.float64)
    parent = np.frombuffer(tr.parent, dtype=np.int64)
    outer = np.frombuffer(tr.outer, dtype=np.int8).astype(bool)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    incl = np.bincount(names[outer], weights=dur[outer], minlength=len(tr.names))
    calls = np.bincount(names, minlength=len(tr.names))
    selfs = np.bincount(names, weights=self_t, minlength=len(tr.names))
    layer_self: dict[str, float] = {}
    for i, nm in enumerate(tr.names):
        layer = nm.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[i] * 1e3
    return (
        {nm: incl[i] * 1e3 for i, nm in enumerate(tr.names)},
        {nm: int(calls[i]) for i, nm in enumerate(tr.names)},
        layer_self,
    )


PER_LAYER = [  # (name, unit); counts and times are per op unless the name says otherwise
    ("curves.eval_calls", "count"), ("curves.eval_ms", "ms"),
    ("curves.symbolic_inner_calls", "count"), ("curves.symbolic_inner_none_ratio", "ratio"),
    ("surface.sweep_calls", "count"), ("surface.sweep_ms", "ms"),
    ("surface.sweep_points", "count"), ("surface.sweep_peak_mb", "MB"),
    ("surface.is_minimal_ms", "ms"),
    ("surface.gauge_calls", "count"), ("surface.gauge_exact_ratio", "ratio"),
    ("surface.quad_calls", "count"), ("surface.gauge_ms", "ms"),
    ("metric.ip_array_calls", "count"), ("metric.ip_array_ms", "ms"),
    ("metric.inner_product_calls", "count"),
    ("basisfn.eval_atom_calls", "count"), ("basisfn.eval_atom_ms", "ms"),
    ("basisfn.product_atoms_none_ratio", "ratio"),
    ("classify.identify_family_ms", "ms"), ("classify.case_invariants_ms", "ms"),
    ("classify.genericity_scan_ms", "ms"),
    ("catalog.generate_calls", "count"), ("catalog.generate_ms", "ms"),
    ("catalog.causal_map_ms", "ms"),
    ("export.obj_ms", "ms"), ("export.csv_ms", "ms"), ("export.bytes_written", "count"),
    ("jsonio.dumps_ms", "ms"), ("jsonio.dumps_bytes", "count"),
    ("jsonio.loads_surface_ms", "ms"),
    ("existence.oracle_calls", "count"), ("existence.oracle_ms", "ms"),
    ("existence.replay_ms", "ms"), ("existence.table_ms", "ms"),
    ("existence.search_ms_per_trial", "ms"), ("existence.search_trials", "count"),
    ("existence.search_found", "count"),
    ("families.frame_validations", "count"),
    ("cli.parse_ms", "ms"), ("cli.handler_ms", "ms"),
    *((f"{layer}.self_ms", "ms") for layer in LAYERS),
    ("import.ruledmin_ms", "ms"), ("import.scipy_ms", "ms"), ("import.numpy_ms", "ms"),
    ("trace.overhead_pct", "%"),
]

# span names behind each *_ms / *_calls metric
_SPAN = {
    "curves.eval": "curves.CurveExpr.eval",
    "curves.symbolic_inner": "curves.symbolic_inner",
    "surface.sweep": "surface.sweep_grid",
    "surface.is_minimal": "surface.is_minimal",
    "surface.gauge": "surface.gauge_normalize",
    "surface.quad": "surface.quad",
    "metric.ip_array": "metric.ip_array",
    "metric.inner_product": "metric.inner_product",
    "basisfn.eval_atom": "basisfn.eval_atom",
    "classify.identify_family": "classify.identify_family",
    "classify.case_invariants": "classify.case_invariants",
    "classify.genericity_scan": "classify.genericity_scan",
    "catalog.generate": "catalog.generate",
    "catalog.causal_map": "catalog.causal_map",
    "export.obj": "export.obj_mesh",
    "export.csv": "export.csv_grid",
    "jsonio.dumps": "jsonio.dumps",
    "jsonio.loads_surface": "jsonio.loads_surface",
    "existence.oracle": "existence.existence_oracle",
    "existence.replay": "existence.replay_certificate",
    "existence.table": "existence.existence_table",
}


def layer_metrics(tr: Tracer, ops: int, imports: dict, overhead_pct: float) -> dict:
    """Every PER_LAYER metric; 0 for a layer the workload never reached."""
    incl, calls, layer_self = _span_sums(tr)
    ops = max(ops, 1)
    c = tr.counters

    def ratio(num: str, den: float) -> float:
        return c.get(num, 0.0) / den if den else 0.0

    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        stem, _, suffix = name.rpartition("_")
        if suffix == "calls" and stem in _SPAN:
            val = calls.get(_SPAN[stem], 0) / ops
        elif suffix == "ms" and stem in _SPAN:
            val = incl.get(_SPAN[stem], 0.0) / ops
        else:
            val = None
        if val is not None:
            out[name] = val
    cli_total = incl.get("cli.main", 0.0)
    handlers = sum(v for k, v in incl.items() if k.startswith("cli.cmd_"))
    trials = c.get("existence.search_trials", 0.0)
    out.update({
        "curves.symbolic_inner_none_ratio": ratio(
            "curves.symbolic_inner_none", calls.get("curves.symbolic_inner", 0)),
        "surface.sweep_points": c.get("surface.sweep_points", 0.0) / ops,
        "surface.sweep_peak_mb": max(tr.peaks, default=0.0),
        "surface.gauge_exact_ratio": ratio(
            "surface.gauge_exact", calls.get("surface.gauge_normalize", 0)),
        "basisfn.product_atoms_none_ratio": ratio(
            "basisfn.product_atoms_none", c.get("basisfn.product_atoms_calls", 0.0)),
        "export.bytes_written": c.get("export.bytes_written", 0.0) / ops,
        "jsonio.dumps_bytes": c.get("jsonio.dumps_bytes", 0.0) / ops,
        "existence.search_ms_per_trial": (
            incl.get("existence.brute_force_cross_check", 0.0) / trials if trials else 0.0),
        "existence.search_trials": trials / ops,
        "existence.search_found": c.get("existence.search_found", 0.0) / ops,
        "families.frame_validations": calls.get("families.FrameSpec.__post_init__", 0) / ops,
        "cli.parse_ms": (cli_total - handlers) / ops,
        "cli.handler_ms": handlers / ops,
        "trace.overhead_pct": overhead_pct,
    })
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = layer_self.get(layer, 0.0) / ops
    for pkg in ("ruledmin", "scipy", "numpy"):
        out[f"import.{pkg}_ms"] = imports.get(pkg, 0.0)
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import ms of ruledmin, scipy and numpy from `-X importtime` output.

    A package's figure sums its outermost entries: lines whose name is the
    package or one of its submodules and that are not nested under another
    entry of the same package.
    """
    totals = {"ruledmin": 0.0, "scipy": 0.0, "numpy": 0.0}
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(parts[1]) / 1e3))
    def package(name: str) -> str:
        return name.split(".", 1)[0]

    # importtime prints children before their parent, so walk backwards with
    # a stack of enclosing rows
    stack: list[tuple[int, str]] = []
    for depth, name, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        pkg = package(name)
        if pkg in totals and all(package(anc) != pkg for _, anc in stack):
            totals[pkg] += cum
        stack.append((depth, name))
    return totals
