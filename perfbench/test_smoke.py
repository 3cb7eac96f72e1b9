"""Smoke test of the benchmark at a tiny size: `python3 -m pytest perfbench/test_smoke.py -q`.

Workers run as subprocesses with the grid and trial constants shrunk, so the
whole file takes well under a minute.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import surfaces as sf  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

TINY = (
    "import sys; sys.path.insert(0, {here!r}); import workloads as wl, worker; "
    "wl.DENSE_VERIFY_GRID = 21; wl.DENSE_MESH_GRID = 11; wl.SEARCH_TRIALS = 3; "
    "sys.exit(worker.main({argv!r}))"
)
WORKLOAD_METRICS = {
    "catalog_queries": {"queries_per_s", "query_p50_ms", "query_tail_ms"},
    "dense_grid": {"verify_mpts_per_s", "export_mpts_per_s"},
    "existence_certify": {"decisions_per_s", "search_trials_per_s"},
    "cli_cold": {"cli_cold_p50_ms", "cli_cold_tail_ms"},
}


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _tiny_run(workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.05", "--trace", str(trace),
            "--root", ROOT, "--spawn-t", "0"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []), "-c", TINY.format(here=HERE, argv=argv)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace and workload != "cli_cold":
        res["layer"].update({f"import.{k}_ms": v for k, v in tracing.parse_importtime(proc.stderr).items()})
    return run.summarize(workload, 1, 0.05, trace, [res])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    spec = _benchmark_json()
    summary = _tiny_run(workload, trace)
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {k: v["unit"] for k, v in summary["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in summary["metrics"].values())
    assert summary["attempted"] >= 1 and summary["unexpected"] == 0, summary["problems"]
    if trace:
        layer = summary["metrics"]
        assert layer["existence.search_found"]["value"] == 0
        assert layer["import.ruledmin_ms"]["value"] > 0
    else:
        names = {row[0] for row in summary["workload_metrics"]}
        assert names == WORKLOAD_METRICS[workload]
        assert all(row[1] > 0 for row in summary["workload_metrics"])


def test_benchmark_json_names_the_workloads():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in tracing.PER_LAYER]


def test_oracle_flags_a_wrong_expected_verdict(tmp_path):
    classify = wl.run_cli(["classify", "--sig", "3,0", "--family", "elliptic-helicoid-1"])
    assert wl.check_family("elliptic-helicoid-1")(classify) is None
    assert wl.check_family("elliptic-helicoid-2")(classify) is not None

    exists = wl.run_cli(["existence", "--sig", "4,2", "--family", "hyperbolic-helicoid-2"])
    assert wl.check_existence(4, 2, "hyperbolic-helicoid-2", None)(exists) is None
    flipped = (exists[0], exists[1].replace('"Witness"', '"NonExistence"'))
    assert wl.check_existence(4, 2, "hyperbolic-helicoid-2", None)(flipped) is not None
    # the same answer read as an answer about R^4_1, where HH2 does not exist
    assert wl.check_existence(4, 1, "hyperbolic-helicoid-2", None)(exists) is not None

    # a cosh bump on the base is not minimal: expecting "minimal" must fail
    inp = wl.Inputs(random.Random(0), str(tmp_path))
    path, _ = inp.bump(3, 0, "elliptic-helicoid-1", (1, 1, 1), 3, inp.rng)
    assert wl.check_minimal(wl.run_cli(["verify", "--input", path])) is not None

    mesh = tmp_path / "m.obj"
    result = wl.run_cli(["mesh", "--sig", "3,0", "--family", "elliptic-helicoid-1",
                         "--grid", "5x5", "--out", str(mesh)])
    assert wl.check_mesh(str(mesh), 5)(result) is None
    assert wl.check_mesh(str(mesh), 6)(result) is not None


NOT_MINIMAL = (1, json.dumps({"command": "verify", "minimality": {"verdict": "not-minimal", "max_h_norm": 1.0}}))
CONVENTION = (2, json.dumps({"error": "ConventionError", "message": "no convention"}))
USAGE_ERROR = (2, "")  # argparse prints its usage to stderr
TRACEBACK = (1, "")  # an uncaught exception in a cold CLI process


def _known(op, result) -> bool:
    return worker.run_op(op, lambda argv: result)[2]


def _catalog_op(inp, kind, form, hw):
    return wl.catalog_op(inp, kind, form, hw, wl.catalog_pool(kind, form)[0], inp.rng)


def test_known_class_is_only_the_programs_own_rejection(tmp_path):
    inp = wl.Inputs(random.Random(0), str(tmp_path))
    wide = _catalog_op(inp, "verify", "family", 10)
    assert _known(wide, NOT_MINIMAL)
    for result in (USAGE_ERROR, TRACEBACK, CONVENTION):
        assert not _known(wide, result)
    assert _known(_catalog_op(inp, "verify", "slid", 3), NOT_MINIMAL)
    assert _known(_catalog_op(inp, "gauge", "family", 10), CONVENTION)
    for kind in ("verify", "classify", "gauge"):
        assert _catalog_op(inp, kind, "family", 3).known == frozenset()
    assert _catalog_op(inp, "gauge", "slid", 3).known == frozenset()
    for i in range(len(wl.COLD_CYCLE)):
        assert wl.cold_op(inp, wl.COLD_CYCLE[i]).known == frozenset()


def test_out_of_class_rejection_makes_the_run_incorrect(tmp_path):
    inp = wl.Inputs(random.Random(0), str(tmp_path))
    op = _catalog_op(inp, "verify", "family", 10)

    def summary(result):
        dt, problem, known = worker.run_op(op, lambda argv: result)
        res = {"setup_s": 1.0, "peak_rss_mb": 1.0, "samples": [[op.kind, dt, op.work]],
               "probe_s": [run.PROBE_REF_S] * (worker.SETUP_PROBES + 1),
               "problems": [[op.label, problem, known]], "attempted": 1}
        return run.final_result([run.summarize("catalog_queries", 1, 1.0, 0, [res])])

    assert summary(NOT_MINIMAL)["correct"] is True
    for result in (USAGE_ERROR, TRACEBACK, CONVENTION):
        final = summary(result)
        assert final["correct"] is False and final["failed"] == 1


def _run_ops(workload, seed, tmpdir):
    """(length of a 20 s run's op list, its known-class ops with their inputs)."""
    os.makedirs(tmpdir)
    _, make_ops = wl.build(workload, seed, tmpdir)
    ops = make_ops(20)

    def key(op):
        if "--input" in op.argv:
            with open(op.argv[op.argv.index("--input") + 1]) as fh:
                return op.label, fh.read()
        return op.label, " ".join(op.argv)
    return len(ops), sorted(key(op) for op in ops if op.known)


@pytest.mark.parametrize("workload", ["catalog_queries", "dense_grid"])
def test_ops_that_can_fail_are_the_same_for_every_seed(workload, tmp_path):
    one = _run_ops(workload, 1, str(tmp_path / "one"))
    assert one[1] and one == _run_ops(workload, 2, str(tmp_path / "two"))


def test_install_skips_what_the_package_no_longer_has():
    code = (
        "import sys; sys.path.insert(0, {here!r}); import tracing, workloads as wl; "
        "import ruledmin.surface as surface; del surface.quad; "
        "tracing.METHODS += (('curves', 'CurveExpr', 'gone'), ('families', 'Gone', 'x')); "
        "tr = tracing.Tracer(); tracing.install(tr); tr.op_id = 0; "
        "rc, _ = wl.run_cli(['verify', '--sig', '3,0', '--family', 'elliptic-helicoid-1']); "
        "m = tracing.layer_metrics(tr, 1, {{}}, 0.0); "
        "assert rc == 0 and m['surface.quad_calls'] == 0 and m['surface.sweep_calls'] > 0, m"
    ).format(here=HERE)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_inputs_are_the_catalog_surfaces():
    from ruledmin.catalog import generate
    from ruledmin.families import CLI_NAMES, SignChoice
    from ruledmin.metric import Signature

    s = np.linspace(-3, 3, 7)
    for n, p, fam, signs in sf.catalog_triples(3, 4):
        surf = generate(Signature(n, p), CLI_NAMES[fam], None if signs is None else SignChoice(*signs))
        if signs is None:
            gamma, base = sf.cylinder_curves(n, p)
        else:
            gamma, base = sf.family_curves(n, p, fam, signs)
        assert np.allclose(sf.evaluate(gamma, n, s), surf.gamma.eval(s)), (n, p, fam, signs)
        assert np.allclose(sf.evaluate(base, n, s), surf.base.eval(s)), (n, p, fam, signs)
    assert len(sf.catalog_triples(3, 6)) == 162


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "catalog_queries",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_importtime_parsing():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       400 |        450 |     scipy.integrate",
        "import time:        10 |        910 |   ruledmin.curves",
        "import time:        10 |       1220 | ruledmin",
    ])
    assert tracing.parse_importtime(stderr) == {"ruledmin": 1.22, "scipy": 0.45, "numpy": 0.3}
