"""The ruledmin benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Worker processes run one after another, with
BLAS threads pinned to 1. An untraced run (--trace 0) starts one measuring
worker for S seconds and four more that stop after warm-up, so set-up is
sampled five times, and reports the end-to-end metrics; --trace 1 runs one
worker and reports the per-layer metrics. `--workload all` runs the four
workloads in turn. Human-readable lines come first; the last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from worker import SETUP_PROBES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5
# Timings are quoted at the host speed where the speed probe (worker.SpeedProbe)
# takes this long: a worker whose median probe took f times as long had its
# set-up divided by f and its ops/s multiplied by f.
PROBE_REF_S = 0.0025
RUN_LIMIT_S = 170.0
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "ops/s"}


def environment(root: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "ruledmin")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest of p99.9/p99/p95/p90/p75/p50 with >= 10 samples above it: (value, pct, beyond)."""
    xs = sorted(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        idx = max(0, math.ceil(q / 100.0 * len(xs)) - 1)
        if len(xs) - idx - 1 >= 10:
            return xs[idx], q, len(xs) - idx - 1
    return xs[-1], 100.0, 0


def _rate(samples, kind, per=1.0, work=False) -> tuple[float, int]:
    sel = [s for s in samples if s[0] == kind]
    busy = sum(s[1] for s in sel)
    amount = sum(s[2] for s in sel) if work else len(sel)
    return (amount / busy / per if busy else 0.0), len(sel)


def workload_metrics(workload: str, samples: list) -> list[tuple[str, float, str, str]]:
    """The workload's own metrics: (name, value, unit, sample note)."""
    ms = [s[1] * 1e3 for s in samples]
    n = len(samples)
    out = []
    if workload in ("catalog_queries", "cli_cold"):
        pre = "query" if workload == "catalog_queries" else "cli_cold"
        if workload == "catalog_queries":
            out.append(("queries_per_s", n / (sum(ms) / 1e3), "ops/s", f"{n} queries"))
        v, q, beyond = tail(ms)
        out.append((f"{pre}_p50_ms", statistics.median(ms), "ms", f"{n} samples"))
        out.append((f"{pre}_tail_ms", v, "ms", f"p{q:g}, {beyond} samples beyond, {n} samples"))
    elif workload == "dense_grid":
        for name, kind in (("verify_mpts_per_s", "verify"), ("export_mpts_per_s", "mesh")):
            rate, k = _rate(samples, kind, per=1e6, work=True)
            out.append((name, rate, "Mpts/s", f"{k} {kind} ops"))
    elif workload == "existence_certify":
        rate, k = _rate(samples, "decision")
        out.append(("decisions_per_s", rate, "ops/s", f"{k} decisions"))
        rate, k = _rate(samples, "search", work=True)
        out.append(("search_trials_per_s", rate, "trials/s", f"{k} searches"))
    return out


def spawn_worker(workload: str, seed: int, seconds: float, trace: int, root: str, budget: float) -> dict:
    """Run one worker process to completion and return its result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []), os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace), "--root", root,
           "--spawn-t", repr(time.monotonic())]
    # its own process group, so a timeout also stops the CLI processes it started
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{stderr[-2000:]}")
    res = json.loads(stdout.strip().splitlines()[-1])
    if trace and workload != "cli_cold":
        res["layer"].update({f"import.{k}_ms": v for k, v in tracing.parse_importtime(stderr).items()})
    return res


def run_workload(workload: str, seed: int, seconds: float, trace: int, root: str) -> dict:
    """One measuring worker; untraced runs add set-up-only workers for more set-up samples."""
    started = time.monotonic()
    results = []
    for k in range(1 if trace else SETUPS):
        budget = RUN_LIMIT_S - (time.monotonic() - started)
        results.append(spawn_worker(workload, seed, seconds if k == 0 else 0.0, trace, root, budget))
    return summarize(workload, seed, seconds, trace, results)


def summarize(workload: str, seed: int, seconds: float, trace: int, results: list[dict]) -> dict:
    samples = [s for r in results for s in r["samples"]]
    problems = [p for r in results for p in r["problems"]]
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": sum(r["attempted"] for r in results),
        "failed": len(problems),
        "unexpected": sum(1 for p in problems if not p[2]),
        "problems": problems,
        "raw_setups_s": [r["setup_s"] for r in results],
    }
    if trace:
        summary["metrics"] = {name: {"value": results[0]["layer"][name], "unit": unit}
                              for name, unit in tracing.PER_LAYER}
        return summary
    # host slowness: median probe time over the reference, right after set-up
    # (each worker) and between the ops (the measuring worker)
    slow = [statistics.median(r["probe_s"][:SETUP_PROBES]) / PROBE_REF_S for r in results]
    slow_ops = statistics.median(results[0]["probe_s"][SETUP_PROBES:]) / PROBE_REF_S
    raw = len(samples) / sum(s[1] for s in samples)
    values = {
        "setup_s": statistics.median(r["setup_s"] / f for r, f in zip(results, slow)),
        "peak_rss_mb": results[0]["peak_rss_mb"],
        "ops_per_s": raw * slow_ops,
    }
    summary["raw_ops_per_s"] = raw
    summary["host_slowness"] = {"ops": slow_ops, "setup": slow}
    summary["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    summary["workload_metrics"] = workload_metrics(workload, samples)
    summary["samples"] = samples
    summary["by_kind"] = {
        k: (len(d), statistics.median(d), statistics.fmean(d))
        for k in sorted({s[0] for s in samples})
        for d in [[s[1] * 1e3 for s in samples if s[0] == k]]}
    return summary


def report(summary: dict, env: dict) -> None:
    w = summary["workload"]
    print(f"# {w} seed={summary['seed']} seconds={summary['seconds']:g} trace={summary['trace']}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    rows = []
    if not summary["trace"]:
        m = summary["metrics"]
        slow = summary["host_slowness"]
        rows.append(("setup_s", m["setup_s"]["value"], "s",
                     f"median of {len(slow['setup'])} workers; raw " + ", ".join(f"{s:.3f}" for s in summary["raw_setups_s"])))
        rows.append(("peak_rss_mb", m["peak_rss_mb"]["value"], "MB", "measuring worker"))
        rows.append(("ops_per_s", m["ops_per_s"]["value"], "ops/s",
                     f"{len(summary['samples'])} ops; raw {summary['raw_ops_per_s']:.5g} ops/s"))
        rows.append(("host_slowness", slow["ops"], "ratio",
                     f"median speed-probe time / {PROBE_REF_S * 1e3:g} ms (after set-up: "
                     + ", ".join(f"{f:.3f}" for f in slow["setup"]) + ")"))
        rows.extend(summary["workload_metrics"])
        for kind, (cnt, p50, mean) in sorted(summary["by_kind"].items()):
            rows.append((f"  {kind}", p50, "ms", f"p50 of {cnt} ops, mean {mean:.4g} ms"))
    else:
        per_run = ("import.", "surface.sweep_peak_mb", "existence.search_ms_per_trial")
        rows.extend((k, v["value"], v["unit"],
                     "per op" if v["unit"] in ("ms", "count") and not k.startswith(per_run) else "")
                    for k, v in summary["metrics"].items())
    att, failed = summary["attempted"], summary["failed"]
    rows.append(("error_rate", failed / att, "ratio",
                 f"{failed} of {att} ops, {failed - summary['unexpected']} in the known defect class"))
    for name, value, unit, note in rows:
        print(f"{name:34s} {value:14.6g} {unit:8s} {note}")
    if summary["problems"]:
        by_op: dict[tuple, int] = {}
        for label, problem, known in summary["problems"]:
            key = (label, problem, known)
            by_op[key] = by_op.get(key, 0) + 1
        print(f"# failing ops ({len(by_op)} distinct; 'known' = ROADMAP item 4 class)")
        for (label, problem, known), cnt in sorted(by_op.items()):
            print(f"  {'known' if known else 'NEW  '} x{cnt:<3d} {label}: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ruledmin", "__init__.py")):
        print("perfbench: run from the repository root (src/ruledmin not found)", file=sys.stderr)
        return 2
    env = environment(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(name, args.seed, args.seconds, args.trace, root))
            report(summaries[-1], env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "runs": summaries}, fh, indent=1)
    print(json.dumps(final_result(summaries)))
    return 0


def final_result(summaries: list[dict]) -> dict:
    """The last stdout line: correct unless some failure is outside the known defect class."""
    return {
        "correct": all(s["unexpected"] == 0 for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": summaries[0]["metrics"] if len(summaries) == 1 else {
            f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()},
    }


if __name__ == "__main__":
    sys.exit(main())
