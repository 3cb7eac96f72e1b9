"""Record a baseline and set it beside the ROADMAP's hand-measured table.

    python3 perfbench/baseline.py --seed 1 --seconds 20 --out perfbench/BENCH_1.json

Runs all four workloads untraced and then traced (through run.py), writes
both results to --out, and prints per-call times read from the traced spans
next to the ROADMAP baseline. Rows that differ by more than 2x are named.
The ROADMAP figures are best-of-5 timings of one surface (HH2 in R^4_2);
the spans average every call the workload made, over all its surfaces.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def span_mean_ms(root: str, workload: str, seed: int, name: str, op_kind: str | None = None) -> float:
    """Mean duration (ms) of the outermost spans called `name`, optionally only inside ops of a kind."""
    data = np.load(os.path.join(root, ".perfbench_out", f"spans-{workload}-seed{seed}.npz"))
    names = list(data["names"])
    if name not in names:
        return float("nan")
    sel = data["name_id"] == names.index(name)
    if op_kind is not None:
        sel &= data["op_kind"][np.maximum(data["op"], 0)] == op_kind
    dur = (data["end"] - data["start"])[sel]
    return float(dur.mean() * 1e3) if dur.size else float("nan")


def roadmap_rows(root: str, seed: int, untraced: dict, traced: dict) -> list[dict]:
    def by_kind(workload, kind):
        return untraced[workload]["by_kind"][kind][1]  # median ms

    rows = [
        ("import ruledmin", 930.0, traced["cli_cold"]["metrics"]["import.ruledmin_ms"]["value"],
         "import.ruledmin_ms, traced cli_cold (mean of its CLI processes)"),
        ("ruledmin existence ... (cold CLI wall)", 1140.0, by_kind("cli_cold", "existence"),
         "median cold existence call, untraced cli_cold"),
        ("is_minimal 41x41", 1.4, span_mean_ms(root, "catalog_queries", seed, "surface.is_minimal"),
         "mean is_minimal span, traced catalog_queries"),
        ("sweep_grid 401x401", 114.0,
         span_mean_ms(root, "dense_grid", seed, "surface.sweep_grid", "mesh"),
         "mean sweep span inside mesh ops, traced dense_grid"),
        ("sweep_grid 1001x1001", 690.0,
         span_mean_ms(root, "dense_grid", seed, "surface.sweep_grid", "verify"),
         "mean sweep span inside verify ops, traced dense_grid"),
        ("identify_family", 3.2, span_mean_ms(root, "catalog_queries", seed, "classify.identify_family"),
         "mean identify_family span, traced catalog_queries"),
        ("existence_table()", 8.5, span_mean_ms(root, "existence_certify", seed, "existence.existence_table"),
         "mean existence_table span, traced existence_certify"),
        ("obj_mesh 401x401", 2100.0, span_mean_ms(root, "dense_grid", seed, "export.obj_mesh"),
         "mean obj_mesh span, traced dense_grid"),
        ("csv_grid 401x401", 3700.0, span_mean_ms(root, "dense_grid", seed, "export.csv_grid"),
         "mean csv_grid span, traced dense_grid"),
        ("brute_force_cross_check, one pair, 1000 trials", 100.0,
         1000.0 * traced["existence_certify"]["metrics"]["existence.search_ms_per_trial"]["value"],
         "1000 x existence.search_ms_per_trial, traced existence_certify"),
    ]
    out = []
    for row, roadmap_ms, now_ms, source in rows:
        ratio = now_ms / roadmap_ms
        out.append({"row": row, "roadmap_ms": roadmap_ms, "measured_ms": now_ms, "ratio": ratio,
                    "differs_2x": not 0.5 <= ratio <= 2.0, "source": source})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    root = os.getcwd()

    results = {}
    for trace in (0, 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(trace)]
        if subprocess.run(cmd, cwd=root).returncode != 0:
            return 1
        with open(os.path.join(root, ".perfbench_out", f"result-all-seed{args.seed}-trace{trace}.json")) as fh:
            results[trace] = json.load(fh)

    def slim(run: dict) -> dict:
        failing: dict[str, list] = {}
        for label, problem, known in run["problems"]:
            entry = failing.setdefault(f"{label}: {problem}", [0, known])
            entry[0] += 1
        keep = ("metrics", "workload_metrics", "by_kind", "attempted", "failed", "unexpected",
                "raw_setups_s", "raw_ops_per_s", "host_slowness")
        return {**{k: run[k] for k in keep if k in run},
                "failing_ops": [{"op": k, "count": c, "known": kn} for k, (c, kn) in sorted(failing.items())]}

    untraced = {r["workload"]: slim(r) for r in results[0]["runs"]}
    traced = {r["workload"]: slim(r) for r in results[1]["runs"]}
    rows = roadmap_rows(root, args.seed, untraced, traced)
    record = {"env": results[0]["env"], "seed": args.seed, "seconds": args.seconds,
              "untraced": untraced, "traced": traced, "roadmap_comparison": rows}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"\n{'ROADMAP row (ms)':48s} {'ROADMAP':>9s} {'measured':>9s} {'ratio':>6s}  source")
    for r in rows:
        flag = "DIFFERS >2x  " if r["differs_2x"] else ""
        print(f"{r['row']:48s} {r['roadmap_ms']:9.4g} {r['measured_ms']:9.4g} {r['ratio']:6.2f}  "
              f"{flag}{r['source']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
