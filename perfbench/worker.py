"""One workload process: set up, warm up, then a closed loop of timed ops.

Started by run.py, never by hand. Prints one JSON line with its set-up time,
peak RSS, per-op (kind, seconds, work) samples, the speed-probe samples and
every failed check. The ops are the fixed list `workloads.build` sizes from
--seconds. With --seconds 0 it stops after warm-up (a set-up sample only).
With --trace 1 it first runs the ops of half the time untraced, then
installs the span wrappers and repeats exactly those ops; the ratio of the
two passes is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 20


class SpeedProbe:
    """A fixed slice of interpreter work, cached array work and page faults, run between ops.

    The host's speed swings by tens of percent within seconds as other
    tenants load it. The probe's median time says how fast the host was
    while the worker ran; run.py divides it out. A burst follows set-up,
    then one probe runs per 0.1 s of op time (after the op that completes
    it), about 5 % of the run.
    """

    EVERY_S = 0.1

    def __init__(self):
        self.data = np.arange(1 << 18, dtype=np.float64)  # 2 MB
        self.out = np.empty_like(self.data)  # no allocation while timed
        self.samples: list[float] = []
        self._debt = 0.0

    def _work(self) -> int:
        acc = 0
        for i in range(4000):
            acc += (i * 7) % 13
        table: dict[int, int] = {}
        for i in range(500):
            table[i % 97] = table.get(i % 97, 0) + i
        np.multiply(self.data, 1.0001, out=self.out)
        np.sqrt(self.out, out=self.out)
        fresh = mmap.mmap(-1, 2 << 20)  # 2 MB of fresh pages: the page-fault cost
        for off in range(0, 2 << 20, 4096):
            fresh[off] = 1
        fresh.close()
        return acc

    def burst(self, count: int) -> None:
        """Run `count` timed probes after one untimed one, so the ops' cache leftovers are not timed."""
        if count:
            self._work()
        for _ in range(count):
            t0 = time.perf_counter()
            self._work()
            self.samples.append(time.perf_counter() - t0)

    def after(self, busy_s: float) -> None:
        self._debt += busy_s / self.EVERY_S
        whole = int(self._debt)
        self._debt -= whole
        self.burst(whole)


class ColdRunner:
    """Each op is a fresh `python -m ruledmin.cli` process (traced: cold_entry.py)."""

    def __init__(self, root: str, tmpdir: str):
        self.root = root
        self.tmpdir = tmpdir
        self.tracer: tracing.Tracer | None = None
        self.imports: list[dict] = []

    def __call__(self, argv: list):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "ruledmin.cli", *argv]
        else:
            spans = os.path.join(self.tmpdir, "cold-spans.json")
            cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "cold_entry.py"), spans, *argv]
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True, timeout=120)
        if self.tracer is not None:
            self.imports.append(tracing.parse_importtime(proc.stderr))
            if os.path.exists(spans):
                with open(spans) as fh:
                    self.tracer.merge(json.load(fh), self.tracer.op_id)
                os.remove(spans)
        return proc.returncode, proc.stdout


def run_op(op: wl.Op, runner) -> tuple[float, str | None, bool]:
    t0 = time.perf_counter()
    result = op.call() if op.call is not None else runner(op.argv)
    dt = time.perf_counter() - t0
    try:
        problem = op.check(result)
    except Exception as exc:  # noqa: BLE001  (malformed output is a wrong answer)
        problem = f"unreadable answer: {type(exc).__name__}: {exc}"
    for path in op.cleanup:
        if os.path.exists(path):
            os.remove(path)
    known = problem is not None and isinstance(result, tuple) and wl.rejection(result) in op.known
    return dt, problem, known


class Log:
    def __init__(self):
        self.samples: list[list] = []  # [kind, seconds, work]
        self.problems: list[list] = []  # [label, problem, known]
        self.attempted = 0

    def add(self, op: wl.Op, dt: float | None, problem: str | None, known: bool) -> None:
        self.attempted += 1
        if dt is not None:
            self.samples.append([op.kind, dt, op.work])
        if problem is not None:
            self.problems.append([op.label, problem, known])


def run_ops(ops: list, runner, log: Log, probe: SpeedProbe) -> None:
    """Issue the ops one after another, each after the previous one returned."""
    for op in ops:
        dt, problem, known = run_op(op, runner)
        log.add(op, dt, problem, known)
        probe.after(dt)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-t", type=float, required=True, help="time.monotonic() at launch")
    ap.add_argument("--root", required=True)
    args = ap.parse_args(argv)

    cold = args.workload == "cli_cold"
    if not cold:
        import ruledmin.cli  # noqa: F401  (set-up pays the import, as a user's process does)
    out_dir = os.path.join(args.root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        runner = ColdRunner(args.root, tmpdir) if cold else wl.run_cli
        warmup, make_ops = wl.build(args.workload, args.seed, tmpdir)
        log, probe = Log(), SpeedProbe()
        for op in warmup:
            _, problem, known = run_op(op, runner)
            log.add(op, None, problem, known)
        setup_s = time.monotonic() - args.spawn_t
        probe.burst(SETUP_PROBES)

        result = {"setup_s": setup_s}
        if args.seconds > 0 and not args.trace:
            run_ops(make_ops(args.seconds), runner, log, probe)
        elif args.seconds > 0:
            plain = Log()
            ops = make_ops(args.seconds / 2)
            run_ops(ops, runner, plain, probe)
            tracer = tracing.Tracer()
            if cold:
                runner.tracer = tracer
            else:
                tracing.install(tracer)
            for i, op in enumerate(ops):
                tracer.op_id = i
                run_ops([op], runner, log, probe)
            base = sum(s[1] for s in plain.samples)
            traced = sum(s[1] for s in log.samples)
            imports = {}
            if cold:
                imports = {k: sum(d[k] for d in runner.imports) / len(runner.imports)
                           for k in runner.imports[0]}
            result["layer"] = tracing.layer_metrics(tracer, len(ops), imports, 100.0 * (traced / base - 1.0))
            tracer.save(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz"),
                        [op.kind for op in ops])
            log.attempted += plain.attempted
            log.problems = plain.problems + log.problems

        if args.seconds > 0 and len(probe.samples) == SETUP_PROBES:
            probe.burst(1)  # a run too short for the periodic probe still gets one
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if cold:
            usage = max(usage, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result.update(
            peak_rss_mb=usage / 1024.0,
            samples=log.samples,
            probe_s=probe.samples,
            problems=log.problems,
            attempted=log.attempted,
        )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
