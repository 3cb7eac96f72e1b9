"""The four workloads: seeded op streams and the answer check for each op.

An op is a CLI argv (run in-process through `ruledmin.cli.main`, or as a
fresh `python -m ruledmin.cli` for cli_cold) or, for the randomized search,
a direct call of `brute_force_cross_check`. Every op carries the check its
answer must pass; the checks use `surfaces` and never the program under test.

Known defect class (ROADMAP item 4): catalog surfaces are minimal by
construction, and "the catalog's own surfaces must verify as minimal and
classify correctly on any domain and any grid. Today they do not." The
class holds only the rejections seen at the baseline commit of
BENCH_1.json, each read from the program's own JSON answer (`rejection`):

- on a +-10 domain: verify says not-minimal, classify raises ConventionError
  or leaves the surface unresolved, gauge raises ConventionError;
- a catalog surface slid along its rulings, on +-3: verify says not-minimal;
- dense_grid's 1001x1001 verify of hyperbolic-helicoid-1: not-minimal.

Such an op still counts as failed; it does not make the run incorrect. Any
other wrong answer does: a +-3 plain-family op that is rejected at all, any
cli_cold op, a usage error, a traceback or output that is not the program's
JSON.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
from dataclasses import dataclass, field
from collections import Counter
from itertools import count
from typing import Callable

import surfaces as sf

# --- sizes; also recorded in BENCHMARK.json and README.md -------------------
CATALOG_N = (3, 6)
HALF_WIDTHS = (3, 10)
DEFAULT_GRID = 41
DENSE_N = (4, 5, 6)
# dense_grid verifies the same surface for each n in every run, so every run
# fails the same known-defect verifies. The n = 4 one is a surface the
# baseline commit calls not-minimal at 1001x1001 (ROADMAP item 4), so the
# defect shows in every run; the other two verify as minimal there.
DENSE_VERIFY = (
    (4, 2, "hyperbolic-helicoid-1", (-1, 1, -1)),
    (5, 2, "parabolic-helicoid", (1, 1, -1)),
    (6, 3, "minimal-hyperbolic-paraboloid", (0, 1, -1)),
)
DENSE_VERIFY_GRID = 1001
DENSE_MESH_GRID = 401
EXISTENCE_N = (3, 8)
SEARCH_N = (3, 6)
SEARCH_TRIALS = 100
COLD_MESH_GRID = 41
# one catalog block: (kind, input form) slots, ~30/30/15/25 % with 5 % quadrature gauges
CATALOG_BLOCK = (
    [("verify", "family")] * 4 + [("verify", "slid")] * 2
    + [("classify", "family")] * 4 + [("classify", "slid")] * 2
    + [("causal-map", "family")] * 3
    + [("gauge", "family")] * 2 + [("gauge", "slid")] * 2 + [("gauge", "bump")]
)
COLD_CYCLE = ("existence", "existence-table", "verify", "classify", "causal-map", "gauge", "mesh")
# A run does a fixed number of rounds, ROUNDS_PER_S x --seconds (at least
# one), so every run of the same length attempts the same ops and fails the
# same known-defect ones. The rates are the baseline commit's on the host of
# BENCH_1.json: a catalog block of 20 ops, a dense_grid round of six ops, a
# whole existence cycle (1172 ops) and a cli_cold cycle of seven calls.
ROUNDS_PER_S = {"catalog_queries": 3.5, "dense_grid": 0.05, "existence_certify": 0.19, "cli_cold": 0.15}
TABLE_ROWS = {  # existence-table row label -> representative signatures
    "R^n_0 (n >= 3)": ((3, 0), (4, 0), (5, 0)),
    "R^3_1": ((3, 1),),
    "R^4_1": ((4, 1),),
    "R^4_2": ((4, 2),),
    "R^n_1 (n >= 5)": ((5, 1), (6, 1)),
    "R^n_p (n >= 5, 2 <= p <= n/2)": ((5, 2), (6, 2), (6, 3)),
}


@dataclass
class Op:
    kind: str
    label: str
    check: Callable  # result -> problem string or None
    argv: list | None = None
    call: Callable | None = None
    known: frozenset = frozenset()  # rejection reasons of this op in the known defect class
    work: float = 1.0  # lattice points or search trials behind the op
    cleanup: list = field(default_factory=list)


def run_cli(argv: list) -> tuple[int | str, str]:
    """`ruledmin.cli.main(argv)` in this process: (exit code, stdout)."""
    from ruledmin import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code
    except Exception as exc:  # noqa: BLE001  (a crash is a wrong answer, not the end of the run)
        rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def _signs_arg(signs) -> list:
    return [] if signs is None else ["--signs=" + ",".join(map(str, signs))]


def _family_argv(cmd: str, n: int, p: int, fam: str, signs, hw=None) -> list:
    argv = [cmd, "--sig", f"{n},{p}", "--family", fam, *_signs_arg(signs)]
    if hw is not None:
        argv += [f"--s-range=-{hw},{hw}", f"--t-range=-{hw},{hw}"]
    return argv


def _payload(result) -> tuple[dict | None, str | None]:
    rc, out = result
    try:
        data = json.loads(out)
    except ValueError:
        return None, f"exit {rc}, output is not JSON: {out[:120]!r}"
    if rc != 0:
        why = data.get("error") or data.get("diagnosis") or data.get("minimality", {}).get("verdict")
        return None, f"exit {rc}: {why}"
    return data, None


def rejection(result) -> str | None:
    """The program's own reason for rejecting an input, read from its JSON answer.

    "not-minimal" for a verify that exits 1 with that verdict, "unresolved"
    for a classify that exits 1 with no family and an unresolved diagnosis,
    the error class for an exit-2 error payload. None for anything else:
    success, an argparse usage error, a traceback, output that is not JSON.
    """
    rc, out = result
    if rc not in (1, 2):
        return None
    try:
        data = json.loads(out)
    except ValueError:
        return None
    if not isinstance(data, dict):
        return None
    if rc == 2:
        return data.get("error")
    if data.get("command") == "verify" and data.get("minimality", {}).get("verdict") == "not-minimal":
        return "not-minimal"
    if data.get("command") == "classify" and data.get("family") is None \
            and "unresolved" in (data.get("diagnosis") or ""):
        return "unresolved"
    return None


# the known rejections (module docstring) by op kind
NOT_MINIMAL = frozenset({"not-minimal"})
KNOWN_WIDE = {"verify": NOT_MINIMAL,
              "classify": frozenset({"ConventionError", "unresolved"}),
              "gauge": frozenset({"ConventionError"})}
KNOWN_SLID = {"verify": NOT_MINIMAL}


# ---------------------------------------------------------------------------
# checks


def check_minimal(result):
    data, err = _payload(result)
    if err:
        return err
    verdict = data["minimality"]["verdict"]
    return None if verdict == "minimal" else f"verdict {verdict}, max|H| {data['minimality']['max_h_norm']}"


def check_family(expected: str):
    def check(result):
        data, err = _payload(result)
        if err:
            return err
        return None if data["family"] == expected else f"family {data['family']}, expected {expected}"
    return check


def check_causal(n, p, fam, signs):
    def check(result):
        data, err = _payload(result)
        if err:
            return err
        return sf.causal_map_problem(data, n, p, fam, signs)
    return check


def check_gauge(surface_in: dict, eps: int):
    def check(result):
        data, err = _payload(result)
        if err:
            return err
        if data["exact"]:
            out = data["surface"]
            excess = sf.max_g12_excess(out)
            if excess > 1.0:
                return f"|g12| exceeds 1e-9 (scaled) by {excess:.3g}x on the gauged surface"
            drift = sf.same_rulings(surface_in, out)
            return None if drift <= 1e-8 else f"gauged base leaves the rulings ({drift:.3g})"
        table = data["lam_table"]
        n, p = surface_in["signature"]["n"], surface_in["signature"]["p"]
        gamma, _ = sf.curve_from_json(surface_in["gamma"])
        base, _ = sf.curve_from_json(surface_in["base"])
        ref = sf.lam_reference(p, gamma, base, n, table["s"], eps)
        err = max(abs(a - b) / (1.0 + abs(b)) for a, b in zip(table["lam"], ref))
        return None if err <= 1e-7 else f"lambda table off the reference integral by {err:.3g}"
    return check


def check_mesh(path: str, grid: int):
    def check(result):
        data, err = _payload(result)
        if err:
            return err
        verts, faces = grid * grid, 2 * (grid - 1) ** 2
        if (data["vertices"], data["faces"]) != (verts, faces):
            return f"summary says {data['vertices']} vertices / {data['faces']} faces"
        with open(path, "rb") as fh:
            obj = fh.read()
        with open(os.path.splitext(path)[0] + ".csv", "rb") as fh:
            rows = fh.read().count(b"\n")
        got_v, got_f = obj.count(b"\nv "), obj.count(b"\nf ")
        if (got_v, got_f) != (verts, faces):
            return f"OBJ holds {got_v} vertices / {got_f} faces, expected {verts} / {faces}"
        if rows != verts + 1:
            return f"CSV holds {rows} lines, expected {verts + 1}"
        return None
    return check


def _pattern_ok(n, p, fam, signs) -> bool:
    return signs in sf.FRAME_SIGNS[fam] and sf.fits(n, p, signs)


def check_existence(n, p, fam, signs):
    want = sf.fits(n, p, signs) if signs is not None else sf.family_exists(n, p, fam)

    def check(result):
        data, err = _payload(result)
        if err:
            return err
        if (data["verdict"] == "Witness") != want:
            return f"verdict {data['verdict']}, the inequalities say exists={want}"
        for entry in data.get("per_sign", []):
            if entry["admissible"] != sf.fits(n, p, entry["signs"]):
                return f"per-sign entry {entry['signs']} says admissible={entry['admissible']}"
        if not want:
            cert = data.get("certificate")
            if not cert:
                return "non-existence without a certificate"
            pat = cert.get("pattern")
            if pat is not None and pat["b"] + pat["c"] <= p and pat["a"] + pat["c"] <= n - p:
                return f"certificate pattern {pat} fits R^{n}_{p}"
            if signs is None and cert.get("replay") is None:
                return "family-level certificate has no replay"
            return None
        if fam == "minimal-cylinder":
            cyl = data["cylinder"]
            d, q = cyl["direction"], cyl["partner"]
            if sf.pairing(p, d, d) or sf.pairing(p, q, q):
                return "cylinder direction or partner is not null"
            if sf.pairing(p, d, q) != cyl["pairing"] or cyl["pairing"] == 0:
                return "cylinder pairing is wrong or zero"
            return None
        if fam == "plane":
            return None
        frame = data["frame"]
        got_signs = tuple(frame["signs"])
        if signs is not None and got_signs != tuple(signs):
            return f"frame signs {got_signs}, asked for {signs}"
        if not _pattern_ok(n, p, fam, got_signs):
            return f"frame signs {got_signs} are not an admissible fitting choice"
        vecs = frame["vectors"]
        for i, u in enumerate(vecs):
            if not any(u):
                return "zero frame vector"
            for j, v in enumerate(vecs):
                want_ij = got_signs[i] if i == j else 0
                if sf.pairing(p, u, v) != want_ij:
                    return f"Gram entry ({i},{j}) is {sf.pairing(p, u, v)}, expected {want_ij}"
        return None
    return check


def _table_expect() -> dict[str, list[bool]]:
    return {label: [sf.family_exists(*reps[0], fam) for fam in sf.FAMILIES[1:]]
            for label, reps in TABLE_ROWS.items()}


def _table_argv(fmt: str) -> list:
    """Text is the table's default form; it has no --format value."""
    return ["existence", "--table"] + ([] if fmt == "text" else ["--format", fmt])


def check_table(fmt: str):
    expect = _table_expect()
    cols = list(sf.FAMILIES[1:])

    def check(result):
        rc, out = result
        if rc != 0:
            return f"exit {rc}"
        got: dict[str, list[bool]] = {}
        if fmt == "json":
            for row in json.loads(out)["rows"]:
                got[row["signature"]] = [row["cells"][c] for c in cols]
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))
            idx = [rows[0].index(c) for c in cols]
            for r in rows[1:]:
                got[r[0]] = [r[i] == "true" for i in idx]
        else:
            lines = out.splitlines()
            legend = dict(item.split("=") for item in lines[0].split(": ", 1)[1].split(", "))
            order = [legend[str(i + 1)] for i in range(len(legend))]
            for line in lines[2:]:
                label, *marks = line.rsplit(None, len(order))
                by_name = dict(zip(order, marks))
                got[label] = [by_name[c] == "O" for c in cols]
        return None if got == expect else "table cells differ from the inequalities"
    return check


def check_search(result):
    if result.found:
        return f"witness found for an inadmissible pattern at trial {result.first_success}"
    return None if result.trials == SEARCH_TRIALS else f"ran {result.trials} trials"


# ---------------------------------------------------------------------------
# input pools


class Inputs:
    """Seeded inputs shared by one worker's op stream; JSON files live in tmpdir."""

    def __init__(self, rng: random.Random, tmpdir: str):
        self.rng = rng
        self.tmpdir = tmpdir
        self._ids = count()

    def path(self, stem: str, ext: str) -> str:
        return os.path.join(self.tmpdir, f"{stem}-{next(self._ids)}{ext}")

    def write_json(self, data: dict) -> str:
        path = self.path("in", ".json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def slid(self, n, p, fam, signs, hw, rng: random.Random) -> tuple[str, dict]:
        gamma, base = sf.family_curves(n, p, fam, signs)
        c1 = round(rng.uniform(-0.5, 0.5), 3)
        c2 = round(rng.uniform(-0.2, 0.2), 3)
        data = sf.surface_json(n, p, gamma, sf.slide(gamma, base, c1, c2), hw)
        return self.write_json(data), data

    def bump(self, n, p, fam, signs, hw, rng: random.Random) -> tuple[str, dict]:
        gamma, base = sf.family_curves(n, p, fam, signs)
        # cosh along e1, an axis of the trig direction curve: <gamma, x'> then
        # holds cos*sinh, which the term algebra cannot integrate
        e1 = sf.frame(n, p, signs)[0]
        amp = round(rng.uniform(0.05, 0.3), 3)
        base = base + [(sf.as_vector(e1, amp), 0, "cosh", 1.0)]
        data = sf.surface_json(n, p, gamma, base, hw)
        return self.write_json(data), data


def _eps(fam, signs) -> int:
    """<gamma, gamma> of the catalog direction curve (e1 is null for the paraboloid)."""
    return signs[1] if fam == "minimal-hyperbolic-paraboloid" else signs[0]


def _sig_label(n, p, fam, signs) -> str:
    return f"R^{n}_{p} {fam}" + ("" if signs is None else f" {list(signs)}")


# ---------------------------------------------------------------------------
# catalog_queries


def catalog_pool(kind: str, form: str) -> list:
    triples = sf.catalog_triples(*CATALOG_N)
    frames = [t for t in triples if t[3] is not None]
    return {"family": list(triples) if kind in ("verify", "classify", "causal-map") else frames,
            "slid": frames,
            "bump": [t for t in frames if t[2] in sf.ELLIPTIC]}[form]


def catalog_op(inp: Inputs, kind: str, form: str, hw: int, triple: tuple, rng: random.Random) -> Op:
    """One query on `triple`; `rng` draws the slide or bump of a JSON input."""
    n, p, fam, signs = triple
    where = f"{_sig_label(n, p, fam, signs)} +-{hw}"
    if form == "bump":
        known = frozenset()
    elif hw == HALF_WIDTHS[1]:
        known = KNOWN_WIDE.get(kind, frozenset())
    else:
        known = KNOWN_SLID.get(kind, frozenset()) if form == "slid" else frozenset()
    if form == "family":
        argv = _family_argv(kind, n, p, fam, signs, hw)
        if kind == "causal-map":
            argv = [a for a in argv if not a.startswith("--s-range")]
        surface_in = None if signs is None else sf.surface_json(
            n, p, *sf.family_curves(n, p, fam, signs), hw)
    else:
        path, surface_in = (inp.slid if form == "slid" else inp.bump)(n, p, fam, signs, hw, rng)
        argv = [kind, "--input", path]
        where += f" ({form} JSON)"
    check = {
        "verify": lambda: check_minimal,
        "classify": lambda: check_family(fam),
        "causal-map": lambda: check_causal(n, p, fam, signs),
        "gauge": lambda: check_gauge(surface_in, _eps(fam, signs)),
    }[kind]()
    return Op(kind="gauge-bump" if form == "bump" else kind, label=f"{kind} {where}", argv=argv,
              check=check, known=known, work=DEFAULT_GRID * DEFAULT_GRID)


def catalog_ops(inp: Inputs, blocks: int) -> list[Op]:
    """`blocks` copies of CATALOG_BLOCK, in an order shuffled by the seed.

    The k-th op of a (kind, form) slot queries the (k // 2)-th surface of a
    fixed shuffle of its pool, on +-3 for even k and +-10 for odd k, and
    draws its slide or bump from (kind, form, k) alone. The ops, and so the
    known-defect failures, are the same for every seed; the seed orders them.
    """
    orders = {slot: random.Random("/".join(slot)).sample(pool, len(pool))
              for slot in set(CATALOG_BLOCK) for pool in [catalog_pool(*slot)]}
    seen: Counter = Counter()
    ops = []
    for kind, form in CATALOG_BLOCK * blocks:
        k = seen[kind, form]
        seen[kind, form] += 1
        order = orders[kind, form]
        ops.append(catalog_op(inp, kind, form, HALF_WIDTHS[k % 2], order[k // 2 % len(order)],
                              random.Random(f"{kind}/{form}/{k}")))
    inp.rng.shuffle(ops)
    return ops


def catalog_warmup(inp: Inputs) -> list[Op]:
    return [catalog_op(inp, k, f, 3, inp.rng.choice(catalog_pool(k, f)), inp.rng) for k, f in
            (("verify", "family"), ("classify", "slid"), ("causal-map", "family"),
             ("gauge", "family"), ("gauge", "bump"))]


# ---------------------------------------------------------------------------
# dense_grid


def dense_op(inp: Inputs, kind: str, triple: tuple, grid: int) -> Op:
    n, p, fam, signs = triple
    gs = f"{grid}x{grid}"
    label = f"{kind} {gs} {_sig_label(n, p, fam, signs)}"
    if kind == "verify":
        known = NOT_MINIMAL if (grid, fam) == (DENSE_VERIFY_GRID, "hyperbolic-helicoid-1") else frozenset()
        return Op(kind="verify", label=label, argv=_family_argv("verify", n, p, fam, signs) + ["--grid", gs],
                  check=check_minimal, known=known, work=grid * grid)
    path = inp.path("mesh", ".obj")
    return Op(kind="mesh", label=label,
              argv=_family_argv("mesh", n, p, fam, signs) + ["--grid", gs, "--out", path],
              check=check_mesh(path, grid), work=grid * grid,
              cleanup=[path, os.path.splitext(path)[0] + ".csv"])


def dense_ops(inp: Inputs, rounds: int) -> list[Op]:
    """Per round, a verify of DENSE_VERIFY and a mesh of a seeded surface for
    each n, in a fixed order: the heap's peak depends on which sweep follows
    which."""
    return [op for _ in range(rounds) for triple in DENSE_VERIFY for op in (
        dense_op(inp, "verify", triple, DENSE_VERIFY_GRID),
        dense_op(inp, "mesh", inp.rng.choice(sf.catalog_triples(triple[0], triple[0])), DENSE_MESH_GRID))]


def dense_warmup(inp: Inputs) -> list[Op]:
    return [dense_op(inp, "verify", inp.rng.choice(sf.catalog_triples(DENSE_N[0], DENSE_N[0])), DEFAULT_GRID)]


def mesh_repeat_op(inp: Inputs) -> Op:
    """Mesh one surface twice into two files; the outputs must be byte-identical."""
    n, p, fam, signs = inp.rng.choice(sf.catalog_triples(DENSE_N[0], DENSE_N[0]))
    paths = [inp.path("repeat", ".obj") for _ in range(2)]
    grid = f"{DEFAULT_GRID}x{DEFAULT_GRID}"
    argvs = [_family_argv("mesh", n, p, fam, signs) + ["--grid", grid, "--out", pth] for pth in paths]

    def check(results):
        for res, pth in zip(results, paths):
            problem = check_mesh(pth, DEFAULT_GRID)(res)
            if problem:
                return problem
        for ext in (".obj", ".csv"):
            blobs = []
            for pth in paths:
                with open(os.path.splitext(pth)[0] + ext, "rb") as fh:
                    blobs.append(fh.read())
            if blobs[0] != blobs[1]:
                return f"repeat run wrote a different {ext} file"
        return None

    return Op(kind="mesh-repeat", label=f"mesh twice {_sig_label(n, p, fam, signs)}",
              call=lambda: [run_cli(a) for a in argvs], check=check,
              cleanup=paths + [os.path.splitext(pth)[0] + ".csv" for pth in paths])


# ---------------------------------------------------------------------------
# existence_certify


def existence_cycle(rng: random.Random, seed: int) -> list[Op]:
    ops = []
    for n in range(EXISTENCE_N[0], EXISTENCE_N[1] + 1):
        for p in range(n + 1):
            for fam in sf.FAMILIES:
                for signs in [None, *sf.FRAME_SIGNS.get(fam, ())]:
                    ops.append(Op(kind="decision", label=f"existence {_sig_label(n, p, fam, signs)}",
                                  argv=_family_argv("existence", n, p, fam, signs),
                                  check=check_existence(n, p, fam, signs)))
    for fmt in ("text", "json", "csv"):
        ops.append(Op(kind="decision", label=f"existence --table --format {fmt}",
                      argv=_table_argv(fmt), check=check_table(fmt)))
    for n in range(SEARCH_N[0], SEARCH_N[1] + 1):
        for p in range(n + 1):
            for a in range(4):
                for b in range(4 - a):
                    c = 3 - a - b
                    if b + c <= p and a + c <= n - p:
                        continue
                    ops.append(Op(kind="search", label=f"search R^{n}_{p} (a,b,c)=({a},{b},{c})",
                                  call=_search_call(n, p, (a, b, c), seed),
                                  check=check_search, work=SEARCH_TRIALS))
    rng.shuffle(ops)
    return ops


def _search_call(n, p, abc, seed):
    def call():
        from ruledmin import existence, families, metric
        return existence.brute_force_cross_check(
            metric.Signature(n, p), families.NormPattern(*abc), trials=SEARCH_TRIALS, seed=seed)
    return call


def existence_ops(inp: Inputs, seed: int, cycles: int) -> list[Op]:
    return [op for _ in range(cycles) for op in existence_cycle(inp.rng, seed)]


def existence_warmup(inp: Inputs, seed: int) -> list[Op]:
    ops = existence_cycle(inp.rng, seed)
    return [next(o for o in ops if o.kind == k) for k in ("decision", "search")]


# ---------------------------------------------------------------------------
# cli_cold


def cold_op(inp: Inputs, kind: str) -> Op:
    rng = inp.rng
    if kind == "existence":
        n = rng.randint(*EXISTENCE_N)
        p = rng.randint(0, n)
        fam = rng.choice(sf.FAMILIES)
        signs = rng.choice([None, *sf.FRAME_SIGNS.get(fam, ())])
        return Op(kind=kind, label=f"existence {_sig_label(n, p, fam, signs)}",
                  argv=_family_argv("existence", n, p, fam, signs), check=check_existence(n, p, fam, signs))
    if kind == "existence-table":
        fmt = rng.choice(("text", "json", "csv"))
        return Op(kind=kind, label=f"existence --table --format {fmt}",
                  argv=_table_argv(fmt), check=check_table(fmt))
    if kind == "mesh":
        n = rng.randint(*CATALOG_N)
        return dense_op(inp, "mesh", rng.choice(sf.catalog_triples(n, n)), COLD_MESH_GRID)
    form = "slid" if kind == "gauge" else "family"
    op = catalog_op(inp, kind, form, HALF_WIDTHS[0], rng.choice(catalog_pool(kind, form)), rng)
    op.known = frozenset()  # a cold call has no known failures: any rejection is unexpected
    return op


def cold_ops(inp: Inputs, cycles: int) -> list[Op]:
    return [cold_op(inp, kind) for _ in range(cycles) for kind in COLD_CYCLE]


def cold_warmup(inp: Inputs) -> list[Op]:
    return [cold_op(inp, "existence-table")]


# ---------------------------------------------------------------------------


WORKLOADS = ("catalog_queries", "dense_grid", "existence_certify", "cli_cold")


def build(workload: str, seed: int, tmpdir: str):
    """(warm-up ops, ops(seconds)) for one worker.

    ops(seconds) makes the list of ops a run of `seconds` issues: a whole
    number of rounds, ROUNDS_PER_S[workload] x seconds of them and at least
    one. It is called after set-up, so set-up does not grow with the run.
    """
    if workload not in ROUNDS_PER_S:
        raise ValueError(f"unknown workload {workload!r}")
    inp = Inputs(random.Random(f"{workload}:{seed}"), tmpdir)

    def rounds(seconds: float) -> int:
        return max(1, round(seconds * ROUNDS_PER_S[workload]))

    if workload == "catalog_queries":
        return catalog_warmup(inp), lambda s: catalog_ops(inp, rounds(s))
    if workload == "dense_grid":
        return dense_warmup(inp) + [mesh_repeat_op(inp)], lambda s: dense_ops(inp, rounds(s))
    if workload == "existence_certify":
        return existence_warmup(inp, seed), lambda s: existence_ops(inp, seed, rounds(s))
    return cold_warmup(inp), lambda s: cold_ops(inp, rounds(s))
