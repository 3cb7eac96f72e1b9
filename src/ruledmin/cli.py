"""Command-line front end.

Subcommands: verify, classify, existence, mesh, causal-map, gauge. Input is
surface JSON (--input) or a generated catalog surface (--family/--sig);
output is JSON (default), CSV, or OBJ, printed to stdout or written via
--out. Exit codes: 0 success (for verify: minimal; for classify:
recognized), 1 negative verdict or diagnosis, 2 malformed input, violated
conventions, or non-existence (with the certificate in the report).

The handlers that sample a surface import the numeric layers themselves, so
`existence` runs on exact integer arithmetic without loading numpy.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import jsonio
from .errors import NonExistenceError, RuledminError, UsageError
from .existence import (
    Certificate,
    ExistenceResult,
    existence_oracle,
    existence_table,
    replay_certificate,
)
from .families import CLI_NAME_OF, CLI_NAMES, TABLE_FAMILIES, FamilyId, FrameSpec, SignChoice
from .metric import Signature

if TYPE_CHECKING:
    from .classify import CaseInvariants, ClassificationResult, GenericityReport, StructureReport
    from .surface import MinimalityReport, RuledSurface


# ---------------------------------------------------------------------------
# argument parsing


def _sig_arg(text: str) -> Signature:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--sig expects n,p (e.g. 4,1), got {text!r}")
    try:
        n, p = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--sig expects integers n,p, got {text!r}") from None
    try:
        return Signature(n, p)
    except ValueError as exc:
        raise UsageError(f"--sig {text!r}: {exc}") from None


def _signs_arg(text: str) -> SignChoice:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--signs expects s1,s2,s3 (e.g. 1,1,-1), got {text!r}")
    try:
        vals = [int(v) for v in parts]
    except ValueError:
        raise UsageError(f"--signs expects integers, got {text!r}") from None
    return SignChoice(*vals)


def _family_arg(text: str) -> FamilyId:
    key = text.strip().lower()
    if key not in CLI_NAMES:
        raise UsageError(
            f"unknown family {text!r}; expected one of {', '.join(sorted(CLI_NAMES))}"
        )
    return CLI_NAMES[key]


def _grid_arg(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise UsageError(f"--grid expects NSxNT (e.g. 41x41), got {text!r}")
    try:
        ns, nt = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--grid expects integers NSxNT, got {text!r}") from None
    if ns < 2 or nt < 2:
        raise UsageError("--grid needs at least 2 points per axis")
    return ns, nt


def _range_arg(flag: str, text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{flag} expects a,b, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"{flag} expects numbers a,b, got {text!r}") from None
    if not a < b:
        raise UsageError(f"{flag} needs a < b, got {text!r}")
    return a, b


def _tol(args) -> float:
    """--tol, or H_TOL when it is absent; a tolerance is finite and >= 0."""
    from .surface import H_TOL

    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise UsageError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    return H_TOL if args.tol is None else args.tol


_FLAGS = {  # in the order --help lists them
    "table": dict(action="store_true", help="print the existence table"),
    "input": dict(help="surface JSON file"),
    "family": dict(help="catalog family (kebab-case name)"),
    "signs": dict(help="frame sign choice s1,s2,s3"),
    "sig": dict(help="ambient signature n,p"),
    "grid": dict(help="sweep grid NSxNT (default 41x41)"),
    "s-range": dict(dest="s_range", help="s interval a,b"),
    "t-range": dict(dest="t_range", help="t interval a,b"),
    "tol": dict(type=float, help="relative H tolerance"),
    "out": dict(help="write the primary artifact to this path"),
    "format": dict(choices=("json", "csv", "obj"), help="output format"),
}
_VALUE_FLAGS = {f"--{name}" for name, spec in _FLAGS.items() if "action" not in spec}


def _join_negative_values(argv: list[str]) -> list[str]:
    """Spell "--flag VALUE" as "--flag=VALUE" when VALUE starts with "-" and a
    digit or ".", since argparse reads a value such as -1,1,0 as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VALUE_FLAGS and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ruledmin parser, built on the first call and shared by every later
    one in the process: do not mutate it.

    It depends only on _FLAGS and the command table below, and argparse reads
    the streams and the terminal width when it prints, not here.
    """
    parser = argparse.ArgumentParser(
        prog="ruledmin",
        description="Ruled minimal surfaces in pseudo-Euclidean spaces: "
        "verification, classification, existence, meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    surface_flags = {"input", "family", "signs", "sig", "s-range", "t-range", "out"}
    # each subcommand declares only the flags its handler reads, so argparse
    # rejects the rest with exit code 2
    commands = {
        "verify": ("decide minimality", surface_flags | {"grid", "tol"}),
        "classify": ("identify the family", surface_flags | {"tol"}),
        "existence": (
            "witnesses, certificates, the table",
            {"table", "family", "signs", "sig", "out", "format"},
        ),
        "mesh": ("export an OBJ/CSV lattice mesh", surface_flags | {"grid", "format"}),
        "causal-map": (
            "spacelike/timelike regions over t",
            {"family", "sig", "signs", "t-range", "out", "format"},
        ),
        "gauge": ("normalize the base curve (kill g12)", surface_flags),
    }
    for name, (help_text, accepted) in commands.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in _FLAGS.items():
            if flag in accepted:
                p.add_argument(f"--{flag}", **spec)
    return parser


# ---------------------------------------------------------------------------
# shared plumbing


def _resolve_surface(args) -> tuple[Signature, RuledSurface, dict]:
    """Surface from --input JSON or a generated catalog family."""
    from .surface import RuledSurface

    meta: dict = {}
    if args.input:
        if args.family is not None or args.signs is not None:
            raise UsageError("--family and --signs name a catalog surface; --input reads its own")
        path = Path(args.input)
        try:
            text = path.read_text()
        except OSError as exc:
            raise UsageError(f"cannot read {args.input}: {exc}") from exc
        sig, surface = jsonio.loads_surface(text)
        meta["source"] = str(path)
        if args.sig is not None and _sig_arg(args.sig) != sig:
            raise UsageError(
                "--sig disagrees with the signature inside the input file"
            )
    elif args.family:
        from .catalog import generate

        if args.sig is None:
            raise UsageError("--family needs --sig n,p")
        sig = _sig_arg(args.sig)
        family = _family_arg(args.family)
        signs = _signs_arg(args.signs) if args.signs else None
        surface = generate(sig, family, signs)
        meta["family"] = CLI_NAME_OF[family]
        if signs is not None:
            meta["signs"] = list(signs.as_tuple())
    else:
        raise UsageError("provide --input FILE or --family NAME with --sig n,p")

    s_dom = _range_arg("--s-range", args.s_range) if args.s_range else surface.s_domain
    t_dom = _range_arg("--t-range", args.t_range) if args.t_range else surface.t_domain
    if (s_dom, t_dom) != (surface.s_domain, surface.t_domain):
        surface = RuledSurface(
            gamma=surface.gamma, base=surface.base, s_domain=s_dom, t_domain=t_dom
        )
    return sig, surface, meta


def _grids(args, surface: RuledSurface):
    return surface.default_grids(_grid_arg(args.grid)) if args.grid else surface.default_grids()


def _stream(files) -> None:
    """Write each (path, byte chunks) pair of the list, the first on this
    thread and the others on one helper (_threads.on_two_threads), so that
    two files' chunks are built side by side. A failed open or write
    removes every file this call opened, once every writer is done, so none
    is left half written, and the UsageError names the first path of the
    list that failed."""
    from ._threads import on_two_threads

    opened = []

    def write(path, chunks):
        try:
            with open(path, "wb") as fh:
                opened.append(path)
                for chunk in chunks:
                    fh.write(chunk)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc}") from exc

    try:
        on_two_threads([functools.partial(write, path, chunks) for path, chunks in files])
    except BaseException:
        for made in opened:
            made.unlink(missing_ok=True)
        raise


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        _stream([(Path(out), [text.encode()])])
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# JSON views of report objects


def _sig_json(sig: Signature) -> dict:
    return {"n": sig.n, "p": sig.p}


def _frame_json(frame: FrameSpec) -> dict:
    return {
        "vectors": [list(v) for v in frame.vectors],
        "signs": list(frame.signs),
        "gram": [[int(x) for x in row] for row in frame.gram],
    }


def _certificate_json(sig: Signature, family: FamilyId | None, cert: Certificate) -> dict:
    data = cert.to_dict()
    if family is not None:
        data["replay"] = replay_certificate(sig, family, cert).to_dict()
    return data


def _existence_json(result: ExistenceResult) -> dict:
    payload: dict = {
        "signature": _sig_json(result.sig),
        "family": CLI_NAME_OF[result.family] if result.family else None,
        "verdict": result.verdict.value,
    }
    if result.signs is not None:
        payload["signs"] = list(result.signs.as_tuple())
    if result.frame is not None:
        payload["frame"] = _frame_json(result.frame)
    if result.cylinder is not None:
        payload["cylinder"] = {
            "direction": list(result.cylinder.direction),
            "partner": list(result.cylinder.partner),
            "pairing": result.cylinder.pairing,
            "axes": list(result.cylinder.axes),
            "mirrored": result.cylinder.mirrored,
        }
    if result.certificate is not None:
        payload["certificate"] = _certificate_json(
            result.sig, result.family, result.certificate
        )
    if result.per_sign:
        payload["per_sign"] = [
            {
                "signs": list(signs.as_tuple()),
                "admissible": ok,
                "certificate": cert.to_dict() if cert else None,
            }
            for signs, ok, cert in result.per_sign
        ]
    if result.note:
        payload["note"] = result.note
    return payload


def _minimality_json(report: MinimalityReport) -> dict:
    return {
        "verdict": report.verdict.value,
        "residual": report.residual,
        "max_h_norm": report.max_h_norm,
        "tol": report.tol,
        "points_checked": report.points_checked,
        "points_degenerate": report.points_degenerate,
        "degenerate_sample": [list(pt) for pt in report.degenerate_sample],
        "grid": list(report.grid_shape),
    }


def _invariants_json(inv: CaseInvariants) -> dict:
    return {
        "epsilon": inv.epsilon,
        "eta": inv.eta,
        "delta": inv.delta,
        "delta_value": inv.delta_value,
        "mu": {"kind": "varying" if inv.mu.value is None else "constant",
               "value": inv.mu.value, "max_abs": inv.mu.max_abs},
    }


def _genericity_json(rep: GenericityReport) -> dict:
    return {
        "generic": rep.generic,
        "num_points": rep.num_points,
        "profiles": {
            name: {
                "identically_zero": p.identically_zero,
                "max_abs": p.max_abs,
                "isolated_zeros": list(p.isolated_zeros),
            }
            for name, p in rep.profiles.items()
        },
        "dependence_switches": list(rep.dependence_switches),
    }


def _structure_json(rep: StructureReport | None) -> dict | None:
    if rep is None:
        return None
    return {
        "eta": rep.eta,
        "max_direction_residual": rep.max_direction_residual,
        "max_base_residual": rep.max_base_residual,
        "tol": rep.tol,
        "ok": rep.ok,
    }


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    from .classify import verify_structure_odes
    from .surface import is_minimal

    sig, surface, meta = _resolve_surface(args)
    tol = _tol(args)
    s_grid, t_grid = _grids(args, surface)
    report = is_minimal(sig, surface, s_grid, t_grid, tol=tol)
    try:
        structure = verify_structure_odes(sig, surface)
    except RuledminError:
        structure = None
    payload = {
        "command": "verify",
        "signature": _sig_json(sig),
        **meta,
        "minimality": _minimality_json(report),
        "totally_geodesic": report.totally_geodesic,
        "structure": _structure_json(structure),
    }
    _write_or_print(jsonio.dumps(payload), args.out)
    return 0 if report.is_minimal else 1


def _classification_json(result: ClassificationResult) -> dict:
    return {
        "command": "classify",
        "signature": _sig_json(result.sig),
        "case": result.reported_case.value if result.reported_case else None,
        "raw_case": result.case_label.value if result.case_label else None,
        "family": CLI_NAME_OF[result.family] if result.family else None,
        "invariants": _invariants_json(result.invariants) if result.invariants else None,
        "genericity": _genericity_json(result.genericity) if result.genericity else None,
        "residuals": _structure_json(result.structure),
        "minimality": _minimality_json(result.minimality) if result.minimality else None,
        "diagnosis": result.diagnosis,
        "notes": list(result.notes),
    }


def cmd_classify(args) -> int:
    from .classify import identify_family

    sig, surface, _ = _resolve_surface(args)
    result = identify_family(sig, surface, h_tol=_tol(args))
    _write_or_print(jsonio.dumps(_classification_json(result)), args.out)
    return 0 if result.recognized else 1


def _table_rows_json() -> dict:
    rows = []
    for row in existence_table():
        rows.append(
            {
                "signature": row.label,
                "representatives": [_sig_json(s) for s in row.representatives],
                "cells": {
                    CLI_NAME_OF[fam]: bool(cell)
                    for fam, cell in zip(TABLE_FAMILIES, row.cells)
                },
            }
        )
    return {"command": "existence-table", "rows": rows}


def _table_text() -> str:
    rows = existence_table()
    legend = ", ".join(
        f"{i + 1}={CLI_NAME_OF[fam]}" for i, fam in enumerate(TABLE_FAMILIES)
    )
    width = max(len(r.label) for r in rows)
    lines = [f"# family columns: {legend}"]
    header = "signature".ljust(width) + "  " + "  ".join(
        str(i + 1) for i in range(len(TABLE_FAMILIES))
    )
    lines.append(header)
    for row in rows:
        cells = "  ".join("O" if c else "x" for c in row.cells)
        lines.append(row.label.ljust(width) + "  " + cells)
    return "\n".join(lines) + "\n"


def _table_csv() -> str:
    rows = existence_table()
    header = "signature," + ",".join(CLI_NAME_OF[fam] for fam in TABLE_FAMILIES)
    lines = [header]
    for row in rows:
        cells = ",".join("true" if c else "false" for c in row.cells)
        lines.append(f"\"{row.label}\",{cells}")
    return "\n".join(lines) + "\n"


def cmd_existence(args) -> int:
    if args.table:
        given = [f"--{f}" for f in ("sig", "family", "signs") if getattr(args, f) is not None]
        if given:
            raise UsageError(f"--table prints every signature and family; drop {', '.join(given)}")
        fmt = args.format or "text"
        if fmt == "json":
            _write_or_print(jsonio.dumps(_table_rows_json()), args.out)
        elif fmt == "csv":
            _write_or_print(_table_csv(), args.out)
        elif fmt == "obj":
            raise UsageError("the existence table has no OBJ form")
        else:
            _write_or_print(_table_text(), args.out)
        return 0
    if not args.sig or not args.family:
        raise UsageError("existence needs --table, or --sig n,p with --family NAME")
    if args.format not in (None, "json"):
        raise UsageError(
            f"an existence query prints JSON, not {args.format}; --table also takes csv"
        )
    sig = _sig_arg(args.sig)
    family = _family_arg(args.family)
    signs = _signs_arg(args.signs) if args.signs else None
    result = existence_oracle(sig, family, signs)
    payload = {"command": "existence", **_existence_json(result)}
    _write_or_print(jsonio.dumps(payload), args.out)
    return 0


def cmd_mesh(args) -> int:
    from .export import _csv_chunks, _obj_chunks, csv_grid, obj_mesh
    from .surface import sweep_grid

    sig, surface, meta = _resolve_surface(args)
    sweep = sweep_grid(sig, surface, *_grids(args, surface))
    sweep.det_g  # a det g that is not finite on the grid fails before any output, OBJ alone too
    fmt = args.format
    if fmt is None:
        fmt = "csv" if (args.out or "").endswith(".csv") else "obj"
    if fmt == "json":
        raise UsageError("mesh emits obj or csv; use --format obj|csv")
    if fmt == "obj" and args.out and Path(args.out).suffix == ".csv":
        raise UsageError(
            f"--out {args.out} is also the path of the CSV written beside the OBJ; "
            "give the OBJ another suffix, or use --format csv"
        )
    if not args.out:
        sys.stdout.write((csv_grid if fmt == "csv" else obj_mesh)(sig, sweep))
        return 0
    # _csv_chunks formats every column of the CSV, f's shared with the OBJ,
    # on the call: here, before any file is opened, so an |H| that cannot be
    # read opens none, and the helper thread that writes the sidecar is
    # left the rows alone
    out = Path(args.out)
    if fmt == "csv":
        _stream([(out, _csv_chunks(sig, sweep))])
        return 0
    sidecar = out.with_suffix(".csv")
    _stream([(out, _obj_chunks(sig, sweep)), (sidecar, _csv_chunks(sig, sweep))])
    ns, nt = sweep.s_grid.size, sweep.t_grid.size
    summary = {
        "command": "mesh",
        "signature": _sig_json(sig),
        **meta,
        "vertices": ns * nt,
        "faces": 2 * (ns - 1) * (nt - 1),
        "obj": str(out),
        "csv": str(sidecar),
    }
    sys.stdout.write(jsonio.dumps(summary))
    return 0


def cmd_causal_map(args) -> int:
    from .catalog import causal_map

    if not args.family or not args.sig:
        raise UsageError("causal-map needs --family NAME and --sig n,p")
    if args.format == "obj":
        raise UsageError("causal-map emits json or csv; use --format json|csv")
    sig = _sig_arg(args.sig)
    family = _family_arg(args.family)
    signs = _signs_arg(args.signs) if args.signs else None
    t_domain = _range_arg("--t-range", args.t_range) if args.t_range else None
    report = causal_map(sig, family, signs, t_domain=t_domain)
    if args.format == "csv":
        lines = ["t_lo,t_hi,verdict"]
        for region in report.regions:
            t_lo, t_hi = jsonio._fmt_float(region.t_lo), jsonio._fmt_float(region.t_hi)
            lines.append(f"{t_lo},{t_hi},{region.verdict}")
        _write_or_print("\n".join(lines) + "\n", args.out)
        return 0
    payload = {
        "command": "causal-map",
        "signature": _sig_json(sig),
        "family": CLI_NAME_OF[family],
        "signs": list(report.signs.as_tuple()) if report.signs else None,
        "t_domain": list(report.t_domain),
        "det_g": report.expression,
        "regions": [
            {"t_lo": r.t_lo, "t_hi": r.t_hi, "verdict": r.verdict}
            for r in report.regions
        ],
        "degenerate_loci": list(report.degenerate_loci),
        "constant": report.constant,
        "cross_validated": report.cross_validated,
    }
    _write_or_print(jsonio.dumps(payload), args.out)
    return 0


def cmd_gauge(args) -> int:
    from .surface import gauge_normalize

    sig, surface, meta = _resolve_surface(args)
    result = gauge_normalize(sig, surface)
    payload = {
        "command": "gauge",
        "signature": _sig_json(sig),
        **meta,
        "epsilon": result.epsilon,
        "exact": result.exact,
        "max_abs_g12": result.max_abs_g12,
        "g12_residual": result.g12_residual,
        "lam": jsonio.scalar_fn_to_json(result.lam) if result.lam is not None else None,
        "lam_table": None
        if result.lam_table is None
        else {
            "s": [float(v) for v in result.lam_table[0]],
            "lam": [float(v) for v in result.lam_table[1]],
        },
        "surface": jsonio.surface_to_json(sig, result.surface)
        if result.exact
        else None,
    }
    _write_or_print(jsonio.dumps(payload), args.out)
    return 0


_HANDLERS = {
    "verify": cmd_verify,
    "classify": cmd_classify,
    "existence": cmd_existence,
    "mesh": cmd_mesh,
    "causal-map": cmd_causal_map,
    "gauge": cmd_gauge,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except NonExistenceError as exc:
        result = exc.result
        payload = {
            "error": "non-existence",
            "message": str(exc),
            **_existence_json(result),
        }
        sys.stdout.write(jsonio.dumps(payload))
        return 2
    except RuledminError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        sys.stdout.write(jsonio.dumps(payload))
        return 2


if __name__ == "__main__":
    sys.exit(main())
