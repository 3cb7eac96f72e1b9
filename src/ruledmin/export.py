"""Mesh (OBJ) and table (CSV) exports of surface sweeps.

Output is byte-deterministic: fixed column order, 17-significant-digit
floats, LF newlines. A column is formatted by folding -0.0 to 0.0 and
non-finite values to nan and then spelling each of its distinct values
once with "%.17g", exactly as jsonio._fmt_float(x, "nan") does; most
columns of f depend on s alone or are constant, and det g and |H| take few
values on a lattice. f's columns are formatted once per sweep, and the OBJ
vertices and the CSV share those strings. OBJ viewers want 3 coordinates,
so higher-dimensional surfaces are projected onto three ambient axes
(spacelike first) with the choice recorded in the header.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

from .catalog import DEG_BAND
from .metric import Signature
from .surface import SurfaceSweep


def _fmt_column(values) -> list[str]:
    """17-significant-digit strings of a float array in C order, one "%.17g"
    per distinct value, mapped back to every cell that holds it."""
    v = np.asarray(values, dtype=float).ravel()
    distinct, index = np.unique(np.where(np.isfinite(v), v + 0.0, np.nan), return_inverse=True)
    strings = ("%.17g\n" * distinct.size % tuple(distinct.tolist())).split("\n")[:-1]
    return np.array(strings, dtype=object)[index].tolist()


def _f_column(sweep: SurfaceSweep, k: int) -> list[str]:
    """Strings of f's ambient column k, kept on the sweep from the first call,
    so obj_mesh and csv_grid of one sweep format each column once."""
    columns = sweep.__dict__.setdefault("_f_strings", {})
    if k not in columns:
        columns[k] = _fmt_column(sweep.f[..., k])
    return columns[k]


def projection_axes(sig: Signature) -> list[int]:
    """Ambient axes used for 3D display: spacelike first, then timelike."""
    if sig.n == 3:
        return [0, 1, 2]
    order = list(range(sig.p, sig.n)) + list(range(sig.p))
    return order[:3]


def causal_tag(det) -> np.ndarray:
    """"degenerate" (|det g| <= DEG_BAND), "spacelike" or "timelike" for each det g value."""
    det = np.asarray(det)
    return np.where(
        np.abs(det) <= DEG_BAND, "degenerate", np.where(det > 0, "spacelike", "timelike")
    )


def obj_mesh(sig: Signature, sweep: SurfaceSweep) -> str:
    """Wavefront OBJ of the sweep's (s, t) lattice, quads split into two triangles."""
    s_grid, t_grid = sweep.s_grid, sweep.t_grid
    ns, nt = s_grid.size, t_grid.size
    axes = projection_axes(sig)
    s0, s1, t0, t1 = _fmt_column([s_grid[0], s_grid[-1], t_grid[0], t_grid[-1]])
    head = (
        f"# ruled surface mesh, {ns} x {nt} lattice over "
        f"s in [{s0}, {s1}], t in [{t0}, {t1}]\n"
        f"# ambient dimension {sig.n} (index {sig.p}); displayed axes "
        + ", ".join(str(a + 1) for a in axes)
        + "\n"
    )
    xyz = [_f_column(sweep, k) for k in axes] + [["0"] * (ns * nt)] * (3 - len(axes))
    verts = "v " + "\nv ".join(map(" ".join, zip(*xyz))) + "\n"
    # vertex (i, j) is number i * nt + j + 1; each quad gives two triangles
    a = (np.arange(ns - 1)[:, None] * nt + np.arange(nt - 1)[None, :] + 1).ravel()
    b, c, d = a + nt, a + nt + 1, a + 1
    tri = np.stack([a, b, c, a, c, d], axis=-1).ravel().tolist()
    faces = "f %d %d %d\nf %d %d %d\n" * a.size % tuple(tri)
    return head + verts + faces


def csv_grid(sig: Signature, sweep: SurfaceSweep) -> str:
    """Per-vertex table of the sweep: s, t, f_1..f_n, det_g, H_norm, causal_tag."""
    header = ["s", "t"] + [f"f_{i + 1}" for i in range(sig.n)] + [
        "det_g",
        "H_norm",
        "causal_tag",
    ]
    ns, nt = sweep.s_grid.size, sweep.t_grid.size
    s_col = chain.from_iterable(map(repeat, _fmt_column(sweep.s_grid), repeat(nt)))
    t_col = _fmt_column(sweep.t_grid) * ns
    rows = map(",".join, zip(
        s_col,
        t_col,
        *(_f_column(sweep, k) for k in range(sig.n)),
        _fmt_column(sweep.det_g),
        _fmt_column(sweep.H_norm),
        causal_tag(sweep.det_g).ravel().tolist(),
    ))
    return ",".join(header) + "\n" + "\n".join(rows) + "\n"
