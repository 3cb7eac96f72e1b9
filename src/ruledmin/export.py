"""Mesh (OBJ) and table (CSV) exports of surface sweeps.

Output is byte-deterministic: fixed column order, 17-significant-digit
floats, LF newlines. Each column is formatted with one C-level "%.17g"
call over the whole column, after folding -0.0 to 0.0 and non-finite
values to nan; that spells every value exactly as jsonio._fmt_float(x,
"nan") does. s and t are formatted once per grid line. OBJ viewers want 3
coordinates, so higher-dimensional surfaces are projected onto three
ambient axes (spacelike first) with the choice recorded in the header.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

from .catalog import DEG_BAND
from .metric import Signature
from .surface import RuledSurface, SurfaceSweep, sweep_grid


def _printable(values) -> list[float]:
    """A float array flattened in C order, ready for "%.17g".

    Adding 0.0 turns -0.0 into 0.0 and non-finite values become nan; "%.17g"
    then spells each value exactly as _fmt_float(x, "nan") does, integral
    values without a decimal point included.
    """
    v = np.asarray(values, dtype=float).ravel()
    return np.where(np.isfinite(v), v + 0.0, np.nan).tolist()


def _fmt_column(values) -> list[str]:
    """17-significant-digit strings of a float array, from one % call."""
    v = _printable(values)
    return ("%.17g\n" * len(v) % tuple(v)).split("\n")[:-1]


def projection_axes(sig: Signature) -> list[int]:
    """Ambient axes used for 3D display: spacelike first, then timelike."""
    if sig.n == 3:
        return [0, 1, 2]
    order = list(range(sig.p, sig.n)) + list(range(sig.p))
    return order[:3]


def project_points(sig: Signature, pts: np.ndarray) -> np.ndarray:
    """Project (..., n) points to (..., 3) along projection_axes, zero-padded."""
    axes = projection_axes(sig)
    out = np.zeros(pts.shape[:-1] + (3,))
    for slot, axis in enumerate(axes):
        out[..., slot] = pts[..., axis]
    return out


def causal_tag(det, band: float = DEG_BAND) -> np.ndarray:
    """"degenerate", "spacelike" or "timelike" for each det g value."""
    det = np.asarray(det)
    return np.where(
        np.abs(det) <= band, "degenerate", np.where(det > 0, "spacelike", "timelike")
    )


def obj_mesh(
    sig: Signature,
    surface: RuledSurface,
    s_grid: np.ndarray,
    t_grid: np.ndarray,
    sweep: SurfaceSweep | None = None,
) -> str:
    """Wavefront OBJ of the (s, t) lattice, quads split into two triangles."""
    if sweep is None:
        sweep = sweep_grid(sig, surface, s_grid, t_grid)
    ns, nt = sweep.f.shape[0], sweep.f.shape[1]
    pts = project_points(sig, sweep.f)
    axes = projection_axes(sig)
    s0, s1, t0, t1 = _fmt_column([s_grid[0], s_grid[-1], t_grid[0], t_grid[-1]])
    head = (
        f"# ruled surface mesh, {ns} x {nt} lattice over "
        f"s in [{s0}, {s1}], t in [{t0}, {t1}]\n"
        f"# ambient dimension {sig.n} (index {sig.p}); displayed axes "
        + ", ".join(str(a + 1) for a in axes)
        + "\n"
    )
    verts = "v %.17g %.17g %.17g\n" * (ns * nt) % tuple(_printable(pts))
    # vertex (i, j) is number i * nt + j + 1; each quad gives two triangles
    a = (np.arange(ns - 1)[:, None] * nt + np.arange(nt - 1)[None, :] + 1).ravel()
    b, c, d = a + nt, a + nt + 1, a + 1
    tri = np.stack([a, b, c, a, c, d], axis=-1).ravel().tolist()
    faces = "f %d %d %d\nf %d %d %d\n" * a.size % tuple(tri)
    return head + verts + faces


def csv_grid(
    sig: Signature,
    surface: RuledSurface,
    s_grid: np.ndarray,
    t_grid: np.ndarray,
    sweep: SurfaceSweep | None = None,
    band: float = DEG_BAND,
) -> str:
    """Per-vertex table: s, t, f_1..f_n, det_g, H_norm, causal_tag."""
    if sweep is None:
        sweep = sweep_grid(sig, surface, s_grid, t_grid)
    header = ["s", "t"] + [f"f_{i + 1}" for i in range(sig.n)] + [
        "det_g",
        "H_norm",
        "causal_tag",
    ]
    ns, nt = sweep.f.shape[0], sweep.f.shape[1]
    s_col = chain.from_iterable(map(repeat, _fmt_column(sweep.s_grid), repeat(nt)))
    t_col = _fmt_column(sweep.t_grid) * ns
    f_cols = [_fmt_column(sweep.f[..., k]) for k in range(sig.n)]
    rows = map(",".join, zip(
        s_col,
        t_col,
        *f_cols,
        _fmt_column(sweep.det_g),
        _fmt_column(sweep.H_norm),
        causal_tag(sweep.det_g, band).ravel().tolist(),
    ))
    return ",".join(header) + "\n" + "\n".join(rows) + "\n"
