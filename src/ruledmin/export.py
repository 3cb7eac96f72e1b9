"""Mesh (OBJ) and table (CSV) exports of surface sweeps.

Output is byte-deterministic: fixed column order, 17-significant-digit
floats, LF newlines. OBJ viewers want 3 coordinates, so higher-dimensional
surfaces are projected onto three ambient axes (spacelike first) with the
choice recorded in the header.
"""

from __future__ import annotations

import numpy as np

from .catalog import DEG_BAND
from .jsonio import _fmt_float
from .metric import Signature
from .surface import RuledSurface, SurfaceSweep, sweep_grid


def _fmt(x: float) -> str:
    return _fmt_float(x, non_finite="nan")


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


def causal_tag(det: float, band: float = DEG_BAND) -> str:
    if abs(det) <= band:
        return "degenerate"
    return "spacelike" if det > 0 else "timelike"


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
    lines = [
        f"# ruled surface mesh, {ns} x {nt} lattice over "
        f"s in [{_fmt(s_grid[0])}, {_fmt(s_grid[-1])}], "
        f"t in [{_fmt(t_grid[0])}, {_fmt(t_grid[-1])}]",
        f"# ambient dimension {sig.n} (index {sig.p}); displayed axes "
        + ", ".join(str(a + 1) for a in axes),
    ]
    for i in range(ns):
        for j in range(nt):
            x, y, z = pts[i, j]
            lines.append(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}")

    def vid(i: int, j: int) -> int:
        return i * nt + j + 1

    for i in range(ns - 1):
        for j in range(nt - 1):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    return "\n".join(lines) + "\n"


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
    rows = [",".join(header)]
    ns, nt = sweep.f.shape[0], sweep.f.shape[1]
    for i in range(ns):
        for j in range(nt):
            det = float(sweep.det_g[i, j])
            cells = [_fmt(sweep.s_grid[i]), _fmt(sweep.t_grid[j])]
            cells += [_fmt(c) for c in sweep.f[i, j]]
            cells.append(_fmt(det))
            cells.append(_fmt(sweep.H_norm[i, j]))
            cells.append(causal_tag(det, band))
            rows.append(",".join(cells))
    return "\n".join(rows) + "\n"
