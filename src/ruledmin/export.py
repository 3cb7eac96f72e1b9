"""Mesh (OBJ) and table (CSV) exports of surface sweeps.

Output is byte-deterministic: fixed column order, 17-significant-digit
floats, LF newlines. Every number is "%.17g" of v + 0.0, with non-finite
values spelled nan, exactly as jsonio._fmt_float(x, "nan") spells it.

Each column is a pair: the strings of its distinct values as a fixed-width
numpy bytes array, and each cell's index into them. Only magnitudes are
formatted, each once: the string of -x is "-" and the string of x. Most
columns of f depend on s alone or are constant, and det g and |H| take few
values on a lattice. f's columns are formatted once per sweep and shared by
the OBJ vertices and the CSV. One row writer builds OBJ vertices, OBJ faces
and CSV rows alike: per block of rows it gathers every column into a byte
buffer that holds the separators and newlines, then drops the NUL padding of
the fixed-width strings (no formatted value contains a NUL). _obj_chunks and
_csv_chunks yield the file a block at a time, so a file can be streamed to
disk without the whole text in memory; obj_mesh and csv_grid join them. OBJ
viewers want 3 coordinates, so higher-dimensional surfaces are projected
onto three ambient axes (spacelike first) with the choice recorded in the
header.
"""

from __future__ import annotations

import numpy as np

from .catalog import DEG_BAND
from .jsonio import _fmt_float
from .metric import Signature
from .surface import SurfaceSweep

# Rows gathered into one byte buffer at a time; bounds the writer's working memory.
BLOCK_ROWS = 1 << 15

_TAG_NAMES = ("degenerate", "spacelike", "timelike")


def _fmt_column(values) -> tuple[np.ndarray, np.ndarray]:
    """The column of a float array in C order: the b"%.17g" strings of its
    distinct values (v + 0.0, non-finite folded to nan) as a fixed-width bytes
    array, NUL-padded at the end, and each cell's index into it. Each distinct
    magnitude is formatted once; when a finite value is negative, the array
    gets a second half, "-" and the same strings, that its cells index."""
    v = np.asarray(values, dtype=float).ravel()
    finite = np.isfinite(v)
    distinct, index = np.unique(np.where(finite, np.abs(v), np.nan), return_inverse=True)
    # "%.17g" of a magnitude is at most 23 bytes long and holds no space, so
    # padding every value to 23 with spaces and then turning them into NULs
    # gives the rows of a fixed-width array; its width is then cut to the
    # longest value
    text = b"%-23.17g" * distinct.size % tuple(distinct.tolist())
    cells = np.frombuffer(text, dtype=np.uint8).reshape(distinct.size, 23).copy()
    cells[cells == ord(" ")] = 0
    strings = cells[:, : max(1, int(cells.any(axis=0).sum()))]
    negative = finite & (v < 0)
    if negative.any():
        minus = np.pad(strings, ((0, 0), (1, 0)), constant_values=ord("-"))
        strings = np.concatenate([np.pad(strings, ((0, 0), (0, 1))), minus])
        index = index + distinct.size * negative
    strings = np.ascontiguousarray(strings)
    return strings.view(f"S{strings.shape[1]}").ravel(), index


def _f_column(sweep: SurfaceSweep, k: int) -> tuple[np.ndarray, np.ndarray]:
    """f's ambient column k, kept on the sweep from the first call, so the
    OBJ and the CSV of one sweep format each column once."""
    columns = sweep.__dict__.setdefault("_f_strings", {})
    if k not in columns:
        columns[k] = _fmt_column(sweep.f[..., k])
    return columns[k]


def _rows(prefix: bytes, sep: bytes, columns):
    """Byte chunks of one line per row: prefix, the row's string of each
    (strings, index) column joined by the one-byte sep, and a newline. A
    generator, so the columns and the buffer go once the last chunk is out."""
    template, slots = bytearray(prefix), []
    for strings, _ in columns:
        slots.append(slice(len(template), len(template) + strings.itemsize))
        template += bytes(strings.itemsize) + sep
    template[-1:] = b"\n"
    nrows = len(columns[0][1])
    buf = np.empty((min(nrows, BLOCK_ROWS), len(template)), dtype=np.uint8)
    buf[:] = np.frombuffer(bytes(template), dtype=np.uint8)
    for start in range(0, nrows, BLOCK_ROWS):
        block = buf[: min(nrows - start, BLOCK_ROWS)]
        for (strings, index), slot in zip(columns, slots):
            cells = strings[index[start : start + len(block)]]
            block[:, slot] = cells.view(np.uint8).reshape(len(block), -1)
        yield block.tobytes().translate(None, b"\0")


def _face_rows(ns: int, nt: int):
    """OBJ face lines of an ns x nt lattice: vertex (i, j) is number
    i * nt + j + 1, and each quad gives two triangles."""
    a = (np.arange(ns - 1)[:, None] * nt + np.arange(nt - 1)[None, :]).ravel()
    tri = np.stack([a, a + nt, a + nt + 1, a, a + nt + 1, a + 1], axis=-1).reshape(-1, 3)
    # the decimal digits of each vertex number, as wide as the largest, with
    # the leading places NUL (which the row writer drops)
    count = ns * nt
    places = 10 ** np.arange(len(str(count)) - 1, -1, -1)
    numbers = np.arange(1, count + 1)[:, None]
    digits = np.where(numbers >= places, numbers // places % 10 + ord("0"), 0).astype(np.uint8)
    strings = digits.view(f"S{places.size}").ravel()
    yield from _rows(b"f ", b" ", [(strings, tri[:, k]) for k in range(3)])


def projection_axes(sig: Signature) -> list[int]:
    """Ambient axes used for 3D display: spacelike first, then timelike."""
    if sig.n == 3:
        return [0, 1, 2]
    order = list(range(sig.p, sig.n)) + list(range(sig.p))
    return order[:3]


def _tag_index(det) -> np.ndarray:
    """Index into _TAG_NAMES of each det g value: degenerate when |det g| <=
    DEG_BAND, else spacelike when det g > 0 and timelike otherwise."""
    det = np.asarray(det)
    return np.where(np.abs(det) <= DEG_BAND, 0, np.where(det > 0, 1, 2))


def _obj_chunks(sig: Signature, sweep: SurfaceSweep):
    """The bytes of obj_mesh, a header and then a block of rows at a time."""
    s_grid, t_grid = sweep.s_grid, sweep.t_grid
    ns, nt = s_grid.size, t_grid.size
    axes = projection_axes(sig)
    s0, s1, t0, t1 = (_fmt_float(x, "nan") for x in (s_grid[0], s_grid[-1], t_grid[0], t_grid[-1]))
    yield (
        f"# ruled surface mesh, {ns} x {nt} lattice over "
        f"s in [{s0}, {s1}], t in [{t0}, {t1}]\n"
        f"# ambient dimension {sig.n} (index {sig.p}); displayed axes "
        + ", ".join(str(a + 1) for a in axes)
        + "\n"
    ).encode()
    zero = (np.array([b"0"]), np.broadcast_to(0, (ns * nt,)))
    yield from _rows(b"v ", b" ", [_f_column(sweep, k) for k in axes] + [zero] * (3 - len(axes)))
    yield from _face_rows(ns, nt)


def _csv_chunks(sig: Signature, sweep: SurfaceSweep):
    """The bytes of csv_grid, a header and then a block of rows at a time."""
    header = ["s", "t"] + [f"f_{i + 1}" for i in range(sig.n)] + [
        "det_g",
        "H_norm",
        "causal_tag",
    ]
    yield ",".join(header).encode() + b"\n"
    ns, nt = sweep.s_grid.size, sweep.t_grid.size
    s_strings, s_index = _fmt_column(sweep.s_grid)
    t_strings, t_index = _fmt_column(sweep.t_grid)
    yield from _rows(b"", b",", [
        (s_strings, np.repeat(s_index, nt)),
        (t_strings, np.tile(t_index, ns)),
        *(_f_column(sweep, k) for k in range(sig.n)),
        _fmt_column(sweep.det_g),
        _fmt_column(sweep.H_norm),
        (np.array(_TAG_NAMES, dtype=bytes), _tag_index(sweep.det_g).ravel()),
    ])


def obj_mesh(sig: Signature, sweep: SurfaceSweep) -> str:
    """Wavefront OBJ of the sweep's (s, t) lattice, quads split into two triangles."""
    return b"".join(_obj_chunks(sig, sweep)).decode()


def csv_grid(sig: Signature, sweep: SurfaceSweep) -> str:
    """Per-vertex table of the sweep: s, t, f_1..f_n, det_g, H_norm, causal_tag."""
    return b"".join(_csv_chunks(sig, sweep)).decode()
