"""Mesh (OBJ) and table (CSV) exports of surface sweeps.

Output is byte-deterministic: fixed column order, 17-significant-digit
floats, LF newlines. Every number is "%.17g" of v + 0.0, with non-finite
values spelled nan, exactly as jsonio._fmt_float(x, "nan") spells it.

Each column is a pair: the strings of its distinct values as a fixed-width
numpy bytes array, and each cell's index into them. Only magnitudes are
formatted, each once: the string of -x is "-" and the string of x. A column
that depends on s alone (or is constant) is formatted from its s values;
det g and |H| take few values on a lattice. f's columns are formatted once
per sweep and shared by the OBJ vertices and the CSV. The distinct
magnitudes are spelled by one vectorized kernel (_spell_block): a
double-double scaling by a power of ten, 17 digits read from a 4-digit
table, and the "%.17g" layout. It takes "%" itself as the fallback for the
values it cannot settle exactly (zero, subnormals, nan, magnitudes beyond
1e+-280, values whose float log10 misses their decade, and near-ties), so
the bytes are those of "%" throughout. One row writer builds OBJ vertices,
OBJ faces and CSV rows alike: per block of rows it gathers every column
into a byte buffer that holds the separators and newlines, then drops the
NUL padding of the fixed-width strings (no formatted value contains a NUL).
_obj_chunks and _csv_chunks yield the file a block at a time, so a file can
be streamed to disk without the whole text in memory; obj_mesh and csv_grid
join them. OBJ viewers want 3 coordinates, so higher-dimensional surfaces
are projected onto three ambient axes (spacelike first) with the choice
recorded in the header.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .catalog import DEG_BAND
from .jsonio import _fmt_float
from .metric import Signature
from .surface import SurfaceSweep

# Rows gathered into one byte buffer at a time; bounds the writer's working memory.
BLOCK_ROWS = 1 << 15

_TAG_NAMES = ("degenerate", "spacelike", "timelike")

# "%.17g" of a magnitude is at most 23 bytes long: 17 digits, a point and
# "e-308"
_WIDTH = 23
# The kernel spells magnitudes in [_LOW, _HIGH]; there the scaled products
# below neither overflow nor lose bits to subnormals. Anything else (0,
# subnormals, nan) goes through "%".
_LOW, _HIGH = 1e-280, 1e280
# A scaled value whose fraction lies this close to 1/2 goes through "%": the
# double-double product is off by less than 2**-45, so outside the band the
# rounding direction is exact, and every exact tie falls inside it.
_TIE_BAND = 2.0**-20
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split into 26-bit halves


def _split(a):
    """a = hi + lo with hi the top 26 bits, so products of halves are exact."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _pow10(q: int) -> tuple[float, float, float, float]:
    """10**q as the double-double hi + lo, from the exact Fraction, with hi's
    two halves. The kernel asks for q in [-264, 297] only."""
    exact = Fraction(10) ** q
    hi = float(exact)
    return (hi, float(exact - Fraction(hi)), *_split(hi))


@functools.cache
def _digit_table() -> tuple[np.ndarray, np.ndarray]:
    """Digit rows of four ASCII bytes, gathered whole as '<u4'-sized words
    and so the same on any byte order: row v (v < 10000) spells v with its
    leading zeros, row 10000 + v the same with trailing zeros cut to NUL (all
    NUL for 0), and row 20000 + d is three NULs and the digit d. Also how
    many digits rows 0 to 19999 keep."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, 10000).T + np.uint8(ord("0"))
    v = np.arange(10000)
    kept = 4 - (v % 10 == 0) - (v % 100 == 0) - (v % 1000 == 0) - (v == 0)  # minus trailing zeros
    lead = np.zeros((10, 4), dtype=np.uint8)
    lead[:, 3] = digits[:10, 3]
    stripped = np.where(np.arange(4) < kept[:, None], digits, np.uint8(0))
    table = np.concatenate([digits, stripped, lead]).view(np.uint32).ravel()
    kept = np.concatenate([np.full(10000, 4), kept]).astype(np.int8)
    for shared in (table, kept):  # the cache hands the same arrays to every call
        shared.flags.writeable = False
    return table, kept


def _percent_rows(values) -> np.ndarray:
    """b"%-23.17g" % x for each non-negative or nan x, spaces turned to NUL."""
    text = b"%-23.17g" * values.size % tuple(values.tolist())
    cells = np.frombuffer(text, dtype=np.uint8).reshape(values.size, _WIDTH).copy()
    cells[cells == ord(" ")] = 0
    return cells


def _scaled(v, k):
    """floor(v 10**(16 - k)) as int64 and the fraction left over, from the
    exact product of v and 10**(16 - k)'s hi (Dekker) plus v times its lo."""
    q0 = 16 - int(k.max())
    pow10 = np.array([_pow10(q) for q in range(q0, 17 - int(k.min()))]).T.copy()
    hi, lo, big, small = np.take(pow10, 16 - k - q0, axis=1)
    vb, vs = _split(v)
    p = v * hi
    t = (((vb * big - p) + vb * small + vs * big) + vs * small) + v * lo
    floor = np.floor(t)
    return p.astype(np.int64) + floor.astype(np.int64), t - floor


def _spell_block(x, rows) -> None:
    """Write b"%-23.17g" % x, NUL-padded, into the zeroed (len(x), 23) rows.

    Each x in [_LOW, _HIGH] is scaled by 10**(16 - k), its decade k
    corrected from the scaled floor, and rounded to the 17 digits N; N's
    digits are read from _digit_table with trailing zeros cut, and laid out
    fixed for -4 <= k < 17, else as d.ddd with the exponent after the last
    kept digit. Other values, and those within _TIE_BAND of a tie, are
    spelled by "%". Sorted input keeps each decade one run of rows."""
    fast = (x >= _LOW) & (x <= _HIGH)
    v = np.where(fast, x, 1.0)
    k = np.floor(np.log10(v)).astype(np.int64)
    n, frac = _scaled(v, k)
    # where log10 misses the decade (next to a power of ten), n has 16 or 18
    # digits and "%" spells the value
    slow = np.flatnonzero(~fast | (n < 10**16) | (n >= 10**17) | (np.abs(frac - 0.5) < _TIE_BAND))
    n[slow] = 10**16  # any digits will do: "%" rewrites these rows
    n += frac > 0.5
    carry = n == 10**17
    n[carry] = 10**16
    k += carry

    # N is a lead digit and four groups of four; a group whose later groups
    # are all zero is read from the table's stripped rows
    top = n // 10**8
    low = (n - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    words = np.empty((5, x.size), dtype=np.int32)
    lead = np.floor_divide(top, 10**8, out=words[0])
    words[1] = top // 10**4 - lead * 10**4
    words[2] = top - top // 10**4 * 10**4
    words[3] = low // 10**4
    words[4] = low - words[3] * 10**4
    cut = words[4] == 0
    words[4] += 10000
    for j in (3, 2, 1):
        words[j] += 10000 * cut
        cut &= words[j] == 10000
    words[0] += 20000
    table, kept = _digit_table()
    count = 1 + np.take(kept, words[1:]).sum(axis=0, dtype=np.int8)
    digits = np.take(table, words.T).view(np.uint8)[:, 3:]

    edges = np.flatnonzero(k[1:] != k[:-1]) + 1
    for a, b in zip([0, *edges.tolist()], [*edges.tolist(), x.size]):
        e, d, r, c = int(k[a]), digits[a:b], rows[a:b], count[a:b]
        if 0 <= e < 17:  # the integer part keeps its zeros
            np.maximum(d[:, : e + 1], ord("0"), out=r[:, : e + 1])
            r[:, e + 1] = np.where(c > e + 1, ord("."), 0)
            r[:, e + 2 : 18] = d[:, e + 1 :]
        elif -4 <= e < 0:
            head = np.frombuffer(b"0." + b"0" * (-e - 1), dtype=np.uint8)
            r[:, : head.size] = head
            r[:, head.size : head.size + 17] = d
        else:
            r[:, 0] = d[:, 0]
            r[:, 1] = np.where(c > 1, ord("."), 0)
            r[:, 2:18] = d[:, 1:]
            at = np.arange(b - a) * _WIDTH + np.where(c > 1, c + 1, 1)
            for j, ch in enumerate(b"e%+03d" % e):
                r.reshape(-1)[at + j] = ch
    if slow.size:
        rows[slow] = _percent_rows(x[slow])


def _magnitude_rows(magnitudes) -> np.ndarray:
    """(len, 23) uint8 rows: b"%.17g" of each sorted magnitude or nan,
    NUL-padded at the end, BLOCK_ROWS values at a time."""
    rows = np.zeros((magnitudes.size, _WIDTH), dtype=np.uint8)
    for start in range(0, magnitudes.size, BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        _spell_block(magnitudes[block], rows[block])
    return rows


def _fmt_column(values) -> tuple[np.ndarray, np.ndarray]:
    """The column of a float array in C order: the b"%.17g" strings of its
    distinct values (v + 0.0, non-finite folded to nan) as a fixed-width bytes
    array, NUL-padded at the end, and each cell's index into it. Each distinct
    magnitude is formatted once; when a finite value is negative, the array
    gets a second half, "-" and the same strings, that its cells index. A 2-D
    column whose rows are each constant is formatted from its first column."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 2 and values.shape[1] > 1 and (values == values[:, :1]).all():
        strings, index = _fmt_column(values[:, 0])
        return strings, np.repeat(index, values.shape[1])
    v = values.ravel()
    finite = np.isfinite(v)
    distinct, index = np.unique(np.where(finite, np.abs(v), np.nan), return_inverse=True)
    cells = _magnitude_rows(distinct)
    width = _WIDTH  # cut to the longest value: the last column not all NUL
    while width > 1 and not cells[:, width - 1].any():
        width -= 1
    strings = cells[:, :width]
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
