"""The coefficient-table sweep against the full-array formula it replaces."""

import tracemalloc

import numpy as np
import pytest

from ruledmin import H_TOL, FamilyId, SignChoice, Signature, generate, is_minimal, sweep_grid
from ruledmin import surface
from ruledmin.jsonio import surface_from_json
from ruledmin.surface import _H_BLOCK_POINTS

from _oracles import vector_sweep
from test_catalog import _admissible_triples

# float64 rounding of a pairing is a few ulps of the largest product summed
REL_TOL = 1e-12


@pytest.mark.parametrize("sig,family,signs", [*_admissible_triples(n_range=(3, 4, 5))], ids=str)
def test_sweep_agrees_with_the_full_array_formula(sig, family, signs):
    surf = generate(sig, family, signs=signs)
    s, t = surf.default_grids()
    sweep = sweep_grid(sig, surf, s, t)
    ref = vector_sweep(sig, surf, s, t)

    fs_sq = (ref["f_s"] ** 2).sum(axis=-1)
    ft_sq = (ref["f_t"] ** 2).sum(axis=-1)
    for name, scale in (("g11", fs_sq), ("g12", np.sqrt(fs_sq * ft_sq)), ("det_g", fs_sq * ft_sq)):
        assert np.all(np.abs(getattr(sweep, name) - ref[name]) <= REL_TOL * scale), name
    assert np.array_equal(sweep.nondegenerate, ref["nondegenerate"])
    assert np.array_equal(sweep.f, ref["f"])

    mask = ref["nondegenerate"]
    report = sweep.minimality()
    assert report.is_minimal == (np.nanmax(ref["H_norm"]) <= H_TOL)
    ref_tg = max(np.abs(ref["h11"][mask]).max(), np.abs(ref["h12"][mask]).max()) <= H_TOL
    assert report.totally_geodesic == ref_tg
    # the lazily built second-form arrays are the formula's off the band: the
    # scale is the projected vector's size times the projection's condition number
    cond = (fs_sq * ft_sq)[mask] / np.abs(ref["det_g"][mask])
    for name, vec in (("h11", "f_ss"), ("h12", "f_st")):
        scale = np.sqrt((ref[vec][mask] ** 2).sum(axis=-1)) * cond
        err = np.abs(getattr(sweep, name)[mask] - ref[name][mask]).max(axis=-1)
        assert np.all(err <= REL_TOL * scale), name


@pytest.mark.parametrize("num", [41, 201])
def test_catalog_surfaces_verify_on_the_wide_domain(num):
    grid = np.linspace(-10.0, 10.0, num)
    failed = []
    for sig, family, signs in _admissible_triples():
        surf = generate(sig, family, signs=signs, s_domain=(-10.0, 10.0), t_domain=(-10.0, 10.0))
        report = is_minimal(sig, surf, grid, grid)
        if not report.is_minimal:
            failed.append((str(sig), family.value, str(signs), report.max_h_norm))
    assert failed == []


def _is_minimal_peak_bytes(sig):
    surf = generate(sig, FamilyId.ELLIPTIC_HELICOID_1)
    grid = np.linspace(-3.0, 3.0, 301)
    is_minimal(sig, surf, grid, grid)  # curve derivative caches fill here
    tracemalloc.start()
    try:
        assert is_minimal(sig, surf, grid, grid).is_minimal
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_is_minimal_memory_does_not_grow_with_the_dimension(monkeypatch):
    # on one thread: with two, the peak depends on how their blocks overlap
    monkeypatch.setattr(surface, "on_two_threads", lambda tasks: [task() for task in tasks])
    peak_3 = _is_minimal_peak_bytes(Signature(3, 0))
    assert _is_minimal_peak_bytes(Signature(8, 0)) <= 1.25 * peak_3


def _cubic_cylinder():
    """The cylinder over x(s) = (s^2 / 2, s^3 / 3, 0) along the unit ruling
    (0.6, 0, 0.8) in R^3_0: det g = 0.64 s^2 + s^4, degenerate on the row
    s = 0, and H has three non-zero components elsewhere, so the order of
    its sum of squares shows in the last bits."""
    return surface_from_json({
        "signature": {"n": 3, "p": 0},
        "gamma": {"n": 3, "terms": [{"basis": "pow", "param": 0, "coeff": [0.6, 0, 0.8]}]},
        "base": {"n": 3, "terms": [
            {"basis": "pow", "param": 2, "coeff": [0.5, 0, 0]},
            {"basis": "pow", "param": 3, "coeff": [0, 1 / 3, 0]},
        ]},
        "s_domain": [-2, 2],
        "t_domain": [-2, 2],
    })


def _rows_with_zeros(ns, zeros):
    """ns s-rows over [-2, 2] that pass s = 0 exactly on the rows zeros."""
    s = np.linspace(-2.0, 2.0, ns)
    s[s == 0.0] = 1e-3
    s[zeros] = 0.0
    return s


# s-row blocks over a 181-point t-row, as many rows as fit _H_BLOCK_POINTS:
# two full blocks and a short one, which this thread reads from the first
# and the helper thread from the last
_STEP = _H_BLOCK_POINTS // 181
_NS = 2 * _STEP + 38


@pytest.mark.parametrize(
    "s,t",
    [
        # s = 0 on the first row, on both sides of the first block boundary
        # and once in the last block
        (_rows_with_zeros(_NS, [0, _STEP - 1, _STEP, _NS - 20]), np.linspace(-2.0, 2.0, 181)),
        # rows longer than a block: one row at a time
        (np.array([-1.0, 0.0, 0.5, 0.0]), np.linspace(-2.0, 2.0, _H_BLOCK_POINTS + 7)),
        # the only degenerate row is in the last block
        (_rows_with_zeros(_NS, [_NS - 5]), np.linspace(-2.0, 2.0, 181)),
    ],
    ids=["blocks-of-rows", "row-by-row", "degenerate-row-in-the-last-block"],
)
def test_h_norm_read_in_row_blocks_equals_the_whole_grid_formula(s, t, monkeypatch):
    sig, surf = _cubic_cylinder()
    sweep = sweep_grid(sig, surf, s, t)
    assert s.size * t.size > 2 * _H_BLOCK_POINTS
    assert np.array_equal((~sweep.nondegenerate).all(axis=1), s == 0.0)
    # H is read on the whole grid at once; |H| sums its squares axis by axis
    H = sweep.H
    h_sq = np.zeros_like(sweep.det_g)
    for k in range(H.shape[-1]):
        h_sq += H[..., k] * H[..., k]
    whole = np.sqrt(h_sq)
    assert np.isnan(whole).any() and np.nanmin(whole) > 0.0
    assert np.array_equal(sweep.H_norm, whole, equal_nan=True)

    # the fused pass of minimality reports what the whole-grid arrays give
    report = sweep_grid(sig, surf, s, t).minimality()
    ref = vector_sweep(sig, surf, s, t)
    degenerate = np.argwhere(~ref["nondegenerate"])
    assert np.array_equal(sweep.nondegenerate, ref["nondegenerate"])
    assert report.max_h_norm == np.nanmax(whole)
    assert report.points_degenerate == len(degenerate)
    assert report.points_checked == s.size * t.size - len(degenerate)
    assert report.degenerate_sample == [(s[i], t[j]) for i, j in degenerate[:16]]
    assert report.is_minimal is False and report.totally_geodesic is False
    # and one block on this thread gives every field bit for bit
    monkeypatch.setattr(surface, "_H_BLOCK_POINTS", s.size * t.size)
    one_block = sweep_grid(sig, surf, s, t)
    assert one_block.minimality() == report
    for name in ("g11", "g12", "det_g", "nondegenerate", "H_norm"):
        assert np.array_equal(getattr(one_block, name), getattr(sweep, name), equal_nan=True), name


def test_a_grid_of_one_block_starts_no_thread_and_a_larger_one_one_per_pass(thread_starts):
    sig, surf = _cubic_cylinder()
    grid = np.linspace(-2.0, 2.0, 41)
    small = sweep_grid(sig, surf, grid, grid)
    small.minimality()
    small.H_norm
    assert thread_starts == []
    grid = np.linspace(-2.0, 2.0, 401)
    assert grid.size**2 > 2 * _H_BLOCK_POINTS
    large = sweep_grid(sig, surf, grid, grid)
    assert thread_starts == []
    large.minimality()
    assert len(thread_starts) == 1
    large.H_norm  # the first form, then |H|
    assert len(thread_starts) == 3
    assert not any(thread.is_alive() for thread in thread_starts)


def test_the_degenerate_sample_runs_in_row_order_across_the_two_halves(monkeypatch):
    # det g = t^2 - 1 vanishes on t = +-1 on every s-row of both halves
    sig = Signature(3, 1)
    surf = generate(sig, FamilyId.ELLIPTIC_HELICOID_1, signs=SignChoice(1, 1, -1))
    s, t = np.linspace(-3.0, 3.0, 401), np.linspace(-2.0, 2.0, 401)
    report = sweep_grid(sig, surf, s, t).minimality()
    assert report.points_degenerate == 2 * s.size
    assert report.degenerate_sample == [(s[i], float(v)) for i in range(8) for v in (-1.0, 1.0)]
    monkeypatch.setattr(surface, "_H_BLOCK_POINTS", s.size * t.size)
    assert sweep_grid(sig, surf, s, t).minimality() == report


@pytest.mark.parametrize("which", ["first", "last"])
def test_a_failing_block_is_raised_after_the_helper_is_joined(monkeypatch, thread_starts, which):
    sig, surf = _cubic_cylinder()
    grid = np.linspace(-2.0, 2.0, 401)
    sweep = sweep_grid(sig, surf, grid, grid)
    step = _H_BLOCK_POINTS // grid.size
    first_row = 0 if which == "first" else (grid.size - 1) // step * step
    real = surface._h_squared

    def failing(numerator, rows, *args):
        if rows.start == first_row:
            raise MemoryError(f"rows from {rows.start}")
        return real(numerator, rows, *args)

    monkeypatch.setattr(surface, "_h_squared", failing)
    with pytest.raises(MemoryError, match=f"rows from {first_row}$"):
        sweep.minimality()
    assert len(thread_starts) == 1 and not thread_starts[0].is_alive()
