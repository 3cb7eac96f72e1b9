"""The coefficient-table sweep against the full-array formula it replaces."""

import tracemalloc

import numpy as np
import pytest

from ruledmin import H_TOL, FamilyId, Signature, generate, is_minimal, sweep_grid
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


def test_is_minimal_memory_does_not_grow_with_the_dimension():
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


@pytest.mark.parametrize(
    "s,t",
    [
        # three blocks of 181, 181 and 38 rows; s = 0 on both sides of the
        # first block boundary
        (np.insert(np.linspace(-2.0, 2.0, 396), [0, 179, 179, 249], 0.0), np.linspace(-2.0, 2.0, 181)),
        # rows longer than a block: one row at a time
        (np.array([-1.0, 0.0, 0.5, 0.0]), np.linspace(-2.0, 2.0, _H_BLOCK_POINTS + 7)),
    ],
    ids=["blocks-of-rows", "row-by-row"],
)
def test_h_norm_read_in_row_blocks_equals_the_whole_grid_formula(s, t):
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
