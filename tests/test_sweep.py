"""The coefficient-table sweep against the full-array formula it replaces."""

import tracemalloc

import numpy as np
import pytest

from ruledmin import H_TOL, FamilyId, Signature, generate, is_minimal, sweep_grid

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
