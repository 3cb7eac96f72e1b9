"""Tests for family generators, causal maps, span checks, and the graph check."""

from fractions import Fraction as F

import numpy as np
import pytest

from ruledmin import (
    DEG_BAND,
    H_TOL,
    CrossValidationError,
    CurveExpr,
    FamilyId,
    FrameSpec,
    NonExistenceError,
    RuledSurface,
    SignChoice,
    Signature,
    UsageError,
    bernstein_check,
    causal_map,
    degenerate_span_check,
    existence_oracle,
    gauge_normalize,
    generate,
    gram_matrix,
    is_minimal,
    pick_signs,
    scale_surface,
    sweep_grid,
    uniform_grid,
)
from ruledmin import catalog
from ruledmin.basisfn import EXP, Atom
from ruledmin.catalog import SpanType, _det_g_terms
from ruledmin.surface import _constant_value, _RulingTables

from _oracles import det_g_closed_form, vector_sweep

R30 = Signature(3, 0)
R31 = Signature(3, 1)
R41 = Signature(4, 1)
R42 = Signature(4, 2)

FRAME_FAMILIES = (
    FamilyId.ELLIPTIC_HELICOID_1,
    FamilyId.ELLIPTIC_HELICOID_2,
    FamilyId.HYPERBOLIC_HELICOID_1,
    FamilyId.HYPERBOLIC_HELICOID_2,
    FamilyId.PARABOLIC_HELICOID,
    FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID,
)


def _admissible_triples(n_range=(3, 4, 5, 6)):
    """Yield every (sig, family, signs) the existence decision admits."""
    for n in n_range:
        for p in range(0, n + 1):
            sig = Signature(n, p)
            for family in FamilyId:
                if family is FamilyId.PLANE:
                    continue
                result = existence_oracle(sig, family)
                if not result.exists:
                    continue
                if family is FamilyId.MINIMAL_CYLINDER:
                    yield sig, family, None
                    continue
                for choice, ok, _ in result.per_sign:
                    if ok:
                        yield sig, family, choice


# ---------------------------------------------------------------------------
# generation


def test_classical_helicoid_coordinates():
    surf = generate(R30, FamilyId.ELLIPTIC_HELICOID_1, signs=SignChoice(1, 1, 1))
    for s, t in [(0.0, 1.0), (0.7, -2.0), (-1.2, 0.4)]:
        f = sweep_grid(R30, surf, [s], [t]).f[0, 0]
        assert np.allclose(f, (t * np.cos(s), t * np.sin(s), s), atol=1e-15)


def test_second_kind_witness_frame_in_neutral_four_space():
    surf = generate(R42, FamilyId.HYPERBOLIC_HELICOID_2, signs=SignChoice(-1, 1, 0))
    # gamma(0) = e1, gamma'(0) = e2 up to sign, x'(0) covers e3
    assert np.allclose(surf.gamma.eval(0.0), (1, 0, 0, 0), atol=1e-15)
    assert np.allclose(surf.base.eval(0.0, 1), (0, 1, 0, 1), atol=1e-15)
    assert is_minimal(R42, surf, tau_deg=1e-6).is_minimal


def test_minimal_cylinder_canonical_witness():
    surf = generate(R31, FamilyId.MINIMAL_CYLINDER)
    s_grid = uniform_grid(-3.0, 3.0, 31)
    gamma0 = surf.gamma.eval(0.0)
    assert np.allclose(gamma0, (1, 1, 0), atol=1e-15)
    x1 = surf.base.eval(s_grid, 1)
    pairing = -x1[:, 0] + x1[:, 1]
    assert np.max(np.abs(pairing + np.exp(-s_grid))) < 1e-12


def test_generate_rejects_inadmissible_requests():
    with pytest.raises(NonExistenceError) as err:
        generate(R31, FamilyId.HYPERBOLIC_HELICOID_2)
    assert err.value.result.certificate is not None
    with pytest.raises(NonExistenceError):
        generate(R30, FamilyId.MINIMAL_CYLINDER)


def test_generate_rejects_wrong_sign_pattern():
    with pytest.raises(UsageError):
        generate(R30, FamilyId.ELLIPTIC_HELICOID_1, signs=SignChoice(1, -1, 0))


def test_generate_rejects_signs_on_a_plane_or_cylinder():
    for family in (FamilyId.PLANE, FamilyId.MINIMAL_CYLINDER):
        # R^3_0 carries no cylinder: the sign check comes before existence
        for sig in (R30, R31):
            with pytest.raises(UsageError, match="takes no frame sign choice"):
                generate(sig, family, signs=SignChoice(1, 1, 1))


def test_plane_generation():
    surf = generate(R30, FamilyId.PLANE)
    assert surf.gamma.is_constant()
    assert is_minimal(R30, surf).is_minimal


@pytest.mark.parametrize(
    "sig,family,signs",
    [*_admissible_triples(n_range=(3, 4, 5)),
     *((Signature(n, p), FamilyId.PLANE, None) for n in (3, 4, 5) for p in range(n + 1))],
    ids=str,
)
def test_totally_geodesic_verdict_matches_the_sweep(sig, family, signs):
    surf = generate(sig, family, signs=signs)
    sweep = vector_sweep(sig, surf, *surf.default_grids())
    mask = sweep["nondegenerate"]
    expected = max(np.abs(sweep["h11"][mask]).max(), np.abs(sweep["h12"][mask]).max()) <= H_TOL
    assert is_minimal(sig, surf).totally_geodesic == expected
    assert expected == (family is FamilyId.PLANE)


def test_all_admissible_triples_generate_minimal_surfaces():
    count = 0
    for sig, family, signs in _admissible_triples(n_range=(3, 4)):
        surf = generate(sig, family, signs=signs)
        assert is_minimal(sig, surf, tau_deg=1e-6).is_minimal, (sig, family, signs)
        count += 1
    assert count > 20


# ---------------------------------------------------------------------------
# closed-form determinant of the first form


def test_det_g_closed_forms():
    """det g's coefficients, derived from the surface's own pairings, are
    constant in s and equal the hand-written oracle table exactly."""
    cases = [
        (FamilyId.ELLIPTIC_HELICOID_1, SignChoice(1, 1, 1), (1.0, 0.0, 1.0)),
        (FamilyId.ELLIPTIC_HELICOID_1, SignChoice(1, 1, -1), (1.0, 0.0, -1.0)),
        (FamilyId.ELLIPTIC_HELICOID_2, SignChoice(1, 1, 0), (1.0, 0.0, 0.0)),
        (FamilyId.HYPERBOLIC_HELICOID_1, SignChoice(1, -1, 1), (-1.0, 0.0, 1.0)),
        (FamilyId.HYPERBOLIC_HELICOID_2, SignChoice(1, -1, 0), (-1.0, 0.0, 0.0)),
        (FamilyId.PARABOLIC_HELICOID, SignChoice(1, 1, -1), (0.0, -4.0, 0.0)),
        (FamilyId.PARABOLIC_HELICOID, SignChoice(-1, -1, 1), (0.0, -4.0, 0.0)),
        (FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID, SignChoice(0, 1, 1), (0.0, 0.0, 1.0)),
        (FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID, SignChoice(0, 1, -1), (0.0, 0.0, -1.0)),
    ]
    for family, signs, (c2, c1, c0) in cases:  # the oracle's own entries
        form = det_g_closed_form(family, signs)
        assert (form.c2, form.c1, form.c0) == (c2, c1, c0), (family, signs)
        assert not form.s_dependent
    count = 0
    for sig, family, signs in _admissible_triples(n_range=range(3, 9)):
        if family is FamilyId.MINIMAL_CYLINDER:
            continue
        form = det_g_closed_form(family, signs)
        terms = _det_g_terms(sig, generate(sig, family, signs=signs))
        assert [_constant_value(fn) for fn in terms] == [form.c0, form.c1, form.c2], (sig, family, signs)
        count += 1
    assert count == 330


def test_det_g_cylinder_is_s_dependent():
    """The cylinder's det g is -(cosh 2s - sinh 2s) = -e^{-2s} at every t, one
    exp term, as sampled."""
    s_grid = uniform_grid(-3.0, 3.0, 25)
    t_grid = uniform_grid(-3.0, 3.0, 7)
    assert det_g_closed_form(FamilyId.MINIMAL_CYLINDER).s_dependent
    count = 0
    for sig, family, _ in _admissible_triples(n_range=range(3, 9)):
        if family is not FamilyId.MINIMAL_CYLINDER:
            continue
        surf = generate(sig, family)
        c0, c1, c2 = _det_g_terms(sig, surf)
        assert c1.is_zero and c2.is_zero
        assert _constant_value(c0) is None
        assert c0._spelled() == [(-1.0, Atom(0, EXP, -2.0))]
        sampled = sweep_grid(sig, surf, s_grid, t_grid).det_g
        assert np.allclose(sampled, c0.eval(s_grid)[:, None], rtol=1e-12, atol=1e-12)
        count += 1
    assert count > 10


def test_det_g_of_the_plane_is_its_axis_squares():
    """The oracle table has no plane entry; the derived det g is the product
    of the two axis squares, constant in s and t."""
    with pytest.raises(UsageError):
        det_g_closed_form(FamilyId.PLANE)
    for n in (3, 4, 5):
        for p in range(n + 1):
            sig = Signature(n, p)
            terms = _det_g_terms(sig, generate(sig, FamilyId.PLANE))
            assert [_constant_value(fn) for fn in terms] == [sig.weights()[:2].prod(), 0.0, 0.0]


def test_det_g_closed_form_matches_samples_everywhere():
    """Sampled first-form determinants agree with the polynomial in t."""
    reps = [
        (R30, FamilyId.ELLIPTIC_HELICOID_1, SignChoice(1, 1, 1)),
        (R31, FamilyId.ELLIPTIC_HELICOID_1, SignChoice(1, 1, -1)),
        (R41, FamilyId.ELLIPTIC_HELICOID_2, SignChoice(1, 1, 0)),
        (R31, FamilyId.HYPERBOLIC_HELICOID_1, SignChoice(1, -1, 1)),
        (R42, FamilyId.HYPERBOLIC_HELICOID_2, SignChoice(-1, 1, 0)),
        (R31, FamilyId.PARABOLIC_HELICOID, SignChoice(1, 1, -1)),
        (R41, FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID, SignChoice(0, 1, 1)),
    ]
    s_grid = uniform_grid(-3.0, 3.0, 100)
    t_grid = uniform_grid(-3.0, 3.0, 100)
    for sig, family, signs in reps:
        surf = generate(sig, family, signs=signs)
        form = det_g_closed_form(family, signs)
        want = [form.value(float(t)) for t in t_grid]
        worst = float(np.abs(sweep_grid(sig, surf, s_grid, t_grid).det_g - want).max())
        assert worst < 1e-10, (family, signs, worst)


# ---------------------------------------------------------------------------
# causal region maps


def test_causal_map_type_change_helicoid():
    report = causal_map(R31, FamilyId.ELLIPTIC_HELICOID_1, SignChoice(1, 1, -1))
    assert report.degenerate_loci == [-1.0, 1.0]
    verdicts = [r.verdict for r in report.regions]
    assert verdicts == ["spacelike", "timelike", "spacelike"]
    assert report.cross_validated


def test_causal_map_parabolic_sign_split():
    for s1 in (1, -1):
        signs = SignChoice(s1, s1, -s1)
        sig = R31 if s1 == 1 else R42
        report = causal_map(sig, FamilyId.PARABOLIC_HELICOID, signs)
        assert report.degenerate_loci == [0.0]
        assert [r.verdict for r in report.regions] == ["spacelike", "timelike"]


def test_causal_map_constant_paraboloid():
    report = causal_map(R41, FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID, SignChoice(0, 1, 1))
    assert report.constant
    assert not report.degenerate_loci
    assert [r.verdict for r in report.regions] == ["spacelike"]


def test_causal_map_cylinder_is_timelike():
    report = causal_map(R31, FamilyId.MINIMAL_CYLINDER)
    assert report.constant
    assert [r.verdict for r in report.regions] == ["timelike"]


def test_causal_map_second_kind_no_type_change():
    # det g = +-t^2 keeps one sign on both sides of the degenerate locus
    rep_e = causal_map(R41, FamilyId.ELLIPTIC_HELICOID_2, SignChoice(1, 1, 0))
    assert rep_e.degenerate_loci == [0.0]
    assert {r.verdict for r in rep_e.regions} == {"spacelike"}
    rep_h = causal_map(R42, FamilyId.HYPERBOLIC_HELICOID_2, SignChoice(-1, 1, 0))
    assert rep_h.degenerate_loci == [0.0]
    assert {r.verdict for r in rep_h.regions} == {"timelike"}


def test_causal_maps_cross_validate_for_all_triples():
    for sig, family, signs in _admissible_triples(n_range=(3, 4)):
        report = causal_map(sig, family, signs)
        assert report.cross_validated, (sig, family, signs)
    for n in (3, 4):
        for p in range(n + 1):
            sig = Signature(n, p)
            report = causal_map(sig, FamilyId.PLANE)
            verdict = "spacelike" if sig.weights()[:2].prod() > 0 else "timelike"
            assert report.cross_validated and report.constant, sig
            assert [r.verdict for r in report.regions] == [verdict], sig


def negate_det_g(monkeypatch):
    """Make causal_map read -det g's coefficients: every region's verdict
    flips, and the sampled det g contradicts each one."""
    derived = catalog._det_g_terms
    monkeypatch.setattr(catalog, "_det_g_terms", lambda sig, surf: [-1.0 * c for c in derived(sig, surf)])


def test_a_causal_map_its_samples_contradict_names_the_region_and_the_sample(monkeypatch):
    negate_det_g(monkeypatch)
    with pytest.raises(CrossValidationError) as err:
        causal_map(R31, FamilyId.ELLIPTIC_HELICOID_1, SignChoice(1, 1, -1))
    region, sample = str(err.value).split(": ")
    assert region == "sampled det g disagrees with the timelike region t in [-3.0, -1.0]"
    det, at = sample.split(" at ")
    assert float(det.removeprefix("det g = ")) > DEG_BAND
    assert at == "(s, t) = (-3.0, -3.0)"


# ---------------------------------------------------------------------------
# span degeneracy


def test_degenerate_span_examples():
    frame42 = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1))
    assert degenerate_span_check(R42, frame42) is SpanType.DEGENERATE_SPAN
    basis30 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert degenerate_span_check(R30, basis30) is SpanType.NONDEGENERATE_SPAN
    frame41 = ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))
    assert degenerate_span_check(R41, frame41) is SpanType.DEGENERATE_SPAN


def test_degenerate_span_rejects_dependent_frames():
    with pytest.raises(UsageError):
        degenerate_span_check(R30, ((1, 0, 0), (0, 1, 0), (1, 1, 0)))


def test_degenerate_span_check_is_exact_on_fraction_frames():
    """span{u, v, w} holds the null vector u = (1, 1, 0, 0)/3, which is
    orthogonal to v and w, so the span is degenerate. The frame (u+v, v+w, w+u)
    has a Gram determinant of exactly 0, which float arithmetic misses."""
    u, v, w = (F(1, 3), F(1, 3), 0, 0), (F(1, 7), F(1, 7), F(1, 3), 0), (0, 0, F(1, 5), F(3, 11))
    frame = [tuple(a + b for a, b in zip(x, y)) for x, y in ((u, v), (v, w), (w, u))]
    assert degenerate_span_check(R41, frame) is SpanType.DEGENERATE_SPAN
    g = gram_matrix(R41, [[float(x) for x in vec] for vec in frame])
    float_det = (
        g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
        - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
        + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
    )
    assert float_det != 0.0


def test_span_type_tracks_family_kind():
    """Second-kind and paraboloid frames span degenerate 3-spaces; the others do not."""
    degenerate = {
        FamilyId.ELLIPTIC_HELICOID_2,
        FamilyId.HYPERBOLIC_HELICOID_2,
        FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID,
    }
    for sig, family, signs in _admissible_triples(n_range=(3, 4, 5)):
        if family not in FRAME_FAMILIES:
            continue
        result = existence_oracle(sig, family, signs=signs)
        span = degenerate_span_check(sig, result.frame)
        expected = (
            SpanType.DEGENERATE_SPAN if family in degenerate else SpanType.NONDEGENERATE_SPAN
        )
        assert span is expected, (sig, family, signs)


# ---------------------------------------------------------------------------
# homothety stability


def test_homothety_preserves_verdict_and_region_structure():
    surf = generate(R31, FamilyId.ELLIPTIC_HELICOID_1, signs=SignChoice(1, 1, -1))
    scaled = scale_surface(surf, 2.5)
    assert is_minimal(R31, scaled, tau_deg=1e-6).is_minimal
    # det g scales by k^4 > 0: sign structure over t is unchanged
    t_vals = [-2.0, -0.5, 0.5, 2.0]
    det = sweep_grid(R31, surf, [0.3], t_vals).det_g[0]
    det_k = sweep_grid(R31, scaled, [0.3], t_vals).det_g[0]
    assert np.array_equal(np.sign(det), np.sign(det_k))
    assert np.abs(det_k - 2.5**4 * det).max() < 1e-10


def test_homothety_rejects_non_positive_ratio():
    surf = generate(R30, FamilyId.ELLIPTIC_HELICOID_1)
    with pytest.raises(UsageError):
        scale_surface(surf, 0.0)
    with pytest.raises(UsageError):
        scale_surface(surf, -2.0)
    with pytest.raises(UsageError, match=r"^homothety ratio must be a finite number > 0, got inf$"):
        scale_surface(surf, float("inf"))


def test_homothety_of_a_damped_gauge_scales_every_base_term():
    """A cos/sin ruling over s e3 + cosh(s) e1 gives lambda damped terms; the
    gauged base holds them as terms, and a homothety doubles each one."""
    gamma = CurveExpr.from_basis_terms(3, [("cos", 1.0, (1.0, 0.0, 0.0)), ("sin", 1.0, (0.0, 1.0, 0.0))])
    base = CurveExpr.from_basis_terms(3, [("pow", 1, (0.0, 0.0, 1.0)), ("cosh", 1.0, (1.0, 0.0, 0.0))])
    gauged = gauge_normalize(R30, RuledSurface(gamma, base))
    assert not gauged.exact and gauged.surface.base._damped()
    scaled = scale_surface(gauged.surface, 2.0).base.terms
    assert scaled.keys() == gauged.surface.base.terms.keys()
    for key, coeff in gauged.surface.base.terms.items():
        assert np.array_equal(scaled[key], 2.0 * coeff)


# ---------------------------------------------------------------------------
# entire-graph check


def test_bernstein_counterexample_in_lorentz_four_space():
    report = bernstein_check(R41)
    assert report.exists
    assert report.entire_graph
    assert report.spacelike
    assert report.minimal
    assert not report.planar
    assert report.min_det_g > 0.0
    assert report.min_g11 > 0.0
    assert report.max_h_norm <= 1e-8
    assert max(abs(v) for dom in report.domains for v in dom) >= 100.0


def test_bernstein_check_requires_spacelike_pattern():
    with pytest.raises(UsageError):
        bernstein_check(R41, signs=SignChoice(0, 1, -1))


@pytest.mark.parametrize("sig", [R30, R31])
def test_bernstein_check_nonexistence(sig):
    with pytest.raises(NonExistenceError) as err:
        bernstein_check(sig)
    assert err.value.result.certificate is not None


@pytest.mark.parametrize("sig, family", [
    (Signature(6, 3), FamilyId.HYPERBOLIC_HELICOID_1),
    (R31, FamilyId.PARABOLIC_HELICOID),
    (R41, FamilyId.MINIMAL_CYLINDER),
])
def test_causal_map_never_projects_onto_the_normal_space(monkeypatch, sig, family):
    def refuse(*args, **kwargs):
        raise AssertionError("causal_map reads only det g")

    monkeypatch.setattr(_RulingTables, "components", refuse)
    assert causal_map(sig, family).cross_validated


# ---------------------------------------------------------------------------
# sign selection


def test_pick_signs_returns_first_admissible_choice():
    assert pick_signs(R30, FamilyId.ELLIPTIC_HELICOID_1) == SignChoice(1, 1, 1)
    assert pick_signs(R31, FamilyId.HYPERBOLIC_HELICOID_2) is None
    assert pick_signs(R42, FamilyId.HYPERBOLIC_HELICOID_2) is not None


def _count_frames_and_oracle_calls(monkeypatch):
    checked, asked = [], []
    post_init = FrameSpec.__post_init__
    monkeypatch.setattr(FrameSpec, "__post_init__", lambda self: checked.append(post_init(self)))
    oracle = catalog.existence_oracle
    monkeypatch.setattr(catalog, "existence_oracle", lambda *a: asked.append(a) or oracle(*a))
    return checked, asked


@pytest.mark.parametrize("signs", [None, SignChoice(1, -1, 0)])
def test_generate_builds_and_checks_one_frame(signs, monkeypatch):
    """generate takes the frame of the oracle's one witness instead of asking
    or building it again."""
    checked, asked = _count_frames_and_oracle_calls(monkeypatch)
    generate(R42, FamilyId.HYPERBOLIC_HELICOID_2, signs)
    assert len(asked) == 1
    assert len(checked) == 1


@pytest.mark.parametrize(
    "query",
    [
        lambda: causal_map(R42, FamilyId.HYPERBOLIC_HELICOID_2),
        lambda: bernstein_check(Signature(7, 2)),
    ],
    ids=["causal_map", "bernstein_check"],
)
def test_queries_ask_the_oracle_once_and_check_one_frame(query, monkeypatch):
    """causal_map and every box of bernstein_check take the frame of the
    oracle's one witness instead of asking or building it again."""
    checked, asked = _count_frames_and_oracle_calls(monkeypatch)
    query()
    assert len(asked) == 1
    assert len(checked) == 1


def test_frame_spec_validates_gram_exactly():
    FrameSpec(sig=R42, vectors=((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1)), signs=(-1, 1, 0))
    with pytest.raises(UsageError):
        FrameSpec(sig=R42, vectors=((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1)), signs=(1, 1, 0))
    with pytest.raises(UsageError):
        FrameSpec(sig=R30, vectors=((1, 0, 0), (0, 0, 0), (0, 0, 1)), signs=(1, 0, 1))


def test_deg_band_masks_match_causal_tags():
    surf = generate(R31, FamilyId.PARABOLIC_HELICOID)
    # det g = -4t here, so |det g| <= DEG_BAND corresponds to |t| <= DEG_BAND/4
    t_vals = np.array([-2.0, -DEG_BAND / 8, 0.0, DEG_BAND / 8, 2.0])
    dets = sweep_grid(R31, surf, [0.0], t_vals).det_g[0]
    from ruledmin.catalog import _TAG_NAMES, _tag_index

    tags = [_TAG_NAMES[i] for i in _tag_index(dets)]
    assert tags == ["spacelike", "degenerate", "degenerate", "degenerate", "timelike"]
