"""Tests for the sweep's forms at single points, mean curvature, minimality, and gauge.

Pointwise expectations are closed forms, or the oracles of _oracles.py fed
with the curves' own jets (curve.eval(s, order)) or with finite differences.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ruledmin import (
    CaseLabel,
    CurveExpr,
    DegenerateMetricError,
    EverywhereDegenerateError,
    FamilyId,
    MinimalityVerdict,
    PreconditionError,
    RuledSurface,
    SignChoice,
    Signature,
    UsageError,
    c_function,
    c_function_grid,
    gauge_normalize,
    generate,
    identify_family,
    inner_product,
    is_minimal,
    sweep_grid,
    uniform_grid,
)
from ruledmin.basisfn import ONE, Atom, ScalarFn

from _oracles import (
    cayley_isometry,
    distance_to_rulings,
    fd_mean_curvature,
    fd_position_jet,
    moved_surface,
    normal_component,
    product_atoms_by_kind,
)
from test_catalog import _admissible_triples

R30 = Signature(3, 0)
R31 = Signature(3, 1)
R41 = Signature(4, 1)


def helicoid() -> RuledSurface:
    gamma = CurveExpr.from_basis_terms(
        3, [("cos", 1.0, (1.0, 0.0, 0.0)), ("sin", 1.0, (0.0, 1.0, 0.0))]
    )
    base = CurveExpr.from_basis_terms(3, [("pow", 1, (0.0, 0.0, 1.0))])
    return RuledSurface(gamma, base, (-3.0, 3.0), (-3.0, 3.0))


def circular_cylinder() -> RuledSurface:
    gamma = CurveExpr.from_basis_terms(3, [("pow", 0, (0.0, 0.0, 1.0))])
    base = CurveExpr.from_basis_terms(
        3, [("cos", 1.0, (1.0, 0.0, 0.0)), ("sin", 1.0, (0.0, 1.0, 0.0))]
    )
    return RuledSurface(gamma, base, (-3.0, 3.0), (-3.0, 3.0))


def flat_plane() -> RuledSurface:
    gamma = CurveExpr.from_basis_terms(3, [("pow", 0, (1.0, 0.0, 0.0))])
    base = CurveExpr.from_basis_terms(3, [("pow", 1, (0.0, 1.0, 0.0))])
    return RuledSurface(gamma, base, (-3.0, 3.0), (-3.0, 3.0))


def _at(sig: Signature, surf: RuledSurface, s: float, t: float) -> dict:
    """The sweep's fields at the one point (s, t)."""
    sweep = sweep_grid(sig, surf, [s], [t])
    names = ("f", "g11", "g12", "det_g", "nondegenerate", "h11", "h12", "H")
    return {name: getattr(sweep, name)[0, 0] for name in names}


def _jets(surf: RuledSurface, s: float, t: float):
    """f_s, f_t, f_ss and f_st at (s, t) from the curves' analytic jets."""
    g0, g1, g2 = (surf.gamma.eval(s, k) for k in range(3))
    x1, x2 = surf.base.eval(s, 1), surf.base.eval(s, 2)
    return g1 * t + x1, g0, g2 * t + x2, g1


# ---------------------------------------------------------------------------
# jets


def test_helicoid_jet_at_reference_point():
    surf = helicoid()
    f_s, f_t, f_ss, f_st = _jets(surf, 0.0, 1.0)
    assert np.allclose(_at(R30, surf, 0.0, 1.0)["f"], (1.0, 0.0, 0.0), atol=1e-15)
    assert np.allclose(f_s, (0.0, 1.0, 1.0), atol=1e-15)
    assert np.allclose(f_t, (1.0, 0.0, 0.0), atol=1e-15)
    assert np.allclose(f_ss, (-1.0, 0.0, 0.0), atol=1e-15)
    assert np.allclose(f_st, (0.0, 1.0, 0.0), atol=1e-15)


def test_jet_at_t_zero_reduces_to_base_acceleration():
    """At t = 0 the sweep's f is the base curve, and f_ss by differences is x''."""
    surf = generate(R31, FamilyId.PARABOLIC_HELICOID)
    s_vals = [-1.0, 0.3, 2.0]
    f = sweep_grid(R31, surf, s_vals, [0.0]).f[:, 0]
    assert np.array_equal(f, surf.base.eval(np.array(s_vals)))
    for s in s_vals:
        f_ss = fd_position_jet(surf, s, 0.0, h=1e-4)[3]
        assert np.allclose(f_ss, surf.base.eval(s, 2), atol=1e-6)


def test_plane_jet_second_derivatives_vanish():
    surf = flat_plane()
    _, _, f_ss, f_st = _jets(surf, 0.7, -1.2)
    assert np.allclose(f_ss, 0.0, atol=0.0)
    assert np.allclose(f_st, 0.0, atol=0.0)


def test_jet_matches_position_only_finite_differences():
    """The curves' analytic jets and the sweep's f agree with an oracle built
    purely from f evaluations."""
    gamma = CurveExpr.from_basis_terms(
        3, [("cos", 1.5, (1.0, 0.0, 0.2)), ("sinh", 0.5, (0.0, 1.0, 0.0))]
    )
    base = CurveExpr.from_basis_terms(
        3, [("pow", 2, (0.3, 0.0, 0.0)), ("exp", 0.4, (0.0, 0.0, 1.0))]
    )
    surf = RuledSurface(gamma, base, (-2.0, 2.0), (-2.0, 2.0))
    for s, t in [(-1.1, 0.4), (0.0, 1.0), (0.8, -0.7)]:
        f_s, f_t, f_ss, f_st = _jets(surf, s, t)
        fd0, fd_s, fd_t, fd_ss, fd_st, fd_tt = fd_position_jet(surf, s, t, h=1e-5)
        assert np.allclose(_at(R30, surf, s, t)["f"], fd0, atol=1e-12)
        assert np.allclose(f_s, fd_s, atol=1e-8)
        assert np.allclose(f_t, fd_t, atol=1e-8)
        assert np.allclose(f_ss, fd_ss, atol=1e-5)
        assert np.allclose(f_st, fd_st, atol=1e-5)
        assert np.allclose(fd_tt, 0.0, atol=1e-5)


# ---------------------------------------------------------------------------
# first fundamental form


def _g22(sig: Signature, surf: RuledSurface, s: float) -> float:
    gamma = surf.gamma.eval(s)
    return inner_product(sig, gamma, gamma)


def test_helicoid_first_form():
    surf = helicoid()
    for s, t in [(0.0, 0.0), (1.2, -2.0), (-0.4, 0.9)]:
        g = _at(R30, surf, s, t)
        assert abs(g["g11"] - (t * t + 1.0)) < 1e-14
        assert abs(g["g12"]) < 1e-14
        assert abs(_g22(R30, surf, s) - 1.0) < 1e-14
        assert abs(g["det_g"] - (t * t + 1.0)) < 1e-14


def test_paraboloid_first_form_is_constant():
    surf = generate(R41, FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID, signs=SignChoice(0, 1, 1))
    for s, t in [(0.0, 0.0), (2.0, -1.5), (-2.5, 2.5)]:
        g = _at(R41, surf, s, t)
        assert abs(g["g11"] - 1.0) < 1e-14
        assert abs(g["g12"]) < 1e-14
        assert abs(_g22(R41, surf, s) - 1.0) < 1e-14
        assert abs(g["det_g"] - 1.0) < 1e-14


def test_cylinder_determinant_is_minus_pairing_squared():
    surf = generate(R31, FamilyId.MINIMAL_CYLINDER)
    s_grid = uniform_grid(-2.0, 2.0, 21)
    det_g = sweep_grid(R31, surf, s_grid, [0.7]).det_g[:, 0]
    g0 = surf.gamma.eval(0.0)
    for s, det in zip(s_grid, det_g):
        pairing = inner_product(R31, g0, surf.base.eval(float(s), 1))
        assert abs(det + pairing * pairing) < 1e-12
        assert det < 0.0


# ---------------------------------------------------------------------------
# second fundamental form


def test_helicoid_h11_vanishes_at_reference_point():
    surf = helicoid()
    h11 = _at(R30, surf, 0.0, 1.0)["h11"]
    assert np.max(np.abs(h11)) < 1e-12
    f_s, f_t, f_ss, _ = _jets(surf, 0.0, 1.0)
    assert np.allclose(h11, normal_component(R30, f_s, f_t, f_ss), atol=1e-12)


def test_plane_second_form_vanishes():
    h = _at(R30, flat_plane(), 0.3, 0.6)
    assert np.max(np.abs(np.array([h["h11"], h["h12"]]))) < 1e-15


def test_circular_cylinder_h11():
    surf = circular_cylinder()
    for s in (-1.0, 0.0, 2.2):
        h11 = _at(R30, surf, s, 0.5)["h11"]
        assert np.allclose(h11, (-np.cos(s), -np.sin(s), 0.0), atol=1e-13)
        f_s, f_t, f_ss, _ = _jets(surf, s, 0.5)
        assert np.allclose(h11, normal_component(R30, f_s, f_t, f_ss), atol=1e-12)


def test_second_form_normality():
    """h_ij are ambient-orthogonal to both tangent vectors."""
    surf = generate(R41, FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID)
    for s, t in [(0.4, 0.8), (-1.7, 2.1), (2.9, -0.3)]:
        h = _at(R41, surf, s, t)
        f_s, f_t, _, _ = _jets(surf, s, t)
        for vec in (h["h11"], h["h12"]):
            assert abs(inner_product(R41, vec, f_s)) < 1e-10
            assert abs(inner_product(R41, vec, f_t)) < 1e-10


def test_sweep_masks_the_type_change_locus():
    """det g = t^2 - 1 vanishes at t = 1: the sweep masks that point and
    reports no second form there, and just outside it reports one."""
    surf = generate(R31, FamilyId.ELLIPTIC_HELICOID_1, signs=SignChoice(1, 1, -1))
    sweep = sweep_grid(R31, surf, [0.0], [1.0, 1.0 + 1e-3])
    assert sweep.det_g[0, 0] == 0.0
    assert sweep.nondegenerate.tolist() == [[False, True]]
    assert np.isnan(sweep.h11[0, 0]).all()
    assert np.isfinite(sweep.h11[0, 1]).all()


def test_degeneracy_cutoff_is_sharp():
    surf = generate(R31, FamilyId.ELLIPTIC_HELICOID_1, signs=SignChoice(1, 1, -1))
    # det g = t^2 - 1; choose t so |det g| straddles the default cutoff
    inside = np.sqrt(1.0 + 0.5e-9)
    outside = np.sqrt(1.0 + 2e-9)
    sweep = sweep_grid(R31, surf, [0.0], [inside, outside])
    assert np.array_equal(sweep.nondegenerate, np.abs(sweep.det_g) > sweep.tau_deg)
    assert sweep.nondegenerate.tolist() == [[False, True]]
    assert np.isnan(sweep.h11[0, 0]).all()
    assert np.isfinite(sweep.h11[0, 1]).all()


# ---------------------------------------------------------------------------
# mean curvature


def test_helicoid_mean_curvature_vanishes():
    rng = np.random.default_rng(7)
    s_vals, t_vals = rng.uniform(-3, 3, 20), rng.uniform(-3, 3, 20)
    sweep = sweep_grid(R30, helicoid(), s_vals, t_vals)
    assert sweep.nondegenerate.all()  # det g = t^2 + 1
    assert np.max(np.abs(sweep.H)) < 1e-10


def test_circular_cylinder_mean_curvature():
    surf = circular_cylinder()
    for s, t in [(0.0, 0.0), (1.3, -2.0)]:
        expected = (-0.5 * np.cos(s), -0.5 * np.sin(s), 0.0)
        assert np.allclose(_at(R30, surf, s, t)["H"], expected, atol=1e-12)
        assert np.allclose(fd_mean_curvature(R30, surf, s, t), expected, atol=1e-6)


def test_plane_mean_curvature_is_zero():
    assert np.max(np.abs(_at(R30, flat_plane(), 0.2, 0.4)["H"])) == 0.0


# ---------------------------------------------------------------------------
# minimality and total geodesy


def test_generated_families_are_minimal():
    for sig, family in [
        (R30, FamilyId.ELLIPTIC_HELICOID_1),
        (R31, FamilyId.HYPERBOLIC_HELICOID_1),
        (R31, FamilyId.PARABOLIC_HELICOID),
        (R41, FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID),
        (R31, FamilyId.MINIMAL_CYLINDER),
    ]:
        report = is_minimal(sig, generate(sig, family), tau_deg=1e-6)
        assert report.verdict is MinimalityVerdict.MINIMAL
        assert report.max_h_norm <= 1e-8


# every catalog surface with n <= 6: the admissible frame families and
# cylinders, and the planes
CATALOG = [
    *_admissible_triples(),
    *((Signature(n, p), FamilyId.PLANE, None) for n in (3, 4, 5, 6) for p in range(n + 1)),
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_catalog_surfaces_stay_minimal_under_isometries_and_translations(data):
    # the Cayley transform's entries reach the thousands, so the jets' own
    # terms cancel (19 cosh s - 18 sinh s); the rounding bound must count them
    sig, family, signs = data.draw(st.sampled_from(CATALOG))
    n = sig.n
    ratio = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    skew = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            skew[i][j] = data.draw(ratio)
            skew[j][i] = -skew[i][j]
    q = cayley_isometry(sig, skew)
    assume(q is not None)
    shift = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    image = moved_surface(generate(sig, family, signs=signs), q, shift)
    report = is_minimal(sig, image)
    assert report.is_minimal, (sig, family, signs, report.residual)


def test_the_boosted_hyperbolic_helicoid_stays_minimal():
    # HH1 of R^3_1 with signs (1, -1, 1) moved by an integer isometry: gamma's
    # components are 19 cosh s - 18 sinh s and the like, and <gamma, x'> = 0
    # rounds to noise the size of those terms' rounding
    q = [[19, -18, -6], [-18, 17, 6], [6, -6, -1]]
    hh1 = generate(R31, FamilyId.HYPERBOLIC_HELICOID_1, signs=SignChoice(1, -1, 1))
    report = is_minimal(R31, moved_surface(hh1, q, [0, 0, 0]))
    assert report.is_minimal, report.residual
    assert 1e-7 < report.max_h_norm < 1e-5  # the sampled H keeps the rounding


def test_circular_cylinder_is_not_minimal():
    report = is_minimal(R30, circular_cylinder())
    assert report.verdict is MinimalityVerdict.NOT_MINIMAL
    assert abs(report.max_h_norm - 0.5) < 1e-12


def test_degenerate_points_are_skipped_and_counted():
    surf = generate(R31, FamilyId.ELLIPTIC_HELICOID_1, signs=SignChoice(1, 1, -1))
    report = is_minimal(R31, surf, t_grid=np.array([-1.0, 0.0, 1.0, 2.0]), tau_deg=1e-6)
    assert report.points_degenerate > 0
    assert report.is_minimal
    assert report.degenerate_sample


def test_everywhere_degenerate_raises():
    gamma = CurveExpr.from_basis_terms(3, [("pow", 0, (1.0, 1.0, 0.0))])
    base = CurveExpr.from_basis_terms(3, [("pow", 1, (1.0, 1.0, 0.0))])
    surf = RuledSurface(gamma, base, (-1.0, 1.0), (-1.0, 1.0))
    with pytest.raises(EverywhereDegenerateError):
        is_minimal(R31, surf)


def test_null_direction_surfaces_are_never_minimal():
    """Non-parallel null ruling directions force non-minimality."""
    rng = np.random.default_rng(11)
    cases = 0
    for _ in range(100):
        sig = R31 if rng.integers(2) else Signature(4, 2)
        n = sig.n
        omega = float(rng.uniform(0.5, 1.6))
        scale = float(rng.uniform(0.5, 2.0))
        cosh_axis = [0.0] * n
        sinh_axis = [0.0] * n
        const_axis = [0.0] * n
        cosh_axis[0] = scale
        sinh_axis[sig.p] = scale
        const_axis[n - 1] = scale
        gamma = CurveExpr.from_basis_terms(
            n, [("cosh", omega, cosh_axis), ("sinh", omega, sinh_axis), ("pow", 0, const_axis)]
        )
        base_axis = [0.0] * n
        base_axis[n - 2] = 1.0
        base = CurveExpr.from_basis_terms(
            n, [("pow", 1, base_axis), ("pow", 2, [0.3 * rng.standard_normal() if i == n - 1 else 0.0 for i in range(n)])]
        )
        surf = RuledSurface(gamma, base, (-2.0, 2.0), (-2.0, 2.0))
        try:
            report = is_minimal(sig, surf)
        except EverywhereDegenerateError:
            continue
        total = report.points_checked + report.points_degenerate
        if report.points_checked < 0.1 * total:
            continue
        assert report.verdict is MinimalityVerdict.NOT_MINIMAL
        cases += 1
    assert cases >= 80


def test_totally_geodesic_classification():
    assert is_minimal(R30, flat_plane()).totally_geodesic
    assert not is_minimal(R30, helicoid()).totally_geodesic
    mhp = generate(R41, FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID)
    report = is_minimal(R41, mhp)
    assert report.is_minimal and not report.totally_geodesic


# ---------------------------------------------------------------------------
# the C ratio


def test_c_function_vanishes_for_helicoid_and_parabolic_cases():
    assert abs(c_function(R30, helicoid(), 0.7, 1.9)) < 1e-12
    ph = generate(R31, FamilyId.PARABOLIC_HELICOID)
    assert abs(c_function(R31, ph, -1.3, 0.8)) < 1e-12


def test_c_function_matches_direct_quotient():
    # gamma the unit circle, x = (0, 0, s^2 + s): C = 2(2s+1) / (t^2 + (2s+1)^2)
    gamma = CurveExpr.from_basis_terms(
        3, [("cos", 1.0, (1.0, 0.0, 0.0)), ("sin", 1.0, (0.0, 1.0, 0.0))]
    )
    base = CurveExpr.from_basis_terms(3, [("pow", 2, (0.0, 0.0, 1.0)), ("pow", 1, (0.0, 0.0, 1.0))])
    surf = RuledSurface(gamma, base, (-2.0, 2.0), (-2.0, 2.0))
    for s, t in [(0.3, 1.1), (-0.2, 0.5), (1.0, -1.4)]:
        expected = 2.0 * (2 * s + 1) / (t * t + (2 * s + 1) ** 2)
        assert abs(c_function(R30, surf, s, t) - expected) < 1e-12


def test_c_function_raises_on_vanishing_denominator():
    surf = generate(R31, FamilyId.ELLIPTIC_HELICOID_1, signs=SignChoice(1, 1, -1))
    with pytest.raises(DegenerateMetricError):
        c_function(R31, surf, 0.0, 1.0)


def test_c_function_grid_masks_degenerate_band():
    surf = generate(R31, FamilyId.PARABOLIC_HELICOID)
    vals, mask = c_function_grid(R31, surf, uniform_grid(-3, 3, 41), uniform_grid(-3, 3, 41))
    assert not mask.all()
    assert np.max(np.abs(vals[mask])) < 1e-9


# ---------------------------------------------------------------------------
# gauge normalization


def test_gauge_identity_when_already_orthogonal():
    surf = helicoid()
    result = gauge_normalize(R30, surf)
    assert result.exact
    assert result.max_abs_g12 < 1e-15
    grid = uniform_grid(-3.0, 3.0, 17)
    assert np.allclose(result.surface.base.eval(grid), surf.base.eval(grid), atol=1e-15)


def test_gauge_trig_integrand_cancels():
    # gamma the unit circle, base spiraling over it: <gamma, x'> = 0 identically
    gamma = CurveExpr.from_basis_terms(
        3, [("cos", 1.0, (1.0, 0.0, 0.0)), ("sin", 1.0, (0.0, 1.0, 0.0))]
    )
    base = CurveExpr.from_basis_terms(
        3, [("cos", 1.0, (1.0, 0.0, 0.0)), ("sin", 1.0, (0.0, 1.0, 0.0)), ("pow", 1, (0.0, 0.0, 1.0))]
    )
    surf = RuledSurface(gamma, base, (-3.0, 3.0), (-3.0, 3.0))
    result = gauge_normalize(R30, surf)
    assert result.exact
    assert result.max_abs_g12 < 1e-12


def _perturbed_helicoid(rho_terms) -> RuledSurface:
    surf = helicoid()
    rho = CurveExpr.from_basis_terms(3, rho_terms)
    shifted = CurveExpr(3, [(atom, vec) for vec, atom in surf.base._spelled()])
    for vec, atom in rho._spelled():
        for g_vec, g_atom in surf.gamma._spelled():
            parts = product_atoms_by_kind(atom, g_atom)
            assert parts is not None
            for c, aa in parts:
                shifted = shifted + CurveExpr(3, [(aa, c * float(vec[0]) * g_vec)])
    return RuledSurface(surf.gamma, shifted, surf.s_domain, surf.t_domain)


def test_gauge_removes_along_ruling_perturbation():
    """sin(s)-sliding of the base along the rulings gauges away exactly."""
    clean = helicoid()
    surf = _perturbed_helicoid([("sin", 1.0, (1.0, 0.0, 0.0))])
    result = gauge_normalize(R30, surf)
    assert result.exact
    assert result.max_abs_g12 < 1e-9

    s_grid = uniform_grid(-2.0, 2.0, 41)
    t_grid = uniform_grid(-2.0, 2.0, 21)
    gamma_pts = clean.gamma.eval(s_grid)
    base_pts = clean.base.eval(s_grid)
    pts = (
        result.surface.gamma.eval(s_grid)[:, None, :] * t_grid[None, :, None]
        + result.surface.base.eval(s_grid)[:, None, :]
    ).reshape(-1, 3)
    assert distance_to_rulings(pts, gamma_pts, base_pts).max() < 1e-6


def test_gauge_damped_path():
    """A perturbation whose lambda holds damped terms is gauged in closed form
    and reported inexact, with lambda tabulated."""
    surf = helicoid()
    bump = CurveExpr.from_basis_terms(3, [("cosh", 0.5, (0.3, 0.0, 0.0))])
    shifted = RuledSurface(surf.gamma, surf.base + bump, surf.s_domain, surf.t_domain)
    result = gauge_normalize(R30, shifted)
    assert not result.exact
    assert result.lam_table is not None
    assert result.max_abs_g12 < 1e-9


@pytest.mark.parametrize("half_width", [3.0, 10.0])
@pytest.mark.parametrize("a, omega", [(0.2, 1.0), (0.3, 7.0), (0.05, 20.0)])
def test_damped_lambda_matches_its_antiderivative(a, omega, half_width):
    """lambda = -(F(s) - F(0)) with F' = <gamma, x'> = a omega cos(s) sinh(omega s),
    to 1e-12 of max(1, |lambda|) even where |lambda| spans many magnitudes."""
    surf = helicoid()
    bump = CurveExpr.from_basis_terms(3, [("cosh", omega, (a, 0.0, 0.0))])
    domain = (-half_width, half_width)
    result = gauge_normalize(R30, RuledSurface(surf.gamma, surf.base + bump, domain, domain))
    assert not result.exact
    s, lam = result.lam_table

    def antiderivative(s):
        wide = omega * np.cos(s) * np.cosh(omega * s) + np.sin(s) * np.sinh(omega * s)
        return a * omega * wide / (1.0 + omega**2)

    exact = -(antiderivative(s) - antiderivative(0.0))
    assert np.max(np.abs(lam - exact) / np.maximum(1.0, np.abs(exact))) < 1e-12


@pytest.mark.parametrize("a, omega, half_width", [(0.3, 7.0, 10.0), (0.05, 20.0, 3.0)])
def test_damped_gauge_g12_is_rounding_against_the_terms_that_cancel(a, omega, half_width):
    """On a fast-growing bump |g12| is huge in absolute terms, but a rounding-level
    fraction of |gamma| (|gamma'| |t| + |x'|)."""
    surf = helicoid()
    bump = CurveExpr.from_basis_terms(3, [("cosh", omega, (a, 0.0, 0.0))])
    domain = (-half_width, half_width)
    result = gauge_normalize(R30, RuledSurface(surf.gamma, surf.base + bump, domain, domain))
    assert not result.exact
    assert result.max_abs_g12 > 1e9
    assert result.g12_residual <= 1e-12


@pytest.mark.parametrize("sig, family", [
    (R30, FamilyId.ELLIPTIC_HELICOID_1),
    (R31, FamilyId.HYPERBOLIC_HELICOID_1),
    (R31, FamilyId.PARABOLIC_HELICOID),
    (Signature(4, 2), FamilyId.HYPERBOLIC_HELICOID_2),
])
def test_an_exact_catalog_gauge_cancels_g12_to_rounding(sig, family):
    surf = generate(sig, family)
    rho = ScalarFn([(0.3, Atom(1, ONE, 0.0)), (0.1, Atom(2, ONE, 0.0))])
    slid = RuledSurface(
        surf.gamma, surf.base.plus_scalar_times(rho, surf.gamma), surf.s_domain, surf.t_domain
    )
    for candidate in (surf, slid):
        result = gauge_normalize(sig, candidate)
        assert result.exact
        assert result.g12_residual <= 1e-12


@pytest.mark.parametrize("sig, family, axis, omega, half_width", [
    (R31, FamilyId.HYPERBOLIC_HELICOID_1, 0, 0.5, 3.0),
    (Signature(5, 2), FamilyId.PARABOLIC_HELICOID, 3, 7.0, 10.0),
])
def test_g12_residual_stays_rounding_where_the_jets_share_no_axis(
    sig, family, axis, omega, half_width
):
    """At s = 0 gamma and gamma' share no axis and x' meets gamma on one axis
    only, where it rounds to about 1e-17 instead of 0. Summed axis by axis, the
    size of g12's terms would be that residue alone, and the ratio 1."""
    surf = generate(sig, family)
    coeff = [0.0] * sig.n
    coeff[axis] = 0.1
    bump = CurveExpr.from_basis_terms(sig.n, [("cosh", omega, coeff)])
    domain = (-half_width, half_width)
    result = gauge_normalize(sig, RuledSurface(surf.gamma, surf.base + bump, domain, domain))
    assert result.exact
    assert result.g12_residual <= 1e-12


def test_ruled_surface_takes_a_closed_form_direction_and_a_gauged_base():
    """gamma must be a CurveExpr; the damped gauge's base is a CurveExpr with
    damped terms, and a surface on it classifies."""
    surf = helicoid()
    bump = CurveExpr.from_basis_terms(3, [("cosh", 0.5, (1e-5, 0.0, 0.0))])
    result = gauge_normalize(R30, RuledSurface(surf.gamma, surf.base + bump))
    assert isinstance(result.surface.base, CurveExpr) and result.surface.base._damped()
    for gamma, base in [(surf.gamma.eval, surf.base), (surf.gamma, surf.base.eval)]:
        with pytest.raises(UsageError):
            RuledSurface(gamma, base)
    classified = identify_family(R30, result.surface)
    assert classified.family is None and classified.case_label is CaseLabel.CASE_III
    assert classified.minimality.verdict is MinimalityVerdict.NOT_MINIMAL


def test_gauge_rejects_non_unit_direction():
    gamma = CurveExpr.from_basis_terms(
        3, [("cos", 1.0, (2.0, 0.0, 0.0)), ("sin", 1.0, (0.0, 2.0, 0.0))]
    )
    base = CurveExpr.from_basis_terms(3, [("pow", 1, (0.0, 0.0, 1.0))])
    with pytest.raises(PreconditionError):
        gauge_normalize(R30, RuledSurface(gamma, base, (-1.0, 1.0), (-1.0, 1.0)))


# ---------------------------------------------------------------------------
# cross-formula consistency


def test_trace_identity_when_g12_vanishes():
    """2H equals h11 / g11 on diagonal first forms."""
    for sig, family, signs in [
        (R30, FamilyId.ELLIPTIC_HELICOID_1, None),
        (R31, FamilyId.HYPERBOLIC_HELICOID_1, None),
        (R31, FamilyId.PARABOLIC_HELICOID, None),
        (R41, FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID, None),
    ]:
        surf = generate(sig, family, signs=signs)
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = float(rng.uniform(-3, 3))
            t = float(rng.uniform(-3, 3))
            point = _at(sig, surf, s, t)
            if not point["nondegenerate"]:
                continue
            assert abs(point["g12"]) < 1e-12
            resid = 2.0 * point["H"] - point["h11"] / point["g11"]
            assert np.max(np.abs(resid)) < 1e-12


def test_structure_identity_links_jet_to_c_ratio():
    """gamma'' t + x'' decomposes through C(s,t) and the direction curve."""
    for sig, family in [
        (R30, FamilyId.ELLIPTIC_HELICOID_1),
        (R31, FamilyId.HYPERBOLIC_HELICOID_1),
        (R31, FamilyId.PARABOLIC_HELICOID),
        (R41, FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID),
    ]:
        surf = generate(sig, family)
        eps = float(inner_product(sig, surf.gamma.eval(0.0), surf.gamma.eval(0.0)))
        for s, t in [(0.4, 1.2), (-1.0, 0.5), (2.0, -2.0)]:
            g1 = surf.gamma.eval(s, 1)
            g2 = surf.gamma.eval(s, 2)
            x1 = surf.base.eval(s, 1)
            x2 = surf.base.eval(s, 2)
            eta = float(inner_product(sig, g1, g1))
            try:
                c_val = c_function(sig, surf, s, t)
            except DegenerateMetricError:
                continue
            gamma0 = surf.gamma.eval(s)
            gx2 = float(inner_product(sig, gamma0, x2))
            rhs = c_val * (g1 * t + x1) + eps * (-eta * t + gx2) * gamma0
            lhs = g2 * t + x2
            assert np.max(np.abs(lhs - rhs)) < 1e-8
