"""Minimality decided from the division-free H numerator's coefficients."""

from fractions import Fraction

import numpy as np
import pytest

from ruledmin import (
    CurveExpr,
    EverywhereDegenerateError,
    FamilyId,
    RuledSurface,
    Signature,
    UsageError,
    generate,
    is_minimal,
    surface,
    sweep_grid,
)
from ruledmin.basisfn import ONE, Atom, ScalarFn

from _oracles import (
    _closed_form_roots,
    cayley_isometry,
    det_g_closed_form,
    moved_surface,
    normal_component,
    signed_sum_inner,
    two_run_numerators,
)
from test_catalog import _admissible_triples
from test_sweep import REL_TOL

SLIDES = [(0.3, 0.1), (-0.5, 0.2), (0.5, -0.2)]
TAUS = (1e-12, 1e-9, 1e-6)
FRAME_TRIPLES = [t for t in _admissible_triples() if t[1] is not FamilyId.MINIMAL_CYLINDER]
OFF_CENTRE = [(5.0, 8.0), (10.0, 12.0)]

# a helicoid of R^3_1 whose rulings gamma = cosh s e1 + sinh s e2 are boosted:
# sum_i |gamma_i|^2 grows like e^{2s} while <gamma, gamma> = -1
R31 = Signature(3, 1)
BOOSTED = CurveExpr.from_basis_terms(3, [("cosh", 1.0, (1.0, 0.0, 0.0)), ("sinh", 1.0, (0.0, 1.0, 0.0))])
AXIS = CurveExpr.from_basis_terms(3, [("pow", 1, (0.0, 0.0, 1.0))])
BEND = CurveExpr.from_basis_terms(3, [("pow", 2, (0.0, 0.0, 0.1))])


def _slid(surf: RuledSurface, c1: float, c2: float) -> RuledSurface:
    """x + (c1 s + c2 s^2) gamma: the same point set, another base."""
    rho = ScalarFn([(c1, Atom(1, ONE, 0.0)), (c2, Atom(2, ONE, 0.0))])
    base = surf.base.plus_scalar_times(rho, surf.gamma)
    return RuledSurface(surf.gamma, base, surf.s_domain, surf.t_domain)


def _bumped(surf: RuledSurface, axis: int) -> RuledSurface:
    coeff = [0.0] * surf.n
    coeff[axis] = 0.1
    bump = CurveExpr.from_basis_terms(surf.n, [("cosh", 0.5, coeff)])
    return RuledSurface(surf.gamma, surf.base + bump, surf.s_domain, surf.t_domain)


def _moved(sig: Signature, surf: RuledSurface) -> RuledSurface:
    """surf under the Cayley isometry of one fixed rational skew matrix and
    an integer translation."""
    n = sig.n
    skew = [[Fraction(0)] * n for _ in range(n)]
    for k, (i, j) in enumerate((i, j) for i in range(n) for j in range(i + 1, n)):
        skew[i][j] = Fraction(k % 5 - 2, 1 + k % 3)
        skew[j][i] = -skew[i][j]
    q = cayley_isometry(sig, skew)
    assert q is not None, sig
    return moved_surface(surf, q, [i % 3 - 1 for i in range(n)])


@pytest.mark.parametrize("move", ["plain", "slid", "moved"])
def test_one_numerator_run_gives_the_two_run_coefficients_and_bounds(move):
    # the signed, size and widened slices of the one run take the IEEE steps
    # of the two runs they replace, so every value agrees to the bit
    checked = 0
    for sig, family, signs in _admissible_triples():
        surf = generate(sig, family, signs=signs)
        surf = {"plain": surf, "slid": _slid(surf, 0.3, 0.1), "moved": _moved(sig, surf)}[move]
        sweep = sweep_grid(sig, surf)
        coefficients, bounds = sweep._coefficients, sweep._bounds()
        want_coefficients, want_bounds = two_run_numerators(sweep._tables)
        for got, want in zip(coefficients, want_coefficients, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (sig, family, signs)
        for got, want in zip(bounds, want_bounds, strict=True):
            for a, b in zip(got, want, strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (sig, family, signs)
        checked += 1
    assert checked == 162


def test_a_sweep_runs_the_numerators_once(monkeypatch):
    runs = []
    numerators = surface._numerators

    def counting(*args):
        runs.append(args)
        return numerators(*args)

    monkeypatch.setattr(surface, "_numerators", counting)
    assert is_minimal(R31, RuledSurface(BOOSTED, AXIS)).is_minimal
    assert len(runs) == 1
    sweep = sweep_grid(R31, RuledSurface(BOOSTED, AXIS + BEND))
    sweep.H_norm, sweep.h11, sweep.minimality()
    assert len(runs) == 2


def test_a_size_that_overflows_is_named_at_its_first_s():
    # gamma = (e^-s + 2^-600 e^s) e1 + e2 is sampled as (cosh s - sinh s) e1 + e2,
    # since 1 +- 2^-600 rounds to +-1, so every pairing stays finite, but its
    # size e^s + 1 makes det g's size overflow from s = 200 on
    gamma = CurveExpr.from_basis_terms(
        3, [("exp", -1.0, (1.0, 0.0, 0.0)), ("exp", 1.0, (2.0**-600, 0.0, 0.0)), ("pow", 0, (0.0, 1.0, 0.0))]
    )
    surf = RuledSurface(gamma, AXIS, (150.0, 400.0))
    sweep = sweep_grid(Signature(3, 0), surf)
    assert np.isfinite(sweep.H_norm[sweep.nondegenerate]).all()  # mesh and H_norm read the signed slice
    with pytest.raises(UsageError, match=r"^the size of det g is not finite at s = 200\.0$"):
        sweep.minimality()


@pytest.mark.parametrize("half_width", [3.0, 10.0, 40.0])
def test_catalog_surfaces_are_minimal_plain_and_slid(half_width):
    dom = (-half_width, half_width)
    failed = []
    for sig, family, signs in _admissible_triples():
        surf = generate(sig, family, signs=signs, s_domain=dom, t_domain=dom)
        cases = {"plain": surf}
        if family is not FamilyId.MINIMAL_CYLINDER:
            cases.update({c: _slid(surf, *c) for c in SLIDES})
        for label, case in cases.items():
            report = is_minimal(sig, case)
            if not report.is_minimal:
                failed.append((str(sig), family.value, str(signs), label, report.residual))
    assert failed == []


def test_grids_through_a_degenerate_locus_stay_minimal():
    cases = 0
    failed = []
    for sig, family, signs in FRAME_TRIPLES:
        surf = generate(sig, family, signs=signs)
        for r in _closed_form_roots(det_g_closed_form(family, signs), -3.0, 3.0):
            for d in (1e-4, 1e-6, 1e-8, 1e-10):
                t_grid = np.union1d(np.linspace(-3.0, 3.0, 41), [r - d, r + d])
                cases += 1
                for tau in TAUS:
                    report = is_minimal(sig, surf, t_grid=t_grid, tau_deg=tau)
                    if not report.is_minimal:
                        failed.append((str(sig), family.value, str(signs), r, d, tau))
    assert cases == 496
    assert failed == []


def test_bumped_surfaces_are_not_minimal_for_any_band():
    failed = []
    for sig, family, signs in FRAME_TRIPLES:
        if sig.n > 5:
            continue
        surf = generate(sig, family, signs=signs)
        for axis in range(sig.n):
            for tau in TAUS:
                report = is_minimal(sig, _bumped(surf, axis), tau_deg=tau)
                if report.is_minimal or report.residual < 1e-4:
                    failed.append((str(sig), family.value, str(signs), axis, tau))
    assert failed == []


@pytest.mark.parametrize("s_domain", OFF_CENTRE)
def test_boosted_rulings_off_centre_keep_their_verdicts(s_domain):
    plain = is_minimal(R31, RuledSurface(BOOSTED, AXIS, s_domain))
    assert plain.is_minimal and not plain.totally_geodesic
    bent = is_minimal(R31, RuledSurface(BOOSTED, AXIS + BEND, s_domain))
    assert not bent.is_minimal and bent.residual >= 1e-4


@pytest.mark.parametrize("s_domain", OFF_CENTRE)
def test_bumps_with_a_visible_mean_curvature_are_not_minimal_off_centre(s_domain):
    checked = 0
    failed = []
    for sig, family, signs in FRAME_TRIPLES:
        if sig.n > 5:
            continue
        surf = generate(sig, family, signs=signs, s_domain=s_domain)
        for axis in range(sig.n):
            report = is_minimal(sig, _bumped(surf, axis))
            if report.max_h_norm < 1e-6:  # a bump lost against the surface's own size
                continue
            checked += 1
            if report.is_minimal or report.residual < 1e-4:
                failed.append((str(sig), family.value, str(signs), axis, report.residual))
    assert checked >= 300
    assert failed == []


def test_rulings_whose_metric_rounding_swamps_give_no_verdict():
    # cosh^2 s - sinh^2 s keeps no digit once e^{2s} outgrows 1 / eps
    with pytest.raises(EverywhereDegenerateError, match="rounding"):
        is_minimal(R31, RuledSurface(BOOSTED, AXIS + BEND, (20.0, 25.0)))


@pytest.mark.parametrize("sig,family,signs", [*_admissible_triples(n_range=(3, 4, 5))], ids=str)
def test_the_sweep_at_a_grid_point_matches_the_gram_solve(sig, family, signs):
    surf = generate(sig, family, signs=signs)
    s_grid, t_grid = surf.default_grids()
    sweep = sweep_grid(sig, surf, s_grid, t_grid)
    checked = 0
    for i in range(0, s_grid.size, 8):
        g0, g1, g2 = (surf.gamma.eval(s_grid[i], k) for k in range(3))
        x1, x2 = surf.base.eval(s_grid[i], 1), surf.base.eval(s_grid[i], 2)
        for j in range(0, t_grid.size, 4):
            if not sweep.nondegenerate[i, j]:
                continue
            # the reference: signed sums and the Gram solve on the curves' analytic jets
            t = t_grid[j]
            f_s, f_t, f_ss, f_st = g1 * t + x1, g0, g2 * t + x2, g1
            g11, g12, g22 = (signed_sum_inner(sig, a, b) for a, b in ((f_s, f_s), (f_s, f_t), (f_t, f_t)))
            det = g11 * g22 - g12 * g12
            ref11 = normal_component(sig, f_s, f_t, f_ss)
            ref12 = normal_component(sig, f_s, f_t, f_st)
            ref_H = (g22 * ref11 - 2.0 * g12 * ref12) / (2.0 * det)
            # rounding scales with the vectors' sizes and the projection's
            # condition number |f_s|^2 |f_t|^2 / |det g|
            fs_sq, ft_sq = float(f_s @ f_s), float(f_t @ f_t)
            cond = fs_sq * ft_sq / abs(det)
            for got, want, scale in ((sweep.g11[i, j], g11, fs_sq),
                                     (sweep.g12[i, j], g12, np.sqrt(fs_sq * ft_sq)),
                                     (sweep.det_g[i, j], det, fs_sq * ft_sq)):
                assert abs(got - want) <= REL_TOL * scale
            s11 = np.linalg.norm(f_ss) * cond
            s12 = np.linalg.norm(f_st) * cond
            s_H = (abs(g22) * s11 + 2.0 * abs(g12) * s12) / (2.0 * abs(det))
            for got, want, scale in ((sweep.h11[i, j], ref11, s11), (sweep.h12[i, j], ref12, s12),
                                     (sweep.H[i, j], ref_H, s_H)):
                assert np.abs(got - want).max() <= REL_TOL * scale
            checked += 1
    assert checked > 0
