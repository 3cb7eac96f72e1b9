"""Tests for closed-form curves: exact jets against closed forms and central
differences, and the causal type of a curve read from its closed-form speed."""

import math
import warnings

import numpy as np
import pytest

from ruledmin import CurveExpr, Signature, UsageError, symbolic_inner, uniform_grid
from ruledmin.basisfn import COS, COSH, ONE, SIN, Atom, ScalarFn
from ruledmin.curves import quad
from ruledmin.metric import ip_array

from _oracles import convergence_order


def circle(n: int = 3) -> CurveExpr:
    c1 = [0.0] * n
    c2 = [0.0] * n
    c1[0] = 1.0
    c2[1] = 1.0
    return CurveExpr.from_basis_terms(n, [("cos", 1.0, c1), ("sin", 1.0, c2)])


def _central(curve: CurveExpr, s: float, order: int, h: float):
    """Central difference of curve positions, the check on the analytic jets."""
    if order == 1:
        return (curve.eval(s + h) - curve.eval(s - h)) / (2.0 * h)
    return (curve.eval(s + h) - 2.0 * curve.eval(s) + curve.eval(s - h)) / (h * h)


def test_eval_curve_circle_velocity():
    v = circle().eval(0.0, 1)
    assert np.allclose(v, (0.0, 1.0, 0.0), atol=1e-15)


def test_eval_curve_cubic_base_second_derivative():
    # x(s) = s^2 e1 + (s^3/3 - s) e2 + (s^3/3 + s) e3; x''(1) = (2, 2, 2)
    x = CurveExpr.from_basis_terms(
        3,
        [
            ("pow", 2, (1.0, 0.0, 0.0)),
            ("pow", 3, (0.0, 1.0 / 3.0, 1.0 / 3.0)),
            ("pow", 1, (0.0, -1.0, 1.0)),
        ],
    )
    assert np.allclose(x.eval(1.0, 2), (2.0, 2.0, 2.0), atol=1e-14)


def test_eval_curve_order_zero_sums_terms():
    c = CurveExpr.from_basis_terms(
        2, [("pow", 0, (1.0, 2.0)), ("cos", 2.0, (3.0, 0.0)), ("exp", 0.5, (0.0, 1.0))]
    )
    v = c.eval(0.0)
    assert np.allclose(v, (1.0 + 3.0, 2.0 + 1.0), atol=1e-15)


def test_eval_curve_vectorized_matches_scalar():
    c = circle()
    grid = uniform_grid(-2.0, 2.0, 17)
    batch = c.eval(grid, 1)
    for i, s in enumerate(grid):
        assert np.allclose(batch[i], c.eval(float(s), 1), atol=1e-15)


def test_fd_derivative_exact_on_quadratic():
    c = CurveExpr.from_basis_terms(3, [("pow", 2, (1.0, 0.0, 0.0))])
    v = _central(c, 1.0, 1, 1e-5)
    assert np.allclose(v, (2.0, 0.0, 0.0), atol=1e-8)


def test_fd_derivative_cross_checks_eval_curve():
    c = circle()
    fd = _central(c, 0.7, 2, 1e-4)
    exact = c.eval(0.7, 2)
    assert np.max(np.abs(fd - exact)) < 1e-6


def test_fd_derivative_constant_curve_is_zero():
    c = CurveExpr.from_basis_terms(3, [("pow", 0, (4.0, -1.0, 2.0))])
    for s in (-1.0, 0.0, 2.5):
        assert np.allclose(_central(c, s, 1, 1e-4), 0.0, atol=1e-12)
        assert np.allclose(_central(c, s, 2, 1e-4), 0.0, atol=1e-8)


@pytest.mark.parametrize("order", [1, 2])
def test_fd_convergence_order(order):
    """Central differences converge at O(h^2) against the analytic jet."""
    c = CurveExpr.from_basis_terms(
        3, [("cos", 1.3, (1.0, 0.0, 0.5)), ("exp", 0.4, (0.0, 1.0, 0.0))]
    )
    hs = [1e-2, 1e-3]
    errs = []
    for h in hs:
        fd = _central(c, 0.6, order, h)
        errs.append(float(np.max(np.abs(fd - c.eval(0.6, order)))))
    assert convergence_order(errs, hs) >= 1.9


def test_product_rule_identity():
    """d/ds <c, c> = 2 <c, c'> on a grid, exact analytic differentiation."""
    sig = Signature(3, 1)
    c = CurveExpr.from_basis_terms(
        3, [("cosh", 1.0, (1.0, 0.0, 0.0)), ("sinh", 1.0, (0.0, 1.0, 0.0)), ("pow", 2, (0.0, 0.0, 0.5))]
    )
    grid = uniform_grid(-2.0, 2.0, 101)
    h = 1e-6
    for s in grid[::10]:
        v, d = c.eval(float(s)), c.eval(float(s), 1)
        lhs = (
            _ip(sig, c.eval(float(s) + h), c.eval(float(s) + h))
            - _ip(sig, c.eval(float(s) - h), c.eval(float(s) - h))
        ) / (2 * h)
        assert abs(lhs - 2.0 * _ip(sig, v, d)) < 1e-6


def test_scalar_fn_arithmetic_matches_its_samples():
    """*, - and float scaling of ScalarFns agree with the products of samples,
    and cos^2 + sin^2 collapses to the constant 1 exactly."""
    grid = uniform_grid(-2.0, 2.0, 17)
    a = ScalarFn([(2.0, Atom(1, COSH, 1.0)), (-0.5, Atom(0, ONE, 0.0))])
    b = ScalarFn([(1.5, Atom(2, ONE, 0.0)), (0.25, Atom(0, COSH, 3.0))])
    for got, want in (
        (a * b, a.eval(grid) * b.eval(grid)),
        (a - b, a.eval(grid) - b.eval(grid)),
        (2.0 * a, 2.0 * a.eval(grid)),
        (a * -3, -3.0 * a.eval(grid)),
    ):
        assert np.allclose(got.eval(grid), want, rtol=1e-13, atol=1e-13)
    cos, sin = ScalarFn([(1.0, Atom(0, COS, 1.0))]), ScalarFn([(1.0, Atom(0, SIN, 1.0))])
    assert (cos * cos + sin * sin)._spelled() == [(1.0, Atom(0, ONE, 0.0))]
    assert (a - a).is_zero


def test_scalar_fn_product_of_trig_and_hyperbolic_matches_its_samples():
    """cos s cosh s is (e^{(1+i)s} + e^{(1-i)s} + e^{(-1+i)s} + e^{(-1-i)s}) / 4:
    damped terms, which sample exactly but which no atom spells."""
    grid = uniform_grid(-2.0, 2.0, 17)
    cos = ScalarFn([(1.0, Atom(0, COS, 1.0))])
    cosh = ScalarFn([(1.0, Atom(0, COSH, 1.0))])
    product = cos * cosh
    assert sorted(product.terms, key=str) == sorted(
        [(0, complex(a, b)) for a in (1.0, -1.0) for b in (1.0, -1.0)], key=str)
    assert np.allclose(product.eval(grid), np.cos(grid) * np.cosh(grid), rtol=1e-14, atol=1e-14)
    with pytest.raises(UsageError, match="is damped"):
        product._spelled()


def _ip(sig, u, v):
    return float(sum((-1 if i < sig.p else 1) * a * b for i, (a, b) in enumerate(zip(u, v))))


def _speed_squared(sig: Signature, c: CurveExpr, grid: np.ndarray) -> ScalarFn:
    """<c', c'> in closed form, checked against the sampled velocities on grid."""
    d = c.derivative(1)
    closed = symbolic_inner(sig, d, d)
    sampled = c.eval(grid, 1)
    assert np.allclose(closed.eval(grid), ip_array(sig, sampled, sampled), atol=1e-12)
    return closed


def _is_constant(fn: ScalarFn, value: float) -> bool:
    return (fn - ScalarFn.constant(value)).is_zero


def test_null_curve_hyperbolic_helix():
    # (sinh s, cosh s, s): speed squared is -cosh^2 + sinh^2 + 1 = 0
    sig = Signature(3, 1)
    c = CurveExpr.from_basis_terms(
        3, [("sinh", 1.0, (1.0, 0.0, 0.0)), ("cosh", 1.0, (0.0, 1.0, 0.0)), ("pow", 1, (0.0, 0.0, 1.0))]
    )
    assert _speed_squared(sig, c, uniform_grid(-2.0, 2.0, 101)).is_zero
    assert not c.is_constant()


def test_null_curve_diagonal_line():
    sig = Signature(3, 1)
    c = CurveExpr.from_basis_terms(3, [("pow", 1, (1.0, 1.0, 0.0))])
    assert _speed_squared(sig, c, uniform_grid(-2.0, 2.0, 101)).is_zero
    assert not c.is_constant()


@pytest.mark.parametrize(
    "terms",
    [
        [("cos", 1.0, (1.0, 0.0, 0.0)), ("sin", 1.0, (0.0, 1.0, 0.0))],
        [("pow", 1, (1.0, 2.0, 0.0))],
        [("exp", 0.3, (0.0, 0.0, 1.0)), ("pow", 2, (1.0, 0.0, 0.0))],
    ],
)
def test_no_null_curves_in_definite_metric(terms):
    """A positive-definite metric admits no regular null curve."""
    sig = Signature(3, 0)
    c = CurveExpr.from_basis_terms(3, terms)
    grid = uniform_grid(-2.0, 2.0, 101)
    speed_sq = _speed_squared(sig, c, grid)
    assert not speed_sq.is_zero
    assert np.all(speed_sq.eval(grid) > 0.0)


def test_unit_speed_circle():
    assert _is_constant(_speed_squared(Signature(3, 0), circle(), uniform_grid(-2.0, 2.0, 101)), 1.0)


def test_unit_speed_hyperbola_is_spacelike():
    # (cosh s, sinh s, 0): speed squared is -sinh^2 + cosh^2 = +1
    sig = Signature(3, 1)
    c = CurveExpr.from_basis_terms(
        3, [("cosh", 1.0, (1.0, 0.0, 0.0)), ("sinh", 1.0, (0.0, 1.0, 0.0))]
    )
    assert _is_constant(_speed_squared(sig, c, uniform_grid(-2.0, 2.0, 101)), 1.0)


def test_unit_speed_timelike_branch():
    # (sinh s, cosh s, 0): speed squared is -cosh^2 + sinh^2 = -1
    sig = Signature(3, 1)
    c = CurveExpr.from_basis_terms(
        3, [("sinh", 1.0, (1.0, 0.0, 0.0)), ("cosh", 1.0, (0.0, 1.0, 0.0))]
    )
    assert _is_constant(_speed_squared(sig, c, uniform_grid(-2.0, 2.0, 101)), -1.0)


def test_unit_speed_rejects_scaled_line():
    c = CurveExpr.from_basis_terms(3, [("pow", 1, (2.0, 0.0, 0.0))])
    speed_sq = _speed_squared(Signature(3, 0), c, uniform_grid(0.0, 1.0, 101))
    assert _is_constant(speed_sq, 4.0)
    assert not _is_constant(speed_sq, 1.0) and not _is_constant(speed_sq, -1.0)


def _parabola_arc_length(s: float) -> float:
    # antiderivative of sqrt(1 + 4 s^2), the speed of s^2 e1 + s e2
    return 0.5 * s * math.sqrt(1.0 + 4.0 * s * s) + 0.25 * math.asinh(2.0 * s)


@pytest.mark.parametrize(
    "curve, domain, length",
    [
        (CurveExpr.from_basis_terms(3, [("pow", 1, (2.0, 0.0, 0.0))]), (0.0, 1.0), 2.0),
        (circle(), (0.0, 2.0), 2.0),
        (
            CurveExpr.from_basis_terms(
                3, [("pow", 2, (1.0, 0.0, 0.0)), ("pow", 1, (0.0, 1.0, 0.0))]
            ),
            (1.0, 2.0),
            _parabola_arc_length(2.0) - _parabola_arc_length(1.0),
        ),
    ],
    ids=["scaled-line", "circle", "parabola"],
)
def test_quad_arc_length_matches_closed_form(curve, domain, length):
    sig = Signature(3, 0)

    def speed(s):
        d = curve.eval(s, 1)
        return np.sqrt(ip_array(sig, d, d))

    assert abs(float(quad(speed, *domain)) - length) < 1e-12


def test_quad_integrates_each_panel_of_a_grid():
    """One call returns every panel's integral; the panels sum to the whole."""
    grid = uniform_grid(-1.0, 3.0, 9)
    panels = quad(np.cos, grid[:-1], grid[1:])
    assert panels.shape == (8,)
    assert np.max(np.abs(panels - (np.sin(grid[1:]) - np.sin(grid[:-1])))) < 1e-15
    assert abs(panels.sum() - (math.sin(3.0) - math.sin(-1.0))) < 1e-14


def test_curve_construction_rejects_bad_inputs():
    with pytest.raises(UsageError):
        CurveExpr.from_basis_terms(3, [("pow", -1, (1.0, 0.0, 0.0))])
    with pytest.raises(UsageError):
        CurveExpr.from_basis_terms(3, [("tanh", 1.0, (1.0, 0.0, 0.0))])
    with pytest.raises(UsageError):
        CurveExpr.from_basis_terms(3, [("cos", 1.0, (1.0, 0.0))])


@pytest.mark.parametrize("a, b", [(-1e308, 1e308), (np.float64(-1e308), np.float64(1e308)),
                                  (-math.inf, 0.0), (0.0, math.nan), (1.0, 1.0)])
def test_uniform_grid_rejects_an_interval_without_a_finite_width(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match="bad interval"):
            uniform_grid(a, b, 5)


def test_derivative_cache_consistency():
    """Third derivatives exist and differentiate the second ones."""
    c = CurveExpr.from_basis_terms(3, [("sin", 2.0, (1.0, 0.0, 0.0))])
    d2 = c.eval(0.3, 2)
    d3 = c.eval(0.3, 3)
    assert np.allclose(d2, (-4.0 * math.sin(0.6), 0.0, 0.0), atol=1e-14)
    assert np.allclose(d3, (-8.0 * math.cos(0.6), 0.0, 0.0), atol=1e-14)


def test_eval_takes_any_order_past_the_third():
    """The fourth and fifth derivatives of sin(2s) are 16 sin(2s) and 32 cos(2s)."""
    c = CurveExpr.from_basis_terms(3, [("sin", 2.0, (1.0, 0.0, 0.0))])
    assert np.allclose(c.eval(0.3, 4), (16.0 * math.sin(0.6), 0.0, 0.0), atol=1e-13)
    assert np.allclose(c.eval(0.3, 5), (32.0 * math.cos(0.6), 0.0, 0.0), atol=1e-13)


def test_eval_rejects_a_negative_order():
    with pytest.raises(UsageError, match="order must be >= 0"):
        circle().eval(0.0, -1)
