"""The one term algebra behind ScalarFn and CurveExpr.

The shared product, written back as atoms, is compared with the three
loops it replaced (kept in _oracles on the by-kind product table) term by
term, up to rounding, wherever that table closes, and with pointwise samples
for every pair of atom kinds, where it always closes. The one-atom
derivative, antiderivative, product and reading of an atom, written back
as atoms, are compared bit for bit with the rules that _oracles keeps kind
by kind.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from ruledmin import FamilyId, Signature, UsageError, generate, ip_array, symbolic_inner
from ruledmin.basisfn import (
    COS,
    COSH,
    EXP,
    KINDS,
    ONE,
    SIN,
    SINH,
    Atom,
    ScalarFn,
)
from ruledmin.curves import CurveExpr, uniform_grid

from _oracles import (
    antiderivative_atom_by_kind,
    canon_by_kind,
    diff_atom_by_kind,
    plus_scalar_times_loop,
    product_atoms_by_kind,
    scalar_product_loop,
    symbolic_inner_loop,
)
from test_catalog import _admissible_triples
from test_numerator import _bumped, _slid

TRIG, OUTSIDE_TRIG = {COS, SIN}, {COSH, SINH, EXP}
RHO = ScalarFn([(0.3, Atom(1, ONE, 0.0)), (0.1, Atom(2, ONE, 0.0))])


def _catalog_surfaces():
    """Every catalog triple and plane with n = 3-6: plain, slid by
    0.3 s + 0.1 s^2, and bumped by 0.1 cosh(s/2) on each axis."""
    planes = [(Signature(n, p), FamilyId.PLANE, None) for n in range(3, 7) for p in range(n + 1)]
    for sig, family, signs in [*_admissible_triples(), *planes]:
        surf = generate(sig, family, signs=signs)
        yield sig, surf
        yield sig, _slid(surf, 0.3, 0.1)
        for axis in range(sig.n):
            yield sig, _bumped(surf, axis)


def _atom_dict(fn) -> dict:
    """fn written back as atoms, as a dict from atom to coefficient."""
    return {atom: c for c, atom in fn._spelled()}


def _same_terms(got, want: dict) -> bool:
    """got is the function that want's atoms spell, term by term: each
    (power, rate) coefficient of their difference is within 1e-15 of the
    largest coefficient, the rounding of summing the same products in
    another order. (The loops' atoms can spell one function two ways, such
    as -cosh s + sinh s and -e^{-s}, so atoms are not compared.)"""
    if isinstance(got, ScalarFn):
        want = ScalarFn((c, atom) for atom, c in want.items())
    else:
        want = CurveExpr(got.n, want.items())
    size = max((np.abs(c).max() for c in [*got.terms.values(), *want.terms.values()]), default=0.0)
    return all(np.abs(c).max() <= 1e-15 * size for c in (got - want).terms.values())


def _same_samples(got, want_samples, grid) -> bool:
    return np.allclose(got.eval(grid), want_samples, rtol=1e-12, atol=1e-12)


def _matches(got, samples, grid, loop, *fns) -> bool:
    """got against loop's answer on the atoms of fns, or against samples
    where the loop has none: an input holds damped terms, which have no
    atoms, or the by-kind table does not close (UsageError or None)."""
    try:
        want = loop(*map(_atom_dict, fns))
    except UsageError:
        want = None
    return _same_samples(got, samples, grid) if want is None else _same_terms(got, want)


def test_the_shared_product_matches_the_three_loops_it_replaced():
    grid = uniform_grid(-2.0, 2.0, 9)
    bad = []
    for sig, surf in _catalog_surfaces():
        curves = (surf.gamma, surf.gamma.derivative(1), surf.base.derivative(1))
        pairings = {}
        for (i, a), (j, b) in itertools.product(enumerate(curves), repeat=2):
            pairings[i, j] = got = symbolic_inner(sig, a, b)
            samples = ip_array(sig, a.eval(grid), b.eval(grid))
            if not _matches(got, samples, grid, functools.partial(symbolic_inner_loop, sig), a, b):
                bad.append((sig, "symbolic_inner"))
        closed = [fn for (i, j), fn in pairings.items() if i <= j]
        for f, g in itertools.combinations_with_replacement(closed, 2):
            if not _matches(f * g, f.eval(grid) * g.eval(grid), grid, scalar_product_loop, f, g):
                bad.append((sig, "ScalarFn *"))
        gauge = pairings[0, 2]  # <gamma, x'>, whose antiderivative the gauge adds
        for lam in (RHO, gauge.antiderivative()):
            got = surf.base.plus_scalar_times(lam, surf.gamma)
            samples = surf.base.eval(grid) + lam.eval(grid)[:, None] * surf.gamma.eval(grid)
            if not _matches(got, samples, grid, plus_scalar_times_loop, surf.base, lam, surf.gamma):
                bad.append((sig, "plus_scalar_times"))
    assert not bad, bad[:5]


def _atoms():
    for k in range(3):
        yield Atom(k, ONE, 0.0)
        for kind, omega in zip(KINDS[1:], (1.3, 0.7, 0.9, 1.1, 0.6)):
            yield Atom(k, kind, omega)


@pytest.mark.parametrize("a", list(_atoms()), ids=str)
def test_products_of_every_pair_of_kinds_match_their_samples(a):
    """symbolic_inner, plus_scalar_times and ScalarFn * answer in closed
    form for every pair of atom kinds, equal to the samples; a trig atom
    times a hyperbolic or exponential one gives damped rates."""
    sig = Signature(3, 1)
    grid = uniform_grid(-2.0, 2.0, 41)
    x = CurveExpr(3, [(Atom(1, ONE, 0.0), (0.5, -1.0, 2.0))])
    u = CurveExpr(3, [(a, (1.0, 2.0, 0.0))])
    for b in _atoms():
        v = CurveExpr(3, [(b, (0.5, 3.0, 0.0))])  # <u, v> = -0.5 + 6 = 5.5
        inner = symbolic_inner(sig, u, v)
        want = ip_array(sig, u.eval(grid), v.eval(grid))
        assert np.allclose(inner.eval(grid), want, rtol=1e-12, atol=1e-12), (a, b)
        disjoint = CurveExpr(3, [(b, (0.0, 0.0, 1.0))])  # <u, disjoint> = 0
        assert symbolic_inner(sig, u, disjoint).is_zero, (a, b)

        lam = ScalarFn([(-0.75, a)])
        shifted = x.plus_scalar_times(lam, v)
        want = x.eval(grid) + lam.eval(grid)[:, None] * v.eval(grid)
        assert np.allclose(shifted.eval(grid), want, rtol=1e-12, atol=1e-12), (a, b)

        f, g = ScalarFn([(1.5, a)]), ScalarFn([(-0.5, b)])
        want = f.eval(grid) * g.eval(grid)
        assert np.allclose((f * g).eval(grid), want, rtol=1e-12, atol=1e-12), (a, b)
        kinds = {a.kind, b.kind}
        assert (f * g)._damped() == (bool(kinds & TRIG) and bool(kinds & OUTSIDE_TRIG)), (a, b)


def test_one_function_has_one_set_of_terms():
    """-cosh 2s + sinh 2s is -e^{-2s}: one term, whatever the spelling, so a
    sum that is zero as a function is zero as terms, and a constant curve
    has no derivative terms left."""
    cosh, sinh, exp = (ScalarFn([(1.0, Atom(0, kind, w))]) for kind, w in ((COSH, 2.0), (SINH, 2.0), (EXP, -2.0)))
    assert (sinh - cosh + exp).is_zero
    assert (sinh - cosh)._spelled() == [(-1.0, Atom(0, EXP, -2.0))]
    w = 1.5
    constant = CurveExpr(3, [
        (Atom(0, ONE, 0.0), (1.0, 0.0, 0.0)),
        (Atom(0, COSH, w), (0.0, 1.0, 0.0)),
        (Atom(0, EXP, w), (0.0, -0.5, 0.0)),
        (Atom(0, EXP, -w), (0.0, -0.5, 0.0)),
    ])
    assert constant.is_constant()
    [(vec, atom)] = constant._spelled()
    assert atom == Atom(0, ONE, 0.0) and np.array_equal(vec, (1.0, 0.0, 0.0))


def test_constructors_read_every_atom_one_way_and_reject_a_bad_one():
    """The sign of omega folds into the rates (cosh(-2s) = cosh 2s, sin(-s) =
    -sin s); an unknown kind, a power that is not a non-negative integer or
    an omega that is not finite is a UsageError from ScalarFn and CurveExpr
    alike."""
    assert (ScalarFn([(1.0, Atom(0, COSH, -2.0))]) + ScalarFn([(-1.0, Atom(0, COSH, 2.0))])).is_zero
    assert (ScalarFn([(1.0, Atom(0, SIN, -1.0))]) + ScalarFn([(1.0, Atom(0, SIN, 1.0))])).is_zero
    bad = (Atom(0, "tanh", 1.0), Atom(-1, EXP, 1.0), Atom(1.5, EXP, 1.0), Atom(float("nan"), ONE, 0.0),
           Atom(0, COS, float("nan")), Atom(1, COSH, float("inf")))
    rule = "^(unknown basis kind|power must be a non-negative integer|omega must be finite)"
    for atom in bad:
        with pytest.raises(UsageError, match=rule):
            ScalarFn([(1.0, atom)])
        with pytest.raises(UsageError, match=rule):
            CurveExpr(3, [(atom, (1.0, 0.0, 0.0))])


def test_the_minimal_cylinders_pairing_samples_its_exponential():
    """<gamma, x'> of the R^3_1 minimal cylinder is -e^{-s}, sampled as such
    to full relative precision where cosh s and sinh s round to one value."""
    sig = Signature(3, 1)
    surf = generate(sig, FamilyId.MINIMAL_CYLINDER)
    pairing = symbolic_inner(sig, surf.gamma, surf.base.derivative(1))
    grid = uniform_grid(20.0, 40.0, 81)
    assert np.allclose(pairing.eval(grid), -np.exp(-grid), rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# the one-atom operations against the rules kind by kind

OMEGAS = (0.1, 0.5, 1.0, 2.0, 3.0, math.pi, 7.25)
RULE_ATOMS = [
    Atom(k, kind, omega)
    for kind in KINDS for k in range(4) for omega in ((0.0,) if kind == ONE else OMEGAS)
]


def _bits(pairs):
    """(coefficient as hex, atom) in order; None stays None. hex() also
    fails on a coefficient that is not a float."""
    return None if pairs is None else [(c.hex(), atom) for c, atom in pairs]


def _one(atom: Atom, coef: float = 1.0) -> ScalarFn:
    return ScalarFn([(coef, atom)])


@pytest.mark.parametrize("atom", RULE_ATOMS, ids=str)
def test_derivatives_and_antiderivatives_match_the_rules_kind_by_kind(atom):
    assert _bits(_one(atom).derivative()._spelled()) == _bits(diff_atom_by_kind(atom))
    assert _bits(_one(atom).antiderivative()._spelled()) == _bits(antiderivative_atom_by_kind(atom))


@pytest.mark.parametrize("a", RULE_ATOMS, ids=str)
def test_products_match_the_six_way_table(a):
    """Where the table closes, the same atoms and bits; trig times
    hyperbolic or exp, which the table leaves, gives damped terms only."""
    for b in RULE_ATOMS:
        product, want = _one(a) * _one(b), _bits(product_atoms_by_kind(a, b))
        if want is None:
            assert all(rate.real and rate.imag for _, rate in product.terms), b
            continue
        got = _bits(product._spelled())
        if a.kind == b.kind and a.kind in TRIG:
            # cos*cos and sin*sin: the first product of exponentials has the
            # sum frequency, so it comes first; the table put the difference
            # first. The terms are the same.
            got, want = sorted(got, key=str), sorted(want, key=str)
        assert got == want, b


@pytest.mark.parametrize("kind", KINDS)
def test_reading_an_atom_matches_the_parity_folding(kind):
    omegas = (0.0, *OMEGAS, *(-w for w in OMEGAS))
    for k, omega, coef in itertools.product(range(4), omegas, (1.0, -2.5, 0.0)):
        want = canon_by_kind(coef, k, kind, omega)
        assert _bits(_one(Atom(k, kind, omega), coef)._spelled()) == _bits(want), (k, omega, coef)
