"""The one term algebra behind ScalarFn and CurveExpr.

The shared product is compared with the three loops it replaced (kept in
_oracles) term by term and in dict order, and with pointwise samples for
every pair of atom kinds. The atom rules, read off each kind's
exponentials, are compared bit for bit with the rules they replaced, which
_oracles keeps kind by kind.
"""

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
    antiderivative_atom,
    canon,
    diff_atom,
    product_atoms,
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


def _same_terms(got, want) -> bool:
    """Same atoms in the same dict order with equal coefficients (None for None)."""
    if got is None or want is None:
        return got is None and want is None
    return list(got.terms) == list(want) and all(
        np.array_equal(c, want[atom]) for atom, c in got.terms.items()
    )


def test_the_shared_product_matches_the_three_loops_it_replaced():
    bad = []
    for sig, surf in _catalog_surfaces():
        curves = (surf.gamma, surf.gamma.derivative(1), surf.base.derivative(1))
        pairings = {}
        for (i, a), (j, b) in itertools.product(enumerate(curves), repeat=2):
            pairings[i, j] = symbolic_inner(sig, a, b)
            if not _same_terms(pairings[i, j], symbolic_inner_loop(sig, a.terms, b.terms)):
                bad.append((sig, "symbolic_inner"))
        closed = [fn for (i, j), fn in pairings.items() if i <= j and fn is not None]
        for f, g in itertools.combinations_with_replacement(closed, 2):
            try:
                want = scalar_product_loop(f.terms, g.terms)
            except UsageError:
                with pytest.raises(UsageError, match="leaves the term algebra"):
                    f * g
                continue
            if not _same_terms(f * g, want):
                bad.append((sig, "ScalarFn *"))
        gauge = pairings[0, 2]  # <gamma, x'>, whose antiderivative the gauge adds
        for lam in [RHO] + ([] if gauge is None else [gauge.antiderivative()]):
            got = surf.base.plus_scalar_times(lam, surf.gamma)
            want = plus_scalar_times_loop(surf.base.terms, lam.terms, surf.gamma.terms)
            if not _same_terms(got, want):
                bad.append((sig, "plus_scalar_times"))
    assert not bad, bad[:5]


def _atoms():
    for k in range(3):
        yield Atom(k, ONE, 0.0)
        for kind, omega in zip(KINDS[1:], (1.3, 0.7, 0.9, 1.1, 0.6)):
            yield Atom(k, kind, omega)


def _leaves(a: Atom, b: Atom) -> bool:
    kinds = {a.kind, b.kind}
    return bool(kinds & TRIG) and bool(kinds & OUTSIDE_TRIG)


@pytest.mark.parametrize("a", list(_atoms()), ids=str)
def test_products_of_every_pair_of_kinds_match_their_samples(a):
    """symbolic_inner, plus_scalar_times and ScalarFn * answer in closed
    form, equal to the samples, unless a trig atom meets a hyperbolic or
    exponential one with a nonzero coefficient pairing; then, and only then,
    the first two give None and `*` raises UsageError."""
    sig = Signature(3, 1)
    grid = uniform_grid(-2.0, 2.0, 41)
    x = CurveExpr(3, [(Atom(1, ONE, 0.0), (0.5, -1.0, 2.0))])
    u = CurveExpr(3, [(a, (1.0, 2.0, 0.0))])
    for b in _atoms():
        v = CurveExpr(3, [(b, (0.5, 3.0, 0.0))])  # <u, v> = -0.5 + 6 = 5.5
        inner = symbolic_inner(sig, u, v)
        assert (inner is None) == _leaves(a, b), (a, b)
        if inner is not None:
            want = ip_array(sig, u.eval(grid), v.eval(grid))
            assert np.allclose(inner.eval(grid), want, rtol=1e-12, atol=1e-12), (a, b)
        disjoint = CurveExpr(3, [(b, (0.0, 0.0, 1.0))])  # <u, disjoint> = 0
        assert symbolic_inner(sig, u, disjoint).is_zero, (a, b)

        lam = ScalarFn([(-0.75, a)])
        shifted = x.plus_scalar_times(lam, v)
        assert (shifted is None) == _leaves(a, b), (a, b)
        if shifted is not None:
            want = x.eval(grid) + lam.eval(grid)[:, None] * v.eval(grid)
            assert np.allclose(shifted.eval(grid), want, rtol=1e-12, atol=1e-12), (a, b)

        f, g = ScalarFn([(1.5, a)]), ScalarFn([(-0.5, b)])
        if _leaves(a, b):
            with pytest.raises(UsageError, match="leaves the term algebra"):
                f * g
        else:
            want = f.eval(grid) * g.eval(grid)
            assert np.allclose((f * g).eval(grid), want, rtol=1e-12, atol=1e-12), (a, b)


# ---------------------------------------------------------------------------
# the atom rules against the rules kind by kind

OMEGAS = (0.1, 0.5, 1.0, 2.0, 3.0, math.pi, 7.25)
RULE_ATOMS = [
    Atom(k, kind, omega)
    for kind in KINDS for k in range(4) for omega in ((0.0,) if kind == ONE else OMEGAS)
]


def _bits(pairs):
    """(coefficient as hex, atom) in order; None stays None. hex() also
    fails on a coefficient that is not a float."""
    return None if pairs is None else [(c.hex(), atom) for c, atom in pairs]


@pytest.mark.parametrize("atom", RULE_ATOMS, ids=str)
def test_derivatives_and_antiderivatives_match_the_rules_kind_by_kind(atom):
    assert _bits(diff_atom(atom)) == _bits(diff_atom_by_kind(atom))
    assert _bits(antiderivative_atom(atom)) == _bits(antiderivative_atom_by_kind(atom))


@pytest.mark.parametrize("a", RULE_ATOMS, ids=str)
def test_products_match_the_six_way_table(a):
    for b in RULE_ATOMS:
        got, want = _bits(product_atoms(a, b)), _bits(product_atoms_by_kind(a, b))
        if a.kind == b.kind and a.kind in TRIG:
            # cos*cos and sin*sin: the first product of exponentials has the
            # sum frequency, so it comes first; the table put the difference
            # first. The terms are the same.
            got, want = sorted(got, key=str), sorted(want, key=str)
        assert got == want, b


@pytest.mark.parametrize("kind", KINDS)
def test_canon_matches_the_parity_folding(kind):
    omegas = (0.0, *OMEGAS, *(-w for w in OMEGAS))
    for k, omega, coef in itertools.product(range(4), omegas, (1.0, -2.5, 0.0)):
        want = canon_by_kind(coef, k, kind, omega)
        assert _bits(canon(coef, k, kind, omega)) == _bits(want), (k, omega, coef)
