"""Closed-form scalar calculus on the span of s^k * phi(omega*s).

phi ranges over {1, cos, sin, cosh, sinh, exp} and k is a non-negative
integer. This family is closed under differentiation and antiderivatives,
which is what keeps curve jets and gauge integrals exact. It is partially
closed under products: trig*trig, hyperbolic*hyperbolic, exp*exp,
hyperbolic*exp, and power*anything reduce back into the family, while
trig*hyperbolic and trig*exp do not: there product_atoms returns None, on
which callers fall back to quadrature, and ScalarFn's `*` raises UsageError.

The term algebra over these atoms is written once, in _Terms: +, -,
scaling, d/ds, sampling and one bilinear product. ScalarFn (float
coefficients, here) and curves.CurveExpr (vector coefficients) are thin
classes over it; ScalarFn `*`, CurveExpr.plus_scalar_times and
curves.symbolic_inner are that product with different coefficient pairings.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .errors import UsageError

ONE = "one"
COS = "cos"
SIN = "sin"
COSH = "cosh"
SINH = "sinh"
EXP = "exp"

KINDS = (ONE, COS, SIN, COSH, SINH, EXP)

_EVEN = {COS: True, SIN: False, COSH: True, SINH: False}


class Atom(NamedTuple):
    """Basis monomial s^k * phi(omega*s)."""

    k: int
    kind: str
    omega: float


def canon(coef: float, k: int, kind: str, omega: float) -> list[tuple[float, Atom]]:
    """Normalize an atom: omega > 0 for trig/hyperbolic, parity folded into coef."""
    if coef == 0.0:
        return []
    if kind not in KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    if k < 0 or k != int(k):
        raise ValueError(f"power must be a non-negative integer, got {k!r}")
    k = int(k)
    omega = float(omega)
    if kind == ONE or omega == 0.0:
        if kind in (SIN, SINH):
            return []  # sin(0) = sinh(0) = 0
        return [(coef, Atom(k, ONE, 0.0))]  # cos(0) = cosh(0) = exp(0) = 1
    if kind == EXP:
        return [(coef, Atom(k, EXP, omega))]
    if omega < 0.0:
        if not _EVEN[kind]:
            coef = -coef
        omega = -omega
    return [(coef, Atom(k, kind, omega))]


def eval_atom(atom: Atom, s: np.ndarray) -> np.ndarray:
    k, kind, om = atom
    if kind == ONE:
        val = np.ones_like(s)
    elif kind == COS:
        val = np.cos(om * s)
    elif kind == SIN:
        val = np.sin(om * s)
    elif kind == COSH:
        val = np.cosh(om * s)
    elif kind == SINH:
        val = np.sinh(om * s)
    else:
        val = np.exp(om * s)
    if k:
        val = val * s**k
    return val


# d/ds phi(w s) = sign * w * psi(w s) for phi -> (psi, sign)
_DERIV = {COS: (SIN, -1.0), SIN: (COS, 1.0), COSH: (SINH, 1.0), SINH: (COSH, 1.0), EXP: (EXP, 1.0)}
# so phi(w s) is d/ds of psi(w s) / (sign * w) for phi -> (psi, sign)
_PRIMITIVE = {phi: (psi, sign) for psi, (phi, sign) in _DERIV.items()}


def diff_atom(atom: Atom) -> list[tuple[float, Atom]]:
    """d/ds of an atom as a list of (coefficient, atom) pairs."""
    k, kind, om = atom
    out: list[tuple[float, Atom]] = []
    if k > 0:
        out.append((float(k), Atom(k - 1, kind, om)))
    if kind != ONE:
        psi, sign = _DERIV[kind]
        out.extend(canon(sign * om, k, psi, om))
    return out


def product_atoms(a: Atom, b: Atom) -> list[tuple[float, Atom]] | None:
    """a * b inside the family, or None when the product leaves it."""
    k = a.k + b.k
    if a.kind == ONE:
        return canon(1.0, k, b.kind, b.omega)
    if b.kind == ONE:
        return canon(1.0, k, a.kind, a.omega)
    wa, wb = a.omega, b.omega
    ka, kb = a.kind, b.kind
    if ka in (COS, SIN) and kb in (COS, SIN):
        # product-to-sum identities
        if ka == COS and kb == COS:
            parts = [(0.5, COS, wa - wb), (0.5, COS, wa + wb)]
        elif ka == SIN and kb == SIN:
            parts = [(0.5, COS, wa - wb), (-0.5, COS, wa + wb)]
        else:
            # cos(wa s) * sin(wb s); swap so the cosine frequency comes first
            if ka == SIN:
                wa, wb = wb, wa
            parts = [(0.5, SIN, wa + wb), (-0.5, SIN, wa - wb)]
    elif ka in (COSH, SINH) and kb in (COSH, SINH):
        if ka == COSH and kb == COSH:
            parts = [(0.5, COSH, wa + wb), (0.5, COSH, wa - wb)]
        elif ka == SINH and kb == SINH:
            parts = [(0.5, COSH, wa + wb), (-0.5, COSH, wa - wb)]
        else:
            if ka == SINH:
                wa, wb = wb, wa
            # cosh(wa s) * sinh(wb s)
            parts = [(0.5, SINH, wa + wb), (-0.5, SINH, wa - wb)]
    elif ka == EXP and kb == EXP:
        parts = [(1.0, EXP, wa + wb)]
    elif {ka, kb} <= {COSH, SINH, EXP}:
        # hyperbolic * exp expands into pure exponentials
        if ka == EXP:
            ka, kb = kb, ka
            wa, wb = wb, wa
        sign = 1.0 if ka == COSH else -1.0
        parts = [(0.5, EXP, wb + wa), (0.5 * sign, EXP, wb - wa)]
    else:
        return None
    out: list[tuple[float, Atom]] = []
    for c, kind, om in parts:
        out.extend(canon(c, k, kind, om))
    return out


def antiderivative_atom(atom: Atom) -> list[tuple[float, Atom]]:
    """An antiderivative of the atom; always exists inside the family.

    By parts: the integral of s^k phi(w s) is s^k psi(w s) / (sign * w)
    minus k / (sign * w) times the integral of s^(k-1) psi(w s).
    """
    k, kind, om = atom
    if kind == ONE:
        return [(1.0 / (k + 1), Atom(k + 1, ONE, 0.0))]
    psi, sign = _PRIMITIVE[kind]
    out = [(sign / om, Atom(k, psi, om))]
    if k:
        c = -k * sign / om
        out += [(c * cc, aa) for cc, aa in antiderivative_atom(Atom(k - 1, psi, om))]
    return out


class _Terms:
    """A finite sum of coefficient * atom, kept as the dict `terms`.

    The one implementation of +, -, scaling by a number, d/ds, sampling and
    the bilinear product for ScalarFn (float coefficients) and
    curves.CurveExpr (vector coefficients). A subclass says how its
    coefficients test for zero (`_zero`), the shape of one coefficient
    (`_shape`) and how an atom's samples line up with it (`_expand`).
    """

    __slots__ = ("terms",)
    _shape: tuple = ()
    _expand = ...

    def __init__(self):
        self.terms: dict = {}

    @staticmethod
    def _zero(c) -> bool:
        return c == 0.0

    def _empty(self):
        return type(self)()

    def _copy(self):
        out = self._empty()
        out.terms = dict(self.terms)
        return out

    def _check(self, other) -> None:
        if other._shape != self._shape:
            raise UsageError(f"cannot combine terms of shape {self._shape} and {other._shape}")

    def _add(self, atom: Atom, coef) -> None:
        """Add coef * atom, dropping the atom when its coefficient sums to zero."""
        if self._zero(coef):
            return
        cur = self.terms.get(atom)
        if cur is not None:
            coef = cur + coef
            if self._zero(coef):
                del self.terms[atom]
                return
        self.terms[atom] = coef

    def _map(self, atom_map):
        """The linear map that sends each atom to atom_map(atom)'s (coef, atom) pairs."""
        out = self._empty()
        for atom, c in self.terms.items():
            for cc, aa in atom_map(atom):
                out._add(aa, c * cc)
        return out

    def _product(self, other: "_Terms", pair, out):
        """out plus self * other, where the atom pair (a, b) contributes
        pair(self.terms[a], other.terms[b]) * a * b, added into out in the
        order self's atoms, other's atoms, product_atoms' parts. A pair whose
        coefficient is zero is skipped; None when any other pair's product
        leaves the family."""
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                c = pair(ca, cb)
                if out._zero(c):
                    continue
                parts = product_atoms(a, b)
                if parts is None:
                    return None
                for cc, atom in parts:
                    out._add(atom, c * cc)
        return out

    def __add__(self, other):
        self._check(other)
        out = self._copy()
        for atom, c in other.terms.items():
            out._add(atom, c)
        return out

    def __sub__(self, other):
        return self + other * -1.0

    def __mul__(self, k):
        k = float(k)
        return self._map(lambda atom: [(k, atom)])

    __rmul__ = __mul__

    def derivative(self):
        return self._map(diff_atom)

    def eval(self, s):
        """Samples at s, scalar or array; a scalar fn at a scalar s is a float."""
        out = self._sample(np.asarray(s, dtype=float))[0]
        return float(out) if out.ndim == 0 else out

    def _sample(self, arr: np.ndarray, sized: bool = False):
        """Samples at the array arr and, when sized, the size of the terms
        that cancel in them, sum |coefficient| |atom| (else None)."""
        out = np.zeros(arr.shape + self._shape)
        size = np.zeros_like(out) if sized else None
        for atom, c in self.terms.items():
            term = eval_atom(atom, arr)[self._expand] * c
            out += term
            if sized:
                size += np.abs(term, out=term)
        return out, size


class ScalarFn(_Terms):
    """Finite linear combination of atoms with float coefficients."""

    __slots__ = ()

    def __init__(self, terms: Iterable[tuple[float, Atom]] = ()):
        super().__init__()
        for coef, atom in terms:
            self._add(atom, float(coef))

    @classmethod
    def constant(cls, c: float) -> "ScalarFn":
        return cls([(float(c), Atom(0, ONE, 0.0))])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "ScalarFn | float") -> "ScalarFn":
        """Scaling by a number, or the product through product_atoms; UsageError
        when that product leaves the family."""
        if not isinstance(other, ScalarFn):
            return super().__mul__(other)
        out = self._product(other, lambda ca, cb: ca * cb, ScalarFn())
        if out is None:
            raise UsageError(f"{self!r} * {other!r} leaves the term algebra")
        return out

    def antiderivative(self) -> "ScalarFn":
        return self._map(antiderivative_atom)

    def __repr__(self) -> str:
        if not self.terms:
            return "ScalarFn(0)"
        bits = []
        for atom, c in sorted(self.terms.items()):
            name = atom.kind if atom.kind != ONE else "1"
            bits.append(f"{c:g}*s^{atom.k}*{name}({atom.omega:g}s)")
        return "ScalarFn(" + " + ".join(bits) + ")"
