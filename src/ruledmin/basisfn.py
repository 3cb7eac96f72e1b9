"""Closed-form scalar calculus on the span of s^k * phi(omega*s).

phi ranges over {1, cos, sin, cosh, sinh, exp} and k is a non-negative
integer. _EXPONENTIALS writes each kind once as a sum of c e^{rate s}; a
product adds rates, d/ds multiplies by the rate, an antiderivative divides
by it (by parts in s^k), and _spell writes the result back as atoms. This
family is closed under differentiation and antiderivatives, which is what
keeps curve jets and gauge integrals exact. Products leave it where a rate
is neither real nor imaginary (trig*hyperbolic, trig*exp): there
product_atoms returns None, on which callers fall back to quadrature, and
ScalarFn's `*` raises UsageError.

The term algebra over these atoms is written once, in _Terms: +, -,
scaling, d/ds, sampling and one bilinear product. ScalarFn (float
coefficients, here) and curves.CurveExpr (vector coefficients) are thin
classes over it; ScalarFn `*`, CurveExpr.plus_scalar_times and
curves.symbolic_inner are that product with different coefficient pairings.
"""

from __future__ import annotations

import functools
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

# phi(w s) as a sum of c e^{rate s}: the kind's (c, rate) pairs at w
_EXPONENTIALS = {
    ONE: lambda w: ((1.0, 0.0),),
    EXP: lambda w: ((1.0, w),),
    COSH: lambda w: ((0.5, w), (0.5, -w)),
    SINH: lambda w: ((0.5, w), (-0.5, -w)),
    COS: lambda w: ((0.5, 1j * w), (0.5, -1j * w)),
    SIN: lambda w: ((-0.5j, 1j * w), (0.5j, -1j * w)),
}


class Atom(NamedTuple):
    """Basis monomial s^k * phi(omega*s)."""

    k: int
    kind: str
    omega: float


def _spell(k: int, parts) -> list[tuple[float, Atom]] | None:
    """sum c s^k e^{rate s} over the (c, rate) parts as atoms, in the order
    the rates first appear: rate 0 is 1, a real rate +-w is cosh and sinh,
    or exp when the other sign sums to 0, and an imaginary rate +-iw is cos
    and sin. None when a rate is neither real nor imaginary. Zero
    coefficients are dropped."""
    pairs: dict = {}  # (trig, w) -> [coefficient of rate +w, of rate -w]
    for c, rate in parts:
        if rate.real and rate.imag:
            return None
        w = rate.real or rate.imag
        pairs.setdefault((bool(rate.imag), abs(w)), [0.0, 0.0])[w < 0] += c
    out = []
    for (trig, w), (cp, cm) in pairs.items():
        if trig:
            spelled = [((cp + cm).real, COS, w), ((cm - cp).imag, SIN, w)]
        elif not w:
            spelled = [(cp.real, ONE, 0.0)]
        elif cp and cm:
            spelled = [((cp + cm).real, COSH, w), ((cp - cm).real, SINH, w)]
        else:
            spelled = [((cp + cm).real, EXP, w if cp else -w)]
        out += [(coef, Atom(k, kind, omega)) for coef, kind, omega in spelled if coef]
    return out


def _memoized(rule):
    """rule behind an lru_cache, as a plain function (what a tracer wraps)."""
    cached = functools.lru_cache(maxsize=4096)(rule)
    return functools.wraps(rule)(lambda *args, **kwargs: cached(*args, **kwargs))


def canon(coef: float, k: int, kind: str, omega: float) -> list[tuple[float, Atom]]:
    """Normalize an atom, as _spell writes it: omega > 0 for trig/hyperbolic,
    parity folded into coef."""
    if coef == 0.0:
        return []
    if kind not in KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    if k < 0 or k != int(k):
        raise ValueError(f"power must be a non-negative integer, got {k!r}")
    return [(coef * c, atom) for c, atom in _spelled_atom(int(k), kind, float(omega))]


@_memoized
def _spelled_atom(k: int, kind: str, omega: float) -> tuple[tuple[float, Atom], ...]:
    return tuple(_spell(k, _EXPONENTIALS[kind](omega)))


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


@_memoized
def diff_atom(atom: Atom) -> tuple[tuple[float, Atom], ...]:
    """d/ds of an atom as (coefficient, atom) pairs: that of s^k e^{rate s}
    is k s^(k-1) e^{rate s} + rate s^k e^{rate s}."""
    k, kind, om = atom
    parts = _EXPONENTIALS[kind](om)
    out = _spell(k - 1, [(k * c, rate) for c, rate in parts]) if k else []
    return tuple(out + _spell(k, [(c * rate, rate) for c, rate in parts]))


@_memoized
def product_atoms(a: Atom, b: Atom) -> tuple[tuple[float, Atom], ...] | None:
    """a * b inside the family, or None when the product leaves it."""
    out = _spell(a.k + b.k, [
        (ca * cb, ra + rb) for ca, ra in _EXPONENTIALS[a.kind](a.omega)
        for cb, rb in _EXPONENTIALS[b.kind](b.omega)
    ])
    return None if out is None else tuple(out)


def _by_parts(k: int, rate: complex) -> list[complex]:
    """The coefficients on s^k, ..., s^0 e^{rate s} of an antiderivative of
    s^k e^{rate s}: s^k e^{rate s} / rate, minus k / rate times the lower one's."""
    out = [1.0 / rate]
    if k:
        c = -k / rate
        out += [c * lower for lower in _by_parts(k - 1, rate)]
    return out


@_memoized
def antiderivative_atom(atom: Atom) -> tuple[tuple[float, Atom], ...]:
    """An antiderivative of the atom; always exists inside the family."""
    k, kind, om = atom
    parts = _EXPONENTIALS[kind](om)
    if not parts[0][1]:
        return ((1.0 / (k + 1), Atom(k + 1, ONE, 0.0)),)  # rate 0: the power rule
    levels = zip(*(_by_parts(k, rate) for _, rate in parts))
    return tuple(term for j, level in enumerate(levels)
                 for term in _spell(k - j, [(c * x, rate) for (c, rate), x in zip(parts, level)]))


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
