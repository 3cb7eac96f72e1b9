"""Closed-form scalar calculus on the span of s^k e^{rate s}.

A term is keyed by (k, rate), k a non-negative integer and rate complex; a
real function holds real coefficients at real rates and conjugate ones at
conjugate rates. A product adds powers and rates, d/ds multiplies by the
rate (plus the power rule) and an antiderivative integrates by parts, so
the family is closed under all of them. The s^k e^{rate s} are linearly
independent: a function has one set of keys, and is zero exactly when none
is left. Atoms s^k phi(omega s), phi in {1, cos, sin, cosh, sinh, exp},
are read through _EXPONENTIALS and written back by _Terms._atoms only where
a caller needs them (sampling, repr and the writers). A damped rate (trig
times hyperbolic or exp) is sampled like any other, but no atom spells it.

The algebra is written once, in _Terms. ScalarFn (float-valued
coefficients, here) and curves.CurveExpr (vector coefficients) are thin
classes over it; ScalarFn `*`, CurveExpr.plus_scalar_times and
curves.symbolic_inner are its one bilinear product with different
coefficient pairings.
"""

from __future__ import annotations

import math
import operator
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


def _rates(atom: Atom) -> list[tuple[tuple[int, complex], complex]]:
    """The atom as ((k, rate), c) terms, the one reading of an atom: the sign
    of omega folds into the rates. UsageError on an unknown kind, a power
    that is not a non-negative integer or an omega that is not finite."""
    k, kind, omega = atom
    if kind not in _EXPONENTIALS:
        raise UsageError(f"unknown basis kind {kind!r}; expected one of {KINDS}")
    if not (k >= 0 and float(k).is_integer()):
        raise UsageError(f"power must be a non-negative integer, got {k!r}")
    if not math.isfinite(omega):
        raise UsageError(f"omega must be finite, got {omega!r}")
    return [((int(k), rate), c if rate.imag else c.real)
            for c, rate in _EXPONENTIALS[kind](float(omega))]


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


def _derivative(k: int, rate: complex) -> list:
    """d/ds of s^k e^{rate s}: k s^(k-1) e^{rate s} + rate s^k e^{rate s}."""
    return ([((k - 1, rate), k)] if k else []) + ([((k, rate), rate)] if rate else [])


def _by_parts(k: int, rate: complex) -> list[complex]:
    """The coefficients on s^k, ..., s^0 e^{rate s} of an antiderivative of
    s^k e^{rate s}: s^k e^{rate s} / rate, minus k / rate times the lower one's."""
    out = [1.0 / rate]
    if k:
        c = -k / rate
        out += [c * lower for lower in _by_parts(k - 1, rate)]
    return out


def _antiderivative(k: int, rate: complex) -> list:
    if not rate:
        return [((k + 1, rate), 1.0 / (k + 1))]  # the power rule
    return [((k - j, rate), x) for j, x in enumerate(_by_parts(k, rate))]


class _Terms:
    """A finite sum of coefficient * s^k e^{rate s}, the dict `terms` from
    (k, rate) to coefficient: +, -, scaling, d/ds, sampling and the bilinear
    product for ScalarFn and curves.CurveExpr. A subclass says how its
    coefficients test for zero (`_zero`), the shape of one coefficient
    (`_shape`) and how an atom's samples line up with it (`_expand`)."""

    __slots__ = ("terms", "_spelling")
    _shape: tuple = ()
    _expand = ...

    def __init__(self):
        self.terms: dict = {}
        self._spelling = None  # _atoms, written on first use: a made function is not changed

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

    def _add(self, key: tuple, coef) -> None:
        """Add coef at key, dropping the key when its coefficient sums to zero."""
        if self._zero(coef):
            return
        cur = self.terms.get(key)
        if cur is not None:
            coef = cur + coef
            if self._zero(coef):
                del self.terms[key]
                return
        self.terms[key] = coef

    def _add_atom(self, atom: Atom, coef) -> None:
        for key, c in _rates(atom):
            self._add(key, coef * c)

    def _paired(self):
        """self, whose terms on and above the real axis are the function's: a
        real rate keeps its coefficient's real part, a rate above the axis is
        followed by its conjugate, with the conjugate coefficient."""
        terms, self.terms = self.terms, {}
        for (k, rate), c in terms.items():
            if rate.imag > 0:
                self.terms[k, rate] = c
                self.terms[k, rate.conjugate()] = c.conjugate()
            elif not rate.imag:
                self._add((k, rate), c.real)
        return self

    def _map(self, rule):
        """The linear map that sends s^k e^{rate s} to rule(k, rate)'s
        ((k', rate), factor) terms, for rates on and above the real axis."""
        out = self._empty()
        for (k, rate), c in self.terms.items():
            if rate.imag >= 0:
                for key, factor in rule(k, rate):
                    out._add(key, c * factor)
        return out._paired()

    def _product(self, other: "_Terms", pair, out):
        """out plus self * other: the terms at (ka, ra) and (kb, rb) add
        pair(self's coefficient, other's) at (ka + kb, ra + rb), in the order
        self's terms, other's terms, where ra + rb is on or above the real
        axis (_paired adds the conjugates) and the coefficient is nonzero."""
        for (ka, ra), ca in self.terms.items():
            for (kb, rb), cb in other.terms.items():
                rate = ra + rb
                if rate.imag >= 0:
                    c = pair(ca, cb)
                    if not out._zero(c):
                        out._add((ka + kb, rate), c)
        return out._paired()

    def _damped(self) -> bool:
        """Whether a rate has real and imaginary parts both nonzero."""
        return any(rate.real and rate.imag for _, rate in self.terms)

    def _atoms(self) -> list:
        """The terms as (coefficient, Atom) pairs, in the order their
        (k, |rate|) first appears: rate 0 is 1, a real rate +-w is cosh and
        sinh, or exp when the other sign is absent, and an imaginary rate
        +-iw is cos and sin. Zero coefficients are dropped. A damped term,
        which no atom spells, is (coefficient, (k, rate)) at the end."""
        if self._spelling is not None:
            return self._spelling
        pairs: dict = {}  # (k, trig, w) -> [coefficient at rate +w, at rate -w]
        damped = []
        for (k, rate), c in self.terms.items():
            if rate.real and rate.imag:
                damped.append((c, (k, rate)))
                continue
            w = rate.real or rate.imag
            pairs.setdefault((k, bool(rate.imag), abs(w)), [None, None])[w < 0] = c
        atoms = []
        for (k, trig, w), (cp, cm) in pairs.items():
            if trig:
                spelled = [((cp + cm).real, COS, w), ((cm - cp).imag, SIN, w)]
            elif not w:
                spelled = [(cp, ONE, 0.0)]
            elif cp is not None and cm is not None:
                spelled = [(cp + cm, COSH, w), (cp - cm, SINH, w)]
            else:
                spelled = [(cm, EXP, -w) if cp is None else (cp, EXP, w)]
            atoms += [(c, Atom(k, kind, omega)) for c, kind, omega in spelled if not self._zero(c)]
        self._spelling = atoms + damped
        return self._spelling

    def _spelled(self) -> list:
        """The (coefficient, Atom) pairs of _atoms, for a writer; UsageError
        when a damped term has no atom to spell it."""
        atoms = self._atoms()
        for _, atom in atoms:
            if not isinstance(atom, Atom):
                raise UsageError(f"the term s^{atom[0]} e^(({atom[1]:g}) s) is damped: no basis function spells it")
        return atoms

    def __add__(self, other):
        self._check(other)
        out = self._copy()
        for key, c in other.terms.items():
            out._add(key, c)
        return out

    def __sub__(self, other):
        return self + other * -1.0

    def __mul__(self, k):
        k = float(k)
        return self._map(lambda power, rate: [((power, rate), k)])

    __rmul__ = __mul__

    def derivative(self):
        return self._map(_derivative)

    def eval(self, s):
        """Samples at s, scalar or array; a scalar fn at a scalar s is a float."""
        out = self._sample(np.asarray(s, dtype=float))[0]
        return float(out) if out.ndim == 0 else out

    def _sample(self, arr: np.ndarray, sized: bool = False):
        """Samples at the array arr and, when sized, the size of the terms
        that cancel in them, sum |coefficient| |atom| (else None). Each atom
        is sampled by eval_atom, so a +-w pair keeps np.cosh and np.sinh or
        np.cos and np.sin; a damped term is the real part of its exponential."""
        out = np.zeros(arr.shape + self._shape)
        size = np.zeros_like(out) if sized else None
        for c, atom in self._atoms():
            if isinstance(atom, Atom):
                term = eval_atom(atom, arr)[self._expand] * c
            else:
                term = ((arr ** atom[0] * np.exp(atom[1] * arr))[self._expand] * c).real
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
            self._add_atom(atom, float(coef))

    @classmethod
    def constant(cls, c: float) -> "ScalarFn":
        return cls([(float(c), Atom(0, ONE, 0.0))])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "ScalarFn | float") -> "ScalarFn":
        """Scaling by a number, or the product of two functions."""
        if not isinstance(other, ScalarFn):
            return super().__mul__(other)
        return self._product(other, operator.mul, ScalarFn())

    def antiderivative(self) -> "ScalarFn":
        return self._map(_antiderivative)

    def __repr__(self) -> str:
        bits = [f"{c:g}*s^{a.k}*{a.kind if a.kind != ONE else '1'}({a.omega:g}s)"
                if isinstance(a, Atom) else f"({c:g})*s^{a[0]}*e^(({a[1]:g})s)" for c, a in self._atoms()]
        return "ScalarFn(" + (" + ".join(sorted(bits)) or "0") + ")"
