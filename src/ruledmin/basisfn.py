"""Closed-form scalar calculus on the span of s^k * phi(omega*s).

phi ranges over {1, cos, sin, cosh, sinh, exp} and k is a non-negative
integer. This family is closed under differentiation and antiderivatives,
which is what keeps curve jets and gauge integrals exact. It is partially
closed under products: trig*trig, hyperbolic*hyperbolic, exp*exp,
hyperbolic*exp, and power*anything reduce back into the family, while
trig*hyperbolic and trig*exp do not: there product_atoms returns None, on
which callers fall back to quadrature, and ScalarFn's `*` raises UsageError.
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


def diff_atom(atom: Atom) -> list[tuple[float, Atom]]:
    """d/ds of an atom as a list of (coefficient, atom) pairs."""
    k, kind, om = atom
    out: list[tuple[float, Atom]] = []
    if k > 0:
        out.append((float(k), Atom(k - 1, kind, om)))
    if kind == COS:
        out.extend(canon(-om, k, SIN, om))
    elif kind == SIN:
        out.extend(canon(om, k, COS, om))
    elif kind == COSH:
        out.extend(canon(om, k, SINH, om))
    elif kind == SINH:
        out.extend(canon(om, k, COSH, om))
    elif kind == EXP:
        out.append((om, Atom(k, EXP, om)))
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
    """An antiderivative of the atom; always exists inside the family."""
    k, kind, om = atom
    if kind == ONE:
        return [(1.0 / (k + 1), Atom(k + 1, ONE, 0.0))]

    def scaled(c: float, pairs: list[tuple[float, Atom]]) -> list[tuple[float, Atom]]:
        return [(c * cc, aa) for cc, aa in pairs]

    if kind == EXP:
        out = [(1.0 / om, Atom(k, EXP, om))]
        if k:
            out += scaled(-k / om, antiderivative_atom(Atom(k - 1, EXP, om)))
        return out
    if kind == COS:
        out = [(1.0 / om, Atom(k, SIN, om))]
        if k:
            out += scaled(-k / om, antiderivative_atom(Atom(k - 1, SIN, om)))
        return out
    if kind == SIN:
        out = [(-1.0 / om, Atom(k, COS, om))]
        if k:
            out += scaled(k / om, antiderivative_atom(Atom(k - 1, COS, om)))
        return out
    if kind == COSH:
        out = [(1.0 / om, Atom(k, SINH, om))]
        if k:
            out += scaled(-k / om, antiderivative_atom(Atom(k - 1, SINH, om)))
        return out
    # sinh
    out = [(1.0 / om, Atom(k, COSH, om))]
    if k:
        out += scaled(-k / om, antiderivative_atom(Atom(k - 1, COSH, om)))
    return out


class ScalarFn:
    """Finite linear combination of atoms with float coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[float, Atom]] = ()):
        self.terms: dict[Atom, float] = {}
        for coef, atom in terms:
            self._add(coef, atom)

    def _add(self, coef: float, atom: Atom) -> None:
        if coef == 0.0:
            return
        cur = self.terms.get(atom, 0.0) + coef
        if cur == 0.0:
            self.terms.pop(atom, None)
        else:
            self.terms[atom] = cur

    @classmethod
    def constant(cls, c: float) -> "ScalarFn":
        return cls([(float(c), Atom(0, ONE, 0.0))])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ScalarFn") -> "ScalarFn":
        out = ScalarFn()
        for atom, c in self.terms.items():
            out._add(c, atom)
        for atom, c in other.terms.items():
            out._add(c, atom)
        return out

    def __sub__(self, other: "ScalarFn") -> "ScalarFn":
        return self + other * -1.0

    def __mul__(self, other: "ScalarFn | float") -> "ScalarFn":
        """Scaling by a number, or the product through product_atoms; UsageError
        when that product leaves the family."""
        if not isinstance(other, ScalarFn):
            return ScalarFn([(float(other) * c, atom) for atom, c in self.terms.items()])
        out = ScalarFn()
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                parts = product_atoms(a, b)
                if parts is None:
                    raise UsageError(f"{a} * {b} leaves the term algebra")
                for c, atom in parts:
                    out._add(ca * cb * c, atom)
        return out

    __rmul__ = __mul__

    def derivative(self) -> "ScalarFn":
        out = ScalarFn()
        for atom, c in self.terms.items():
            for cc, aa in diff_atom(atom):
                out._add(c * cc, aa)
        return out

    def antiderivative(self) -> "ScalarFn":
        out = ScalarFn()
        for atom, c in self.terms.items():
            for cc, aa in antiderivative_atom(atom):
                out._add(c * cc, aa)
        return out

    def eval(self, s):
        arr = np.asarray(s, dtype=float)
        out = np.zeros_like(arr)
        for atom, c in self.terms.items():
            out = out + c * eval_atom(atom, arr)
        if np.isscalar(s) or arr.ndim == 0:
            return float(out)
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "ScalarFn(0)"
        bits = []
        for atom, c in sorted(self.terms.items()):
            name = atom.kind if atom.kind != ONE else "1"
            bits.append(f"{c:g}*s^{atom.k}*{name}({atom.omega:g}s)")
        return "ScalarFn(" + " + ".join(bits) + ")"
