"""Closed-form curves in R^n with exact derivatives.

A curve is a finite sum of vector coefficients times basis functions
(powers, trig, hyperbolic trig, exponentials), kept as basisfn's terms
s^k e^{rate s}. CurveExpr is that term algebra with vector coefficients:
its +, scaling, d/ds, sampling and products (plus_scalar_times,
symbolic_inner) are the ones ScalarFn uses, and the products never leave
it. Derivatives are cached per order, so downstream geometry never pays
finite-difference noise. _sized_inner is symbolic_inner with each term's
size, the sum of the |products| that formed it, for a rule that reads a
rounding residue as zero.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from .basisfn import Atom, ScalarFn, _Terms
from .errors import UsageError
from .jsonio import _term_atom
from .metric import Signature

def _finite_interval(a: float, b: float) -> bool:
    """a < b with a finite width b - a, so a and b are finite too."""
    return bool(a < b) and math.isfinite(float(b) - float(a))


def uniform_grid(a: float, b: float, num: int) -> np.ndarray:
    if not _finite_interval(a, b):
        raise UsageError(f"bad interval [{a!r}, {b!r}]")
    if num < 2:
        raise UsageError("grid needs at least 2 points")
    return np.linspace(a, b, num)


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 20-point rule on [-1, 1], made on first use so
    that a call that never integrates does not import numpy.polynomial."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(20)


def quad(f, a, b) -> np.ndarray:
    """Integral of f over each panel [a_i, b_i], by one Gauss-Legendre rule.

    f maps an array of s values to the integrand there, elementwise; it is
    called once, on the nodes of every panel at once.
    """
    x, w = _gauss_legendre()
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * (f(mid[..., None] + half[..., None] * x) @ w)


class CurveExpr(_Terms):
    """Vector-valued closed-form curve: sum of coeff * s^k * phi(omega s)."""

    __slots__ = ("n", "_dcache")
    _expand = (..., None)

    def __init__(self, n: int, terms: Iterable[tuple[Atom, Sequence[float]]] = ()):
        if n < 1:
            raise UsageError(f"curve dimension must be >= 1, got {n}")
        super().__init__()
        self.n = int(n)
        self._dcache: dict[int, "CurveExpr"] = {}
        for atom, coeff in terms:
            vec = np.array(coeff, dtype=float)
            if vec.shape != (self.n,):
                raise UsageError(f"coefficient has shape {vec.shape}, expected ({self.n},)")
            self._add_atom(atom, vec)

    @staticmethod
    def _zero(c: np.ndarray) -> bool:
        return not c.any()

    @property
    def _shape(self) -> tuple:
        return (self.n,)

    def _empty(self) -> "CurveExpr":
        return CurveExpr(self.n)

    @classmethod
    def from_basis_terms(
        cls, n: int, specs: Iterable[tuple[str, float, Sequence[float]]]
    ) -> "CurveExpr":
        """Build from (basis, param, coeff) triples, each read as a JSON curve
        term without a degree: "pow" takes an integer power as its parameter,
        the others a frequency/rate."""
        return cls(n, [(_term_atom(basis, param), coeff) for basis, param, coeff in specs])

    def derivative(self, order: int = 1) -> "CurveExpr":
        if order < 0:
            raise UsageError("derivative order must be >= 0")
        if order == 0:
            return self
        if order not in self._dcache:
            self._dcache[order] = _Terms.derivative(self.derivative(order - 1))
        return self._dcache[order]

    def eval(self, s, order: int = 0):
        """Positions (order 0) or derivative values; s may be scalar or array."""
        return _Terms.eval(self.derivative(order), s)

    def is_constant(self) -> bool:
        # the s^k e^{rate s} are linearly independent, so the derivative is
        # zero exactly when no term of it is left
        return not self.derivative(1).terms

    def plus_scalar_times(self, lam: ScalarFn, other: "CurveExpr") -> "CurveExpr":
        """self + lam(s) * other(s)."""
        self._check(other)
        return lam._product(other, lambda lc, vec: lc * vec, self._copy())

    def __repr__(self) -> str:
        return f"CurveExpr(n={self.n}, terms={len(self.terms)})"


def symbolic_inner(sig: Signature, a: CurveExpr, b: CurveExpr) -> ScalarFn:
    """<a(s), b(s)> as a closed-form scalar: the coefficients of _sized_inner."""
    out = ScalarFn()
    out.terms = {key: c.item() for key, (c, _) in _sized_inner(sig, a, b).terms.items() if c}
    return out


class _SizedFn(_Terms):
    """A scalar function with the pair [c, S] at each (k, rate): c its
    coefficient and S the size of the terms that cancel in it, kept where c
    is 0. A sum adds the S, scaling by k scales S by |k|, and a product adds
    |a| S_b + S_a |b|, to first order what the factors' rounding leaves in it."""

    __slots__ = ()
    _shape = (2,)

    @staticmethod
    def _zero(c: np.ndarray) -> bool:
        return not (c[0] or c[1])

    def __mul__(self, other: "_SizedFn | float") -> "_SizedFn":
        if isinstance(other, _SizedFn):
            return self._product(
                other, lambda a, b: np.array([a[0] * b[0], abs(a[0]) * b[1] + a[1] * abs(b[0])]), _SizedFn()
            )
        k = float(other)
        return self._map(lambda power, rate: [((power, rate), np.array([k, abs(k)]))])

    __rmul__ = __mul__


def _sized_inner(sig: Signature, a: CurveExpr, b: CurveExpr) -> _SizedFn:
    """<a(s), b(s)>'s terms, each with S = sum_i |a_i| |b_i| over the products that land on it."""
    if a.n != sig.n or b.n != sig.n:
        raise UsageError("curve dimension does not match the signature")
    w = sig.weights()
    return a._product(b, lambda va, vb: np.array([(va * vb * w).sum(), abs(va * vb).sum()]), _SizedFn())
