"""Closed-form curves in R^n with exact derivatives.

A curve is a finite sum of vector coefficients times basis functions
(powers, trig, hyperbolic trig, exponentials). Derivatives up to third
order are computed symbolically, so downstream geometry never pays
finite-difference noise. Finite differences are still provided as an
independent cross-check.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from . import basisfn
from .basisfn import Atom, ScalarFn
from .errors import UsageError
from .metric import Signature, ip_array

# Grid default for the sampled checks below.
DEFAULT_GRID_POINTS = 101
# A squared speed <c', c'> within this of 0 (or of +-1) is null (or unit).
SPEED_TOL = 1e-9

JSON_BASES = ("pow", "cos", "sin", "cosh", "sinh", "exp")


def uniform_grid(a: float, b: float, num: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
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


class CurveExpr:
    """Vector-valued closed-form curve: sum of coeff * s^k * phi(omega s)."""

    __slots__ = ("n", "terms", "_dcache")

    def __init__(self, n: int, terms: Iterable[tuple[Atom, Sequence[float]]] = ()):
        if n < 1:
            raise UsageError(f"curve dimension must be >= 1, got {n}")
        self.n = int(n)
        self.terms: dict[Atom, np.ndarray] = {}
        for atom, coeff in terms:
            self._add(atom, coeff)
        self._dcache: dict[int, "CurveExpr"] = {}

    def _add(self, atom: Atom, coeff: Sequence[float]) -> None:
        vec = np.asarray(coeff, dtype=float)
        if vec.shape != (self.n,):
            raise UsageError(
                f"coefficient has shape {vec.shape}, expected ({self.n},)"
            )
        if not np.any(vec):
            return
        if atom in self.terms:
            merged = self.terms[atom] + vec
            if np.any(merged):
                self.terms[atom] = merged
            else:
                del self.terms[atom]
        else:
            self.terms[atom] = vec.copy()

    @classmethod
    def from_basis_terms(
        cls, n: int, specs: Iterable[tuple[str, float, Sequence[float]]]
    ) -> "CurveExpr":
        """Build from (basis, param, coeff) triples.

        basis "pow" takes an integer power as its parameter; the others take
        a frequency/rate. This mirrors the JSON wire format.
        """
        out = cls(n)
        for basis, param, coeff in specs:
            if basis == "pow":
                k = param
                if k != int(k) or k < 0:
                    raise UsageError(f"pow basis needs an integer power >= 0, got {param!r}")
                parts = basisfn.canon(1.0, int(k), basisfn.ONE, 0.0)
            elif basis in JSON_BASES:
                parts = basisfn.canon(1.0, 0, basis, float(param))
            else:
                raise UsageError(f"unknown basis {basis!r}; expected one of {JSON_BASES}")
            vec = np.asarray(coeff, dtype=float)
            for c, atom in parts:
                out._add(atom, c * vec)
        return out

    def derivative(self, order: int = 1) -> "CurveExpr":
        if order < 0:
            raise UsageError("derivative order must be >= 0")
        if order == 0:
            return self
        if order not in self._dcache:
            prev = self.derivative(order - 1)
            d = CurveExpr(self.n)
            for atom, vec in prev.terms.items():
                for c, aa in basisfn.diff_atom(atom):
                    d._add(aa, c * vec)
            self._dcache[order] = d
        return self._dcache[order]

    def eval(self, s, order: int = 0):
        """Positions (order 0) or derivative values; s may be scalar or array."""
        cur = self.derivative(order)
        arr = np.asarray(s, dtype=float)
        out = np.zeros(arr.shape + (self.n,))
        for atom, vec in cur.terms.items():
            out += basisfn.eval_atom(atom, arr)[..., None] * vec
        if np.isscalar(s) or arr.ndim == 0:
            return out.reshape(self.n)
        return out

    def component(self, i: int) -> ScalarFn:
        return ScalarFn([(float(vec[i]), atom) for atom, vec in self.terms.items()])

    def is_constant(self) -> bool:
        # atoms are linearly independent functions, so the derivative's term
        # dict is empty exactly when the curve is constant
        return not self.derivative(1).terms

    def scaled(self, c: float) -> "CurveExpr":
        return CurveExpr(self.n, [(a, c * v) for a, v in self.terms.items()])

    def __add__(self, other: "CurveExpr") -> "CurveExpr":
        if other.n != self.n:
            raise UsageError("cannot add curves of different dimensions")
        out = CurveExpr(self.n, list(self.terms.items()))
        for a, v in other.terms.items():
            out._add(a, v)
        return out

    def plus_scalar_times(self, lam: ScalarFn, other: "CurveExpr") -> "CurveExpr | None":
        """self + lam(s) * other(s), or None when the product leaves the family."""
        if other.n != self.n:
            raise UsageError("dimension mismatch")
        out = CurveExpr(self.n, list(self.terms.items()))
        for la, lc in lam.terms.items():
            for atom, vec in other.terms.items():
                parts = basisfn.product_atoms(la, atom)
                if parts is None:
                    return None
                for c, aa in parts:
                    out._add(aa, lc * c * vec)
        return out

    def __repr__(self) -> str:
        return f"CurveExpr(n={self.n}, terms={len(self.terms)})"


def symbolic_inner(sig: Signature, a: CurveExpr, b: CurveExpr) -> ScalarFn | None:
    """<a(s), b(s)> as a closed-form scalar, or None if products leave the family."""
    if a.n != sig.n or b.n != sig.n:
        raise UsageError("curve dimension does not match the signature")
    total = ScalarFn()
    w = sig.weights()
    for aa, va in a.terms.items():
        for ab, vb in b.terms.items():
            dot = float((va * vb * w).sum())
            if dot == 0.0:
                continue
            parts = basisfn.product_atoms(aa, ab)
            if parts is None:
                return None
            for c, atom in parts:
                total._add(dot * c, atom)
    return total


def eval_curve(curve: CurveExpr, s, order: int = 0):
    """Evaluate a curve or one of its first three derivatives."""
    if not 0 <= order <= 3:
        raise UsageError(f"order must be in 0..3, got {order}")
    return curve.eval(s, order)


def fd_derivative(curve: CurveExpr, s: float, order: int, h: float):
    """Central finite difference, the independent check on analytic jets."""
    if order not in (1, 2):
        raise UsageError(f"finite differences implemented for orders 1 and 2, got {order}")
    if not h > 0:
        raise UsageError(f"step h must be positive, got {h!r}")
    if order == 1:
        return (curve.eval(s + h) - curve.eval(s - h)) / (2.0 * h)
    return (curve.eval(s + h) - 2.0 * curve.eval(s) + curve.eval(s - h)) / (h * h)


def _speed_squared(sig: Signature, curve: CurveExpr, grid: np.ndarray) -> np.ndarray:
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise UsageError("grid must be non-empty")
    d = curve.eval(grid, 1)
    return ip_array(sig, d, d)


def is_null_curve(sig: Signature, curve: CurveExpr, grid: np.ndarray) -> bool:
    """max |<c'(s), c'(s)>| <= SPEED_TOL over the grid."""
    return float(np.abs(_speed_squared(sig, curve, grid)).max()) <= SPEED_TOL


class UnitSpeedClass(Enum):
    UNIT_SPACELIKE = "unit-spacelike"
    UNIT_TIMELIKE = "unit-timelike"
    NOT_UNIT = "not-unit"


def unit_speed_check(sig: Signature, curve: CurveExpr, grid: np.ndarray) -> UnitSpeedClass:
    """Unit spacelike (timelike) when <c', c'> is within SPEED_TOL of 1 (-1) on the grid."""
    q = _speed_squared(sig, curve, grid)
    if float(np.abs(q - 1.0).max()) <= SPEED_TOL:
        return UnitSpeedClass.UNIT_SPACELIKE
    if float(np.abs(q + 1.0).max()) <= SPEED_TOL:
        return UnitSpeedClass.UNIT_TIMELIKE
    return UnitSpeedClass.NOT_UNIT
