"""Ruled surfaces f(s, t) = gamma(s) t + x(s) and their differential geometry.

First and second fundamental forms are taken with respect to the ambient
indefinite pairing. f is affine in t, so f_tt = 0, h22 = 0, and det g times
the normal part of f_ss or f_st (the adjugate form, no division) is a
polynomial in t along each ruling, as is N = 2 (det g)^2 H. H vanishes off
the degenerate set exactly when N's per-s coefficients do, so they decide
minimality; det g divides only the reported h11, h12 and H. No
orthonormalization of the tangent plane is ever attempted, so mixed-causal
tangent planes need no special cases. The gauge shift lambda is a closed
form in the term algebra, damped terms included.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial

import numpy as np

from ._threads import on_two_threads
from .basisfn import ONE, Atom, ScalarFn, _term_text
# quad has no caller here: it stays imported only because perfbench's smoke
# test deletes surface.quad (ROADMAP item 2 removes both)
from .curves import CurveExpr, _finite_interval, _sized_inner, _SizedFn, quad, uniform_grid
from .errors import (
    ConventionError,
    DegenerateMetricError,
    EverywhereDegenerateError,
    NullDirectionError,
    UsageError,
)
from .metric import Signature, ip_array

# |det g| at or below this is treated as a degenerate tangent plane.
TAU_DEG = 1e-9
# The one zero rule, relative to S, the size of the terms that cancel in a
# coefficient c: the H numerator's coefficients vanish when what exceeds their
# rounding bound stays at or below this fraction of S, and a term of a
# closed-form pairing (the gauge's and the classifier's) or a sample of it
# counts as zero when |c| <= H_TOL S.
H_TOL = 1e-8
# The gauge and the classifier read the curves on this many points of the s-domain.
SCAN_POINTS = 201
EPS = np.finfo(float).eps
# a pairing of jets with n max|a| max|b| below this cannot overflow
_NO_OVERFLOW = 1e300
# the dense-grid passes read the grid in s-row blocks of at most this many points
_H_BLOCK_POINTS = 1 << 15

DEFAULT_SURFACE_GRID = (41, 41)


@dataclass
class RuledSurface:
    """Surface swept by lines: f(s, t) = gamma(s) * t + x(s).

    gamma is the direction curve (ruling directions) and base is x, both
    CurveExprs.
    """

    gamma: CurveExpr
    base: CurveExpr
    s_domain: tuple[float, float] = (-3.0, 3.0)
    t_domain: tuple[float, float] = (-3.0, 3.0)

    def __post_init__(self):
        if not (isinstance(self.gamma, CurveExpr) and isinstance(self.base, CurveExpr)):
            raise UsageError("gamma and base must be CurveExprs")
        if self.gamma.n != self.base.n:
            raise UsageError(
                f"gamma lives in R^{self.gamma.n} but base in R^{self.base.n}"
            )
        for name, dom in (("s_domain", self.s_domain), ("t_domain", self.t_domain)):
            if not _finite_interval(*dom):
                raise UsageError(f"{name} must be an interval [a, b] with a < b and a finite width b - a")
        self.s_domain = (float(self.s_domain[0]), float(self.s_domain[1]))
        self.t_domain = (float(self.t_domain[0]), float(self.t_domain[1]))

    @property
    def n(self) -> int:
        return self.gamma.n

    def default_grids(self, shape: tuple[int, int] = DEFAULT_SURFACE_GRID):
        s = uniform_grid(*self.s_domain, shape[0])
        t = uniform_grid(*self.t_domain, shape[1])
        return s, t


# ---------------------------------------------------------------------------
# grid sweep on per-s coefficient tables


def _pmul(p: list, q: list) -> list:
    """Product of two polynomials in t, each a list of coefficients by power."""
    out = [None] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            ab = a * b
            out[i + j] = ab if out[i + j] is None else out[i + j] + ab
    return out


def _horner(coef: np.ndarray, T: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_k coef[:, k] t^k on the grid, for (ns, K) coefficients and the t-row T,
    into out when given."""
    out = np.multiply(coef[:, -1, None], T, out=out)
    for k in range(coef.shape[1] - 2, -1, -1):
        out += coef[:, k, None]
        if k:
            out *= T
    return out


def _relative(coef: np.ndarray, size: np.ndarray, rounding: np.ndarray) -> float:
    """Largest (|c_k| - E_k)+ / S_k (max norms over the ambient axis; 0 where S_k = 0)."""
    c = np.maximum(np.abs(coef) - rounding, 0.0).max(axis=1, initial=0.0)
    s = size.max(axis=1, initial=0.0)
    return float(np.divide(c, s, out=np.zeros_like(c), where=s > 0).max(initial=0.0))


def _first_form_block(form, rows: slice, T: np.ndarray, out=(None, None, None)):
    """g11, g12 (Horner's rule on form's (ns, K) t-coefficients) and det g =
    g11 g22 - g12^2 on the s-rows rows of the grid, into out when given."""
    g11c, g12c, g22 = form
    g11 = _horner(g11c[rows], T, out[0])
    g12 = _horner(g12c[rows], T, out[1])
    det = np.multiply(g11, g22[rows], out=out[2])
    det -= g12 * g12
    return g11, g12, det


def _reads(coef: np.ndarray, rows: slice, T: np.ndarray, det: np.ndarray, mask: np.ndarray, squared=False):
    """Yield, one ambient axis at a time, the Horner read of coef's (ns, n, K)
    t-coefficients on the s-rows rows over the rows' det g, or over 2 (det g)^2
    when squared; NaN off the rows' mask."""
    inv = np.full_like(det, np.nan)
    np.divide(1.0, det, out=inv, where=mask)
    half_inv = 0.5 * inv if squared else None
    for k in range(coef.shape[1]):
        h = _horner(coef[rows, k], T)
        h *= inv
        if squared:
            h *= half_inv
        yield h


def _h_squared(numerator: np.ndarray, rows: slice, T: np.ndarray, det: np.ndarray, mask: np.ndarray):
    """|H|^2 on the s-rows rows from N's t-coefficients: the squares of its
    _reads over 2 (det g)^2, summed one ambient axis at a time."""
    h_sq = np.zeros_like(det)
    for h in _reads(numerator, rows, T, det, mask, squared=True):
        h_sq += np.square(h, out=h)
    return h_sq


def _on_two_threads(work, ns: int, nt: int) -> list:
    """[work(rows) for each block of s-rows of the ns x nt grid], in row
    order, on this thread and one helper (_threads.on_two_threads).

    A block holds at most _H_BLOCK_POINTS points (one row if a row holds
    more), so its temporaries stay in cache; which thread reads a block does
    not change its result. Each block is read under np.errstate(all="ignore"),
    which numpy keeps per thread, so overflow is left to the blocks' checks.
    work may only write into arrays the caller allocated and read what was
    computed before the call.
    """
    step = max(1, _H_BLOCK_POINTS // nt)

    def block(rows):
        with np.errstate(all="ignore"):
            return work(rows)

    return on_two_threads([partial(block, slice(i, min(i + step, ns))) for i in range(0, ns, step)])


@dataclass(frozen=True)
class ScalarProfile:
    """One pairing <a, b> read by _RulingTables.profile: identically zero, and
    its value when constant (None when it varies), off its terms by the zero
    rule; its largest sampled magnitude, and where it vanishes otherwise."""

    name: str
    identically_zero: bool
    max_abs: float
    isolated_zeros: tuple[float, ...]
    value: float | None

    @property
    def clean(self) -> bool:
        return self.identically_zero or not self.isolated_zeros


class _RulingTables:
    """The one place that samples gamma and x along s: their jets on an
    s-grid and the per-s pairings of those jets, each computed on first use.

    A jet is named "g" (gamma) or "x" (the base x) followed by the order of
    the s-derivative, as in "g0", "g2" or "x1". Every per-s quantity the
    checks read is a pairing ip(a, b): epsilon = <g0, g0>, eta = <g1, g1>,
    <x1, x1>, mu = <g1, x1>, the gauge term <g0, x1>, the C-function and the
    sweep's first-form and second-form coefficients. The gauge and the
    classifier read the first five only through profile(a, b) and its
    closed form sized(a, b). f is affine
    in t, so those coefficients make every (ns, nt) scalar a polynomial in
    t, evaluated by Horner's rule with (ns, 1) columns against the (1, nt)
    t-row T.
    """

    def __init__(self, sig: Signature, surface: RuledSurface, s_grid):
        self.sig, self.surface, self.s = sig, surface, s_grid
        self._jets: dict[str, np.ndarray] = {}
        self._pairs: dict[tuple, np.ndarray] = {}
        self._profiles: dict[tuple, ScalarProfile] = {}
        self._sized: dict[tuple, _SizedFn] = {}
        self._peaks: dict[str, float] = {}  # max |jet|
        self._sizes: dict[str, np.ndarray] = {}  # see _size

    def with_base(self, surface: RuledSurface) -> "_RulingTables":
        """The tables of surface, whose gamma is this one's on the same
        s-grid: gamma's jets, the pairings among them and their profiles carry over."""
        moved = _RulingTables(self.sig, surface, self.s)
        moved._jets = {k: v for k, v in self._jets.items() if k[0] == "g"}
        moved._peaks = {k: v for k, v in self._peaks.items() if k[0] == "g"}
        moved._sizes = {k: v for k, v in self._sizes.items() if k[0] == "g"}
        moved._pairs = {k: v for k, v in self._pairs.items() if k[0][0] == k[1][0] == "g"}
        moved._profiles = {k: v for k, v in self._profiles.items() if k[0][0] == k[1][0] == "g"}
        moved._sized = {k: v for k, v in self._sized.items() if k[0][0] == k[1][0] == "g"}
        return moved

    def _finite(self, what: str, values: np.ndarray, first_row: int = 0) -> np.ndarray:
        """values, whose first axis runs over the s-rows from first_row on;
        UsageError names what and the first s where a value is not finite."""
        finite = np.isfinite(values)
        if not finite.all():
            row = first_row + int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
            raise UsageError(f"{what} is not finite at s = {float(self.s[row])!r}")
        return values

    def _curve(self, name: str) -> CurveExpr:
        """gamma or x, differentiated int(name[1]) times."""
        return (self.surface.gamma if name[0] == "g" else self.surface.base).derivative(int(name[1]))

    def jet(self, name: str) -> np.ndarray:
        """(ns, n) samples of gamma or x, differentiated int(name[1]) times."""
        if name not in self._jets:
            with np.errstate(all="ignore"):  # overflow is reported by _finite, not warned
                values, size = self._curve(name)._sample(self.s, sized=True)
            self._peaks[name] = float(np.abs(values).max(initial=0.0))  # NaN or inf if one is
            if not math.isfinite(self._peaks[name]):
                self._finite(f"{'gamma' if name[0] == 'g' else 'x'} at derivative order {name[1]}", values)
            self._jets[name], self._sizes[name] = values, np.maximum(size, np.abs(values))
        return self._jets[name]

    def _size(self, name: str) -> np.ndarray:
        """The size of the terms that cancel in the jet: sum |coefficient|
        |atom| over the curve's terms, at least |jet|."""
        self.jet(name)
        return self._sizes[name]

    def ip(self, a: str, b: str) -> np.ndarray:
        """<a, b> at each s, shape (ns,)."""
        key = tuple(sorted((a, b)))
        if key not in self._pairs:
            u, v = self.jet(a), self.jet(b)
            if self.sig.n * self._peaks[a] * self._peaks[b] < _NO_OVERFLOW:
                self._pairs[key] = ip_array(self.sig, u, v)
            else:
                with np.errstate(all="ignore"):
                    pairing = ip_array(self.sig, u, v)
                self._pairs[key] = self._finite(f"the pairing <{_spelled(a)}, {_spelled(b)}>", pairing)
        return self._pairs[key]

    def _terms_size(self, a: str, b: str) -> np.ndarray:
        """sum_i |a_i b_i| over the jets' sizes at each s, shape (ns,)."""
        return ip_array(Signature(self.sig.n, 0), self._size(a), self._size(b))

    def sized(self, a: str, b: str) -> _SizedFn:
        """<a, b> in closed form with the size of each term (curves._sized_inner), made once."""
        key = tuple(sorted((a, b)))
        if key not in self._sized:
            self._sized[key] = _sized_inner(self.sig, self._curve(key[0]), self._curve(key[1]))
        return self._sized[key]

    def profile(self, a: str, b: str) -> ScalarProfile:
        """<a, b> read once: sampled first (a sample that is not finite is named),
        then its terms by the zero rule (_reading). One term c s^k e^{rate s}
        (rate real, as a real function's one term is) has no zero, or s = 0
        when k > 0. Other zeros are the samples the zero rule reads as 0 against
        their sum_i |a_i b_i| over the jet sizes and the midpoints of sign changes
        between two that are not; a hit over 1.5 steps from the last starts anew."""
        key = tuple(sorted((a, b)))
        if key not in self._profiles:
            v, s = self.ip(a, b), self.s
            fn, zeros = _reading(self.sized(a, b)), ()
            if len(fn.terms) == 1:
                ((k, _),) = fn.terms
                zeros = (0.0,) if k and s[0] <= 0.0 <= s[-1] else ()
            elif fn.terms:
                small = _zero(v, self._terms_size(a, b))
                cross = np.flatnonzero(~small[:-1] & ~small[1:] & (v[:-1] * v[1:] < 0))
                hits = np.sort(np.concatenate([s[small], 0.5 * (s[cross] + s[cross + 1])]))
                zeros = tuple(map(float, hits[np.diff(hits, prepend=-np.inf) > 1.5 * (s[1] - s[0])]))
            name = f"<{_spelled(key[0])}, {_spelled(key[1])}>"
            self._profiles[key] = ScalarProfile(name, fn.is_zero, float(np.abs(v).max()), zeros, _constant_value(fn))
        return self._profiles[key]

    def constant(self, a: str, b: str) -> float:
        """profile(a, b)'s value; ConventionError quoting its largest term that varies otherwise."""
        profile = self.profile(a, b)
        if profile.value is None:
            terms = [term for term in _reading(self.sized(a, b))._atoms() if term[1] != Atom(0, ONE, 0.0)]
            c, atom = max(terms, key=lambda term: abs(term[0]))
            raise ConventionError(
                f"{profile.name} varies across the domain by its term {_term_text(c, atom)}; "
                "the case invariants assume it is constant"
            )
        return profile.value

    def unit(self, a: str, b: str) -> int | None:
        """The constant <a, b> as 0 or +-1 by the zero rule, |c| - 1 against S + 1; None otherwise."""
        value = self.constant(a, b)
        if value and not _zero(abs(value) - 1.0, abs(self.sized(a, b).terms[0, 0][1]) + 1.0):
            return None
        return int(np.sign(value))

    def col(self, a: str, b: str) -> np.ndarray:
        return self.ip(a, b)[:, None]

    def form(self):
        """The (ns, 3) and (ns, 2) t-coefficients of g11 and g12 and the
        (ns, 1) g22, from _first_form_terms."""
        g11, g12, g22, _ = _first_form_terms(self.col, operator.sub)
        return np.hstack(g11), np.hstack(g12), g22[0]

    def components(self):
        """det g, D11, D12 and N (_numerators), each stacked as [signed, S,
        widened S], unchecked. S, the size of the terms that cancel, is the
        same expression over the jets' sizes (_size) and |<a, b>| with every
        minus a plus; the widened S adds a pairing's rounding, at most
        (n + 2) EPS sum_i |a_i b_i| over those sizes (a boost inflates that
        sum, not the pairing, and a jet's own terms can cancel too, as in
        19 cosh s - 18 sinh s). Every difference is a - sign b with sign
        (+1, -1, -1), so each slice takes the IEEE steps of its own pass."""
        pairs = {}

        def pair(a, b):  # [<a, b>, |<a, b>|, the same widened by its rounding]
            key = tuple(sorted((a, b)))
            if key not in pairs:
                p, terms = self.col(a, b), self._terms_size(a, b)[:, None]
                pairs[key] = np.stack([p, np.abs(p), np.abs(p) + (self.sig.n + 2) * EPS * terms])
            return pairs[key]

        def jet(name):
            return np.stack([self.jet(name), self._size(name), self._size(name)])

        with np.errstate(all="ignore"):
            return _numerators(pair, jet, lambda a, b: a - _SIGNS * b)


_NUMERATOR_NAMES = ("det g", "D11", "D12", "N")
_SIGNS = np.array([1.0, -1.0, -1.0])[:, None, None]


def _spelled(jet: str) -> str:
    """A jet name as the curve and its primes: "g2" is gamma''."""
    return ("gamma" if jet[0] == "g" else "x") + "'" * int(jet[1])


def _first_form_terms(c, sub):
    """t-coefficients, lowest power first, of g11 (degree 2), g12 (1), g22 (0) and
    det g = g11 g22 - g12^2 (2) from pairings c(a, b) of g0, g1 and x1, (ns, 1)
    columns or ScalarFns of s, and the difference sub (a sum for size bounds)."""
    g11 = [c("x1", "x1"), 2.0 * c("g1", "x1"), c("g1", "g1")]
    g12 = [c("x1", "g0"), c("g1", "g0")]
    g22 = [c("g0", "g0")]
    return g11, g12, g22, list(map(sub, _pmul(g11, g22), _pmul(g12, g12)))


def _numerators(c, jet, sub):
    """Per-s t-coefficients (ns, n, K) of det g (degree 2, n = 1), D11 = det g h11 (3),
    D12 = det g h12 (2) and N = g22 D11 - 2 g12 D12 = 2 (det g)^2 H (3) from pairings
    c(a, b) (ns, 1), jets jet(name) (ns, n) and the difference sub, where D(v) = det g v
    - (g22 <v, f_s> - g12 <v, f_t>) f_s - (g11 <v, f_t> - g12 <v, f_s>) f_t, v = f_ss, f_st."""
    def minus(p, q):  # of equal degree, as every difference here is
        return list(map(sub, p, q))

    g0, g1, g2, x1, x2 = map(jet, ("g0", "g1", "g2", "x1", "x2"))
    g11, g12, g22, det = _first_form_terms(c, sub)

    def numerator(v, b1, b2):
        alpha = minus(_pmul(g22, b1), _pmul(g12, b2))
        beta = minus(_pmul(g11, b2), _pmul(g12, b1))
        return minus(minus(_pmul(det, v), _pmul(alpha, [x1, g1])), _pmul(beta, [g0]))

    d11 = numerator(  # v = f_ss = gamma'' t + x''
        [x2, g2],
        [c("x2", "x1"), c("x2", "g1") + c("g2", "x1"), c("g2", "g1")],
        [c("x2", "g0"), c("g2", "g0")],
    )
    d12 = numerator([g1], [c("g1", "x1"), c("g1", "g1")], [c("g1", "g0")])  # v = f_st
    n = minus(_pmul(g22, d11), _pmul([2.0 * a for a in g12], d12))
    return tuple(np.stack(p, axis=-1) for p in (det, d11, d12, n))


@dataclass
class SurfaceSweep:
    """All form data over an (s, t) grid; arrays indexed [i_s, i_t].

    Only per-s coefficient tables are computed up front: the t-coefficients
    of the first form, and on first use, in one run, those of det g's
    numerators with their sizes (_RulingTables.components). Each grid field
    is read on first access in s-row blocks that this thread and one helper
    share (_on_two_threads): g11, g12, det g and the mask together, then
    h11, h12, H and H_norm (NaN at degenerate points) by one per-axis reader
    (_reads). A block raises the det g UsageError itself, and every earlier
    block runs first, so it names the grid's first s where det g is not
    finite. minimality reads the same blocks in one fused pass that keeps no
    (ns, nt) array, so verify builds none and causal_map builds the first
    form alone; f's column on one axis is read alone by _f_axis.
    """

    s_grid: np.ndarray
    t_grid: np.ndarray
    tau_deg: float
    _tables: _RulingTables = field(repr=False)
    _form: tuple = field(repr=False)  # _RulingTables.form()

    @cached_property
    def _stacks(self) -> tuple[np.ndarray, ...]:
        return self._tables.components()

    @property
    def _coefficients(self) -> tuple[np.ndarray, ...]:
        """det g, D11, D12 and N; UsageError names the first s where one is not finite."""
        return tuple(self._tables._finite(name, p[0]) for name, p in zip(_NUMERATOR_NAMES, self._stacks))

    def _bounds(self) -> list:
        """(S, E) for each of _coefficients: E = widened S - S + 16 EPS widened S
        bounds the rounding, the numerators' own steps counting 16 EPS times
        their terms; UsageError names the first s where a widened S is not finite."""
        return [
            (size, self._tables._finite(f"the size of {name}", wide) - size + 16 * EPS * wide)
            for name, (_, size, wide) in zip(_NUMERATOR_NAMES, self._stacks)
        ]

    @cached_property
    def _first_form(self) -> tuple[np.ndarray, ...]:
        """g11, g12, det g and the mask |det g| > tau_deg on the grid;
        UsageError names the first s where det g is not finite."""
        ns, nt = self.s_grid.size, self.t_grid.size
        g11, g12, det = (np.empty((ns, nt)) for _ in range(3))
        mask = np.empty((ns, nt), dtype=bool)
        T = self.t_grid[None, :]

        def block(rows):
            _first_form_block(self._form, rows, T, (g11[rows], g12[rows], det[rows]))
            np.greater(np.abs(det[rows]), self.tau_deg, out=mask[rows])
            self._tables._finite("det g", det[rows], rows.start)

        _on_two_threads(block, ns, nt)
        return g11, g12, det, mask

    @property
    def g11(self) -> np.ndarray:
        return self._first_form[0]

    @property
    def g12(self) -> np.ndarray:
        return self._first_form[1]

    @property
    def det_g(self) -> np.ndarray:
        return self._first_form[2]

    @property
    def nondegenerate(self) -> np.ndarray:
        """bool mask, |det g| > tau_deg"""
        return self._first_form[3]

    def _stack(self, coef: np.ndarray, squared: bool = False) -> np.ndarray:
        """The (ns, nt, n) stack of coef's _reads, one s-row block at a time."""
        det, mask, T = self.det_g, self.nondegenerate, self.t_grid[None, :]
        out = np.empty((*det.shape, coef.shape[1]))

        def block(rows):
            for k, h in enumerate(_reads(coef, rows, T, det[rows], mask[rows], squared)):
                out[rows, :, k] = h

        _on_two_threads(block, *det.shape)
        return out

    @cached_property
    def H_norm(self) -> np.ndarray:
        det, mask, numerator = self.det_g, self.nondegenerate, self._coefficients[3]
        out, T = np.empty_like(det), self.t_grid[None, :]

        def block(rows):
            np.sqrt(_h_squared(numerator, rows, T, det[rows], mask[rows]), out=out[rows])

        _on_two_threads(block, *det.shape)
        return out

    def _f_axis(self, k: int) -> np.ndarray:
        """f[..., k], the (ns, nt) column of f on ambient axis k, without the
        (ns, nt, n) array."""
        g0, x0 = self._tables.jet("g0"), self._tables.jet("x0")
        return g0[:, k, None] * self.t_grid + x0[:, k, None]

    @cached_property
    def f(self) -> np.ndarray:
        return np.stack([self._f_axis(k) for k in range(self._tables.surface.n)], axis=-1)

    @cached_property
    def h11(self) -> np.ndarray:
        return self._stack(self._coefficients[1])

    @cached_property
    def h12(self) -> np.ndarray:
        return self._stack(self._coefficients[2])

    @cached_property
    def H(self) -> np.ndarray:
        return self._stack(self._coefficients[3], squared=True)

    def minimality(self, tol: float = H_TOL) -> MinimalityReport:
        """MINIMAL when no coefficient of N exceeds its rounding bound E by
        more than tol times its S; totally geodesic when D11 and D12 pass too.
        Read are the s rows with a non-degenerate grid point where det g keeps
        a digit (E < S; a boosted ruling loses it once cosh^2 s > 1 / EPS).
        The sampled |H| is a cross-check. If no row is left there is nothing
        to decide and EverywhereDegenerateError is raised.

        The grid is read in one fused pass of s-row blocks, shared by this
        thread and one helper (_on_two_threads); each block raises the det g
        UsageError at its first s where det g is not finite and otherwise
        gives its degenerate count and first 16 degenerate points, the rows
        that hold a non-degenerate point and its largest |H|^2 (the sqrt of
        the largest is the largest sqrt). The errors come in the order of
        the checks, tol first (_checked_tol), then det g on the grid, then
        the sizes, then the coefficients, each at its first s.
        """
        _checked_tol("tol", tol)
        ns, nt = self.s_grid.size, self.t_grid.size
        try:
            numerator = self._coefficients[3]
        except UsageError:
            numerator = None  # raised again below, after the checks that come first
        T = self.t_grid[None, :]
        row_read = np.empty(ns, dtype=bool)

        def block(rows):
            det = self._tables._finite("det g", _first_form_block(self._form, rows, T)[2], rows.start)
            mask = np.abs(det) > self.tau_deg
            mask.any(axis=1, out=row_read[rows])
            degenerate = np.flatnonzero(~mask)
            peak = np.nan
            if numerator is not None and degenerate.size < mask.size:
                peak = np.fmax.reduce(_h_squared(numerator, rows, T, det, mask), axis=None)
            return degenerate.size, degenerate[:16] + rows.start * nt, peak

        counts, samples, peaks = zip(*_on_two_threads(block, ns, nt))
        n_tot, n_deg = ns * nt, sum(counts)
        if n_deg == n_tot:
            raise EverywhereDegenerateError(
                f"all {n_tot} grid points have |det g| <= {self.tau_deg}"
            )
        (det_size, det_err), *bounds = self._bounds()
        rows = row_read & (det_err.max(axis=(1, 2)) < det_size.max(axis=(1, 2)))
        if not rows.any():
            raise EverywhereDegenerateError("rounding leaves det g no digit on any s row")
        r11, r12, residual = (
            _relative(c[rows], size[rows], err[rows])
            for c, (size, err) in zip(self._coefficients[1:], bounds)
        )
        verdict = MinimalityVerdict.MINIMAL if residual <= tol else MinimalityVerdict.NOT_MINIMAL
        return MinimalityReport(
            verdict=verdict,
            residual=residual,
            max_h_norm=float(np.sqrt(np.fmax.reduce(peaks))),
            tol=tol,
            points_checked=n_tot - n_deg,
            points_degenerate=n_deg,
            totally_geodesic=max(r11, r12) <= tol,
            degenerate_sample=[
                (float(self.s_grid[i // nt]), float(self.t_grid[i % nt]))
                for i in np.concatenate(samples)[:16].tolist()
            ],
            grid_shape=(ns, nt),
        )


def sweep_grid(
    sig: Signature,
    surface: RuledSurface,
    s_grid: np.ndarray | None = None,
    t_grid: np.ndarray | None = None,
    tau_deg: float = TAU_DEG,
) -> SurfaceSweep:
    """The forms on s_grid x t_grid; sweep_grid(sig, surface, [s], [t]) gives them at (s, t).
    It samples the curves and pairs their jets; a det g that is not finite
    on the grid is named by the first reader of the grid. UsageError names
    a grid that is empty, not one-dimensional or not finite."""
    if s_grid is None or t_grid is None:
        ds, dt = surface.default_grids()
        s_grid = ds if s_grid is None else s_grid
        t_grid = dt if t_grid is None else t_grid
    s_grid, t_grid = (np.atleast_1d(np.asarray(grid, dtype=float)) for grid in (s_grid, t_grid))
    for name, grid in (("s_grid", s_grid), ("t_grid", t_grid)):
        if grid.ndim != 1 or not grid.size:
            raise UsageError(f"{name} must be a non-empty 1-D array of finite values, got shape {grid.shape}")
        if not np.isfinite(grid).all():
            bad = float(grid[~np.isfinite(grid)][0])
            raise UsageError(f"{name} must be a non-empty 1-D array of finite values, got {bad!r}")

    tables = _RulingTables(sig, surface, s_grid)
    return SurfaceSweep(s_grid=s_grid, t_grid=t_grid, tau_deg=tau_deg, _tables=tables, _form=tables.form())


# ---------------------------------------------------------------------------
# verdicts


def _checked_tol(name: str, tol: float) -> float:
    """tol, which must be a finite number >= 0; UsageError names it otherwise."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise UsageError(f"{name} must be a finite number >= 0, got {tol!r}")
    return tol


class MinimalityVerdict(Enum):
    MINIMAL = "minimal"
    NOT_MINIMAL = "not-minimal"


@dataclass
class MinimalityReport:
    """Verdict of one sweep, decided by residual = max (|c_k| - E_k)+ / S_k over
    N's coefficients; max_h_norm is the cross-check sampled off the band, and
    totally_geodesic is decided from D11's and D12's coefficients alike."""

    verdict: MinimalityVerdict
    residual: float
    max_h_norm: float
    tol: float
    points_checked: int
    points_degenerate: int
    totally_geodesic: bool
    degenerate_sample: list = field(default_factory=list)
    grid_shape: tuple[int, int] = (0, 0)

    @property
    def is_minimal(self) -> bool:
        return self.verdict is MinimalityVerdict.MINIMAL


def is_minimal(
    sig: Signature,
    surface: RuledSurface,
    s_grid: np.ndarray | None = None,
    t_grid: np.ndarray | None = None,
    tol: float = H_TOL,
    tau_deg: float = TAU_DEG,
) -> MinimalityReport:
    """Sweep the grid once and decide from it; see SurfaceSweep.minimality."""
    return sweep_grid(sig, surface, s_grid, t_grid, tau_deg).minimality(tol)


def c_function(sig: Signature, surface: RuledSurface, s: float, t: float) -> float:
    """The ratio whose t-independence characterizes the minimal cases.

    C(s, t) = ((<gamma'', x'> + <gamma', x''>) t + <x'', x'>) / g11 with
    g11 = <gamma', gamma'> t^2 + 2 <gamma', x'> t + <x', x'>. Meaningful on
    gauge-normalized surfaces; raises when the denominator degenerates.
    This is the one-point case of c_function_grid.
    """
    vals, mask = c_function_grid(sig, surface, s, t)
    if not mask[0, 0]:
        raise DegenerateMetricError(s, t)
    return float(vals[0, 0])


def c_function_grid(sig: Signature, surface: RuledSurface, s_grid: np.ndarray, t_grid: np.ndarray):
    """Vectorized C over a grid; returns (values, valid_mask), valid where
    |g11| > TAU_DEG. g11 is the sweep's (sweep_grid), so the grid is checked
    as the sweep checks it and a det g that is not finite raises its UsageError."""
    sweep = sweep_grid(sig, surface, s_grid, t_grid)
    denom, tables, T = sweep.g11, sweep._tables, sweep.t_grid[None, :]
    mask = np.abs(denom) > TAU_DEG
    num = (tables.col("g2", "x1") + tables.col("x2", "g1")) * T + tables.col("x2", "x1")
    vals = np.where(mask, num / np.where(mask, denom, 1.0), np.nan)
    return vals, mask


# ---------------------------------------------------------------------------
# gauge normalization


@dataclass
class GaugeResult:
    """Outcome of gauge normalization (making g12 vanish identically).

    surface is the gauged surface, always in closed form. exact is False
    when lambda or the gauged base holds a damped term, which no writer
    spells; lambda is then given as lam_table instead of lam."""

    surface: RuledSurface
    epsilon: int
    exact: bool
    lam: ScalarFn | None  # closed form when exact
    lam_table: tuple[np.ndarray, np.ndarray] | None  # (s, lambda(s)) on the scan grid otherwise
    max_abs_g12: float
    # max |g12| / S over the check grid, S = |gamma| (|gamma'| |t| + |x'|) in
    # Euclidean norms, the size of the terms that cancel in g12 (0 where S = 0)
    g12_residual: float


def _scan(sig: Signature, surface: RuledSurface) -> _RulingTables:
    """The jet table of the gauge and the classifier: SCAN_POINTS points of the s-domain."""
    return _RulingTables(sig, surface, uniform_grid(*surface.s_domain, SCAN_POINTS))


def _zero(c, size):
    """The zero rule, |c| <= H_TOL size, for a coefficient or an array of samples."""
    return abs(c) <= H_TOL * size


def _reading(sized: _SizedFn) -> ScalarFn:
    """The terms of sized that the zero rule keeps, |c| > H_TOL S."""
    fn = ScalarFn()
    fn.terms = {key: c.item() for key, (c, size) in sized.terms.items() if not _zero(c, abs(size))}
    return fn


def _constant_value(fn: ScalarFn) -> float | None:
    """fn's value when it is constant in s (no term but s^0 e^{0 s}), else None."""
    return None if fn.terms.keys() - {(0, 0)} else fn.terms.get((0, 0), 0.0)


def _epsilon(scan: _RulingTables) -> int:
    """epsilon = <gamma, gamma>, which the normal form needs constant +-1.

    NullDirectionError when it vanishes along a non-constant gamma (such a
    surface is never minimal unless gamma is a multiple of one fixed null
    vector, which rules the same lines as a cylinder); ConventionError when
    it varies or is not +-1, and for the constant null gamma of a cylinder,
    which no gauge applies to.
    """
    gg = scan.profile("g0", "g0")
    if gg.identically_zero:
        if scan.surface.gamma.is_constant():
            raise ConventionError(
                f"<gamma, gamma> = {gg.value!r}; a constant null direction takes no gauge"
            )
        raise NullDirectionError(
            "the ruling direction is null along a non-constant curve; unless it is "
            "a multiple of one fixed null vector, such a surface is never minimal "
            "away from degenerate points"
        )
    epsilon = scan.unit("g0", "g0")
    if epsilon is None:
        raise ConventionError(f"<gamma, gamma> = {gg.value!r}; scale the direction to unit norm")
    return epsilon


def _shift(scan: _RulingTables) -> tuple[int, ScalarFn, RuledSurface]:
    """epsilon, lambda and the gauged surface of scan.surface. lambda integrates
    the terms of <gamma, x'> that the zero rule keeps, and the base is x + lambda
    gamma in closed form (damped terms included), where a component is 0 by
    the zero rule against S = |x| + the |lambda gamma products| on it."""
    surface = scan.surface
    eps = _epsilon(scan)
    anti = _reading(scan.sized("g0", "x1")).antiderivative()
    lam = -eps * (anti - ScalarFn.constant(anti.eval(0.0)))
    base, size = surface.base.plus_scalar_times(lam, surface.gamma), CurveExpr(surface.n)
    size.terms = {key: abs(c) for key, c in surface.base.terms.items()}
    size = lam._product(surface.gamma, lambda c, vec: abs(c) * abs(vec), size)
    kept = ((key, np.where(_zero(c, size.terms[key]), 0.0, c)) for key, c in base.terms.items())
    base.terms = {key: c for key, c in kept if c.any()}
    return eps, lam, RuledSurface(surface.gamma, base, surface.s_domain, surface.t_domain)


def gauge_normalize(sig: Signature, surface: RuledSurface) -> GaugeResult:
    """Translate the base along the rulings so the mixed metric entry vanishes.

    Replaces x by x + lambda * gamma with lambda(s) = -eps * integral of
    <gamma, x'> from 0, where eps = <gamma, gamma> = +-1 must be constant.
    The swept point set is unchanged because the shift happens inside each
    ruling line. lambda and the shifted base are always closed forms; the
    result is exact unless one of them holds a damped term, which no writer
    spells, and lambda is then tabulated on the scan grid instead. The
    check reads only the g12 it reports, on the gauged surface's default
    grid; UsageError names the first s where g12 is not finite.
    """
    scan = _scan(sig, surface)
    eps, lam, gauged = _shift(scan)
    exact = not (lam._damped() or gauged.base._damped())

    # g12 = <gamma', gamma> t + <x', gamma> is linear in t, so its largest
    # magnitude over the check grid sits at one of the grid's two t-ends. Its
    # size takes Euclidean norms, not sum_i |a_i b_i|: on a catalog frame
    # gamma, gamma' and x' can have disjoint supports, and a component that
    # rounds to 1e-17 instead of 0 would then be all of that sum.
    s_grid, t_grid = gauged.default_grids()
    check = _RulingTables(sig, gauged, s_grid)
    with np.errstate(all="ignore"):  # a g12 that overflows is named by _finite
        g12 = np.abs(check._finite("g12", _horner(check.form()[1], t_grid[None, :])))
        g0, g1, x1 = (np.linalg.norm(check.jet(k), axis=1)[:, None] for k in ("g0", "g1", "x1"))
        size = g0 * (g1 * np.abs(t_grid)[None, :] + x1)
        residual = np.divide(g12, size, out=np.zeros_like(g12), where=size > 0)
    return GaugeResult(
        surface=gauged, epsilon=eps, exact=exact, lam=lam if exact else None,
        lam_table=None if exact else (scan.s, lam.eval(scan.s)),
        max_abs_g12=float(g12[:, [0, -1]].max()),
        g12_residual=float(residual.max()),
    )
