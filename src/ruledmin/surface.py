"""Ruled surfaces f(s, t) = gamma(s) t + x(s) and their differential geometry.

First and second fundamental forms are taken with respect to the ambient
indefinite pairing; the second form's values are the normal components of
the second derivatives, obtained by subtracting the tangential part via the
explicit 2x2 Gram solve (adjugate over determinant). No orthonormalization
of the tangent plane is ever attempted, so mixed-causal tangent planes need
no special cases. Since f is affine in t, f_tt = 0 and h22 = 0 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from .basisfn import ScalarFn
from .curves import CurveExpr, SampledCurve, symbolic_inner, uniform_grid
from .errors import (
    ConventionError,
    DegenerateMetricError,
    EverywhereDegenerateError,
    UsageError,
)
from .metric import Signature, ip_array

# |det g| at or below this is treated as a degenerate tangent plane.
TAU_DEG = 1e-9
# Mean curvature below this (euclidean norm) counts as vanishing.
H_TOL = 1e-8

DEFAULT_SURFACE_GRID = (41, 41)


def _is_curve_like(obj) -> bool:
    return isinstance(obj, (CurveExpr, GaugedBaseCurve))


@dataclass
class RuledSurface:
    """Surface swept by lines: f(s, t) = gamma(s) * t + x(s).

    gamma is the direction curve (ruling directions), base is x. Both must
    support exact derivatives; table-backed curves are refused.
    """

    gamma: CurveExpr
    base: object  # CurveExpr or GaugedBaseCurve
    s_domain: tuple[float, float] = (-3.0, 3.0)
    t_domain: tuple[float, float] = (-3.0, 3.0)

    def __post_init__(self):
        if isinstance(self.gamma, SampledCurve) or isinstance(self.base, SampledCurve):
            raise TypeError(
                "table-backed SampledCurve has no exact derivatives; "
                "surface geometry needs CurveExpr (or gauge-normalized) curves"
            )
        if not _is_curve_like(self.gamma) or not _is_curve_like(self.base):
            raise UsageError("gamma and base must be curve objects")
        if self.gamma.n != self.base.n:
            raise UsageError(
                f"gamma lives in R^{self.gamma.n} but base in R^{self.base.n}"
            )
        for name, dom in (("s_domain", self.s_domain), ("t_domain", self.t_domain)):
            a, b = dom
            if not (np.isfinite(a) and np.isfinite(b) and a < b):
                raise UsageError(f"{name} must be a finite interval [a, b] with a < b")
        self.s_domain = (float(self.s_domain[0]), float(self.s_domain[1]))
        self.t_domain = (float(self.t_domain[0]), float(self.t_domain[1]))

    @property
    def n(self) -> int:
        return self.gamma.n

    def default_grids(self, shape: tuple[int, int] = DEFAULT_SURFACE_GRID):
        s = uniform_grid(*self.s_domain, shape[0])
        t = uniform_grid(*self.t_domain, shape[1])
        return s, t


@dataclass
class Jet2:
    """Second-order jet of the immersion at one point."""

    s: float
    t: float
    f: np.ndarray
    f_s: np.ndarray
    f_t: np.ndarray
    f_ss: np.ndarray
    f_st: np.ndarray
    f_tt: np.ndarray


def immersion_jet(surface: RuledSurface, s: float, t: float) -> Jet2:
    g0 = surface.gamma.eval(s, 0)
    g1 = surface.gamma.eval(s, 1)
    g2 = surface.gamma.eval(s, 2)
    x0 = surface.base.eval(s, 0)
    x1 = surface.base.eval(s, 1)
    x2 = surface.base.eval(s, 2)
    t = float(t)
    return Jet2(
        s=float(s),
        t=t,
        f=g0 * t + x0,
        f_s=g1 * t + x1,
        f_t=g0,
        f_ss=g2 * t + x2,
        f_st=g1,
        f_tt=np.zeros(surface.n),
    )


class FirstForm(NamedTuple):
    g11: float
    g12: float
    g22: float
    det_g: float


class SecondForm(NamedTuple):
    h11: np.ndarray
    h12: np.ndarray
    h22: np.ndarray


def first_form(sig: Signature, jet: Jet2) -> FirstForm:
    g11 = float(ip_array(sig, jet.f_s, jet.f_s))
    g12 = float(ip_array(sig, jet.f_s, jet.f_t))
    g22 = float(ip_array(sig, jet.f_t, jet.f_t))
    return FirstForm(g11, g12, g22, g11 * g22 - g12 * g12)


def _normal_part(sig, vec, f_s, f_t, g: FirstForm) -> np.ndarray:
    b1 = float(ip_array(sig, vec, f_s))
    b2 = float(ip_array(sig, vec, f_t))
    alpha = (g.g22 * b1 - g.g12 * b2) / g.det_g
    beta = (-g.g12 * b1 + g.g11 * b2) / g.det_g
    return vec - alpha * f_s - beta * f_t


def second_form(
    sig: Signature, jet: Jet2, g: FirstForm | None = None, tau_deg: float = TAU_DEG
) -> SecondForm:
    """Normal components of the second derivatives.

    Raises DegenerateMetricError when |det g| <= tau_deg: a degenerate
    tangent plane has no tangential/normal splitting.
    """
    if g is None:
        g = first_form(sig, jet)
    if abs(g.det_g) <= tau_deg:
        raise DegenerateMetricError(jet.s, jet.t, g.det_g)
    h11 = _normal_part(sig, jet.f_ss, jet.f_s, jet.f_t, g)
    h12 = _normal_part(sig, jet.f_st, jet.f_s, jet.f_t, g)
    h22 = np.zeros(len(jet.f))  # f_tt = 0 for ruled surfaces
    return SecondForm(h11, h12, h22)


def mean_curvature(g: FirstForm, h: SecondForm) -> np.ndarray:
    """H = (g11 h22 - 2 g12 h12 + g22 h11) / (2 det g), an ambient vector."""
    return 0.5 * (g.g11 * h.h22 - 2.0 * g.g12 * h.h12 + g.g22 * h.h11) / g.det_g


@dataclass
class FormBundle:
    s: float
    t: float
    first: FirstForm
    second: SecondForm
    H: np.ndarray


def form_bundle(sig: Signature, surface: RuledSurface, s: float, t: float) -> FormBundle:
    jet = immersion_jet(surface, s, t)
    g = first_form(sig, jet)
    h = second_form(sig, jet, g)
    return FormBundle(s=float(s), t=float(t), first=g, second=h, H=mean_curvature(g, h))


# ---------------------------------------------------------------------------
# grid sweep on per-s coefficient tables


class _RulingTables:
    """The one place that samples gamma and x along s: their jets on an
    s-grid and the per-s pairings of those jets, each computed on first use.

    A jet is named "g" (gamma) or "x" (the base x) followed by the order of
    the s-derivative, as in "g0", "g2" or "x1". Every per-s quantity the checks read is a
    pairing ip(a, b): epsilon = <g0, g0>, eta = <g1, g1>, <x1, x1>,
    mu = <g1, x1>, the gauge term <g0, x1>, the C-function and the sweep's
    first-form and projection coefficients. f is affine in t, so those
    coefficients make every (ns, nt) scalar a polynomial in t, evaluated by
    Horner's rule with (ns, 1) columns against the (1, nt) t-row T.
    """

    def __init__(self, sig: Signature, surface: RuledSurface, s_grid: np.ndarray):
        self.sig, self.surface, self.s = sig, surface, s_grid
        self._jets: dict[str, np.ndarray] = {}
        self._pairs: dict[tuple[str, str], np.ndarray] = {}

    def jet(self, name: str) -> np.ndarray:
        """(ns, n) samples of gamma or x, differentiated int(name[1]) times."""
        if name not in self._jets:
            curve = self.surface.gamma if name[0] == "g" else self.surface.base
            self._jets[name] = curve.eval(self.s, int(name[1]))
        return self._jets[name]

    def ip(self, a: str, b: str) -> np.ndarray:
        """<a, b> at each s, shape (ns,)."""
        key = (a, b) if a <= b else (b, a)
        if key not in self._pairs:
            self._pairs[key] = ip_array(self.sig, self.jet(a), self.jet(b))
        return self._pairs[key]

    def col(self, a: str, b: str) -> np.ndarray:
        return self.ip(a, b)[:, None]

    def g11(self, T: np.ndarray) -> np.ndarray:
        c = self.col
        return (c("g1", "g1") * T + 2.0 * c("g1", "x1")) * T + c("x1", "x1")

    def g12(self, T: np.ndarray) -> np.ndarray:
        return self.col("g1", "g0") * T + self.col("x1", "g0")

    def first_form(self, T: np.ndarray):
        """g11, g12, g22 and det g on the grid."""
        g11, g12 = self.g11(T), self.g12(T)
        g22 = np.broadcast_to(self.col("g0", "g0"), g11.shape)
        return g11, g12, g22, g11 * g22 - g12 * g12

    def components(self, T, g11, g12, g22, safe):
        """Yield (h11, h12, H) one ambient axis at a time, each (ns, nt).

        vec - alpha f_s - beta f_t is the normal part of vec, with
        (alpha, beta) the adjugate solve of the Gram system; safe is det g
        with the degenerate points replaced by 1.
        """

        def solve(b1, b2):
            # b1 = <vec, f_s>, b2 = <vec, f_t>
            return (g22 * b1 - g12 * b2) / safe, (-g12 * b1 + g11 * b2) / safe

        c = self.col
        a11, b11 = solve(  # vec = f_ss = gamma'' t + x''
            (c("g2", "g1") * T + (c("g2", "x1") + c("x2", "g1"))) * T + c("x2", "x1"),
            c("g2", "g0") * T + c("x2", "g0"),
        )
        a12, b12 = solve(c("g1", "g1") * T + c("g1", "x1"), c("g1", "g0"))  # vec = f_st
        g0, g1, g2, x1, x2 = map(self.jet, ("g0", "g1", "g2", "x1", "x2"))
        for k in range(g0.shape[1]):
            gk = g0[:, k, None]
            f_s = g1[:, k, None] * T + x1[:, k, None]
            h11 = (g2[:, k, None] * T + x2[:, k, None]) - a11 * f_s - b11 * gk
            h12 = g1[:, k, None] - a12 * f_s - b12 * gk
            # h22 = 0 identically
            yield h11, h12, 0.5 * (-2.0 * g12 * h12 + g22 * h11) / safe


@dataclass
class SurfaceSweep:
    """All form data over an (s, t) grid; arrays indexed [i_s, i_t].

    Only the first form is computed up front. H_norm (NaN at degenerate
    points) and max_h11, max_h12 (largest components over the non-degenerate
    points) come from one streamed pass over the ambient axes, and the
    (ns, nt, n) fields f, h11, h12 and H are stacked; each on first access,
    so a caller that reads only det g, as causal_map does, skips them all.
    """

    s_grid: np.ndarray
    t_grid: np.ndarray
    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    det_g: np.ndarray
    nondegenerate: np.ndarray  # bool mask, |det g| > tau_deg
    tau_deg: float
    _tables: _RulingTables = field(repr=False)

    def _components(self):
        safe = np.where(self.nondegenerate, self.det_g, 1.0)
        return self._tables.components(
            self.t_grid[None, :], self.g11, self.g12, self.g22, safe
        )

    @cached_property
    def _streamed(self) -> tuple[np.ndarray, float, float]:
        mask = self.nondegenerate
        h_sq = np.zeros_like(self.det_g)
        max_h11, max_h12 = [], []
        for h11, h12, H in self._components():
            h_sq += H * H
            max_h11.append(np.abs(h11).max(where=mask, initial=0.0))
            max_h12.append(np.abs(h12).max(where=mask, initial=0.0))
        h_norm = np.where(mask, np.sqrt(h_sq), np.nan)
        return h_norm, float(np.max(max_h11)), float(np.max(max_h12))

    H_norm = property(lambda self: self._streamed[0])
    max_h11 = property(lambda self: self._streamed[1])
    max_h12 = property(lambda self: self._streamed[2])

    @cached_property
    def f(self) -> np.ndarray:
        g0, x0 = self._tables.jet("g0"), self._tables.jet("x0")
        return g0[:, None, :] * self.t_grid[None, :, None] + x0[:, None, :]

    @cached_property
    def _second(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(np.stack(p, axis=-1) for p in zip(*self._components()))

    h11 = property(lambda self: self._second[0])
    h12 = property(lambda self: self._second[1])
    H = property(lambda self: self._second[2])

    def minimality(self, tol: float = H_TOL) -> MinimalityReport:
        """Decide max |H| <= tol and total geodesy, skipping degenerate points.

        Degenerate points are excluded from the maxima and listed in the
        report; if every grid point is degenerate there is nothing to decide
        and EverywhereDegenerateError is raised.
        """
        mask = self.nondegenerate
        n_tot = int(mask.size)
        n_deg = int((~mask).sum())
        if n_deg == n_tot:
            raise EverywhereDegenerateError(
                f"all {n_tot} grid points have |det g| <= {self.tau_deg}"
            )
        max_h = float(np.nanmax(self.H_norm))
        verdict = (
            MinimalityVerdict.MINIMAL if max_h <= tol else MinimalityVerdict.NOT_MINIMAL
        )
        return MinimalityReport(
            verdict=verdict,
            max_h_norm=max_h,
            tol=tol,
            points_checked=n_tot - n_deg,
            points_degenerate=n_deg,
            max_h11=self.max_h11,
            max_h12=self.max_h12,
            totally_geodesic=max(self.max_h11, self.max_h12) <= tol,
            degenerate_sample=[
                (float(self.s_grid[i]), float(self.t_grid[j]))
                for i, j in np.argwhere(~mask)[:16]
            ],
            grid_shape=(self.s_grid.size, self.t_grid.size),
        )


def sweep_grid(
    sig: Signature,
    surface: RuledSurface,
    s_grid: np.ndarray | None = None,
    t_grid: np.ndarray | None = None,
    tau_deg: float = TAU_DEG,
) -> SurfaceSweep:
    if s_grid is None or t_grid is None:
        ds, dt = surface.default_grids()
        s_grid = ds if s_grid is None else s_grid
        t_grid = dt if t_grid is None else t_grid
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))

    tables = _RulingTables(sig, surface, s_grid)
    g11, g12, g22, det = tables.first_form(t_grid[None, :])
    return SurfaceSweep(
        s_grid=s_grid,
        t_grid=t_grid,
        g11=g11,
        g12=g12,
        g22=g22,
        det_g=det,
        nondegenerate=np.abs(det) > tau_deg,
        tau_deg=tau_deg,
        _tables=tables,
    )


# ---------------------------------------------------------------------------
# verdicts


class MinimalityVerdict(Enum):
    MINIMAL = "minimal"
    NOT_MINIMAL = "not-minimal"


@dataclass
class MinimalityReport:
    """Verdict of one sweep; max_h11, max_h12 (largest components over the
    non-degenerate points) decide totally_geodesic with the same tol."""

    verdict: MinimalityVerdict
    max_h_norm: float
    tol: float
    points_checked: int
    points_degenerate: int
    max_h11: float
    max_h12: float
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


def is_totally_geodesic(
    sig: Signature,
    surface: RuledSurface,
    s_grid: np.ndarray | None = None,
    t_grid: np.ndarray | None = None,
    tol: float = H_TOL,
    tau_deg: float = TAU_DEG,
) -> bool:
    """True when the whole second form vanishes on the non-degenerate grid."""
    return is_minimal(sig, surface, s_grid, t_grid, tol, tau_deg).totally_geodesic


def c_function(
    sig: Signature, surface: RuledSurface, s: float, t: float, tau_deg: float = TAU_DEG
) -> float:
    """The ratio whose t-independence characterizes the minimal cases.

    C(s, t) = ((<gamma'', x'> + <gamma', x''>) t + <x'', x'>) / g11 with
    g11 = <gamma', gamma'> t^2 + 2 <gamma', x'> t + <x', x'>. Meaningful on
    gauge-normalized surfaces; raises when the denominator degenerates.
    This is the one-point case of c_function_grid.
    """
    vals, mask = c_function_grid(sig, surface, s, t, tau_deg)
    if not mask[0, 0]:
        raise DegenerateMetricError(s, t)
    return float(vals[0, 0])


def c_function_grid(
    sig: Signature,
    surface: RuledSurface,
    s_grid: np.ndarray,
    t_grid: np.ndarray,
    tau_deg: float = TAU_DEG,
):
    """Vectorized C over a grid; returns (values, valid_mask)."""
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    T = np.atleast_1d(np.asarray(t_grid, dtype=float))[None, :]
    tables = _RulingTables(sig, surface, s_grid)
    denom = tables.g11(T)
    mask = np.abs(denom) > tau_deg
    num = (tables.col("g2", "x1") + tables.col("x2", "g1")) * T + tables.col("x2", "x1")
    vals = np.where(mask, num / np.where(mask, denom, 1.0), np.nan)
    return vals, mask


# ---------------------------------------------------------------------------
# gauge normalization


class GaugedBaseCurve:
    """Base curve x + lambda * gamma with lambda obtained by quadrature.

    Used when the gauge integrand has no closed form in the term algebra.
    lambda itself comes from adaptive quadrature (absolute error <= ~1e-11),
    but its first three derivatives are evaluated in closed form from
    lambda' = -eps * <gamma, x'>, so downstream jets stay exact in the
    derivative slots. Evaluation accepts scalars or arrays like CurveExpr.
    """

    def __init__(self, base: CurveExpr, gamma: CurveExpr, eps: int, sig: Signature):
        self.base = base
        self.gamma = gamma
        self.eps = int(eps)
        self.sig = sig
        self._curves = RuledSurface(gamma=gamma, base=base)
        self._cache: dict[float, float] = {0.0: 0.0}

    @property
    def n(self) -> int:
        return self.base.n

    def _integrand(self, s: float) -> float:
        g0 = self.gamma.eval(s, 0)
        x1 = self.base.eval(s, 1)
        return float(ip_array(self.sig, g0, x1))

    def lam_values(self, s) -> np.ndarray:
        """Raw integral M(s) of <gamma, x'> from 0, via cached quadrature.

        Each new value is integrated from the nearest cached anchor (0 is
        always cached), keeping segments short and the accumulated absolute
        error around 1e-11 for the grids used here.
        """
        arr = np.atleast_1d(np.asarray(s, dtype=float))
        for v in sorted(set(map(float, arr))):
            if v in self._cache:
                continue
            anchor = min(self._cache, key=lambda x: abs(x - v))
            seg, _ = quad(self._integrand, anchor, v, epsabs=1e-13, limit=200)
            self._cache[v] = self._cache[anchor] + seg
        return np.array([self._cache[float(v)] for v in arr])

    def eval(self, s, order: int = 0):
        if not 0 <= order <= 3:
            raise UsageError(f"order must be in 0..3, got {order}")
        arr = np.atleast_1d(np.asarray(s, dtype=float))
        tab = _RulingTables(self.sig, self._curves, arr)
        ip, eps = tab.ip, self.eps
        lam = (  # lambda and its derivatives, from lambda' = -eps <gamma, x'>
            lambda: -eps * self.lam_values(arr),
            lambda: -eps * ip("g0", "x1"),
            lambda: -eps * (ip("g1", "x1") + ip("g0", "x2")),
            lambda: -eps * (ip("g2", "x1") + 2.0 * ip("g1", "x2") + ip("g0", "x3")),
        )
        # Leibniz: (x + lambda gamma)^(k) = x^(k) + sum_j C(k, j) lambda^(j) gamma^(k-j)
        out = tab.jet(f"x{order}")
        for j in range(order, -1, -1):
            out = out + math.comb(order, j) * lam[j]()[:, None] * tab.jet(f"g{order - j}")
        if np.isscalar(s) or np.asarray(s).ndim == 0:
            return out.reshape(self.n)
        return out


@dataclass
class GaugeResult:
    """Outcome of gauge normalization (making g12 vanish identically)."""

    surface: RuledSurface
    epsilon: int
    exact: bool
    lam: ScalarFn | None  # closed form when exact
    lam_table: tuple[np.ndarray, np.ndarray] | None  # (s, lambda(s)) otherwise
    max_abs_g12: float


def gauge_normalize(
    sig: Signature,
    surface: RuledSurface,
    tol: float = 1e-9,
    check_grid: tuple[int, int] = DEFAULT_SURFACE_GRID,
) -> GaugeResult:
    """Translate the base along the rulings so the mixed metric entry vanishes.

    Replaces x by x + lambda * gamma with lambda(s) = -eps * integral of
    <gamma, x'> from 0, where eps = <gamma, gamma> = +-1 must be constant.
    The swept point set is unchanged because the shift happens inside each
    ruling line. Closed-form lambda is used whenever the term algebra allows
    it; otherwise the base becomes a quadrature-backed curve whose derivative
    slots are still exact.
    """
    if not isinstance(surface.base, CurveExpr):
        raise UsageError("gauge_normalize expects a closed-form base curve")
    gg = _RulingTables(sig, surface, uniform_grid(*surface.s_domain, 201)).ip("g0", "g0")
    if float(gg.max() - gg.min()) > tol:
        raise ConventionError(
            "<gamma, gamma> is not constant on the domain; normalize the "
            "direction curve before gauge fixing"
        )
    val = float(gg.mean())
    if abs(abs(val) - 1.0) > 1e-6:
        raise ConventionError(
            f"<gamma, gamma> = {val!r}, expected +-1 (unit direction convention)"
        )
    eps = 1 if val > 0 else -1

    lam_sym = None
    new_base = None
    m_sym = symbolic_inner(sig, surface.gamma, surface.base.derivative(1))
    if m_sym is not None:
        anti = m_sym.antiderivative()
        lam_sym = (anti + ScalarFn.constant(-anti.eval(0.0))).scaled(-float(eps))
        new_base = surface.base.plus_scalar_times(lam_sym, surface.gamma)

    if new_base is not None:
        gauged = RuledSurface(
            gamma=surface.gamma,
            base=new_base,
            s_domain=surface.s_domain,
            t_domain=surface.t_domain,
        )
        exact = True
        lam_table = None
    else:
        qbase = GaugedBaseCurve(surface.base, surface.gamma, eps, sig)
        gauged = RuledSurface(
            gamma=surface.gamma,
            base=qbase,
            s_domain=surface.s_domain,
            t_domain=surface.t_domain,
        )
        exact = False
        lam_sym = None
        table_s = uniform_grid(*surface.s_domain, 201)
        lam_table = (table_s, -eps * qbase.lam_values(table_s))

    # g12 = <gamma', gamma> t + <x', gamma> is linear in t, so its largest
    # magnitude over the check grid sits at one of the grid's two t-ends
    s_grid, t_grid = gauged.default_grids(check_grid)
    g12 = _RulingTables(sig, gauged, s_grid).g12(t_grid[None, [0, -1]])
    max_g12 = float(np.abs(g12).max())
    return GaugeResult(
        surface=gauged,
        epsilon=eps,
        exact=exact,
        lam=lam_sym,
        lam_table=lam_table,
        max_abs_g12=max_g12,
    )
