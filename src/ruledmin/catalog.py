"""Generators for the minimal families, plus their closed-form invariants.

Every generator emits the normalized representative of its family on an
exact integer frame supplied by the existence module, so downstream checks
(minimality, classification round trips, causal maps) run against honest
instances rather than hand-tuned data.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .basisfn import ONE, Atom, ScalarFn
from .curves import CurveExpr, symbolic_inner
from .errors import NonExistenceError, UsageError
from .existence import (
    ExistenceResult,
    Verdict,
    admits_cylinder,
    existence_oracle,
)
from .families import (
    FRAME_FAMILIES,
    FamilyId,
    FrameSpec,
    SignChoice,
    validate_signs,
)
from .jsonio import _fmt_float
from .metric import Signature, gram_matrix
from .surface import RuledSurface, _first_form_terms, sweep_grid

DEFAULT_S_DOMAIN = (-3.0, 3.0)
DEFAULT_T_DOMAIN = (-3.0, 3.0)

# |det g| at or below this defines the excluded band around degenerate loci
# in verification grids and causal tags.
DEG_BAND = 1e-6

# points per side of causal_map's det g cross-check grid and of
# bernstein_check's grids
CAUSAL_MAP_GRID = 100
BERNSTEIN_GRID = 81

_FRAME_FAMILIES = frozenset(FRAME_FAMILIES)
_ONE = Atom(0, ONE, 0.0)


def pick_signs(sig: Signature, family: FamilyId) -> SignChoice | None:
    """First admissible sign choice realizable in sig, or None."""
    return existence_oracle(sig, family).signs if family in _FRAME_FAMILIES else None


def _check_request(sig: Signature, family: FamilyId, signs: SignChoice | None) -> None:
    if sig.n < 3:
        raise UsageError("catalog surfaces need ambient dimension n >= 3")
    if signs is not None:
        validate_signs(family, signs)


def _witness(sig: Signature, family: FamilyId, signs: SignChoice | None) -> ExistenceResult:
    """The oracle's witness for a frame family and the given sign choice, or
    pick_signs' choice when signs is None; raises as generate does."""
    _check_request(sig, family, signs)
    result = existence_oracle(sig, family, signs)
    if result.verdict is not Verdict.WITNESS:
        raise NonExistenceError(result)
    return result


def _witness_surface(
    family: FamilyId, witness: ExistenceResult, s_domain: tuple, t_domain: tuple
) -> RuledSurface:
    """The frame family's normal form on the witness's frame."""
    n = witness.sig.n
    e1, e2, e3 = (np.asarray(v, dtype=float) for v in witness.frame.vectors)
    if family in (FamilyId.ELLIPTIC_HELICOID_1, FamilyId.ELLIPTIC_HELICOID_2):
        gamma = CurveExpr.from_basis_terms(
            n, [("cos", 1.0, e1), ("sin", 1.0, e2)]
        )
        base = CurveExpr.from_basis_terms(n, [("pow", 1, e3)])
    elif family in (FamilyId.HYPERBOLIC_HELICOID_1, FamilyId.HYPERBOLIC_HELICOID_2):
        gamma = CurveExpr.from_basis_terms(
            n, [("cosh", 1.0, e1), ("sinh", 1.0, e2)]
        )
        base = CurveExpr.from_basis_terms(n, [("pow", 1, e3)])
    elif family is FamilyId.PARABOLIC_HELICOID:
        gamma = CurveExpr.from_basis_terms(
            n, [("pow", 0, e1), ("pow", 1, e2 + e3)]
        )
        base = CurveExpr.from_basis_terms(
            n,
            [
                ("pow", 2, e1),
                ("pow", 3, (e2 + e3) / 3.0),
                ("pow", 1, e3 - e2),
            ],
        )
    else:  # minimal hyperbolic paraboloid
        gamma = CurveExpr.from_basis_terms(n, [("pow", 1, e1), ("pow", 0, e2)])
        base = CurveExpr.from_basis_terms(n, [("pow", 1, e3)])
    return RuledSurface(gamma=gamma, base=base, s_domain=s_domain, t_domain=t_domain)


def generate(
    sig: Signature,
    family: FamilyId,
    signs: SignChoice | None = None,
    s_domain: tuple[float, float] = DEFAULT_S_DOMAIN,
    t_domain: tuple[float, float] = DEFAULT_T_DOMAIN,
) -> RuledSurface:
    """Normalized representative of a family in the given signature.

    Raises NonExistenceError (carrying the oracle's certificate) when the
    family, or the specific sign choice, does not exist there, and
    UsageError when signs are not a sign choice of the family (planes and
    cylinders take none).
    """
    if family in _FRAME_FAMILIES:
        return _witness_surface(family, _witness(sig, family, signs), s_domain, t_domain)
    _check_request(sig, family, signs)

    if family is FamilyId.PLANE:
        n = sig.n
        e_dir = np.zeros(n)
        e_dir[1] = 1.0
        e_base = np.zeros(n)
        e_base[0] = 1.0
        gamma = CurveExpr.from_basis_terms(n, [("pow", 0, e_dir)])
        base = CurveExpr.from_basis_terms(n, [("pow", 1, e_base)])
        return RuledSurface(gamma=gamma, base=base, s_domain=s_domain, t_domain=t_domain)

    # minimal cylinder
    result = admits_cylinder(sig)
    if result.verdict is not Verdict.WITNESS:
        raise NonExistenceError(result)
    n = sig.n
    i, j, k = result.cylinder.axes

    def axis(idx):
        v = np.zeros(n)
        v[idx] = 1.0
        return v

    gamma = CurveExpr.from_basis_terms(
        n, [("pow", 0, np.asarray(result.cylinder.direction, dtype=float))]
    )
    if result.cylinder.mirrored:
        # two timelike axes (i, j), one spacelike (k)
        base = CurveExpr.from_basis_terms(
            n,
            [("cosh", 1.0, axis(i)), ("pow", 1, axis(j)), ("sinh", 1.0, axis(k))],
        )
    else:
        base = CurveExpr.from_basis_terms(
            n,
            [("sinh", 1.0, axis(i)), ("cosh", 1.0, axis(j)), ("pow", 1, axis(k))],
        )
    return RuledSurface(gamma=gamma, base=base, s_domain=s_domain, t_domain=t_domain)


def scale_surface(surface: RuledSurface, k: float) -> RuledSurface:
    """Homothety f -> k f (scales both curves; ruling lines are preserved)."""
    if not k > 0:
        raise UsageError("homothety ratio must be positive")
    if not isinstance(surface.base, CurveExpr):
        raise UsageError("scale_surface expects a closed-form base curve")
    return RuledSurface(
        gamma=k * surface.gamma,
        base=k * surface.base,
        s_domain=surface.s_domain,
        t_domain=surface.t_domain,
    )


# ---------------------------------------------------------------------------
# causal regions over t


@dataclass(frozen=True)
class CausalRegion:
    t_lo: float
    t_hi: float
    verdict: str  # "spacelike" (det g > 0) or "timelike" (det g < 0)


@dataclass
class CausalRegionReport:
    sig: Signature
    family: FamilyId
    signs: SignChoice | None
    t_domain: tuple[float, float]
    regions: list[CausalRegion]
    degenerate_loci: list[float]
    constant: bool
    cross_validated: bool
    expression: str


def _det_g_terms(sig: Signature, surface: RuledSurface) -> list[ScalarFn]:
    """det g's t-coefficients c0, c1, c2 as functions of s, from the symbolic
    pairings of gamma, gamma' and x' (the sweep's _first_form_terms)."""
    curves = dict(g0=surface.gamma, g1=surface.gamma.derivative(1), x1=surface.base.derivative(1))

    def pairing(a: str, b: str) -> ScalarFn:
        fn = symbolic_inner(sig, curves[a], curves[b])
        if fn is None:
            raise UsageError(f"<{a}, {b}> leaves the term algebra")
        return fn

    return _first_form_terms(pairing, operator.sub)[3]


def _constant(fn: ScalarFn) -> float | None:
    """fn's value when it is constant in s, else None."""
    return fn.terms.get(_ONE, 0.0) if fn.terms.keys() <= {_ONE} else None


def _spell(terms: list[ScalarFn]) -> str:
    """c2 t^2 + c1 t + c0, one term per atom c s^k phi(w s) of each c_k, as in
    "t^2 - 1", "-4*t" or "-cosh(2*s) + sinh(2*s)"."""
    def power(x: str, k: int) -> list[str]:
        return [x if k == 1 else f"{x}^{k}"] if k else []

    out = ""
    for p in (2, 1, 0):
        for (k, kind, omega), c in sorted(terms[p].terms.items()):
            phi = [f"{kind}({_fmt_float(omega)}*s)"] if kind != ONE else []
            factors = power("s", k) + phi + power("t", p)
            size = _fmt_float(abs(c))
            term = "*".join(factors if factors and size == "1" else [size, *factors])
            sign = "-" if c < 0 else "+"
            out = f"{out} {sign} {term}" if out else term if c > 0 else f"-{term}"
    return out or "0"


def causal_map(
    sig: Signature,
    family: FamilyId,
    signs: SignChoice | None = None,
    t_domain: tuple[float, float] | None = None,
) -> CausalRegionReport:
    """Split the t-domain by the sign of det g, cross-validated by sampling.

    Spacelike regions have det g > 0, timelike det g < 0; loci with det g = 0
    separate them. det g's t-coefficients come from the surface's symbolic
    pairings. When all three are constant in s (frame families and the
    plane), the loci are the roots of the quadratic; otherwise (the
    cylinder) there is one region. Each region takes the sign of det g's
    median over the s-grid at the region's midpoint t.
    """
    t_domain = DEFAULT_T_DOMAIN if t_domain is None else t_domain
    if family in _FRAME_FAMILIES:
        witness = _witness(sig, family, signs)
        signs = witness.signs
        surface = _witness_surface(family, witness, DEFAULT_S_DOMAIN, t_domain)
    else:
        surface = generate(sig, family, signs, t_domain=t_domain)
    lo, hi = surface.t_domain
    terms = _det_g_terms(sig, surface)
    c0, c1, c2 = map(_constant, terms)
    constant_in_s = None not in (c0, c1, c2)
    loci = []
    if constant_in_s and c2 != 0.0:
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc == 0.0:
            loci = [-c1 / (2.0 * c2)]
        elif disc > 0.0:
            r = math.sqrt(disc)
            loci = sorted([(-c1 - r) / (2.0 * c2), (-c1 + r) / (2.0 * c2)])
    elif constant_in_s and c1 != 0.0:
        loci = [-c0 / c1]
    loci = [t for t in loci if lo < t < hi]

    s_grid = np.linspace(*surface.s_domain, CAUSAL_MAP_GRID)
    t_grid = np.linspace(lo, hi, CAUSAL_MAP_GRID)
    sweep = sweep_grid(sig, surface, s_grid, t_grid)

    regions: list[CausalRegion] = []
    cuts = [lo, *loci, hi]
    c0s, c1s, c2s = (fn.eval(s_grid) for fn in terms)
    for a, b in zip(cuts[:-1], cuts[1:]):
        t = 0.5 * (a + b)
        value = float(np.median(c2s * t * t + c1s * t + c0s))
        verdict = "spacelike" if value > 0 else "timelike"
        regions.append(CausalRegion(t_lo=float(a), t_hi=float(b), verdict=verdict))

    # sampled signs must agree with the region verdicts off the excluded band
    ok = True
    for region in regions:
        inside = (t_grid >= region.t_lo) & (t_grid <= region.t_hi)
        vals = sweep.det_g[:, inside]
        vals = vals[np.abs(vals) > DEG_BAND]
        if vals.size:
            if region.verdict == "spacelike" and float(vals.min()) <= 0:
                ok = False
            if region.verdict == "timelike" and float(vals.max()) >= 0:
                ok = False
    if not ok:
        raise AssertionError("sampled det g signs disagree with the derived regions")
    return CausalRegionReport(
        sig=sig,
        family=family,
        signs=signs,
        t_domain=surface.t_domain,
        regions=regions,
        degenerate_loci=[float(t) for t in loci],
        constant=not loci and len(regions) == 1,
        cross_validated=True,
        expression=_spell(terms),
    )


# ---------------------------------------------------------------------------
# exact span degeneracy


class SpanType(Enum):
    DEGENERATE_SPAN = "degenerate-span"
    NONDEGENERATE_SPAN = "nondegenerate-span"


def _det3(m) -> Fraction:
    """Determinant of a 3x3 matrix of nested lists, by the first row."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def degenerate_span_check(sig: Signature, frame) -> SpanType:
    """Exact test: is the metric restricted to span{e1, e2, e3} degenerate?

    Works in rational arithmetic (floats convert exactly), requires the three
    vectors to be linearly independent, and decides via the 3x3 Gram
    determinant. Degenerate span means the family sits inside a degenerate
    affine 3-space of the ambient geometry.
    """
    vectors = frame.vectors if isinstance(frame, FrameSpec) else tuple(frame)
    if len(vectors) != 3:
        raise UsageError("span check expects exactly three vectors")
    rows = [[Fraction(x) for x in v] for v in vectors]
    for row in rows:
        if len(row) != sig.n:
            raise UsageError(f"vector length {len(row)} does not match n = {sig.n}")
    # independent exactly when their Euclidean Gram determinant is not zero
    if _det3(gram_matrix(Signature(sig.n, 0), rows)) == 0:
        raise UsageError("the three vectors must be linearly independent")
    det = _det3(gram_matrix(sig, rows))
    return SpanType.DEGENERATE_SPAN if det == 0 else SpanType.NONDEGENERATE_SPAN


# ---------------------------------------------------------------------------
# the graph counterexample check


@dataclass
class BernsteinReport:
    sig: Signature
    signs: SignChoice
    domains: tuple[tuple[float, float], ...]
    exists: bool
    entire_graph: bool
    graph_axes: tuple[int, int] | None
    spacelike: bool
    minimal: bool
    planar: bool
    max_h_norm: float
    min_det_g: float
    min_g11: float


def bernstein_check(
    sig: Signature,
    signs: SignChoice = SignChoice(0, 1, 1),
    domains: tuple[tuple[float, float], ...] = ((-10.0, 10.0), (-100.0, 100.0)),
) -> BernsteinReport:
    """Is the hyperbolic-paraboloid family a global minimal graph here?

    Checks, over nested square boxes, that the generated surface is the
    graph of a polynomial over a coordinate plane, has a definite induced
    metric with det g > 0 and g11 > 0 (spacelike), is minimal, and is not a
    plane (read from the sweep of the largest box). Raises NonExistenceError
    where the family does not exist, which is exactly what makes this fail
    in low dimensions.
    """
    if not domains:
        raise UsageError("the graph check needs at least one domain")
    family = FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID
    validate_signs(family, signs)
    if signs.s2 != signs.s3:
        raise UsageError("the graph check needs s2 == s3 (definite metric case)")
    result = existence_oracle(sig, family, signs)
    if result.verdict is not Verdict.WITNESS:
        raise NonExistenceError(result)

    frame = result.frame
    e2_idx = int(np.argmax(np.abs(np.asarray(frame.vectors[1]))))
    e3_idx = int(np.argmax(np.abs(np.asarray(frame.vectors[2]))))

    max_h = 0.0
    min_det = math.inf
    min_g11 = math.inf
    graph_ok = True
    minimal_ok = True
    for lo, hi in domains:
        surface = _witness_surface(family, result, (lo, hi), (lo, hi))
        s_grid = np.linspace(lo, hi, BERNSTEIN_GRID)
        t_grid = np.linspace(lo, hi, BERNSTEIN_GRID)
        sweep = sweep_grid(sig, surface, s_grid, t_grid)
        min_det = min(min_det, float(sweep.det_g.min()))
        min_g11 = min(min_g11, float(sweep.g11.min()))
        report = sweep.minimality()
        max_h = max(max_h, report.max_h_norm)
        minimal_ok = minimal_ok and report.is_minimal
        T = t_grid[None, :]
        S = s_grid[:, None]
        if float(np.abs(sweep._f_axis(e2_idx) - T).max()) > 1e-12:
            graph_ok = False
        if float(np.abs(sweep._f_axis(e3_idx) - S).max()) > 1e-12:
            graph_ok = False

    return BernsteinReport(
        sig=sig,
        signs=signs,
        domains=tuple((float(a), float(b)) for a, b in domains),
        exists=True,
        entire_graph=graph_ok,
        graph_axes=(e2_idx, e3_idx),
        spacelike=min_det > 0 and min_g11 > 0,
        minimal=minimal_ok,
        planar=report.totally_geodesic,
        max_h_norm=max_h,
        min_det_g=min_det,
        min_g11=min_g11,
    )
