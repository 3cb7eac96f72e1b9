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

from .basisfn import ONE, ScalarFn
from .curves import CurveExpr, _sized_inner
from .errors import CrossValidationError, NonExistenceError, UsageError
from .existence import ExistenceResult, Verdict, existence_oracle
from .families import (
    FRAME_FAMILIES,
    FamilyId,
    FrameSpec,
    SignChoice,
    validate_signs,
)
from .jsonio import _fmt_float
from .metric import Signature, gram_matrix
from .surface import RuledSurface, _constant_value, _first_form_terms, _reading, sweep_grid

DEFAULT_S_DOMAIN = (-3.0, 3.0)
DEFAULT_T_DOMAIN = (-3.0, 3.0)

# |det g| at or below this defines the excluded band around degenerate loci
# in verification grids and causal tags.
DEG_BAND = 1e-6
_TAG_NAMES = ("degenerate", "spacelike", "timelike")

# points per side of causal_map's det g cross-check grid and of
# bernstein_check's grids; then bernstein_check's nested boxes in s and t
CAUSAL_MAP_GRID = 100
BERNSTEIN_GRID = 81
BERNSTEIN_DOMAINS = ((-10.0, 10.0), (-100.0, 100.0))

_FRAME_FAMILIES = frozenset(FRAME_FAMILIES)


def _tag_index(det) -> np.ndarray:
    """Index into _TAG_NAMES of each det g value: degenerate when |det g| <=
    DEG_BAND, else spacelike when det g > 0 and timelike otherwise."""
    det = np.asarray(det)
    tag = np.where(det > 0, np.uint8(1), np.uint8(2))
    tag[np.abs(det) <= DEG_BAND] = 0
    return tag


def pick_signs(sig: Signature, family: FamilyId) -> SignChoice | None:
    """First admissible sign choice realizable in sig, or None."""
    return existence_oracle(sig, family).signs if family in _FRAME_FAMILIES else None


def _witness(sig: Signature, family: FamilyId, signs: SignChoice | None) -> ExistenceResult:
    """The oracle's witness for the family and the given sign choice, or
    pick_signs' choice when signs is None; raises as generate does."""
    if sig.n < 3:
        raise UsageError("catalog surfaces need ambient dimension n >= 3")
    if signs is not None:
        validate_signs(family, signs)
    result = existence_oracle(sig, family, signs)
    if result.verdict is not Verdict.WITNESS:
        raise NonExistenceError(result)
    return result


def _witness_surface(
    family: FamilyId, witness: ExistenceResult, s_domain: tuple, t_domain: tuple
) -> RuledSurface:
    """The family's normal form on the witness: the plane on axes 0 and 1, the
    cylinder on the witness's null direction and axes, the others on its frame."""
    n = witness.sig.n
    axis = np.eye(n)
    if family is FamilyId.PLANE:
        gamma, base = [("pow", 0, axis[1])], [("pow", 1, axis[0])]
    elif family is FamilyId.MINIMAL_CYLINDER:
        i, j, k = witness.cylinder.axes
        gamma = [("pow", 0, np.asarray(witness.cylinder.direction, dtype=float))]
        if witness.cylinder.mirrored:  # two timelike axes (i, j), one spacelike (k)
            base = [("cosh", 1.0, axis[i]), ("pow", 1, axis[j]), ("sinh", 1.0, axis[k])]
        else:
            base = [("sinh", 1.0, axis[i]), ("cosh", 1.0, axis[j]), ("pow", 1, axis[k])]
    else:
        e1, e2, e3 = (np.asarray(v, dtype=float) for v in witness.frame.vectors)
        base = [("pow", 1, e3)]
        if family in (FamilyId.ELLIPTIC_HELICOID_1, FamilyId.ELLIPTIC_HELICOID_2):
            gamma = [("cos", 1.0, e1), ("sin", 1.0, e2)]
        elif family in (FamilyId.HYPERBOLIC_HELICOID_1, FamilyId.HYPERBOLIC_HELICOID_2):
            gamma = [("cosh", 1.0, e1), ("sinh", 1.0, e2)]
        elif family is FamilyId.PARABOLIC_HELICOID:
            gamma = [("pow", 0, e1), ("pow", 1, e2 + e3)]
            base = [("pow", 2, e1), ("pow", 3, (e2 + e3) / 3.0), ("pow", 1, e3 - e2)]
        else:  # minimal hyperbolic paraboloid
            gamma = [("pow", 1, e1), ("pow", 0, e2)]
    return RuledSurface(
        CurveExpr.from_basis_terms(n, gamma), CurveExpr.from_basis_terms(n, base), s_domain, t_domain
    )


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
    return _witness_surface(family, _witness(sig, family, signs), s_domain, t_domain)


def scale_surface(surface: RuledSurface, k: float) -> RuledSurface:
    """Homothety f -> k f (scales both curves; ruling lines are preserved)."""
    if not (k > 0 and math.isfinite(k)):
        raise UsageError(f"homothety ratio must be a finite number > 0, got {k!r}")
    return RuledSurface(k * surface.gamma, k * surface.base, surface.s_domain, surface.t_domain)


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
    """det g's t-coefficients c0, c1, c2 as functions of s, from the sized
    pairings of gamma, gamma' and x' (the sweep's _first_form_terms), each
    read by the classifier's zero rule (surface._reading)."""
    curves = dict(g0=surface.gamma, g1=surface.gamma.derivative(1), x1=surface.base.derivative(1))
    terms = _first_form_terms(lambda a, b: _sized_inner(sig, curves[a], curves[b]), operator.sub)[3]
    return [_reading(fn) for fn in terms]


def _spell(terms: list[ScalarFn]) -> str:
    """c2 t^2 + c1 t + c0, one term per atom c s^k phi(w s) of each c_k, as in
    "t^2 - 1", "-4*t" or "-exp(-2*s)". Each c_k is written back from its
    (power, rate) terms as basisfn writes atoms, so -cosh 2s + sinh 2s,
    which is -e^{-2s}, is one exp term."""
    def power(x: str, k: int) -> list[str]:
        return [x if k == 1 else f"{x}^{k}"] if k else []

    out = ""
    for p in (2, 1, 0):
        for c, (k, kind, omega) in sorted(terms[p]._spelled(), key=lambda pair: pair[1]):
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
    separate them. det g's t-coefficients come from the surface's sized
    pairings, read by the zero rule. When all three are constant in s (frame families and the
    plane), the loci are the roots of the quadratic; otherwise (the
    cylinder) there is one region. Each region takes the sign of det g's
    median over the s-grid at the region's midpoint t. A sample off DEG_BAND
    whose sign contradicts its region raises CrossValidationError.
    """
    t_domain = DEFAULT_T_DOMAIN if t_domain is None else t_domain
    witness = _witness(sig, family, signs)
    surface = _witness_surface(family, witness, DEFAULT_S_DOMAIN, t_domain)
    lo, hi = surface.t_domain
    terms = _det_g_terms(sig, surface)
    c0, c1, c2 = map(_constant_value, terms)
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
    sweep.det_g  # a det g that is not finite on the grid fails before the medians, which would warn

    regions: list[CausalRegion] = []
    cuts = [lo, *loci, hi]
    c0s, c1s, c2s = (fn.eval(s_grid) for fn in terms)
    for a, b in zip(cuts[:-1], cuts[1:]):
        t = 0.5 * (a + b)
        value = float(np.median(c2s * t * t + c1s * t + c0s))
        verdict = "spacelike" if value > 0 else "timelike"
        regions.append(CausalRegion(t_lo=float(a), t_hi=float(b), verdict=verdict))

    # sampled causal tags must agree with the region verdicts off the excluded band
    for region in regions:
        inside = (t_grid >= region.t_lo) & (t_grid <= region.t_hi)
        vals = sweep.det_g[:, inside]
        tag = _tag_index(vals)
        wrong = np.argwhere((tag != 0) & (tag != _TAG_NAMES.index(region.verdict)))
        if wrong.size:
            i, j = wrong[0]
            raise CrossValidationError(
                f"sampled det g disagrees with the {region.verdict} region "
                f"t in [{region.t_lo!r}, {region.t_hi!r}]: det g = {float(vals[i, j])!r} "
                f"at (s, t) = ({float(s_grid[i])!r}, {float(t_grid[inside][j])!r})"
            )
    return CausalRegionReport(
        sig=sig,
        family=family,
        signs=witness.signs,
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


def bernstein_check(sig: Signature, signs: SignChoice = SignChoice(0, 1, 1)) -> BernsteinReport:
    """Is the hyperbolic-paraboloid family a global minimal graph here?

    Reads off the witness's terms that the generated surface is the graph of
    a polynomial over a coordinate plane, and checks, over the nested square
    boxes BERNSTEIN_DOMAINS, that it has a definite induced metric with
    det g > 0 and g11 > 0 (spacelike), is minimal, and is not a plane (read
    from the sweep of the largest box).
    Raises NonExistenceError where the family does not exist, which is
    exactly what makes this fail in low dimensions.
    """
    family = FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID
    validate_signs(family, signs)
    if signs.s2 != signs.s3:
        raise UsageError("the graph check needs s2 == s3 (definite metric case)")
    witness = _witness(sig, family, signs)
    e2_idx, e3_idx = (int(np.argmax(np.abs(np.asarray(v)))) for v in witness.frame.vectors[1:])

    max_h = 0.0
    min_det = math.inf
    min_g11 = math.inf
    minimal_ok = True
    for lo, hi in BERNSTEIN_DOMAINS:
        surface = _witness_surface(family, witness, (lo, hi), (lo, hi))
        s_grid = np.linspace(lo, hi, BERNSTEIN_GRID)
        t_grid = np.linspace(lo, hi, BERNSTEIN_GRID)
        sweep = sweep_grid(sig, surface, s_grid, t_grid)
        min_det = min(min_det, float(sweep.det_g.min()))
        min_g11 = min(min_g11, float(sweep.g11.min()))
        report = sweep.minimality()
        max_h = max(max_h, report.max_h_norm)
        minimal_ok = minimal_ok and report.is_minimal
    # f = gamma t + x is exactly (t, s) on the graph axes, for every (s, t),
    # when gamma's terms there are (1, 0) and x's are (0, s)
    on_axes = [{key: c[k] for key, c in curve.terms.items() if c[k]}
               for k in (e2_idx, e3_idx) for curve in (surface.gamma, surface.base)]

    return BernsteinReport(
        sig=sig,
        signs=signs,
        domains=BERNSTEIN_DOMAINS,
        exists=True,
        entire_graph=on_axes == [{(0, 0): 1.0}, {}, {}, {(1, 0): 1.0}],
        graph_axes=(e2_idx, e3_idx),
        spacelike=min_det > 0 and min_g11 > 0,
        minimal=minimal_ok,
        planar=report.totally_geodesic,
        max_h_norm=max_h,
        min_det_g=min_det,
        min_g11=min_g11,
    )
