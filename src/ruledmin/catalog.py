"""Generators for the minimal families, plus their closed-form invariants.

Every generator emits the normalized representative of its family on an
exact integer frame supplied by the existence module, so downstream checks
(minimality, classification round trips, causal maps) run against honest
instances rather than hand-tuned data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .curves import CurveExpr
from .errors import NonExistenceError, UsageError
from .existence import (
    ExistenceResult,
    Verdict,
    admits_cylinder,
    existence_oracle,
)
from .families import (
    ADMISSIBLE_SIGNS,
    FRAME_FAMILIES,
    FamilyId,
    FrameSpec,
    SignChoice,
    validate_signs,
)
from .metric import Signature
from .surface import RuledSurface, sweep_grid

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


def pick_signs(sig: Signature, family: FamilyId) -> SignChoice | None:
    """First admissible sign choice realizable in sig, or None."""
    witness = _first_witness(sig, family)
    return None if witness is None else witness.signs


def _first_witness(sig: Signature, family: FamilyId) -> ExistenceResult | None:
    """The oracle's witness (sign choice and frame) for pick_signs' choice, or None."""
    for choice in ADMISSIBLE_SIGNS[family]:
        result = existence_oracle(sig, family, choice)
        if result.verdict is Verdict.WITNESS:
            return result
    return None


def _check_request(sig: Signature, family: FamilyId, signs: SignChoice | None) -> None:
    if sig.n < 3:
        raise UsageError("catalog surfaces need ambient dimension n >= 3")
    if signs is not None:
        validate_signs(family, signs)


def _witness(sig: Signature, family: FamilyId, signs: SignChoice | None) -> ExistenceResult:
    """The oracle's witness for a frame family and the given sign choice, or
    pick_signs' choice when signs is None; raises as generate does."""
    _check_request(sig, family, signs)
    if signs is None:
        result = _first_witness(sig, family)
        if result is None:
            raise NonExistenceError(existence_oracle(sig, family))
    else:
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
    return RuledSurface(
        gamma=surface.gamma.scaled(k),
        base=surface.base.scaled(k),
        s_domain=surface.s_domain,
        t_domain=surface.t_domain,
    )


# ---------------------------------------------------------------------------
# closed-form determinant of the first fundamental form


@dataclass(frozen=True)
class DetGForm:
    """det g as a polynomial in t (frame families) or a symbolic note."""

    family: FamilyId
    signs: SignChoice | None
    c2: float
    c1: float
    c0: float
    s_dependent: bool
    expression: str

    def value(self, t):
        if self.s_dependent:
            raise UsageError("this det g depends on s; sample the surface instead")
        t = np.asarray(t, dtype=float)
        return self.c2 * t * t + self.c1 * t + self.c0


def det_g_closed_form(family: FamilyId, signs: SignChoice | None = None) -> DetGForm:
    if family is FamilyId.MINIMAL_CYLINDER:
        return DetGForm(
            family=family,
            signs=None,
            c2=0.0,
            c1=0.0,
            c0=0.0,
            s_dependent=True,
            expression="-<gamma0, x'(s)>^2, strictly negative wherever defined",
        )
    if family is FamilyId.PLANE:
        raise UsageError(
            "the plane's det g is the product of its two axis squares and is "
            "not a (family, signs) closed form; sample the surface instead"
        )
    if signs is None:
        raise UsageError(f"{family.value} needs a sign choice")
    validate_signs(family, signs)
    s1, s2, s3 = signs.as_tuple()
    if family in (FamilyId.ELLIPTIC_HELICOID_1, FamilyId.HYPERBOLIC_HELICOID_1):
        return DetGForm(
            family, signs, float(s1 * s2), 0.0, float(s1 * s3), False,
            f"({s2}*t^2 + {s3}) * {s1}",
        )
    if family in (FamilyId.ELLIPTIC_HELICOID_2, FamilyId.HYPERBOLIC_HELICOID_2):
        return DetGForm(
            family, signs, float(s1 * s2), 0.0, 0.0, False, f"{s1 * s2}*t^2"
        )
    if family is FamilyId.PARABOLIC_HELICOID:
        # g11 = -4*s1*t and g22 = s1, so det g = -4t for either sign choice
        return DetGForm(family, signs, 0.0, -4.0, 0.0, False, "-4*t")
    # minimal hyperbolic paraboloid: constant s2*s3
    return DetGForm(
        family, signs, 0.0, 0.0, float(s2 * s3), False, f"{s2 * s3} (constant)"
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


def _closed_form_roots(form: DetGForm, lo: float, hi: float) -> list[float]:
    if form.c2 != 0.0:
        disc = form.c1 * form.c1 - 4.0 * form.c2 * form.c0
        if disc < 0.0:
            roots = []
        elif disc == 0.0:
            roots = [-form.c1 / (2.0 * form.c2)]
        else:
            r = math.sqrt(disc)
            roots = sorted(
                [(-form.c1 - r) / (2.0 * form.c2), (-form.c1 + r) / (2.0 * form.c2)]
            )
    elif form.c1 != 0.0:
        roots = [-form.c0 / form.c1]
    else:
        roots = []
    return [t for t in roots if lo < t < hi]


def causal_map(
    sig: Signature,
    family: FamilyId,
    signs: SignChoice | None = None,
    t_domain: tuple[float, float] | None = None,
) -> CausalRegionReport:
    """Split the t-domain by the sign of det g, cross-validated by sampling.

    Spacelike regions have det g > 0, timelike det g < 0; loci with det g = 0
    separate them. Cylinders (and planes) have a constant verdict.
    """
    t_domain = DEFAULT_T_DOMAIN if t_domain is None else t_domain
    if family in _FRAME_FAMILIES:
        witness = _witness(sig, family, signs)
        signs = witness.signs
        surface = _witness_surface(family, witness, DEFAULT_S_DOMAIN, t_domain)
        form = det_g_closed_form(family, signs)
        loci = _closed_form_roots(form, *surface.t_domain)
        expression = form.expression
        def verdict_at(t: float) -> str:
            return "spacelike" if form.value(t) > 0 else "timelike"
    else:
        surface = generate(sig, family, signs, t_domain=t_domain)
        loci = []
        expression = (
            "-<gamma0, x'(s)>^2 < 0"
            if family is FamilyId.MINIMAL_CYLINDER
            else "constant, from the plane axis squares"
        )
        verdict_at = None
    lo, hi = surface.t_domain

    s_grid = np.linspace(*surface.s_domain, CAUSAL_MAP_GRID)
    t_grid = np.linspace(lo, hi, CAUSAL_MAP_GRID)
    sweep = sweep_grid(sig, surface, s_grid, t_grid)

    regions: list[CausalRegion] = []
    cuts = [lo, *loci, hi]
    for a, b in zip(cuts[:-1], cuts[1:]):
        if verdict_at is not None:
            verdict = verdict_at(0.5 * (a + b))
        else:
            inside = (t_grid >= a) & (t_grid <= b)
            vals = sweep.det_g[:, inside]
            vals = vals[np.abs(vals) > DEG_BAND]
            verdict = "spacelike" if float(np.median(vals)) > 0 else "timelike"
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
        raise AssertionError(
            "sampled det g signs disagree with the closed-form regions"
        )
    return CausalRegionReport(
        sig=sig,
        family=family,
        signs=signs,
        t_domain=surface.t_domain,
        regions=regions,
        degenerate_loci=[float(t) for t in loci],
        constant=not loci and len(regions) == 1,
        cross_validated=True,
        expression=expression,
    )


# ---------------------------------------------------------------------------
# exact span degeneracy


class SpanType(Enum):
    DEGENERATE_SPAN = "degenerate-span"
    NONDEGENERATE_SPAN = "nondegenerate-span"


def _exact_rank(rows: list[list[Fraction]]) -> int:
    m = [row[:] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pr = m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / pr[col]
                m[r] = [a - factor * b for a, b in zip(m[r], pr)]
        rank += 1
        if rank == len(m):
            break
    return rank


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
    if _exact_rank(rows) != 3:
        raise UsageError("the three vectors must be linearly independent")
    w = [Fraction(-1) if i < sig.p else Fraction(1) for i in range(sig.n)]

    def ip(u, v):
        return sum(wi * a * b for wi, a, b in zip(w, u, v))

    g = [[ip(rows[i], rows[j]) for j in range(3)] for i in range(3)]
    det = (
        g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
        - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
        + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
    )
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
        if float(np.abs(sweep.f[..., e2_idx] - T).max()) > 1e-12:
            graph_ok = False
        if float(np.abs(sweep.f[..., e3_idx] - S).max()) > 1e-12:
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
