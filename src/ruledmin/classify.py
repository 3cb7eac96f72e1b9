"""Recognize which minimal family a ruled surface belongs to.

The pipeline is invariant-driven: constant ruling directions branch to the
cylinder test, everything else is reduced to the sign data (epsilon, eta,
delta, mu) of the normalized curves, placed in the six viable metric cases,
checked for minimality, and matched to a family. Inputs are expected in the
standard conventions (unit direction, vanishing mixed metric entry); the
errors say which normalization is missing.

Every per-s check (genericity, case invariants, structure equations,
cylinder test) reads one surface._RulingTables on the gauge's
surface.SCAN_POINTS s-grid, so a query samples each curve jet at most once
on it. Each of <gamma, gamma>, <gamma', gamma'>, <x', x'>, <gamma', x'> and
the gauge term <gamma, x'> is read once there, as one surface.ScalarProfile
that the gauge, the case invariants, the genericity scan and the cylinder
test all answer from. Whether a pairing is zero, constant or a unit is read
off its closed-form terms by one rule, a term c counting as zero when
|c| <= surface.H_TOL S, S the size of the products that formed it; so is
the shifted delta that makes a helicoid of the second kind. The samples
give the largest magnitudes and the zeros of a pairing that varies.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConventionError, EverywhereDegenerateError, UsageError
from .families import FamilyId
from .metric import Signature
from .surface import H_TOL, MinimalityReport, RuledSurface, ScalarProfile
from .surface import _checked_tol, _epsilon, _reading, _RulingTables, _scan, _shift, is_minimal

DEPENDENCE_TOL = 1e-10
STRUCTURE_TOL = 1e-8


# ---------------------------------------------------------------------------
# genericity scan


@dataclass
class GenericityReport:
    sig: Signature
    num_points: int
    profiles: dict
    dependence_switches: tuple[float, ...]

    @property
    def generic(self) -> bool:
        return all(p.clean for p in self.profiles.values()) and not self.dependence_switches


def genericity_scan(sig: Signature, surface: RuledSurface) -> GenericityReport:
    """Sample the four classifying invariants and flag sign changes.

    A surface is generic for classification when each of <gamma, gamma>,
    <gamma', gamma'>, <x', x'>, <gamma', x'> is either identically zero or
    nowhere zero on the scan grid, and gamma', x' never switch between
    linear dependence and independence. Isolated zeros mean the case label
    changes across the domain and the surface should be split first.
    """
    return _genericity(_scan(sig, surface))


def _genericity(scan: _RulingTables) -> GenericityReport:
    s = scan.s
    profiles = {
        "direction_norm": scan.profile("g0", "g0"),
        "direction_speed": scan.profile("g1", "g1"),
        "base_speed": scan.profile("x1", "x1"),
        "mixed_speed": scan.profile("g1", "x1"),
    }

    # 2x2 Euclidean Gram determinant of (gamma', x'), row-normalized so the
    # threshold is scale-free
    rows = np.stack([scan.jet("g1"), scan.jet("x1")], axis=1)  # (num, 2, n)
    norms = np.linalg.norm(rows, axis=2)
    safe = np.where(norms > 0, norms, 1.0)
    unit = rows / safe[:, :, None]
    gram = unit @ np.swapaxes(unit, 1, 2)
    dets = np.abs(np.linalg.det(gram))
    dependent = (dets < DEPENDENCE_TOL) | (norms.min(axis=1) == 0.0)
    switches = tuple(
        float(0.5 * (s[i] + s[i + 1]))
        for i in range(s.size - 1)
        if dependent[i] != dependent[i + 1]
    )
    return GenericityReport(
        sig=scan.sig, num_points=s.size, profiles=profiles, dependence_switches=switches
    )


# ---------------------------------------------------------------------------
# case invariants


@dataclass(frozen=True)
class CaseInvariants:
    """Sign data of a normalized non-cylindrical ruled surface.

    epsilon = <gamma, gamma>, eta = <gamma', gamma'>, delta = sign class of
    <x', x'> (delta_value holds the constant), mu is the profile of <gamma', x'>.
    """

    epsilon: int
    eta: int
    delta: int
    delta_value: float
    mu: ScalarProfile


def case_invariants(sig: Signature, surface: RuledSurface) -> CaseInvariants:
    """Extract (epsilon, eta, delta, mu) from a gauge-normalized surface.

    Raises UsageError for constant directions (use the cylinder branch),
    NullDirectionError when the direction curve is null but non-constant,
    and ConventionError when a normalization is missing.
    """
    return _case_invariants(_scan(sig, surface))


def _case_invariants(scan: _RulingTables) -> CaseInvariants:
    if scan.surface.gamma.is_constant():
        raise UsageError("the ruling direction is constant; classify with cylinder_check")
    epsilon = _epsilon(scan)
    if not scan.profile("g0", "x1").identically_zero:
        raise ConventionError("<gamma, x'> does not vanish; apply gauge_normalize before classification")

    eta = scan.unit("g1", "g1")
    if eta is None:
        raise ConventionError(
            f"<gamma', gamma'> = {scan.constant('g1', 'g1')!r}; the normal form needs the "
            "direction curve at constant speed 0 or +-1"
        )

    delta_value = scan.constant("x1", "x1")
    if eta == 0 and scan.unit("x1", "x1") is None:
        raise ConventionError(
            f"<x', x'> = {delta_value!r}; with a null direction derivative "
            "the base speed normalizes to 0 or +-1"
        )
    return CaseInvariants(epsilon, eta, int(np.sign(delta_value)), delta_value, scan.profile("g1", "x1"))


# ---------------------------------------------------------------------------
# metric cases


class CaseLabel(Enum):
    CYLINDER = "cylinder"
    CASE_I = "i"
    CASE_II = "ii"
    CASE_III = "iii"
    CASE_IV = "iv"
    CASE_V = "v"
    CASE_VI = "vi"
    CASE_VII_EXCLUDED = "vii"


def table1_case(inv: CaseInvariants) -> CaseLabel:
    """Place the invariants in the seven-way split of the induced metric.

    The split is by (eta, delta, mu): cases i-iii have eta = +-1, iv-vii have
    eta = 0. Case vii (eta = delta = mu = 0) makes g11 vanish identically and
    is excluded from classification.
    """
    mu_zero = inv.mu.identically_zero
    if inv.eta != 0:
        if inv.delta == 0:
            return CaseLabel.CASE_II
        return CaseLabel.CASE_I if mu_zero else CaseLabel.CASE_III
    if inv.delta != 0:
        return CaseLabel.CASE_IV if not mu_zero else CaseLabel.CASE_V
    return CaseLabel.CASE_VI if not mu_zero else CaseLabel.CASE_VII_EXCLUDED


# ---------------------------------------------------------------------------
# cylinders


class CylinderVerdict(Enum):
    PLANE = "plane"
    MINIMAL_CYLINDER = "minimal-cylinder"
    NOT_MINIMAL = "not-minimal"


@dataclass
class CylinderReport:
    verdict: CylinderVerdict
    direction_null: bool
    base_null: bool
    min_pairing: float
    max_h_norm: float
    note: str


def cylinder_check(sig: Signature, surface: RuledSurface) -> CylinderReport:
    """Decide plane / minimal cylinder / not minimal for constant directions.

    The only non-planar minimal cylinders have a null direction and a
    nowhere-zero pairing <gamma0, x'>; the slide rho' = -<x', x'> / (2 <gamma0,
    x'>) along the rulings then makes the base null and keeps the point set.
    """
    if not surface.gamma.is_constant():
        raise UsageError("cylinder_check expects a constant ruling direction")
    return _cylinder_check(_scan(sig, surface), H_TOL)


def _cylinder_check(scan: _RulingTables, h_tol: float) -> CylinderReport:
    direction_null = scan.profile("g0", "g0").identically_zero
    base_null = scan.profile("x1", "x1").identically_zero
    pairing = scan.profile("g0", "x1")  # its zeros: one term's, or sampled ones and sign changes
    nowhere_zero = not pairing.identically_zero and not pairing.isolated_zeros
    min_pairing = float(np.abs(scan.ip("g0", "x1")).min())

    report = is_minimal(scan.sig, scan.surface, tol=h_tol)
    if report.is_minimal and report.totally_geodesic:
        verdict = CylinderVerdict.PLANE
        note = "totally geodesic: the surface lies in a plane"
    elif report.is_minimal and direction_null and nowhere_zero:
        verdict = CylinderVerdict.MINIMAL_CYLINDER
        note = "null direction with nowhere-zero <gamma, x'>; a slide along the rulings makes the base null"
    elif report.is_minimal:
        verdict = CylinderVerdict.NOT_MINIMAL
        note = "mean curvature vanishes on the grid but the null-cylinder structure checks fail; treat as unresolved"
    else:
        verdict = CylinderVerdict.NOT_MINIMAL
        note = f"H numerator residual {report.residual:.3e} exceeds {h_tol:.1e}"
    return CylinderReport(verdict, direction_null, base_null, min_pairing, report.max_h_norm, note)


# ---------------------------------------------------------------------------
# structure equations


@dataclass
class StructureReport:
    eta: int
    max_direction_residual: float
    max_base_residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return max(self.max_direction_residual, self.max_base_residual) <= self.tol


def verify_structure_odes(sig: Signature, surface: RuledSurface) -> StructureReport:
    """Residuals of the curve equations every normalized minimal case obeys.

    eta = +-1: gamma'' + eps * eta * gamma = 0; eta = 0: gamma'' = 0. In all
    cases the base satisfies x'' = eps <gamma, x''> gamma (x'' is parallel to
    the ruling direction).
    """
    scan = _scan(sig, surface)
    return _structure(scan, _case_invariants(scan))


def _structure(scan: _RulingTables, inv: CaseInvariants) -> StructureReport:
    g0, g2, x2 = scan.jet("g0"), scan.jet("g2"), scan.jet("x2")
    if inv.eta != 0:
        dir_res = g2 + (inv.epsilon * inv.eta) * g0
    else:
        dir_res = g2
    coeff = inv.epsilon * scan.ip("g0", "x2")
    base_res = x2 - coeff[:, None] * g0
    return StructureReport(
        eta=inv.eta,
        max_direction_residual=float(np.linalg.norm(dir_res, axis=1).max()),
        max_base_residual=float(np.linalg.norm(base_res, axis=1).max()),
        tol=STRUCTURE_TOL,
    )


# ---------------------------------------------------------------------------
# the classifier


@dataclass
class ClassificationResult:
    sig: Signature
    family: FamilyId | None
    case_label: CaseLabel | None
    reported_case: CaseLabel | None
    invariants: CaseInvariants | None
    minimality: MinimalityReport | None
    genericity: GenericityReport | None
    structure: StructureReport | None = None
    diagnosis: str | None = None
    notes: list = field(default_factory=list)

    @property
    def recognized(self) -> bool:
        return self.family is not None


def identify_family(
    sig: Signature, surface: RuledSurface, h_tol: float = H_TOL
) -> ClassificationResult:
    """Match a ruled surface against the classified minimal families.

    Returns the family together with the metric case the input realizes and
    the case its normal form reports after ruling-line shifts. Unrecognized
    inputs come back with family None and a diagnosis string instead.
    UsageError when h_tol is not a finite number >= 0.
    """
    _checked_tol("h_tol", h_tol)
    notes: list[str] = []
    scan = _scan(sig, surface)

    if surface.gamma.is_constant():
        cyl = _cylinder_check(scan, h_tol)
        family = {
            CylinderVerdict.PLANE: FamilyId.PLANE, CylinderVerdict.MINIMAL_CYLINDER: FamilyId.MINIMAL_CYLINDER
        }.get(cyl.verdict)
        return ClassificationResult(
            sig=sig, family=family, case_label=CaseLabel.CYLINDER, reported_case=CaseLabel.CYLINDER,
            invariants=None, minimality=None, genericity=None,
            diagnosis=None if family is not None else cyl.note, notes=[cyl.note] if family is not None else [],
        )

    if not scan.profile("g0", "x1").identically_zero:
        # the gauge moves only the base, so gamma's samples and pairings carry over
        surface = _shift(scan)[2]
        scan = scan.with_base(surface)
        notes.append("base curve replaced by its gauge normalization")

    genericity = _genericity(scan)
    if not genericity.generic:
        notes.append(
            "invariants change type inside the domain; the classification "
            "applies to its generic part"
        )

    minimality = None
    try:
        inv = _case_invariants(scan)
    except ConventionError:
        # a normalization that varies is a convention breach only when the
        # surface may be minimal; one decided not minimal gets that verdict
        with contextlib.suppress(EverywhereDegenerateError):
            minimality = is_minimal(sig, surface, tol=h_tol)
        if minimality is None or minimality.is_minimal:
            raise
        inv = None
    raw_case = None if inv is None else table1_case(inv)

    family = reported = structure = diagnosis = None
    if raw_case is CaseLabel.CASE_VII_EXCLUDED:
        diagnosis = (
            "the induced metric vanishes identically (eta = delta = mu = 0); "
            "no surface geometry to classify"
        )
    # is_minimal runs here unless the ConventionError fallback above ran it
    elif not (minimality := minimality or is_minimal(sig, surface, tol=h_tol)).is_minimal:
        diagnosis = (
            f"not minimal: H numerator residual {minimality.residual:.3e} exceeds {h_tol:.1e}"
        )
    elif minimality.totally_geodesic:
        family, reported = FamilyId.PLANE, raw_case
        notes.append("totally geodesic: the surface lies in a plane")
    elif inv.mu.value is None:
        diagnosis = (
            "minimal but <gamma', x'> is not constant; the input violates "
            "the normalized-structure assumptions"
        )
    else:
        # with eta != 0 a shift along the rulings kills mu and moves delta to
        # delta~ = delta - eta mu^2, which vanishes for the second kind
        mu = scan.sized("g1", "x1")
        second_kind_or_mu_zero = (
            _reading(scan.sized("x1", "x1") - mu * mu * inv.eta).is_zero
            if inv.eta != 0
            else inv.mu.identically_zero
        )
        family, reported = {
            (1, False): (FamilyId.ELLIPTIC_HELICOID_1, CaseLabel.CASE_I),
            (1, True): (FamilyId.ELLIPTIC_HELICOID_2, CaseLabel.CASE_II),
            (-1, False): (FamilyId.HYPERBOLIC_HELICOID_1, CaseLabel.CASE_I),
            (-1, True): (FamilyId.HYPERBOLIC_HELICOID_2, CaseLabel.CASE_II),
            (0, False): (FamilyId.PARABOLIC_HELICOID, CaseLabel.CASE_IV),
            (0, True): (FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID, CaseLabel.CASE_V),
        }[inv.epsilon * inv.eta, second_kind_or_mu_zero]
        if raw_case is CaseLabel.CASE_VI:
            notes.append("case vi input; a ruling-line shift makes the base speed +-1 (case iv)")
        elif reported is not raw_case:
            notes.append(
                f"case {raw_case.value} input; a ruling-line shift "
                f"normalizes it to case {reported.value}"
            )
        structure = _structure(scan, inv)
        if not structure.ok:
            notes.append(
                "structure-equation residuals are larger than expected "
                f"({structure.max_direction_residual:.2e}, "
                f"{structure.max_base_residual:.2e}); treat the match as numerical"
            )

    return ClassificationResult(
        sig=sig, family=family, case_label=raw_case, reported_case=reported, invariants=inv,
        minimality=minimality, genericity=genericity, structure=structure, diagnosis=diagnosis, notes=notes,
    )
