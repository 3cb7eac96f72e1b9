"""Which families exist in which signature, with certificates either way.

The decision criterion: an orthogonal set with a vectors of square +1,
b of square -1 and c null vectors (all independent) embeds in R^n_p
exactly when b + c <= p and a + c <= n - p. Necessity is a dimension
count (the -1 and null vectors span a negative semidefinite subspace,
which fits only below dimension p; mirror for the positive side).
Sufficiency is the explicit frame builder below, which pairs each null
slot with one unused timelike and one unused spacelike axis.

Non-existence answers carry one of three certificate kinds, each with a
premise on (sig, family, pattern) in one table, strongest first: the
neutral-signature quadratic contradiction (dimension 4, index 2, second-kind
elliptic frame), the index-one argument (a null vector orthogonal to a
timelike one must vanish when p = 1), and the bare dimension count. The
oracle issues the first kind whose premise holds. replay_certificate checks a
certificate from its own content, never asking the oracle, and turns it into
a proof trace whose algebraic steps are machine-checked in exact integers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum

from .errors import NoWitnessError, UsageError
from .families import (
    ADMISSIBLE_SIGNS,
    TABLE_FAMILIES,
    FamilyId,
    FrameSpec,
    NormPattern,
    SignChoice,
    pattern_of_signs,
    validate_signs,
)
from .metric import Signature


def admits_pattern(sig: Signature, pattern: NormPattern) -> bool:
    """True when a frame with the given norm pattern exists in sig."""
    return pattern.b + pattern.c <= sig.p and pattern.a + pattern.c <= sig.n - sig.p


def _axis(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def _pair(n: int, i: int, j: int) -> tuple[int, ...]:
    return tuple(1 if k in (i, j) else 0 for k in range(n))


def frame_for_signs(sig: Signature, signs: SignChoice) -> FrameSpec:
    """Deterministic integer frame realizing the sign choice, in order.

    Axes are consumed in index order: timelike coordinates first (1..p),
    then spacelike. A +1 slot takes the next spacelike axis, a -1 slot the
    next timelike axis, and a null slot the sum of the next axes of each
    kind.
    """
    pattern = pattern_of_signs(signs)
    if not admits_pattern(sig, pattern):
        raise NoWitnessError(
            f"pattern (a,b,c) = ({pattern.a},{pattern.b},{pattern.c}) does not "
            f"fit in R^{sig.n}_{sig.p}"
        )
    next_t, next_s = 0, sig.p
    vectors = []
    for sgn in signs.as_tuple():
        if sgn == 1:
            vectors.append(_axis(sig.n, next_s))
            next_s += 1
        elif sgn == -1:
            vectors.append(_axis(sig.n, next_t))
            next_t += 1
        else:
            vectors.append(_pair(sig.n, next_t, next_s))
            next_t += 1
            next_s += 1
    return FrameSpec(sig=sig, vectors=tuple(vectors), signs=signs.as_tuple())


def find_witness(sig: Signature, pattern: NormPattern) -> FrameSpec:
    """Integer witness frame for a norm pattern: +1 slots, then -1, then null."""
    if pattern.total != 3:
        raise UsageError("find_witness builds 3-frames; give a pattern with total 3")
    signs = SignChoice(*([1] * pattern.a + [-1] * pattern.b + [0] * pattern.c))
    return frame_for_signs(sig, signs)


# ---------------------------------------------------------------------------
# certificates and results


class CertificateKind(Enum):
    DIMENSION_COUNT = "DimensionCountObstruction"
    INDEX_ONE_NULL_ORTHOGONAL = "IndexOneNullOrthogonalObstruction"
    NEUTRAL_QUADRATIC = "NeutralQuadraticContradiction"


@dataclass(frozen=True)
class Certificate:
    kind: CertificateKind
    sig: Signature
    family: FamilyId | None
    pattern: NormPattern | None
    violated: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "signature": {"n": self.sig.n, "p": self.sig.p},
            "family": self.family.value if self.family else None,
            "pattern": None
            if self.pattern is None
            else {"a": self.pattern.a, "b": self.pattern.b, "c": self.pattern.c},
            "violated": self.violated,
        }


class Verdict(Enum):
    WITNESS = "Witness"
    NON_EXISTENCE = "NonExistence"
    INADMISSIBLE = "Inadmissible"


@dataclass(frozen=True)
class CylinderWitness:
    """Null direction paired with a null curve velocity, pairing non-zero."""

    direction: tuple[int, ...]
    partner: tuple[int, ...]
    pairing: int
    axes: tuple[int, ...]
    mirrored: bool


@dataclass
class ExistenceResult:
    sig: Signature
    family: FamilyId | None
    verdict: Verdict
    signs: SignChoice | None = None
    frame: FrameSpec | None = None
    cylinder: CylinderWitness | None = None
    certificate: Certificate | None = None
    per_sign: list = field(default_factory=list)  # (SignChoice, bool, Certificate|None)
    note: str = ""

    @property
    def exists(self) -> bool:
        return self.verdict is Verdict.WITNESS


def _violated(sig: Signature, pattern: NormPattern | None) -> str:
    """The inequality a pattern breaks; pattern=None is the cylinder's null pair."""
    if pattern is None:
        missing = []
        if sig.p < 1:
            missing.append(f"p = {sig.p} < 1 (no null directions at all)")
        if sig.n - sig.p < 1:
            missing.append(f"n - p = {sig.n - sig.p} < 1")
        if sig.n < 3:
            missing.append(f"n = {sig.n} < 3")
        return "; ".join(missing)
    if pattern.b + pattern.c > sig.p:
        return (
            f"b + c = {pattern.b + pattern.c} > p = {sig.p} "
            f"(negative semidefinite span exceeds the index)"
        )
    return (
        f"a + c = {pattern.a + pattern.c} > n - p = {sig.n - sig.p} "
        f"(positive semidefinite span exceeds the co-index)"
    )


# Which obstruction applies to (sig, family, pattern), strongest first. Every
# kind also needs the pattern not to fit, which replay checks for all of them,
# so the dimension count needs nothing more.
_OBSTRUCTIONS = (
    (CertificateKind.NEUTRAL_QUADRATIC,
     lambda sig, fam, pat: (sig.n, sig.p) == (4, 2) and fam is FamilyId.ELLIPTIC_HELICOID_2),
    (CertificateKind.INDEX_ONE_NULL_ORTHOGONAL,
     lambda sig, fam, pat: sig.p == 1 and pat is not None and pat.b >= 1 and pat.c >= 1),
    (CertificateKind.DIMENSION_COUNT, lambda sig, fam, pat: True),
)


def _certificate_for(
    sig: Signature, family: FamilyId | None, pattern: NormPattern | None
) -> Certificate:
    kind = next(k for k, holds in _OBSTRUCTIONS if holds(sig, family, pattern))
    return Certificate(
        kind=kind,
        sig=sig,
        family=family,
        pattern=pattern,
        violated=_violated(sig, pattern),
    )


def cylinder_axes(sig: Signature) -> tuple[tuple[int, ...], bool] | None:
    """Axis indices for the canonical cylinder, or None when impossible.

    Returns ((i_t, i_a, i_b), mirrored). Unmirrored uses one timelike axis
    and two spacelike; the mirrored variant (for signatures rich in negative
    squares) uses two timelike and one spacelike.
    """
    n, p = sig.n, sig.p
    if n < 3 or p < 1 or n - p < 1:
        return None
    if n - p >= 2:
        return (0, p, p + 1), False
    return (0, 1, p), True


def admits_cylinder(sig: Signature) -> ExistenceResult:
    """Cylinders over null curves need a timelike and a spacelike direction.

    Requirement: p >= 1 and n - p >= 1 and n >= 3 (a null ruling direction
    plus a null base curve with non-vanishing pairing do not fit in less).
    """
    axes = cylinder_axes(sig)
    if axes is None:
        return ExistenceResult(
            sig=sig,
            family=FamilyId.MINIMAL_CYLINDER,
            verdict=Verdict.NON_EXISTENCE,
            certificate=_certificate_for(sig, FamilyId.MINIMAL_CYLINDER, None),
            note="no null pair with non-zero pairing in this signature",
        )
    chosen, mirrored = axes
    n, p = sig.n, sig.p
    # the null pair always lives on the first timelike and first spacelike axis
    direction = _pair(n, 0, p)
    partner = tuple(1 if j == 0 else (-1 if j == p else 0) for j in range(n))
    pairing = -2
    witness = CylinderWitness(
        direction=direction,
        partner=partner,
        pairing=pairing,
        axes=chosen,
        mirrored=mirrored,
    )
    return ExistenceResult(
        sig=sig,
        family=FamilyId.MINIMAL_CYLINDER,
        verdict=Verdict.WITNESS,
        cylinder=witness,
        note=(
            "null direction with exponentially paired null base curve; "
            "see the catalog generator for the full surface"
        ),
    )


def existence_oracle(
    sig: Signature, family: FamilyId, signs: SignChoice | None = None
) -> ExistenceResult:
    """Witness or certificate for one family, per sign choice or aggregated."""
    if sig.n < 3:
        raise UsageError("existence questions need ambient dimension n >= 3")
    if signs is not None:
        try:
            validate_signs(family, signs)
        except UsageError as exc:
            return ExistenceResult(
                sig=sig,
                family=family,
                verdict=Verdict.INADMISSIBLE,
                signs=signs,
                note=str(exc),
            )
    if family is FamilyId.PLANE:
        return ExistenceResult(
            sig=sig,
            family=family,
            verdict=Verdict.WITNESS,
            note="planes exist in every signature (any non-degenerate 2-plane)",
        )
    if family is FamilyId.MINIMAL_CYLINDER:
        return admits_cylinder(sig)

    choices = ADMISSIBLE_SIGNS[family] if signs is None else (signs,)
    per_sign: list = []
    first_frame: FrameSpec | None = None
    first_signs: SignChoice | None = None
    for choice in choices:
        pattern = pattern_of_signs(choice)
        if admits_pattern(sig, pattern):
            frame = frame_for_signs(sig, choice)
            per_sign.append((choice, True, None))
            if first_frame is None:
                first_frame = frame
                first_signs = choice
        else:
            per_sign.append((choice, False, _certificate_for(sig, family, pattern)))

    if first_frame is not None:
        return ExistenceResult(
            sig=sig,
            family=family,
            verdict=Verdict.WITNESS,
            signs=first_signs,
            frame=first_frame,
            per_sign=per_sign,
            note="frame built by deterministic axis allocation",
        )
    # the first certificate of the strongest kind speaks for the family
    certs = [cert for _, _, cert in per_sign if cert is not None]
    best = next(c for kind, _ in _OBSTRUCTIONS for c in certs if c.kind is kind)
    return ExistenceResult(
        sig=sig,
        family=family,
        verdict=Verdict.NON_EXISTENCE,
        signs=signs,
        certificate=best,
        per_sign=per_sign,
        note="no admissible sign choice fits this signature",
    )


# ---------------------------------------------------------------------------
# proof traces


@dataclass
class TraceStep:
    statement: str
    data: dict | None = None

    def to_dict(self) -> dict:
        out = {"statement": self.statement}
        if self.data:
            out["data"] = self.data
        return out


@dataclass
class ProofTrace:
    kind: CertificateKind
    steps: list[TraceStep]
    conclusion: str
    exact: bool = True

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "steps": [s.to_dict() for s in self.steps],
            "conclusion": self.conclusion,
            "exact": self.exact,
        }


# tiny exact polynomial arithmetic over the integers; monomials are exponent
# tuples, e.g. {(1, 0): 2, (0, 2): -1} is 2*u - v^2
def _pvar(i: int, nvars: int) -> dict:
    mono = tuple(1 if j == i else 0 for j in range(nvars))
    return {mono: 1}


def _pmul(p1: dict, p2: dict) -> dict:
    out: dict = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def _padd(*ps: dict) -> dict:
    out: dict = {}
    for p in ps:
        for m, c in p.items():
            cc = out.get(m, 0) + c
            if cc:
                out[m] = cc
            else:
                out.pop(m, None)
    return out


def _pscale(p: dict, c: int) -> dict:
    return {m: c * v for m, v in p.items()} if c else {}


def _lagrange_identity_holds() -> bool:
    # (b^2+c^2)(y^2+z^2) - (b*y+c*z)^2 - (b*z-c*y)^2 == 0 in Z[b,c,y,z]
    b, c, y, z = (_pvar(i, 4) for i in range(4))
    sq = lambda p: _pmul(p, p)
    lhs = _pmul(_padd(sq(b), sq(c)), _padd(sq(y), sq(z)))
    by_cz = _padd(_pmul(b, y), _pmul(c, z))
    bz_cy = _padd(_pmul(b, z), _pscale(_pmul(c, y), -1))
    rest = _padd(_pscale(sq(by_cz), -1), _pscale(sq(bz_cy), -1))
    return not _padd(lhs, rest)


def _index_one_identity_holds(sig: Signature) -> bool:
    # <v, v> from the signature's weights, with v_1 = 0 substituted, equals
    # v_2^2 + ... + v_n^2 exactly when v_1 is the only timelike coordinate
    vs = [_pvar(i, sig.n) for i in range(sig.n)]
    q = _padd(*(_pscale(_pmul(v, v), int(w)) for v, w in zip(vs, sig.weights())))
    q = {m: c for m, c in q.items() if m[0] == 0}  # v_1 = 0 kills every v_1 monomial
    euclid = _padd(*(_pmul(v, v) for v in vs[1:]))
    return not _padd(q, _pscale(euclid, -1))


def replay_certificate(
    sig: Signature, family: FamilyId, cert: Certificate
) -> ProofTrace:
    """Re-derive a non-existence certificate as a machine-checked trace.

    The check reads nothing but (sig, family) and the certificate itself:
    its pattern must not fit sig and must be one the family asks for, its
    fields must name sig, family and the recomputed inequality, and the
    premise of its kind must hold. Anything else is a usage error, not a
    refutation.
    """
    pat = cert.pattern
    here = f"R^{sig.n}_{sig.p}"
    what = f"pattern (a,b,c) = ({pat.a},{pat.b},{pat.c})" if pat else "the cylinder's null pair"
    fits = admits_pattern(sig, pat) if pat is not None else cylinder_axes(sig) is not None
    if fits:
        raise UsageError(f"{what} fits in {here}, so it exists in {here}; nothing to replay")
    cylinder = family is FamilyId.MINIMAL_CYLINDER
    wanted = (None,) if cylinder else tuple(map(pattern_of_signs, ADMISSIBLE_SIGNS[family]))
    if pat not in wanted:
        raise UsageError(f"{what} is no sign choice of {family.value}")
    if (cert.sig, cert.family, cert.violated) != (sig, family, _violated(sig, pat)):
        raise UsageError(
            f"certificate names {cert.family}, {cert.sig} and {cert.violated!r}, "
            f"not {family.value} in {here}"
        )
    if not dict(_OBSTRUCTIONS)[cert.kind](sig, family, pat):
        raise UsageError(f"{cert.kind.value} does not apply to {family.value} in {here}")

    if cert.kind is CertificateKind.NEUTRAL_QUADRATIC:
        if not _lagrange_identity_holds():
            raise AssertionError("exact polynomial identity check failed")
        steps = [
            TraceStep(
                "second-kind elliptic frame in R^4_2: e1, e2 with the same "
                "squared norm -1 and e3 null, pairwise orthogonal; normalize "
                "e2 = (1,0,0,0), so the orthogonal complement carries "
                "coordinates (u2,u3,u4) with squares (-,+,+)",
                {"sign_choice": [-1, -1, 0]},
            ),
            TraceStep(
                "write e1 = (a,b,c) and e3 = (x,y,z) in complement coordinates; "
                "the frame conditions become three equations",
                {
                    "unit": "-a^2 + b^2 + c^2 = -1",
                    "null": "-x^2 + y^2 + z^2 = 0",
                    "orthogonal": "-a*x + b*y + c*z = 0",
                },
            ),
            TraceStep(
                "x != 0: otherwise the null equation gives y^2 + z^2 = 0, "
                "so e3 = 0, contradicting null (non-zero)"
            ),
            TraceStep("solve the orthogonality equation: a = (b*y + c*z)/x"),
            TraceStep(
                "exact integer expansion verifies the Lagrange identity "
                "(b^2+c^2)(y^2+z^2) - (b*y+c*z)^2 = (b*z-c*y)^2",
                {"expansion_verified": True},
            ),
            TraceStep(
                "substitute the null relation x^2 = y^2 + z^2: "
                "-a^2 + b^2 + c^2 = ((b*z - c*y)/x)^2"
            ),
            TraceStep(
                "the unit equation forces ((b*z - c*y)/x)^2 = -1, "
                "a real square equal to -1"
            ),
            TraceStep(
                "the mirrored sign choice (+1,+1,0) reduces to the same "
                "system after flipping the overall sign of the pairing"
            ),
        ]
        return ProofTrace(
            kind=cert.kind,
            steps=steps,
            conclusion="((b*z - c*y)/x)^2 = -1 has no real solution; no such frame exists",
        )

    if cert.kind is CertificateKind.INDEX_ONE_NULL_ORTHOGONAL:
        if not _index_one_identity_holds(sig):
            raise AssertionError("exact polynomial identity check failed")
        pat = cert.pattern
        steps = [
            TraceStep(
                "the signature has index 1: a single negative square",
                {"n": sig.n, "p": sig.p},
            ),
            TraceStep(
                "the pattern pairs a timelike frame vector e with a null frame "
                "vector v, orthogonal to each other",
                None
                if pat is None
                else {"pattern": {"a": pat.a, "b": pat.b, "c": pat.c}},
            ),
            TraceStep(
                "normalize e = (1, 0, ..., 0) by an isometry; <e, e> = -1"
            ),
            TraceStep("<v, e> = -v_1 = 0 forces v_1 = 0"),
            TraceStep(
                "with v_1 = 0 the square <v, v> is the Euclidean sum "
                "v_2^2 + ... + v_n^2 (exact identity, index one)",
                {"identity_verified": True},
            ),
            TraceStep("null v then has every component zero"),
        ]
        return ProofTrace(
            kind=cert.kind,
            steps=steps,
            conclusion="e3 = 0 contradicts null (non-zero)",
        )

    steps = [
        TraceStep(
            "orthogonal vectors with squared norms in {-1, 0} span a negative "
            "semidefinite subspace, whose dimension is at most the index p; "
            "mirrored, squares in {+1, 0} fit below n - p"
        ),
        TraceStep(
            "count the requested pattern against the signature",
            {
                "pattern": None
                if pat is None
                else {"a": pat.a, "b": pat.b, "c": pat.c},
                "n": sig.n,
                "p": sig.p,
                "inequality_verified": True,
            },
        ),
    ]
    return ProofTrace(
        kind=cert.kind,
        steps=steps,
        conclusion=f"violated: {cert.violated}",
    )


# ---------------------------------------------------------------------------
# the existence table


@dataclass(frozen=True)
class TableRow:
    label: str
    representatives: tuple[Signature, ...]
    cells: tuple[bool, ...]  # one per family in TABLE_FAMILIES order


ROW_SPECS: tuple[tuple[str, tuple[tuple[int, int], ...]], ...] = (
    ("R^n_0 (n >= 3)", ((3, 0), (4, 0), (5, 0))),
    ("R^3_1", ((3, 1),)),
    ("R^4_1", ((4, 1),)),
    ("R^4_2", ((4, 2),)),
    ("R^n_1 (n >= 5)", ((5, 1), (6, 1))),
    ("R^n_p (n >= 5, 2 <= p <= n/2)", ((5, 2), (6, 2), (6, 3))),
)


def cells_for(sig: Signature) -> tuple[bool, ...]:
    return tuple(
        existence_oracle(sig, fam).verdict is Verdict.WITNESS
        for fam in TABLE_FAMILIES
    )


def existence_table() -> list[TableRow]:
    """Six rows covering every signature class, constant across representatives."""
    rows = []
    for label, reps in ROW_SPECS:
        sigs = tuple(Signature(n, p) for n, p in reps)
        all_cells = [cells_for(s) for s in sigs]
        for other in all_cells[1:]:
            if other != all_cells[0]:
                raise AssertionError(
                    f"row {label!r} is not constant across its representatives"
                )
        rows.append(TableRow(label=label, representatives=sigs, cells=all_cells[0]))
    return rows


# ---------------------------------------------------------------------------
# randomized integer cross-check


@dataclass
class SearchResult:
    sig: Signature
    pattern: NormPattern
    found: bool
    trials: int
    seed: int
    first_success: int | None
    note: str


# Each slot of the search draws up to this many vectors, with coordinates in
# [-SEARCH_COORD_BOUND, SEARCH_COORD_BOUND].
SEARCH_SAMPLES_PER_SLOT = 6
SEARCH_COORD_BOUND = 4


def _int_square(v: list[int], p: int) -> int:
    return sum(x * x for x in v[p:]) - sum(x * x for x in v[:p])


def _int_pairing(u: list[int], v: list[int], p: int) -> int:
    return sum(a * b for a, b in zip(u[p:], v[p:])) - sum(
        a * b for a, b in zip(u[:p], v[:p])
    )


def _gcd_reduce(v: list[int]) -> list[int]:
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    return [x // g for x in v] if g > 1 else v


def brute_force_cross_check(
    sig: Signature,
    pattern: NormPattern,
    trials: int = 1000,
    seed: int = 0,
) -> SearchResult:
    """Seeded random search for the pattern, in exact integer arithmetic.

    Strategy: collect a + c mutually orthogonal integer vectors of positive
    square and b + c of negative square (orthogonalized by exact integer
    projections). Positive/negative members rescale to +-1 over the reals;
    each null slot is realized exactly by sqrt(-q(w)) * v + sqrt(q(v)) * w
    from one unused positive v and one unused negative w. A found pool is
    therefore a genuine witness; finding none proves nothing.

    Trial i uses its own generator seeded from (seed, i), so partitioning
    trials across workers cannot change the outcome.
    """
    n, p = sig.n, sig.p
    npos = pattern.a + pattern.c
    nneg = pattern.b + pattern.c
    samples_per_slot, coord_bound = SEARCH_SAMPLES_PER_SLOT, SEARCH_COORD_BOUND
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        targets = [1] * npos + [-1] * nneg
        rng.shuffle(targets)
        frame: list[list[int]] = []
        complete = True
        for tgt in targets:
            placed = False
            for _ in range(samples_per_slot):
                v = [rng.randint(-coord_bound, coord_bound) for _ in range(n)]
                for u in frame:
                    qu = _int_square(u, p)
                    bu = _int_pairing(v, u, p)
                    v = [qu * vi - bu * ui for vi, ui in zip(v, u)]
                    v = _gcd_reduce(v)
                if not any(v):
                    continue
                q = _int_square(v, p)
                if (q > 0 and tgt > 0) or (q < 0 and tgt < 0):
                    frame.append(v)
                    placed = True
                    break
            if not placed:
                complete = False
                break
        if complete:
            return SearchResult(
                sig=sig,
                pattern=pattern,
                found=True,
                trials=trial + 1,
                seed=seed,
                first_success=trial,
                note=(
                    "orthogonal integer pools found; nulls realized exactly by "
                    "positive/negative pair combinations"
                ),
            )
    return SearchResult(
        sig=sig,
        pattern=pattern,
        found=False,
        trials=trials,
        seed=seed,
        first_success=None,
        note="no witness found; the search is inconclusive on its own",
    )
