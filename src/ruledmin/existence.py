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

from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral

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
from .metric import Signature, gram_matrix, inner_product


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
    witness = CylinderWitness(
        direction=direction,
        partner=partner,
        pairing=inner_product(sig, direction, partner),
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

    per_sign: list = []
    for choice in ADMISSIBLE_SIGNS[family] if signs is None else (signs,):
        pattern = pattern_of_signs(choice)
        fits = admits_pattern(sig, pattern)
        per_sign.append((choice, fits, None if fits else _certificate_for(sig, family, pattern)))

    # the first sign choice that fits is the witness, and the only one framed
    first = next((choice for choice, fits, _ in per_sign if fits), None)
    if first is not None:
        return ExistenceResult(
            sig=sig,
            family=family,
            verdict=Verdict.WITNESS,
            signs=first,
            frame=frame_for_signs(sig, first),
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


def _lagrange_identity_holds() -> bool:
    """(b^2+c^2)(y^2+z^2) - (b*y+c*z)^2 - (b*z-c*y)^2 == 0 in Z[b,c,y,z].

    Decided by Kronecker substitution, one integer: at b, c, y, z = B, B^3,
    B^9, B^27 a monomial b^i c^j y^k z^l of the expansion, every exponent
    at most 2, lands on B^(i + 3j + 9k + 27l), whose base-3 digits are
    (i, j, k, l), so no two monomials share a power of B. The expanded
    coefficients add up to 12 in absolute value, below B/2, so each
    collected coefficient is one balanced base-B digit of the value, which
    is 0 exactly when every coefficient is.
    """
    B = 2**16
    b, c, y, z = B, B**3, B**9, B**27
    return (b * b + c * c) * (y * y + z * z) - (b * y + c * z) ** 2 - (b * z - c * y) ** 2 == 0


def _index_one_identity_holds(sig: Signature) -> bool:
    # with v_1 = 0, <v, v> is the sum of v_i v_j <e_i, e_j> over i, j >= 2,
    # which is v_2^2 + ... + v_n^2 exactly when the Gram matrix of
    # e_2, ..., e_n is the identity, that is when v_1 is the only timelike
    # coordinate
    m = sig.n - 1
    gram = gram_matrix(sig, [_axis(sig.n, i) for i in range(1, sig.n)])
    return gram == [[int(i == j) for j in range(m)] for i in range(m)]


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

# Trials advance in lockstep in chunks of this many.
_SEARCH_CHUNK = 128
# The last slot tries this many leading live trials before the rest.
_LAST_SLOT_HEAD = 8
# An int64 row whose next projection could reach this magnitude is re-run
# on Python ints; the margin to 2**63 absorbs float64 rounding in the bound.
_INT64_LIMIT = float(2**62)

# SplitMix64's increment: 2**64 over the golden ratio, rounded to an odd integer
_PHI = 0x9E3779B97F4A7C15


def _mix(z):
    """SplitMix64's finalizer on a uint64 array; array arithmetic wraps mod 2**64."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _words(np, seed: int, start: int, stop: int, count: int):
    """Words 0..count-1 of trials start..stop-1, a (stop - start, count) uint64 array.

    A counter hash in two levels: trial i has the key mix(mix(seed) + i phi)
    and word j is mix(key + (j + 1) phi), everything mod 2**64, so a word
    depends on (seed mod 2**64, i, j) alone.
    """
    trials = np.arange(start, stop, dtype=np.uint64)
    keys = _mix(_mix(np.array([int(seed) % 2**64], dtype=np.uint64)) + trials * _PHI)
    return _mix(keys[:, None] + np.arange(1, count + 1, dtype=np.uint64) * _PHI)


def _unchecked_depths(n: int, slots: int) -> tuple[int, int]:
    """How many projections int64 survives for any draws: (products, q).

    After j projections a coordinate is at most M_j, with M_0 the coordinate
    bound and M_(j+1) = 2 n M_j^3: projecting v against u multiplies by at
    most |q(u)| + n max|u|^2 <= 2 n M_j^2. Projection j needs no bound
    check while M_(j+1) < 2**62, and q after k projections none while
    n M_k^2 < 2**62. The sizes stop at the first past 2**62, since M_j has
    about 3**j digits.
    """
    sizes = [SEARCH_COORD_BOUND]
    while sizes[-1] < _INT64_LIMIT and len(sizes) <= slots:
        sizes.append(2 * n * sizes[-1] ** 3)
    products = next((j for j in range(len(sizes) - 1) if sizes[j + 1] >= _INT64_LIMIT), slots)
    q = next((k for k in range(len(sizes)) if n * sizes[k] ** 2 >= _INT64_LIMIT), slots + 1)
    return products, q - 1


def _lockstep(np, draws, targets, n, p, dtype):
    """Run one trial per row, one slot at a time over the trials still alive.

    A trial reads its samples in order from its row of draws, n coordinates
    each, whichever slot they are for; a row holds
    slots * SEARCH_SAMPLES_PER_SLOT * n coordinates, enough for every sample.
    targets is (rows, slots) of +-1 in slot order.

    At slot k every live trial holds k placed vectors. Its next
    SEARCH_SAMPLES_PER_SLOT samples are projected against them together, as
    one (live, samples, n) array, and the first that hits is placed; a trial
    whose samples all miss leaves the arrays. In the last slot only the
    first success counts, so the leading _LAST_SLOT_HEAD live trials go first
    and the rest only if none of them succeeds.

    Returns boolean row masks (succeeded, spilled). With dtype int64 a row
    spills, and stops, when a float64 bound cannot prove that a sample's next
    projection or square keeps every product below 2**62, for a sample at or
    before its slot's first hit, which the per-trial loop computes too; with
    dtype object the arithmetic is on Python ints and nothing spills.
    """
    rows, slots = targets.shape
    per = SEARCH_SAMPLES_PER_SLOT
    checked = dtype is not object
    safe_products, safe_q = _unchecked_depths(n, slots)
    sgn = np.array([-1] * p + [1] * (n - p), dtype=dtype)
    samples = draws.reshape(rows, slots * per, n)
    # the live trials' placed vectors, shaped to broadcast against their
    # candidates: u, u with the metric's signs (to pair by matmul), q(u) and
    # the reach |q(u)| + n max|u|^2, which times max|v| bounds every product
    # of projecting v against u
    frame = np.empty((rows, slots, 1, n), dtype=dtype)
    signed = np.empty((rows, slots, n, 1), dtype=dtype)
    frame_q = np.empty((rows, slots, 1, 1), dtype=dtype)
    reach = np.empty((rows, slots, 1))
    trial = np.arange(rows)
    used = np.zeros(rows, dtype=np.intp)  # samples read so far
    offsets = np.arange(per)
    succeeded = np.zeros(rows, dtype=bool)
    spilled = np.zeros(rows, dtype=bool)

    def attempt(k, part):
        """Slot k for the live trials part: (u, q(u), index of u, placed) per trial.

        u is the first of the trial's projected samples that hits or spills.
        """
        tr = trial[part]
        if k == 0:
            v = samples[part, :per].astype(dtype, copy=False)
        else:
            v = samples[tr[:, None], used[part, None] + offsets].astype(dtype, copy=False)
        big = np.zeros(v.shape[:2], dtype=bool)
        for j in range(k):
            if checked and j >= safe_products:
                big |= reach[part, j] * np.abs(v).max(axis=2) >= _INT64_LIMIT
            v = frame_q[part, j] * v - (v @ signed[part, j]) * frame[part, j]
            v //= np.maximum(np.gcd.reduce(v, axis=2, keepdims=True), 1)
        if checked and k > safe_q:
            big |= n * np.abs(v).max(axis=2).astype(np.float64) ** 2 >= _INT64_LIMIT
        q = (v * v) @ sgn
        # the first sample that hits or spills decides the trial
        decisive = q * targets[tr, k, None] > 0
        decisive |= big
        first = np.argmax(decisive, axis=1)
        index = np.arange(len(tr))
        spill = big[index, first]
        spilled[tr[spill]] = True
        return v[index, first], q[index, first], first, decisive[index, first] & ~spill

    for k in range(slots - 1):
        u, qu, first, keep = attempt(k, slice(None))
        if not keep.all():
            if not keep.any():
                return succeeded, spilled
            trial, used, u, qu, first = trial[keep], used[keep], u[keep], qu[keep], first[keep]
            frame, signed, frame_q, reach = frame[keep], signed[keep], frame_q[keep], reach[keep]
        frame[:, k, 0] = u
        signed[:, k, :, 0] = u * sgn
        frame_q[:, k, 0, 0] = qu
        if checked:
            reach[:, k, 0] = np.abs(qu) + n * np.abs(u).max(axis=1).astype(np.float64) ** 2
        used += first + 1
    for part in (slice(0, _LAST_SLOT_HEAD), slice(_LAST_SLOT_HEAD, None)):
        if part.start >= len(trial):
            break
        keep = attempt(slots - 1, part)[3]
        if keep.any():
            succeeded[trial[part][keep]] = True
            break
    return succeeded, spilled


def _search_chunk(np, sig, template, seed, start, stop) -> int | None:
    """Smallest successful trial index in [start, stop), or None.

    A trial's first len(template) words order its slot targets: a stable
    argsort of them reorders the template. Each later word w gives one
    coordinate, ((w >> 32) * 9 >> 32) - 4 for the bound 4, so each of the 9
    values has probability (1 + d) / 9 with |d| < 9 * 2**-32.
    """
    n, slots = sig.n, len(template)
    words = _words(np, seed, start, stop, slots * (1 + SEARCH_SAMPLES_PER_SLOT * n))
    targets = np.array(template, dtype=np.int64)[np.argsort(words[:, :slots], axis=1, kind="stable")]
    span = 2 * SEARCH_COORD_BOUND + 1
    draws = ((words[:, slots:] >> 32) * span >> 32).astype(np.int64) - SEARCH_COORD_BOUND
    succeeded, spilled = _lockstep(np, draws, targets, n, sig.p, np.int64)
    # rows after the first int64 success cannot change the answer
    redo = np.flatnonzero(spilled[: np.argmax(succeeded) if succeeded.any() else len(spilled)])
    if redo.size:
        succeeded[redo] = _lockstep(np, draws[redo], targets[redo], n, sig.p, object)[0]
    return int(np.argmax(succeeded)) + start if succeeded.any() else None


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

    Trial i draws its own words from a counter hash of (seed, i) (see
    _words), so partitioning trials across workers cannot change the
    outcome. The trial orders its slot targets by its first words, then
    draws up to SEARCH_SAMPLES_PER_SLOT vectors per slot; each is projected
    against the placed vectors one by one, divided by the gcd of its
    coordinates after each projection, and placed when its square has the
    slot's sign. A slot that places nothing ends the trial.

    The trials of a chunk of _SEARCH_CHUNK run in numpy lockstep on words
    hashed for the whole chunk up front, one slot at a time: the trials still
    alive project all their samples for the slot at once and keep the first
    that hits, and a trial whose samples all miss drops out (see _lockstep).
    The arithmetic is int64 while a float64 bound proves that every product
    stays below 2**62; a trial that fails the bound on a sample the per-trial
    loop would compute is re-run from its start on Python ints. Chunks run in
    trial order and the search stops after the chunk with the first success,
    so every field of the result equals what the trials run one at a time in
    Python give (tests/_oracles.brute_force_loop keeps that loop, over a
    pure-Python copy of the hash).
    """
    if isinstance(trials, bool) or not isinstance(trials, Integral) or trials < 0:
        raise UsageError(f"trials must be an integer >= 0, got {trials!r}")
    if isinstance(seed, bool) or not isinstance(seed, Integral):
        raise UsageError(f"seed must be an integer, got {seed!r}")
    import numpy as np

    template = [1] * (pattern.a + pattern.c) + [-1] * (pattern.b + pattern.c)
    for start in range(0, trials, _SEARCH_CHUNK):
        first = _search_chunk(np, sig, template, seed, start, min(start + _SEARCH_CHUNK, trials))
        if first is not None:
            return SearchResult(
                sig=sig,
                pattern=pattern,
                found=True,
                trials=first + 1,
                seed=seed,
                first_success=first,
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
