"""The surface families, their sign patterns, and frame containers.

Each non-cylinder family is written on an orthogonal 3-frame (e1, e2, e3)
whose squared norms (s1, s2, s3) follow a fixed pattern; making those norms
+-1 or 0 is what the sign choice picks. The minimal cylinder has no frame
signs (it needs a null direction paired with a null base curve instead) and
the plane only needs a non-degenerate 2-plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Integral

from .errors import UsageError
from .metric import Signature, gram_matrix


class FamilyId(Enum):
    PLANE = "Plane"
    MINIMAL_CYLINDER = "MinimalCylinder"
    ELLIPTIC_HELICOID_1 = "EllipticHelicoid1"
    ELLIPTIC_HELICOID_2 = "EllipticHelicoid2"
    HYPERBOLIC_HELICOID_1 = "HyperbolicHelicoid1"
    HYPERBOLIC_HELICOID_2 = "HyperbolicHelicoid2"
    PARABOLIC_HELICOID = "ParabolicHelicoid"
    MINIMAL_HYPERBOLIC_PARABOLOID = "MinimalHyperbolicParaboloid"


# column order used in the existence table (cylinder first, then the six
# frame-based families)
TABLE_FAMILIES = (
    FamilyId.MINIMAL_CYLINDER,
    FamilyId.ELLIPTIC_HELICOID_1,
    FamilyId.ELLIPTIC_HELICOID_2,
    FamilyId.HYPERBOLIC_HELICOID_1,
    FamilyId.HYPERBOLIC_HELICOID_2,
    FamilyId.PARABOLIC_HELICOID,
    FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID,
)

CLI_NAMES = {
    "plane": FamilyId.PLANE,
    "minimal-cylinder": FamilyId.MINIMAL_CYLINDER,
    "elliptic-helicoid-1": FamilyId.ELLIPTIC_HELICOID_1,
    "elliptic-helicoid-2": FamilyId.ELLIPTIC_HELICOID_2,
    "hyperbolic-helicoid-1": FamilyId.HYPERBOLIC_HELICOID_1,
    "hyperbolic-helicoid-2": FamilyId.HYPERBOLIC_HELICOID_2,
    "parabolic-helicoid": FamilyId.PARABOLIC_HELICOID,
    "minimal-hyperbolic-paraboloid": FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID,
}

CLI_NAME_OF = {fam: name for name, fam in CLI_NAMES.items()}


@dataclass(frozen=True)
class SignChoice:
    """Squared norms (s1, s2, s3) of the frame vectors, each in {-1, 0, +1}."""

    s1: int
    s2: int
    s3: int

    def __post_init__(self):
        for v in (self.s1, self.s2, self.s3):
            if v not in (-1, 0, 1):
                raise UsageError(f"sign entries must be -1, 0 or +1, got {v!r}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.s1, self.s2, self.s3)


@dataclass(frozen=True)
class NormPattern:
    """Counts (a, b, c) of +1, -1 and 0 squared norms in an orthogonal set.

    Frame-based families use total 3; the criterion itself makes sense for
    any total, and smaller patterns are accepted (a single vector is a
    legitimate search target for the randomized cross-check).
    """

    a: int
    b: int
    c: int

    def __post_init__(self):
        for v in (self.a, self.b, self.c):
            # plain ints skip the Integral ABC; bools and numpy integers take it
            if type(v) is not int and (isinstance(v, bool) or not isinstance(v, Integral)) or v < 0:
                raise UsageError(f"pattern counts must be integers >= 0, got {v!r}")
        if self.total < 1:
            raise UsageError("pattern must request at least one vector")

    @property
    def total(self) -> int:
        return self.a + self.b + self.c


def pattern_of_signs(signs: SignChoice) -> NormPattern:
    vals = signs.as_tuple()
    return NormPattern(
        a=sum(1 for v in vals if v == 1),
        b=sum(1 for v in vals if v == -1),
        c=sum(1 for v in vals if v == 0),
    )


# admissible sign patterns, in deterministic preference order
_SIGMA = (1, -1)

ADMISSIBLE_SIGNS: dict[FamilyId, tuple[SignChoice, ...]] = {
    # elliptic first kind: s1 = s2, s3 = +-1
    FamilyId.ELLIPTIC_HELICOID_1: tuple(
        SignChoice(s, s, t) for s in _SIGMA for t in _SIGMA
    ),
    # elliptic second kind: s1 = s2, e3 null
    FamilyId.ELLIPTIC_HELICOID_2: tuple(SignChoice(s, s, 0) for s in _SIGMA),
    # hyperbolic first kind: s1 = -s2, s3 = +-1
    FamilyId.HYPERBOLIC_HELICOID_1: tuple(
        SignChoice(s, -s, t) for s in _SIGMA for t in _SIGMA
    ),
    # hyperbolic second kind: s1 = -s2, e3 null
    FamilyId.HYPERBOLIC_HELICOID_2: tuple(SignChoice(s, -s, 0) for s in _SIGMA),
    # parabolic: s1 = s2 = -s3
    FamilyId.PARABOLIC_HELICOID: tuple(SignChoice(s, s, -s) for s in _SIGMA),
    # hyperbolic paraboloid: e1 null, s2 and s3 free
    FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID: tuple(
        SignChoice(0, s, t) for s in _SIGMA for t in _SIGMA
    ),
    FamilyId.MINIMAL_CYLINDER: (),
    FamilyId.PLANE: (),
}

FRAME_FAMILIES = tuple(f for f, sc in ADMISSIBLE_SIGNS.items() if sc)


def validate_signs(family: FamilyId, signs: SignChoice) -> None:
    allowed = ADMISSIBLE_SIGNS.get(family, ())
    if not allowed:
        raise UsageError(f"{family.value} takes no frame sign choice")
    if signs not in allowed:
        raise UsageError(
            f"sign choice {signs.as_tuple()} does not match the {family.value} "
            f"pattern; admissible: {[s.as_tuple() for s in allowed]}"
        )


@dataclass(frozen=True)
class FrameSpec:
    """An integer orthogonal 3-frame with prescribed squared norms."""

    sig: Signature
    vectors: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.vectors) != len(self.signs):
            raise UsageError("one sign per frame vector")
        g = gram_matrix(self.sig, self.vectors)
        m = len(self.vectors)
        for i in range(m):
            for j in range(m):
                want = self.signs[i] if i == j else 0
                if g[i][j] != want:
                    raise UsageError(
                        f"frame Gram entry ({i},{j}) is {g[i][j]!r}, expected {want!r}"
                    )
        for v in self.vectors:
            if all(x == 0 for x in v):
                raise UsageError("frame vectors must be non-zero")

    @property
    def gram(self) -> list[list[int]]:
        """diag(signs), which __post_init__ checked entry by entry."""
        m = len(self.signs)
        return [[s if i == j else 0 for j in range(m)] for i, s in enumerate(self.signs)]
