"""Indefinite inner product arithmetic for R^n_p.

The pairing is <u, v> = -(u_1 v_1 + ... + u_p v_p) + u_{p+1} v_{p+1} + ... + u_n v_n,
so the first p coordinates carry the negative squares. Integer and Fraction
input is evaluated exactly; a float vector is null by the zero rule on <v, v>.
Only the float paths import numpy, so exact frame arithmetic runs without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from numbers import Integral, Rational
from typing import TYPE_CHECKING, Sequence

from .errors import DimensionMismatchError

if TYPE_CHECKING:
    import numpy as np

# The one zero rule, relative to S, the size of the terms that cancel in a
# quantity c: c counts as zero when |c| <= H_TOL S. It decides a float
# vector's <v, v> (S the sum of its squares), a term of a closed-form pairing
# (the gauge's and the classifier's) or a sample of it, and the H numerator's
# coefficients, which vanish when what exceeds their rounding bound stays at
# or below this fraction of S. Exact (int/Fraction) input never consults it.
H_TOL = 1e-8


class CausalCharacter(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    NULL = "null"
    ZERO = "zero"


@dataclass(frozen=True)
class Signature:
    """Ambient signature (n, p): dimension n with index p.

    p > floor(n/2) is accepted; such signatures are anti-isometric to
    conventional ones (flip the sign of the pairing) and everything here
    works in them unchanged.
    """

    n: int
    p: int

    def __post_init__(self):
        # plain ints skip the Integral ABC; bools and numpy integers take it
        n, p = self.n, self.p
        if type(n) is not int and (not isinstance(n, Integral) or isinstance(n, bool)) or n < 2:
            raise ValueError(f"dimension n must be an integer >= 2, got {self.n!r}")
        if type(p) is not int and (not isinstance(p, Integral) or isinstance(p, bool)) or not 0 <= p <= n:
            raise ValueError(f"index p must satisfy 0 <= p <= n, got p={self.p!r} with n={self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "p", int(self.p))

    def weights(self) -> np.ndarray:
        """Diagonal of the metric as a float array (-1 x p, +1 x (n-p))."""
        return _weights(self.n, self.p)


@lru_cache(maxsize=None)
def _weights(n: int, p: int) -> np.ndarray:
    import numpy as np

    w = np.ones(n)
    w[:p] = -1.0
    w.setflags(write=False)
    return w


def _check_dim(sig: Signature, v: Sequence) -> None:
    if len(v) != sig.n:
        raise DimensionMismatchError(
            f"vector of length {len(v)} in R^{sig.n}_{sig.p} (expected {sig.n} components)"
        )


def _exact_components(v: Sequence) -> list | None:
    """Return components as ints/Fractions when all are rational, else None."""
    if all(type(x) is int for x in v):
        return list(v)
    out = []
    for x in v:
        if isinstance(x, Rational):
            out.append(int(x) if isinstance(x, Integral) else x)
        else:
            return None
    return out


def _exact_pairing(p: int, eu: list, ev: list):
    return sum(a * b for a, b in zip(eu[p:], ev[p:])) - sum(
        a * b for a, b in zip(eu[:p], ev[:p])
    )


def inner_product(sig: Signature, u: Sequence, v: Sequence):
    """<u, v> in R^n_p. Exact for int/Fraction components, float otherwise."""
    _check_dim(sig, u)
    _check_dim(sig, v)
    eu, ev = _exact_components(u), _exact_components(v)
    if eu is not None and ev is not None:
        return _exact_pairing(sig.p, eu, ev)
    import numpy as np

    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    return float((ua * va * sig.weights()).sum())


def ip_array(sig: Signature, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized <u, v> along the last axis of two broadcastable arrays."""
    if u.shape[-1] != sig.n or v.shape[-1] != sig.n:
        raise DimensionMismatchError(
            f"last axis must have length {sig.n}, got {u.shape[-1]} and {v.shape[-1]}"
        )
    return ((u * v) * sig.weights()).sum(axis=-1)


def causal_character(sig: Signature, v: Sequence) -> CausalCharacter:
    """Classify v as spacelike, timelike, null, or the zero vector.

    Null means <v, v> = 0 with v != 0. The zero vector gets its own tag so
    degenerate frame entries are never mistaken for null directions.
    """
    _check_dim(sig, v)
    ev = _exact_components(v)
    if ev is not None:
        if all(x == 0 for x in ev):
            return CausalCharacter.ZERO
        q = inner_product(sig, ev, ev)
        if q == 0:
            return CausalCharacter.NULL
        return CausalCharacter.SPACELIKE if q > 0 else CausalCharacter.TIMELIKE
    import numpy as np

    va = np.asarray(v, dtype=float)
    if float(np.abs(va).max(initial=0.0)) == 0.0:
        return CausalCharacter.ZERO
    squares = va * va
    q = float((squares * sig.weights()).sum())
    if abs(q) <= H_TOL * float(squares.sum()):
        return CausalCharacter.NULL
    return CausalCharacter.SPACELIKE if q > 0 else CausalCharacter.TIMELIKE


def gram_matrix(sig: Signature, vectors: Sequence[Sequence]) -> list[list]:
    """Symmetric matrix of pairwise inner products, exact when the input is.

    Each vector is converted once; a pair with a float vector takes
    inner_product's float path. Returned as nested lists so integer frames
    keep integer entries.
    """
    vs = list(vectors)
    for v in vs:
        _check_dim(sig, v)
    exact = [_exact_components(v) for v in vs]
    m = len(vs)
    g = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            if exact[i] is not None and exact[j] is not None:
                val = _exact_pairing(sig.p, exact[i], exact[j])
            else:
                val = inner_product(sig, vs[i], vs[j])
            g[i][j] = val
            g[j][i] = val
    return g
