"""Tests for the signed inner product, causal characters, and Gram matrices."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruledmin import (
    CausalCharacter,
    DimensionMismatchError,
    Signature,
    causal_character,
    gram_matrix,
    inner_product,
)

from _oracles import signed_sum_inner


def test_inner_product_null_frame_vector():
    # the null third frame vector of the neutral four-space witness
    assert inner_product(Signature(4, 2), (0, 1, 0, 1), (0, 1, 0, 1)) == 0


def test_inner_product_timelike_axis():
    assert inner_product(Signature(3, 1), (1, 0, 0), (1, 0, 0)) == -1


def test_inner_product_against_signed_sum_oracle():
    sig = Signature(4, 2)
    u, v = (1, 2, 3, 4), (4, 3, 2, 1)
    assert inner_product(sig, u, v) == 0
    assert inner_product(sig, u, v) == signed_sum_inner(sig, u, v)
    # a non-zero value, same oracle
    sig2 = Signature(3, 1)
    assert inner_product(sig2, (1, 2, 3), (4, 5, 6)) == signed_sum_inner(
        sig2, (1, 2, 3), (4, 5, 6)
    )


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner_product(Signature(3, 1), (1, 0, 0), (1, 0))


def test_inner_product_exact_on_rationals():
    v = inner_product(Signature(3, 1), [Fraction(1, 3)] * 3, [3, 3, 3])
    assert v == 1
    assert isinstance(v, Fraction)


def test_causal_characters():
    sig = Signature(3, 1)
    assert causal_character(sig, (1, 1, 0)) is CausalCharacter.NULL
    assert causal_character(sig, (1, 0, 0)) is CausalCharacter.TIMELIKE
    assert causal_character(sig, (0, 1, 0)) is CausalCharacter.SPACELIKE
    assert causal_character(sig, (0, 0, 0)) is CausalCharacter.ZERO
    assert causal_character(Signature(4, 2), (0, 1, 0, 1)) is CausalCharacter.NULL


def test_causal_character_float_tolerance():
    sig = Signature(3, 1)
    # <v, v> lands within the null tolerance for floats
    assert causal_character(sig, (1.0, 1.0 + 1e-14, 0.0)) is CausalCharacter.NULL
    assert causal_character(sig, (1.0, 1.0 + 1e-5, 0.0)) is CausalCharacter.SPACELIKE


@pytest.mark.parametrize("v, character", [
    ((1e-7, 0.0, 0.0), CausalCharacter.TIMELIKE),
    ((0.0, 1e-7, 0.0), CausalCharacter.SPACELIKE),
    ((1e8, 1e8 * (1 + 1e-15), 0.0), CausalCharacter.NULL),
])
def test_causal_character_of_a_float_vector_does_not_depend_on_its_scale(v, character):
    """<v, v> is null by the zero rule relative to the sum of v's squares, so a
    short vector keeps its character and a long one its nullity."""
    assert causal_character(Signature(3, 1), v) is character


def test_causal_character_exact_integers_need_no_tolerance():
    # enormous integer coordinates stay exact, so near-null never leaks to Null
    sig = Signature(3, 1)
    big = 10**20
    assert causal_character(sig, (big, big, 0)) is CausalCharacter.NULL
    assert causal_character(sig, (big, big + 1, 0)) is CausalCharacter.SPACELIKE


def test_gram_matrix_standard_basis_identity():
    sig = Signature(3, 0)
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert gram_matrix(sig, basis) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_gram_matrix_neutral_four_space_witness_frame():
    sig = Signature(4, 2)
    frame = [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1)]
    assert gram_matrix(sig, frame) == [[-1, 0, 0], [0, 1, 0], [0, 0, 0]]


def test_gram_matrix_single_null_vector():
    assert gram_matrix(Signature(3, 1), [(1, 1, 0)]) == [[0]]


def test_gram_matrix_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        gram_matrix(Signature(3, 1), [(1, 0, 0), (1, 0)])


def _pairwise_inner_products(sig, vectors):
    return [[inner_product(sig, u, v) for v in vectors] for u in vectors]


_component = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.fractions(max_denominator=50).filter(lambda q: abs(q) < 1000),
    st.floats(min_value=-1e6, max_value=1e6),
)


@pytest.mark.parametrize(
    "vectors",
    [
        [(1, 2, 3, 4), (0, 1, 0, 1), (-5, 7, 2, 0)],
        [(Fraction(1, 3), 2, 0, 1), (1, Fraction(-2, 7), 3, 0)],
        [(0.5, 1.0, -2.0, 3.0), (1.5, 0.0, 2.0, -1.0)],
        [(1, 2, 3, 4), (0.5, 1, 0, 1), (Fraction(1, 2), 0, 0, 1), (1, 0.25, Fraction(3), 2)],
        [(np.int64(1), 0, 0, 1), (True, 1, 0, 0)],
    ],
)
def test_gram_matrix_equals_the_pairwise_inner_product_loop(vectors):
    sig = Signature(4, 2)
    got, want = gram_matrix(sig, vectors), _pairwise_inner_products(sig, vectors)
    assert got == want
    assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in want]


@given(st.lists(st.lists(_component, min_size=4, max_size=4), min_size=1, max_size=4))
def test_gram_matrix_equals_the_pairwise_loop_on_mixed_vectors(vectors):
    sig = Signature(4, 1)
    got, want = gram_matrix(sig, vectors), _pairwise_inner_products(sig, vectors)
    assert got == want
    assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in want]


@pytest.mark.parametrize("bad", [(1, 0), (Fraction(1), 0.5), (1, 2, 3, 4, 5)])
def test_gram_matrix_raises_the_pairwise_loops_dimension_error(bad):
    sig = Signature(4, 2)
    vectors = [(1, 0, 0, 1), bad, (0, 1, 1, 0)]
    with pytest.raises(DimensionMismatchError) as want:
        _pairwise_inner_products(sig, vectors)
    with pytest.raises(DimensionMismatchError) as got:
        gram_matrix(sig, vectors)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n,p", [(True, 0), (3.0, 1), (1, 0), ("3", 1), (3, -1), (3, 4), (3, True), (3, 1.0)])
def test_signature_rejects_what_is_not_a_dimension_and_index(n, p):
    with pytest.raises(ValueError):
        Signature(n, p)


def test_signature_accepts_numpy_integers():
    sig = Signature(np.int64(4), np.int32(2))
    assert sig == Signature(4, 2)
    assert type(sig.n) is int and type(sig.p) is int


small_ints = st.integers(min_value=-50, max_value=50)


@given(
    a=small_ints,
    b=small_ints,
    u=st.tuples(small_ints, small_ints, small_ints, small_ints),
    w=st.tuples(small_ints, small_ints, small_ints, small_ints),
    v=st.tuples(small_ints, small_ints, small_ints, small_ints),
)
def test_bilinearity_exact(a, b, u, w, v):
    """<a u + b w, v> = a <u, v> + b <w, v>, exactly on integers."""
    sig = Signature(4, 2)
    left = inner_product(sig, [a * ui + b * wi for ui, wi in zip(u, w)], v)
    right = a * inner_product(sig, u, v) + b * inner_product(sig, w, v)
    assert left == right


@given(
    u=st.tuples(small_ints, small_ints, small_ints),
    v=st.tuples(small_ints, small_ints, small_ints),
    p=st.integers(min_value=0, max_value=3),
)
def test_symmetry(u, v, p):
    sig = Signature(3, p)
    assert inner_product(sig, u, v) == inner_product(sig, v, u)


@pytest.mark.parametrize("n,p", [(3, 0), (3, 1), (4, 2), (6, 3), (5, 5)])
def test_standard_basis_sign_counting(n, p):
    """Exactly p basis vectors are timelike and n - p spacelike."""
    sig = Signature(n, p)
    chars = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        chars.append(causal_character(sig, e))
    assert chars.count(CausalCharacter.TIMELIKE) == p
    assert chars.count(CausalCharacter.SPACELIKE) == n - p


def test_gram_matrix_symmetric_on_arbitrary_lists():
    sig = Signature(4, 1)
    vs = [(1, 2, 0, 1), (0, 1, 1, 3), (2, 0, 0, 1)]
    g = gram_matrix(sig, vs)
    for i in range(3):
        for j in range(3):
            assert g[i][j] == g[j][i]
