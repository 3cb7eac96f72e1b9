"""Tests for the frame-existence decision procedure and its certificates."""

import dataclasses
import itertools

import numpy as np
import pytest

from _oracles import brute_force_loop
from ruledmin import (
    CertificateKind,
    FamilyId,
    SignChoice,
    Signature,
    UsageError,
    existence_oracle,
    existence_table,
    replay_certificate,
)
from ruledmin import existence
from ruledmin.existence import (
    TABLE_FAMILIES,
    _index_one_identity_holds,
    NormPattern,
    NoWitnessError,
    Verdict,
    admits_cylinder,
    admits_pattern,
    brute_force_cross_check,
    cells_for,
    find_witness,
    frame_for_signs,
    pattern_of_signs,
    validate_signs,
)
from ruledmin.families import ADMISSIBLE_SIGNS, FRAME_FAMILIES
from ruledmin.metric import gram_matrix, inner_product

R30 = Signature(3, 0)
R31 = Signature(3, 1)
R41 = Signature(4, 1)
R42 = Signature(4, 2)


# ---------------------------------------------------------------------------
# pattern admissibility


def test_admits_pattern_anchor_cases():
    assert not admits_pattern(R31, NormPattern(1, 1, 1))
    assert admits_pattern(R42, NormPattern(1, 1, 1))
    assert admits_pattern(R30, NormPattern(3, 0, 0))
    assert not admits_pattern(R42, NormPattern(2, 0, 1))
    assert admits_pattern(R41, NormPattern(2, 0, 1))


def test_admits_pattern_counting_rule():
    """b+c must fit under p and a+c under n-p, nothing else matters."""
    for n in range(3, 7):
        for p in range(0, n + 1):
            sig = Signature(n, p)
            for a in range(4):
                for b in range(4 - a):
                    c = 3 - a - b
                    expected = (b + c <= p) and (a + c <= n - p)
                    assert admits_pattern(sig, NormPattern(a, b, c)) == expected


def test_reflection_symmetry():
    """Swapping the metric sign swaps the roles of +1 and -1 norms."""
    for n in range(3, 7):
        for p in range(0, n + 1):
            for a in range(4):
                for b in range(4 - a):
                    c = 3 - a - b
                    left = admits_pattern(Signature(n, p), NormPattern(a, b, c))
                    right = admits_pattern(Signature(n, n - p), NormPattern(b, a, c))
                    assert left == right, (n, p, a, b, c)


# ---------------------------------------------------------------------------
# witness construction


def test_find_witness_neutral_mixed_pattern():
    frame = find_witness(R42, NormPattern(1, 1, 1))
    assert frame.vectors == ((0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 1))
    assert frame.signs == (1, -1, 0)


def test_find_witness_euclidean_uses_standard_basis():
    frame = find_witness(R30, NormPattern(3, 0, 0))
    assert frame.vectors == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert frame.signs == (1, 1, 1)


def test_find_witness_with_null_slot():
    frame = find_witness(R41, NormPattern(2, 0, 1))
    assert frame.vectors == ((0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 1))
    assert frame.signs == (1, 1, 0)


def test_find_witness_gram_is_exact():
    """Every emitted frame satisfies its claimed pairings in integer arithmetic."""
    for n in range(3, 7):
        for p in range(0, n + 1):
            sig = Signature(n, p)
            for a in range(4):
                for b in range(4 - a):
                    c = 3 - a - b
                    pattern = NormPattern(a, b, c)
                    if not admits_pattern(sig, pattern):
                        continue
                    frame = find_witness(sig, pattern)
                    for i, j in itertools.combinations_with_replacement(range(3), 2):
                        got = inner_product(sig, frame.vectors[i], frame.vectors[j])
                        want = frame.signs[i] if i == j else 0
                        assert got == want, (sig, pattern, i, j)


def test_frame_gram_is_the_gram_matrix_of_its_vectors():
    """FrameSpec.gram answers diag(signs) without pairing the vectors again;
    for every canonical frame with 3 <= n <= 8 that is their Gram matrix."""
    choices = {s for fam in FRAME_FAMILIES for s in ADMISSIBLE_SIGNS[fam]}
    checked = 0
    for n in range(3, 9):
        for p in range(n + 1):
            sig = Signature(n, p)
            for signs in choices:
                if not admits_pattern(sig, pattern_of_signs(signs)):
                    continue
                frame = frame_for_signs(sig, signs)
                assert frame.gram == gram_matrix(sig, frame.vectors), (sig, signs)
                checked += 1
    assert checked == 288


def test_find_witness_refuses_inadmissible_pattern():
    with pytest.raises(NoWitnessError, match=r"\(1,1,1\) does not fit"):
        find_witness(R31, NormPattern(1, 1, 1))


@pytest.mark.parametrize("counts", [(1.0, 1, 1), (True, 0, 0), (1, 0, 2.5), ("1", 1, 1), (-1, 2, 2)])
def test_norm_pattern_rejects_counts_that_are_not_integers(counts):
    with pytest.raises(UsageError, match=repr(next(v for v in counts if type(v) is not int or v < 0))):
        NormPattern(*counts)


def test_norm_pattern_accepts_numpy_integers():
    assert NormPattern(*np.array([1, 1, 1])) == NormPattern(1, 1, 1)


# ---------------------------------------------------------------------------
# cylinder admissibility


def test_cylinder_needs_an_orthogonal_null_pair():
    res = admits_cylinder(R30)
    assert res.verdict is Verdict.NON_EXISTENCE
    assert res.certificate.kind is CertificateKind.DIMENSION_COUNT

    for sig in (R31, R42):
        res = admits_cylinder(sig)
        assert res.verdict is Verdict.WITNESS
        wit = res.cylinder
        assert inner_product(sig, wit.direction, wit.direction) == 0
        assert inner_product(sig, wit.partner, wit.partner) == 0
        assert inner_product(sig, wit.direction, wit.partner) == wit.pairing
        assert wit.pairing != 0


def test_cylinder_witness_coordinates_in_lorentz_space():
    wit = admits_cylinder(R31).cylinder
    assert wit.direction == (1, 1, 0)
    assert wit.partner == (1, -1, 0)
    assert wit.pairing == -2


# ---------------------------------------------------------------------------
# oracle and certificates


def test_oracle_positive_answers_carry_frames():
    res = existence_oracle(R30, FamilyId.ELLIPTIC_HELICOID_1)
    assert res.exists
    assert res.verdict is Verdict.WITNESS
    assert res.frame is not None
    assert res.certificate is None


def test_oracle_negative_answers_carry_certificates():
    combos = [
        (R30, FamilyId.PARABOLIC_HELICOID, CertificateKind.DIMENSION_COUNT),
        (R30, FamilyId.MINIMAL_CYLINDER, CertificateKind.DIMENSION_COUNT),
        (R31, FamilyId.HYPERBOLIC_HELICOID_2, CertificateKind.INDEX_ONE_NULL_ORTHOGONAL),
        (R41, FamilyId.HYPERBOLIC_HELICOID_2, CertificateKind.INDEX_ONE_NULL_ORTHOGONAL),
        (R42, FamilyId.ELLIPTIC_HELICOID_2, CertificateKind.NEUTRAL_QUADRATIC),
    ]
    for sig, family, kind in combos:
        res = existence_oracle(sig, family)
        assert not res.exists, (sig, family)
        assert res.verdict is Verdict.NON_EXISTENCE
        assert res.certificate.kind is kind, (sig, family)


def test_replay_dimension_count_certificate():
    res = existence_oracle(R30, FamilyId.PARABOLIC_HELICOID)
    trace = replay_certificate(R30, FamilyId.PARABOLIC_HELICOID, res.certificate)
    assert trace.exact
    assert trace.conclusion == (
        "violated: b + c = 1 > p = 0 (negative semidefinite span exceeds the index)"
    )
    counted = trace.steps[-1].data
    assert counted["pattern"] == {"a": 2, "b": 1, "c": 0}
    assert counted["inequality_verified"]


def test_replay_index_one_certificate():
    res = existence_oracle(R31, FamilyId.HYPERBOLIC_HELICOID_2)
    trace = replay_certificate(R31, FamilyId.HYPERBOLIC_HELICOID_2, res.certificate)
    assert trace.exact
    assert trace.conclusion == "e3 = 0 contradicts null (non-zero)"
    assert any(step.data and step.data.get("identity_verified") for step in trace.steps)


def test_replay_neutral_quadratic_certificate():
    res = existence_oracle(R42, FamilyId.ELLIPTIC_HELICOID_2)
    trace = replay_certificate(R42, FamilyId.ELLIPTIC_HELICOID_2, res.certificate)
    assert trace.exact
    assert trace.conclusion == (
        "((b*z - c*y)/x)^2 = -1 has no real solution; no such frame exists"
    )
    assert any(step.data and step.data.get("expansion_verified") for step in trace.steps)


def test_replay_rejects_mismatched_certificate():
    res = existence_oracle(R30, FamilyId.PARABOLIC_HELICOID)
    with pytest.raises(UsageError, match="exists in R\\^4_1"):
        replay_certificate(R41, FamilyId.PARABOLIC_HELICOID, res.certificate)


def test_replay_rejects_a_dimension_count_whose_pattern_fits():
    res = existence_oracle(R30, FamilyId.HYPERBOLIC_HELICOID_1)
    assert res.certificate.kind is CertificateKind.DIMENSION_COUNT
    tampered = dataclasses.replace(res.certificate, pattern=NormPattern(3, 0, 0))
    with pytest.raises(UsageError, match="fits in R\\^3_0"):
        replay_certificate(R30, FamilyId.HYPERBOLIC_HELICOID_1, tampered)


def test_every_issued_certificate_replays():
    for n in range(3, 9):
        for p, family in itertools.product(range(n + 1), FamilyId):
            res = existence_oracle(Signature(n, p), family)
            if res.certificate is not None:
                replay_certificate(Signature(n, p), family, res.certificate)


def _issued_certificates():
    for n in range(3, 9):
        for p, family in itertools.product(range(n + 1), FamilyId):
            res = existence_oracle(Signature(n, p), family)
            certs = [res.certificate] + [cert for _, _, cert in res.per_sign]
            for cert in certs:
                if cert is not None:
                    yield Signature(n, p), family, cert


def test_replay_never_asks_the_oracle(monkeypatch):
    issued = list(_issued_certificates())
    assert len({cert.kind for _, _, cert in issued}) == 3

    def no_oracle(*args, **kwargs):
        raise AssertionError("replay asked the oracle")

    monkeypatch.setattr(existence, "existence_oracle", no_oracle)
    for sig, family, cert in issued:
        assert replay_certificate(sig, family, cert).exact, (sig, family, cert)


def _tampered():
    hh2 = existence_oracle(R31, FamilyId.HYPERBOLIC_HELICOID_2).certificate
    eh2 = existence_oracle(R42, FamilyId.ELLIPTIC_HELICOID_2).certificate
    hh1 = existence_oracle(R30, FamilyId.HYPERBOLIC_HELICOID_1).certificate
    assert hh2.kind is CertificateKind.INDEX_ONE_NULL_ORTHOGONAL
    assert eh2.kind is CertificateKind.NEUTRAL_QUADRATIC
    assert hh1.kind is CertificateKind.DIMENSION_COUNT
    replace = dataclasses.replace
    return [
        (R31, FamilyId.HYPERBOLIC_HELICOID_2, replace(hh2, pattern=NormPattern(3, 0, 0))),
        # same inequality text and premise, but no sign choice of the family
        (R31, FamilyId.HYPERBOLIC_HELICOID_2, replace(hh2, pattern=NormPattern(0, 1, 1))),
        (R42, FamilyId.ELLIPTIC_HELICOID_2, replace(eh2, pattern=NormPattern(1, 1, 1))),
        (R31, FamilyId.HYPERBOLIC_HELICOID_2, replace(hh2, violated="1 > 0")),
        (R31, FamilyId.HYPERBOLIC_HELICOID_2, replace(hh2, sig=Signature(5, 1))),
        (R31, FamilyId.HYPERBOLIC_HELICOID_2,
         replace(hh2, family=FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID)),
        (R30, FamilyId.HYPERBOLIC_HELICOID_1,
         replace(hh1, kind=CertificateKind.INDEX_ONE_NULL_ORTHOGONAL)),
    ]


@pytest.mark.parametrize("case", range(7))
def test_replay_rejects_a_tampered_certificate(case):
    sig, family, cert = _tampered()[case]
    with pytest.raises(UsageError):
        replay_certificate(sig, family, cert)


def test_replay_refuses_a_certificate_for_a_plane():
    cert = existence_oracle(R30, FamilyId.MINIMAL_CYLINDER).certificate
    with pytest.raises(UsageError):
        replay_certificate(R30, FamilyId.PLANE, dataclasses.replace(cert, family=FamilyId.PLANE))


def test_signs_on_a_family_without_frame_signs_are_inadmissible():
    for family in (FamilyId.PLANE, FamilyId.MINIMAL_CYLINDER):
        res = existence_oracle(R31, family, SignChoice(1, 1, 1))
        assert res.verdict is Verdict.INADMISSIBLE
        assert res.note == f"{family.value} takes no frame sign choice"


def test_index_one_identity_uses_the_metric():
    for n in range(3, 9):
        assert _index_one_identity_holds(Signature(n, 1)), n
    # a second timelike coordinate survives v_1 = 0 as -v_2^2
    assert not _index_one_identity_holds(Signature(5, 2))


# ---------------------------------------------------------------------------
# signature table


EXPECTED_CELLS = {
    "R^n_0 (n >= 3)": (False, True, False, False, False, False, False),
    "R^3_1": (True, True, False, True, False, True, False),
    "R^4_1": (True, True, True, True, False, True, True),
    "R^4_2": (True, True, False, True, True, True, True),
    "R^n_1 (n >= 5)": (True, True, True, True, False, True, True),
    "R^n_p (n >= 5, 2 <= p <= n/2)": (True, True, True, True, True, True, True),
}


def test_existence_table_matches_expected_matrix():
    rows = existence_table()
    assert [row.label for row in rows] == list(EXPECTED_CELLS)
    for row in rows:
        assert row.cells == EXPECTED_CELLS[row.label], row.label


def test_existence_table_rows_are_constant_over_representatives():
    for row in existence_table():
        for sig in row.representatives:
            assert cells_for(sig) == row.cells, (row.label, sig)


def test_table_family_order_is_stable():
    assert TABLE_FAMILIES == (
        FamilyId.MINIMAL_CYLINDER,
        FamilyId.ELLIPTIC_HELICOID_1,
        FamilyId.ELLIPTIC_HELICOID_2,
        FamilyId.HYPERBOLIC_HELICOID_1,
        FamilyId.HYPERBOLIC_HELICOID_2,
        FamilyId.PARABOLIC_HELICOID,
        FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID,
    )


def test_table_agrees_with_oracle_everywhere():
    for row in existence_table():
        for sig in row.representatives:
            for family, cell in zip(TABLE_FAMILIES, row.cells):
                assert existence_oracle(sig, family).exists == cell, (sig, family)


# ---------------------------------------------------------------------------
# randomized cross-check


def test_brute_force_finds_admissible_witnesses_quickly():
    result = brute_force_cross_check(R42, NormPattern(1, 1, 1), trials=200, seed=0)
    assert result.found
    assert result.first_success is not None


def test_brute_force_never_contradicts_the_decision():
    for sig in (R30, R31, R41, R42):
        for a in range(4):
            for b in range(4 - a):
                c = 3 - a - b
                pattern = NormPattern(a, b, c)
                result = brute_force_cross_check(sig, pattern, trials=60, seed=1)
                if result.found:
                    assert admits_pattern(sig, pattern), (sig, pattern)


def test_inconclusive_search_is_labelled_as_such():
    result = brute_force_cross_check(R31, NormPattern(1, 1, 1), trials=100, seed=0)
    assert not result.found
    assert result.first_success is None
    assert "inconclusive" in result.note


ALL_PATTERNS = [NormPattern(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]


def test_lockstep_search_equals_the_per_trial_loop():
    """Admissible pairs are included: their first_success pins the random stream."""
    for n in range(3, 7):
        for p in range(n + 1):
            sig = Signature(n, p)
            for pattern in ALL_PATTERNS:
                for seed in (0, 5, -4):
                    for trials in (3, 25):
                        got = brute_force_cross_check(sig, pattern, trials=trials, seed=seed)
                        assert got == brute_force_loop(sig, pattern, trials=trials, seed=seed), (
                            sig, pattern, seed, trials)


def test_chunk_size_does_not_change_the_search(monkeypatch):
    sig = Signature(5, 2)
    expected = {
        (pattern, seed): brute_force_loop(sig, pattern, trials=40, seed=seed)
        for pattern in ALL_PATTERNS
        for seed in (3, 7)
    }
    for chunk in (1, 6):
        monkeypatch.setattr(existence, "_SEARCH_CHUNK", chunk)
        for (pattern, seed), want in expected.items():
            assert brute_force_cross_check(sig, pattern, trials=40, seed=seed) == want, (chunk, pattern)


@pytest.fixture
def int64_chunks(monkeypatch):
    """(rows, spilled row indices) of each int64 lockstep run, in trial order.

    The spilled rows are the ones the search re-runs on Python ints.
    """
    calls = []
    lockstep = existence._lockstep

    def spy(np_, draws, *args):
        succeeded, spilled = lockstep(np_, draws, *args)
        if args[-1] is not object:
            calls.append((len(draws), np.flatnonzero(spilled).tolist()))
        return succeeded, spilled

    monkeypatch.setattr(existence, "_lockstep", spy)
    return calls


def test_trials_past_int64_rerun_on_python_ints(int64_chunks):
    # trials 97 and 196 reach 66-bit intermediates and fail
    sig, pattern = Signature(6, 2), NormPattern(0, 0, 3)
    result = brute_force_cross_check(sig, pattern, trials=200, seed=0)
    starts = itertools.accumulate([rows for rows, _ in int64_chunks], initial=0)
    rerun = {start + row for start, (_, spilled) in zip(starts, int64_chunks) for row in spilled}
    assert {97, 196} <= rerun
    assert result == brute_force_loop(sig, pattern, trials=200, seed=0)


def test_int64_wraparound_never_fakes_a_witness():
    # on wrapped int64 products, trial 2 would place all six vectors
    sig, pattern = Signature(8, 6), NormPattern(0, 0, 3)
    result = brute_force_cross_check(sig, pattern, trials=10, seed=0)
    assert not admits_pattern(sig, pattern)
    assert result == brute_force_loop(sig, pattern, trials=10, seed=0)
    assert not result.found


def test_python_int_rows_can_succeed(int64_chunks):
    # trials 181 and 139 succeed through 65- and 66-bit intermediates
    sig, pattern = Signature(6, 3), NormPattern(0, 0, 3)
    assert brute_force_cross_check(sig, pattern, trials=200, seed=0) == brute_force_loop(
        sig, pattern, trials=200, seed=0)
    template = [1, 1, 1, -1, -1, -1]
    for trial in (181, 139):
        int64_chunks.clear()
        assert existence._search_chunk(np, sig, template, 0, trial, trial + 1) == trial
        assert int64_chunks == [(1, [0])]


def test_a_sample_past_the_first_hit_never_spills(int64_chunks):
    # trial 12 places all six vectors in int64; in one slot a sample after
    # the first hit fails the bound, but the per-trial loop never computes it
    sig, template = Signature(6, 3), [1, 1, 1, -1, -1, -1]
    assert existence._search_chunk(np, sig, template, 0, 12, 13) == 12
    assert int64_chunks == [(1, [])]


def test_search_with_many_slots_matches_the_loop():
    # twenty slots: the static size bound must stop once it passes int64
    sig, pattern = Signature(20, 10), NormPattern(10, 10, 0)
    assert brute_force_cross_check(sig, pattern, trials=3, seed=1) == brute_force_loop(
        sig, pattern, trials=3, seed=1)


@pytest.mark.parametrize("sig, seed", [(Signature(4, 1), 7), (Signature(7, 2), 0), (Signature(8, 6), -3)])
def test_search_across_chunks_equals_the_per_trial_loop(sig, seed):
    # 129 and 300 trials run past the first chunk of 128: a full chunk and a
    # short one, or two full chunks and a short one
    assert existence._SEARCH_CHUNK == 128
    for pattern in ALL_PATTERNS:
        for trials in (129, 300):
            got = brute_force_cross_check(sig, pattern, trials=trials, seed=seed)
            assert got == brute_force_loop(sig, pattern, trials=trials, seed=seed), (pattern, trials)


def test_six_slot_search_spills_in_every_chunk(int64_chunks):
    # a trial spills only for a sample at or before its slot's first hit,
    # which the per-trial loop computes too; these are the rows whose int64
    # bound fails in that order
    sig, pattern = Signature(8, 2), NormPattern(0, 0, 3)
    result = brute_force_cross_check(sig, pattern, trials=300, seed=0)
    assert int64_chunks == [
        (128, [16, 17, 19, 20, 29, 34, 58, 64, 65, 70, 100, 101, 108, 114, 127]),
        (128, [4, 5, 32, 37, 41, 42, 47, 49, 56, 61, 64, 67, 71, 79, 84, 86, 89, 91]),
        (44, [2, 6, 12, 17, 31]),
    ]
    assert result == brute_force_loop(sig, pattern, trials=300, seed=0)


def test_empty_search_is_allowed():
    result = brute_force_cross_check(R42, NormPattern(1, 1, 1), trials=0, seed=0)
    assert (result.found, result.trials, result.first_success) == (False, 0, None)


def test_search_rejects_negative_trials():
    with pytest.raises(UsageError, match="trials"):
        brute_force_cross_check(R42, NormPattern(1, 1, 1), trials=-3)


def test_search_rejects_bool_trials():
    with pytest.raises(UsageError, match="trials"):
        brute_force_cross_check(R42, NormPattern(1, 1, 1), trials=True)


def test_search_rejects_non_integer_trials():
    with pytest.raises(UsageError, match="trials"):
        brute_force_cross_check(R42, NormPattern(1, 1, 1), trials=2.0)


def test_search_rejects_bool_seed():
    with pytest.raises(UsageError, match="seed"):
        brute_force_cross_check(R42, NormPattern(1, 1, 1), seed=False)


def test_search_rejects_non_integer_seed():
    with pytest.raises(UsageError, match="seed"):
        brute_force_cross_check(R42, NormPattern(1, 1, 1), seed=1.5)


# ---------------------------------------------------------------------------
# sign bookkeeping


def test_pattern_of_signs_counts_norm_values():
    assert pattern_of_signs(SignChoice(1, 1, 1)) == NormPattern(3, 0, 0)
    assert pattern_of_signs(SignChoice(1, -1, 0)) == NormPattern(1, 1, 1)
    assert pattern_of_signs(SignChoice(0, 1, 1)) == NormPattern(2, 0, 1)


def test_validate_signs_rejects_out_of_range_entries():
    with pytest.raises(UsageError, match="got 2"):
        validate_signs(FamilyId.ELLIPTIC_HELICOID_1, SignChoice(2, 1, 0))


def test_validate_signs_enforces_family_shape():
    # first kind needs unit direction and unit derivative, s3 anything nonzero
    validate_signs(FamilyId.ELLIPTIC_HELICOID_1, SignChoice(1, 1, -1))
    with pytest.raises(UsageError):
        validate_signs(FamilyId.ELLIPTIC_HELICOID_1, SignChoice(1, -1, 1))
    with pytest.raises(UsageError):
        validate_signs(FamilyId.HYPERBOLIC_HELICOID_2, SignChoice(1, -1, 1))
    with pytest.raises(UsageError):
        validate_signs(FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID, SignChoice(1, 1, 1))
