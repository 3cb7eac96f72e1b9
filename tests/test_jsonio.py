"""Tests for the JSON wire format: determinism, round trips, tagged errors."""

import math
from decimal import Decimal
from fractions import Fraction

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dumps_abc

from ruledmin import CurveExpr, FamilyId, SignChoice, Signature, UsageError, generate
from ruledmin.jsonio import (
    _fmt_float,
    curve_from_json,
    curve_to_json,
    dumps,
    loads_surface,
    surface_from_json,
    surface_to_json,
)

R31 = Signature(3, 1)


def _grid():
    return np.linspace(-2.0, 2.0, 17)


def test_integral_floats_print_as_integers_below_1e16():
    """The one rule, "%.17g" of x + 0.0, prints an integral value below 1e16
    as its int, as a separate integral branch once spelled it."""
    rng = np.random.default_rng(11)
    vals = np.round(rng.standard_normal(3000) * 10.0 ** rng.integers(0, 18, 3000))
    vals = [*vals.tolist(), -0.0, 2.0**53, 1e16 - 2, 1e16, 1e16 + 2, 1e17]
    want = [str(int(x)) if abs(x) < 1e16 else format(x, ".17g") for x in vals]
    assert [_fmt_float(x) for x in vals] == want


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize(
    "family,signs",
    [
        (FamilyId.ELLIPTIC_HELICOID_1, SignChoice(1, 1, -1)),
        (FamilyId.PARABOLIC_HELICOID, SignChoice(1, 1, -1)),
        (FamilyId.MINIMAL_CYLINDER, None),
    ],
)
def test_surface_round_trip_preserves_evaluations(family, signs):
    surf = generate(R31, family, signs=signs)
    text = dumps(surface_to_json(R31, surf))
    sig2, surf2 = loads_surface(text)
    assert sig2 == R31
    s = _grid()
    for order in (0, 1, 2):
        assert np.array_equal(surf.gamma.eval(s, order), surf2.gamma.eval(s, order))
        assert np.array_equal(surf.base.eval(s, order), surf2.base.eval(s, order))
    assert surf2.s_domain == surf.s_domain
    assert surf2.t_domain == surf.t_domain


def test_curve_round_trip_with_mixed_bases():
    data = {
        "n": 2,
        "terms": [
            {"basis": "pow", "param": 2, "coeff": [1, 0]},
            {"basis": "sin", "param": 3.0, "coeff": [0, 2]},
            {"basis": "cosh", "param": 0.5, "coeff": [1, 1]},
        ],
    }
    curve = curve_from_json(data)
    curve2 = curve_from_json(curve_to_json(curve))
    s = _grid()
    assert np.array_equal(curve.eval(s), curve2.eval(s))
    expected = np.stack(
        [s**2 + np.cosh(0.5 * s), 2 * np.sin(3.0 * s) + np.cosh(0.5 * s)], axis=-1
    )
    assert np.allclose(curve.eval(s), expected, atol=1e-14)


def test_serialized_output_is_byte_deterministic():
    surf = generate(R31, FamilyId.HYPERBOLIC_HELICOID_1, signs=SignChoice(1, -1, 1))
    a = dumps(surface_to_json(R31, surf))
    b = dumps(surface_to_json(R31, generate(R31, FamilyId.HYPERBOLIC_HELICOID_1,
                                            signs=SignChoice(1, -1, 1))))
    assert a == b


# ---------------------------------------------------------------------------
# the "degree" field: polynomial prefactor for transcendental bases


def test_degree_multiplies_basis_by_a_power():
    data = {
        "n": 1,
        "terms": [{"basis": "sin", "param": 2.0, "degree": 1, "coeff": [1.0]}],
    }
    curve = curve_from_json(data)
    s = _grid()
    assert np.allclose(curve.eval(s)[:, 0], s * np.sin(2.0 * s), atol=1e-14)
    # derivative: sin(2s) + 2 s cos(2s)
    expected = np.sin(2.0 * s) + 2.0 * s * np.cos(2.0 * s)
    assert np.allclose(curve.eval(s, 1)[:, 0], expected, atol=1e-13)


def test_degree_round_trips_through_the_serializer():
    data = {
        "n": 2,
        "terms": [{"basis": "exp", "param": -1.0, "degree": 2, "coeff": [1.0, -0.5]}],
    }
    curve = curve_from_json(data)
    curve2 = curve_from_json(curve_to_json(curve))
    s = _grid()
    assert np.array_equal(curve.eval(s, 1), curve2.eval(s, 1))


def test_degree_is_rejected_on_power_terms():
    data = {
        "n": 1,
        "terms": [{"basis": "pow", "param": 2, "degree": 1, "coeff": [1.0]}],
    }
    with pytest.raises(UsageError, match=r"terms\[0\]\.degree: not allowed"):
        curve_from_json(data)


# ---------------------------------------------------------------------------
# path-tagged validation errors


def _valid_surface_dict():
    return surface_to_json(R31, generate(R31, FamilyId.PARABOLIC_HELICOID))


def test_error_paths_name_the_offending_field():
    cases = [
        ({"signature": {"n": "x", "p": 1}}, "signature.n: expected an integer, got 'x'"),
        ({"signature": {"n": 3}}, "signature.p: missing required field"),
        ({"signature": {"n": 3, "p": 5}}, "signature.p: index 5 exceeds dimension 3"),
    ]
    for data, message in cases:
        with pytest.raises(UsageError) as err:
            surface_from_json(data)
        assert str(err.value) == message


def test_error_path_inside_curve_terms():
    data = _valid_surface_dict()
    data["gamma"]["terms"][1]["basis"] = "tanh"
    with pytest.raises(UsageError, match=r"gamma\.terms\[1\]\.basis: unknown basis 'tanh'"):
        surface_from_json(data)

    data = _valid_surface_dict()
    data["base"]["terms"][0]["coeff"] = [1, 0]
    with pytest.raises(UsageError, match=r"base\.terms\[0\]\.coeff: expected 3 components"):
        surface_from_json(data)

    data = _valid_surface_dict()
    data["base"]["terms"][0]["coeff"][2] = "q"
    with pytest.raises(UsageError, match=r"base\.terms\[0\]\.coeff\[2\]"):
        surface_from_json(data)


def test_unknown_fields_are_rejected_with_their_path():
    cases = [
        (("gamma", "terms", 0), "rate", 0.5, r"gamma\.terms\[0\]\.rate: unknown field"),
        (("base",), "scale", 2, r"base\.scale: unknown field"),
        (("signature",), "q", 1, r"signature\.q: unknown field"),
        ((), "comment", "hi", r"surface\.comment: unknown field"),
    ]
    for where, key, value, message in cases:
        data = _valid_surface_dict()
        target = data
        for step in where:
            target = target[step]
        target[key] = value
        with pytest.raises(UsageError, match=message):
            surface_from_json(data)


def test_dimension_mismatch_between_curve_and_signature():
    data = _valid_surface_dict()
    data["gamma"] = {"n": 4, "terms": [{"basis": "pow", "param": 0, "coeff": [1, 0, 0, 0]}]}
    with pytest.raises(UsageError, match="gamma.n: curve dimension 4 does not match"):
        surface_from_json(data)


def test_domain_validation():
    data = _valid_surface_dict()
    data["s_domain"] = [2.0, -2.0]
    with pytest.raises(UsageError, match="s_domain"):
        surface_from_json(data)
    data = _valid_surface_dict()
    del data["t_domain"]
    with pytest.raises(UsageError, match="t_domain"):
        surface_from_json(data)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["signature"].update(n=math.nan), "signature.n: expected an integer, got nan"),
    (lambda d: d["signature"].update(p=math.inf), "signature.p: expected an integer, got inf"),
    (
        lambda d: d["gamma"]["terms"][0].update(basis="cos", param=1.0, degree=-math.inf),
        "gamma.terms[0].degree: expected an integer, got -inf",
    ),
    (
        lambda d: d["gamma"]["terms"][0].update(basis="pow", param=math.inf),
        "gamma.terms[0].param: expected a finite number, got inf",
    ),
    (lambda d: d.update(s_domain=[-3, 10**400]), f"s_domain[1]: expected a finite number, got {10**400}"),
    (
        lambda d: d["base"]["terms"][0]["coeff"].__setitem__(0, -(10**400)),
        f"base.terms[0].coeff[0]: expected a finite number, got {-(10**400)}",
    ),
], ids=["n-nan", "p-inf", "degree-inf", "param-inf", "s-domain-400-digits", "coeff-400-digits"])
def test_non_finite_and_oversized_numbers_are_tagged_usage_errors(edit, message):
    """Python's json reads NaN, Infinity and integers past the float range;
    each is a malformed field, not a crash."""
    import json

    data = _valid_surface_dict()
    edit(data)
    with pytest.raises(UsageError) as err:
        loads_surface(json.dumps(data))
    assert str(err.value) == message


def test_an_integer_literal_past_the_digit_limit_is_invalid_json():
    text = dumps(_valid_surface_dict()).replace('"s_domain": [-3', '"s_domain": [-' + "1" * 5000, 1)
    assert "1" * 5000 in text
    with pytest.raises(UsageError, match="invalid JSON"):
        loads_surface(text)


def test_python_and_json_curve_terms_read_alike():
    """from_basis_terms and curve_from_json build the same term dict, in the
    same order, and reject the same terms."""
    specs = [("pow", 2, (1.0, 0.0)), ("sin", -3.0, (0.0, 2.0)), ("cosh", 0.5, (1.0, 1.0)),
             ("cos", 0.0, (0.5, 0.0)), ("pow", 0, (0.0, -1.0))]
    curve = CurveExpr.from_basis_terms(2, specs)
    wire = {"n": 2, "terms": [{"basis": b, "param": p, "coeff": list(c)} for b, p, c in specs]}
    read = curve_from_json(wire)
    assert list(curve.terms) == list(read.terms)
    assert all(np.array_equal(curve.terms[a], read.terms[a]) for a in curve.terms)
    for basis, param in [("pow", 1.5), ("pow", -1), ("tanh", 1.0), ("cos", math.nan)]:
        with pytest.raises(UsageError):
            CurveExpr.from_basis_terms(2, [(basis, param, (1.0, 0.0))])
        with pytest.raises(UsageError):
            curve_from_json({"n": 2, "terms": [{"basis": basis, "param": param, "coeff": [1, 0]}]})


# ---------------------------------------------------------------------------
# primitive formatting


def test_non_finite_floats_serialize_as_null():
    text = dumps({"a": float("nan"), "b": float("inf"), "c": -math.inf})
    assert '"a": null' in text
    assert '"b": null' in text
    assert '"c": null' in text


def test_whole_floats_print_as_integers():
    assert dumps({"x": 3.0}) == '{\n  "x": 3\n}\n'
    assert dumps({"x": 0.5}) == '{\n  "x": 0.5\n}\n'


def test_numpy_scalars_and_arrays_serialize():
    text = dumps({"arr": np.array([1.0, 2.5]), "flag": np.bool_(True), "k": np.int64(7)})
    assert '"arr": [1, 2.5]' in text
    assert '"flag": true' in text
    assert '"k": 7' in text


def test_seventeen_digit_floats_round_trip_exactly():
    import json

    value = 1.0 / 3.0
    parsed = json.loads(dumps({"v": value}))
    assert parsed["v"] == value


def test_numpy_booleans_print_inline_like_bools():
    assert dumps({"b": [np.True_, np.False_]}) == '{\n  "b": [true, false]\n}\n'
    assert dumps({"b": [np.True_, np.False_]}) == dumps({"b": [True, False]})
    assert dumps(np.array([True, False])) == "[true, false]\n"


# ---------------------------------------------------------------------------
# the concrete-type emitter against the numbers-ABC emitter it replaced

_awkward_text = st.text(
    st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\xe9\u4e2d\U0001f600'), st.characters())
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=1 - 10**4000, max_value=10**4000 - 1),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308]),
    _awkward_text,
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    st.fractions(),
)
_ndarrays = hnp.arrays(
    dtype=st.sampled_from([np.int64, np.float32, np.float64, np.bool_]),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
)
_trees = st.recursive(
    st.one_of(_scalars, _ndarrays),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_awkward_text, children, max_size=5),
    ),
    max_leaves=25,
)


def _outcome(serialize, tree):
    """The text, or the type and message of what serialize raised."""
    try:
        return serialize(tree)
    except Exception as exc:  # noqa: BLE001  (both emitters must fail alike)
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(tree=_trees)
def test_dumps_matches_the_abc_emitter(tree):
    assert _outcome(dumps, tree) == _outcome(dumps_abc, tree)


@pytest.mark.parametrize(
    "obj",
    [
        {1: "a"},
        {"a": {(1, 2): 0}},
        {"z": 1j},
        [1.5, 2j],
        [[Decimal("1.5")]],
        {"d": Decimal(3)},
        {"s": {1, 2}},
        [None, frozenset()],
        ({"ok": 1, 2: set()},),
        np.array([1 + 2j]),
    ],
)
def test_unserializable_input_raises_the_abc_emitters_message(obj):
    with pytest.raises(UsageError) as want:
        dumps_abc(obj)
    with pytest.raises(UsageError) as got:
        dumps(obj)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value", [Fraction(10**400, 3), Fraction(-(10**309)), Fraction(2**1024)])
def test_a_fraction_beyond_the_float_range_is_a_usage_error(value):
    message = "cannot serialize Fraction: the value is beyond the float range"
    for serialize in (dumps, dumps_abc):
        with pytest.raises(UsageError) as err:
            serialize({"q": [value]})
        assert str(err.value) == message


def test_fractions_and_numpy_scalars_print_by_value():
    assert dumps([Fraction(1, 4), np.float32(0.5), np.int64(-3), np.float64(-0.0)]) == "[0.25, 0.5, -3, 0]\n"
