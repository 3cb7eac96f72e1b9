"""Tests for the OBJ and CSV exports against the per-value reference loops."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruledmin import FamilyId, SignChoice, Signature, generate, sweep_grid
from ruledmin.export import BLOCK_ROWS, _fmt_column, _magnitude_rows, csv_grid, obj_mesh
from ruledmin.jsonio import _fmt_float, surface_from_json

from _oracles import csv_grid_loop, obj_mesh_loop


def _spelled(values):
    """Every cell of _fmt_column's (strings, index) pair, decoded in C order;
    each distinct value is spelled by exactly one string."""
    strings, index = _fmt_column(values)
    assert len(set(strings.tolist())) == strings.size
    return [x.decode() for x in strings[index].tolist()]

EDGE_VALUES = [0.0, -0.0, 1e15, 9999999999999998.0, 1e16, 0.1, 5e-324,
               float("nan"), float("inf"), float("-inf")]


def test_column_formatter_spells_values_like_fmt_float():
    expected = [_fmt_float(x, "nan") for x in EDGE_VALUES]
    assert _spelled(np.array(EDGE_VALUES)) == expected
    assert expected[:2] == ["0", "0"]
    assert expected[-3:] == ["nan"] * 3


def test_column_formatter_matches_on_random_magnitudes():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(2000) * 10.0 ** rng.integers(-20, 20, 2000)
    vals[::97] = np.round(vals[::97])
    assert _spelled(vals) == [_fmt_float(x, "nan") for x in vals]


def _per_value(values):
    return [_fmt_float(x, "nan") for x in np.asarray(values, dtype=float).ravel()]


def test_column_formatter_maps_repeated_values_back_in_c_order():
    rng = np.random.default_rng(11)
    grid = rng.choice([0.1, -2.5, 1e-300, 3.0, 7e22], size=(37, 23))
    assert grid.flags.c_contiguous
    assert _spelled(grid) == _per_value(grid)
    # a transposed (Fortran-ordered) view is read in its own C order too
    assert _spelled(grid.T) == _per_value(grid.T)


@pytest.mark.parametrize(
    "values",
    [
        [0.0, -0.0, 1.5, -0.0, 0.0, -0.0],
        [float("nan"), float("inf"), 1.0, float("-inf"), float("nan"), float("-inf"), float("inf")],
        [5e-324, -5e-324, 2.2250738585072009e-308, 5e-324, 1e-310, -1e-310, 1e-310],
        EDGE_VALUES * 3,
        [1.5, -1.5, 0.1, -0.1, 7e22, -7e22, 5e-324, -5e-324, 3.0],
        [-1.5, -0.1, -7e22, -5e-324, -1.5, -2.2250738585072014e-308],
        [0.0, -0.0, float("nan"), float("inf"), float("-inf"), -0.0, -2.5, 0.0, float("nan")],
        [-0.0, float("-inf"), -0.0, float("nan"), float("inf")],
    ],
    ids=["signed-zeros", "non-finite", "subnormals", "edge-values", "plus-and-minus",
         "all-negative", "zeros-and-non-finite", "no-finite-negative"],
)
def test_column_formatter_folds_zeros_and_non_finite_values(values):
    assert _spelled(np.array(values)) == _per_value(values)


def test_column_formatter_formats_each_magnitude_once():
    # -x is "-" and the string of x: one half per sign, a magnitude per row
    strings, index = _fmt_column(np.array([2.5, -2.5, -0.0, 1e-7, -1e-7, float("-inf")]))
    assert strings.tolist() == [b"0", b"9.9999999999999995e-08", b"2.5", b"nan",
                                b"-0", b"-9.9999999999999995e-08", b"-2.5", b"-nan"]
    assert index.tolist() == [2, 6, 0, 1, 5, 3]
    # with no finite negative value there is no second half
    strings, _ = _fmt_column(np.array([-0.0, float("-inf"), 3.0]))
    assert strings.tolist() == [b"0", b"3", b"nan"]


def test_column_formatter_fits_the_longest_spelling():
    # a sign, 17 digits, a point and a three-digit exponent: 24 bytes
    values = [-5e-324, -1.7976931348623157e308, -2.2250738585072014e-308, 1.0]
    spelled = _spelled(np.array(values))
    assert spelled == _per_value(values)
    assert [len(x) for x in spelled] == [24, 24, 24, 1]


def test_column_formatter_on_columns_constant_along_a_grid_direction():
    s = np.linspace(-3.0, 3.0, 41)
    t = np.linspace(-2.0, 2.0, 29)
    columns = {
        "constant along t": np.broadcast_to(np.cosh(s)[:, None], (s.size, t.size)),
        "constant along s": np.broadcast_to(np.sinh(t)[None, :], (s.size, t.size)),
        "constant": np.full((s.size, t.size), -0.3),
        "all distinct": np.sinh(s)[:, None] * t[None, :] + np.cos(s)[:, None],
    }
    for name, col in columns.items():
        assert _spelled(col) == _per_value(col), name


def _kernel_mismatches(values):
    """The magnitudes of values (sorted and distinct, non-finite folded to
    nan, as _fmt_column hands them on) whose kernel row is not
    _fmt_float(x, "nan")."""
    v = np.asarray(values, dtype=float).ravel()
    magnitudes = np.unique(np.where(np.isfinite(v), np.abs(v), np.nan))
    rows = _magnitude_rows(magnitudes)
    got = [row.tobytes().rstrip(b"\0").decode() for row in rows]
    assert all(b"\0" not in row.tobytes().rstrip(b"\0") for row in rows)  # NULs only at the end
    return [(x, spelled) for x, spelled in zip(magnitudes.tolist(), got) if spelled != _fmt_float(x, "nan")]


def test_the_kernel_matches_fmt_float_on_random_bit_patterns():
    # every double, subnormals, infinities and NaN payloads included; sorted,
    # they span many row blocks and every decade
    bits = np.random.default_rng(3).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert np.unique(np.abs(values[np.isfinite(values)])).size > 4 * BLOCK_ROWS
    assert _kernel_mismatches(values) == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_the_kernel_matches_fmt_float_on_drawn_bit_patterns(patterns):
    assert _kernel_mismatches(np.array(patterns, dtype=np.uint64).view(np.float64)) == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_the_kernel_matches_fmt_float_on_drawn_floats(values):
    assert _kernel_mismatches(values) == []
    assert _spelled(np.array(values)) == _per_value(values)


def test_the_kernel_matches_fmt_float_at_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-300, 300)])
    assert _kernel_mismatches(np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])) == []


def _exact_ties():
    """Doubles x = (2N + 1) / 2 * 10**(k - 16) with N of 17 digits: exactly
    halfway between two 17-digit decimals, so their 18th significant digit
    is a final 5. x = odd / 2**(17 - k) needs 5**(16 - k) to divide 2N + 1."""
    rng = np.random.default_rng(5)
    ties = []
    for k in range(-8, 16):
        five = 5 ** (16 - k)
        low, high = -(-(2 * 10**16 + 1) // five), min((2 * 10**17 - 1) // five, 2**53 - 1)
        for odd in rng.integers(low, high, 40, endpoint=True).tolist():
            odd |= 1
            if odd <= high:
                ties.append(float(np.ldexp(float(odd), k - 17)))
    return ties


def test_the_kernel_matches_fmt_float_on_exact_ties():
    ties = _exact_ties()
    assert len(ties) > 500
    parities = set()
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x
        parities.add(digits[16] % 2)
    # round half to even keeps an even 17th digit and rounds an odd one up
    assert parities == {0, 1}
    assert _kernel_mismatches(ties) == []


def test_the_kernel_matches_fmt_float_at_the_edges_of_its_range():
    edges = np.array([1e-280, 1e280])
    values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                             [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072009e-308,
                              2.2250738585072014e-308, 1.7976931348623157e308,
                              np.inf, -np.inf, np.nan]])
    assert _kernel_mismatches(values) == []


def test_a_column_constant_along_t_sorts_only_its_s_values(monkeypatch):
    sizes = []
    unique = np.unique

    def recording_unique(values, *args, **kwargs):
        sizes.append(np.size(values))
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", recording_unique)
    s = np.linspace(-3.0, 3.0, 41)
    col = np.broadcast_to(np.where(s < 0, -np.cosh(s), 0.0)[:, None], (41, 29)).copy()
    col[30, 5] = -0.0  # equal to 0.0 and spelled "0" too
    col[35, :] = -0.0
    assert _spelled(col) == _per_value(col)
    assert sizes == [41]
    sizes.clear()
    col[7, 28] += 1.0
    assert _spelled(col) == _per_value(col)
    assert sizes == [41 * 29]


def _t_grid_through_zero(num=21):
    t = np.linspace(-2.0, 2.0, num)
    t[num // 2] = -0.0
    return t


@pytest.mark.parametrize(
    "sig,family,signs,degenerate",
    [
        (Signature(3, 0), FamilyId.ELLIPTIC_HELICOID_1, SignChoice(1, 1, 1), False),
        (Signature(3, 1), FamilyId.PARABOLIC_HELICOID, None, True),
        (Signature(4, 2), FamilyId.HYPERBOLIC_HELICOID_2, None, True),
        (Signature(6, 3), FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID, None, False),
    ],
    ids=str,
)
def test_exports_match_the_per_value_loops(sig, family, signs, degenerate):
    surf = generate(sig, family, signs=signs)
    s = np.linspace(-3.0, 3.0, 17)
    t = _t_grid_through_zero()
    assert np.signbit(t).sum() == 11  # the -0.0 at the centre is negative
    sweep = sweep_grid(sig, surf, s, t)
    csv_text = csv_grid(sig, sweep)
    assert obj_mesh(sig, sweep) == obj_mesh_loop(sig, sweep, s, t)
    assert csv_text == csv_grid_loop(sig, sweep)
    # the degenerate locus t = 0 is on the grid: NaN |H| and "degenerate" rows
    assert np.isnan(sweep.H_norm).any() == degenerate
    assert ("degenerate" in csv_text) == degenerate
    assert (",nan," in csv_text) == degenerate


@pytest.mark.parametrize("shape", [(182, 181), (128, 256), (2, 2), (3, 3), (2, 5), (10, 10), (4, 25)],
                         ids=str)
def test_exports_match_the_per_value_loops_across_row_blocks(shape):
    # 182 x 181: vertices and faces straddle a block boundary, with NaN |H|
    # rows on t = 0; 128 x 256: exactly one block of vertices; 3 x 3 to
    # 4 x 25: 9, 10 and 100 vertices, so the last vertex number is one digit
    # wider than the first, or than all the others
    sig = Signature(4, 2)
    surf = generate(sig, FamilyId.HYPERBOLIC_HELICOID_2)
    s, t = surf.default_grids(shape)
    sweep = sweep_grid(sig, surf, s, t)
    vertices, faces = s.size * t.size, 2 * (s.size - 1) * (t.size - 1)
    if shape == (182, 181):
        assert BLOCK_ROWS < vertices < faces < 2 * BLOCK_ROWS
        assert np.isnan(sweep.H_norm).any()
    if shape == (128, 256):
        assert vertices == BLOCK_ROWS
    for got, want in ((obj_mesh(sig, sweep), obj_mesh_loop(sig, sweep, s, t)),
                      (csv_grid(sig, sweep), csv_grid_loop(sig, sweep))):
        # report the first differing lines; pytest's own diff of megabyte strings takes minutes
        same = got == want
        assert same, next((pair for pair in zip(got.split("\n"), want.split("\n"))
                           if pair[0] != pair[1]), "the texts differ in length")


def test_a_two_dimensional_mesh_pads_the_third_coordinate_with_zeros():
    sig, surf = surface_from_json({
        "signature": {"n": 2, "p": 0},
        "gamma": {"n": 2, "terms": [{"basis": "pow", "param": 0, "coeff": [0, 1]}]},
        "base": {"n": 2, "terms": [{"basis": "pow", "param": 1, "coeff": [1, 0]}]},
        "s_domain": [-1, 1],
        "t_domain": [-1, 1],
    })
    s, t = np.linspace(-1.0, 1.0, 5), _t_grid_through_zero(7)
    sweep = sweep_grid(sig, surf, s, t)
    text = obj_mesh(sig, sweep)
    assert text == obj_mesh_loop(sig, sweep, s, t)
    assert "v -1 -2 0\n" in text


@pytest.mark.parametrize(
    "sig,family,signs",
    [
        (Signature(3, 0), FamilyId.PLANE, None),
        (Signature(3, 1), FamilyId.MINIMAL_CYLINDER, None),
        (Signature(5, 2), FamilyId.ELLIPTIC_HELICOID_1, SignChoice(1, 1, 1)),
        (Signature(4, 1), FamilyId.ELLIPTIC_HELICOID_2, SignChoice(1, 1, 0)),
        (Signature(3, 1), FamilyId.HYPERBOLIC_HELICOID_1, SignChoice(1, -1, 1)),
        (Signature(6, 3), FamilyId.HYPERBOLIC_HELICOID_2, None),
        (Signature(5, 3), FamilyId.PARABOLIC_HELICOID, SignChoice(1, 1, -1)),
        (Signature(4, 1), FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID, SignChoice(0, 1, 1)),
    ],
    ids=str,
)
def test_every_family_exports_like_the_per_value_loops_at_101x101(sig, family, signs):
    surf = generate(sig, family, signs=signs)
    s, t = surf.default_grids((101, 101))
    sweep = sweep_grid(sig, surf, s, t)
    assert obj_mesh(sig, sweep) == obj_mesh_loop(sig, sweep, s, t)
    assert csv_grid(sig, sweep) == csv_grid_loop(sig, sweep)
