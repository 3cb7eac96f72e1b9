"""End-to-end tests for the command line interface."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ruledmin
from ruledmin import FamilyId, Signature, UsageError, cli, generate, surface, sweep_grid
from ruledmin.families import CLI_NAME_OF
from ruledmin.jsonio import surface_from_json

from _oracles import csv_grid_loop, obj_mesh_loop
from test_catalog import _admissible_triples, negate_det_g


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_json(argv):
    rc, out, _ = run(argv)
    return rc, json.loads(out)


@pytest.fixture
def circular_cylinder_file(tmp_path):
    """Constant vertical ruling over a circle: the classic non-minimal cylinder."""
    data = {
        "signature": {"n": 3, "p": 0},
        "gamma": {"n": 3, "terms": [{"basis": "pow", "param": 0, "coeff": [0, 0, 1]}]},
        "base": {
            "n": 3,
            "terms": [
                {"basis": "cos", "param": 1.0, "coeff": [1, 0, 0]},
                {"basis": "sin", "param": 1.0, "coeff": [0, 1, 0]},
            ],
        },
        "s_domain": [-3, 3],
        "t_domain": [-3, 3],
    }
    path = tmp_path / "cylinder.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def degenerate_metric_file(tmp_path):
    """Null ruling along a null base line: every invariant vanishes."""
    data = {
        "signature": {"n": 3, "p": 1},
        "gamma": {
            "n": 3,
            "terms": [
                {"basis": "pow", "param": 0, "coeff": [0, 0, 1]},
                {"basis": "pow", "param": 1, "coeff": [1, 1, 0]},
            ],
        },
        "base": {"n": 3, "terms": [{"basis": "pow", "param": 1, "coeff": [1, 1, 0]}]},
        "s_domain": [-2, 2],
        "t_domain": [-2, 2],
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# verify


def test_verify_generated_family_is_minimal():
    rc, doc = run_json(["verify", "--family", "elliptic-helicoid-1", "--sig", "3,1",
                        "--signs", "1,1,-1"])
    assert rc == 0
    report = doc["minimality"]
    assert report["verdict"] == "minimal"
    assert report["max_h_norm"] <= 1e-8
    assert report["points_checked"] == 41 * 41
    assert doc["totally_geodesic"] is False


def test_verify_minimality_object_keeps_its_keys():
    rc, doc = run_json(["verify", "--family", "hyperbolic-helicoid-2", "--sig", "4,2"])
    assert rc == 0
    assert set(doc) == {"command", "signature", "family", "minimality",
                        "totally_geodesic", "structure"}
    assert set(doc["minimality"]) == {"verdict", "residual", "max_h_norm", "tol", "points_checked",
                                      "points_degenerate", "degenerate_sample", "grid"}


def test_verify_flags_the_circular_cylinder(circular_cylinder_file):
    rc, doc = run_json(["verify", "--input", circular_cylinder_file])
    assert rc == 1
    report = doc["minimality"]
    assert report["verdict"] == "not-minimal"
    assert abs(report["max_h_norm"] - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# classify


def test_classify_recognizes_the_helicoid():
    rc, doc = run_json(["classify", "--family", "elliptic-helicoid-1", "--sig", "3,0"])
    assert rc == 0
    assert doc["case"] == "i"
    assert doc["raw_case"] == "i"
    assert doc["family"] == "elliptic-helicoid-1"


def test_classify_reports_the_parabolic_case_shift():
    rc, doc = run_json(["classify", "--family", "parabolic-helicoid", "--sig", "3,1"])
    assert rc == 0
    assert doc["case"] == "iv"
    assert doc["raw_case"] == "vi"
    assert any("ruling-line shift" in note for note in doc["notes"])
    inv = doc["invariants"]
    assert (inv["epsilon"], inv["eta"], inv["delta"]) == (1, 0, 0)
    assert inv["mu"]["kind"] == "constant"
    assert inv["mu"]["value"] == -2


def test_classify_paraboloid_case():
    rc, doc = run_json(["classify", "--family", "minimal-hyperbolic-paraboloid",
                        "--sig", "4,1"])
    assert rc == 0
    assert doc["case"] == "v"
    assert doc["family"] == "minimal-hyperbolic-paraboloid"


def test_classify_names_the_direction_speed_the_normal_form_lacks(tmp_path):
    # gamma = cos 2s e1 + sin 2s e2 has <gamma', gamma'> = 4, not 0 or +-1
    data = {
        "signature": {"n": 3, "p": 0},
        "gamma": {
            "n": 3,
            "terms": [
                {"basis": "cos", "param": 2.0, "coeff": [1, 0, 0]},
                {"basis": "sin", "param": 2.0, "coeff": [0, 1, 0]},
            ],
        },
        "base": {"n": 3, "terms": [{"basis": "pow", "param": 1, "coeff": [0, 0, 1]}]},
        "s_domain": [-3, 3],
        "t_domain": [-3, 3],
    }
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(data))
    rc, doc = run_json(["classify", "--input", str(path)])
    assert rc == 2
    assert doc["error"] == "ConventionError"
    assert "<gamma', gamma'>" in doc["message"]
    assert "reparametrize" not in doc["message"]


def test_classify_gives_a_bumped_helicoid_the_not_minimal_verdict(tmp_path):
    # the bump makes <x', x'> vary after the gauge; exit 1 with a diagnosis,
    # not exit 2 with a ConventionError
    data = {
        "signature": {"n": 3, "p": 0},
        "gamma": {
            "n": 3,
            "terms": [
                {"basis": "cos", "param": 1.0, "coeff": [1, 0, 0]},
                {"basis": "sin", "param": 1.0, "coeff": [0, 1, 0]},
            ],
        },
        "base": {
            "n": 3,
            "terms": [
                {"basis": "pow", "param": 1, "coeff": [0, 0, 1]},
                {"basis": "cosh", "param": 0.5, "coeff": [0.001, 0, 0]},
            ],
        },
        "s_domain": [-3, 3],
        "t_domain": [-3, 3],
    }
    path = tmp_path / "bumped.json"
    path.write_text(json.dumps(data))
    rc, doc = run_json(["classify", "--input", str(path)])
    assert rc == 1
    assert doc["diagnosis"].startswith("not minimal")
    assert doc["minimality"]["verdict"] == "not-minimal"
    assert doc["invariants"] is None


def test_classify_rejects_identically_degenerate_metric(degenerate_metric_file):
    rc, doc = run_json(["classify", "--input", degenerate_metric_file])
    assert rc == 1
    assert doc["case"] is None
    assert doc["raw_case"] == "vii"
    assert doc["family"] is None
    assert "metric" in doc["diagnosis"]


# ---------------------------------------------------------------------------
# existence


EXPECTED_ROWS = {
    "R^n_0 (n >= 3)": ["x", "O", "x", "x", "x", "x", "x"],
    "R^3_1": ["O", "O", "x", "O", "x", "O", "x"],
    "R^4_1": ["O", "O", "O", "O", "x", "O", "O"],
    "R^4_2": ["O", "O", "x", "O", "O", "O", "O"],
    "R^n_1 (n >= 5)": ["O", "O", "O", "O", "x", "O", "O"],
    "R^n_p (n >= 5, 2 <= p <= n/2)": ["O", "O", "O", "O", "O", "O", "O"],
}


def test_existence_table_text():
    rc, out, _ = run(["existence", "--table"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# family columns: 1=minimal-cylinder")
    assert lines[1].split() == ["signature"] + [str(i) for i in range(1, 8)]
    for line, (label, cells) in zip(lines[2:], EXPECTED_ROWS.items()):
        assert line.startswith(label)
        assert line[len(label):].split() == cells, label


def test_existence_table_csv():
    rc, out, _ = run(["existence", "--table", "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == (
        "signature,minimal-cylinder,elliptic-helicoid-1,elliptic-helicoid-2,"
        "hyperbolic-helicoid-1,hyperbolic-helicoid-2,parabolic-helicoid,"
        "minimal-hyperbolic-paraboloid"
    )
    assert lines[1] == '"R^n_0 (n >= 3)",false,true,false,false,false,false,false'
    assert lines[4] == '"R^4_2",true,true,false,true,true,true,true'


def test_existence_table_json_matches_text():
    rc, doc = run_json(["existence", "--table", "--format", "json"])
    assert rc == 0
    for row in doc["rows"]:
        cells = ["O" if c else "x" for c in row["cells"].values()]
        assert cells == EXPECTED_ROWS[row["signature"]], row["signature"]
        assert [rep["n"] >= 3 for rep in row["representatives"]]


@pytest.mark.parametrize("flags, named", [
    (["--sig", "3,1"], "--sig"),
    (["--family", "plane", "--signs", "1,1,1"], "--family, --signs"),
    (["--signs", "1,-1,0", "--format", "csv"], "--signs"),
    (["--sig", "4,2", "--family", "hyperbolic-helicoid-2"], "--sig, --family"),
])
def test_existence_table_with_a_query_flag_exits_2(flags, named):
    """--table prints the whole table, so a signature, family or sign choice
    beside it is rejected, not ignored."""
    rc, doc = run_json(["existence", "--table", *flags])
    assert rc == 2
    assert doc["error"] == "UsageError" and doc["message"].endswith(f"drop {named}")


def test_existence_witness_payload():
    rc, doc = run_json(["existence", "--sig", "4,2", "--family", "hyperbolic-helicoid-2"])
    assert rc == 0
    assert doc["verdict"] == "Witness"
    frame = doc["frame"]
    assert frame["vectors"] == [[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 1]]
    assert frame["signs"] == [1, -1, 0]
    assert frame["gram"] == [[1, 0, 0], [0, -1, 0], [0, 0, 0]]


def test_existence_certificate_payload():
    rc, doc = run_json(["existence", "--sig", "3,1", "--family", "hyperbolic-helicoid-2"])
    assert rc == 0
    assert doc["verdict"] == "NonExistence"
    cert = doc["certificate"]
    assert cert["kind"] == "IndexOneNullOrthogonalObstruction"
    assert cert["replay"]["steps"]
    assert any("forces v_1 = 0" in step["statement"] for step in cert["replay"]["steps"])


def test_sign_specific_certificate_replays():
    # (1,2,0) cannot fit R^4_1, although the family exists there with other signs
    rc, doc = run_json(
        ["existence", "--sig", "4,1", "--family", "hyperbolic-helicoid-1", "--signs=1,-1,-1"]
    )
    assert rc == 0
    assert doc["verdict"] == "NonExistence"
    cert = doc["certificate"]
    assert cert["pattern"] == {"a": 1, "b": 2, "c": 0}
    assert cert["replay"]["conclusion"] == f"violated: {cert['violated']}"


@pytest.mark.parametrize("argv", [
    ["existence", "--sig", "4,1", "--family", "plane", "--format", "csv"],
    ["existence", "--sig", "4,1", "--family", "plane", "--format", "obj"],
    ["causal-map", "--sig", "3,1", "--family", "parabolic-helicoid", "--format", "obj"],
])
def test_format_a_command_cannot_print_is_a_usage_error(argv):
    rc, doc = run_json(argv)
    assert rc == 2
    assert doc["error"] == "UsageError"


def test_existence_query_accepts_format_json():
    rc, doc = run_json(["existence", "--sig", "4,1", "--family", "plane", "--format", "json"])
    assert rc == 0
    assert doc["verdict"] == "Witness"


# ---------------------------------------------------------------------------
# mesh export


def test_mesh_writes_obj_sidecar_and_summary(tmp_path):
    out_path = tmp_path / "surface.obj"
    rc, doc = run_json(["mesh", "--family", "parabolic-helicoid", "--sig", "3,1",
                        "--out", str(out_path), "--grid", "41x41"])
    assert rc == 0
    assert doc["vertices"] == 41 * 41
    assert doc["faces"] == 2 * 40 * 40
    assert doc["obj"].endswith("surface.obj")
    assert doc["csv"].endswith("surface.csv")

    obj_lines = out_path.read_text().splitlines()
    assert sum(1 for l in obj_lines if l.startswith("v ")) == 41 * 41
    assert sum(1 for l in obj_lines if l.startswith("f ")) == 3200

    csv_lines = (tmp_path / "surface.csv").read_text().splitlines()
    assert csv_lines[0] == "s,t,f_1,f_2,f_3,det_g,H_norm,causal_tag"
    tags = Counter(line.rsplit(",", 1)[-1] for line in csv_lines[1:])
    # t = 0 row of the lattice sits on the degenerate locus of this family
    assert tags == {"spacelike": 820, "timelike": 820, "degenerate": 41}


@pytest.mark.parametrize("sig,family,signs", [*_admissible_triples()], ids=str)
def test_mesh_out_files_match_the_per_value_loops(sig, family, signs, tmp_path):
    """The OBJ and its sidecar, written on two threads, hold the bytes of
    obj_mesh and csv_grid and of the per-value loops, for n = 3 to 6."""
    from ruledmin.export import csv_grid, obj_mesh

    out_path = tmp_path / "m.obj"
    argv = ["mesh", "--sig", f"{sig.n},{sig.p}", "--family", CLI_NAME_OF[family],
            "--grid", "21x21", "--out", str(out_path)]
    if signs is not None:
        argv.append("--signs=" + ",".join(map(str, signs.as_tuple())))
    rc, _ = run_json(argv)
    assert rc == 0
    surf = generate(sig, family, signs=signs)
    s, t = surf.default_grids((21, 21))
    sweep = sweep_grid(sig, surf, s, t)
    obj_text, csv_text = out_path.read_text(), (tmp_path / "m.csv").read_text()
    assert obj_text == obj_mesh(sig, sweep) and csv_text == csv_grid(sig, sweep)
    for got, want in ((obj_text, obj_mesh_loop(sig, sweep, s, t)),
                      (csv_text, csv_grid_loop(sig, sweep))):
        # report the first differing lines; pytest's own diff of two files takes seconds per case
        same = got == want
        assert same, next((pair for pair in zip(got.split("\n"), want.split("\n"))
                           if pair[0] != pair[1]), "the files differ in length")
    if (sig, family) == (Signature(3, 1), FamilyId.PARABOLIC_HELICOID):
        # t = 0 is on this lattice and on the degenerate locus
        assert ",nan,degenerate\n" in csv_text


def test_mesh_output_is_byte_deterministic(tmp_path):
    paths = []
    for name in ("a.obj", "b.obj"):
        out_path = tmp_path / name
        rc, _ = run_json(["mesh", "--family", "elliptic-helicoid-1", "--sig", "3,0",
                          "--out", str(out_path)])
        assert rc == 0
        paths.append(out_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _huge_degree_helicoid(tmp_path, degree):
    """The elliptic helicoid of R^3_0 with s^degree on gamma's cos term."""
    data = {
        "signature": {"n": 3, "p": 0},
        "gamma": {
            "n": 3,
            "terms": [
                {"basis": "cos", "param": 1.0, "degree": degree, "coeff": [1, 0, 0]},
                {"basis": "sin", "param": 1.0, "coeff": [0, 1, 0]},
            ],
        },
        "base": {"n": 3, "terms": [{"basis": "pow", "param": 1, "coeff": [0, 0, 1]}]},
        "s_domain": [-3, 3],
        "t_domain": [-3, 3],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    return ["--input", str(path)]


@pytest.mark.parametrize(
    "command", [["verify"], ["classify"], ["gauge"], ["mesh"], ["mesh", "--format", "csv"]],
    ids=["verify", "classify", "gauge", "mesh", "mesh-csv"],
)
@pytest.mark.parametrize("source", ["degree-1e20", "degree-2^40", "s-range-800", "degree-400", "s-range-400"])
def test_a_curve_with_non_finite_samples_is_a_usage_error(command, source, tmp_path):
    """A sample that is not finite (cosh(800), s^(2^40)) is named by its curve;
    finite samples whose pairing overflows (cosh(400)^2, (3^400)^2) by the pairing.
    gauge reads <gamma, gamma> off its terms before it samples anything, so
    the huge degrees are a <gamma, gamma> that varies there. classify samples
    no curve, only the closed forms of its report: the huge degrees'
    <gamma, gamma> overflows, and on the wide ranges, where every pairing of
    the hyperbolic helicoid is a constant, the Gram determinant G does."""
    if source.startswith("s-range"):
        r = source.rsplit("-", 1)[1]
        flags, first_s = ["--sig", "3,1", "--family", "hyperbolic-helicoid-1", f"--s-range=-{r},{r}"], -float(r)
    else:
        degree = {"degree-1e20": 10**20, "degree-2^40": 2**40, "degree-400": 400}[source]
        flags, first_s = _huge_degree_helicoid(tmp_path, degree), -3.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run([*command, *flags])
    assert rc == 2
    doc = json.loads(out)
    assert err == "" and not caught
    if command == ["gauge"] and source.startswith("degree"):
        assert doc["error"] == "ConventionError"
        assert doc["message"].startswith("<gamma, gamma> varies across the domain by its term 0.5*s^")
        assert doc["message"].endswith("*cos(2s); the normal form needs it constant")
        return
    assert doc["error"] == "UsageError"
    if command == ["classify"]:
        what = "the pairing <gamma, gamma> " if source.startswith("degree") else "G "
    else:
        what = "the pairing <" if source.endswith("400") else "gamma at derivative order "
    assert doc["message"].startswith(what)
    assert doc["message"].endswith(f"is not finite at s = {first_s!r}")


@pytest.mark.parametrize("command", ["gauge", "classify", "verify"])
def test_a_pairing_term_that_overflows_is_a_usage_error(command, tmp_path):
    """gamma = 1e200 e^{-s} e1 + e2 on [459, 461]: <gamma, gamma> runs from
    about 1.4 to 26 there, but its e^{-2s} coefficient overflows; it is named,
    not read as zero. verify reports no structure, since epsilon is unknown."""
    data = {
        "signature": {"n": 3, "p": 0},
        "gamma": {"n": 3, "terms": [
            {"basis": "exp", "param": -1, "coeff": [1e200, 0, 0]},
            {"basis": "pow", "param": 0, "coeff": [0, 1, 0]},
        ]},
        "base": {"n": 3, "terms": [{"basis": "pow", "param": 1, "coeff": [0, 0, 1]}]},
        "s_domain": [459, 461],
        "t_domain": [-3, 3],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run([command, "--input", str(path)])
    doc = json.loads(out)
    if command == "verify":
        assert rc == 1 and doc["structure"] is None
    else:
        assert rc == 2 and doc == {
            "error": "UsageError",
            "message": "the pairing <gamma, gamma> has a term whose coefficient or size is not finite",
        }
    assert err == "" and not caught


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_a_size_bound_that_overflows_is_a_usage_error(command):
    """On s in [-300, 300] every pairing is finite, but the sizes that bound
    det g's rounding, products of Euclidean pairings near cosh(300)^2, are not."""
    flags = ["--sig", "3,1", "--family", "hyperbolic-helicoid-1", "--s-range=-300,300"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run([command, *flags])
    assert rc == 2
    doc = json.loads(out)
    assert doc == {"error": "UsageError", "message": "the size of det g is not finite at s = -300.0"}
    assert err == "" and not caught


def _run_quietly(argv):
    """run(argv) with every warning recorded; the exit code, the JSON and
    whether stderr and the warnings stayed empty."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(argv)
    return rc, json.loads(out), err == "" and not caught


@pytest.mark.parametrize("command, flag", [
    ("verify", "--s-range"), ("verify", "--t-range"), ("classify", "--s-range"), ("gauge", "--s-range"),
    ("mesh", "--s-range"), ("mesh", "--t-range"), ("causal-map", "--t-range"),
])
def test_a_domain_whose_width_overflows_is_a_quiet_usage_error(command, flag):
    # both ends are finite, but b - a = 2e308 is not: the grid spacing would be
    # inf, and the samples nan
    argv = [command, "--sig", "3,0", "--family", "elliptic-helicoid-1", f"{flag}=-1e308,1e308"]
    rc, doc, quiet = _run_quietly(argv)
    domain = f"{flag[2]}_domain"
    assert rc == 2 and quiet
    assert doc == {"error": "UsageError",
                   "message": f"{domain} must be an interval [a, b] with a < b and a finite width b - a"}


def test_a_causal_map_whose_det_g_overflows_is_a_quiet_usage_error():
    # the t-range is finite, but t^2 ~ 1e400 overflows det g on the grid; the
    # sweep's det g is read before the regions' medians, which would warn
    argv = ["causal-map", "--sig", "3,1", "--family", "hyperbolic-helicoid-1", "--t-range=-1e200,1e200"]
    rc, doc, quiet = _run_quietly(argv)
    assert rc == 2 and quiet
    assert doc == {"error": "UsageError", "message": "det g is not finite at s = -3.0"}


_E3_1E110 = [{"basis": "pow", "param": 1, "coeff": [0, 0, 1e110]}]
_E3_E1_1E160 = [{"basis": "pow", "param": 1, "coeff": [0, 0, 1e160]},
                {"basis": "pow", "param": 2, "coeff": [1e160, 0, 0]}]


@pytest.mark.parametrize("command, scale, base, message", [
    ("classify", 1e100, _E3_1E110, "det g is not finite at s = -3.0"),
    ("verify", 1e100, _E3_1E110, "det g is not finite at s = -3.0"),
    ("classify", 1.0, _E3_E1_1E160,
     "the pairing <x', x'> has a term whose coefficient or size is not finite"),
], ids=["classify-det-g", "verify-det-g", "classify-pairing"])
def test_a_surface_whose_products_overflow_is_a_quiet_usage_error(tmp_path, command, scale, base, message):
    # gamma = scale (cos s e1 + sin s e2): the jets are finite, but det g
    # (<x', x'> <gamma, gamma> ~ 1e420) or <x', x'> (~ 1e321) is not. classify
    # reads <x', x'> off its terms before it samples it, and their coefficients
    # 1e320 and 4e320 (of s^2) are named. Neither the products of det g's and G's
    # coefficients nor the sign test on the samples may warn before the UsageError
    gamma = [{"basis": "cos", "param": 1, "coeff": [scale, 0, 0]}, {"basis": "sin", "param": 1, "coeff": [0, scale, 0]}]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"signature": {"n": 3, "p": 0}, "gamma": {"n": 3, "terms": gamma},
                                "base": {"n": 3, "terms": base}, "s_domain": [-3, 3], "t_domain": [-3, 3]}))
    rc, doc, quiet = _run_quietly([command, "--input", str(path)])
    assert rc == 2 and quiet
    assert doc == {"error": "UsageError", "message": message}


@pytest.mark.parametrize(
    "command,r",
    [(["verify"], "800"), (["verify"], "400"), (["verify"], "300"),
     (["mesh"], "800"), (["mesh"], "400"), (["mesh", "--format", "csv"], "400")],
    ids=["verify-800", "verify-400", "verify-300", "mesh-800", "mesh-400", "mesh-csv-400"],
)
def test_an_overflow_on_a_grid_read_on_two_threads_is_the_same_usage_error(command, r):
    """The non-finite samples and the overflowing size bound of the two tests
    above, on a 1001x1001 grid, whose blocks are read on two threads: the
    same message as on the default grid, and no warning from either thread."""
    flags = ["--sig", "3,1", "--family", "hyperbolic-helicoid-1", f"--s-range=-{r},{r}"]
    rc, doc, quiet = _run_quietly([*command, *flags])
    assert rc == 2 and doc["error"] == "UsageError" and quiet
    assert _run_quietly([*command, *flags, "--grid", "1001x1001"]) == (rc, doc, quiet)


@pytest.mark.parametrize("command", [["verify"], ["mesh"], ["mesh", "--format", "csv"]],
                         ids=["verify", "mesh", "mesh-csv"])
@pytest.mark.parametrize("s_domain", [[-3, 3], [2, 3]], ids=["second-half", "both-halves"])
def test_a_det_g_that_overflows_on_two_threads_names_its_first_s(command, s_domain, tmp_path):
    """gamma = (1, e^s, 0) and x = (0, 0, s): g11 g22 and g12^2 grow like
    e^{4s} t^2, so on t in +-1e152 det g overflows for s above about 2.45
    only: on [-3, 3] in the last blocks of rows, which the helper thread
    reads first, and on [2, 3] in blocks of both halves."""
    data = {
        "signature": {"n": 3, "p": 0},
        "gamma": {"n": 3, "terms": [{"basis": "pow", "param": 0, "coeff": [1, 0, 0]},
                                    {"basis": "exp", "param": 1.0, "coeff": [0, 1, 0]}]},
        "base": {"n": 3, "terms": [{"basis": "pow", "param": 1, "coeff": [0, 0, 1]}]},
        "s_domain": s_domain,
        "t_domain": [-1e152, 1e152],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    sig, surf = surface_from_json(data)
    s, t = surf.default_grids((1001, 1001))
    tables = surface._RulingTables(sig, surf, s)
    with np.errstate(all="ignore"):  # the whole grid at once, on this thread
        det = surface._first_form_block(tables.form(), slice(None), t[None, :])[2]
    finite = np.isfinite(det).all(axis=1)
    assert not finite.all()
    first = float(s[np.argmin(finite)])
    half = s[(s.size + 1) // 2]
    assert first > half if s_domain == [-3, 3] else first < half < s_domain[1]
    rc, doc, quiet = _run_quietly([*command, "--input", str(path), "--grid", "1001x1001"])
    assert rc == 2 and quiet
    assert doc == {"error": "UsageError", "message": f"det g is not finite at s = {first!r}"}


# ---------------------------------------------------------------------------
# causal map and gauge


def test_causal_map_payload():
    rc, doc = run_json(["causal-map", "--family", "elliptic-helicoid-1", "--sig", "3,1",
                        "--signs", "1,1,-1"])
    assert rc == 0
    assert doc["degenerate_loci"] == [-1, 1]
    assert [r["verdict"] for r in doc["regions"]] == ["spacelike", "timelike", "spacelike"]
    assert doc["cross_validated"] is True


def test_a_failed_causal_map_cross_check_exits_2_with_its_error(monkeypatch):
    negate_det_g(monkeypatch)
    with pytest.raises(ruledmin.CrossValidationError) as err:
        ruledmin.causal_map(Signature(3, 1), FamilyId.ELLIPTIC_HELICOID_1, ruledmin.SignChoice(1, 1, -1))
    rc, doc = run_json(["causal-map", "--sig", "3,1", "--family", "elliptic-helicoid-1", "--signs", "1,1,-1"])
    assert rc == 2
    assert doc == {"error": "CrossValidationError", "message": str(err.value)}


@pytest.mark.parametrize("t_range", [[], ["--t-range=-0.3,0.7"]], ids=["default", "-0.3,0.7"])
def test_causal_map_csv_spells_each_bound_as_the_json_does(t_range):
    argv = ["causal-map", "--family", "elliptic-helicoid-1", "--sig", "3,1", "--signs", "1,1,-1",
            *t_range]
    rc, out, _ = run(argv)
    assert rc == 0
    regions = json.loads(out, parse_float=str, parse_int=str)["regions"]
    rc, csv_text, _ = run([*argv, "--format", "csv"])
    assert rc == 0
    rows = [f"{r['t_lo']},{r['t_hi']},{r['verdict']}" for r in regions]
    assert csv_text.splitlines() == ["t_lo,t_hi,verdict", *rows]


def test_gauge_payload():
    rc, doc = run_json(["gauge", "--family", "elliptic-helicoid-1", "--sig", "3,0"])
    assert rc == 0
    assert doc["exact"] is True
    assert doc["max_abs_g12"] <= 1e-9
    assert "surface" in doc


def test_the_gauge_pairs_only_the_two_jet_pairings_of_g12(monkeypatch, tmp_path):
    # the helicoid of R^3_0 with x = 1e160 s e3: g12 = <gamma', gamma> t +
    # <x', gamma> is 0, while <x', x'> = 1e320, which the gauge never reads,
    # overflows
    data = {"signature": {"n": 3, "p": 0},
            "gamma": {"n": 3, "terms": [{"basis": "cos", "param": 1, "coeff": [1, 0, 0]},
                                        {"basis": "sin", "param": 1, "coeff": [0, 1, 0]}]},
            "base": {"n": 3, "terms": [{"basis": "pow", "param": 1, "coeff": [0, 0, 1e160]}]},
            "s_domain": [-3, 3], "t_domain": [-3, 3]}
    path = tmp_path / "huge_base.json"
    path.write_text(json.dumps(data))
    paired, ip = Counter(), surface._RulingTables.ip

    def counting_ip(self, a, b):
        if tuple(sorted((a, b))) not in self._pairs:
            paired[tuple(sorted((a, b)))] += 1
        return ip(self, a, b)

    monkeypatch.setattr(surface._RulingTables, "ip", counting_ip)
    rc, doc, quiet = _run_quietly(["gauge", "--input", str(path)])
    assert rc == 0 and quiet
    assert doc["max_abs_g12"] == 0 and doc["exact"] is True
    assert paired == Counter({("g0", "g1"): 1, ("g0", "x1"): 1})


@pytest.mark.parametrize("command", ["gauge", "classify"])
def test_a_gauged_base_that_overflows_is_a_quiet_usage_error(command, tmp_path):
    # gamma = cosh s (-18, 17, -6) + sinh s (19, -18, 6) is a unit curve of
    # R^3_1 and x = 1e306 s e1: lambda's coefficients are finite, but their
    # products with gamma's, which x + lambda gamma adds, are not
    data = {"signature": {"n": 3, "p": 1},
            "gamma": {"n": 3, "terms": [{"basis": "cosh", "param": 1, "coeff": [-18, 17, -6]},
                                        {"basis": "sinh", "param": 1, "coeff": [19, -18, 6]}]},
            "base": {"n": 3, "terms": [{"basis": "pow", "param": 1, "coeff": [1e306, 0, 0]}]},
            "s_domain": [-3, 3], "t_domain": [-3, 3]}
    path = tmp_path / "huge_lambda.json"
    path.write_text(json.dumps(data))
    rc, doc, quiet = _run_quietly([command, "--input", str(path)])
    assert rc == 2 and quiet
    assert doc == {"error": "UsageError",
                   "message": "the gauged base x + lambda gamma has a term whose coefficient or size is not finite"}


# ---------------------------------------------------------------------------
# failure modes


def test_unknown_family_exits_2():
    rc, out, _ = run(["verify", "--family", "nope", "--sig", "3,0"])
    assert rc == 2
    doc = json.loads(out)
    assert doc["error"] == "UsageError"
    assert "unknown family 'nope'" in doc["message"]


def test_malformed_signature_exits_2():
    rc, out, _ = run(["verify", "--family", "elliptic-helicoid-1", "--sig", "3;0"])
    assert rc == 2
    assert json.loads(out)["error"] == "UsageError"


@pytest.mark.parametrize("argv", [
    ["existence", "--sig", "3,5", "--family", "plane"],
    ["verify", "--sig", "1,0", "--family", "plane"],
])
def test_out_of_range_signature_exits_2(argv):
    rc, doc = run_json(argv)
    assert rc == 2
    assert doc["error"] == "UsageError"
    assert doc["message"].startswith("--sig ")


@pytest.mark.parametrize("command, flags, alternative", [
    *[(command, ["--family", "plane"], "--input FILE, or ") for command in ("verify", "classify", "gauge", "mesh")],
    *[("causal-map", flags, "") for flags in (["--family", "plane"], ["--sig", "3,1"])],
    *[("existence", flags, "--table, or ") for flags in (["--family", "plane"], ["--sig", "3,1"], [])],
])
def test_a_catalog_request_without_sig_or_family_exits_2(command, flags, alternative):
    """Every subcommand reads --sig, --family and --signs in one place, so a
    missing one is named in one message, with the subcommand's alternative."""
    rc, doc = run_json([command, *flags])
    assert rc == 2
    assert doc == {"error": "UsageError", "message": f"{command} needs {alternative}--sig n,p with --family NAME"}


@pytest.mark.parametrize("family", ["plane", "minimal-cylinder"])
@pytest.mark.parametrize("command", ["existence", "verify", "classify", "gauge", "mesh", "causal-map"])
def test_signs_on_a_family_without_frame_signs_exit_2(family, command):
    rc, doc = run_json([command, "--sig", "3,1", "--family", family, "--signs=1,1,1"])
    assert rc == 2
    assert doc["error"] == "UsageError"
    assert "takes no frame sign choice" in doc["message"]


def test_broken_input_file_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, out, _ = run(["verify", "--input", str(path)])
    assert rc == 2
    assert json.loads(out)["error"] == "UsageError"


@pytest.mark.parametrize("command", ["verify", "classify", "gauge", "mesh"])
@pytest.mark.parametrize("catalog_flags", [
    ["--family", "elliptic-helicoid-1", "--signs", "1,1,1"],
    ["--family", "hyperbolic-helicoid-2"],
    ["--signs", "1,-1,0"],
])
def test_input_with_family_or_signs_exits_2(command, catalog_flags, tmp_path):
    """--input reads the surface from its file, so a catalog name beside it
    is rejected, not ignored."""
    from ruledmin import jsonio

    sig = Signature(4, 2)
    path = tmp_path / "hh2.json"
    path.write_text(jsonio.dumps(jsonio.surface_to_json(sig, generate(sig, FamilyId.HYPERBOLIC_HELICOID_2))))
    rc, doc = run_json([command, "--input", str(path), *catalog_flags])
    assert rc == 2
    assert doc["error"] == "UsageError" and "--input" in doc["message"]


@pytest.mark.parametrize("command", ["gauge", "classify"])
def test_a_null_direction_exits_2_from_the_gauge_and_the_classifier(command, tmp_path):
    from ruledmin import CurveExpr, RuledSurface, jsonio

    # gamma = s (e1 + e2) is null in R^3_1 and not constant
    gamma = CurveExpr.from_basis_terms(3, [("pow", 1, (1.0, 1.0, 0.0))])
    base = CurveExpr.from_basis_terms(3, [("pow", 1, (0.0, 0.0, 1.0))])
    path = tmp_path / "null.json"
    path.write_text(jsonio.dumps(jsonio.surface_to_json(Signature(3, 1), RuledSurface(gamma, base))))
    rc, doc = run_json([command, "--input", str(path)])
    assert rc == 2 and doc["error"] == "NullDirectionError"


def test_inadmissible_generation_exits_2_with_certificate():
    rc, out, _ = run(["verify", "--family", "hyperbolic-helicoid-2", "--sig", "3,1"])
    assert rc == 2
    doc = json.loads(out)
    assert doc["error"] == "non-existence"
    assert doc["certificate"]["kind"] == "IndexOneNullOrthogonalObstruction"
    assert doc["certificate"]["replay"]["exact"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["causal-map", "--family", "elliptic-helicoid-1", "--sig", "3,1",
         "--input", "/nonexistent.json", "--grid", "3x3", "--tol", "1e-30", "--seed", "5"],
        ["causal-map", "--family", "elliptic-helicoid-1", "--sig", "3,1", "--seed", "5"],
        ["verify", "--family", "elliptic-helicoid-1", "--sig", "3,0", "--format", "csv"],
        ["classify", "--family", "elliptic-helicoid-1", "--sig", "3,0", "--grid", "9x9"],
        ["existence", "--sig", "3,0", "--family", "elliptic-helicoid-1", "--tol", "1"],
        *(["gauge", "--family", "elliptic-helicoid-1", "--sig", "3,0", f"--tol={tol}"]
          for tol in ("nan", "-1", "inf", "-inf", "-0.5e-9")),
    ],
)
def test_flags_a_subcommand_does_not_read_exit_2(argv):
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    assert exc.value.code == 2


def test_verify_and_classify_sample_the_surface_once(call_counts):
    for command in ("verify", "classify"):
        call_counts.clear()
        rc, _ = run_json([command, "--sig", "4,2", "--family", "hyperbolic-helicoid-2"])
        assert rc == 0
        assert call_counts["sweep"] == 1, command
        assert call_counts["eval"] <= 12, command


def test_gauge_reads_g12_without_a_sweep(call_counts):
    call_counts.clear()
    rc, doc = run_json(["gauge", "--sig", "4,2", "--family", "hyperbolic-helicoid-2"])
    assert rc == 0 and doc["max_abs_g12"] <= 1e-9
    assert call_counts["sweep"] == 0
    assert call_counts["eval"] <= 4


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_verify_and_classify_sweep_once_and_sample_each_jet_once(call_counts, command):
    # one 41x41 sweep (5 jets); classify's 201-point scan samples closed
    # forms, no jet
    rc, _ = run_json([command, "--sig", "4,2", "--family", "hyperbolic-helicoid-2"])
    assert rc == 0
    assert call_counts["sweep"] == 1
    assert call_counts["eval"] == 5


def test_classify_json_is_deterministic():
    outputs = {run(["classify", "--family", "elliptic-helicoid-1", "--sig", "3,0"])[1]
               for _ in range(2)}
    assert len(outputs) == 1


@pytest.mark.parametrize("command", ["verify", "classify"])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "-0.5e-9"])
def test_a_tolerance_that_is_not_finite_and_nonnegative_exits_2(command, tol):
    rc, doc = run_json([command, "--family", "elliptic-helicoid-1", "--sig", "3,0", f"--tol={tol}"])
    assert rc == 2
    assert doc["error"] == "UsageError" and "--tol" in doc["message"]


def test_verify_reports_the_deciding_residual(circular_cylinder_file):
    rc, doc = run_json(["verify", "--family", "hyperbolic-helicoid-2", "--sig", "4,2"])
    assert rc == 0 and 0.0 <= doc["minimality"]["residual"] <= 1e-14
    rc, doc = run_json(["verify", "--input", circular_cylinder_file])
    assert rc == 1 and doc["minimality"]["residual"] > 0.1


@pytest.fixture
def slid_hh2_file(tmp_path):
    """JSON of the hyperbolic helicoid 2 of R^4_2 with its base slid along
    the rulings, so <gamma, x'> != 0 until the classifier gauges it."""
    from ruledmin import Signature, generate, jsonio
    from ruledmin.basisfn import ONE, Atom, ScalarFn
    from ruledmin.families import FamilyId
    from ruledmin.surface import RuledSurface

    sig = Signature(4, 2)
    surf = generate(sig, FamilyId.HYPERBOLIC_HELICOID_2)
    rho = ScalarFn([(0.3, Atom(1, ONE, 0.0)), (0.1, Atom(2, ONE, 0.0))])
    slid = RuledSurface(surf.gamma, surf.base.plus_scalar_times(rho, surf.gamma))
    path = tmp_path / "slid.json"
    path.write_text(jsonio.dumps(jsonio.surface_to_json(sig, slid)))
    return str(path)


def test_classify_of_a_slid_surface_samples_gamma_once_across_the_gauge(call_counts, slid_hh2_file):
    call_counts.clear()
    rc, doc = run_json(["classify", "--input", slid_hh2_file])
    assert rc == 0 and doc["family"] == "hyperbolic-helicoid-2"
    assert any("gauge" in note for note in doc["notes"])
    assert call_counts["eval"] <= 11


def test_classify_of_a_slid_surface_pairs_gamma_once_across_the_gauge(monkeypatch, slid_hh2_file):
    # the input's scan decides the gauge off terms, and the gauged surface's
    # genericity profiles sample their closed forms, so no jet is paired on
    # the scan: <gamma, gamma> is paired once, in is_minimal's 41x41 sweep,
    # whose 12 pairings and their 12 sizes are all the ip_array calls
    computed, calls = Counter(), Counter()
    ip, ip_array = surface._RulingTables.ip, surface.ip_array

    def counting_ip(self, a, b):
        if tuple(sorted((a, b))) not in self._pairs:
            computed[tuple(sorted((a, b))), self.s.size] += 1
        return ip(self, a, b)

    def counting_ip_array(*args, **kwargs):
        calls["ip_array"] += 1
        return ip_array(*args, **kwargs)

    monkeypatch.setattr(surface._RulingTables, "ip", counting_ip)
    monkeypatch.setattr(surface, "ip_array", counting_ip_array)
    rc, doc = run_json(["classify", "--input", slid_hh2_file])
    assert rc == 0 and doc["family"] == "hyperbolic-helicoid-2"
    assert computed[("g0", "g0"), surface.SCAN_POINTS] == 0
    assert computed[("g0", "g0"), 41] == 1
    assert calls["ip_array"] == 24


@pytest.fixture
def built_profiles(monkeypatch):
    """The ScalarProfiles constructed, counted by name."""
    built, profile = Counter(), surface.ScalarProfile

    def counting_profile(name, *args):
        built[name] += 1
        return profile(name, *args)

    monkeypatch.setattr(surface, "ScalarProfile", counting_profile)
    return built


def test_classify_of_a_slid_surface_builds_each_profile_once(built_profiles, slid_hh2_file):
    # the four genericity profiles of the gauged surface, mu shared with the
    # case invariants; <gamma, x'> decides the gauge off its terms
    rc, doc = run_json(["classify", "--input", slid_hh2_file])
    assert rc == 0 and doc["family"] == "hyperbolic-helicoid-2"
    assert built_profiles == {"<gamma, gamma>": 1, "<gamma', gamma'>": 1, "<x', x'>": 1, "<gamma', x'>": 1}


@pytest.mark.parametrize("command", ["verify", "gauge"])
def test_verify_and_gauge_build_no_profile(built_profiles, command):
    # every fact they read off the scan is decided off terms
    rc, doc = run_json([command, "--sig", "4,2", "--family", "hyperbolic-helicoid-2"])
    assert rc == 0 and (command == "gauge" or doc["structure"]["ok"])
    assert not built_profiles


def test_classify_prints_one_reading_of_mu():
    rc, doc = run_json(["classify", "--sig", "3,1", "--family", "parabolic-helicoid"])
    assert rc == 0 and doc["invariants"]["mu"]["max_abs"] > 1.0
    assert doc["genericity"]["profiles"]["mixed_speed"]["max_abs"] == doc["invariants"]["mu"]["max_abs"]


@pytest.fixture
def boosted_hh1_file(tmp_path):
    """The hyperbolic helicoid 1 of R^3_1, signs (1, -1, 1), moved by the
    isometry [[19, -18, -6], [-18, 17, 6], [6, -6, -1]]."""
    data = {
        "signature": {"n": 3, "p": 1},
        "gamma": {"n": 3, "terms": [
            {"basis": "cosh", "param": 1, "coeff": [-18, 17, -6]},
            {"basis": "sinh", "param": 1, "coeff": [19, -18, 6]},
        ]},
        "base": {"n": 3, "terms": [{"basis": "pow", "param": 1, "coeff": [-6, 6, -1]}]},
        "s_domain": [-3, 3],
        "t_domain": [-3, 3],
    }
    path = tmp_path / "boosted.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_verify_and_classify_hold_under_an_isometry(boosted_hh1_file):
    rc, doc = run_json(["verify", "--input", boosted_hh1_file])
    assert rc == 0 and doc["minimality"]["verdict"] == "minimal"
    rc, doc = run_json(["classify", "--input", boosted_hh1_file])
    assert rc == 0 and doc["family"] == "hyperbolic-helicoid-1"


def test_an_obj_mesh_whose_csv_sidecar_is_the_out_path_exits_2(tmp_path):
    out = tmp_path / "mesh.csv"
    rc, doc = run_json(["mesh", "--family", "elliptic-helicoid-1", "--sig", "3,0",
                        "--grid", "5x5", "--format", "obj", "--out", str(out)])
    assert rc == 2 and doc["error"] == "UsageError" and "--out" in doc["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["existence", "--table"],
    ["verify", "--family", "elliptic-helicoid-1", "--sig", "3,0"],
    ["mesh", "--family", "elliptic-helicoid-1", "--sig", "3,0", "--grid", "5x5"],
])
def test_an_unwritable_out_path_exits_2(argv, tmp_path):
    out = tmp_path / "missing" / "x.obj"
    rc, doc = run_json([*argv, "--out", str(out)])
    assert rc == 2 and doc["error"] == "UsageError"
    assert doc["message"].startswith(f"cannot write {out}")


@pytest.mark.parametrize("fmt", ["obj", "csv"])
def test_mesh_out_files_hold_the_bytes_of_the_printed_exports(fmt, tmp_path):
    from ruledmin.export import csv_grid, obj_mesh

    sig = Signature(4, 2)
    surf = generate(sig, FamilyId.HYPERBOLIC_HELICOID_2)
    # 182 x 181: vertices, faces and CSV rows span more than one row block
    sweep = sweep_grid(sig, surf, *surf.default_grids((182, 181)))
    out = tmp_path / f"m.{fmt}"
    rc, stdout, _ = run(["mesh", *HH2, "--grid", "182x181", "--out", str(out)])
    assert rc == 0 and bool(stdout) == (fmt == "obj")  # the OBJ's summary
    if fmt == "obj":
        assert out.read_bytes() == obj_mesh(sig, sweep).encode()
    assert (tmp_path / "m.csv").read_bytes() == csv_grid(sig, sweep).encode()


def test_a_sidecar_path_that_is_a_directory_exits_2_and_leaves_no_obj(tmp_path):
    out, sidecar = tmp_path / "m.obj", tmp_path / "m.csv"
    sidecar.mkdir()
    rc, doc = run_json(["mesh", *HH2, "--grid", "5x5", "--out", str(out)])
    assert rc == 2 and doc["error"] == "UsageError"
    assert doc["message"].startswith(f"cannot write {sidecar}: ")
    assert not out.exists() and sidecar.is_dir()


def test_an_obj_path_that_is_a_directory_exits_2_and_leaves_no_csv(tmp_path):
    out, sidecar = tmp_path / "m.obj", tmp_path / "m.csv"
    out.mkdir()
    # 182 x 181: the sidecar spans several row blocks, so its thread is still
    # writing (or not yet started) when the OBJ fails to open
    rc, doc = run_json(["mesh", *HH2, "--grid", "182x181", "--out", str(out)])
    assert rc == 2 and doc["error"] == "UsageError"
    assert doc["message"].startswith(f"cannot write {out}: ")
    assert not sidecar.exists() and out.is_dir()


def test_stream_writes_the_first_file_here_and_starts_at_most_one_helper(tmp_path, thread_starts):
    import threading

    writers = {}

    def chunks(name):
        writers[name] = threading.current_thread()
        yield name.encode() * 3

    paths = [tmp_path / name for name in ("a", "b", "c")]
    cli._stream([(path, chunks(path.name)) for path in paths])
    assert [path.read_bytes() for path in paths] == [b"aaa", b"bbb", b"ccc"]
    assert writers["a"] is threading.current_thread()
    assert len(thread_starts) == 1 and writers["c"] is thread_starts[0]
    assert set(writers.values()) <= {threading.current_thread(), thread_starts[0]}
    cli._stream([(tmp_path / "d", chunks("d"))])
    assert len(thread_starts) == 1 and writers["d"] is threading.current_thread()


@pytest.mark.parametrize("failing", [0, 1])
def test_stream_removes_both_files_when_either_write_fails(failing, tmp_path):
    def chunks(fails):
        for i in range(50):
            if fails and i == 20:
                raise OSError(28, "No space left on device")
            yield b"x" * 1000

    paths = [tmp_path / "m.obj", tmp_path / "m.csv"]
    with pytest.raises(UsageError) as err:
        cli._stream([(path, chunks(i == failing)) for i, path in enumerate(paths)])
    assert str(err.value) == f"cannot write {paths[failing]}: [Errno 28] No space left on device"
    assert list(tmp_path.iterdir()) == []


def test_stream_under_a_short_switch_interval_keeps_or_removes_every_file(tmp_path):
    # four writers on two cores, switching threads every microsecond: each
    # file opened is recorded and each failure seen, whatever the interleaving
    def chunks(name, fails):
        for i in range(40):
            if fails and i == 30:
                raise OSError(5, "Input/output error")
            yield name.encode() * 100

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rounds in range(10):
            paths = [tmp_path / f"{rounds}-{k}" for k in range(4)]
            cli._stream([(path, chunks(path.name, False)) for path in paths])
            assert [path.read_bytes() for path in paths] == [path.name.encode() * 4000 for path in paths]
            failing = [tmp_path / f"{rounds}-failing-{k}" for k in range(4)]
            with pytest.raises(UsageError) as err:
                cli._stream([(path, chunks(path.name, k >= 2)) for k, path in enumerate(failing)])
            assert str(err.value).startswith(f"cannot write {failing[2]}: ")
            assert not any(path.exists() for path in failing)
    finally:
        sys.setswitchinterval(interval)


def test_stream_reraises_what_is_not_an_os_error_after_removing_the_files(tmp_path):
    def broken():
        yield b"row\n"
        raise ZeroDivisionError("not a write error")

    with pytest.raises(ZeroDivisionError, match="not a write error"):
        cli._stream([(tmp_path / "m.obj", iter([b"v 0 0 0\n"])), (tmp_path / "m.csv", broken())])
    assert list(tmp_path.iterdir()) == []


def test_a_mesh_whose_two_paths_both_fail_names_the_obj(tmp_path):
    out, sidecar = tmp_path / "m.obj", tmp_path / "m.csv"
    out.mkdir()
    sidecar.mkdir()
    for _ in range(5):  # whichever thread fails first, the OBJ is named
        rc, doc = run_json(["mesh", *HH2, "--grid", "5x5", "--out", str(out)])
        assert rc == 2 and doc["message"].startswith(f"cannot write {out}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "m.obj"]


@pytest.mark.parametrize("name", ["m.obj", "m.csv"])
def test_a_mesh_that_exits_2_writes_no_file(name, tmp_path):
    """D11 overflows, so |H| cannot be read: neither the OBJ nor the CSV is
    opened, although the OBJ alone would have been finite."""
    from ruledmin import jsonio

    sig = Signature(3, 0)
    data = jsonio.surface_to_json(sig, generate(sig, FamilyId.ELLIPTIC_HELICOID_1))
    data["base"]["terms"].append({"basis": "pow", "param": 215, "coeff": [1.0, 0, 0]})
    path = tmp_path / "overflow.json"
    path.write_text(jsonio.dumps(data))
    rc, doc = run_json(["mesh", "--input", str(path), "--out", str(tmp_path / name)])
    assert rc == 2 and doc == {"error": "UsageError", "message": "D11 is not finite at s = -3.0"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["overflow.json"]


# ---------------------------------------------------------------------------
# cold calls: each subcommand in a fresh interpreter, through `python -m`


def _child_env():
    """os.environ with this ruledmin's source directory first on PYTHONPATH."""
    src = str(Path(ruledmin.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cold(argv):
    """`python -X importtime -m ruledmin.cli ARGV`: (exit code, stdout, modules imported)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "ruledmin.cli", *argv],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    # importtime prints one "import time: self | cumulative | name" line per module
    modules = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:") and line.count("|") == 2}
    assert "ruledmin.errors" in modules, proc.stderr[-2000:]
    return proc.returncode, proc.stdout, modules


HH2 = ["--sig", "4,2", "--family", "hyperbolic-helicoid-2"]


@pytest.mark.parametrize("argv, absent", [
    (["existence", *HH2], ("numpy", "scipy")),
    (["existence", "--table"], ("numpy", "scipy")),
    # one non-existence answer of each certificate kind: index one, the
    # neutral quadratic and the dimension count
    (["existence", "--sig", "3,1", "--family", "hyperbolic-helicoid-2"], ("numpy", "scipy")),
    (["existence", "--sig", "4,2", "--family", "elliptic-helicoid-2"], ("numpy", "scipy")),
    (["existence", "--sig", "3,0", "--family", "hyperbolic-helicoid-1"], ("numpy", "scipy")),
    (["verify", *HH2], ("scipy",)),
    (["classify", *HH2], ("scipy",)),
    (["causal-map", *HH2], ("scipy",)),
    (["gauge", *HH2], ("scipy",)),
    (["mesh", *HH2, "--grid", "9x9"], ("scipy",)),
])
def test_a_cold_call_imports_only_what_its_subcommand_runs(argv, absent):
    rc, out, modules = run_cold(argv)
    assert rc == 0
    assert out == run(argv)[1]
    assert not [m for m in modules if m.split(".")[0] in absent]


# every existence answer in one process: each family in R^n_p for n = 3..8 and
# every p, alone and with each admissible sign choice, and the table in its
# three formats
_EVERY_EXISTENCE_ANSWER = """
import contextlib, io, sys
from ruledmin import cli
from ruledmin.families import ADMISSIBLE_SIGNS, CLI_NAMES

argvs = [["existence", "--table", *fmt] for fmt in ([], ["--format", "json"], ["--format", "csv"])]
for n in range(3, 9):
    for p in range(n + 1):
        for name, family in CLI_NAMES.items():
            query = ["existence", "--sig", f"{n},{p}", "--family", name]
            argvs.append(query)
            argvs += [[*query, "--signs", ",".join(map(str, s.as_tuple()))] for s in ADMISSIBLE_SIGNS.get(family, ())]
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(len(argvs), "numpy" in sys.modules)
"""


def test_no_existence_answer_imports_numpy():
    proc = subprocess.run([sys.executable, "-c", _EVERY_EXISTENCE_ANSWER],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["1017", "False"]


def test_a_cold_damped_gauge_loads_no_scipy_nor_numpy_polynomial_and_matches_in_process(tmp_path):
    # a cosh bump along the axis of gamma's cos term: <gamma, x'> holds cos*sinh,
    # whose antiderivative has damped terms that no writer spells; lambda is
    # still a closed form, so nothing integrates numerically
    _, doc = run_json(["gauge", "--family", "elliptic-helicoid-1", "--sig", "3,0"])
    data = doc["surface"]
    data["base"]["terms"].append({"basis": "cosh", "param": 1.0, "coeff": [0.2, 0.0, 0.0]})
    path = tmp_path / "bump.json"
    path.write_text(json.dumps(data))
    argv = ["gauge", "--input", str(path)]
    rc, out, modules = run_cold(argv)
    cold = json.loads(out)
    assert rc == 0 and cold["exact"] is False
    assert not [m for m in modules if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial")]
    assert cold["lam_table"] == json.loads(run(argv)[1])["lam_table"]


@pytest.mark.parametrize("argv, flag, value", [
    (["verify", *HH2], "--signs", "-1,1,0"),
    (["verify", *HH2], "--s-range", "-3,3"),
    (["causal-map", "--sig", "3,1", "--family", "elliptic-helicoid-1"], "--t-range", "-0.3,0.7"),
])
def test_a_flag_value_starting_with_minus_reads_as_its_equals_spelling(argv, flag, value):
    spaced = run([*argv, flag, value])
    assert spaced[0] == 0
    assert spaced[:2] == run([*argv, f"{flag}={value}"])[:2]


def test_an_abbreviated_flag_takes_a_value_starting_with_minus():
    argv = ["causal-map", "--sig", "3,1", "--family", "plane"]
    spaced = run([*argv, "--t-ra", "-1,1"])
    assert spaced[0] == 0
    assert spaced == run([*argv, "--t-ra=-1,1"]) == run([*argv, "--t-range", "-1,1"])


def parse_outcome(parse, argv):
    """The namespace's vars, or the exit code with what argparse printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _unique_prefixes(command, flag):
    """Every spelling of flag that command's parser resolves to it: each
    prefix that no other option string of the subcommand shares, and the
    flag itself."""
    options = ["--help", *(f"--{name}" for name in cli._COMMANDS[command][1])]
    return [flag[:k] for k in range(3, len(flag) + 1)
            if flag[:k] == flag or sum(opt.startswith(flag[:k]) for opt in options) == 1]


@pytest.mark.parametrize("command, flag", [
    (command, f"--{name}")
    for command, (_, accepted) in cli._COMMANDS.items()
    for name in cli._FLAGS
    if name in accepted and f"--{name}" in cli._VALUE_FLAGS
])
def test_every_spelling_of_a_value_flag_takes_a_negative_value(command, flag):
    # argparse itself takes -1 and -.5 as values, but not these
    value = "-1e-3" if flag == "--tol" else "-1,1"
    equals = parse_outcome(cli._parse, [command, f"{flag}={value}"])
    assert isinstance(equals, dict) or flag == "--format"  # -1,1 is no --format choice
    for spelling in _unique_prefixes(command, flag):
        assert parse_outcome(cli._parse, [command, spelling, value]) == equals, spelling


def test_an_ambiguous_abbreviation_before_a_negative_value_exits_2():
    code, _, err = parse_outcome(cli._parse, ["verify", "--s", "-1,1"])
    assert code == 2 and "ambiguous option: --s" in err


def _joined(argv):
    if argv and argv[0] in cli._COMMANDS:
        return [argv[0], *cli._join_negative_values(argv[1:], argv[0])]
    return argv


def assert_parses_as_the_full_parser(argv):
    """cli._parse reads argv as the whole parser reads it joined: the same
    namespace, or the same exit code (and the same help text on exit 0)."""
    one = parse_outcome(cli._parse, argv)
    full = parse_outcome(cli.build_parser().parse_args, _joined(argv))
    if isinstance(one, dict) or isinstance(full, dict):
        assert one == full
    else:
        assert one[0] == full[0]
        if one[0] == 0:
            assert one[1] == full[1]


_VALUES = ["3,1", "-1,1", "-1,1,0", "-.5,2", "41x41", "json", "1e-3", "-1e-3", "plane", "x"]
_JUNK = ["--", "-", "-h", "--he", "--s", "--t-ra", "--fo", "--nope", "--sig=-1,1", "--t-ra=-1,1", "nope"]
_PARSE_CORPUS = [
    [], ["--help"], ["-h", "verify"], ["nope"], ["--sig", "3,1", "verify"], ["--nope", "verify"],
    *([command, f"--{flag}", value]
      for command in cli._COMMANDS for flag in cli._FLAGS for value in ("-1,1", "3,1")),
    *([command, f"--{flag}={value}"]
      for command in cli._COMMANDS for flag in cli._FLAGS for value in ("-1,1", "3,1")),
    *([command, *extra] for command in cli._COMMANDS for extra in (
        [], ["-h"], ["--sig", "3,1", "--help"], ["--nope"], ["--", "-1"], ["x"],
        ["--sig", "3,1", "--family", "plane", "--signs", "-1,1,0", "--out", "-1"],
    )),
]


@pytest.mark.parametrize("argv", _PARSE_CORPUS, ids=" ".join)
def test_the_subcommand_parser_reads_argv_as_the_full_parser(argv):
    assert_parses_as_the_full_parser(argv)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([*cli._COMMANDS, *_JUNK]),
    st.lists(st.sampled_from([*cli._COMMANDS, *(f"--{f}" for f in cli._FLAGS), *_VALUES, *_JUNK]),
             max_size=8),
)
def test_any_argv_parses_as_the_full_parser_reads_it(head, rest):
    assert_parses_as_the_full_parser([head, *rest])


# ---------------------------------------------------------------------------
# one parser per process


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_an_option_value_does_not_leak_into_the_next_call():
    first = run(["verify", *HH2])
    assert json.loads(run(["verify", *HH2, "--tol", "1e-3"])[1])["minimality"]["tol"] == 1e-3
    again = run(["verify", *HH2])
    assert again == first
    assert json.loads(again[1])["minimality"]["tol"] == surface.H_TOL


def test_a_usage_error_leaves_the_next_call_unchanged():
    argv = ["classify", *HH2]
    first = run(argv)
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()) as err:
        cli.main(["verify", "--table"])
    assert exc.value.code == 2 and "--table" in err.getvalue()
    assert run(argv) == first


@pytest.mark.parametrize("argv, listed", [
    (["--help"], list(cli._HANDLERS)),
    (["verify", "--help"], ["--input", "--family", "--signs", "--sig", "--grid",
                            "--s-range", "--t-range", "--tol", "--out"]),
])
def test_help_lists_the_same_names_on_every_call(argv, listed):
    texts = []
    for _ in range(2):
        out = io.StringIO()
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(out):
            cli.main(argv)
        assert exc.value.code == 0
        texts.append(out.getvalue())
    assert texts[0] == texts[1]
    assert all(name in texts[0] for name in listed)


@pytest.fixture
def parsed_by(monkeypatch):
    """The parsers whose parse_known_args ran, in call order."""
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        calls.append(self)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    return calls


@pytest.mark.parametrize("argv", [
    ["existence", "--sig", "4,2", "--family", "hyperbolic-helicoid-2"],
    ["causal-map", "--sig", "3,1", "--family", "plane", "--t-ra", "-1,1"],
    ["existence", "--table", "--format", "csv"],
])
def test_a_subcommand_argv_is_parsed_once_by_its_own_parser(parsed_by, argv):
    assert run(argv)[0] == 0
    assert parsed_by == [cli._parsers()[1][argv[0]]]


@pytest.mark.parametrize("argv, code, stream, message", [
    ([], 2, "err", "the following arguments are required: command"),
    (["--help"], 0, "out", "{verify,classify,existence,mesh,causal-map,gauge}"),
    (["nope"], 2, "err", "invalid choice: 'nope'"),
])
def test_help_and_a_missing_or_unknown_subcommand_go_to_the_top_level_parser(
    parsed_by, argv, code, stream, message
):
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        cli.main(argv)
    assert exc.value.code == code
    text = {"out": out, "err": err}[stream].getvalue()
    assert text.startswith("usage: ruledmin [-h] {verify,") and message in text
    assert parsed_by == [cli.build_parser()]


@pytest.mark.parametrize("argv, rejected", [
    (["verify", "--sig", "3,1", "--family", "plane", "--table"], "--table"),
    (["existence", "--sig", "3,1", "--family", "plane", "--grid", "41x41"], "--grid 41x41"),
    (["causal-map", "--sig", "3,1", "--family", "plane", "--input", "x"], "--input x"),
])
def test_a_rejected_flag_is_named_under_its_subcommand_usage(argv, rejected):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        cli.main(argv)
    assert exc.value.code == 2
    assert err.getvalue().startswith(f"usage: ruledmin {argv[0]} [-h]")
    assert f"ruledmin {argv[0]}: error: unrecognized arguments: {rejected}\n" in err.getvalue()
