"""Acceptance gate: the shipped guarantees, one PASS/FAIL line per criterion.

Each test prints exactly one line of the form

    ACCEPTANCE NN <name>: PASS|FAIL

with capture suspended and then asserts, so a tee'd pytest run shows the
verdict for every criterion even on failure.
"""

import numpy as np

from ruledmin import (
    DEG_BAND,
    CertificateKind,
    CurveExpr,
    FamilyId,
    FrameSpec,
    NonExistenceError,
    RuledSurface,
    SignChoice,
    Signature,
    bernstein_check,
    c_function_grid,
    causal_map,
    existence_oracle,
    existence_table,
    gauge_normalize,
    generate,
    identify_family,
    is_minimal,
    uniform_grid,
)
from ruledmin.basisfn import COS, COSH, ONE, SIN, SINH, Atom, ScalarFn
from ruledmin.classify import CaseLabel
from ruledmin.existence import (
    NormPattern,
    admits_pattern,
    brute_force_cross_check,
    cells_for,
    frame_for_signs,
    replay_certificate,
)
from ruledmin.jsonio import curve_from_json
from ruledmin.surface import sweep_grid

from _oracles import convergence_order, distance_to_rulings, fd_position_jet

R30 = Signature(3, 0)
R31 = Signature(3, 1)
R41 = Signature(4, 1)
R42 = Signature(4, 2)

H_TOL = 1e-8
DEG_EXCLUDE = 1e-6


def _report(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, detail


def _admissible_triples():
    out = []
    for n in range(3, 7):
        for p in range(0, n + 1):
            sig = Signature(n, p)
            for family in FamilyId:
                if family is FamilyId.PLANE:
                    continue
                result = existence_oracle(sig, family)
                if not result.exists:
                    continue
                if family is FamilyId.MINIMAL_CYLINDER:
                    out.append((sig, family, None))
                else:
                    out.extend(
                        (sig, family, choice) for choice, ok, _ in result.per_sign if ok
                    )
    return out


# ---------------------------------------------------------------------------
# 1. the existence matrix, cell for cell


EXPECTED_TABLE = {
    "R^n_0 (n >= 3)": (False, True, False, False, False, False, False),
    "R^3_1": (True, True, False, True, False, True, False),
    "R^4_1": (True, True, True, True, False, True, True),
    "R^4_2": (True, True, False, True, True, True, True),
    "R^n_1 (n >= 5)": (True, True, True, True, False, True, True),
    "R^n_p (n >= 5, 2 <= p <= n/2)": (True, True, True, True, True, True, True),
}

REPRESENTATIVE_COVERAGE = {
    (3, 0), (4, 0), (5, 0),
    (3, 1), (4, 1), (4, 2),
    (5, 1), (6, 1),
    (5, 2), (6, 2), (6, 3),
}


def test_01_existence_table(capsys):
    problems = []
    rows = existence_table()
    if [row.label for row in rows] != list(EXPECTED_TABLE):
        problems.append(f"row labels {[r.label for r in rows]}")
    covered = set()
    for row in rows:
        if row.cells != EXPECTED_TABLE.get(row.label):
            problems.append(f"{row.label}: cells {row.cells}")
        for sig in row.representatives:
            covered.add((sig.n, sig.p))
            if cells_for(sig) != row.cells:
                problems.append(f"{row.label}: representative {sig} disagrees")
    missing = REPRESENTATIVE_COVERAGE - covered
    if missing:
        problems.append(f"unchecked representatives {sorted(missing)}")
    _report(capsys, 1, "existence-table", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# 2. every admissible triple generates a surface with max |H| below tolerance


def test_02_family_minimality(capsys):
    problems = []
    for sig, family, signs in _admissible_triples():
        surf = generate(sig, family, signs=signs)
        report = is_minimal(sig, surf, tau_deg=DEG_EXCLUDE)
        if not report.is_minimal or report.max_h_norm > H_TOL:
            problems.append(f"{sig} {family.name} {signs}: max|H|={report.max_h_norm:.3e}")
    _report(capsys, 2, "family-minimality", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# 3. non-existence certificates replay to their exact contradictions


def test_03_nonexistence_certificates(capsys):
    problems = []
    for n in range(3, 7):
        sig = Signature(n, 1)
        res = existence_oracle(sig, FamilyId.HYPERBOLIC_HELICOID_2)
        trace = replay_certificate(sig, FamilyId.HYPERBOLIC_HELICOID_2, res.certificate)
        ok = (
            not res.exists
            and res.certificate.kind is CertificateKind.INDEX_ONE_NULL_ORTHOGONAL
            and trace.exact
            and trace.conclusion == "e3 = 0 contradicts null (non-zero)"
        )
        if not ok:
            problems.append(f"{sig}: {trace.conclusion!r}")
    res = existence_oracle(R42, FamilyId.ELLIPTIC_HELICOID_2)
    trace = replay_certificate(R42, FamilyId.ELLIPTIC_HELICOID_2, res.certificate)
    ok = (
        not res.exists
        and res.certificate.kind is CertificateKind.NEUTRAL_QUADRATIC
        and trace.exact
        and trace.conclusion
        == "((b*z - c*y)/x)^2 = -1 has no real solution; no such frame exists"
    )
    if not ok:
        problems.append(f"{R42}: {trace.conclusion!r}")
    _report(capsys, 3, "nonexistence-certificates", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# 4. causal type change: boundary roots and sampled sign agreement


CAUSAL_CASES = [
    (R31, FamilyId.ELLIPTIC_HELICOID_1, SignChoice(1, 1, -1), [-1.0, 1.0]),
    (R31, FamilyId.HYPERBOLIC_HELICOID_1, SignChoice(1, -1, 1), [-1.0, 1.0]),
    (R41, FamilyId.ELLIPTIC_HELICOID_2, SignChoice(1, 1, 0), [0.0]),
    (R42, FamilyId.HYPERBOLIC_HELICOID_2, SignChoice(1, -1, 0), [0.0]),
    (R31, FamilyId.PARABOLIC_HELICOID, SignChoice(1, 1, -1), [0.0]),
    (R42, FamilyId.PARABOLIC_HELICOID, SignChoice(-1, -1, 1), [0.0]),
    (R41, FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID, SignChoice(0, 1, 1), []),
]


def test_04_causal_type_change(capsys):
    problems = []
    s_grid = uniform_grid(-3.0, 3.0, 100)
    t_grid = uniform_grid(-3.0, 3.0, 100)
    for sig, family, signs, roots in CAUSAL_CASES:
        report = causal_map(sig, family, signs)
        if len(report.degenerate_loci) != len(roots) or any(
            abs(got - want) > 1e-10 for got, want in zip(report.degenerate_loci, roots)
        ):
            problems.append(f"{family.name} {signs}: loci {report.degenerate_loci}")
            continue
        if not report.cross_validated:
            problems.append(f"{family.name} {signs}: not cross validated")
            continue
        surf = generate(sig, family, signs=signs)
        sweep = sweep_grid(sig, surf, s_grid, t_grid)
        for j, t in enumerate(t_grid):
            region = next(
                (r for r in report.regions if r.t_lo <= t <= r.t_hi), None
            )
            for det in sweep.det_g[:, j]:
                if abs(det) <= DEG_BAND:
                    continue
                verdict = "spacelike" if det > 0 else "timelike"
                if region is None or verdict != region.verdict:
                    problems.append(f"{family.name} {signs}: t={t:.3f} det={det:.3e}")
                    break
            else:
                continue
            break
    _report(capsys, 4, "causal-type-change", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# 5. the explicit degenerate frame in neutral four-space is a working witness


def test_05_neutral_frame_witness(capsys):
    problems = []
    vectors = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1))
    try:
        FrameSpec(sig=R42, vectors=vectors, signs=(-1, 1, 0))
    except Exception as exc:
        problems.append(f"frame rejected: {exc}")
    canonical = frame_for_signs(R42, SignChoice(-1, 1, 0))
    if canonical.vectors != vectors:
        problems.append(f"canonical frame {canonical.vectors}")
    res = existence_oracle(R42, FamilyId.HYPERBOLIC_HELICOID_2, signs=SignChoice(-1, 1, 0))
    if not res.exists or res.frame.vectors != vectors:
        problems.append("oracle does not return the witness frame")
    surf = generate(R42, FamilyId.HYPERBOLIC_HELICOID_2, signs=SignChoice(-1, 1, 0))
    report = is_minimal(R42, surf, tau_deg=DEG_EXCLUDE)
    if not report.is_minimal:
        problems.append(f"witness surface max|H|={report.max_h_norm:.3e}")
    _report(capsys, 5, "neutral-frame-witness", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# 6. classifier round trip and the three table cases


def test_06_classifier_round_trip(capsys):
    problems = []
    for sig, family, signs in _admissible_triples():
        surf = generate(sig, family, signs=signs)
        result = identify_family(sig, surf)
        if result.family is not family:
            problems.append(f"{sig} {family.name} {signs} -> {result.family}")
    anchors = [
        (R30, FamilyId.ELLIPTIC_HELICOID_1, None, CaseLabel.CASE_I),
        (R31, FamilyId.PARABOLIC_HELICOID, None, CaseLabel.CASE_IV),
        (R41, FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID, None, CaseLabel.CASE_V),
    ]
    for sig, family, signs, case in anchors:
        result = identify_family(sig, generate(sig, family, signs=signs))
        if result.reported_case is not case:
            problems.append(f"{family.name}: case {result.reported_case}")
    _report(capsys, 6, "classifier-round-trip", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# 7. the ratio function is zero on every generated non-cylinder family


def test_07_c_constancy(capsys):
    problems = []
    s_grid = uniform_grid(-3.0, 3.0, 41)
    t_grid = uniform_grid(-3.0, 3.0, 41)
    for sig, family, signs in _admissible_triples():
        if family is FamilyId.MINIMAL_CYLINDER:
            continue
        surf = generate(sig, family, signs=signs)
        vals, mask = c_function_grid(sig, surf, s_grid, t_grid)
        if not mask.any():
            problems.append(f"{sig} {family.name} {signs}: fully degenerate grid")
        elif np.max(np.abs(vals[mask])) > 1e-9:
            problems.append(
                f"{sig} {family.name} {signs}: |C|={np.max(np.abs(vals[mask])):.3e}"
            )
    _report(capsys, 7, "c-constancy", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# 8. gauge normalization on randomized perturbed helicoids


def _sample_image(surface, s_vals, t_vals):
    pts = []
    for t in t_vals:
        pts.append(surface.gamma.eval(s_vals, 0) * t + surface.base.eval(s_vals, 0))
    return np.concatenate(pts, axis=0)


def _ruling_distance(gauged, reference, s_query, s_dense, t_vals):
    query = _sample_image(gauged, s_query, t_vals)
    gamma_pts = reference.gamma.eval(s_dense, 0)
    base_pts = reference.base.eval(s_dense, 0)
    return float(np.max(distance_to_rulings(query, gamma_pts, base_pts)))


def test_08_gauge_normalization(capsys):
    rng = np.random.default_rng(2026)
    poly = [Atom(0, ONE, 0.0), Atom(1, ONE, 0.0), Atom(2, ONE, 0.0)]
    # products of the slide with the direction curve must stay in the algebra:
    # trig times trig and hyperbolic times hyperbolic both reduce, mixes do not
    rho_atoms_by_family = {
        FamilyId.ELLIPTIC_HELICOID_1: poly + [Atom(0, SIN, 1.0), Atom(0, COS, 1.0)],
        FamilyId.HYPERBOLIC_HELICOID_1: poly + [Atom(0, SINH, 0.5), Atom(0, COSH, 0.5)],
    }
    s_query = uniform_grid(-3.0, 3.0, 21)
    s_dense = uniform_grid(-3.0, 3.0, 601)
    t_vals = (-2.0, -0.7, 0.4, 1.3, 2.6)
    problems = []
    for trial in range(50):
        if trial % 2 == 0:
            sig, family, signs = R30, FamilyId.ELLIPTIC_HELICOID_1, SignChoice(1, 1, 1)
        else:
            sig, family, signs = R31, FamilyId.HYPERBOLIC_HELICOID_1, SignChoice(1, -1, 1)
        surf = generate(sig, family, signs=signs)
        if trial < 40:
            # slide the base along the rulings by a random smooth amount
            rho_atoms = rho_atoms_by_family[family]
            picks = rng.choice(len(rho_atoms), size=2, replace=False)
            rho = ScalarFn(
                [(float(rng.uniform(-2.0, 2.0)), rho_atoms[int(i)]) for i in picks]
            )
            shifted = surf.base.plus_scalar_times(rho, surf.gamma)
            if shifted is None:
                problems.append(f"trial {trial}: symbolic shift not expressible")
                continue
            perturbed = RuledSurface(surf.gamma, shifted, surf.s_domain, surf.t_domain)
        else:
            # cross-axis bump whose pairing has no symbolic antiderivative
            amp = float(rng.uniform(0.2, 1.0))
            bump = CurveExpr.from_basis_terms(3, [("cosh", 0.4, (amp, 0.0, 0.0))])
            perturbed = RuledSurface(surf.gamma, surf.base + bump,
                                     surf.s_domain, surf.t_domain)
        result = gauge_normalize(sig, perturbed)
        if result.max_abs_g12 > 1e-9:
            problems.append(f"trial {trial}: |g12|={result.max_abs_g12:.3e}")
            continue
        dist = _ruling_distance(result.surface, perturbed, s_query, s_dense, t_vals)
        if dist > 1e-6:
            problems.append(f"trial {trial}: image distance {dist:.3e}")
    _report(capsys, 8, "gauge-normalization", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# 9. randomized search never contradicts the pattern decision


def test_09_search_consistency(capsys):
    problems = []
    false_pairs = 0
    for n in range(3, 7):
        for p in range(0, n + 1):
            sig = Signature(n, p)
            for a in range(4):
                for b in range(4 - a):
                    pattern = NormPattern(a, b, 3 - a - b)
                    if admits_pattern(sig, pattern):
                        continue
                    false_pairs += 1
                    result = brute_force_cross_check(sig, pattern, trials=1000, seed=0)
                    if result.found:
                        problems.append(f"{sig} {pattern}: witness at {result.first_success}")
    if false_pairs < 100:
        problems.append(f"only {false_pairs} inadmissible pairs enumerated")
    _report(capsys, 9, "search-consistency", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# 10. the entire spacelike graph exists in R^4_1 and nowhere flatter


def test_10_entire_spacelike_graph(capsys):
    problems = []
    report = bernstein_check(R41, signs=SignChoice(0, 1, 1))
    flags = {
        "exists": report.exists,
        "entire_graph": report.entire_graph,
        "spacelike": report.spacelike,
        "minimal": report.minimal,
        "non_planar": not report.planar,
        "det_g_positive": report.min_det_g > 0.0,
        "g11_positive": report.min_g11 > 0.0,
    }
    problems.extend(name for name, ok in flags.items() if not ok)
    if max(abs(v) for dom in report.domains for v in dom) < 100.0:
        problems.append("largest domain smaller than [-100, 100]^2")
    for sig in (R30, R31):
        try:
            bernstein_check(sig)
            problems.append(f"{sig}: unexpectedly exists")
        except NonExistenceError as exc:
            if exc.result.certificate is None:
                problems.append(f"{sig}: no certificate attached")
    _report(capsys, 10, "entire-spacelike-graph", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# 11. finite differences confirm the analytic jets and the trace identity


def test_11_numerical_self_consistency(capsys):
    problems = []
    hs = (1e-2, 1e-3)

    curve = curve_from_json({
        "n": 3,
        "terms": [
            {"basis": "sin", "param": 2.0, "coeff": [1.0, 0.0, 0.0]},
            {"basis": "cosh", "param": 0.5, "coeff": [0.0, 1.0, 0.0]},
            {"basis": "pow", "param": 3, "coeff": [0.0, 0.0, 1.0]},
            {"basis": "pow", "param": 1, "coeff": [0.0, 0.0, 1.0]},
        ],
    })
    points = np.array([-1.3, -0.4, 0.2, 0.9, 1.7])
    for order in (1, 2):
        errs = []
        for h in hs:
            if order == 1:
                fd = (curve.eval(points + h) - curve.eval(points - h)) / (2 * h)
            else:
                fd = (
                    curve.eval(points + h)
                    - 2 * curve.eval(points)
                    + curve.eval(points - h)
                ) / (h * h)
            errs.append(float(np.max(np.abs(fd - curve.eval(points, order)))))
        rate = convergence_order(errs, hs)
        if rate < 1.9:
            problems.append(f"curve order {order}: rate {rate:.3f}")

    surf = generate(R30, FamilyId.ELLIPTIC_HELICOID_1)
    jet_points = [(0.3, 0.8), (-1.1, 1.6), (0.9, -0.7)]
    errs = []
    for h in hs:
        worst = 0.0
        for s, t in jet_points:
            g0, g1, g2 = (surf.gamma.eval(s, k) for k in range(3))
            x1, x2 = surf.base.eval(s, 1), surf.base.eval(s, 2)
            _, f_s, f_t, f_ss, f_st, f_tt = fd_position_jet(surf, s, t, h)
            worst = max(
                worst,
                float(np.max(np.abs(f_s - (g1 * t + x1)))),
                float(np.max(np.abs(f_t - g0))),
                float(np.max(np.abs(f_ss - (g2 * t + x2)))),
                float(np.max(np.abs(f_st - g1))),
                float(np.max(np.abs(f_tt))),
            )
        errs.append(worst)
    rate = convergence_order(errs, hs)
    if rate < 1.9:
        problems.append(f"surface jets: rate {rate:.3f}")

    trace_cases = [
        (R30, FamilyId.ELLIPTIC_HELICOID_1),
        (R31, FamilyId.HYPERBOLIC_HELICOID_1),
        (R31, FamilyId.PARABOLIC_HELICOID),
        (R41, FamilyId.MINIMAL_HYPERBOLIC_PARABOLOID),
    ]
    rng = np.random.default_rng(3)
    for sig, family in trace_cases:
        surf = generate(sig, family)
        for _ in range(10):
            s = float(rng.uniform(-3, 3))
            t = float(rng.uniform(-3, 3))
            point = sweep_grid(sig, surf, [s], [t])
            if not point.nondegenerate[0, 0]:
                continue
            g12 = point.g12[0, 0]
            if abs(g12) > 1e-12:
                problems.append(f"{family.name}: g12 = {g12:.3e}")
                continue
            resid = 2.0 * point.H[0, 0] - point.h11[0, 0] / point.g11[0, 0]
            if np.max(np.abs(resid)) > 1e-12:
                problems.append(f"{family.name}: trace residual {np.max(np.abs(resid)):.3e}")
    _report(capsys, 11, "numerical-self-consistency", not problems, "; ".join(problems))
