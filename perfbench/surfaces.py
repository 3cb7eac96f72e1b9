"""Benchmark inputs and answer checks that do not use the program under test.

The catalog surfaces are rebuilt here from the paper's formulas on the same
integer frames the catalog uses (timelike axes consumed first for -1 slots,
spacelike axes for +1 slots, a null slot takes one of each), written in the
program's JSON wire format. The term evaluator below is a separate
implementation of s^k * phi(omega*s) calculus, so checks on the program's
JSON output (g12 after gauge fixing, det g for causal maps) do not trust the
code they check.
"""

from __future__ import annotations

import functools

import numpy as np

# families built on an orthogonal 3-frame, with their admissible sign choices
# (s1, s2, s3) in the catalog's preference order
FRAME_SIGNS = {
    "elliptic-helicoid-1": [(s, s, t) for s in (1, -1) for t in (1, -1)],
    "elliptic-helicoid-2": [(s, s, 0) for s in (1, -1)],
    "hyperbolic-helicoid-1": [(s, -s, t) for s in (1, -1) for t in (1, -1)],
    "hyperbolic-helicoid-2": [(s, -s, 0) for s in (1, -1)],
    "parabolic-helicoid": [(s, s, -s) for s in (1, -1)],
    "minimal-hyperbolic-paraboloid": [(0, s, t) for s in (1, -1) for t in (1, -1)],
}
ELLIPTIC = ("elliptic-helicoid-1", "elliptic-helicoid-2")
FAMILIES = ("plane", "minimal-cylinder", *FRAME_SIGNS)


def fits(n: int, p: int, signs) -> bool:
    """The embedding criterion for a norm pattern: b + c <= p and a + c <= n - p."""
    a = sum(1 for v in signs if v == 1)
    b = sum(1 for v in signs if v == -1)
    c = sum(1 for v in signs if v == 0)
    return b + c <= p and a + c <= n - p


def cylinder_fits(n: int, p: int) -> bool:
    return n >= 3 and p >= 1 and n - p >= 1


def family_exists(n: int, p: int, family: str) -> bool:
    if family == "plane":
        return True
    if family == "minimal-cylinder":
        return cylinder_fits(n, p)
    return any(fits(n, p, sg) for sg in FRAME_SIGNS[family])


@functools.lru_cache(maxsize=None)
def catalog_triples(n_lo: int, n_hi: int) -> tuple[tuple[int, int, str, tuple | None], ...]:
    """Every admissible (n, p, family, signs) with n_lo <= n <= n_hi.

    Frame families contribute one entry per sign choice that fits; the
    cylinder contributes one entry (signs None) per signature that carries it.
    """
    out = []
    for n in range(n_lo, n_hi + 1):
        for p in range(n + 1):
            for fam, choices in FRAME_SIGNS.items():
                out.extend((n, p, fam, sg) for sg in choices if fits(n, p, sg))
            if cylinder_fits(n, p):
                out.append((n, p, "minimal-cylinder", None))
    return tuple(out)


def pairing(p: int, u, v) -> int:
    """Index-p scalar product in Python ints (or floats)."""
    return -sum(a * b for a, b in zip(u[:p], v[:p])) + sum(
        a * b for a, b in zip(u[p:], v[p:])
    )


def frame(n: int, p: int, signs) -> list[list[int]]:
    nt, ns = 0, p
    vecs = []
    for sg in signs:
        v = [0] * n
        if sg == 1:
            v[ns] = 1
            ns += 1
        elif sg == -1:
            v[nt] = 1
            nt += 1
        else:
            v[nt] = v[ns] = 1
            nt += 1
            ns += 1
        vecs.append(v)
    return vecs


# ---------------------------------------------------------------------------
# curves as term lists: (coef vector, k, kind, omega) meaning vec * s^k phi(omega s)

_DERIV = {"cos": (-1.0, "sin"), "sin": (1.0, "cos"), "cosh": (1.0, "sinh"),
          "sinh": (1.0, "cosh"), "exp": (1.0, "exp")}
_FUNC = {"cos": np.cos, "sin": np.sin, "cosh": np.cosh, "sinh": np.sinh, "exp": np.exp}


def as_vector(v, scale=1.0):
    return np.asarray(v, dtype=float) * scale


def family_curves(n: int, p: int, family: str, signs) -> tuple[list, list]:
    e1, e2, e3 = (as_vector(v) for v in frame(n, p, signs))
    if family in ELLIPTIC:
        return [(e1, 0, "cos", 1.0), (e2, 0, "sin", 1.0)], [(e3, 1, "one", 0.0)]
    if family.startswith("hyperbolic-helicoid"):
        return [(e1, 0, "cosh", 1.0), (e2, 0, "sinh", 1.0)], [(e3, 1, "one", 0.0)]
    if family == "parabolic-helicoid":
        return (
            [(e1, 0, "one", 0.0), (e2 + e3, 1, "one", 0.0)],
            [(e1, 2, "one", 0.0), ((e2 + e3) / 3.0, 3, "one", 0.0), (e3 - e2, 1, "one", 0.0)],
        )
    if family == "minimal-hyperbolic-paraboloid":
        return [(e1, 1, "one", 0.0), (e2, 0, "one", 0.0)], [(e3, 1, "one", 0.0)]
    raise ValueError(f"{family} is not a frame family")


def slide(gamma: list, base: list, c1: float, c2: float) -> list:
    """Base moved along the rulings: x + (c1 s + c2 s^2) gamma (same point set)."""
    out = list(base)
    for vec, k, kind, om in gamma:
        out.append((vec * c1, k + 1, kind, om))
        out.append((vec * c2, k + 2, kind, om))
    return out


def diff(terms: list) -> list:
    out = []
    for vec, k, kind, om in terms:
        if k:
            out.append((vec * k, k - 1, kind, om))
        if kind != "one":
            sign, dkind = _DERIV[kind]
            out.append((vec * (sign * om), k, dkind, om))
    return out


def evaluate(terms: list, n: int, s: np.ndarray) -> np.ndarray:
    """(len(s), n) samples of the curve."""
    s = np.asarray(s, dtype=float)
    out = np.zeros((s.size, n))
    for vec, k, kind, om in terms:
        scal = s**k if kind == "one" else s**k * _FUNC[kind](om * s)
        out += scal[:, None] * vec[None, :]
    return out


def curve_json(terms: list, n: int) -> dict:
    wire = []
    for vec, k, kind, om in terms:
        coeff = [float(x) for x in vec]
        if kind == "one":
            wire.append({"basis": "pow", "param": k, "coeff": coeff})
        else:
            term = {"basis": kind, "param": om, "coeff": coeff}
            if k:
                term["degree"] = k
            wire.append(term)
    return {"n": n, "terms": wire}


def curve_from_json(data: dict) -> tuple[list, int]:
    n = int(data["n"])
    terms = []
    for t in data["terms"]:
        vec = as_vector(t["coeff"])
        if t["basis"] == "pow":
            terms.append((vec, int(t["param"]), "one", 0.0))
        else:
            terms.append((vec, int(t.get("degree", 0)), t["basis"], float(t["param"])))
    return terms, n


def surface_json(n, p, gamma, base, half_width: float) -> dict:
    dom = [-float(half_width), float(half_width)]
    return {
        "signature": {"n": n, "p": p},
        "gamma": curve_json(gamma, n),
        "base": curve_json(base, n),
        "s_domain": dom,
        "t_domain": dom,
    }


def _ip(p: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return -(u[..., :p] * v[..., :p]).sum(-1) + (u[..., p:] * v[..., p:]).sum(-1)


def max_g12_excess(surface: dict, rel_tol: float = 1e-9, samples: int = 101) -> float:
    """Largest |g12| / (rel_tol * max(1, scale)) over s samples and t at the ends.

    g12 = <gamma' t + x', gamma>; scale is the Euclidean size of the terms
    that cancel, so float round-off on large domains is not read as an
    error. A value <= 1 passes.
    """
    p = int(surface["signature"]["p"])
    gamma, n = curve_from_json(surface["gamma"])
    base, _ = curve_from_json(surface["base"])
    s = np.linspace(*surface["s_domain"], samples)
    g0 = evaluate(gamma, n, s)
    g1 = evaluate(diff(gamma), n, s)
    x1 = evaluate(diff(base), n, s)
    worst = 0.0
    for t in (surface["t_domain"][0], 0.0, surface["t_domain"][1]):
        fs = g1 * t + x1
        g12 = np.abs(_ip(p, fs, g0))
        scale = np.maximum(1.0, np.linalg.norm(fs, axis=1) * np.linalg.norm(g0, axis=1))
        worst = max(worst, float((g12 / (rel_tol * scale)).max()))
    return worst


def same_rulings(p_in: dict, p_out: dict, samples: int = 41) -> float:
    """Largest relative distance of x_out - x_in from the ruling direction gamma."""
    gamma, n = curve_from_json(p_in["gamma"])
    x_in, _ = curve_from_json(p_in["base"])
    x_out, _ = curve_from_json(p_out["base"])
    s = np.linspace(*p_in["s_domain"], samples)
    g = evaluate(gamma, n, s)
    d = evaluate(x_out, n, s) - evaluate(x_in, n, s)
    # Euclidean component of d orthogonal to gamma
    along = (d * g).sum(1) / (g * g).sum(1)
    resid = np.linalg.norm(d - along[:, None] * g, axis=1)
    scale = 1.0 + np.linalg.norm(d, axis=1)
    return float((resid / scale).max())


def _simpson_steps(p: int, gamma: list, dx: list, n: int, knots: np.ndarray, q: int) -> np.ndarray:
    """Integral of <gamma, x'> over each [knots[i], knots[i+1]], Simpson with 2q panels."""
    h = np.diff(knots) / (2 * q)
    xs = knots[:-1, None] + h[:, None] * np.arange(2 * q + 1)[None, :]
    f = _ip(p, evaluate(gamma, n, xs.ravel()), evaluate(dx, n, xs.ravel())).reshape(xs.shape)
    w = np.ones(2 * q + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return h / 3.0 * (f * w).sum(axis=1)


def lam_reference(p: int, gamma: list, base: list, n: int, s_table, eps: int) -> np.ndarray:
    """lambda(s) = -eps * integral_0^s <gamma, x'> on the table points (composite Simpson)."""
    s_table = np.asarray(s_table, dtype=float)
    dx = diff(base)
    steps = _simpson_steps(p, gamma, dx, n, s_table, q=10)
    from_first = np.concatenate([[0.0], np.cumsum(steps)])
    to_zero = _simpson_steps(p, gamma, dx, n, np.array([s_table[0], 0.0]), q=2000)[0]
    return -eps * (from_first - to_zero)


def det_g(p: int, gamma: list, base: list, n: int, s: np.ndarray, t: float) -> np.ndarray:
    g0 = evaluate(gamma, n, s)
    fs = evaluate(diff(gamma), n, s) * t + evaluate(diff(base), n, s)
    return _ip(p, fs, fs) * _ip(p, g0, g0) - _ip(p, fs, g0) ** 2


def cylinder_curves(n: int, p: int) -> tuple[list, list]:
    """The catalog cylinder: null direction e_0 + e_p over a null-paired base."""
    def ax(i):
        v = np.zeros(n)
        v[i] = 1.0
        return v

    direction = ax(0) + ax(p)
    if n - p >= 2:
        i, j, k = 0, p, p + 1
        base = [(ax(i), 0, "sinh", 1.0), (ax(j), 0, "cosh", 1.0), (ax(k), 1, "one", 0.0)]
    else:
        i, j, k = 0, 1, p
        base = [(ax(i), 0, "cosh", 1.0), (ax(j), 1, "one", 0.0), (ax(k), 0, "sinh", 1.0)]
    return [(direction, 0, "one", 0.0)], base


def causal_map_problem(out: dict, n: int, p: int, family: str, signs) -> str | None:
    """Check causal-map regions against det g computed here; None when right."""
    if family == "minimal-cylinder":
        gamma, base = cylinder_curves(n, p)
    else:
        gamma, base = family_curves(n, p, family, signs)
    lo, hi = out["t_domain"]
    regions = out["regions"]
    if not regions or regions[0]["t_lo"] != lo or regions[-1]["t_hi"] != hi:
        return "regions do not cover the t-domain"
    s = np.linspace(-3.0, 3.0, 13)
    for a, b in zip(regions, regions[1:]):
        if a["t_hi"] != b["t_lo"]:
            return f"gap between regions at t={a['t_hi']}"
    for reg in regions:
        tm = 0.5 * (reg["t_lo"] + reg["t_hi"])
        det = det_g(p, gamma, base, n, s, tm)
        det = det[np.abs(det) > 1e-6]
        if det.size == 0:
            continue
        want = "spacelike" if float(np.median(det)) > 0 else "timelike"
        if reg["verdict"] != want:
            return f"region [{reg['t_lo']}, {reg['t_hi']}] is {reg['verdict']}, det g says {want}"
    for t0 in out["degenerate_loci"]:
        det = det_g(p, gamma, base, n, s, t0)
        if float(np.abs(det).max()) > 1e-6 * max(1.0, t0 * t0):
            return f"det g does not vanish at the reported locus t={t0}"
    return None
