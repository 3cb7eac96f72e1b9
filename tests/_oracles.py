"""Independent numerical oracles used to cross-check the analytic code paths.

Everything here deliberately avoids the library's symbolic differentiation
and adjugate-based projection: jets come from central differences on curve
positions only, normal components from np.linalg.solve, and image
comparisons from closed-form point-to-line distances.

The exceptions are the reference implementations at the end:
`vector_sweep`, `obj_mesh_loop` and `csv_grid_loop` keep the full-array
sweep and the per-value export loops that the coefficient-table sweep and
the deduplicating column export replaced, and `brute_force_loop` keeps the
per-trial Python loop of the randomized existence search that the numpy
lockstep replaced, drawing from `split_mix_words`, a pure-Python copy of
the search's counter hash, so the new code can be compared against them.
`det_g_closed_form` is the hand-written table of det g per family and sign
choice that causal maps read before det g's coefficients were derived from
the surface's own pairings; it is the reference those coefficients must match.
`scalar_product_loop`, `plus_scalar_times_loop` and `symbolic_inner_loop`
keep the three product loops that ScalarFn `*`, CurveExpr.plus_scalar_times
and symbolic_inner each had before the term algebra was written once, on
the by-kind product table below; they take and return plain dicts from
atom to coefficient, so the shared product can be compared against them
term by term wherever that table closes.
`cayley_isometry` and `moved_surface` move a surface by an exact isometry of
R^n_p and a translation, the congruences every verdict is invariant under,
and `draw_moved_surface` draws both for a hypothesis test;
`reparametrized_surface` rewrites a surface's curves under s -> a s + b by
the addition formulas, a reparametrization every verdict is invariant under.
`two_run_numerators` keeps the two _numerators runs, one signed and one on
magnitudes over a stand-in Euclidean table, that gave N's coefficients and
their rounding bound before one stacked run gave both.
`dumps_abc` keeps the JSON emitter that decided every value through the
isinstance chain of the numbers ABCs, before jsonio.dumps spelled the plain
Python types by their concrete type first.
`canon_by_kind`, `diff_atom_by_kind`, `product_atoms_by_kind` and
`antiderivative_atom_by_kind` keep basisfn's atom rules as they were written
kind by kind, with the parity, derivative and primitive tables and the
six-way product table, before terms were keyed by power and rate; the
product loops and `reparametrized` use them, not basisfn's rules.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from ruledmin import CurveExpr, RuledSurface, Signature, UsageError, inner_product
from ruledmin.basisfn import COS, COSH, EXP, KINDS, ONE, SIN, SINH, Atom
from ruledmin.existence import SEARCH_COORD_BOUND, SEARCH_SAMPLES_PER_SLOT, SearchResult
from ruledmin.families import FamilyId, NormPattern, SignChoice, validate_signs
from ruledmin.metric import ip_array
from ruledmin.surface import EPS, _numerators


def signed_sum_inner(sig: Signature, u, v) -> float:
    """inner_product recomputed by direct signed summation."""
    total = 0.0
    for i, (a, b) in enumerate(zip(u, v)):
        total += (-1.0 if i < sig.p else 1.0) * a * b
    return total


def fd_position_jet(surface, s: float, t: float, h: float = 1e-5):
    """Second-order jet of f(s,t) from position evaluations alone.

    Returns (f, f_s, f_t, f_ss, f_st, f_tt) via central differences; the
    only library call is order-0 curve evaluation.
    """

    def f(ss, tt):
        return surface.gamma.eval(ss, 0) * tt + surface.base.eval(ss, 0)

    f0 = f(s, t)
    f_s = (f(s + h, t) - f(s - h, t)) / (2 * h)
    f_t = (f(s, t + h) - f(s, t - h)) / (2 * h)
    f_ss = (f(s + h, t) - 2 * f0 + f(s - h, t)) / (h * h)
    f_tt = (f(s, t + h) - 2 * f0 + f(s, t - h)) / (h * h)
    f_st = (
        f(s + h, t + h) - f(s + h, t - h) - f(s - h, t + h) + f(s - h, t - h)
    ) / (4 * h * h)
    return f0, f_s, f_t, f_ss, f_st, f_tt


def normal_component(sig: Signature, f_s, f_t, vec):
    """Project out the tangential part of vec by solving the Gram system."""
    gram = np.array(
        [
            [inner_product(sig, f_s, f_s), inner_product(sig, f_s, f_t)],
            [inner_product(sig, f_t, f_s), inner_product(sig, f_t, f_t)],
        ]
    )
    rhs = np.array([inner_product(sig, vec, f_s), inner_product(sig, vec, f_t)])
    coeffs = np.linalg.solve(gram, rhs)
    return np.asarray(vec, dtype=float) - coeffs[0] * np.asarray(f_s) - coeffs[1] * np.asarray(f_t)


def fd_mean_curvature(sig: Signature, surface, s: float, t: float, h: float = 1e-4):
    """Mean curvature vector from the FD jet and the solve-based projection."""
    _, f_s, f_t, f_ss, f_st, f_tt = fd_position_jet(surface, s, t, h)
    g11 = inner_product(sig, f_s, f_s)
    g12 = inner_product(sig, f_s, f_t)
    g22 = inner_product(sig, f_t, f_t)
    det = g11 * g22 - g12 * g12
    h11 = normal_component(sig, f_s, f_t, f_ss)
    h12 = normal_component(sig, f_s, f_t, f_st)
    h22 = normal_component(sig, f_s, f_t, f_tt)
    return (g11 * h22 - 2.0 * g12 * h12 + g22 * h11) / (2.0 * det)


def distance_to_rulings(query, gamma_pts, base_pts):
    """Min Euclidean distance from each query point to a family of lines.

    Lines are x(s_j) + t * gamma(s_j) over real t, minimized in closed form;
    the outer minimum runs over the sampled s_j. Shapes: query (m, n),
    gamma_pts/base_pts (k, n). Returns an (m,) array.
    """
    query = np.asarray(query, dtype=float)
    diff = query[:, None, :] - base_pts[None, :, :]  # (m, k, n)
    gg = np.einsum("kn,kn->k", gamma_pts, gamma_pts)
    t_star = np.einsum("mkn,kn->mk", diff, gamma_pts) / gg[None, :]
    resid = diff - t_star[:, :, None] * gamma_pts[None, :, :]
    return np.sqrt(np.einsum("mkn,mkn->mk", resid, resid)).min(axis=1)


def convergence_order(errs, hs) -> float:
    """Observed order from consecutive error/step pairs (least over legs)."""
    orders = []
    for (e1, h1), (e0, h0) in zip(zip(errs[1:], hs[1:]), zip(errs, hs)):
        if e1 == 0.0 or e0 == 0.0:
            orders.append(math.inf)
        else:
            orders.append(math.log(e0 / e1) / math.log(h0 / h1))
    return min(orders)


def vector_sweep(sig: Signature, surface, s_grid, t_grid, tau_deg: float = 1e-9) -> dict:
    """The full-array sweep: f, its derivatives, h11, h12 and H as (ns, nt, n) arrays.

    This is the straightforward formula the coefficient-table sweep replaces;
    the pairings run over whole ambient vectors at every grid point.
    """
    w = sig.weights()

    def ip(u, v):
        return ((u * v) * w).sum(axis=-1)

    s_grid = np.asarray(s_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    G = [surface.gamma.eval(s_grid, o) for o in (0, 1, 2)]
    X = [surface.base.eval(s_grid, o) for o in (0, 1, 2)]
    T = t_grid[None, :, None]
    shape = (s_grid.size, t_grid.size, sig.n)
    f = G[0][:, None, :] * T + X[0][:, None, :]
    f_s = G[1][:, None, :] * T + X[1][:, None, :]
    f_t = np.broadcast_to(G[0][:, None, :], shape)
    f_ss = G[2][:, None, :] * T + X[2][:, None, :]
    f_st = np.broadcast_to(G[1][:, None, :], shape)

    g11 = ip(f_s, f_s)
    g12 = ip(f_s, f_t)
    g22 = ip(f_t, f_t)
    det = g11 * g22 - g12 * g12
    mask = np.abs(det) > tau_deg
    safe = np.where(mask, det, 1.0)

    def normal(vec):
        b1 = ip(vec, f_s)
        b2 = ip(vec, f_t)
        alpha = (g22 * b1 - g12 * b2) / safe
        beta = (-g12 * b1 + g11 * b2) / safe
        return vec - alpha[..., None] * f_s - beta[..., None] * f_t

    h11 = normal(f_ss)
    h12 = normal(f_st)
    H = 0.5 * (-2.0 * g12[..., None] * h12 + g22[..., None] * h11) / safe[..., None]
    H_norm = np.where(mask, np.sqrt((H * H).sum(axis=-1)), np.nan)
    return dict(f=f, f_s=f_s, f_t=f_t, f_ss=f_ss, f_st=f_st, g11=g11, g12=g12, g22=g22, det_g=det,
                nondegenerate=mask, h11=h11, h12=h12, H=H, H_norm=H_norm)


def obj_mesh_loop(sig: Signature, sweep, s_grid, t_grid) -> str:
    """OBJ text built one value per formatter call, as export.obj_mesh was."""
    from ruledmin.export import projection_axes
    from ruledmin.jsonio import _fmt_float

    def fmt(x):
        return _fmt_float(x, non_finite="nan")

    ns, nt = sweep.f.shape[0], sweep.f.shape[1]
    axes = projection_axes(sig)
    pts = np.zeros(sweep.f.shape[:-1] + (3,))  # zero-padded when n = 2
    pts[..., : len(axes)] = sweep.f[..., axes]
    lines = [
        f"# ruled surface mesh, {ns} x {nt} lattice over "
        f"s in [{fmt(s_grid[0])}, {fmt(s_grid[-1])}], "
        f"t in [{fmt(t_grid[0])}, {fmt(t_grid[-1])}]",
        f"# ambient dimension {sig.n} (index {sig.p}); displayed axes "
        + ", ".join(str(a + 1) for a in axes),
    ]
    for i in range(ns):
        for j in range(nt):
            x, y, z = pts[i, j]
            lines.append(f"v {fmt(x)} {fmt(y)} {fmt(z)}")

    def vid(i, j):
        return i * nt + j + 1

    for i in range(ns - 1):
        for j in range(nt - 1):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    return "\n".join(lines) + "\n"


def csv_grid_loop(sig: Signature, sweep) -> str:
    """CSV text built one value per formatter call, as export.csv_grid was."""
    from ruledmin.catalog import DEG_BAND
    from ruledmin.jsonio import _fmt_float

    def fmt(x):
        return _fmt_float(x, non_finite="nan")

    def causal_tag(det):
        if abs(det) <= DEG_BAND:
            return "degenerate"
        return "spacelike" if det > 0 else "timelike"

    header = ["s", "t"] + [f"f_{i + 1}" for i in range(sig.n)] + ["det_g", "H_norm", "causal_tag"]
    rows = [",".join(header)]
    ns, nt = sweep.f.shape[0], sweep.f.shape[1]
    for i in range(ns):
        for j in range(nt):
            det = float(sweep.det_g[i, j])
            cells = [fmt(sweep.s_grid[i]), fmt(sweep.t_grid[j])]
            cells += [fmt(c) for c in sweep.f[i, j]]
            cells.append(fmt(det))
            cells.append(fmt(sweep.H_norm[i, j]))
            cells.append(causal_tag(det))
            rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def _int_square(v: list[int], p: int) -> int:
    return sum(x * x for x in v[p:]) - sum(x * x for x in v[:p])


def _int_pairing(u: list[int], v: list[int], p: int) -> int:
    return sum(a * b for a, b in zip(u[p:], v[p:])) - sum(
        a * b for a, b in zip(u[:p], v[:p])
    )


def _gcd_reduce(v: list[int]) -> list[int]:
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    return [x // g for x in v] if g > 1 else v


_MASK = 2**64 - 1
_PHI = 0x9E3779B97F4A7C15


def _split_mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def split_mix_words(seed: int, trial: int):
    """Trial's words 0, 1, 2, ... of the search's counter hash, on Python ints:
    word j is mix(key + (j + 1) phi) with key = mix(mix(seed) + trial phi)."""
    key = _split_mix((_split_mix(seed & _MASK) + trial * _PHI) & _MASK)
    for j in itertools.count(1):
        yield _split_mix((key + j * _PHI) & _MASK)


def brute_force_loop(
    sig: Signature,
    pattern: NormPattern,
    trials: int = 1000,
    seed: int = 0,
) -> SearchResult:
    """brute_force_cross_check one trial at a time: the reference the numpy lockstep must equal.

    Seeded random search for the pattern, in exact integer arithmetic.

    Strategy: collect a + c mutually orthogonal integer vectors of positive
    square and b + c of negative square (orthogonalized by exact integer
    projections). Positive/negative members rescale to +-1 over the reals;
    each null slot is realized exactly by sqrt(-q(w)) * v + sqrt(q(v)) * w
    from one unused positive v and one unused negative w. A found pool is
    therefore a genuine witness; finding none proves nothing.

    Trial i reads its own words from split_mix_words(seed, i): one word per
    slot orders the slot targets, and each later word gives one coordinate.
    """
    n, p = sig.n, sig.p
    npos = pattern.a + pattern.c
    nneg = pattern.b + pattern.c
    samples_per_slot, coord_bound = SEARCH_SAMPLES_PER_SLOT, SEARCH_COORD_BOUND
    span = 2 * coord_bound + 1
    for trial in range(trials):
        words = split_mix_words(seed, trial)
        template = [1] * npos + [-1] * nneg
        keys = [next(words) for _ in template]
        targets = [tgt for _, tgt in sorted(zip(keys, template), key=lambda pair: pair[0])]
        coords = (((w >> 32) * span >> 32) - coord_bound for w in words)
        frame: list[list[int]] = []
        complete = True
        for tgt in targets:
            placed = False
            for _ in range(samples_per_slot):
                v = [next(coords) for _ in range(n)]
                for u in frame:
                    qu = _int_square(u, p)
                    bu = _int_pairing(v, u, p)
                    v = [qu * vi - bu * ui for vi, ui in zip(v, u)]
                    v = _gcd_reduce(v)
                if not any(v):
                    continue
                q = _int_square(v, p)
                if (q > 0 and tgt > 0) or (q < 0 and tgt < 0):
                    frame.append(v)
                    placed = True
                    break
            if not placed:
                complete = False
                break
        if complete:
            return SearchResult(
                sig=sig,
                pattern=pattern,
                found=True,
                trials=trial + 1,
                seed=seed,
                first_success=trial,
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


# ---------------------------------------------------------------------------
# closed-form determinant of the first fundamental form


@dataclass(frozen=True)
class DetGForm:
    """det g as a polynomial in t (frame families) or a symbolic note."""

    family: FamilyId
    signs: SignChoice | None
    c2: float
    c1: float
    c0: float
    s_dependent: bool
    expression: str

    def value(self, t):
        if self.s_dependent:
            raise UsageError("this det g depends on s; sample the surface instead")
        t = np.asarray(t, dtype=float)
        return self.c2 * t * t + self.c1 * t + self.c0


def det_g_closed_form(family: FamilyId, signs: SignChoice | None = None) -> DetGForm:
    if family is FamilyId.MINIMAL_CYLINDER:
        return DetGForm(
            family=family,
            signs=None,
            c2=0.0,
            c1=0.0,
            c0=0.0,
            s_dependent=True,
            expression="-<gamma0, x'(s)>^2, strictly negative wherever defined",
        )
    if family is FamilyId.PLANE:
        raise UsageError(
            "the plane's det g is the product of its two axis squares and is "
            "not a (family, signs) closed form; sample the surface instead"
        )
    if signs is None:
        raise UsageError(f"{family.value} needs a sign choice")
    validate_signs(family, signs)
    s1, s2, s3 = signs.as_tuple()
    if family in (FamilyId.ELLIPTIC_HELICOID_1, FamilyId.HYPERBOLIC_HELICOID_1):
        return DetGForm(
            family, signs, float(s1 * s2), 0.0, float(s1 * s3), False,
            f"({s2}*t^2 + {s3}) * {s1}",
        )
    if family in (FamilyId.ELLIPTIC_HELICOID_2, FamilyId.HYPERBOLIC_HELICOID_2):
        return DetGForm(
            family, signs, float(s1 * s2), 0.0, 0.0, False, f"{s1 * s2}*t^2"
        )
    if family is FamilyId.PARABOLIC_HELICOID:
        # g11 = -4*s1*t and g22 = s1, so det g = -4t for either sign choice
        return DetGForm(family, signs, 0.0, -4.0, 0.0, False, "-4*t")
    # minimal hyperbolic paraboloid: constant s2*s3
    return DetGForm(
        family, signs, 0.0, 0.0, float(s2 * s3), False, f"{s2 * s3} (constant)"
    )


def _closed_form_roots(form: DetGForm, lo: float, hi: float) -> list[float]:
    if form.c2 != 0.0:
        disc = form.c1 * form.c1 - 4.0 * form.c2 * form.c0
        if disc < 0.0:
            roots = []
        elif disc == 0.0:
            roots = [-form.c1 / (2.0 * form.c2)]
        else:
            r = math.sqrt(disc)
            roots = sorted(
                [(-form.c1 - r) / (2.0 * form.c2), (-form.c1 + r) / (2.0 * form.c2)]
            )
    elif form.c1 != 0.0:
        roots = [-form.c0 / form.c1]
    else:
        roots = []
    return [t for t in roots if lo < t < hi]


# ---------------------------------------------------------------------------
# the separate product loops of ScalarFn, CurveExpr and symbolic_inner


def _scalar_add(terms: dict, coef: float, atom) -> None:
    if coef == 0.0:
        return
    cur = terms.get(atom, 0.0) + coef
    if cur == 0.0:
        terms.pop(atom, None)
    else:
        terms[atom] = cur


def _vector_add(terms: dict, atom, vec) -> None:
    if not np.any(vec):
        return
    if atom in terms:
        merged = terms[atom] + vec
        if np.any(merged):
            terms[atom] = merged
        else:
            del terms[atom]
    else:
        terms[atom] = vec.copy()


def scalar_product_loop(a_terms: dict, b_terms: dict) -> dict:
    """ScalarFn * ScalarFn; UsageError when the product leaves the family."""
    out: dict = {}
    for a, ca in a_terms.items():
        for b, cb in b_terms.items():
            parts = product_atoms_by_kind(a, b)
            if parts is None:
                raise UsageError(f"{a} * {b} leaves the term algebra")
            for c, atom in parts:
                _scalar_add(out, ca * cb * c, atom)
    return out


def plus_scalar_times_loop(x_terms: dict, lam_terms: dict, other_terms: dict) -> dict | None:
    """x + lam * other for vector term dicts x, other and a scalar lam."""
    out: dict = {}
    for atom, vec in x_terms.items():
        _vector_add(out, atom, vec)
    for la, lc in lam_terms.items():
        for atom, vec in other_terms.items():
            parts = product_atoms_by_kind(la, atom)
            if parts is None:
                return None
            for c, aa in parts:
                _vector_add(out, aa, lc * c * vec)
    return out


def symbolic_inner_loop(sig: Signature, a_terms: dict, b_terms: dict) -> dict | None:
    """<a, b> of two vector term dicts as a scalar term dict."""
    total: dict = {}
    w = sig.weights()
    for aa, va in a_terms.items():
        for ab, vb in b_terms.items():
            dot = float((va * vb * w).sum())
            if dot == 0.0:
                continue
            parts = product_atoms_by_kind(aa, ab)
            if parts is None:
                return None
            for c, atom in parts:
                _scalar_add(total, dot * c, atom)
    return total


# ---------------------------------------------------------------------------
# congruences: an exact isometry of R^n_p and a translation


def cayley_isometry(sig: Signature, skew) -> list[list[Fraction]] | None:
    """The Cayley transform Q = (I - A)^-1 (I + A) of A = eta K, in Fractions,
    for a skew-symmetric rational matrix skew = K; None when I - A is singular.

    eta A + A^T eta = K + K^T = 0, so Q is an isometry: Q^T eta Q = eta, which
    is checked exactly.
    """
    n = sig.n
    eta = [-1 if i < sig.p else 1 for i in range(n)]
    a = [[eta[i] * Fraction(skew[i][j]) for j in range(n)] for i in range(n)]
    # Gauss-Jordan on the augmented rows [I - A | I + A]
    rows = [[(i == j) - a[i][j] for j in range(n)] + [(i == j) + a[i][j] for j in range(n)]
            for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                rows[r] = [v - rows[r][col] * w for v, w in zip(rows[r], rows[col])]
    q = [row[n:] for row in rows]
    gram = [[sum(q[k][i] * eta[k] * q[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    if gram != [[eta[i] * (i == j) for j in range(n)] for i in range(n)]:
        raise AssertionError("the Cayley transform is not an isometry")
    return q


def moved_surface(surface: RuledSurface, q, shift) -> RuledSurface:
    """The image of surface under f -> Q f + shift: Q multiplies every
    coefficient vector of gamma and x exactly, each entry is rounded to a float
    once, and the integer vector shift is added to x's constant term."""

    def move(curve, extra=()):
        terms = [
            (atom, [float(sum(qi[j] * Fraction(float(c[j])) for j in range(curve.n))) for qi in q])
            for c, atom in curve._spelled()
        ]
        return CurveExpr(curve.n, [*terms, *extra])

    base = move(surface.base, [(Atom(0, ONE, 0.0), [float(v) for v in shift])])
    return RuledSurface(move(surface.gamma), base, surface.s_domain, surface.t_domain)


def draw_moved_surface(data, sig: Signature, surface: RuledSurface) -> RuledSurface:
    """surface moved by the Cayley isometry of a skew matrix with entries p/q,
    |p| <= 3 and q <= 3, and by an integer translation in [-5, 5]^n, both drawn
    from hypothesis's data; a draw whose I - A is singular is rejected."""
    n = sig.n
    ratio = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    skew = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            skew[i][j] = data.draw(ratio)
            skew[j][i] = -skew[i][j]
    q = cayley_isometry(sig, skew)
    assume(q is not None)
    return moved_surface(surface, q, data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))


# phi(x + y) = sum of c psi(x) over the (c, psi) pairs at y: the addition
# formulas, and exp's constant factor
_ADDITION = {
    ONE: lambda y: ((1.0, ONE),),
    EXP: lambda y: ((math.exp(y), EXP),),
    COS: lambda y: ((math.cos(y), COS), (-math.sin(y), SIN)),
    SIN: lambda y: ((math.sin(y), COS), (math.cos(y), SIN)),
    COSH: lambda y: ((math.cosh(y), COSH), (math.sinh(y), SINH)),
    SINH: lambda y: ((math.sinh(y), COSH), (math.cosh(y), SINH)),
}


def reparametrized(curve: CurveExpr, a: float, b: float) -> CurveExpr:
    """curve(a s + b), term by term: s^k phi(w s) becomes the binomial sum of
    C(k, j) a^j b^(k-j) s^j times phi(a w s + w b), expanded by the addition
    formula, and each atom is normalized by canon_by_kind."""
    terms = []
    for coef, (k, kind, w) in curve._spelled():
        for j in range(k + 1):
            binomial = math.comb(k, j) * a**j * b ** (k - j)
            for c, psi in _ADDITION[kind](w * b):
                terms += [(atom, cc * c * binomial * coef) for cc, atom in canon_by_kind(1.0, j, psi, a * w)]
    return CurveExpr(curve.n, terms)


def reparametrized_surface(surface: RuledSurface, a: float, b: float) -> RuledSurface:
    """The same point set in the parameter s' with s = a s' + b: gamma and x
    composed with it, and the s-domain pulled back."""
    ends = sorted((end - b) / a for end in surface.s_domain)
    return RuledSurface(reparametrized(surface.gamma, a, b), reparametrized(surface.base, a, b),
                        tuple(ends), surface.t_domain)


# ---------------------------------------------------------------------------
# the minimality numerators in two runs


def two_run_numerators(tables) -> tuple[list, list]:
    """det g, D11, D12 and N and their (S, E), from the surface._RulingTables
    tables in two _numerators runs: one signed, one over |<a, b>| and the
    jets' sizes with every minus a plus, stacked with the same run on pairings
    widened by (n + 2) EPS sum_i |a_i b_i|, that sum read from a stand-in
    Euclidean table whose jets are the sizes."""
    euclid = Signature(tables.sig.n, 0)
    sizes = {k: tables._size(k) for k in ("g0", "g1", "g2", "x1", "x2")}
    cross = {}

    def pair(a, b):  # [|<a, b>|, the same widened by its rounding]
        key = tuple(sorted((a, b)))
        if key not in cross:
            cross[key] = ip_array(euclid, sizes[key[0]], sizes[key[1]])[:, None]
        p = np.abs(tables.col(a, b))
        return np.stack([p, p + (tables.sig.n + 2) * EPS * cross[key]])

    with np.errstate(all="ignore"):
        signed = _numerators(tables.col, tables.jet, operator.sub)
        both = _numerators(pair, sizes.__getitem__, operator.add)
    return list(signed), [(size, wide - size + 16 * EPS * wide) for size, wide in both]


# ---------------------------------------------------------------------------
# the JSON emitter on the numbers ABCs


def _emit_abc(obj, out: list, level: int, kinds: tuple) -> None:
    from ruledmin.jsonio import _fmt_float

    bools, arrays = kinds
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bools):
        out.append("true" if obj else "false")
    elif isinstance(obj, numbers.Integral):
        out.append(str(int(obj)))
    elif isinstance(obj, numbers.Real):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise UsageError(f"JSON object keys must be strings, got {key!r}")
            out.append(pad_in + json.dumps(key) + ": ")
            _emit_abc(val, out, level + 1, kinds)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, arrays):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        simple = all(
            item is None or isinstance(item, (*bools, str, numbers.Number))
            for item in items
        )
        if simple:
            parts = []
            for item in items:
                sub: list = []
                _emit_abc(item, sub, 0, kinds)
                parts.append("".join(sub))
            out.append("[" + ", ".join(parts) + "]")
        else:
            out.append("[\n")
            for i, item in enumerate(items):
                out.append(pad_in)
                _emit_abc(item, out, level + 1, kinds)
                out.append(",\n" if i + 1 < len(items) else "\n")
            out.append(pad + "]")
    else:
        raise UsageError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_abc(obj) -> str:
    """jsonio.dumps with every value decided by isinstance on the numbers ABCs
    (numpy booleans print inline in arrays, like bool)."""
    np_mod = sys.modules.get("numpy")
    if np_mod is None:
        kinds = ((bool,), (list, tuple))
    else:
        kinds = ((bool, np_mod.bool_), (list, tuple, np_mod.ndarray))
    out: list = []
    _emit_abc(obj, out, 0, kinds)
    return "".join(out) + "\n"


# ---------------------------------------------------------------------------
# the atom rules kind by kind


_EVEN = {COS: True, SIN: False, COSH: True, SINH: False}


def canon_by_kind(coef: float, k: int, kind: str, omega: float) -> list[tuple[float, Atom]]:
    """Normalize an atom: omega > 0 for trig/hyperbolic, parity folded into coef."""
    if coef == 0.0:
        return []
    if kind not in KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    if k < 0 or k != int(k):
        raise ValueError(f"power must be a non-negative integer, got {k!r}")
    k = int(k)
    omega = float(omega)
    if kind == ONE or omega == 0.0:
        if kind in (SIN, SINH):
            return []  # sin(0) = sinh(0) = 0
        return [(coef, Atom(k, ONE, 0.0))]  # cos(0) = cosh(0) = exp(0) = 1
    if kind == EXP:
        return [(coef, Atom(k, EXP, omega))]
    if omega < 0.0:
        if not _EVEN[kind]:
            coef = -coef
        omega = -omega
    return [(coef, Atom(k, kind, omega))]


# d/ds phi(w s) = sign * w * psi(w s) for phi -> (psi, sign)
_DERIV = {COS: (SIN, -1.0), SIN: (COS, 1.0), COSH: (SINH, 1.0), SINH: (COSH, 1.0), EXP: (EXP, 1.0)}
# so phi(w s) is d/ds of psi(w s) / (sign * w) for phi -> (psi, sign)
_PRIMITIVE = {phi: (psi, sign) for psi, (phi, sign) in _DERIV.items()}


def diff_atom_by_kind(atom: Atom) -> list[tuple[float, Atom]]:
    """d/ds of an atom as a list of (coefficient, atom) pairs."""
    k, kind, om = atom
    out: list[tuple[float, Atom]] = []
    if k > 0:
        out.append((float(k), Atom(k - 1, kind, om)))
    if kind != ONE:
        psi, sign = _DERIV[kind]
        out.extend(canon_by_kind(sign * om, k, psi, om))
    return out


def product_atoms_by_kind(a: Atom, b: Atom) -> list[tuple[float, Atom]] | None:
    """a * b inside the family, or None when the product leaves it."""
    k = a.k + b.k
    if a.kind == ONE:
        return canon_by_kind(1.0, k, b.kind, b.omega)
    if b.kind == ONE:
        return canon_by_kind(1.0, k, a.kind, a.omega)
    wa, wb = a.omega, b.omega
    ka, kb = a.kind, b.kind
    if ka in (COS, SIN) and kb in (COS, SIN):
        # product-to-sum identities
        if ka == COS and kb == COS:
            parts = [(0.5, COS, wa - wb), (0.5, COS, wa + wb)]
        elif ka == SIN and kb == SIN:
            parts = [(0.5, COS, wa - wb), (-0.5, COS, wa + wb)]
        else:
            # cos(wa s) * sin(wb s); swap so the cosine frequency comes first
            if ka == SIN:
                wa, wb = wb, wa
            parts = [(0.5, SIN, wa + wb), (-0.5, SIN, wa - wb)]
    elif ka in (COSH, SINH) and kb in (COSH, SINH):
        if ka == COSH and kb == COSH:
            parts = [(0.5, COSH, wa + wb), (0.5, COSH, wa - wb)]
        elif ka == SINH and kb == SINH:
            parts = [(0.5, COSH, wa + wb), (-0.5, COSH, wa - wb)]
        else:
            if ka == SINH:
                wa, wb = wb, wa
            # cosh(wa s) * sinh(wb s)
            parts = [(0.5, SINH, wa + wb), (-0.5, SINH, wa - wb)]
    elif ka == EXP and kb == EXP:
        parts = [(1.0, EXP, wa + wb)]
    elif {ka, kb} <= {COSH, SINH, EXP}:
        # hyperbolic * exp expands into pure exponentials
        if ka == EXP:
            ka, kb = kb, ka
            wa, wb = wb, wa
        sign = 1.0 if ka == COSH else -1.0
        parts = [(0.5, EXP, wb + wa), (0.5 * sign, EXP, wb - wa)]
    else:
        return None
    out: list[tuple[float, Atom]] = []
    for c, kind, om in parts:
        out.extend(canon_by_kind(c, k, kind, om))
    return out


def antiderivative_atom_by_kind(atom: Atom) -> list[tuple[float, Atom]]:
    """An antiderivative of the atom; always exists inside the family.

    By parts: the integral of s^k phi(w s) is s^k psi(w s) / (sign * w)
    minus k / (sign * w) times the integral of s^(k-1) psi(w s).
    """
    k, kind, om = atom
    if kind == ONE:
        return [(1.0 / (k + 1), Atom(k + 1, ONE, 0.0))]
    psi, sign = _PRIMITIVE[kind]
    out = [(sign / om, Atom(k, psi, om))]
    if k:
        c = -k * sign / om
        out += [(c * cc, aa) for cc, aa in antiderivative_atom_by_kind(Atom(k - 1, psi, om))]
    return out
