"""JSON wire format: deterministic output and path-tagged input validation.

The serializer prints every float with 17 significant digits so identical
runs produce byte-identical files. It spells each value by its concrete type
first (None, bool, int, float, str, dict, list, tuple); only other types
(numpy scalars and arrays, Fraction, subclasses of the plain types) go
through the isinstance chain of the numbers ABCs. The parsers point at the
offending field ("gamma.terms[2].coeff: ...") instead of raising bare
KeyErrors, and reject fields they do not read ("gamma.terms[0].rate:
unknown field").
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

from .errors import UsageError
from .metric import Signature

if TYPE_CHECKING:
    from .basisfn import Atom, ScalarFn
    from .curves import CurveExpr
    from .surface import RuledSurface


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(x: float, non_finite: str = "null") -> str:
    """17 significant digits, as "%.17g" of x + 0.0: no trailing zeros (so an
    integral value below 1e17 has no decimal point) and -0.0 prints as 0.

    JSON has no NaN/Inf, so reports print null for masked values; a number
    beyond the float range, such as a Fraction over 1e308, is a UsageError.
    The OBJ and CSV exports spell numbers the same way, "nan" for non-finite
    ones; see export.
    """
    try:
        x = float(x)
    except OverflowError:
        kind = type(x).__name__
        raise UsageError(f"cannot serialize {kind}: the value is beyond the float range") from None
    if not math.isfinite(x):
        return non_finite
    return format(x + 0.0, ".17g")


# plain Python scalars, which an array prints on one line, and plain
# containers, which it does not; other types answer through the numbers ABCs
_PLAIN_SCALARS = frozenset((type(None), bool, int, float, str))
_PLAIN_CONTAINERS = frozenset((dict, list, tuple))


def _text(obj, level: int, kinds: tuple) -> str:
    """JSON text of obj, whose opening line is indented by the caller and
    whose other lines sit `level` steps of two spaces in."""
    kind = type(obj)
    if kind is dict:
        return _dict_text(obj, level, kinds)
    if kind is list or kind is tuple:
        return _array_text(obj, level, kinds)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return str(obj)
    if kind is float:
        return _fmt_float(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    # numpy scalars and arrays, Fraction and subclasses of the plain types
    bools, arrays, _ = kinds
    if isinstance(obj, bools):
        return "true" if obj else "false"
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        return _dict_text(obj, level, kinds)
    if isinstance(obj, arrays):
        return _array_text(list(obj), level, kinds)
    raise UsageError(f"cannot serialize {type(obj).__name__} to JSON")


def _dict_text(obj: dict, level: int, kinds: tuple) -> str:
    if not obj:
        return "{}"
    pad_in = "  " * (level + 1)
    lines = []
    for key, val in obj.items():
        if not isinstance(key, str):
            raise UsageError(f"JSON object keys must be strings, got {key!r}")
        lines.append(f"{pad_in}{_quote(key)}: {_text(val, level + 1, kinds)}")
    return "{\n" + ",\n".join(lines) + "\n" + "  " * level + "}"


def _array_text(items, level: int, kinds: tuple) -> str:
    """An array of nulls, bools, strings and numbers prints on one line, any
    other array one item per line."""
    if not items:
        return "[]"
    inline_kinds = kinds[2]
    for item in items:
        kind = type(item)
        if kind in _PLAIN_SCALARS:
            continue
        if kind in _PLAIN_CONTAINERS or not isinstance(item, inline_kinds):
            pad_in = "  " * (level + 1)
            lines = [pad_in + _text(item, level + 1, kinds) for item in items]
            return "[\n" + ",\n".join(lines) + "\n" + "  " * level + "]"
    return "[" + ", ".join([_text(item, 0, kinds) for item in items]) + "]"


def dumps(obj) -> str:
    """Serialize to JSON with 17-significant-digit floats, two-space indent
    and a trailing newline."""
    # numpy booleans and arrays print like bool and list; no numpy value can
    # exist before numpy is imported, so this never imports it
    np = sys.modules.get("numpy")
    bools = (bool,) if np is None else (bool, np.bool_)
    arrays = (list, tuple) if np is None else (list, tuple, np.ndarray)
    return _text(obj, 0, (bools, arrays, (*bools, str, numbers.Number))) + "\n"


# ---------------------------------------------------------------------------
# input validation helpers


def _expect_dict(data, path: str, fields: tuple[str, ...]) -> dict:
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected an object, got {type(data).__name__}")
    for key in data:
        if key not in fields:
            raise UsageError(f"{path}.{key}: unknown field")
    return data


def _expect_list(data, path: str) -> list:
    if not isinstance(data, list):
        raise UsageError(f"{path}: expected an array, got {type(data).__name__}")
    return data


def _get(data: dict, key: str, path: str):
    if key not in data:
        raise UsageError(f"{path}.{key}: missing required field")
    return data[key]


def _num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise UsageError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise UsageError(f"{path}: expected a finite number, got {value!r}")
    return number


def _int(value, path: str, minimum: int | None = None) -> int:
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value)
    )
    if isinstance(value, bool) or not integral:
        raise UsageError(f"{path}: expected an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise UsageError(f"{path}: expected an integer >= {minimum}, got {value}")
    return value


def _interval(data, path: str) -> tuple[float, float]:
    arr = _expect_list(data, path)
    if len(arr) != 2:
        raise UsageError(f"{path}: expected [lo, hi], got {len(arr)} entries")
    lo = _num(arr[0], f"{path}[0]")
    hi = _num(arr[1], f"{path}[1]")
    if not lo < hi:
        raise UsageError(f"{path}: needs lo < hi, got [{lo}, {hi}]")
    return (lo, hi)


# ---------------------------------------------------------------------------
# curves

JSON_BASES = ("pow", "cos", "sin", "cosh", "sinh", "exp")


def _terms_to_json(fn) -> list:
    """fn's atoms by kind, omega and power; a coefficient is a float or a
    list of them. UsageError on a damped term, which no basis spells."""
    import numpy as np

    from . import basisfn

    def order(pair):
        return basisfn.KINDS.index(pair[1].kind), pair[1].omega, pair[1].k

    out = []
    for c, atom in sorted(fn._spelled(), key=order):
        coeff = np.asarray(c).tolist()
        if atom.kind == basisfn.ONE:
            out.append({"basis": "pow", "param": atom.k, "coeff": coeff})
        else:  # the other kinds are named by their JSON basis
            term = {"basis": atom.kind, "param": atom.omega}
            if atom.k:
                term["degree"] = atom.k
            term["coeff"] = coeff
            out.append(term)
    return out


def curve_to_json(curve: CurveExpr) -> dict:
    """Wire form of a closed-form curve.

    Terms that mix a power with an oscillating factor (they arise from exact
    gauge integrals) carry an extra "degree" field; plain terms match the
    input schema exactly.
    """
    return {
        "n": curve.n,
        "terms": _terms_to_json(curve),
    }


def _term_atom(basis, param, degree=0) -> Atom:
    """The atom s^degree basis(param s), the one reading of a curve term for
    JSON input and CurveExpr.from_basis_terms.

    basis "pow" is s^param, so its param is an integer >= 0 and its degree 0;
    the other bases take a frequency or rate. A UsageError names the field at
    fault ("param: ..."), which curve_from_json prefixes with the term's path.
    """
    from . import basisfn

    if basis not in JSON_BASES:
        raise UsageError(f"basis: unknown basis {basis!r}; expected one of {JSON_BASES}")
    param = _num(param, "param")
    k = _int(degree, "degree", minimum=0)
    if basis != "pow":
        return basisfn.Atom(k, basis, param)
    if k:
        raise UsageError('degree: not allowed with basis "pow" (param is the power)')
    return basisfn.Atom(_int(param, "param", minimum=0), basisfn.ONE, 0.0)


def curve_from_json(data, path: str = "curve") -> CurveExpr:
    from .curves import CurveExpr

    data = _expect_dict(data, path, ("n", "terms"))
    n = _int(_get(data, "n", path), f"{path}.n", minimum=1)
    raw_terms = _expect_list(_get(data, "terms", path), f"{path}.terms")
    terms = []
    for i, raw in enumerate(raw_terms):
        tp = f"{path}.terms[{i}]"
        term = _expect_dict(raw, tp, ("basis", "param", "coeff", "degree"))
        basis, param = _get(term, "basis", tp), _get(term, "param", tp)
        try:
            atom = _term_atom(basis, param, term.get("degree", 0))
        except UsageError as exc:
            raise UsageError(f"{tp}.{exc}") from None
        coeff = _expect_list(_get(term, "coeff", tp), f"{tp}.coeff")
        if len(coeff) != n:
            raise UsageError(f"{tp}.coeff: expected {n} components, got {len(coeff)}")
        terms.append((atom, [_num(c, f"{tp}.coeff[{j}]") for j, c in enumerate(coeff)]))
    return CurveExpr(n, terms)


def scalar_fn_to_json(fn: ScalarFn) -> list:
    """Wire form of a scalar closed form (list of terms with scalar coeff)."""
    return _terms_to_json(fn)


# ---------------------------------------------------------------------------
# surfaces


def surface_to_json(sig: Signature, surface: RuledSurface) -> dict:
    return {
        "signature": {"n": sig.n, "p": sig.p},
        "gamma": curve_to_json(surface.gamma),
        "base": curve_to_json(surface.base),
        "s_domain": list(surface.s_domain),
        "t_domain": list(surface.t_domain),
    }


def surface_from_json(data) -> tuple[Signature, RuledSurface]:
    from .surface import RuledSurface

    data = _expect_dict(
        data, "surface", ("signature", "gamma", "base", "s_domain", "t_domain")
    )
    sig_data = _expect_dict(_get(data, "signature", "surface"), "signature", ("n", "p"))
    n = _int(_get(sig_data, "n", "signature"), "signature.n", minimum=2)
    p = _int(_get(sig_data, "p", "signature"), "signature.p", minimum=0)
    if p > n:
        raise UsageError(f"signature.p: index {p} exceeds dimension {n}")
    sig = Signature(n, p)
    gamma = curve_from_json(_get(data, "gamma", "surface"), "gamma")
    base = curve_from_json(_get(data, "base", "surface"), "base")
    if gamma.n != n:
        raise UsageError(f"gamma.n: curve dimension {gamma.n} does not match signature.n = {n}")
    if base.n != n:
        raise UsageError(f"base.n: curve dimension {base.n} does not match signature.n = {n}")
    s_domain = _interval(_get(data, "s_domain", "surface"), "s_domain")
    t_domain = _interval(_get(data, "t_domain", "surface"), "t_domain")
    return sig, RuledSurface(gamma=gamma, base=base, s_domain=s_domain, t_domain=t_domain)


def loads_surface(text: str) -> tuple[Signature, RuledSurface]:
    try:
        data = json.loads(text)
    except ValueError as exc:  # malformed, or an integer literal past int's digit limit
        raise UsageError(f"invalid JSON: {exc}") from exc
    return surface_from_json(data)
