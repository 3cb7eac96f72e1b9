"""The package's public names: each resolves, on first access, to its defining module's object,
and its functions take only the keyword options listed here."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import ruledmin

# every public name of the package by defining module; dropping one from
# ruledmin/__init__.py fails here
PUBLIC = {
    "basisfn": "Atom ScalarFn",
    "catalog": (
        "BernsteinReport CausalRegion CausalRegionReport DEG_BAND SpanType "
        "bernstein_check causal_map degenerate_span_check generate "
        "pick_signs scale_surface "
    ),
    "classify": (
        "CaseInvariants CaseLabel ClassificationResult CylinderReport "
        "CylinderVerdict GenericityReport StructureReport case_invariants "
        "cylinder_check genericity_scan "
        "identify_family table1_case verify_structure_odes "
    ),
    "curves": "CurveExpr symbolic_inner uniform_grid",
    "errors": (
        "ConventionError CrossValidationError DegenerateMetricError DimensionMismatchError "
        "EverywhereDegenerateError NonExistenceError NoWitnessError "
        "NullDirectionError PreconditionError RuledminError UsageError "
    ),
    "existence": (
        "Certificate CertificateKind CylinderWitness ExistenceResult "
        "ProofTrace SearchResult TableRow Verdict admits_cylinder "
        "admits_pattern brute_force_cross_check cells_for existence_oracle "
        "existence_table find_witness frame_for_signs replay_certificate "
    ),
    "families": (
        "ADMISSIBLE_SIGNS CLI_NAMES TABLE_FAMILIES FamilyId FrameSpec "
        "NormPattern SignChoice pattern_of_signs validate_signs "
    ),
    "metric": (
        "CausalCharacter H_TOL Signature causal_character gram_matrix "
        "inner_product ip_array "
    ),
    "surface": (
        "GaugeResult MinimalityReport MinimalityVerdict RuledSurface "
        "ScalarProfile SurfaceSweep TAU_DEG c_function c_function_grid gauge_normalize "
        "is_minimal sweep_grid "
    ),
}
CASES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]


@pytest.mark.parametrize("module, name", [*CASES, (None, "not_a_public_name")])
def test_public_names_resolve_to_their_defining_module(module, name):
    if module is None:
        with pytest.raises(AttributeError):
            getattr(ruledmin, name)
        with pytest.raises(ImportError):
            exec(f"from ruledmin import {name}", {})
        assert name not in dir(ruledmin)
        return
    namespace: dict = {}
    exec(f"from ruledmin import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"ruledmin.{module}"), name)
    assert name in dir(ruledmin)


# the parameters with a default of every public function and method, by
# module; an option added anywhere fails here until it is listed on purpose
KEYWORDS = {
    "basisfn": {},
    "catalog": {
        "bernstein_check": "signs",
        "causal_map": "signs t_domain",
        "generate": "signs s_domain t_domain",
    },
    "classify": {"identify_family": "h_tol"},
    "cli": {"main": "argv"},
    "curves": {
        "CurveExpr.derivative": "order",
        "CurveExpr.eval": "order",
    },
    "errors": {},
    "existence": {"brute_force_cross_check": "trials seed", "existence_oracle": "signs"},
    "export": {},
    "families": {},
    "jsonio": {"curve_from_json": "path"},
    "metric": {},
    "surface": {
        "RuledSurface.default_grids": "shape",
        "SurfaceSweep.minimality": "tol",
        "is_minimal": "s_grid t_grid tol tau_deg",
        "sweep_grid": "s_grid t_grid tau_deg",
    },
}


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # class and static methods
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", sorted(KEYWORDS))
def test_every_keyword_option_is_on_the_allow_list(module):
    found = {}
    for name, fn in _public_callables(importlib.import_module(f"ruledmin.{module}")):
        params = inspect.signature(fn).parameters.values()
        keywords = [p.name for p in params if p.default is not inspect.Parameter.empty]
        if keywords:
            found[name] = " ".join(keywords)
    assert found == KEYWORDS[module]


def test_no_module_of_the_package_imports_scipy():
    for path in sorted(Path(ruledmin.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "scipy" for name in names), f"{path.name}:{node.lineno}"
