"""Ruled minimal surfaces in pseudo-Euclidean spaces R^n_p.

Exact inner-product geometry for any signature, closed-form curve algebra
with exact jets, minimality verification of ruled immersions f(s,t) =
gamma(s) t + x(s), classification into the minimal families, catalog
generators with causal-character maps, and existence decisions with
constructive witnesses or machine-checked non-existence certificates.

Names resolve on first access from the module that defines them, so a
program that uses only the exact existence layer never imports numpy.
numpy is the only dependency.
"""

import importlib

__version__ = "0.1.0"

# public name -> defining module, grouped by module
_EXPORTS = {
    "basisfn": ("Atom", "ScalarFn"),
    "catalog": (
        "BernsteinReport", "CausalRegion", "CausalRegionReport", "DEG_BAND",
        "SpanType", "bernstein_check", "causal_map", "degenerate_span_check",
        "generate", "pick_signs", "scale_surface",
    ),
    "classify": (
        "CaseInvariants", "CaseLabel", "ClassificationResult", "CylinderReport",
        "CylinderVerdict", "GenericityReport", "StructureReport", "case_invariants",
        "cylinder_check", "genericity_scan", "identify_family", "table1_case",
        "verify_structure_odes",
    ),
    "curves": (
        "CurveExpr", "symbolic_inner", "uniform_grid",
    ),
    "errors": (
        "ConventionError", "CrossValidationError", "DegenerateMetricError",
        "DimensionMismatchError", "EverywhereDegenerateError", "NonExistenceError",
        "NoWitnessError", "NullDirectionError", "PreconditionError", "RuledminError",
        "UsageError",
    ),
    "existence": (
        "Certificate", "CertificateKind", "CylinderWitness", "ExistenceResult",
        "ProofTrace", "SearchResult", "TableRow", "Verdict", "admits_cylinder",
        "admits_pattern", "brute_force_cross_check", "cells_for", "existence_oracle",
        "existence_table", "find_witness", "frame_for_signs", "replay_certificate",
    ),
    "families": (
        "ADMISSIBLE_SIGNS", "CLI_NAMES", "TABLE_FAMILIES", "FamilyId", "FrameSpec",
        "NormPattern", "SignChoice", "pattern_of_signs", "validate_signs",
    ),
    "metric": (
        "CausalCharacter", "H_TOL", "Signature", "causal_character", "gram_matrix",
        "inner_product", "ip_array",
    ),
    "surface": (
        "GaugeResult", "MinimalityReport", "MinimalityVerdict", "RuledSurface",
        "ScalarProfile", "SurfaceSweep", "TAU_DEG", "c_function", "c_function_grid", "gauge_normalize",
        "is_minimal", "sweep_grid",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
