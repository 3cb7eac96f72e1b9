"""The package's public names: each resolves, on first access, to its defining module's object."""

import importlib

import pytest

import ruledmin

# every public name of the package by defining module; dropping one from
# ruledmin/__init__.py fails here
PUBLIC = {
    "basisfn": "Atom ScalarFn",
    "catalog": (
        "BernsteinReport CausalRegion CausalRegionReport DEG_BAND DetGForm "
        "SpanType bernstein_check causal_map degenerate_span_check "
        "det_g_closed_form generate pick_signs scale_surface "
    ),
    "classify": (
        "CaseInvariants CaseLabel ClassificationResult CylinderReport "
        "CylinderVerdict GenericityReport MuProfile ScalarProfile "
        "StructureReport case_invariants cylinder_check genericity_scan "
        "identify_family table1_case verify_structure_odes "
    ),
    "curves": (
        "CurveExpr SampledCurve UnitSpeedClass eval_curve fd_derivative "
        "is_null_curve reparametrize_unit_speed symbolic_inner uniform_grid "
        "unit_speed_check "
    ),
    "errors": (
        "ConventionError DegenerateMetricError DimensionMismatchError "
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
        "CausalCharacter Signature TAU_NULL causal_character gram_matrix "
        "inner_product ip_array "
    ),
    "surface": (
        "FirstForm FormBundle GaugeResult H_TOL Jet2 MinimalityReport "
        "MinimalityVerdict RuledSurface SecondForm SurfaceSweep TAU_DEG "
        "c_function c_function_grid first_form form_bundle gauge_normalize "
        "immersion_jet is_minimal is_totally_geodesic mean_curvature "
        "second_form sweep_grid "
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
