"""The package's public names, frozen so that a change to them is deliberate."""

import unaryperfect

PUBLIC = [
    "DClass",
    "FamilyParams",
    "FamilyScan",
    "FieldDesc",
    "FieldElem",
    "FundamentalUnit",
    "HypothesisError",
    "InvariantError",
    "MinData",
    "NRDecomp",
    "NotPositiveDefiniteError",
    "PerfectForm",
    "PeriodError",
    "PrimitivePair",
    "QuadFieldError",
    "ReductionCapError",
    "RejectedCandidate",
    "SizeLimitError",
    "WalkError",
    "WalkResult",
    "brute_force_min",
    "candidate_params",
    "classes_equal",
    "classify",
    "classify_T",
    "classify_unit_congruence",
    "construct_a1_a2",
    "construct_a3",
    "fundamental_unit",
    "generate_family",
    "is_squarefree",
    "min_data",
    "nr_decompose",
    "predicted_a3_minimum",
    "predicted_minimal_set",
    "primitive_normalize",
    "slope",
    "unit_square",
    "walk_classes",
]


def test_public_names_are_frozen():
    assert sorted(unaryperfect.__all__) == PUBLIC


def test_public_names_resolve():
    missing = [name for name in unaryperfect.__all__ if not hasattr(unaryperfect, name)]
    assert missing == []
