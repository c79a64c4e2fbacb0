"""The public surface of the package, pinned name by name.

Adding, removing or renaming a public name changes this list, so the change
shows in the diff of any pull request that makes it.
"""

import paramcsp

PUBLIC_NAMES = [
    "AffineCost",
    "AlwaysReject",
    "AppearanceChecker",
    "BudgetExceededError",
    "CWChecker",
    "CWRelation",
    "CapacityError",
    "CombinedChecker",
    "CompletionReduction",
    "Constraint",
    "CostModel",
    "DEFAULT_CAPACITY",
    "DomainError",
    "ExplicitRelation",
    "FORMAT_VERSION",
    "GuessCheckMachine",
    "Instance",
    "InstanceConfig",
    "NotApplicableError",
    "PROFILES",
    "ParamCSPError",
    "PartialsTable",
    "Relation",
    "SimulationResult",
    "SolveStats",
    "UsageError",
    "ValidationError",
    "WRelation",
    "WeightKind",
    "WeightParameter",
    "WeightSet",
    "WeightSetKind",
    "brute_force_solve",
    "build_cw_tables",
    "characterize_membership",
    "combine_machines",
    "completion_reduction",
    "completions",
    "compute_partials",
    "default_checker_cost",
    "explicitize_w_body",
    "inclusion_exclusion_union",
    "lift_kle_to_k",
    "param_e",
    "param_t",
    "param_u",
    "parse_instance",
    "parse_machine",
    "parse_relation",
    "random_instance",
    "reduce_appearance",
    "reduce_cw",
    "reduce_parity_multiplicity",
    "relation_membership",
    "satisfies",
    "serialize_instance",
    "serialize_machine",
    "simulate",
    "solve_w_kt",
    "solve_w_kt_with_stats",
    "solve_w_kue",
    "solve_w_kue_with_stats",
    "solve_wd_pipeline",
    "weight_relation",
]


def test_the_public_names_are_pinned():
    assert sorted(paramcsp.__all__) == PUBLIC_NAMES


def test_every_public_name_is_importable_once():
    assert len(set(paramcsp.__all__)) == len(paramcsp.__all__) == 64
    assert all(hasattr(paramcsp, name) for name in PUBLIC_NAMES)
