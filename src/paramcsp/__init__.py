"""Weighted Boolean constraint satisfaction with parameterized solvers.

The public surface re-exports the relation and instance types, the direct
profile-class solvers, the guess-and-check machine layer, the partial-tuple
tables, and the document formats. The ``paramcsp`` console script fronts the
same operations.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BudgetExceededError,
    CapacityError,
    DomainError,
    NotApplicableError,
    ParamCSPError,
    UsageError,
    ValidationError,
)
from .fpt_solvers import (
    SolveStats,
    solve_w_kt,
    solve_w_kt_with_stats,
    solve_w_kue,
    solve_w_kue_with_stats,
)
from .formats import (
    FORMAT_VERSION,
    parse_instance,
    parse_machine,
    parse_relation,
    serialize_instance,
    serialize_machine,
)
from .instances import (
    PROFILES,
    Constraint,
    Instance,
    InstanceConfig,
    WeightKind,
    WeightParameter,
    brute_force_solve,
    lift_kle_to_k,
    param_e,
    param_t,
    param_u,
    random_instance,
    reduce_parity_multiplicity,
    satisfies,
    weight_relation,
)
from .machines import (
    AlwaysReject,
    AppearanceChecker,
    CombinedChecker,
    CompletionReduction,
    CWChecker,
    GuessCheckMachine,
    SimulationResult,
    build_cw_tables,
    combine_machines,
    completion_reduction,
    explicitize_w_body,
    inclusion_exclusion_union,
    reduce_appearance,
    reduce_cw,
    simulate,
    solve_wd_pipeline,
)
from .partials import (
    DEFAULT_CAPACITY,
    PartialsTable,
    characterize_membership,
    completions,
    compute_partials,
)
from .relations import (
    AffineCost,
    CostModel,
    CWRelation,
    ExplicitRelation,
    Relation,
    WeightSet,
    WeightSetKind,
    WRelation,
    default_checker_cost,
    relation_membership,
)

__version__ = "0.1.0"

# The imports above are the one list of public names.
__all__ = sorted(n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType)))
