"""Primal-dual coflow ordering and list scheduling on identical parallel networks."""

from .model import (
    Coflow,
    CycleError,
    DocumentError,
    Flow,
    Instance,
    InvalidInstanceError,
    Job,
    JobSet,
    NetworkConfig,
    PrecedenceDag,
    ValidationReport,
    document_to_instance,
    document_to_jobset,
    instance_to_document,
    is_conforming,
    jobset_to_document,
    longest_path_chi,
    topological_order,
    validate_instance,
    validate_jobset,
)
from .primal_dual import (
    COFLOW_LEVEL,
    DEFAULT_KAPPA,
    FLOW_LEVEL,
    JOB_LEVEL,
    BetaRecord,
    DualSolution,
    FeasibilityReport,
    Permutation,
    check_dual_feasibility,
    document_to_dual,
    dual_objective,
    dual_to_document,
    permute_coflow_level,
    permute_flow_level,
    permute_jobs,
)

__version__ = "0.1.0"
