"""The paper's algorithms: PathEstimate, UREstimate and PQEEstimate
(which share one result type, :class:`PQEEstimate`), the underlying
reductions, exact ground truth, and the PQEEngine facade."""

from repro.core.cache import CacheStats, ReductionCache
from repro.core.estimator import PQEAnswer, PQEEngine, PQEPlan
from repro.core.exact import exact_probability, exact_uniform_reliability
from repro.core.parallel import (
    BatchItem,
    BatchItemResult,
    BatchResult,
    derive_item_seed,
    evaluate_batch,
)
from repro.core.monte_carlo import MonteCarloResult, monte_carlo_probability
from repro.core.sampling import (
    sample_posterior_worlds,
    sample_satisfying_subinstances,
)
from repro.core.path_estimate import (
    PathEstimate,
    PathReductionResult,
    build_path_nfa,
    path_estimate,
)
from repro.core.pqe_estimate import (
    PQEEstimate,
    PQEReduction,
    build_pqe_reduction,
    pqe_estimate,
    ur_estimate,
)
from repro.core.ur_reduction import URReduction, build_ur_reduction

__all__ = [
    "PQEEngine",
    "PQEAnswer",
    "PQEPlan",
    "BatchItem",
    "BatchItemResult",
    "BatchResult",
    "CacheStats",
    "ReductionCache",
    "derive_item_seed",
    "evaluate_batch",
    "path_estimate",
    "build_path_nfa",
    "PathEstimate",
    "PathReductionResult",
    "ur_estimate",
    "build_ur_reduction",
    "URReduction",
    "pqe_estimate",
    "build_pqe_reduction",
    "PQEEstimate",
    "PQEReduction",
    "exact_probability",
    "exact_uniform_reliability",
    "sample_satisfying_subinstances",
    "sample_posterior_worlds",
    "monte_carlo_probability",
    "MonteCarloResult",
]
