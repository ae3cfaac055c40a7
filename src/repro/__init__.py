"""repro — a combined-complexity FPRAS for probabilistic query evaluation.

Reference implementation of *Probabilistic Query Evaluation: The Combined
FPRAS Landscape* (Timothy van Bremen and Kuldeep S. Meel, PODS 2023),
together with every substrate it depends on: tuple-independent
probabilistic databases, conjunctive queries, hypertree decompositions,
string/tree automata with approximate counters, and the classical
intensional (lineage-based) baselines.

Quick start::

    from repro import (
        Fact, ProbabilisticDatabase, parse_query, pqe_estimate,
    )

    q = parse_query("Q :- R1(x, y), R2(y, z), R3(z, w)")
    h = ProbabilisticDatabase({
        Fact("R1", ("a", "b")): "1/2",
        Fact("R2", ("b", "c")): "2/3",
        Fact("R3", ("c", "d")): "3/4",
    })
    print(pqe_estimate(q, h, epsilon=0.1).estimate)
"""

from repro.core import (
    BatchItem,
    BatchResult,
    CacheStats,
    PQEAnswer,
    PQEEngine,
    PQEPlan,
    ReductionCache,
    evaluate_batch,
    exact_probability,
    exact_uniform_reliability,
    path_estimate,
    pqe_estimate,
    sample_posterior_worlds,
    sample_satisfying_subinstances,
    ur_estimate,
)
from repro.db import (
    DatabaseInstance,
    Fact,
    ProbabilisticDatabase,
    RelationSymbol,
    Schema,
    satisfies,
)
from repro.decomposition import decompose
from repro.queries import (
    Atom,
    ConjunctiveQuery,
    Variable,
    parse_query,
    path_query,
    star_query,
)
from repro.queries.lifted import (
    LiftedClassification,
    classify_query,
    lifted_probability,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # databases
    "Fact",
    "DatabaseInstance",
    "ProbabilisticDatabase",
    "Schema",
    "RelationSymbol",
    "satisfies",
    # queries
    "Atom",
    "Variable",
    "ConjunctiveQuery",
    "parse_query",
    "path_query",
    "star_query",
    # decompositions
    "decompose",
    # the paper's algorithms
    "path_estimate",
    "ur_estimate",
    "pqe_estimate",
    # exact evaluation
    "exact_probability",
    "exact_uniform_reliability",
    # lifted fast path
    "LiftedClassification",
    "classify_query",
    "lifted_probability",
    # sampling
    "sample_satisfying_subinstances",
    "sample_posterior_worlds",
    # facade
    "PQEEngine",
    "PQEAnswer",
    "PQEPlan",
    # batch evaluation
    "BatchItem",
    "BatchResult",
    "CacheStats",
    "ReductionCache",
    "evaluate_batch",
]
