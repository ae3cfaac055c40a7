"""RPQ probability evaluation: exact, FPRAS, enumeration, Monte-Carlo.

``rpq_probability_estimate`` is the route-level evaluator the engine
wraps (:meth:`repro.core.estimator.PQEEngine.rpq_probability` adds
seeding, caching, budgets and telemetry plumbing).  Methods:

``exact``
    Weighted layered subset DP over the product NFA
    (:meth:`~repro.automata.nfa.NFA.count_exact`) — integer arithmetic
    end to end, so the answer is an exact :class:`~fractions.Fraction`
    bitwise-comparable to the brute-force oracle.  DAGs only.
``fpras``
    Weighted CountNFA (:func:`~repro.automata.nfa_counting.count_nfa`)
    over the same product — the arXiv 2309.13287 route.  DAGs only.
``enumerate``
    Brute force over all relevant-edge subsets; exact on any graph but
    exponential (the route gates itself at ``_ENUMERATE_LIMIT`` edges).
``monte-carlo``
    Sample worlds, check reachability with the product BFS — additive
    accuracy only, but works on any graph at any size; the resilience
    ladder's last rung.
``auto``
    Exact product DP when the graph is a DAG and the DP's subset
    frontier stays small, else FPRAS; enumeration/Monte-Carlo for
    cyclic graphs depending on size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from repro.automata.nfa_counting import CountResult, count_nfa
from repro.core.budget import budget_tick
from repro.core.monte_carlo import additive_sample_bound
from repro.errors import EstimationError, GraphError
from repro.graphs.model import ProbabilisticGraph
from repro.graphs.product import (
    build_rpq_nfa,
    make_weight_of,
    relevant_edges,
    rpq_brute_force,
    rpq_holds,
)
from repro.graphs.rpq import RPQQuery
from repro.obs import metric_inc, metric_observe, span
from repro.testing.faults import fault_point

__all__ = [
    "RPQ_METHODS",
    "RPQEstimate",
    "repetitions_for_delta",
    "rpq_monte_carlo",
    "rpq_probability_estimate",
]

RPQ_METHODS = ("auto", "exact", "fpras", "enumerate", "monte-carlo")

#: 'enumerate' refuses above this many relevant edges (2^m worlds).
_ENUMERATE_LIMIT = 20

#: 'auto' tries the exact DP first while the determinized frontier
#: stays below this many subsets per layer.
_AUTO_EXACT_FRONTIER = 512


def repetitions_for_delta(delta: float | None, floor: int = 1) -> int:
    """Median-amplification repetition count for failure rate ``delta``.

    The per-run estimator concentrates within ε with constant
    probability; taking the median of ``r = O(log 1/δ)`` independent
    runs drives the failure rate below δ.  Always odd, so the median is
    a single run's value.
    """
    if delta is None:
        repetitions = floor
    else:
        if not 0 < delta < 1:
            raise EstimationError(
                f"delta must be in (0, 1), got {delta}"
            )
        repetitions = max(floor, math.ceil(2 * math.log(1 / delta)))
    return repetitions if repetitions % 2 == 1 else repetitions + 1


@dataclass(frozen=True)
class RPQEstimate:
    """Result of one RPQ evaluation route."""

    estimate: float
    method: str
    exact: bool
    rational: Fraction | None
    samples_used: int
    nfa_states: int
    nfa_transitions: int
    string_length: int

    def __float__(self) -> float:
        return self.estimate


def _trivial(reduction, method: str) -> RPQEstimate:
    value = reduction.trivial
    return RPQEstimate(
        estimate=float(value),
        method=method,
        exact=True,
        rational=value,
        samples_used=0,
        nfa_states=0,
        nfa_transitions=0,
        string_length=reduction.string_length,
    )


def rpq_monte_carlo(
    graph: ProbabilisticGraph,
    query: RPQQuery,
    samples: int | None = None,
    epsilon: float = 0.05,
    delta: float = 0.05,
    seed: int | None = None,
) -> RPQEstimate:
    """Estimate the RPQ probability by sampling worlds (additive ε)."""
    if samples is None:
        samples = additive_sample_bound(epsilon, delta)
    rng = random.Random(seed)
    edges = relevant_edges(graph, query)
    weights = [(edge, float(graph.probability(edge))) for edge in edges]
    positives = 0
    for _ in range(samples):
        budget_tick("rpq.sample")
        world = [edge for edge, p in weights if rng.random() < p]
        if rpq_holds(world, query):
            positives += 1
    metric_inc("rpq.monte_carlo.samples", samples)
    return RPQEstimate(
        estimate=positives / samples,
        method="monte-carlo",
        exact=False,
        rational=None,
        samples_used=samples,
        nfa_states=0,
        nfa_transitions=0,
        string_length=len(edges),
    )


def rpq_probability_estimate(
    graph: ProbabilisticGraph,
    query: RPQQuery,
    method: str = "auto",
    epsilon: float = 0.25,
    seed: int | None = None,
    samples: int | None = None,
    exact_set_cap: int = 4096,
    repetitions: int = 1,
    cache=None,
    backend=None,
) -> RPQEstimate:
    """``Pr_G(source ⟶_regex target)`` via the chosen route.

    See the module docstring for the method table.  Raises
    :class:`~repro.errors.GraphError` when a product route is asked to
    handle a cyclic graph — degradable, so the resilience ladder falls
    through to enumeration or Monte-Carlo.

    ``cache`` (a :class:`~repro.core.cache.ReductionCache`) memoizes
    the product reduction under
    ``("rpq", query.cache_token, graph.cache_token)`` and exact
    (seed-independent) DP counts under a matching ``("count", "rpq",
    …)`` key; sampled counts are never stored.

    ``backend`` is the counting-kernel knob (see
    :mod:`repro.core.kernels`), validated here; both RPQ routes are
    backend-independent — the exact product DP is the scalar subset
    sweep of :meth:`repro.automata.nfa.NFA.count_exact` and the FPRAS
    one shared RNG-order-bound loop — so the exact-count cache key
    omits it.
    """
    if method not in RPQ_METHODS:
        raise EstimationError(
            f"unknown RPQ method {method!r}; choose from {RPQ_METHODS}"
        )
    from repro.core import kernels

    backend = kernels.resolve_backend(backend)

    if method == "monte-carlo":
        with span("rpq.count", method=method):
            fault_point("rpq.count")
            return rpq_monte_carlo(
                graph, query, samples=samples,
                epsilon=epsilon / 4, seed=seed,
            )

    if method == "enumerate":
        with span("rpq.count", method=method):
            fault_point("rpq.count")
            edges = relevant_edges(graph, query)
            if len(edges) > _ENUMERATE_LIMIT:
                raise EstimationError(
                    f"enumeration over {len(edges)} relevant edges "
                    f"exceeds the 2^{_ENUMERATE_LIMIT} world limit"
                )
            value = rpq_brute_force(graph, query)
        return RPQEstimate(
            estimate=float(value),
            method="enumerate",
            exact=True,
            rational=value,
            samples_used=0,
            nfa_states=0,
            nfa_transitions=0,
            string_length=len(edges),
        )

    if method == "auto" and not graph.is_acyclic:
        # Cyclic graphs have no layered product; route structurally.
        edges = relevant_edges(graph, query)
        fallback = (
            "enumerate" if len(edges) <= _ENUMERATE_LIMIT
            else "monte-carlo"
        )
        return rpq_probability_estimate(
            graph, query, method=fallback, epsilon=epsilon, seed=seed,
            samples=samples, exact_set_cap=exact_set_cap,
            repetitions=repetitions, cache=cache, backend=backend,
        )

    with span("rpq.product"):
        if cache is None:
            reduction = build_rpq_nfa(graph, query)
        else:
            # Keyed on the graph token, not relational state: relation
            # deltas never touch RPQ artifacts (relations=∅ makes them
            # survive every relational invalidation).
            reduction = cache.get_or_build(
                ("rpq", query.cache_token, graph.cache_token),
                lambda: build_rpq_nfa(graph, query),
                relations=frozenset(),
            )
        metric_observe("rpq.product.states", reduction.nfa_states)
        metric_observe(
            "rpq.product.transitions", reduction.nfa_transitions
        )
    if reduction.trivial is not None:
        return _trivial(reduction, "exact" if method == "auto" else method)

    weight_of = make_weight_of(graph)

    if method in ("auto", "exact"):
        with span("rpq.count", method="exact"):
            fault_point("rpq.count")
            cap = None if method == "exact" else _AUTO_EXACT_FRONTIER

            def exact_sweep():
                return reduction.nfa.count_exact(
                    reduction.string_length,
                    weight_of=weight_of,
                    max_subsets=cap,
                )

            if cache is None:
                measure = exact_sweep()
            else:
                measure = cache.get_or_build(
                    (
                        "count", "rpq", query.cache_token,
                        graph.cache_token, cap,
                    ),
                    exact_sweep,
                    cache_if=lambda value: value is not None,
                    relations=frozenset(),
                )
        if measure is not None:
            value = Fraction(int(measure), reduction.denominator)
            return RPQEstimate(
                estimate=float(value),
                method="exact",
                exact=True,
                rational=value,
                samples_used=0,
                nfa_states=reduction.nfa_states,
                nfa_transitions=reduction.nfa_transitions,
                string_length=reduction.string_length,
            )
        # auto: the DP frontier blew past the cap — fall to the FPRAS.

    with span("rpq.count", method="fpras"):
        fault_point("rpq.count")
        result: CountResult = count_nfa(
            reduction.nfa,
            reduction.string_length,
            epsilon=epsilon,
            seed=seed,
            samples=samples,
            exact_set_cap=exact_set_cap,
            repetitions=repetitions,
            weight_of=weight_of,
        )
    metric_inc("rpq.count.samples", result.samples_used)
    # Clamp: a probability estimate above 1 is pure sampling error.
    # No rational is reported even for exact runs — the counter
    # accumulates in floats, so only the DP route certifies rationals.
    estimate = min(result.estimate / reduction.denominator, 1.0)
    return RPQEstimate(
        estimate=estimate,
        method="fpras",
        exact=result.exact,
        rational=None,
        samples_used=result.samples_used,
        nfa_states=reduction.nfa_states,
        nfa_transitions=reduction.nfa_transitions,
        string_length=reduction.string_length,
    )
