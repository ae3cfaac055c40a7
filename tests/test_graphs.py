"""Unit tests for the probabilistic-graph RPQ subsystem.

Fast, deterministic coverage of :mod:`repro.graphs` and its wiring:
the data model (canonical order, cache tokens, topological order), the
RPQ parser/Glushkov compiler, the layered product reduction's trivial
and error cases, the engine/batch/CLI surfaces, and the workload
generators.  The heavyweight cross-oracle comparisons live in the
``-m rpq`` differential tier (``test_rpq_differential.py``).
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from repro.core.budget import EvaluationBudget
from repro.core.cache import ReductionCache
from repro.core.estimator import PQEEngine
from repro.core.parallel import BatchItem
from repro.core.resilience import evaluate_with_policy
from repro.core.tasks import TASKS
from repro.errors import (
    BudgetExceededError,
    EstimationError,
    GraphError,
    ProbabilityError,
    ReproError,
)
from repro.graphs import (
    Edge,
    ProbabilisticGraph,
    RPQQuery,
    build_rpq_nfa,
    parse_rpq,
    relevant_edges,
    repetitions_for_delta,
    rpq_brute_force,
    rpq_holds,
    rpq_probability_estimate,
)
from repro.graphs.rpq import ParseError, RPQExpression
from repro.workloads import (
    grid_graph,
    layered_dag_graph,
    preferential_attachment_graph,
    rpq_workloads,
)

# A diamond DAG with a chord: s →a u →b t, s →a v →b t, u →c v.
DIAMOND = ProbabilisticGraph({
    Edge("s", "a", "u"): "1/2",
    Edge("s", "a", "v"): "1/3",
    Edge("u", "b", "t"): "2/3",
    Edge("v", "b", "t"): "3/4",
    Edge("u", "c", "v"): "1/2",
})

AB = RPQQuery("a b", "s", "t")

CYCLE = ProbabilisticGraph({
    Edge("s", "a", "t"): "1/2",
    Edge("t", "a", "s"): "1/2",
})


# ---------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------

def test_edges_are_canonically_sorted():
    assert DIAMOND.edges == tuple(
        sorted(DIAMOND.edges, key=lambda e: e.sort_key)
    )


def test_probability_labels_are_exact_rationals():
    assert DIAMOND.probability(Edge("s", "a", "u")) == Fraction(1, 2)
    with pytest.raises(ProbabilityError):
        DIAMOND.probability(Edge("x", "a", "y"))
    with pytest.raises(ProbabilityError):
        ProbabilisticGraph({Edge("a", "x", "b"): "3/2"})


def test_cache_token_is_content_addressed():
    clone = ProbabilisticGraph(DIAMOND.probabilities)
    assert clone.cache_token == DIAMOND.cache_token
    tweaked = dict(DIAMOND.probabilities)
    tweaked[Edge("s", "a", "u")] = Fraction(1, 4)
    assert (
        ProbabilisticGraph(tweaked).cache_token != DIAMOND.cache_token
    )
    # Isolated nodes are part of the identity (they are legal RPQ
    # endpoints, so two graphs differing only there are not equal).
    with_node = ProbabilisticGraph(
        DIAMOND.probabilities, nodes=["lonely"]
    )
    assert with_node.cache_token != DIAMOND.cache_token


def test_topological_order_is_deterministic_and_cycle_aware():
    order = DIAMOND.topological_order
    assert order is not None
    position = {node: i for i, node in enumerate(order)}
    for edge in DIAMOND.edges:
        assert position[edge.source] < position[edge.target]
    assert CYCLE.topological_order is None
    assert not CYCLE.is_acyclic


def test_subgraph_probability_sums_to_one():
    small = ProbabilisticGraph({
        Edge("a", "x", "b"): "1/2",
        Edge("b", "x", "c"): "1/3",
    })
    edges = small.edges
    total = sum(
        small.subgraph_probability(
            [edges[i] for i in range(2) if mask >> i & 1]
        )
        for mask in range(4)
    )
    assert total == 1


# ---------------------------------------------------------------------
# RPQ parsing and matching
# ---------------------------------------------------------------------

def test_parse_round_trips_canonical_form():
    for text in ("a b", "a|b c", "(a|b)* c+ d?", "a (b|c)* a"):
        node = parse_rpq(text)
        assert parse_rpq(str(node)) == node


@pytest.mark.parametrize("bad", ["", "(a", "a)", "*a", "a **b(", "a-b"])
def test_parse_rejects_malformed_regexes(bad):
    with pytest.raises(ParseError):
        parse_rpq(bad)


def test_empty_union_branch_reads_as_epsilon():
    # ``a|`` is ``a?``: the empty branch denotes the empty word.
    assert RPQExpression("a|").matches(())
    assert RPQExpression("a|").matches(("a",))
    assert not RPQExpression("a|").matches(("b",))


def test_expression_matches_words():
    expr = RPQExpression("a (b|c)* a")
    assert expr.matches(("a", "a"))
    assert expr.matches(("a", "b", "c", "b", "a"))
    assert not expr.matches(("a", "b"))
    assert not expr.matches(())
    assert RPQExpression("a*").matches(())
    assert RPQExpression("a*").nullable


def test_query_cache_token_tracks_canonical_form():
    # Same language, same canonical text → same token; different
    # endpoints or regex → different token.
    assert (
        RPQQuery("a  b", "s", "t").cache_token
        == RPQQuery("a b", "s", "t").cache_token
    )
    assert (
        RPQQuery("a b", "s", "t").cache_token
        != RPQQuery("a b", "s", "u").cache_token
    )
    assert (
        RPQQuery("a b", "s", "t").cache_token
        != RPQQuery("a|b", "s", "t").cache_token
    )


# ---------------------------------------------------------------------
# Reduction structure
# ---------------------------------------------------------------------

def test_relevant_edges_prunes_labels_and_corridors():
    rel = relevant_edges(DIAMOND, AB)
    labels = {e.label for e in rel}
    assert labels <= {"a", "b"}
    # The chord u→c→v is label-irrelevant for "a b".
    assert Edge("u", "c", "v") not in rel
    assert len(rel) == 4


def test_relevant_edges_is_linear_and_keeps_its_deadline():
    # A descending chain v{i+1} -a-> v{i}: a fixpoint that rescans the
    # candidates once per node it adds is quadratic here, and overran
    # this deadline before the first world was sampled.
    chain = ProbabilisticGraph({
        Edge(f"v{i + 1:05d}", "a", f"v{i:05d}"): "1/2" for i in range(8000)
    })
    deadline = 0.5
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        PQEEngine(seed=1).rpq_probability(
            chain, "a*", "v08000", "v00000", method="monte-carlo",
            budget=EvaluationBudget(deadline=deadline),
        )
    assert time.perf_counter() - started < 2 * deadline


def test_product_is_built_trim():
    grid = grid_graph(4, 4, seed=0)
    for graph, query in (
        (DIAMOND, AB),
        (grid, RPQQuery("(a|b)*", "n0_0", "n3_3")),
        (grid, RPQQuery("a+ b+ a+", "n0_0", "n3_3")),
    ):
        nfa = build_rpq_nfa(graph, query).nfa
        trimmed = nfa.trimmed()
        assert nfa.accepting
        assert trimmed.states == nfa.states
        assert set(trimmed.transitions()) == set(nfa.transitions())
        assert (trimmed.initial, trimmed.accepting) == (
            nfa.initial, nfa.accepting
        )


def test_trivial_cases_short_circuit():
    # Nullable regex, source == target: probability exactly 1.
    r1 = build_rpq_nfa(DIAMOND, RPQQuery("a*", "s", "s"))
    assert r1.trivial == 1
    # No relevant edges: probability exactly 0.
    r0 = build_rpq_nfa(DIAMOND, RPQQuery("zz", "s", "t"))
    assert r0.trivial == 0


def test_unknown_endpoint_raises_graph_error():
    with pytest.raises(GraphError):
        build_rpq_nfa(DIAMOND, RPQQuery("a", "nowhere", "t"))


def test_cyclic_graph_raises_graph_error_on_product_routes():
    with pytest.raises(GraphError):
        build_rpq_nfa(CYCLE, RPQQuery("a", "s", "t"))
    with pytest.raises(GraphError):
        rpq_probability_estimate(CYCLE, RPQQuery("a", "s", "t"),
                                 method="exact")


def test_rpq_holds_is_a_reachability_oracle():
    world = [Edge("s", "a", "u"), Edge("u", "b", "t")]
    assert rpq_holds(world, AB)
    assert not rpq_holds(world[:1], AB)
    # Nullable self-query holds in the empty world.
    assert rpq_holds([], RPQQuery("a*", "s", "s"))
    # Cyclic worlds are fine for the BFS oracle.
    assert rpq_holds(CYCLE.edges, RPQQuery("a a a", "s", "t"))


def test_diamond_probability_is_exact_by_hand():
    # Pr = 1 - (1 - 1/2*2/3)(1 - 1/3*3/4) = 1/2.
    assert rpq_brute_force(DIAMOND, AB) == Fraction(1, 2)
    est = rpq_probability_estimate(DIAMOND, AB, method="exact")
    assert est.exact and est.rational == Fraction(1, 2)


# ---------------------------------------------------------------------
# Route-level evaluator
# ---------------------------------------------------------------------

def test_unknown_method_is_rejected():
    with pytest.raises(EstimationError):
        rpq_probability_estimate(DIAMOND, AB, method="lifted")


def test_enumerate_refuses_large_edge_sets():
    big = grid_graph(4, 4, seed=0)
    query = RPQQuery("(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)", "n0_0", "n3_3")
    assert len(relevant_edges(big, query)) > 20
    with pytest.raises(EstimationError):
        rpq_probability_estimate(big, query, method="enumerate")


def test_auto_routes_cyclic_graphs_structurally():
    # Small cyclic graph → enumeration, still exact.
    est = rpq_probability_estimate(
        CYCLE, RPQQuery("a", "s", "t"), method="auto"
    )
    assert est.method == "enumerate" and est.exact
    assert est.rational == Fraction(1, 2)


def test_monte_carlo_is_seed_deterministic():
    a = rpq_probability_estimate(
        DIAMOND, AB, method="monte-carlo", seed=11, samples=500
    )
    b = rpq_probability_estimate(
        DIAMOND, AB, method="monte-carlo", seed=11, samples=500
    )
    assert a.estimate == b.estimate
    assert a.samples_used == 500
    assert abs(a.estimate - 0.5) < 0.15


@pytest.mark.parametrize("samples", [0, -3])
def test_monte_carlo_rejects_a_sample_count_below_one(samples):
    # As CQ Monte-Carlo and the counters do, before any draw.
    with pytest.raises(EstimationError, match="samples must be >= 1"):
        rpq_probability_estimate(
            DIAMOND, AB, method="monte-carlo", seed=11, samples=samples
        )


def test_repetitions_for_delta_is_odd_and_monotone():
    assert repetitions_for_delta(None) == 1
    assert repetitions_for_delta(None, floor=4) == 5   # rounded to odd
    r1 = repetitions_for_delta(0.25)
    r2 = repetitions_for_delta(0.01)
    assert r1 % 2 == 1 and r2 % 2 == 1 and r2 > r1
    with pytest.raises(EstimationError):
        repetitions_for_delta(1.5)


# ---------------------------------------------------------------------
# Engine / resilience / batch / cache wiring
# ---------------------------------------------------------------------

def test_engine_rpq_probability_accepts_strings_and_queries():
    engine = PQEEngine(seed=5)
    from_query = engine.rpq_probability(DIAMOND, AB)
    from_text = engine.rpq_probability(
        DIAMOND, "a b", source="s", target="t"
    )
    assert from_query == from_text
    assert from_query.rational == Fraction(1, 2)
    with pytest.raises(ReproError):
        engine.rpq_probability(DIAMOND, "a b")   # endpoints missing


def test_engine_rpq_telemetry_spans():
    answer = PQEEngine(seed=5).rpq_probability(
        DIAMOND, AB, telemetry=True
    )
    names = {record.name for record in answer.telemetry.spans}
    assert {"rpq_probability", "rpq.compile", "rpq.product",
            "rpq.count"} <= names


def test_rpq_degradation_ladder_shape():
    ladder = TASKS["rpq"].ladder
    assert ladder(AB, "auto") == ("auto", "fpras", "monte-carlo")
    assert ladder(AB, "exact") == ("exact", "fpras", "monte-carlo")
    assert ladder(AB, "fpras") == ("fpras", "monte-carlo")
    assert ladder(AB, "monte-carlo") == ("monte-carlo",)


def test_cyclic_fpras_degrades_to_monte_carlo():
    answer = evaluate_with_policy(
        PQEEngine(seed=3, epsilon=0.2),
        RPQQuery("a", "s", "t"),
        CYCLE,
        task="rpq",
        method="fpras",
        seed=3,
    )
    assert answer.method == "monte-carlo"
    assert answer.degraded
    assert "GraphError" in answer.degradations[0]


def test_batch_items_validate_types():
    with pytest.raises(ReproError):
        BatchItem(AB, DIAMOND, task="nonsense").validated(0)
    with pytest.raises(ReproError):
        # rpq task over a non-graph database.
        BatchItem(AB, object(), task="rpq").validated(0)
    with pytest.raises(ReproError):
        # rpq task with a non-RPQ query.
        BatchItem("a b", DIAMOND, task="rpq").validated(0)


def test_batch_tuple_items_infer_the_rpq_task():
    engine = PQEEngine(seed=9)
    batch = engine.evaluate_batch([(AB, DIAMOND)], max_workers=1)
    assert batch.values == (0.5,)


def test_reduction_cache_reuses_the_product():
    cache = ReductionCache()
    engine = PQEEngine(seed=2)
    engine.rpq_probability(DIAMOND, AB, cache=cache)
    stats_after_first = cache.stats.misses
    engine.rpq_probability(DIAMOND, AB, cache=cache)
    assert cache.stats.hits > 0
    assert cache.stats.misses == stats_after_first


# ---------------------------------------------------------------------
# Workload generators
# ---------------------------------------------------------------------

def test_generators_are_hash_stable():
    assert grid_graph(3, 3, seed=4) == grid_graph(3, 3, seed=4)
    assert grid_graph(3, 3, seed=4) != grid_graph(3, 3, seed=5)
    assert (
        layered_dag_graph(3, 2, seed=1)
        == layered_dag_graph(3, 2, seed=1)
    )
    assert (
        preferential_attachment_graph(8, seed=2)
        == preferential_attachment_graph(8, seed=2)
    )


def test_generated_graphs_are_dags():
    assert grid_graph(4, 5, seed=0).is_acyclic
    assert layered_dag_graph(5, 3, seed=0).is_acyclic
    assert preferential_attachment_graph(12, seed=0).is_acyclic


def test_generator_argument_validation():
    with pytest.raises(ReproError):
        grid_graph(0, 3)
    with pytest.raises(ReproError):
        layered_dag_graph(1, 2)
    with pytest.raises(ReproError):
        preferential_attachment_graph(1)
    with pytest.raises(ReproError):
        grid_graph(2, 2, labels=())


def test_workload_corpus_is_pinned_and_nontrivial():
    corpus = rpq_workloads()
    assert len(corpus) == 8
    names = [name for name, _, _ in corpus]
    assert len(set(names)) == 8
    for _name, graph, query in corpus:
        assert graph.is_acyclic
        assert relevant_edges(graph, query)
