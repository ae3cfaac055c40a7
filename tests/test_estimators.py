"""Tests for UREstimate (Theorem 3) and PQEEstimate (Theorem 1)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ReductionCache
from repro.core.estimator import PQEEngine
from repro.core.exact import exact_probability, exact_uniform_reliability
from repro.core.path_estimate import path_estimate, path_pqe_estimate
from repro.core.pqe_estimate import (
    build_pqe_reduction,
    pqe_estimate,
    ur_estimate,
)
from repro.db.fact import Fact
from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import EstimationError
from repro.graphs import (
    Edge,
    ProbabilisticGraph,
    RPQQuery,
    rpq_probability_estimate,
)
from repro.queries import parse_query
from repro.queries.builders import path_query, star_query, triangle_query
from repro.workloads.instances import (
    random_instance_for_query,
    random_probabilities,
)

_PROB_POOL = [
    Fraction(0),
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(1, 5),
    Fraction(5, 7),
]


class TestURExactAutomaton:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=12, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        query = rng.choice([path_query(2), path_query(3), star_query(2)])
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=3, seed=seed
        )
        if len(instance) > 12:
            return
        truth = exact_uniform_reliability(query, instance, method="enumerate")
        result = ur_estimate(query, instance, method="exact-automaton")
        assert result.estimate == truth
        assert result.exact

    def test_fpras_accuracy(self):
        query = path_query(3)
        instance = random_instance_for_query(
            query, domain_size=3, facts_per_relation=4, seed=7
        )
        truth = exact_uniform_reliability(query, instance, method="lineage")
        result = ur_estimate(
            query, instance, epsilon=0.2, seed=1, repetitions=3
        )
        if truth:
            assert abs(result.estimate - truth) / truth < 0.4

    def test_metadata(self):
        query = path_query(2)
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=2, seed=0
        )
        result = ur_estimate(query, instance, seed=0)
        assert result.nfta_states > 0
        assert result.nfta_transitions > 0
        assert float(result) == result.estimate

    def test_unknown_method(self):
        # Rejected before the decomposition or the reduction is built.
        cache = ReductionCache()
        with pytest.raises(ValueError):
            ur_estimate(
                path_query(1),
                DatabaseInstance([Fact("R1", ("a", "b"))]),
                method="bogus",
                cache=cache,
            )
        assert len(cache) == 0


class TestPQEReduction:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=12, deadline=None)
    def test_exact_automaton_matches_brute_force(self, seed):
        rng = random.Random(seed)
        query = rng.choice([path_query(2), path_query(3), star_query(2)])
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=2, seed=seed
        )
        if len(instance) > 9:
            return
        pdb = ProbabilisticDatabase(
            {f: rng.choice(_PROB_POOL) for f in instance}
        )
        truth = float(exact_probability(query, pdb, method="enumerate"))
        result = pqe_estimate(query, pdb, method="exact-automaton")
        assert result.estimate == pytest.approx(truth, abs=1e-12)

    def test_triangle_with_probabilities(self):
        query = triangle_query()
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=2, seed=9
        )
        pdb = random_probabilities(instance, seed=2, max_denominator=5)
        truth = float(exact_probability(query, pdb, method="lineage"))
        result = pqe_estimate(query, pdb, method="exact-automaton")
        assert result.estimate == pytest.approx(truth, rel=1e-9)

    def test_uniform_half_has_no_gadgets(self):
        query = path_query(2)
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=2, seed=1
        )
        pdb = ProbabilisticDatabase.uniform(instance)
        reduction = build_pqe_reduction(query, pdb)
        # 1/2 labels: multipliers are all 1, no comparator gadgets.
        assert reduction.tree_size == reduction.ur_reduction.tree_size
        assert reduction.denominator == 2 ** len(instance)

    def test_gadget_size_formula(self):
        query = path_query(1)
        facts = [Fact("R1", ("a", "b")), Fact("R1", ("c", "d"))]
        pdb = ProbabilisticDatabase(
            {facts[0]: Fraction(1, 3), facts[1]: Fraction(5, 8)}
        )
        reduction = build_pqe_reduction(query, pdb)
        # 1/3: max(u(1), u(2)) = 1 bit; 5/8: max(u(5), u(3)) = 3 bits.
        assert (
            reduction.tree_size
            == reduction.ur_reduction.tree_size + 1 + 3
        )
        assert reduction.denominator == 3 * 8

    def test_unknown_method(self):
        # Rejected before the decomposition or the reduction is built.
        cache = ReductionCache()
        with pytest.raises(ValueError):
            pqe_estimate(
                path_query(1),
                ProbabilisticDatabase({Fact("R1", ("a", "b")): "1/2"}),
                method="bogus",
                cache=cache,
            )
        assert len(cache) == 0

    def test_certain_database_reduces_to_satisfaction(self):
        query = path_query(2)
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=2, seed=3
        )
        pdb = ProbabilisticDatabase.certain(instance)
        result = pqe_estimate(query, pdb, method="exact-automaton")
        assert result.estimate == 1.0

    def test_impossible_database(self):
        query = path_query(2)
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=2, seed=3
        )
        pdb = ProbabilisticDatabase.uniform(instance, 0)
        result = pqe_estimate(query, pdb, method="exact-automaton")
        assert result.estimate == 0.0

    def test_fpras_accuracy(self):
        query = path_query(3)
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=3, seed=4
        )
        pdb = random_probabilities(instance, seed=5, max_denominator=4)
        truth = float(exact_probability(query, pdb, method="lineage"))
        result = pqe_estimate(
            query, pdb, epsilon=0.2, seed=6, repetitions=3
        )
        if truth:
            assert abs(result.estimate - truth) / truth < 0.4

    def test_fpras_pure_sampling_accuracy(self):
        query = path_query(2)
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=3, seed=8
        )
        pdb = random_probabilities(instance, seed=9, max_denominator=3)
        truth = float(exact_probability(query, pdb, method="lineage"))
        result = pqe_estimate(
            query, pdb, epsilon=0.2, seed=10, exact_set_cap=0,
            repetitions=3,
        )
        if truth:
            assert abs(result.estimate - truth) / truth < 0.4


def _wide_labels() -> ProbabilisticDatabase:
    """Ten ``R`` and ten ``S`` facts whose label denominators multiply
    to ``Π_f d_f = 10^400``, past the float range."""
    facts = {}
    for i in range(10):
        facts[Fact("R", (f"a{i}", f"b{i}"))] = Fraction(10**20 // 3, 10**20)
        facts[Fact("S", (f"b{i}", f"c{i}"))] = Fraction(10**20 // 7, 10**20)
    return ProbabilisticDatabase(facts)


_WIDE_QUERY = "Q :- R(x, y), S(y, z)"


def _tiny_label() -> ProbabilisticDatabase:
    """``R(a,b)`` labelled 1/10^400 beside three facts at 1/2: the
    weight 10^400 − 1 of ``¬R(a,b)`` is past the float range."""
    return ProbabilisticDatabase({
        Fact("R", ("a", "b")): Fraction(1, 10**400),
        Fact("R", ("d", "e")): Fraction(1, 2),
        Fact("S", ("b", "c")): Fraction(1, 2),
        Fact("S", ("e", "f")): Fraction(1, 2),
    })


def _near_certain_chain():
    """A 20-edge ``a``-chain labelled ``(10^20 − 3)/10^20``: the
    product's denominator is 10^400."""
    graph = ProbabilisticGraph({
        Edge(f"v{i}", "a", f"v{i + 1}"): Fraction(10**20 - 3, 10**20)
        for i in range(20)
    })
    return graph, RPQQuery("a*", "v0", "v20")


def _many_dropped_facts() -> DatabaseInstance:
    """``{R(a,b), S(b,c)}`` plus 1,100 ``T`` facts: ``2^|D \\ D'|``
    is past the float range."""
    return DatabaseInstance(
        [Fact("R", ("a", "b")), Fact("S", ("b", "c"))]
        + [Fact("T", (f"t{i}",)) for i in range(1100)]
    )


#: ``float(exact_probability(parse_query(_WIDE_QUERY), _wide_labels()))``:
#: the lineage oracle's answer, correctly rounded.
_WIDE_TRUTH = 0.3860867464592406


@pytest.mark.parametrize(
    "leg, expected",
    [
        (lambda q: pqe_estimate(q, _wide_labels(), method="exact-weighted"),
         _WIDE_TRUTH),
        (lambda q: path_pqe_estimate(q, _wide_labels(), method="exact"),
         _WIDE_TRUTH),
        (lambda q: pqe_estimate(
            q, _wide_labels(), method="fpras-weighted", seed=1),
         EstimationError),
        (lambda q: path_pqe_estimate(
            q, _wide_labels(), method="fpras", seed=1),
         EstimationError),
        (lambda q: rpq_probability_estimate(
            *_near_certain_chain(), method="fpras", seed=1),
         EstimationError),
        (lambda q: path_estimate(q, _many_dropped_facts(), seed=1),
         float("inf")),
        (lambda q: ur_estimate(q, _many_dropped_facts(), seed=1),
         float("inf")),
        (lambda q: pqe_estimate(q, _tiny_label(), method="exact-weighted"),
         0.25),
        (lambda q: pqe_estimate(
            q, _tiny_label(), method="fpras-weighted", seed=1),
         EstimationError),
        (lambda q: path_pqe_estimate(
            q, _tiny_label(), method="fpras", seed=1, exact_set_cap=0),
         EstimationError),
        (lambda q: PQEEngine(seed=1).probability(
            q, _tiny_label(), method="fpras-weighted"),
         EstimationError),
    ],
    ids=[
        "pqe-exact-weighted", "path-pqe-exact", "pqe-fpras-weighted",
        "path-pqe-fpras", "rpq-fpras", "path-estimate", "ur-estimate",
        "label-exact-weighted", "label-fpras-weighted", "label-path-fpras",
        "label-engine-fpras-weighted",
    ],
)
def test_answers_past_the_float_range(leg, expected):
    """Where ``Π_f d_f``, ``2^|D \\ D'|`` or one label's weight is past
    the float range, no route raises :class:`OverflowError`: an exact
    measure gives the correctly rounded probability, a sampled measure
    that overflowed or a sampler weight past the range raises
    :class:`EstimationError` naming the float range (so the resilience
    ladder degrades), and a scaled count is ``inf``."""
    query = parse_query(_WIDE_QUERY)
    if expected is EstimationError:
        with pytest.raises(EstimationError, match="float range"):
            leg(query)
        return
    assert leg(query).estimate == expected
