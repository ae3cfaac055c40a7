"""Tests for the PQEEngine facade and its routing logic."""

import math

import pytest

from repro.core.estimator import PQEEngine, PQEPlan
from repro.db.fact import Fact
from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import ReproError
from repro.queries.builders import path_query, star_query
from repro.queries.parser import parse_query
from repro.workloads.instances import (
    random_instance_for_query,
    random_probabilities,
)


def _pdb_for(query, seed=0, domain=2, facts=2):
    instance = random_instance_for_query(
        query, domain_size=domain, facts_per_relation=facts, seed=seed
    )
    return random_probabilities(instance, seed=seed, max_denominator=4)


class TestRouting:
    def test_safe_query_routes_to_lifted(self):
        engine = PQEEngine(seed=0)
        answer = engine.probability(star_query(2), _pdb_for(star_query(2)))
        assert answer.method == "lifted"
        assert answer.route == "lifted"
        assert answer.exact
        assert answer.rational is not None

    def test_unsafe_small_routes_to_lineage(self):
        engine = PQEEngine(seed=0)
        answer = engine.probability(path_query(3), _pdb_for(path_query(3)))
        assert answer.method == "lineage-exact"
        assert answer.exact

    def test_unsafe_large_lineage_routes_to_fpras(self):
        engine = PQEEngine(seed=0, lineage_budget=2)
        answer = engine.probability(path_query(3), _pdb_for(path_query(3)))
        assert answer.method == "fpras"

    def test_self_join_routes_to_lineage(self):
        engine = PQEEngine(seed=0)
        query = parse_query("R(x, y), R(y, z)")
        pdb = ProbabilisticDatabase(
            {
                Fact("R", ("a", "b")): "1/2",
                Fact("R", ("b", "c")): "1/2",
            }
        )
        answer = engine.probability(query, pdb)
        assert answer.method == "lineage-exact"

    def test_self_join_large_routes_to_karp_luby(self):
        engine = PQEEngine(seed=0, lineage_budget=0)
        query = parse_query("R(x, y), R(y, z)")
        pdb = ProbabilisticDatabase(
            {
                Fact("R", ("a", "b")): "1/2",
                Fact("R", ("b", "c")): "1/2",
            }
        )
        answer = engine.probability(query, pdb)
        assert answer.method == "karp-luby"


class TestMethodAgreement:
    def test_all_methods_agree(self):
        query = path_query(3)
        pdb = _pdb_for(query, seed=3, facts=2)
        if len(pdb) > 10:
            pytest.skip("instance too large for enumeration")
        engine = PQEEngine(seed=1, epsilon=0.2, repetitions=3)
        truth = engine.probability(query, pdb, method="enumerate").value
        lineage = engine.probability(query, pdb, method="lineage-exact")
        assert lineage.value == pytest.approx(truth, abs=1e-12)
        fpras = engine.probability(query, pdb, method="fpras")
        assert fpras.value == pytest.approx(truth, rel=0.4, abs=0.02)
        kl = engine.probability(query, pdb, method="karp-luby")
        assert kl.value == pytest.approx(truth, rel=0.4, abs=0.02)

    def test_explicit_safe_plan(self):
        # The Dalvi–Suciu safe plan has one evaluator, lifted_probability,
        # which the engine serves as method="lifted"; "safe-plan" is no
        # longer a method value.
        from repro.queries.lifted import lifted_probability

        query = star_query(2)
        pdb = _pdb_for(query, seed=5)
        engine = PQEEngine(seed=0)
        with pytest.raises(ReproError, match="unknown method"):
            engine.probability(query, pdb, method="safe-plan")
        enum = engine.probability(query, pdb, method="enumerate")
        assert lifted_probability(query, pdb) == enum.rational

    def test_explicit_lifted(self):
        query = star_query(2)
        pdb = _pdb_for(query, seed=5)
        engine = PQEEngine(seed=0)
        lifted = engine.probability(query, pdb, method="lifted")
        enum = engine.probability(query, pdb, method="enumerate")
        assert lifted.method == "lifted"
        assert lifted.rational == enum.rational


class TestUniformReliability:
    def test_auto_is_exact_integer(self):
        query = path_query(2)
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=2, seed=2
        )
        engine = PQEEngine(seed=0)
        answer = engine.uniform_reliability(query, instance)
        assert answer.exact
        assert answer.rational is not None
        assert answer.rational.denominator == 1

    def test_matches_enumeration(self):
        query = path_query(2)
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=2, seed=4
        )
        engine = PQEEngine(seed=0)
        auto = engine.uniform_reliability(query, instance)
        enum = engine.uniform_reliability(query, instance, method="enumerate")
        assert auto.rational == enum.rational

    def test_fpras_route(self):
        query = path_query(2)
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=2, seed=4
        )
        engine = PQEEngine(seed=0, epsilon=0.2, repetitions=3)
        answer = engine.uniform_reliability(query, instance, method="fpras")
        enum = engine.uniform_reliability(query, instance, method="enumerate")
        assert answer.value == pytest.approx(
            enum.value, rel=0.4, abs=0.5
        )

    # 1,101 facts: 2^|D| leaves the float range (2^1024).
    FAR_INSTANCE = DatabaseInstance(
        [Fact("R", ("a", "b"))]
        + [Fact("S", (f"c{i}",)) for i in range(1100)]
    )

    @pytest.mark.parametrize("method", ["auto", "lineage-exact", "fpras"])
    def test_count_past_the_float_range_is_inf(self, method):
        # Every subinstance holding R(a, b) satisfies Q: 2^1100 of them.
        answer = PQEEngine(seed=0).uniform_reliability(
            parse_query("Q :- R(x, y)"), self.FAR_INSTANCE, method=method
        )
        assert answer.value == math.inf
        if method == "fpras":
            assert answer.rational is None
        else:
            assert answer.exact
            assert answer.rational == 2**1100

    @pytest.mark.parametrize("method", ["auto", "lineage-exact", "fpras"])
    def test_zero_count_past_the_float_range_is_zero(self, method):
        answer = PQEEngine(seed=0).uniform_reliability(
            parse_query("Q :- R(x, x)"), self.FAR_INSTANCE, method=method
        )
        assert answer.value == 0.0


class TestValidation:
    def test_invalid_epsilon(self):
        with pytest.raises(ReproError):
            PQEEngine(epsilon=0)

    def test_unknown_method(self):
        engine = PQEEngine()
        with pytest.raises(ReproError):
            engine.probability(
                path_query(1),
                ProbabilisticDatabase({Fact("R1", ("a", "b")): "1/2"}),
                method="bogus",
            )

    def test_unknown_ur_method(self):
        engine = PQEEngine()
        from repro.db.instance import DatabaseInstance

        with pytest.raises(ReproError):
            engine.uniform_reliability(
                path_query(1),
                DatabaseInstance([Fact("R1", ("a", "b"))]),
                method="bogus",
            )


class TestConditionalProbability:
    def test_conditioning_on_present_evidence(self):
        from fractions import Fraction

        query = path_query(2)
        r1 = Fact("R1", ("a", "b"))
        r2 = Fact("R2", ("b", "c"))
        pdb = ProbabilisticDatabase({r1: "1/2", r2: "1/3"})
        engine = PQEEngine(seed=0)
        # Pr(Q | R1 present) = Pr(R2) = 1/3.
        answer = engine.conditional_probability(
            query, pdb, present=[r1]
        )
        assert answer.rational == Fraction(1, 3)

    def test_conditioning_on_absent_evidence(self):
        query = path_query(2)
        r1 = Fact("R1", ("a", "b"))
        r2 = Fact("R2", ("b", "c"))
        pdb = ProbabilisticDatabase({r1: "1/2", r2: "1/3"})
        engine = PQEEngine(seed=0)
        answer = engine.conditional_probability(
            query, pdb, absent=[r1]
        )
        assert answer.value == 0

    def test_matches_bayes_on_brute_force(self):
        from fractions import Fraction

        query = path_query(2)
        pdb = _pdb_for(query, seed=6, facts=2)
        if len(pdb) > 10:
            return
        evidence = next(iter(pdb))
        engine = PQEEngine(seed=0)
        conditional = engine.conditional_probability(
            query, pdb, present=[evidence], method="enumerate"
        )
        # Bayes check: Pr(Q ∧ e) / Pr(e) over brute force.
        joint = Fraction(0)
        marginal = Fraction(0)
        from repro.db.instance import DatabaseInstance
        from repro.db.semantics import satisfies

        for subset in pdb.instance.subinstances():
            if evidence not in subset:
                continue
            weight = pdb.subinstance_probability(subset)
            marginal += weight
            if subset and satisfies(DatabaseInstance(subset), query):
                joint += weight
        expected = joint / marginal if marginal else Fraction(0)
        assert conditional.rational == expected


class TestMonteCarloRoute:
    def test_monte_carlo_method(self):
        query = path_query(2)
        pdb = ProbabilisticDatabase(
            {
                Fact("R1", ("a", "b")): "1/2",
                Fact("R2", ("b", "c")): "1/2",
            }
        )
        engine = PQEEngine(seed=0, epsilon=0.2)
        answer = engine.probability(query, pdb, method="monte-carlo")
        assert answer.method == "monte-carlo"
        assert not answer.exact
        assert answer.value == pytest.approx(0.25, abs=0.1)

    def test_fpras_weighted_method(self):
        query = path_query(3)
        pdb = _pdb_for(query, seed=2, facts=2)
        engine = PQEEngine(seed=0, epsilon=0.2, repetitions=3)
        weighted = engine.probability(query, pdb, method="fpras-weighted")
        truth = engine.probability(query, pdb, method="enumerate")
        assert weighted.method == "fpras-weighted"
        assert weighted.value == pytest.approx(
            truth.value, rel=0.4, abs=0.02
        )


class TestExplain:
    def test_unsafe_sjf_plan(self):
        query = path_query(3)
        pdb = _pdb_for(query, seed=1)
        plan = PQEEngine(seed=0).explain(query, pdb)
        assert plan.self_join_free
        assert plan.hierarchical is False
        assert plan.acyclic
        assert plan.hypertree_width == 1
        assert plan.nfta_transitions > 0
        assert plan.method in ("lineage-exact", "fpras")
        assert "non-hierarchical" in plan.describe()

    def test_safe_plan_route(self):
        query = star_query(2)
        pdb = _pdb_for(query, seed=2)
        plan = PQEEngine(seed=0).explain(query, pdb)
        assert plan.method == "lifted"
        assert plan.route == "lifted"
        assert plan.safety == "safe"
        assert plan.hierarchical is True
        assert "safety: safe" in plan.describe()

    def test_self_join_plan(self):
        query = parse_query("R(x, y), R(y, z)")
        pdb = ProbabilisticDatabase(
            {
                Fact("R", ("a", "b")): "1/2",
                Fact("R", ("b", "c")): "1/2",
            }
        )
        plan = PQEEngine(seed=0).explain(query, pdb)
        assert not plan.self_join_free
        assert plan.hierarchical is None
        assert plan.nfta_states is None
        assert plan.method == "lineage-exact"
        assert "has self-joins" in plan.describe()

    def test_over_budget_routes_to_fpras(self):
        query = path_query(3)
        pdb = _pdb_for(query, seed=3, facts=3)
        plan = PQEEngine(seed=0, lineage_budget=0).explain(query, pdb)
        assert plan.lineage_clauses is None
        assert plan.method == "fpras"
        assert "over budget" in plan.describe()

    @pytest.mark.parametrize(
        "query, pdb, lineage_budget, route",
        [
            (star_query(2), _pdb_for(star_query(2), seed=2), 10_000,
             "lifted"),
            (path_query(3), _pdb_for(path_query(3), seed=4), 10_000,
             "lineage-exact"),
            (path_query(3), _pdb_for(path_query(3), seed=4), 0, "fpras"),
            (
                parse_query("R(x, y), R(y, z)"),
                ProbabilisticDatabase({
                    Fact("R", ("a", "b")): "1/2",
                    Fact("R", ("b", "c")): "1/2",
                }),
                0,
                "karp-luby",
            ),
        ],
        ids=["safe", "small-lineage", "over-budget-sjf", "over-budget-sj"],
    )
    def test_plan_matches_auto_route(self, query, pdb, lineage_budget, route):
        # explain, auto and the ladder read one router: the plan's
        # predicted method is what auto runs, and an over-budget unsafe
        # query lands on the ladder's randomized rung.
        from repro.core.tasks import TASKS

        engine = PQEEngine(seed=0, lineage_budget=lineage_budget)
        plan = engine.explain(query, pdb)
        answer = engine.probability(query, pdb)
        assert plan.method == answer.method == route
        assert plan.fallbacks == TASKS["probability"].ladder(query, "auto")
        if route in ("fpras", "karp-luby"):
            assert plan.fallbacks[:2] == ("auto", route)
