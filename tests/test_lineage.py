"""Tests for the lineage (intensional) subsystem."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import exact_probability
from repro.db.fact import Fact
from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.db.semantics import satisfies
from repro.errors import LineageError, LineageSizeBudgetExceeded
from repro.lineage.build import build_lineage, lineage_clause_count
from repro.lineage.dnf import DNF, clause_probability
from repro.lineage.exact_wmc import dnf_probability
from repro.lineage.karp_luby import (
    karp_luby_probability,
    required_samples,
)
from repro.queries.builders import path_query, star_query
from repro.workloads.graphs import complete_layered_path_instance
from repro.workloads.instances import (
    random_instance_for_query,
    random_probabilities,
)


def _f(i):
    return Fact("R", (f"c{i}",))


class TestDNF:
    def test_basic_properties(self):
        formula = DNF([{_f(0), _f(1)}, {_f(1), _f(2)}])
        assert formula.num_clauses == 2
        assert formula.size == 4
        assert formula.variables == frozenset({_f(0), _f(1), _f(2)})

    def test_evaluate(self):
        formula = DNF([{_f(0), _f(1)}])
        assert formula.evaluate(frozenset({_f(0), _f(1), _f(5)}))
        assert not formula.evaluate(frozenset({_f(0)}))

    def test_false_formula(self):
        assert DNF([]).is_false()
        assert not DNF([]).evaluate(frozenset())

    def test_empty_clause_rejected(self):
        with pytest.raises(LineageError):
            DNF([frozenset()])

    def test_minimized_absorption(self):
        formula = DNF([{_f(0)}, {_f(0), _f(1)}, {_f(2)}])
        minimized = formula.minimized()
        assert minimized.num_clauses == 2
        assert frozenset({_f(0), _f(1)}) not in minimized.clauses

    def test_clause_probability(self):
        probs = {_f(0): Fraction(1, 2), _f(1): Fraction(1, 3)}
        assert clause_probability(
            frozenset({_f(0), _f(1)}), probs
        ) == Fraction(1, 6)


class TestBuildLineage:
    def test_path_clause_count_complete_instance(self):
        # Complete layered instance: width^(length+1) homomorphisms,
        # all with distinct witness sets.
        query = path_query(3)
        instance = complete_layered_path_instance(3, 2)
        formula = build_lineage(query, instance)
        assert formula.num_clauses == 2 ** 4

    def test_budget_enforced(self):
        query = path_query(3)
        instance = complete_layered_path_instance(3, 3)
        with pytest.raises(LineageSizeBudgetExceeded) as info:
            build_lineage(query, instance, budget=10)
        assert info.value.clause_count > 10

    def test_clause_count_streaming_matches(self):
        query = path_query(2)
        instance = complete_layered_path_instance(2, 3)
        assert lineage_clause_count(query, instance) == build_lineage(
            query, instance
        ).num_clauses

    def test_lineage_semantics(self):
        # φ(D') is true iff D' |= Q — on every subinstance.
        query = path_query(2)
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=2, seed=0
        )
        formula = build_lineage(query, instance)
        for subset in instance.subinstances():
            assert formula.evaluate(subset) == satisfies(
                DatabaseInstance(subset) if subset else DatabaseInstance(
                    [Fact("Z", ("z",))]
                ),
                query,
            )


class TestExactWMC:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_matches_enumeration(self, seed):
        rng = random.Random(seed)
        query = rng.choice([path_query(2), star_query(2), path_query(3)])
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=2, seed=seed
        )
        if len(instance) > 10:
            return
        pdb = random_probabilities(instance, seed=seed, max_denominator=4)
        lineage_based = exact_probability(query, pdb, method="lineage")
        enumerated = exact_probability(query, pdb, method="enumerate")
        assert lineage_based == enumerated

    def test_empty_formula_probability_zero(self):
        assert dnf_probability(DNF([]), {}) == 0

    def test_single_clause(self):
        probs = {_f(0): Fraction(1, 2), _f(1): Fraction(1, 3)}
        assert dnf_probability(
            DNF([{_f(0), _f(1)}]), probs
        ) == Fraction(1, 6)

    def test_independent_clauses(self):
        probs = {_f(0): Fraction(1, 2), _f(1): Fraction(1, 2)}
        # Pr[f0 ∨ f1] = 3/4.
        assert dnf_probability(
            DNF([{_f(0)}, {_f(1)}]), probs
        ) == Fraction(3, 4)

    def test_shared_variable_clauses(self):
        probs = {
            _f(0): Fraction(1, 2),
            _f(1): Fraction(1, 2),
            _f(2): Fraction(1, 2),
        }
        # Pr[(f0∧f1) ∨ (f1∧f2)] = Pr[f1]·Pr[f0 ∨ f2] = 1/2 · 3/4.
        assert dnf_probability(
            DNF([{_f(0), _f(1)}, {_f(1), _f(2)}]), probs
        ) == Fraction(3, 8)


class TestKarpLuby:
    def test_required_samples_monotone(self):
        assert required_samples(10, 0.1, 0.1) > required_samples(
            10, 0.5, 0.1
        )
        assert required_samples(100, 0.2, 0.1) > required_samples(
            10, 0.2, 0.1
        )

    def test_invalid_parameters(self):
        from repro.errors import EstimationError

        with pytest.raises(EstimationError):
            required_samples(10, 0.0, 0.1)

    def test_empty_formula(self):
        result = karp_luby_probability(DNF([]), {}, seed=0)
        assert result.estimate == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_accuracy(self, seed):
        rng = random.Random(seed)
        query = path_query(2)
        instance = random_instance_for_query(
            query, domain_size=3, facts_per_relation=4, seed=seed
        )
        pdb = random_probabilities(instance, seed=seed, max_denominator=4)
        formula = build_lineage(query, instance)
        truth = float(dnf_probability(formula, pdb.probabilities))
        result = karp_luby_probability(
            formula, pdb.probabilities, epsilon=0.15, delta=0.05,
            seed=seed,
        )
        assert abs(result.estimate - truth) <= 0.25 * max(truth, 0.01)

    def test_zero_weight_facts(self):
        probs = {_f(0): Fraction(0)}
        result = karp_luby_probability(DNF([{_f(0)}]), probs, seed=0)
        assert result.estimate == 0.0

    def test_determinism(self):
        query = path_query(2)
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=3, seed=1
        )
        pdb = random_probabilities(instance, seed=1)
        formula = build_lineage(query, instance)
        a = karp_luby_probability(
            formula, pdb.probabilities, seed=5, samples=500
        )
        b = karp_luby_probability(
            formula, pdb.probabilities, seed=5, samples=500
        )
        assert a.estimate == b.estimate

    def test_estimate_never_exceeds_one(self):
        # Two clauses sharing R(b, c): W = 2 · 0.99² ≈ 1.96 while
        # Pr[φ] ≈ 0.99, so W · accepted / samples overshoots 1 whenever
        # a little over half the samples are accepted.
        from repro.core.estimator import PQEEngine
        from repro.queries.parser import parse_query

        pdb = ProbabilisticDatabase({
            Fact("R", pair): Fraction(99, 100)
            for pair in (("a", "b"), ("b", "c"), ("c", "d"))
        })
        query = parse_query("Q :- R(x, y), R(y, z)")
        for seed in range(40):
            answer = PQEEngine(seed=seed).probability(
                query, pdb, method="karp-luby"
            )
            assert 0.0 <= answer.value <= 1.0, seed

    @pytest.mark.parametrize("samples", [0, -3])
    def test_rejects_sample_counts_below_one(self, samples):
        from repro.errors import EstimationError

        with pytest.raises(EstimationError, match="samples must be >= 1"):
            karp_luby_probability(
                DNF([{_f(0)}]), {_f(0): Fraction(1, 2)}, samples=samples
            )
