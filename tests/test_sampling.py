"""Tests for almost-uniform sampling of satisfying subinstances."""

from collections import Counter

import pytest

from repro.automata.nfa import NFA
from repro.automata.nfa_counting import sample_accepted_strings
from repro.automata.nfta import NFTA
from repro.automata.nfta_counting import sample_accepted_trees
from repro.core.sampling import (
    sample_posterior_worlds,
    sample_satisfying_subinstances,
)
from repro.db.fact import Fact
from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.db.semantics import satisfies
from repro.errors import EstimationError
from repro.queries.builders import path_query, star_query
from repro.workloads.graphs import layered_path_instance
from repro.workloads.instances import (
    random_instance_for_query,
    random_probabilities,
)


_INSTANCE = layered_path_instance(2, 2, 0.7, seed=1)

#: Every k-draw entry point, as ``(size, epsilon, k) -> draws``; only
#: the automaton samplers take a size.
_ENTRY_POINTS = {
    "strings": lambda size, epsilon, k: sample_accepted_strings(
        NFA([(0, "a", 0), (0, "b", 0)], initial=[0], accepting=[0]),
        size, k, epsilon=epsilon, seed=0,
    ),
    "trees": lambda size, epsilon, k: sample_accepted_trees(
        NFTA([("q", "a", ()), ("q", "a", ("q", "q"))], initial="q"),
        size, k, epsilon=epsilon, seed=0,
    ),
    "subinstances": lambda size, epsilon, k: sample_satisfying_subinstances(
        path_query(2), _INSTANCE, k, epsilon=epsilon, seed=0
    ),
    "posterior": lambda size, epsilon, k: sample_posterior_worlds(
        path_query(2), ProbabilisticDatabase.uniform(_INSTANCE), k,
        epsilon=epsilon, seed=0,
    ),
}

_BAD_ARGUMENTS = [
    (entry, 3, epsilon, 2, "epsilon must be in (0, 1)")
    for entry in _ENTRY_POINTS
    for epsilon in (0, 1, 1.5, -0.5)
] + [
    ("strings", -1, 0.25, 2, "length must be >= 0, got -1"),
    ("trees", -1, 0.25, 2, "empty"),
] + [
    (entry, 3, 0.25, -2, "k must be >= 0, got -2")
    for entry in _ENTRY_POINTS
]


@pytest.mark.parametrize(
    "entry, size, epsilon, k, message",
    _BAD_ARGUMENTS,
    # Named without k, which the message of a bad k names.
    ids=[
        f"{entry}-{size}-{epsilon}-{message}"
        for entry, size, epsilon, _k, message in _BAD_ARGUMENTS
    ],
)
def test_entry_points_check_their_arguments(
    entry, size, epsilon, k, message
):
    """The k-draw entry points reject what the counters reject, with an
    :class:`EstimationError` before any sampling — not a bare
    ``ZeroDivisionError``, a silent bad ε, (a negative word length)
    a plan that never ends, or (a negative k) a whole node DAG built
    for no draw."""
    with pytest.raises(EstimationError) as failure:
        _ENTRY_POINTS[entry](size, epsilon, k)
    assert message in str(failure.value)


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_zero_draws_return_nothing(entry):
    assert _ENTRY_POINTS[entry](3, 0.25, 0) == []


class TestUniformSampling:
    def test_samples_satisfy_query(self):
        query = path_query(2)
        instance = layered_path_instance(2, 2, 0.7, seed=1)
        samples = sample_satisfying_subinstances(
            query, instance, k=30, seed=0
        )
        assert len(samples) == 30
        for subset in samples:
            assert subset <= instance.facts
            assert satisfies(DatabaseInstance(subset), query)

    def test_samples_cover_small_space(self):
        # Tiny instance: R1(a,b), R2(b,c). Satisfying subinstances are
        # {both} only -> one world... add a second independent R1 fact:
        instance = DatabaseInstance(
            [
                Fact("R1", ("a", "b")),
                Fact("R1", ("x", "y")),  # never joins
                Fact("R2", ("b", "c")),
            ]
        )
        query = path_query(2)
        # Satisfying subinstances: must contain R1(a,b) and R2(b,c);
        # R1(x,y) free → 2 worlds.
        samples = sample_satisfying_subinstances(
            query, instance, k=100, seed=3, exact_set_cap=0
        )
        distinct = set(samples)
        assert len(distinct) == 2

    def test_roughly_uniform_on_tiny_space(self):
        instance = DatabaseInstance(
            [
                Fact("R1", ("a", "b")),
                Fact("R1", ("x", "y")),
                Fact("R2", ("b", "c")),
            ]
        )
        query = path_query(2)
        samples = sample_satisfying_subinstances(
            query, instance, k=400, seed=5, exact_set_cap=0
        )
        counts = Counter(samples)
        frequencies = [c / len(samples) for c in counts.values()]
        # Two equally-likely worlds: each should be near 1/2.
        assert all(0.3 < f < 0.7 for f in frequencies)

    def test_star_query_sampling(self):
        query = star_query(2)
        instance = random_instance_for_query(query, 2, 2, seed=2)
        samples = sample_satisfying_subinstances(
            query, instance, k=20, seed=1
        )
        for subset in samples:
            assert satisfies(DatabaseInstance(subset), query)

    def test_unsatisfiable_raises(self):
        instance = DatabaseInstance([Fact("R1", ("a", "b"))])
        with pytest.raises(EstimationError):
            sample_satisfying_subinstances(
                path_query(2), instance, k=5, seed=0
            )


class TestPosteriorSampling:
    def test_samples_satisfy_query(self):
        query = path_query(2)
        instance = layered_path_instance(2, 2, 0.7, seed=4)
        pdb = random_probabilities(instance, seed=5, max_denominator=3)
        samples = sample_posterior_worlds(query, pdb, k=25, seed=6)
        assert len(samples) == 25
        for subset in samples:
            assert satisfies(DatabaseInstance(subset), query)

    def test_posterior_biased_toward_likely_worlds(self):
        # Two disjoint witnesses; one far more probable than the other.
        facts = {
            Fact("R1", ("a", "b")): "9/10",
            Fact("R2", ("b", "c")): "9/10",
            Fact("R1", ("x", "y")): "1/10",
            Fact("R2", ("y", "z")): "1/10",
        }
        pdb = ProbabilisticDatabase(facts)
        query = path_query(2)
        samples = sample_posterior_worlds(
            query, pdb, k=300, seed=7, exact_set_cap=0
        )
        likely_path = {Fact("R1", ("a", "b")), Fact("R2", ("b", "c"))}
        unlikely_path = {Fact("R1", ("x", "y")), Fact("R2", ("y", "z"))}
        with_likely = sum(1 for s in samples if likely_path <= s)
        with_unlikely = sum(1 for s in samples if unlikely_path <= s)
        assert with_likely > 3 * with_unlikely


class TestPosteriorDistribution:
    def test_total_variation_against_exact_conditional(self):
        """Empirical posterior vs the exact conditional distribution."""
        from collections import Counter
        from fractions import Fraction

        facts = {
            Fact("R1", ("a", "b")): Fraction(2, 3),
            Fact("R2", ("b", "c")): Fraction(1, 2),
            Fact("R1", ("x", "y")): Fraction(1, 3),
            Fact("R2", ("y", "z")): Fraction(1, 2),
        }
        pdb = ProbabilisticDatabase(facts)
        query = path_query(2)

        # Exact conditional over satisfying subinstances.
        exact: dict[frozenset, Fraction] = {}
        total = Fraction(0)
        for subset in pdb.instance.subinstances():
            if not subset:
                continue
            if satisfies(DatabaseInstance(subset), query):
                weight = pdb.subinstance_probability(subset)
                exact[subset] = weight
                total += weight
        exact = {world: w / total for world, w in exact.items()}

        k = 2000
        samples = sample_posterior_worlds(
            query, pdb, k=k, seed=11, exact_set_cap=0
        )
        empirical = Counter(samples)
        tv = sum(
            abs(empirical.get(world, 0) / k - float(probability))
            for world, probability in exact.items()
        ) / 2
        # Generous envelope: sampling + estimator bias.
        assert tv < 0.1, tv

    def test_uniform_sampler_total_variation(self):
        from collections import Counter

        instance = DatabaseInstance(
            [
                Fact("R1", ("a", "b")),
                Fact("R2", ("b", "c")),
                Fact("R1", ("x", "y")),
                Fact("R2", ("y", "z")),
            ]
        )
        query = path_query(2)
        satisfying = [
            subset
            for subset in instance.subinstances()
            if subset and satisfies(DatabaseInstance(subset), query)
        ]
        k = 2000
        samples = sample_satisfying_subinstances(
            query, instance, k=k, seed=13, exact_set_cap=0
        )
        empirical = Counter(samples)
        uniform = 1 / len(satisfying)
        tv = sum(
            abs(empirical.get(world, 0) / k - uniform)
            for world in satisfying
        ) / 2
        assert tv < 0.1, tv
