"""Safe-plan tests: Dalvi–Suciu exact evaluation through the lifted router.

These pin the Table 1 FP rows (hierarchical self-join-free CQs) on
:func:`repro.queries.lifted.lifted_probability`: unsafe queries raise
:class:`~repro.errors.UnsafeQueryError`, self-joins the rules cannot
lift raise :class:`~repro.errors.UnknownSafetyError` (both are
:class:`~repro.errors.QueryError`), and safe answers equal brute-force
enumeration exactly.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import exact_probability
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import QueryError, UnknownSafetyError, UnsafeQueryError
from repro.queries.builders import (
    hierarchical_star_query,
    path_query,
    star_query,
)
from repro.queries.parser import parse_query
from repro.queries.lifted import lifted_probability
from repro.workloads.instances import (
    random_instance_for_query,
    random_probabilities,
)


class TestValidation:
    def test_rejects_self_join(self):
        q = parse_query("R(x, y), R(y, z)")
        pdb = ProbabilisticDatabase({Fact("R", ("a", "b")): "1/2"})
        with pytest.raises(UnknownSafetyError) as raised:
            lifted_probability(q, pdb)
        assert isinstance(raised.value, QueryError)

    def test_rejects_unsafe_query(self):
        q = parse_query("R(x), S(x, y), T(y)")
        pdb = ProbabilisticDatabase(
            {
                Fact("R", ("a",)): "1/2",
                Fact("S", ("a", "b")): "1/2",
                Fact("T", ("b",)): "1/2",
            }
        )
        with pytest.raises(UnsafeQueryError) as raised:
            lifted_probability(q, pdb)
        assert isinstance(raised.value, QueryError)

    def test_rejects_3path(self):
        q = path_query(3)
        pdb = ProbabilisticDatabase(
            {Fact(f"R{i}", ("a", "b")): "1/2" for i in (1, 2, 3)}
        )
        with pytest.raises(UnsafeQueryError):
            lifted_probability(q, pdb)


class TestCorrectness:
    def test_single_atom(self):
        q = parse_query("R(x, y)")
        pdb = ProbabilisticDatabase(
            {
                Fact("R", ("a", "b")): Fraction(1, 2),
                Fact("R", ("c", "d")): Fraction(1, 3),
            }
        )
        # 1 − (1/2)(2/3) = 2/3.
        assert lifted_probability(q, pdb) == Fraction(2, 3)

    def test_no_facts(self):
        q = parse_query("R(x)")
        pdb = ProbabilisticDatabase({Fact("S", ("a",)): "1/2"})
        assert lifted_probability(q, pdb) == 0

    def test_disconnected_query_multiplies(self):
        q = parse_query("R(x), S(y)")
        pdb = ProbabilisticDatabase(
            {Fact("R", ("a",)): "1/2", Fact("S", ("b",)): "1/3"}
        )
        assert lifted_probability(q, pdb) == Fraction(1, 6)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_matches_enumeration_on_safe_queries(self, seed):
        rng = random.Random(seed)
        query = rng.choice(
            [
                star_query(2),
                star_query(3),
                hierarchical_star_query(2),
                path_query(2),
                parse_query("R(x, y), S(x)"),
            ]
        )
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=2, seed=seed
        )
        if len(instance) > 11:
            return
        pdb = random_probabilities(
            instance, seed=seed, max_denominator=4, include_extremes=True
        )
        assert lifted_probability(query, pdb) == exact_probability(
            query, pdb, method="enumerate"
        )

    def test_polynomial_scaling_sanity(self):
        # The safe plan must handle instances far beyond enumeration.
        query = star_query(3)
        instance = random_instance_for_query(
            query, domain_size=10, facts_per_relation=60, seed=0
        )
        pdb = random_probabilities(instance, seed=1)
        value = lifted_probability(query, pdb)
        assert 0 <= value <= 1

    def test_repeated_variable_atom(self):
        q = parse_query("R(x, x)")
        pdb = ProbabilisticDatabase(
            {
                Fact("R", ("a", "a")): Fraction(1, 2),
                Fact("R", ("a", "b")): Fraction(1, 2),
            }
        )
        assert lifted_probability(q, pdb) == exact_probability(
            q, pdb, method="enumerate"
        )
