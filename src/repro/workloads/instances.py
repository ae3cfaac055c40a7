"""Instance and probability generators for arbitrary queries.

Given any conjunctive query, :func:`random_instance_for_query` produces
a database over exactly the query's schema; probability assignment is
separate (:func:`random_probabilities`) so benchmarks can reuse one
instance under several labellings.
"""

from __future__ import annotations

import random
from fractions import Fraction

from repro.db.fact import Fact
from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import ReproError
from repro.queries.cq import ConjunctiveQuery

__all__ = [
    "random_instance_for_query",
    "random_probabilities",
    "uniform_half",
]


def random_instance_for_query(
    query: ConjunctiveQuery,
    domain_size: int,
    facts_per_relation: int,
    seed: int | None = None,
    ensure_satisfiable: bool = True,
) -> DatabaseInstance:
    """A random instance over the query's relations.

    Each relation receives ``facts_per_relation`` distinct facts over a
    shared domain of ``domain_size`` constants.  With
    ``ensure_satisfiable`` (default), one canonical homomorphic image of
    the query is injected so UR > 0.
    """
    if domain_size < 1 or facts_per_relation < 0:
        raise ReproError("domain_size >= 1 and facts_per_relation >= 0")
    rng = random.Random(seed)
    constants = [f"c{i}" for i in range(domain_size)]
    facts: set[Fact] = set()
    for atom in query.atoms:
        space = domain_size ** atom.arity
        target = min(facts_per_relation, space)
        chosen: set[tuple] = set()
        while len(chosen) < target:
            chosen.add(
                tuple(rng.choice(constants) for _ in range(atom.arity))
            )
        for constants_tuple in chosen:
            facts.add(Fact(atom.relation, constants_tuple))

    if ensure_satisfiable:
        # Canonical witness: map every variable to a random constant
        # (consistently) and add the induced facts.  Sorted iteration
        # keeps the draws — and therefore the instance — independent of
        # the hash seed: the same (query, seed) must produce the same
        # facts in every process.
        assignment = {
            var: rng.choice(constants)
            for var in sorted(query.variables, key=str)
        }
        for atom in query.atoms:
            facts.add(
                Fact(
                    atom.relation,
                    tuple(assignment[v] for v in atom.args),
                )
            )
    return DatabaseInstance(facts)


def random_probabilities(
    instance: DatabaseInstance,
    seed: int | None = None,
    max_denominator: int = 8,
    include_extremes: bool = False,
) -> ProbabilisticDatabase:
    """Label every fact with a random rational probability.

    Denominators are drawn from ``2 … max_denominator`` and numerators
    uniformly; ``include_extremes`` additionally allows 0 and 1 labels
    (useful for testing the degenerate multiplier branches).
    """
    if max_denominator < 2:
        raise ReproError("max_denominator must be >= 2")
    rng = random.Random(seed)
    labels: dict[Fact, Fraction] = {}
    for fact in instance:
        if include_extremes and rng.random() < 0.1:
            labels[fact] = Fraction(rng.choice((0, 1)))
            continue
        denominator = rng.randint(2, max_denominator)
        numerator = rng.randint(1, denominator - 1)
        labels[fact] = Fraction(numerator, denominator)
    return ProbabilisticDatabase(labels)


def uniform_half(instance: DatabaseInstance) -> ProbabilisticDatabase:
    """Every fact at probability 1/2 — the uniform-reliability setting."""
    return ProbabilisticDatabase.uniform(instance)

