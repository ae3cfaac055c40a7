"""Golden regression corpus: frozen exact answers for 20 workloads.

``tests/golden/corpus.json`` pins the exact probability ``Pr_H(Q)``
(as a ``p/q`` rational string) and the exact uniform reliability
``UR(Q, D)`` for 20 deterministic (query, instance) pairs built from
:mod:`repro.workloads` — path, star, warehouse, and mixed-arity shapes
with rational probability labels.  Any change anywhere in the pipeline
that shifts one of these values — parser, reduction, decomposition,
lineage, counting kernels — fails here with a precise diff.

The frozen quantities are exact rationals, which are sums over
subinstances and therefore independent of iteration order, hash seed,
worker count, and kernel backend — so this file is stable across
machines and ``PYTHONHASHSEED`` values by construction.

Refreshing after an *intentional* semantic change::

    PYTHONPATH=src python -m pytest tests/test_golden_corpus.py \
        --update-golden

rewrites ``corpus.json`` from the current implementation; review the
diff like any other code change.
"""

from __future__ import annotations

import json
import pathlib
from fractions import Fraction

import pytest

from repro.core.exact import exact_probability, exact_uniform_reliability
from repro.core.pqe_estimate import pqe_estimate
from repro.queries.builders import path_query, star_query, triangle_query
from repro.queries.parser import parse_query
from repro.workloads import (
    random_instance_for_query,
    random_probabilities,
    warehouse_instance,
    warehouse_query,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "corpus.json"

#: Cases small enough that the Theorem 1 exact-weighted automaton route
#: is cheap; these cross-check the frozen value through the *entire*
#: reduction + counting-kernel pipeline on both backends.
AUTOMATON_CHECKED = frozenset({
    "path2-a", "path2-b", "star2-a", "rs-a", "rs-b", "mixed-a",
})


def _corpus_cases():
    """The 20 deterministic (name, query, pdb, instance) pairs."""
    cases = []

    def add(name, query, seed, domain_size=2, facts=3, max_denominator=5):
        instance = random_instance_for_query(
            query, domain_size=domain_size, facts_per_relation=facts,
            seed=seed,
        )
        pdb = random_probabilities(
            instance, seed=seed, max_denominator=max_denominator
        )
        cases.append((name, query, pdb, instance))

    rs = parse_query("Q :- R(x, y), S(y, z)")
    mixed = parse_query("Q :- R(x), S(x, y), T(y, x)")
    selfjoin = parse_query("Q :- E(x, y), E(y, z)")

    add("path2-a", path_query(2), seed=101)
    add("path2-b", path_query(2), seed=102, domain_size=3, facts=4)
    add("path3-a", path_query(3), seed=103)
    add("path3-b", path_query(3), seed=104, domain_size=3, facts=4)
    add("star2-a", star_query(2), seed=105)
    add("star2-b", star_query(2), seed=106, domain_size=3, facts=4)
    add("star3-a", star_query(3), seed=107)
    add("star3-b", star_query(3), seed=108, domain_size=3, facts=3)
    add("rs-a", rs, seed=109)
    add("rs-b", rs, seed=110, domain_size=3, facts=4)
    add("mixed-a", mixed, seed=111)
    add("mixed-b", mixed, seed=112, domain_size=3, facts=4)
    add("triangle-a", triangle_query(), seed=113)
    add("triangle-b", triangle_query(), seed=114, domain_size=3, facts=4)
    add("selfjoin-a", selfjoin, seed=115)
    add("selfjoin-b", selfjoin, seed=116, domain_size=3, facts=4)
    add("path4-a", path_query(4), seed=117)
    add("star2-c", star_query(2), seed=118, domain_size=2, facts=4,
        max_denominator=8)
    for seed in (119, 120):
        pdb = warehouse_instance(
            customers=3, products=3, sales=4, seed=seed
        )
        cases.append(
            (f"warehouse-{seed}", warehouse_query(), pdb, pdb.instance)
        )
    return cases


def _evaluate(query, pdb, instance) -> dict:
    return {
        "query": str(query),
        "facts": len(instance),
        "probability": str(exact_probability(query, pdb, method="lineage")),
        "uniform_reliability": str(
            exact_uniform_reliability(query, instance, method="lineage")
        ),
    }


def _current_corpus() -> dict:
    return {
        name: _evaluate(query, pdb, instance)
        for name, query, pdb, instance in _corpus_cases()
    }


def test_corpus_has_twenty_pairs():
    assert len(_corpus_cases()) == 20


def test_golden_corpus_matches(update_golden):
    current = _current_corpus()
    if update_golden:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    assert GOLDEN_PATH.exists(), (
        "tests/golden/corpus.json is missing; generate it with "
        "pytest tests/test_golden_corpus.py --update-golden"
    )
    frozen = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert current == frozen, (
        "exact answers drifted from tests/golden/corpus.json; if the "
        "change is intentional, refresh with --update-golden and review "
        "the diff"
    )


@pytest.mark.parametrize("backend", ["reference", "optimized", "vectorized"])
def test_golden_values_through_the_automaton_route(backend):
    """The frozen lineage values re-derived end to end through the
    Theorem 1 reduction and the exact-weighted counting kernels."""
    frozen = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    checked = 0
    for name, query, pdb, _instance in _corpus_cases():
        if name not in AUTOMATON_CHECKED:
            continue
        expected = Fraction(frozen[name]["probability"])
        estimate = pqe_estimate(
            query, pdb, method="exact-weighted", backend=backend
        )
        assert estimate.exact
        assert estimate.estimate == pytest.approx(float(expected), abs=1e-12)
        checked += 1
    assert checked == len(AUTOMATON_CHECKED)
