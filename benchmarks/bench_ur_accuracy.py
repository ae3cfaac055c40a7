"""A2 — Theorem 3: UREstimate accuracy beyond path queries.

Exercises the general Proposition 1 construction (not the Section 3
NFA) on stars, branching trees, a ternary chain, and the width-2
triangle — measuring realized relative error of the FPRAS against exact
uniform reliability.
"""

from __future__ import annotations

from repro.bench.harness import ResultTable, relative_error
from repro.core.exact import exact_uniform_reliability
from repro.core.pqe_estimate import ur_estimate
from repro.queries.builders import (
    branching_tree_query,
    chain_query,
    path_query,
    star_query,
    triangle_query,
)
from repro.workloads.instances import random_instance_for_query

SEED = 2023
EPSILON = 0.25

FAMILIES = [
    ("path Q3 (htw 1)", path_query(3), 3, 3),
    ("star 3 arms (htw 1)", star_query(3), 2, 3),
    ("binary tree depth 2 (htw 1)", branching_tree_query(2, 2), 2, 2),
    ("ternary chain (htw 1)", chain_query(2, 3), 2, 3),
    ("triangle (htw 2)", triangle_query(), 2, 3),
]


def run_accuracy() -> ResultTable:
    table = ResultTable(
        "Theorem 3 accuracy across query families (epsilon=0.25)",
        ["family", "|D|", "UR exact", "UR estimate", "rel.err",
         "NFTA transitions"],
    )
    for name, query, domain, facts in FAMILIES:
        instance = random_instance_for_query(
            query, domain_size=domain, facts_per_relation=facts, seed=SEED
        )
        truth = exact_uniform_reliability(query, instance, method="lineage")
        result = ur_estimate(
            query, instance, epsilon=EPSILON, seed=SEED,
            exact_set_cap=0, repetitions=3,
        )
        table.add_row([
            name,
            len(instance),
            truth,
            result.estimate,
            relative_error(result.estimate, truth),
            result.nfta_transitions,
        ])
    return table


def test_star_ur(benchmark):
    query = star_query(3)
    instance = random_instance_for_query(query, 2, 3, seed=SEED)
    truth = exact_uniform_reliability(query, instance, method="lineage")
    result = benchmark(
        lambda: ur_estimate(query, instance, epsilon=EPSILON, seed=SEED)
    )
    assert relative_error(result.estimate, truth) < 0.5


def test_triangle_ur(benchmark):
    query = triangle_query()
    instance = random_instance_for_query(query, 2, 3, seed=SEED)
    truth = exact_uniform_reliability(query, instance, method="lineage")
    result = benchmark(
        lambda: ur_estimate(query, instance, epsilon=EPSILON, seed=SEED)
    )
    assert relative_error(result.estimate, truth) < 0.5


def test_all_families_within_envelope():
    for name, query, domain, facts in FAMILIES:
        instance = random_instance_for_query(
            query, domain_size=domain, facts_per_relation=facts, seed=SEED
        )
        truth = exact_uniform_reliability(query, instance, method="lineage")
        result = ur_estimate(
            query, instance, epsilon=EPSILON, seed=SEED,
            exact_set_cap=0, repetitions=3,
        )
        assert relative_error(result.estimate, truth) < 2 * EPSILON, name


if __name__ == "__main__":
    run_accuracy().print()
