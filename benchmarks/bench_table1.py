"""T1 — Table 1 of the paper: the combined tractability landscape.

Reproduces the two bolded cells (this paper's contribution) and the two
prior-result cells that are computable, by running each designated
method on representative queries and cross-checking against ground
truth:

  row 1  bounded HW, SJF, safe     → FP exactly (lifted safe plan) +
                                     FPRAS
  row 2  bounded HW, SJF, unsafe   → #P-hard exactly, but FPRAS works
  row 3  unbounded HW, SJF, safe   → FP exactly (lifted safe plan);
                                     combined FPRAS open — we show the
                                     safe plan
  row 4  self-joins                → outside the FPRAS; lineage methods

"Works" means: the method's answer lies within the configured envelope
of brute-force enumeration on instances small enough to enumerate.
"""

from __future__ import annotations

from repro.bench.harness import ResultTable, relative_error
from repro.core.estimator import PQEEngine
from repro.core.exact import exact_probability
from repro.core.pqe_estimate import pqe_estimate
from repro.db.probabilistic import ProbabilisticDatabase
from repro.queries.builders import path_query, star_query
from repro.queries.parser import parse_query
from repro.queries.properties import is_hierarchical
from repro.queries.lifted import lifted_probability
from repro.workloads.instances import (
    random_instance_for_query,
    random_probabilities,
)

SEED = 2023
EPSILON = 0.2

# Row 4's representative: a self-join two-path.
SELF_JOIN_QUERY = parse_query("R(x, y), R(y, z)")


def _workload(query, seed, facts=2):
    instance = random_instance_for_query(
        query, domain_size=2, facts_per_relation=facts, seed=seed
    )
    return random_probabilities(instance, seed=seed, max_denominator=4)


def run_table1() -> ResultTable:
    table = ResultTable(
        "Table 1: PQE tractability landscape (measured)",
        [
            "row", "query", "boundedHW", "SJF", "safe",
            "method", "Pr(measured)", "Pr(exact)", "rel.err",
        ],
    )

    # Row 1: safe SJF bounded-HW — exact lifted plan and the FPRAS.
    query = star_query(2)
    pdb = _workload(query, SEED)
    truth = float(exact_probability(query, pdb, method="enumerate"))
    safe_value = float(lifted_probability(query, pdb))
    table.add_row([
        1, "R1(c,y1),R2(c,y2)", "yes", "yes",
        "yes" if is_hierarchical(query) else "no",
        "lifted (FP)", safe_value, truth,
        relative_error(safe_value, truth),
    ])
    fpras = pqe_estimate(
        query, pdb, epsilon=EPSILON, seed=SEED, repetitions=3
    ).estimate
    table.add_row([
        1, "R1(c,y1),R2(c,y2)", "yes", "yes", "yes",
        "FPRAS (this paper)", fpras, truth,
        relative_error(fpras, truth),
    ])

    # Row 2: unsafe SJF bounded-HW — the paper's new cell.
    query = path_query(3)
    pdb = _workload(query, SEED + 1)
    truth = float(exact_probability(query, pdb, method="enumerate"))
    fpras = pqe_estimate(
        query, pdb, epsilon=EPSILON, seed=SEED, repetitions=3
    ).estimate
    table.add_row([
        2, "3Path member Q3", "yes", "yes",
        "yes" if is_hierarchical(query) else "no",
        "FPRAS (this paper)", fpras, truth,
        relative_error(fpras, truth),
    ])

    # Row 3: a safe query evaluated by its lifted plan on a larger
    # instance (the combined-FPRAS cell is open; FP data complexity
    # still holds).
    query = star_query(3)
    pdb = _workload(query, SEED + 2, facts=3)
    truth = float(exact_probability(query, pdb, method="lineage"))
    safe_value = float(lifted_probability(query, pdb))
    table.add_row([
        3, "R1..R3 star", "yes", "yes", "yes",
        "lifted (FP)", safe_value, truth,
        relative_error(safe_value, truth),
    ])

    # Row 4: self-join — FPRAS inapplicable, intensional route.
    pdb = _workload(SELF_JOIN_QUERY, SEED + 3)
    truth = float(exact_probability(SELF_JOIN_QUERY, pdb, method="enumerate"))
    engine = PQEEngine(seed=SEED, epsilon=EPSILON)
    answer = engine.probability(SELF_JOIN_QUERY, pdb)
    table.add_row([
        4, "R(x,y),R(y,z)", "yes", "no", "n/a",
        answer.method, answer.value, truth,
        relative_error(answer.value, truth),
    ])
    return table


# ---------------------------------------------------------------------
# pytest-benchmark targets
# ---------------------------------------------------------------------

def test_row1_lifted_plan(benchmark):
    query = star_query(2)
    pdb = _workload(query, SEED)
    value = benchmark(lambda: lifted_probability(query, pdb))
    assert 0 <= value <= 1


def test_row2_fpras_on_unsafe_query(benchmark):
    query = path_query(3)
    pdb = _workload(query, SEED + 1)
    truth = float(exact_probability(query, pdb, method="lineage"))
    result = benchmark(
        lambda: pqe_estimate(query, pdb, epsilon=EPSILON, seed=SEED)
    )
    assert result.estimate == __import__("pytest").approx(
        truth, rel=0.5, abs=0.05
    )


def test_table1_renders():
    table = run_table1()
    text = table.render()
    assert "FPRAS (this paper)" in text


if __name__ == "__main__":
    run_table1().print()
