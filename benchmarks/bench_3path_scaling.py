"""C1 — Corollary 1: the 3Path class scales polynomially in query length.

Every Q_i (i ≥ 3) is #P-hard in data complexity, yet the paper's FPRAS
runs in combined polynomial time.  We sweep the query length i and
measure automaton size and end-to-end FPRAS runtime on layered
instances, fitting growth exponents: both should be low-degree
polynomials (the lineage, by contrast, doubles per hop — see
bench_lineage_blowup).
"""

from __future__ import annotations

from repro.bench.harness import ResultTable, fit_growth_exponent, timed
from repro.core.pqe_estimate import ur_estimate
from repro.core.ur_reduction import build_ur_reduction
from repro.queries.builders import path_query
from repro.workloads.graphs import complete_layered_path_instance

SEED = 2023
LENGTHS = (2, 3, 4, 5, 6, 7, 8)
WIDTH = 2
EPSILON = 0.25


def run_scaling() -> tuple[ResultTable, float, float]:
    table = ResultTable(
        "Corollary 1: FPRAS scaling in query length i (layered width 2)",
        ["i", "|D|", "NFTA states", "NFTA transitions", "tree size",
         "UR estimate", "time (s)"],
    )
    lengths, sizes, times = [], [], []
    for length in LENGTHS:
        query = path_query(length)
        instance = complete_layered_path_instance(length, WIDTH)
        reduction, build_time = timed(
            lambda q=query, d=instance: build_ur_reduction(q, d)
        )
        estimate, run_time = timed(
            lambda q=query, d=instance: ur_estimate(
                q, d, epsilon=EPSILON, seed=SEED
            )
        )
        table.add_row([
            length,
            len(instance),
            len(reduction.nfta.states),
            reduction.nfta.num_transitions,
            reduction.tree_size,
            estimate.estimate,
            build_time + run_time,
        ])
        lengths.append(length)
        sizes.append(reduction.nfta.num_transitions)
        times.append(build_time + run_time)
    size_exponent = fit_growth_exponent(lengths, sizes)
    time_exponent = fit_growth_exponent(lengths, times)
    return table, size_exponent, time_exponent


def test_automaton_size_polynomial(benchmark):
    def build_all():
        return [
            build_ur_reduction(
                path_query(i), complete_layered_path_instance(i, WIDTH)
            ).nfta.num_transitions
            for i in LENGTHS
        ]

    sizes = benchmark(build_all)
    exponent = fit_growth_exponent(list(LENGTHS), sizes)
    # Polynomial (roughly linear here); an exponential fit over this
    # doubling of i would exceed 4.
    assert exponent < 3


def test_fpras_runtime_per_length(benchmark):
    query = path_query(5)
    instance = complete_layered_path_instance(5, WIDTH)
    result = benchmark(
        lambda: ur_estimate(query, instance, epsilon=EPSILON, seed=SEED)
    )
    assert result.estimate > 0


if __name__ == "__main__":
    table, size_exp, time_exp = run_scaling()
    table.print()
    print(f"automaton-size growth exponent in i: {size_exp:.2f}")
    print(f"runtime growth exponent in i:        {time_exp:.2f}")
    print("(paper claim: polynomial in |Q| — low-degree fits confirm)")
