"""RPQ benchmarks — grid scaling, CountNFA vs naive Monte-Carlo, and
the exact product DP vs a frozenset subset sweep.

Three gates for the probabilistic-graph RPQ route
(:func:`~repro.graphs.rpq_probability_estimate`):

1. **Polynomial scaling.**  The layered product + exact CountNFA DP is
   timed over growing :func:`~repro.workloads.grid_graph` instances
   with a corner-to-corner ``(a|b)*`` query; the fitted log-log growth
   exponent in the edge count must stay comfortably polynomial.
2. **FPRAS vs naive Monte-Carlo at ε = 0.1.**  On the largest grid a
   strict query (``a+ b+ a+``) drives the truth down to ~4e-3.  A
   *relative* (ε, δ) guarantee from world sampling then costs
   ``3·ln(2/δ)/(ε²·p)`` product-BFS samples — the 1/p factor is
   exactly why naive Monte-Carlo is not an FPRAS (van Bremen & Meel,
   PODS 2023).  Monte-Carlo cost is projected from a timed pilot
   (running the full schedule would take seconds); the CountNFA route
   must win by ≥ 10×.
3. **Exact DP vs a frozenset sweep.**  On the 8×8 corner-to-corner
   ``(a|b)*`` grid, :meth:`~repro.automata.nfa.NFA.count_exact` (the
   integer subset DP, its compile included) must return the same
   integer as :func:`frozenset_sweep`, the same layered subset
   construction over frozensets of states, at least 3× faster.
"""

from __future__ import annotations

import math

from repro.bench.harness import (
    ResultTable,
    fit_growth_exponent,
    relative_error,
    timed,
)
from repro.graphs import RPQQuery, rpq_monte_carlo, rpq_probability_estimate
from repro.graphs.product import build_rpq_nfa, make_weight_of
from repro.workloads.graphs import grid_graph

SEED = 2023
GRIDS = ((2, 2), (3, 3), (4, 4), (5, 5), (6, 6))
#: Relative accuracy both contenders must certify in the speedup gate.
EPSILON = 0.1
DELTA = 0.05
#: Timed Monte-Carlo pilot used to price one world sample.
PILOT_SAMPLES = 2000
#: Grid side of the exact-DP gate.
DP_GRID = 8


def _corner_query(rows: int, cols: int, regex: str) -> RPQQuery:
    return RPQQuery(regex, "n0_0", f"n{rows - 1}_{cols - 1}")


def _best_of(fn, repeats: int = 3):
    """(result, min wall seconds) — min damps timer noise on sub-ms runs."""
    result, best = timed(fn)
    for _ in range(repeats - 1):
        again, seconds = timed(fn)
        if seconds < best:
            result, best = again, seconds
    return result, best


def run_scaling() -> tuple[ResultTable, float]:
    table = ResultTable(
        "RPQ exact product-DP scaling on grid workloads ((a|b)* corner"
        " to corner)",
        ["grid", "edges", "product states", "Pr", "time (s)"],
    )
    edge_counts, times = [], []
    for rows, cols in GRIDS:
        graph = grid_graph(rows, cols, seed=SEED)
        query = _corner_query(rows, cols, "(a|b)*")
        estimate, seconds = _best_of(
            lambda g=graph, q=query: rpq_probability_estimate(
                g, q, method="exact", seed=SEED
            )
        )
        table.add_row([
            f"{rows}x{cols}",
            len(graph),
            estimate.nfa_states,
            estimate.estimate,
            seconds,
        ])
        edge_counts.append(len(graph))
        times.append(seconds)
    return table, fit_growth_exponent(edge_counts, times)


def naive_monte_carlo_samples(truth: float) -> int:
    """World samples a relative (ε, δ) guarantee costs at probability
    ``truth`` (multiplicative Chernoff) — the 1/p blow-up."""
    return math.ceil(
        3 * math.log(2 / DELTA) / (EPSILON**2 * truth)
    )


def run_speedup() -> tuple[ResultTable, float]:
    rows, cols = GRIDS[-1]
    graph = grid_graph(rows, cols, seed=SEED)
    query = _corner_query(rows, cols, "a+ b+ a+")

    estimate, countnfa_seconds = _best_of(
        lambda: rpq_probability_estimate(
            graph, query, method="auto", epsilon=EPSILON, seed=SEED
        )
    )
    truth = float(estimate.estimate)
    assert estimate.exact and 0 < truth < 0.05, (
        "speedup workload drifted; expected a small exact truth"
    )

    pilot, pilot_seconds = timed(
        lambda: rpq_monte_carlo(
            graph, query, samples=PILOT_SAMPLES, seed=SEED
        )
    )
    per_sample = pilot_seconds / PILOT_SAMPLES
    required = naive_monte_carlo_samples(truth)
    projected = per_sample * required
    speedup = projected / countnfa_seconds

    table = ResultTable(
        f"CountNFA route vs naive Monte-Carlo, {rows}x{cols} grid,"
        f" 'a+ b+ a+', epsilon={EPSILON}",
        ["contender", "samples", "estimate", "rel.err", "time (s)"],
    )
    table.add_row([
        "CountNFA (auto)", estimate.samples_used, truth, 0.0,
        countnfa_seconds,
    ])
    table.add_row([
        f"naive MC (projected from {PILOT_SAMPLES}-sample pilot)",
        required,
        pilot.estimate,
        relative_error(pilot.estimate, truth),
        projected,
    ])
    return table, speedup


def frozenset_sweep(nfa, length: int, weight_of) -> int:
    """The weighted ``|L_n|`` by a layered subset sweep whose subsets
    are frozensets of states and whose moves are :meth:`NFA.move` — the
    exact DP's algorithm before its integer form, kept as the gate's
    baseline."""
    level = {nfa.initial: 1}
    for _ in range(length):
        nxt: dict = {}
        for subset, count in level.items():
            symbols: set = set()
            for state in subset:
                symbols.update(nfa.successors(state))
            for symbol in symbols:
                weight = weight_of(symbol)
                if not weight:
                    continue
                target = nfa.move(subset, symbol)
                if target:
                    nxt[target] = nxt.get(target, 0) + weight * count
        level = nxt
        if not level:
            return 0
    return sum(
        count for subset, count in level.items() if subset & nfa.accepting
    )


def run_exact_dp_speedup(repeats: int = 3) -> tuple[ResultTable, float]:
    graph = grid_graph(DP_GRID, DP_GRID, seed=SEED)
    query = _corner_query(DP_GRID, DP_GRID, "(a|b)*")
    weight_of = make_weight_of(graph)
    sweep_best = dp_best = math.inf
    for _ in range(repeats):
        # A fresh product each time, so the DP pays its compile.
        reduction = build_rpq_nfa(graph, query)
        nfa, length = reduction.nfa, reduction.string_length
        expected, seconds = timed(
            lambda: frozenset_sweep(nfa, length, weight_of)
        )
        sweep_best = min(sweep_best, seconds)
        measure, seconds = timed(
            lambda: nfa.count_exact(length, weight_of=weight_of)
        )
        dp_best = min(dp_best, seconds)
        assert measure == expected, "the exact DP and the sweep disagree"
    table = ResultTable(
        f"Exact product DP vs frozenset subset sweep, {DP_GRID}x{DP_GRID}"
        f" grid, '(a|b)*' corner to corner (best of {repeats})",
        ["counter", "product states", "layers", "time (s)"],
    )
    table.add_row([
        "frozenset sweep", reduction.nfa_states, length, sweep_best,
    ])
    table.add_row([
        "NFA.count_exact", reduction.nfa_states, length, dp_best,
    ])
    return table, sweep_best / dp_best


def test_grid_scaling_is_polynomial():
    _table, exponent = run_scaling()
    # Layered DP is low-order polynomial in the edge count; 4 leaves
    # generous slack for the timer noise floor on the smallest grids.
    assert exponent < 4


def test_countnfa_beats_naive_monte_carlo_10x():
    _table, speedup = run_speedup()
    assert speedup >= 10


def test_exact_dp_speedup():
    _table, speedup = run_exact_dp_speedup()
    assert speedup >= 3


def test_largest_grid_exact_run(benchmark):
    rows, cols = GRIDS[-1]
    graph = grid_graph(rows, cols, seed=SEED)
    query = _corner_query(rows, cols, "(a|b)*")
    estimate = benchmark(
        lambda: rpq_probability_estimate(
            graph, query, method="exact", seed=SEED
        )
    )
    assert estimate.exact and 0 <= estimate.estimate <= 1


if __name__ == "__main__":
    table, exponent = run_scaling()
    table.print()
    print(f"runtime growth exponent in edge count: {exponent:.2f}")
    print()
    table, speedup = run_speedup()
    table.print()
    print(f"CountNFA speedup over naive Monte-Carlo: {speedup:.0f}x")
    print("(naive MC pays a 1/p factor for relative accuracy; the")
    print(" CountNFA route does not — that is the FPRAS claim)")
    print()
    table, speedup = run_exact_dp_speedup()
    table.print()
    print(f"exact DP speedup over the frozenset sweep: {speedup:.1f}x")
