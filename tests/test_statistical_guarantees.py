"""Empirical (ε, δ) checks for the randomized estimators.

The paper's Theorems 1 and 3 promise ``Pr[|est − truth| ≤ ε·truth] ≥
1 − δ`` (with δ = 1/4 before median amplification).  These tests
measure that guarantee directly: ≥ 30 independent seeded trials of the
FPRAS on small instances whose exact answers come from an independent
evaluator, forced into the genuinely-sampled regime with
``exact_set_cap=0`` (otherwise the hybrid counter answers small
instances exactly and the trials would be vacuous).

Every trial seed is fixed, so the empirical failure counts are
reproducible — the suite is slow, not flaky.  It runs in its own CI
job via ``-m statistical``.
"""

import statistics

import pytest

from repro.core.exact import exact_probability, exact_uniform_reliability
from repro.core.monte_carlo import monte_carlo_probability
from repro.core.path_estimate import path_pqe_estimate
from repro.core.pqe_estimate import pqe_estimate, ur_estimate
from repro.db.fact import Fact
from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.lineage.build import build_lineage
from repro.lineage.karp_luby import karp_luby_probability
from repro.queries.parser import parse_query

pytestmark = pytest.mark.statistical

TRIALS = 30
EPSILON = 0.3
DELTA = 0.25          # the pre-amplification guarantee of Theorems 1/3

QUERY = parse_query("Q :- R1(x, y), R2(y, z)")

# Two join paths a→d plus dangling facts: ambiguous enough that the
# counter's union estimator actually samples, small enough that exact
# lineage/enumeration ground truth is instant.
PDB = ProbabilisticDatabase({
    Fact("R1", ("a", "b")): "1/2",
    Fact("R1", ("a", "c")): "2/3",
    Fact("R2", ("b", "d")): "3/4",
    Fact("R2", ("c", "d")): "2/5",
    Fact("R1", ("e", "b")): "1/3",
    Fact("R2", ("b", "f")): "1/2",
})

INSTANCE = DatabaseInstance([
    Fact("R1", ("a", "b")), Fact("R1", ("a", "c")),
    Fact("R2", ("b", "d")), Fact("R2", ("c", "d")),
    Fact("R2", ("b", "e")),
])


#: The approximate PQE routes checked on QUERY over PDB: the weighted
#: tree measure, the gadget automaton of Theorem 1 (the route ``auto``
#: serves), PathEstimate's weighted string measure (Theorem 2) and
#: Karp–Luby over the 5-clause lineage (the self-join route).
ROUTES = pytest.mark.parametrize(
    "route", ["fpras-weighted", "fpras", "path-fpras", "karp-luby"]
)


def _run(route: str, seed: int, repetitions: int = 1):
    if route == "path-fpras":
        return path_pqe_estimate(
            QUERY, PDB, epsilon=EPSILON, seed=seed, exact_set_cap=0,
            repetitions=repetitions,
        )
    if route == "karp-luby":
        projected = PDB.project_to_query(QUERY)
        return karp_luby_probability(
            build_lineage(QUERY, projected.instance),
            projected.probabilities, epsilon=EPSILON, seed=seed,
        )
    return pqe_estimate(
        QUERY, PDB, epsilon=EPSILON, seed=seed, method=route,
        exact_set_cap=0, repetitions=repetitions,
    )


def _pqe_trial(seed: int, repetitions: int = 1) -> float:
    return _run("fpras-weighted", seed, repetitions).estimate


@ROUTES
def test_trials_are_really_sampled(route):
    result = _run(route, seed=0)
    if route == "karp-luby":
        # Never exact: the estimate is an acceptance rate.
        assert 0 < result.accepted < result.samples
        return
    assert not result.exact
    assert result.count_result.samples_used > 0


@ROUTES
def test_pqe_fpras_meets_epsilon_delta_empirically(route):
    truth = float(exact_probability(QUERY, PDB, method="lineage"))
    estimates = [_run(route, seed).estimate for seed in range(TRIALS)]
    assert all(0.0 <= estimate <= 1.0 for estimate in estimates)
    failures = sum(
        1 for estimate in estimates
        if abs(estimate - truth) > EPSILON * truth
    )
    assert failures / TRIALS <= DELTA


def test_monte_carlo_meets_its_additive_bound_empirically():
    # Monte-Carlo promises additive error only; the engine runs it at
    # ε/4, so |est − truth| ≤ ε/4 must hold in ≥ 95% of trials.
    truth = float(exact_probability(QUERY, PDB, method="lineage"))
    failures = sum(
        1 for seed in range(TRIALS)
        if abs(
            monte_carlo_probability(
                QUERY, PDB, epsilon=EPSILON / 4, seed=seed
            ).estimate - truth
        ) > EPSILON / 4
    )
    assert failures / TRIALS <= 0.05


def test_ur_fpras_meets_epsilon_delta_empirically():
    truth = exact_uniform_reliability(
        QUERY, INSTANCE, method="enumerate"
    )
    failures = 0
    for seed in range(TRIALS):
        estimate = ur_estimate(
            QUERY, INSTANCE, epsilon=EPSILON, seed=seed, exact_set_cap=0,
        ).estimate
        assert estimate >= 0
        if abs(estimate - truth) > EPSILON * truth:
            failures += 1
    assert failures / TRIALS <= DELTA


def test_pqe_fpras_is_centered_on_the_truth():
    # The estimator is (nearly) unbiased, so the trial mean must sit
    # well inside the single-trial envelope.
    truth = float(exact_probability(QUERY, PDB, method="lineage"))
    mean = statistics.fmean(_pqe_trial(seed) for seed in range(TRIALS))
    assert abs(mean - truth) <= (EPSILON / 2) * truth


def test_median_amplification_does_not_degrade():
    # Median-of-k can only sharpen the tail: amplified trials must fail
    # at most as often as single runs on the same seeds.
    truth = float(exact_probability(QUERY, PDB, method="lineage"))

    def failures(repetitions: int) -> int:
        return sum(
            1 for seed in range(TRIALS)
            if abs(_pqe_trial(seed, repetitions) - truth) > EPSILON * truth
        )

    assert failures(3) <= failures(1) + 1


# ---------------------------------------------------------------------
# RPQ FPRAS over probabilistic graphs (see docs/graphs.md)
# ---------------------------------------------------------------------

from repro.core.estimator import PQEEngine               # noqa: E402
from repro.graphs import (                               # noqa: E402
    rpq_brute_force,
    rpq_probability_estimate,
)
from repro.workloads import grid_graph, rpq_workloads    # noqa: E402

RPQ_TRIALS = 200
RPQ_EPSILON = 0.3

#: grid23-ab from the pinned workload corpus: 7 relevant edges, so the
#: brute-force truth is instant, and the regex forces genuine Karp–Luby
#: unions in the product counter.
_RPQ_NAME, _RPQ_GRAPH, _RPQ_QUERY = next(
    case for case in rpq_workloads() if case[0] == "grid23-ab"
)


def _rpq_trial(seed: int, epsilon: float = RPQ_EPSILON,
               repetitions: int = 1) -> float:
    return rpq_probability_estimate(
        _RPQ_GRAPH, _RPQ_QUERY, method="fpras", epsilon=epsilon,
        seed=seed, exact_set_cap=0, repetitions=repetitions,
    ).estimate


def test_rpq_trials_are_really_sampled():
    result = rpq_probability_estimate(
        _RPQ_GRAPH, _RPQ_QUERY, method="fpras", epsilon=RPQ_EPSILON,
        seed=0, exact_set_cap=0,
    )
    assert not result.exact
    assert result.samples_used > 0


def test_rpq_fpras_meets_epsilon_delta_over_200_trials():
    truth = float(rpq_brute_force(_RPQ_GRAPH, _RPQ_QUERY))
    failures = 0
    for seed in range(RPQ_TRIALS):
        estimate = _rpq_trial(seed)
        assert 0.0 <= estimate <= 1.0
        if abs(estimate - truth) > RPQ_EPSILON * truth:
            failures += 1
    assert failures / RPQ_TRIALS <= DELTA


def test_rpq_fpras_is_centered_on_the_truth():
    truth = float(rpq_brute_force(_RPQ_GRAPH, _RPQ_QUERY))
    mean = statistics.fmean(
        _rpq_trial(seed) for seed in range(RPQ_TRIALS)
    )
    assert abs(mean - truth) <= (RPQ_EPSILON / 2) * truth


def test_rpq_median_amplification_does_not_degrade():
    truth = float(rpq_brute_force(_RPQ_GRAPH, _RPQ_QUERY))

    def failures(repetitions: int) -> int:
        return sum(
            1 for seed in range(60)
            if abs(_rpq_trial(seed, repetitions=repetitions) - truth)
            > RPQ_EPSILON * truth
        )

    assert failures(3) <= failures(1) + 1


def test_rpq_sample_count_scales_inverse_quadratically_in_epsilon():
    # default_sample_count grows ∝ 1/ε² once past its floor of 64
    # samples per union; the telemetry counter aggregates the actual
    # draws, so halving ε four-folds it (up to the shared floor and
    # per-node rounding).  Measured off the engine's counters, as the
    # issue requires — not off the estimator's return value.
    def samples(epsilon: float) -> int:
        engine = PQEEngine(
            seed=12, epsilon=epsilon, exact_set_cap=0
        )
        answer = engine.rpq_probability(
            _RPQ_GRAPH, _RPQ_QUERY, method="fpras", telemetry=True
        )
        assert not answer.exact
        return answer.telemetry.counter("rpq.count.samples")

    coarse = samples(0.4)
    fine = samples(0.1)
    assert coarse > 0
    ratio = fine / coarse
    assert 8.0 <= ratio <= 32.0, (
        f"samples went {coarse} -> {fine} (ratio {ratio:.1f}); "
        f"expected ~16x for a 4x epsilon reduction"
    )
