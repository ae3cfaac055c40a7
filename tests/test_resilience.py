"""Route degradation, retry seeds, and the resilience policy layer.

Covers :mod:`repro.core.resilience`: ladder construction, deterministic
retry seed derivation, provenance stamping on answers and terminal
failures, and the deadline-aborts / work-cap-degrades asymmetry.
"""

import pytest

from repro.core.budget import EvaluationBudget
from repro.core.estimator import PQEEngine
from repro.core.resilience import (
    DegradationPolicy,
    degradation_ladder,
    derive_retry_seed,
    evaluate_with_policy,
)
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import BudgetExceededError, ReproError
from repro.queries.parser import parse_query
from repro.testing import FaultSpec, inject_faults

QUERY = parse_query("Q :- R1(x, y), R2(y, z)")
SELF_JOIN = parse_query("Q :- R1(x, y), R1(y, z)")

PDB = ProbabilisticDatabase({
    Fact("R1", ("a", "b")): "1/2",
    Fact("R1", ("a", "c")): "2/3",
    Fact("R2", ("b", "d")): "3/4",
    Fact("R2", ("c", "d")): "2/5",
})


def sampled_engine(seed=None):
    return PQEEngine(epsilon=0.5, exact_set_cap=0, seed=seed)


# ---------------------------------------------------------------------
# Seeds, policy, ladder
# ---------------------------------------------------------------------

def test_derive_retry_seed_contract():
    assert derive_retry_seed(None, 3) is None
    assert derive_retry_seed(7, 0) == 7          # attempt 0 = original
    assert derive_retry_seed(7, 1) == derive_retry_seed(7, 1)
    seeds = {derive_retry_seed(7, attempt) for attempt in range(50)}
    assert len(seeds) == 50
    assert derive_retry_seed(7, 1) != derive_retry_seed(8, 1)


def test_policy_validation_and_backoff():
    with pytest.raises(ReproError):
        DegradationPolicy(max_retries=-1)
    with pytest.raises(ReproError):
        DegradationPolicy(epsilon_widening=0.5)
    policy = DegradationPolicy(backoff_base=0.1, backoff_cap=0.3)
    assert policy.backoff(1) == pytest.approx(0.1)
    assert policy.backoff(2) == pytest.approx(0.2)
    assert policy.backoff(5) == pytest.approx(0.3)   # capped
    assert DegradationPolicy().backoff(9) == 0.0


def test_backoff_jitter_is_deterministic_and_bounded():
    policy = DegradationPolicy(
        backoff_base=0.1, backoff_cap=0.3, jitter=0.5
    )
    delays = [policy.backoff(attempt, seed=7) for attempt in (1, 2, 5)]
    # Same seed → same jittered schedule, always.
    assert delays == [
        policy.backoff(attempt, seed=7) for attempt in (1, 2, 5)
    ]
    # A different seed decorrelates the schedule (the point of jitter:
    # retrying peers must not re-collide).
    assert delays != [
        policy.backoff(attempt, seed=8) for attempt in (1, 2, 5)
    ]
    # Jitter only ever *shrinks* the delay, within the jitter fraction.
    for attempt, delay in zip((1, 2, 5), delays):
        ceiling = min(0.1 * 2 ** (attempt - 1), 0.3)
        assert ceiling * (1 - 0.5) <= delay <= ceiling


def test_backoff_jitter_derives_from_retry_seed_stream():
    # The jitter stream is derive_retry_seed(seed, attempt + 1) — the
    # +1 matters because attempt 0 returns the seed unchanged (not a
    # hash output, so not uniform).
    policy = DegradationPolicy(backoff_base=1.0, jitter=1.0)
    stream = derive_retry_seed(7, 2)
    unit = (stream >> 11) / float(1 << 53)
    assert policy.backoff(1, seed=7) == pytest.approx(1.0 - unit)
    # seed=None falls back to stream 0, still deterministic.
    assert policy.backoff(1) == policy.backoff(1, seed=None)
    assert 0.0 <= policy.backoff(1) <= 1.0


def test_backoff_jitter_validation_and_default_off():
    with pytest.raises(ReproError):
        DegradationPolicy(jitter=-0.1)
    with pytest.raises(ReproError):
        DegradationPolicy(jitter=1.5)
    # jitter defaults to 0: the un-jittered schedule is unchanged.
    policy = DegradationPolicy(backoff_base=0.1, backoff_cap=0.3)
    assert policy.backoff(2, seed=7) == pytest.approx(0.2)


def test_epsilon_widening_is_capped():
    policy = DegradationPolicy(epsilon_widening=2.0, epsilon_max=0.5)
    assert policy.widened_epsilon(0.1, 0) == 0.1
    assert policy.widened_epsilon(0.1, 1) == pytest.approx(0.2)
    assert policy.widened_epsilon(0.1, 3) == 0.5     # capped at max


def test_degradation_ladder_shapes():
    # QUERY is hierarchical, so its auto ladder starts at the lifted
    # rung (which subsumes auto for safe queries).
    assert degradation_ladder(QUERY) == ("lifted", "fpras", "monte-carlo")
    assert degradation_ladder(SELF_JOIN) == (
        "auto", "karp-luby", "monte-carlo"
    )
    unsafe = parse_query("Q :- R1(x), R2(x, y), R3(y)")
    assert degradation_ladder(unsafe) == ("auto", "fpras", "monte-carlo")
    assert degradation_ladder(QUERY, method="fpras") == (
        "fpras", "monte-carlo"
    )
    assert degradation_ladder(QUERY, method="monte-carlo") == (
        "monte-carlo",
    )
    assert degradation_ladder(QUERY, method="lifted") == (
        "lifted", "fpras", "monte-carlo"
    )
    assert degradation_ladder(unsafe, method="lifted") == (
        "lifted", "fpras", "monte-carlo"
    )
    assert degradation_ladder(QUERY, task="reliability") == (
        "auto", "fpras"
    )


def test_plan_reports_the_ladder():
    plan = PQEEngine().explain(QUERY, PDB)
    assert plan.fallbacks == ("lifted", "fpras", "monte-carlo")
    assert "degradation ladder: lifted -> fpras -> monte-carlo" in (
        plan.describe()
    )


def test_unsafe_query_falls_through_the_lifted_rung():
    # An explicit lifted request on an unsafe query degrades to the
    # FPRAS deterministically, with the classification in provenance.
    unsafe = parse_query("Q :- R1(x), R2(x, y), R3(y)")
    pdb = ProbabilisticDatabase({
        Fact("R1", ("a",)): "1/2",
        Fact("R2", ("a", "b")): "1/2",
        Fact("R3", ("b",)): "1/2",
    })
    answer = evaluate_with_policy(
        sampled_engine(seed=5), unsafe, pdb, method="lifted", seed=5
    )
    assert answer.degraded
    assert answer.degradations[0].startswith("lifted: UnsafeQueryError")
    assert answer.method in ("fpras", "monte-carlo")


# ---------------------------------------------------------------------
# evaluate_with_policy
# ---------------------------------------------------------------------

def test_clean_run_matches_plain_engine_bitwise():
    engine = sampled_engine()
    plain = engine.probability(QUERY, PDB, method="fpras-weighted", seed=11)
    resilient = evaluate_with_policy(
        engine, QUERY, PDB, method="fpras-weighted", seed=11
    )
    assert resilient.value == plain.value
    assert resilient.method == plain.method
    assert resilient.degradations == ()
    assert resilient.retries == 0
    assert not resilient.degraded


def test_transient_fault_is_retried_on_a_derived_seed():
    engine = sampled_engine()
    with inject_faults(FaultSpec("counting.nfta", times=1)):
        answer = evaluate_with_policy(
            engine, QUERY, PDB, method="fpras", seed=11,
            policy=DegradationPolicy(max_retries=1),
        )
    assert answer.retries == 1
    assert answer.degraded
    assert len(answer.degradations) == 1
    assert "injected fault" in answer.degradations[0]
    # The retry ran on derive_retry_seed(11, 1), not the original seed.
    expected = engine.probability(
        QUERY, PDB, method="fpras", seed=derive_retry_seed(11, 1)
    )
    assert answer.value == expected.value


def test_persistent_fault_degrades_to_the_next_route():
    engine = sampled_engine()
    with inject_faults(FaultSpec("counting.nfta")):
        answer = evaluate_with_policy(
            engine, QUERY, PDB, method="fpras", seed=4,
            policy=DegradationPolicy(max_retries=1),
        )
    assert answer.method == "monte-carlo"
    assert answer.degraded
    # fpras attempt + its retry both logged before the fallback.
    assert len(answer.degradations) == 2
    assert answer.degradations[0].startswith("fpras:")
    assert answer.degradations[1].startswith("fpras#retry1:")


def test_ladder_exhaustion_raises_the_last_failure_with_provenance():
    engine = sampled_engine()
    specs = [
        FaultSpec("counting.nfta"),
        FaultSpec("monte_carlo.sample"),
    ]
    with inject_faults(*specs):
        with pytest.raises(ReproError) as info:
            evaluate_with_policy(
                engine, QUERY, PDB, method="fpras", seed=4,
                policy=DegradationPolicy(max_retries=0),
            )
    failure = info.value
    assert failure.degradations[0].startswith("fpras:")
    assert failure.degradations[1].startswith("monte-carlo:")


def test_deadline_exhaustion_aborts_the_ladder():
    # A stalled phase under a deadline: no wall-clock remains for any
    # fallback rung, so the failure surfaces instead of degrading.
    engine = sampled_engine()
    budget = EvaluationBudget(deadline=0.2)
    with inject_faults(FaultSpec("counting.nfta", stall=5.0)):
        with pytest.raises(BudgetExceededError) as info:
            evaluate_with_policy(
                engine, QUERY, PDB, method="fpras", seed=4, budget=budget,
            )
    assert info.value.kind == "deadline"
    # Only the rung that hit the deadline is logged — the ladder stopped.
    assert len(info.value.degradations) == 1


def test_work_cap_exhaustion_degrades_but_deadline_does_not():
    # Work caps are per attempt, so the ladder *advances* past a
    # work-capped rung; here every rung blows the cap, so the terminal
    # failure's provenance shows both rungs were tried.
    engine = sampled_engine()
    budget = EvaluationBudget(max_work_units=2)
    with pytest.raises(BudgetExceededError) as info:
        evaluate_with_policy(
            engine, QUERY, PDB, method="fpras", seed=4, budget=budget,
        )
    failure = info.value
    assert failure.kind == "work_units"
    assert len(failure.degradations) == 2
    assert failure.degradations[0].startswith("fpras:")
    assert failure.degradations[1].startswith("monte-carlo:")


def test_non_degradable_errors_raise_immediately():
    engine = PQEEngine()
    with pytest.raises(ReproError, match="unknown method"):
        evaluate_with_policy(engine, QUERY, PDB, method="not-a-method")


def test_engine_facade_evaluate_resilient():
    engine = sampled_engine(seed=11)
    with inject_faults(FaultSpec("counting.nfta", times=1)):
        answer = engine.evaluate_resilient(
            QUERY, PDB, method="fpras",
            policy=DegradationPolicy(max_retries=1),
        )
    assert answer.retries == 1
    assert answer.degraded
