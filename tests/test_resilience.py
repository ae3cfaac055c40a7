"""Route degradation, retry seeds, and the resilience layer.

Covers :mod:`repro.core.resilience`: ladder construction, ε widening,
deterministic retry seed derivation, provenance stamping on answers
and terminal failures, and the deadline-aborts / work-cap-degrades
asymmetry.
"""

from fractions import Fraction

import pytest

from repro.core.budget import EvaluationBudget
from repro.core.estimator import PQEEngine
from repro.core.parallel import evaluate_batch
from repro.core.resilience import (
    derive_retry_seed,
    evaluate_with_policy,
    widened_epsilon,
)
from repro.core.tasks import TASKS
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
# Seeds, ε widening, ladder
# ---------------------------------------------------------------------

def test_derive_retry_seed_contract():
    assert derive_retry_seed(None, 3) is None
    assert derive_retry_seed(7, 0) == 7          # attempt 0 = original
    assert derive_retry_seed(7, 1) == derive_retry_seed(7, 1)
    seeds = {derive_retry_seed(7, attempt) for attempt in range(50)}
    assert len(seeds) == 50
    assert derive_retry_seed(7, 1) != derive_retry_seed(8, 1)
    assert derive_retry_seed(5, 1) == 824457757507031170  # pinned


def test_negative_max_retries_is_rejected():
    with pytest.raises(ReproError, match="max_retries"):
        evaluate_with_policy(PQEEngine(), QUERY, PDB, max_retries=-1)
    with pytest.raises(ReproError, match="max_retries"):
        evaluate_batch(PQEEngine(), [(QUERY, PDB)], max_retries=-1)


def test_epsilon_widening_is_capped():
    assert widened_epsilon(0.1, 0) == 0.1
    assert widened_epsilon(0.1, 1) == pytest.approx(0.2)
    assert widened_epsilon(0.1, 3) == 0.5     # capped at max


def _ladder(query, task="probability", method="auto"):
    return TASKS[task].ladder(query, method)


def test_degradation_ladder_shapes():
    # QUERY is hierarchical, so its auto ladder starts at the lifted
    # rung (which subsumes auto for safe queries).
    assert _ladder(QUERY) == ("lifted", "fpras", "monte-carlo")
    assert _ladder(SELF_JOIN) == (
        "auto", "karp-luby", "monte-carlo"
    )
    unsafe = parse_query("Q :- R1(x), R2(x, y), R3(y)")
    assert _ladder(unsafe) == ("auto", "fpras", "monte-carlo")
    assert _ladder(QUERY, method="fpras") == (
        "fpras", "monte-carlo"
    )
    assert _ladder(QUERY, method="monte-carlo") == (
        "monte-carlo",
    )
    assert _ladder(QUERY, method="lifted") == (
        "lifted", "fpras", "monte-carlo"
    )
    assert _ladder(unsafe, method="lifted") == (
        "lifted", "fpras", "monte-carlo"
    )
    assert _ladder(QUERY, task="reliability") == (
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
            max_retries=1,
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
            max_retries=1,
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
                max_retries=0,
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


def test_a_non_degradable_failure_carries_the_retries_it_used():
    # A transient fault, then one no rung can mend on the retry: the
    # failure leaves at once, with the retry and the attempt before it.
    specs = [
        FaultSpec("counting.nfta", times=1),
        FaultSpec("counting.nfta", exception=RuntimeError, after=1),
    ]
    with inject_faults(*specs):
        with pytest.raises(RuntimeError) as info:
            evaluate_with_policy(
                sampled_engine(), QUERY, PDB, method="fpras", seed=4,
                max_retries=1,
            )
    assert info.value.retries == 1
    (attempt,) = info.value.degradations
    assert attempt.startswith("fpras: EstimationError: injected fault")


def test_a_float_range_error_degrades_without_a_retry():
    # ¬R(a, b) weighs 10^400 − 1 and the sampled measure overflows on
    # every seed, so each rung fails once and no retry is spent.
    pdb = ProbabilisticDatabase({
        Fact("R", ("a", "b")): Fraction(1, 10**400),
        Fact("R", ("d", "e")): "1/2",
        Fact("S", ("b", "c")): "1/2",
        Fact("S", ("e", "f")): "1/2",
    })
    answer = PQEEngine(seed=1).evaluate_resilient(
        parse_query("Q :- R(x, y), S(y, z)"), pdb, method="fpras-weighted"
    )
    assert answer.method == "monte-carlo"
    assert answer.retries == 0
    assert [entry.split(":")[0] for entry in answer.degradations] == [
        "fpras-weighted", "fpras"
    ]
    assert all("float range" in entry for entry in answer.degradations)


def test_engine_facade_evaluate_resilient():
    engine = sampled_engine(seed=11)
    with inject_faults(FaultSpec("counting.nfta", times=1)):
        answer = engine.evaluate_resilient(
            QUERY, PDB, method="fpras",
            max_retries=1,
        )
    assert answer.retries == 1
    assert answer.degraded
