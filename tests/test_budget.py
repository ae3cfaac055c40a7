"""Evaluation budgets: limits, scopes, and cooperative checkpoints.

Covers :mod:`repro.core.budget` directly, plus its enforcement inside
the real evaluation loops via :class:`PQEEngine` ``budget=`` arguments.
"""

import threading
import time
from fractions import Fraction

import pytest

from repro.automata.nfta_counting import count_nfta
from repro.core.budget import (
    BudgetScope,
    EvaluationBudget,
    active_budget,
    budget_checkpoint,
    budget_scope,
    budget_tick,
    effective_clause_budget,
)
from repro.core.estimator import PQEEngine
from repro.core.pqe_estimate import build_pqe_reduction
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import BudgetExceededError, EstimationError, ReproError
from repro.queries.builders import path_query
from repro.queries.parser import parse_query
from repro.workloads import complete_layered_path_instance

QUERY = parse_query("Q :- R1(x, y), R2(y, z)")

PDB = ProbabilisticDatabase({
    Fact("R1", ("a", "b")): "1/2",
    Fact("R1", ("a", "c")): "2/3",
    Fact("R2", ("b", "d")): "3/4",
    Fact("R2", ("c", "d")): "2/5",
})


# ---------------------------------------------------------------------
# EvaluationBudget / BudgetState basics
# ---------------------------------------------------------------------

def test_budget_validation():
    with pytest.raises(ReproError, match="deadline"):
        EvaluationBudget(deadline=0)
    with pytest.raises(ReproError, match="max_work_units"):
        EvaluationBudget(max_work_units=0)
    with pytest.raises(ReproError, match="lineage_clause_cap"):
        EvaluationBudget(lineage_clause_cap=0)
    assert EvaluationBudget().unlimited
    assert not EvaluationBudget(deadline=1.0).unlimited


def test_budget_describe():
    assert EvaluationBudget().describe() == "unlimited"
    text = EvaluationBudget(
        deadline=2.5, max_work_units=100, lineage_clause_cap=7
    ).describe()
    assert "deadline=2.5s" in text
    assert "work_units<=100" in text
    assert "lineage_clauses<=7" in text


def test_snapshot_reports_usage():
    scope = BudgetScope(EvaluationBudget(max_work_units=10))
    scope.tick("phase", units=4)
    state = scope.snapshot()
    assert state.work_units == 4
    assert state.max_work_units == 10
    assert "work_units=4" in state.describe()


# ---------------------------------------------------------------------
# Checkpoint semantics
# ---------------------------------------------------------------------

def test_work_unit_cap_raises_with_context():
    scope = BudgetScope(EvaluationBudget(max_work_units=3))
    for _ in range(3):
        scope.tick("lineage.build")
    with pytest.raises(BudgetExceededError) as info:
        scope.tick("lineage.build")
    failure = info.value
    assert failure.kind == "work_units"
    assert failure.phase == "lineage.build"
    assert failure.limit == 3
    assert failure.used == 4
    assert "work_units" in str(failure)
    # Not a transient estimation failure: retries must not treat it so.
    assert not isinstance(failure, EstimationError)


def test_deadline_raises_once_elapsed():
    scope = BudgetScope(
        EvaluationBudget(deadline=0.01),
        started=time.perf_counter() - 1.0,
    )
    with pytest.raises(BudgetExceededError) as info:
        scope.checkpoint("counting.nfta")
    assert info.value.kind == "deadline"
    assert info.value.elapsed >= 1.0


def test_checkpoints_are_noops_without_a_scope():
    assert active_budget() is None
    budget_checkpoint("anywhere")      # must not raise
    budget_tick("anywhere", units=10**9)


def test_scope_installs_and_restores():
    budget = EvaluationBudget(max_work_units=5)
    with budget_scope(budget) as scope:
        assert active_budget() is scope
        budget_tick("phase", units=2)
        assert scope.work_units == 2
    assert active_budget() is None


def test_unlimited_scope_is_a_noop():
    with budget_scope(None) as scope:
        assert scope is None
    with budget_scope(EvaluationBudget()) as scope:
        assert scope is None
        assert active_budget() is None


def test_started_anchor_is_shared_across_scopes():
    # Retries re-enter the scope with the original start time, so the
    # deadline stays absolute per item.
    anchor = time.perf_counter() - 5.0
    budget = EvaluationBudget(deadline=1.0)
    with budget_scope(budget, started=anchor):
        with pytest.raises(BudgetExceededError):
            budget_checkpoint("retry")


def test_scopes_are_per_thread():
    seen = {}

    def worker():
        seen["inner"] = active_budget()

    with budget_scope(EvaluationBudget(max_work_units=1)):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    # A new thread has a fresh context: no budget leaks across threads.
    assert seen["inner"] is None


def test_effective_clause_budget_takes_the_minimum():
    assert effective_clause_budget(50) == 50
    with budget_scope(EvaluationBudget(lineage_clause_cap=10)):
        assert effective_clause_budget(None) == 10
        assert effective_clause_budget(50) == 10
        assert effective_clause_budget(3) == 3


# ---------------------------------------------------------------------
# Enforcement inside the real evaluation loops
# ---------------------------------------------------------------------

def test_engine_probability_respects_work_cap():
    engine = PQEEngine(epsilon=0.5, exact_set_cap=0, seed=1)
    tight = EvaluationBudget(max_work_units=2)
    with pytest.raises(BudgetExceededError) as info:
        engine.probability(QUERY, PDB, method="fpras", budget=tight)
    assert info.value.kind == "work_units"
    assert info.value.phase is not None


def test_engine_result_unchanged_by_a_loose_budget():
    engine = PQEEngine(epsilon=0.5, exact_set_cap=0, seed=3)
    free = engine.probability(QUERY, PDB, method="fpras-weighted")
    boxed = engine.probability(
        QUERY,
        PDB,
        method="fpras-weighted",
        budget=EvaluationBudget(deadline=60.0, max_work_units=10**9),
    )
    assert boxed.value == free.value
    assert boxed.method == free.method


def test_monte_carlo_respects_work_cap():
    engine = PQEEngine(epsilon=0.25, seed=5)
    with pytest.raises(BudgetExceededError) as info:
        engine.probability(
            QUERY,
            PDB,
            method="monte-carlo",
            budget=EvaluationBudget(max_work_units=3),
        )
    assert info.value.phase == "monte_carlo.sample"


def test_lineage_clause_cap_reroutes_auto():
    # A cap of 1 clause forces 'auto' off the small-lineage shortcut and
    # onto the FPRAS — the answer survives, only the route changes.
    unsafe = parse_query("Q :- R1(x), R2(x, y), R3(y)")
    pdb = ProbabilisticDatabase({
        Fact("R1", ("a",)): "1/2",
        Fact("R2", ("a", "b")): "2/3",
        Fact("R2", ("a", "c")): "1/3",
        Fact("R3", ("b",)): "3/4",
        Fact("R3", ("c",)): "1/4",
    })
    engine = PQEEngine(epsilon=0.5, seed=2)
    capped = EvaluationBudget(lineage_clause_cap=1)
    free = engine.probability(unsafe, pdb)
    boxed = engine.probability(unsafe, pdb, budget=capped)
    assert free.method == "lineage-exact"
    assert boxed.method == "fpras"
    assert boxed.value == pytest.approx(free.value, rel=0.6)


# ---------------------------------------------------------------------
# Preprocessing checkpoints: reduction build, fixpoints, plan build
# ---------------------------------------------------------------------

def _expired_scope():
    """A scope whose deadline passed a second ago: the first checkpoint
    reached raises."""
    return budget_scope(
        EvaluationBudget(deadline=0.01), started=time.perf_counter() - 1.0
    )


def _layered_pdb():
    return ProbabilisticDatabase({
        fact: Fraction(1, 3)
        for fact in complete_layered_path_instance(3, 2)
    })


@pytest.mark.parametrize("weighted", [False, True])
def test_reduction_build_checks_the_deadline(weighted):
    with _expired_scope(), pytest.raises(BudgetExceededError) as info:
        build_pqe_reduction(path_query(3), _layered_pdb(), weighted=weighted)
    assert info.value.kind == "deadline"
    assert info.value.phase == "reduction.ur"


def test_count_nfta_checks_the_deadline_before_caching_its_plan():
    reduction = build_pqe_reduction(path_query(3), _layered_pdb())
    plan_key = ("plan", reduction.tree_size)
    with _expired_scope(), pytest.raises(BudgetExceededError) as info:
        count_nfta(reduction.nfta, reduction.tree_size, exact_set_cap=0)
    assert info.value.phase == "counting.nfta"
    # The aborted call left no sampling plan behind: this one builds it.
    assert plan_key not in reduction.nfta.compiled._memo
    count_nfta(reduction.nfta, reduction.tree_size, seed=1, exact_set_cap=0)
    assert plan_key in reduction.nfta.compiled._memo


def _self_join_path():
    """``Q :- R(x0, x1), …, R(x63, x64)`` over a four-fact cycle: the
    lifted classifier's minimization of this self-join takes seconds."""
    query = parse_query(
        "Q :- " + ", ".join(f"R(x{i}, x{i + 1})" for i in range(64))
    )
    pdb = ProbabilisticDatabase({
        Fact("R", pair): "1/2"
        for pair in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"))
    })
    return query, pdb


def test_lifted_classification_checks_the_deadline():
    from repro.queries.lifted import clear_lifted_caches

    query, pdb = _self_join_path()
    clear_lifted_caches()
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        PQEEngine(seed=1).probability(
            query, pdb, budget=EvaluationBudget(deadline=0.5)
        )
    assert time.perf_counter() - started < 1.0
    assert info.value.phase == "lifted.classify"


def test_shannon_expansion_checks_the_deadline():
    # ``auto`` routes this unsafe query's 1,024-clause lineage to the
    # exact Shannon expansion, which runs about a second unbudgeted.
    pdb = ProbabilisticDatabase({
        fact: Fraction(1, 4)
        for fact in complete_layered_path_instance(4, 4)
    })
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        PQEEngine(seed=1).probability(
            path_query(4), pdb, budget=EvaluationBudget(deadline=0.2)
        )
    assert time.perf_counter() - started < 0.4
    assert info.value.phase == "lineage.wmc"


@pytest.mark.parametrize("task", ["probability", "reliability"])
def test_enumeration_checks_the_deadline(task):
    # 2^14 subinstances, none satisfying the query: over a second of
    # enumeration unbudgeted.
    facts = [Fact("R", (f"a{i}", f"b{i}")) for i in range(14)]
    pdb = ProbabilisticDatabase({fact: Fraction(1, 3) for fact in facts})
    query = parse_query("Q :- R(x, y), R(y, z)")
    engine = PQEEngine(seed=1)
    budget = EvaluationBudget(deadline=0.2)
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        if task == "probability":
            engine.probability(query, pdb, "enumerate", budget=budget)
        else:
            engine.uniform_reliability(
                query, pdb.instance, "enumerate", budget=budget
            )
    assert time.perf_counter() - started < 0.4
    assert info.value.phase == "exact.enumerate"
