"""An automaton compiles once, on itself (``NFTA.compiled``).

The dense form, the CountNFTA sampling plans and the exact layer tables
live on the automaton that was counted: counting it again reuses them,
a structurally equal automaton built separately counts cold, a build
the budget cuts off keeps nothing, and a pickled automaton (a disk
cache entry) carries none of it.  Reduction automata are built trim,
so compiling one reruns no trim fixpoint.
"""

import pickle
import time
from fractions import Fraction

import pytest

from repro.automata.nfta import NFTA
from repro.automata.nfta_counting import count_nfta, count_nfta_exact
from repro.core.budget import (
    EvaluationBudget,
    budget_checkpoint,
    budget_scope,
)
from repro.core.cache import ReductionCache
from repro.core.diskcache import DiskCache
from repro.core.pqe_estimate import build_pqe_reduction
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import BudgetExceededError
from repro.queries.builders import path_query
from repro.workloads import complete_layered_path_instance


def _pdb() -> ProbabilisticDatabase:
    return ProbabilisticDatabase({
        fact: Fraction(1, 3)
        for fact in complete_layered_path_instance(3, 2)
    })


def _weighted():
    return build_pqe_reduction(path_query(3), _pdb(), weighted=True)


def test_a_weighted_reduction_is_trimmed_once(monkeypatch):
    computed = []
    productive = NFTA.productive_states.func

    def counted(self):
        computed.append(self)
        return productive(self)

    monkeypatch.setattr(NFTA, "productive_states", property(counted))
    reduction = _weighted()
    assert len(computed) == 1  # the build's trim
    count_nfta_exact(
        reduction.nfta, reduction.tree_size, weight_of=reduction.weight_of
    )
    count_nfta(
        reduction.nfta, reduction.tree_size, seed=1, exact_set_cap=0,
        weight_of=reduction.weight_of,
    )
    assert len(computed) == 1


def test_trimmed_returns_a_trim_automaton_unchanged():
    messy = NFTA(
        [("q", "a", ()), ("q", "b", ("q",)), ("dead", "a", ("dead",))], "q"
    )
    trim = messy.trimmed()
    assert trim is not messy
    assert trim.trimmed() is trim
    clean = NFTA([("q", "a", ()), ("q", "b", ("q",))], "q")
    assert clean.trimmed() is clean


def test_counts_of_one_automaton_share_its_compiled_form():
    reduction = _weighted()
    nfta, size = reduction.nfta, reduction.tree_size
    first = count_nfta(nfta, size, seed=1, exact_set_cap=0)
    compiled = nfta.compiled
    plan = compiled._memo[("plan", size)]
    assert count_nfta(nfta, size, seed=1, exact_set_cap=0) == first
    assert nfta.compiled is compiled
    assert compiled._memo[("plan", size)] is plan
    # A structurally equal automaton built separately compiles afresh
    # and answers the same.
    copy = NFTA(nfta.transitions, nfta.initial)
    assert count_nfta(copy, size, seed=1, exact_set_cap=0) == first
    assert copy.compiled is not compiled


def test_a_build_the_budget_cuts_off_is_not_kept():
    compiled = NFTA([("q", "a", ())], "q").compiled
    expired = EvaluationBudget(deadline=0.01)
    with budget_scope(expired, started=time.perf_counter() - 1.0):
        with pytest.raises(BudgetExceededError):
            compiled.memoized(
                "key", lambda: budget_checkpoint("counting.nfta")
            )
    assert compiled.memoized("key", lambda: "built") == "built"


def test_a_counted_reduction_pickles_without_its_compiled_form(tmp_path):
    reduction = build_pqe_reduction(
        path_query(3), _pdb(), weighted=True,
        cache=ReductionCache(disk=DiskCache(tmp_path)),
    )
    measure = count_nfta_exact(
        reduction.nfta, reduction.tree_size, weight_of=reduction.weight_of
    )
    assert "compiled" in vars(reduction.nfta)
    # A second process reads the entry back from the durable tier.
    restored = build_pqe_reduction(
        path_query(3), _pdb(), weighted=True,
        cache=ReductionCache(disk=DiskCache(tmp_path)),
    )
    assert restored is not reduction
    assert "compiled" not in vars(restored.nfta)
    assert "compiled" not in vars(pickle.loads(pickle.dumps(reduction.nfta)))
    assert count_nfta_exact(
        restored.nfta, restored.tree_size, weight_of=restored.weight_of
    ) == measure


def test_invalidation_reports_no_kernel_count():
    cache = ReductionCache()
    reduction = build_pqe_reduction(
        path_query(3), _pdb(), weighted=True, cache=cache
    )
    count_nfta_exact(
        reduction.nfta, reduction.tree_size, weight_of=reduction.weight_of
    )
    # The reduction goes, its compiled form with it; the query-only
    # decomposition survives.
    counts = cache.invalidate_relations({"R1"})
    assert counts == {"cache": 1, "diskcache": 0, "survived": 1}
