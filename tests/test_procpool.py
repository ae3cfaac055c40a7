"""Tests for process-isolated batch execution (repro.core.procpool).

Two contracts: (1) results are bitwise-identical to the thread backend
— same answers, same derived seeds, same replay-stable counters — and
(2) a worker that dies without reporting (``os._exit``, ``SIGKILL``,
watchdog kill) becomes a structured :class:`WorkerCrashError` record
for exactly the item it was evaluating, while the batch continues.
"""

import multiprocessing
import sys
import time

import pytest

from repro.core.budget import EvaluationBudget
from repro.core.cache import ReductionCache
from repro.core.estimator import PQEEngine
from repro.core.parallel import (
    BatchError,
    BatchItem,
    BatchItemResult,
    ItemRunner,
    _run_admitted,
    derive_item_seed,
)
from repro.core.procpool import ChildRunner
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import ReproError, WorkerCrashError
from repro.obs import EvaluationTelemetry, telemetry_scope
from repro.testing.faults import FaultSpec, inject_faults

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process isolation requires the fork start method",
)


def _pdb(shift: int = 0) -> ProbabilisticDatabase:
    labels = {}
    for i in range(3):
        labels[Fact("R", (f"a{i + shift}", f"b{i}"))] = "1/2"
        labels[Fact("S", (f"b{i}", f"c{i}"))] = "2/3"
    return ProbabilisticDatabase(labels)


@pytest.fixture
def items(rs_query):
    return [
        BatchItem(rs_query, _pdb(shift), method="fpras")
        for shift in range(6)
    ]


@pytest.fixture
def engine():
    return PQEEngine(seed=5)


class TestBackendIdentity:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_bitwise_identical_to_thread_backend(
        self, engine, items, workers
    ):
        threaded = engine.evaluate_batch(items, seed=5, max_workers=workers)
        isolated = engine.evaluate_batch(
            items, seed=5, max_workers=workers, isolation="process"
        )
        assert isolated.values == threaded.values
        assert isolated.methods == threaded.methods
        assert [r.seed for r in isolated.results] == [
            r.seed for r in threaded.results
        ]

    def test_replay_stable_counters_match_thread_backend(
        self, engine, items
    ):
        threaded = engine.evaluate_batch(
            items, seed=5, max_workers=2, telemetry=True
        )
        isolated = engine.evaluate_batch(
            items, seed=5, max_workers=2, isolation="process",
            telemetry=True,
        )
        assert (
            isolated.telemetry.metrics.replay_stable_counters()
            == threaded.telemetry.metrics.replay_stable_counters()
        )

    def test_child_traffic_adds_up_under_contention(self, engine, items):
        """More admission threads than cores and a tiny switch interval:
        the cache traffic summed over the children equals what the items
        themselves counted, so no thread's share was lost."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batch = engine.evaluate_batch(
                items * 2, seed=5, max_workers=4, isolation="process",
                telemetry=True,
            )
        finally:
            sys.setswitchinterval(previous)
        counters = batch.telemetry.metrics.counters
        assert batch.cache_stats.misses >= 1
        assert (batch.cache_stats.hits, batch.cache_stats.misses) == (
            counters.get("cache.hits", 0), counters.get("cache.misses", 0)
        )

    def test_spans_cross_the_process_boundary(self, engine, items):
        isolated = engine.evaluate_batch(
            items[:2], seed=5, isolation="process", telemetry=True
        )
        names = {r.name for r in isolated.telemetry.tracer.records}
        assert "item" in names

    def test_unknown_isolation_rejected(self, engine, items):
        with pytest.raises(ReproError, match="isolation"):
            engine.evaluate_batch(items, seed=5, isolation="fiber")

    def test_memory_limit_requires_process_isolation(self, engine, items):
        with pytest.raises(ReproError, match="memory_limit"):
            engine.evaluate_batch(items, seed=5, memory_limit=1 << 30)


@pytest.mark.faults
class TestCrashContainment:
    def test_exit_crash_becomes_structured_record(self, engine, items):
        with inject_faults(
            FaultSpec("counting.nfta", scope=0, crash="exit")
        ):
            batch = engine.evaluate_batch(
                items, seed=5, max_workers=2, isolation="process",
                on_error="skip",
            )
        crashed = batch.results[0]
        assert not crashed.ok
        assert crashed.error.exception == "WorkerCrashError"
        assert "exit code 134" in crashed.error.message
        assert crashed.seed == derive_item_seed(5, 0)
        assert all(r.ok for r in batch.results[1:])

    def test_sigkill_crash_is_contained(self, engine, items):
        with inject_faults(
            FaultSpec("counting.nfta", scope=0, crash="sigkill")
        ):
            batch = engine.evaluate_batch(
                items, seed=5, max_workers=2, isolation="process",
                on_error="skip",
            )
        crashed = batch.results[0]
        assert not crashed.ok
        assert "exit code -9" in crashed.error.message
        assert len(batch.succeeded) == len(items) - 1

    def test_crash_under_on_error_fail_keeps_sibling_answers(
        self, engine, items
    ):
        with inject_faults(
            FaultSpec("counting.nfta", scope=0, crash="exit")
        ):
            with pytest.raises(BatchError) as failure:
                engine.evaluate_batch(
                    items, seed=5, max_workers=2, isolation="process"
                )
        assert isinstance(failure.value.__cause__, WorkerCrashError)
        assert failure.value.index == 0
        assert len(failure.value.result.succeeded) == len(items) - 1

    def test_crash_is_never_retried(self, engine, items):
        # WorkerCrashError is not an EstimationError: retry budgets must
        # not be spent re-running an item that kills its worker.
        with inject_faults(
            FaultSpec("counting.nfta", scope=0, crash="exit")
        ):
            batch = engine.evaluate_batch(
                items, seed=5, max_workers=2, isolation="process",
                on_error="skip", max_retries=2,
            )
        assert not batch.results[0].ok
        assert batch.results[0].retries == 0

    @pytest.mark.parametrize("width", [1, 2])
    def test_crashes_count_in_the_callers_collector(
        self, engine, items, width
    ):
        # At width 2 the crash and the restart happen on an admission
        # thread, which has no collector of its own.
        telemetry = EvaluationTelemetry()
        with inject_faults(
            FaultSpec("counting.nfta", scope=0, crash="exit")
        ), telemetry_scope(telemetry):
            engine.evaluate_batch(
                items[:4], seed=5, max_workers=width, isolation="process",
                on_error="skip",
            )
        assert telemetry.counter("procpool.crashes") == 1
        assert telemetry.counter("procpool.restarts") == 1

    def test_an_interrupt_ends_the_child_as_a_crash(
        self, engine, items, capfd
    ):
        # KeyboardInterrupt is no item error: in a child it propagates,
        # ends the child quietly, and its admission thread records a
        # crash.
        with inject_faults(
            FaultSpec("counting.nfta", scope=0, exception=KeyboardInterrupt)
        ):
            batch = engine.evaluate_batch(
                items[:3], seed=5, max_workers=1, isolation="process",
                on_error="skip",
            )
        crashed = batch.results[0]
        assert crashed.error.exception == "WorkerCrashError"
        assert "exit code 1)" in crashed.error.message
        assert all(r.ok for r in batch.results[1:])
        assert "Traceback" not in capfd.readouterr().err

    def test_surviving_siblings_match_crash_free_run(self, engine, items):
        clean = engine.evaluate_batch(items, seed=5, max_workers=2)
        with inject_faults(
            FaultSpec("counting.nfta", scope=0, crash="exit")
        ):
            crashed = engine.evaluate_batch(
                items, seed=5, max_workers=2, isolation="process",
                on_error="skip",
            )
        for index in range(1, len(items)):
            assert (
                crashed.results[index].answer.value
                == clean.results[index].answer.value
            )


def _run_in_children(
    runner, pending, *, width=1, memory_limit=None,
    on_settled=lambda result: result,
):
    """The one admission loop over ``pending``, each item in its
    admission thread's forked child, as ``isolation='process'`` runs
    it; returns the settled items and the children's cache traffic."""
    children = ChildRunner(runner, memory_limit)
    try:
        computed = _run_admitted(children.run, pending, width, on_settled)
    finally:
        children.close()
    return computed, children.stats


class _WedgedRunner:
    """A runner whose item blocks uncooperatively — watchdog bait."""

    def __init__(self):
        self.seed = 5
        self.cache = ReductionCache()
        self.causes = {}
        self.item_budget = EvaluationBudget(deadline=0.2)

    def run(self, index: int) -> BatchItemResult:
        time.sleep(30)  # no budget checkpoints fire in here
        return BatchItemResult(
            index=index, answer=None, seed=None, elapsed=30.0
        )


class _HungryRunner:
    """A runner whose item allocates far beyond any sane cap."""

    def __init__(self):
        self.seed = 5
        self.cache = ReductionCache()
        self.causes = {}
        self.item_budget = None

    def run(self, index: int) -> BatchItemResult:
        from repro.core.parallel import _error_record

        started = time.perf_counter()
        try:
            hog = bytearray(32 << 30)  # 32 GiB: must hit RLIMIT_AS
            return BatchItemResult(
                index=index, answer=len(hog), seed=None, elapsed=0.0
            )
        except MemoryError as failure:
            elapsed = time.perf_counter() - started
            return BatchItemResult(
                index=index,
                answer=None,
                seed=None,
                elapsed=elapsed,
                error=_error_record(failure, elapsed, 0, None),
            )


class _StuckEngine(PQEEngine):
    """An engine whose evaluation sleeps past any deadline without
    reaching a budget checkpoint."""

    def probability(self, *args, **kwargs):
        time.sleep(30)
        return super().probability(*args, **kwargs)


@pytest.mark.faults
class TestSupervisor:
    def test_watchdog_kills_wedged_worker(self):
        runner = _WedgedRunner()
        started = time.perf_counter()
        computed, _ = _run_in_children(runner, [0])
        elapsed = time.perf_counter() - started
        assert elapsed < 10  # killed by the watchdog, not the sleep
        assert not computed[0].ok
        assert "watchdog timeout" in computed[0].error.message

    def test_budget_deadline_arms_the_watchdog(self, items):
        # No timeout anywhere: the item budget's deadline is the one
        # deadline, and 2 x 0.2 s + 1 s later the watchdog kills the
        # worker the 30 s sleep wedged.
        budget = EvaluationBudget(deadline=0.2)
        runner = ItemRunner(
            _StuckEngine(), [items[0].validated(0)], seed=5,
            cache=ReductionCache(), item_budget=budget, max_retries=0,
            routes=None, on_error="skip", telemetry=False,
        )
        started = time.perf_counter()
        computed, _ = _run_in_children(runner, [0])
        assert time.perf_counter() - started < 10
        assert computed[0].error.exception == "WorkerCrashError"
        assert "watchdog timeout" in computed[0].error.message

        started = time.perf_counter()
        batch = _StuckEngine().evaluate_batch(
            items[:1], seed=5, max_workers=1, isolation="process",
            budget=budget, on_error="skip",
        )
        assert time.perf_counter() - started < 10
        assert batch.results[0].error.exception == "WorkerCrashError"
        assert "watchdog timeout" in batch.results[0].error.message

    def test_memory_cap_degrades_to_memory_error(self):
        # The cap turns an OOM kill (host-fatal) into a recoverable
        # in-worker MemoryError record.
        computed, _ = _run_in_children(
            _HungryRunner(), [0], memory_limit=4 << 30
        )
        assert not computed[0].ok
        assert computed[0].error.exception == "MemoryError"

    def test_on_settled_sees_every_item_once(self, engine, items):
        seen = []
        runner = ItemRunner(
            engine, [item.validated(i) for i, item in enumerate(items)],
            seed=5, cache=ReductionCache(), item_budget=None,
            max_retries=1, routes=None, on_error="skip", telemetry=False,
        )

        def settle(result):
            seen.append(result.index)
            return result

        computed, stats = _run_in_children(
            runner, list(range(len(items))), width=2, on_settled=settle,
        )
        assert sorted(seen) == list(range(len(items)))
        assert sorted(computed) == list(range(len(items)))
        assert stats.misses >= 1  # per-worker traffic was accumulated
