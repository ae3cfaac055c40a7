"""Batch evaluation: one reduction cache, many items, many workers.

The engine's single-call API rebuilds the full Proposition 1 / Theorem 1
reduction chain per call.  Serving workloads — answer ranking, repeated
dashboards, per-tenant groundings of one query shape — evaluate *many*
items that share most of that construction, and the underlying ACJR
counting estimator is embarrassingly parallel across items.  This module
centralises both observations:

- every item is routed through the existing Table 1 logic (safe plan /
  exact lineage / FPRAS / Karp–Luby) exactly as ``PQEEngine`` would
  route it individually;
- reduction construction is memoized in one
  :class:`~repro.core.cache.ReductionCache` shared by the whole batch
  (and across batches, if the caller keeps the cache);
- items are fanned out over worker threads, each taking the next one.

Reproducibility contract
------------------------
Item ``i`` draws from its own RNG stream, seeded with
``derive_item_seed(seed, i)`` — a SHA-256 derivation of the batch seed
and the item index, so the streams are statistically independent and do
not depend on worker scheduling.  Retry attempt ``a`` of an item draws
from a stream derived from the item seed and ``a`` (same construction;
see :mod:`repro.core.resilience`), so retry outcomes are equally
scheduling-independent.  Consequences, tested in
``tests/test_parallel.py`` and ``tests/test_faults.py``:

- a batch is **bitwise-identical** for a fixed ``seed``, whatever
  ``max_workers`` is (1, 2, 8, …) — including its error records and
  retry outcomes under an installed fault plan;
- the batch matches a sequential loop that calls
  ``engine.probability(item.query, item.database,
  seed=derive_item_seed(seed, i))`` method-for-method.

With ``seed=None`` every item is nondeterministic (the single-call
default), and nothing above applies.

Fault isolation contract
------------------------
Every item runs the one attempt loop,
:func:`repro.core.resilience.evaluate_with_policy`: transient
estimation failures are retried at once on derived seeds, up to
``max_retries`` per rung, and the answer or error record carries the
attempt log (``degradations``) and the retries used.  ``on_error``
picks the ladder and what a failing item does to its batch:

``'fail'`` (default)
    The ladder is the item's method.  The batch raises
    :class:`BatchError` for the lowest-indexed failing item, with the
    original exception chained as ``__cause__`` — but only after every
    item has settled, and the exception carries the full
    :class:`BatchResult` (completed answers *and* structured error
    records) as ``BatchError.result``.  Completed siblings are never
    discarded.
``'skip'``
    The same ladder.  Failing items yield a :class:`BatchItemResult`
    whose ``error`` is a structured :class:`BatchItemError`; the rest
    of the batch completes normally and no exception is raised.
``'degrade'``
    Like ``'skip'``, but the ladder is the task's
    (``TASKS[task].ladder(query, method)``) or ``routes``: exact-WMC →
    FPRAS → Monte-Carlo with widened ε.

``budget`` bounds each item via cooperative checkpoints
(:mod:`repro.core.budget`): its deadline is absolute per item — shared
across its retries and degradation rungs — so a stalled item cannot
overrun it by more than the checkpoint granularity.

One admission loop runs every batch, whatever the isolation:
``min(max_workers, pending items)`` workers — the calling thread alone
at width 1, else fresh threads — each take the next pending item
unless a drain was requested (:func:`request_drain`) and journal it as
it settles, so a drain stops admission at any width.  A worker settles
its item on its own thread, or, under ``isolation='process'``, in the
forked child it owns (below).  An interrupt (``KeyboardInterrupt``,
``SystemExit``) inside an item is no error record: it stops admission
and leaves the batch.

Durability contract
-------------------
Two orthogonal extensions harden a batch against failures threads
cannot contain:

``isolation='process'``
    Each admission thread owns one forked child
    (:mod:`repro.core.procpool`) and hands it its items one at a time:
    a child that dies without reporting — segfault, OOM kill,
    ``SIGKILL``, a watchdog kill past ``2 × budget.deadline + 1 s`` —
    becomes a structured :class:`BatchItemError` carrying
    :class:`~repro.errors.WorkerCrashError`, the thread forks a
    replacement for its next item, and the batch continues under the
    same ``on_error`` semantics.  Admission, drain and journal order
    are the thread backend's.  Answers and seeds are
    bitwise-identical to the thread backend (same
    :func:`derive_item_seed` streams, same routing); only cache
    *traffic* differs, because each child owns a private copy of the
    reduction cache (share a durable
    :class:`~repro.core.diskcache.DiskCache` tier to win the reuse
    back).  Above one worker that traffic also changes from run to
    run, because scheduling picks which child's cache serves an item;
    only one worker repeats it.

``journal=FILE`` (+ ``resume=True``)
    Every settled item is appended to an fsync'd
    :class:`~repro.core.journal.BatchJournal` at once, so its lines
    follow settlement order.  A rerun with ``resume=True`` replays the
    journal's verified prefix — completed answers are restored
    bitwise, error records are recomputed — and evaluates only the
    remainder, producing a
    :class:`BatchResult` whose answers, seeds and merged replay-stable
    deterministic counters are identical to an uninterrupted run
    (asserted at workers 1 and 4 in ``tests/test_chaos.py``).
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.budget import BudgetState, EvaluationBudget
from repro.core.cache import CacheStats, ReductionCache
from repro.obs import (
    EvaluationTelemetry,
    active_telemetry,
    metric_inc,
    span,
    telemetry_scope,
)
from repro.core.resilience import derive_seed, evaluate_with_policy
from repro.core.tasks import TASKS, infer_task
from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import EstimationError, ReproError
from repro.graphs.model import ProbabilisticGraph
from repro.testing.faults import fault_scope

__all__ = [
    "BatchDrainedError",
    "BatchError",
    "BatchItem",
    "BatchItemError",
    "BatchItemResult",
    "BatchResult",
    "ItemRunner",
    "clear_drain",
    "derive_item_seed",
    "drain_requested",
    "evaluate_batch",
    "request_drain",
]

_ON_ERROR = ("fail", "skip", "degrade")
_ISOLATION = ("thread", "process")

#: Process-wide graceful-drain flag.  A SIGTERM handler (the CLI's, or
#: the serve daemon's) sets it; the admission loop checks it before
#: *starting* each item, so in-flight work completes and is journalled
#: while nothing new is admitted.  Threads cannot be interrupted, so
#: drain is admission control, not cancellation.
_DRAIN = threading.Event()


def request_drain() -> None:
    """Ask every in-progress batch to stop admitting new items."""
    _DRAIN.set()


def drain_requested() -> bool:
    return _DRAIN.is_set()


def clear_drain() -> None:
    """Reset the drain flag (a new process starts clear; tests and
    long-lived daemons that survive a drained batch must reset it)."""
    _DRAIN.clear()


def derive_item_seed(seed: int | None, index: int) -> int | None:
    """The RNG-stream seed for batch item ``index`` under batch ``seed``.

    A :func:`~repro.core.resilience.derive_seed` derivation of
    ``(seed, index)`` — deterministic across processes and platforms
    (unlike ``hash``), and statistically independent between indices.
    ``None`` stays ``None`` (nondeterministic items).
    """
    if seed is None:
        return None
    return derive_seed("repro-batch", seed, index)


@dataclass(frozen=True)
class BatchItem:
    """One evaluation request in a batch.

    ``task`` is ``'probability'`` (``database`` must be a
    :class:`ProbabilisticDatabase`), ``'reliability'`` (a
    :class:`DatabaseInstance`; a probabilistic database's underlying
    instance is used), or ``'rpq'`` (``database`` is a
    :class:`~repro.graphs.model.ProbabilisticGraph` and ``query`` an
    :class:`~repro.graphs.rpq.RPQQuery`).  ``method`` is any method the
    engine accepts for that task, including ``'auto'``.
    """

    query: object
    database: ProbabilisticDatabase | DatabaseInstance | ProbabilisticGraph
    task: str = "probability"
    method: str = "auto"

    def validated(self, index: int) -> "BatchItem":
        if self.task not in TASKS:
            raise ReproError(
                f"batch item {index}: unknown task {self.task!r}; "
                f"choose from {tuple(TASKS)}"
            )
        self = self.pinned()
        TASKS[self.task].check(
            self.query, self.database, f"batch item {index}"
        )
        return self

    def pinned(self) -> "BatchItem":
        """Resolve a versioned database to the version it holds *now*.

        A :class:`~repro.db.delta.VersionedDatabase` (or one
        :class:`~repro.db.delta.DatabaseVersion`) is accepted anywhere
        a plain database is; pinning happens once, at batch validation
        time, so every item of the batch evaluates against the same
        immutable version even if a delta publishes mid-flight.
        """
        pdb = getattr(self.database, "pdb", None)
        if pdb is None or isinstance(self.database, ProbabilisticGraph):
            return self
        return dataclasses.replace(self, database=pdb)


@dataclass(frozen=True)
class BatchItemError:
    """Structured record of one item's terminal failure."""

    exception: str               # exception class name
    message: str
    phase: str | None            # failing pipeline phase, when known
    elapsed: float               # worker wall seconds until failure
    retries: int                 # retry attempts consumed
    budget: BudgetState | None   # budget state at failure, if budgeted
    degradations: tuple[str, ...] = ()   # attempt log
    #: Telemetry captured up to the fault (``None`` unless the batch ran
    #: with ``telemetry=True``).  The spans and counters recorded before
    #: the failure survive — a faulted item still shows where its time
    #: went.  Excluded from equality so error records compare by content.
    telemetry: EvaluationTelemetry | None = field(
        default=None, compare=False, repr=False
    )

    def describe(self) -> str:
        parts = [f"{self.exception}: {self.message}"]
        if self.phase:
            parts.append(f"phase={self.phase}")
        if self.retries:
            parts.append(f"retries={self.retries}")
        if self.budget is not None:
            parts.append(f"budget: {self.budget.describe()}")
        return "; ".join(parts)


@dataclass(frozen=True)
class BatchItemResult:
    """One item's answer (or error record) plus evaluation provenance."""

    index: int
    answer: object               # PQEAnswer, or None on failure
    seed: int | None             # the derived per-item stream seed
    elapsed: float               # worker wall seconds for this item
    error: BatchItemError | None = None
    #: True when this result was restored from a batch journal rather
    #: than computed in this run.  Excluded from equality: a replayed
    #: answer is the recorded answer.
    replayed: bool = field(default=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def retries(self) -> int:
        """Retry attempts the item used, as its answer or error
        records them."""
        return (self.answer if self.ok else self.error).retries


class BatchError(EstimationError):
    """A batch item failed under ``on_error='fail'``.

    Unlike a bare worker exception, this carries the whole batch
    outcome: ``result`` holds every completed sibling's answer and
    every failing item's structured error record, so one pathological
    item no longer discards the work the rest of the batch did.
    """

    def __init__(self, message: str, result: "BatchResult", index: int):
        super().__init__(message)
        self.result = result
        self.index = index


class BatchDrainedError(ReproError):
    """The batch stopped early because a graceful drain was requested.

    Every item that was *started* before the drain settled normally (and
    was journalled, when the batch has a journal); ``result`` carries
    those settled items in input order and ``remaining`` the indexes
    never admitted.  With a journal, a rerun with ``resume=True``
    replays the settled prefix bitwise and evaluates only
    ``remaining`` — the chaos suite asserts the combined run equals an
    uninterrupted one.
    """

    def __init__(
        self, message: str, result: "BatchResult", remaining: tuple[int, ...]
    ):
        super().__init__(message)
        self.result = result
        self.remaining = remaining


@dataclass(frozen=True)
class BatchResult:
    """Everything a batch run produced, in input order."""

    results: tuple[BatchItemResult, ...]
    cache_stats: CacheStats      # traffic attributable to this batch
    wall_time: float
    max_workers: int
    #: Per-item telemetry merged in item-index order (``None`` unless the
    #: batch ran with ``telemetry=True``).  Index-ordered merging makes
    #: the merged counters and span ids deterministic for a fixed seed,
    #: whatever the worker count.  Excluded from equality.
    telemetry: EvaluationTelemetry | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def answers(self) -> tuple:
        return tuple(r.answer for r in self.results)

    @property
    def values(self) -> tuple:
        return tuple(
            r.answer.value if r.answer is not None else None
            for r in self.results
        )

    @property
    def methods(self) -> tuple:
        return tuple(
            r.answer.method if r.answer is not None else None
            for r in self.results
        )

    @property
    def errors(self) -> tuple[BatchItemResult, ...]:
        return tuple(r for r in self.results if r.error is not None)

    @property
    def succeeded(self) -> tuple[BatchItemResult, ...]:
        return tuple(r for r in self.results if r.error is None)

    @property
    def ok(self) -> bool:
        return not self.errors

    def __len__(self) -> int:
        return len(self.results)

    def describe(self) -> str:
        failures = len(self.errors)
        failed = f", {failures} failed" if failures else ""
        return (
            f"{len(self.results)} items in {self.wall_time:.3f}s "
            f"({self.max_workers} workers{failed}); cache "
            f"{self.cache_stats.describe()}"
        )


def _coerce_items(items: Iterable) -> list[BatchItem]:
    coerced: list[BatchItem] = []
    for index, item in enumerate(items):
        if isinstance(item, BatchItem):
            coerced.append(item.validated(index))
        elif isinstance(item, Sequence) and len(item) == 2:
            query, database = item
            coerced.append(
                BatchItem(
                    query, database, task=infer_task(database)
                ).validated(index)
            )
        else:
            raise ReproError(
                f"batch item {index}: expected BatchItem or "
                f"(query, database) pair, got {type(item).__name__}"
            )
    return coerced


def _error_record(
    failure: BaseException,
    elapsed: float,
    retries: int,
    budget_state: BudgetState | None,
) -> BatchItemError:
    return BatchItemError(
        exception=type(failure).__name__,
        message=str(failure),
        phase=getattr(failure, "phase", None),
        elapsed=elapsed,
        retries=retries,
        budget=budget_state,
        degradations=tuple(getattr(failure, "degradations", ())),
    )


class ItemRunner:
    """Runs single batch items per the module contract.

    The admission loop calls :meth:`run` from its workers; under
    process isolation each worker's forked child
    (:mod:`repro.core.procpool`) calls it in its own process.
    Everything an item needs — engine, coerced batch, derived seeds,
    budget, retry count, degradation routes, shared cache, telemetry
    flag — is captured at construction, so ``run(index)`` is
    self-contained and scheduling-independent.  Every ``Exception``
    becomes the item's error record (``MemoryError`` under a child's
    ``RLIMIT_AS`` included); an interrupt propagates.
    """

    def __init__(
        self,
        engine,
        batch: Sequence[BatchItem],
        *,
        seed: int | None,
        cache: ReductionCache,
        item_budget: EvaluationBudget | None,
        max_retries: int,
        routes: tuple[str, ...] | None,
        on_error: str,
        telemetry: bool,
    ):
        self.engine = engine
        self.batch = tuple(batch)
        self.seed = seed
        self.cache = cache
        self.item_budget = item_budget
        self.max_retries = max_retries
        self.routes = routes
        self.on_error = on_error
        self.telemetry = telemetry
        #: index → terminal exception, for ``BatchError.__cause__``.
        self.causes: dict[int, BaseException] = {}

    def run(self, index: int) -> BatchItemResult:
        item = self.batch[index]
        item_seed = derive_item_seed(self.seed, index)
        item_started = time.perf_counter()
        # Worker threads have their own ContextVar contexts, so the
        # collector must be installed here, not by the caller.  The
        # ``item`` root span closes when this block unwinds — including
        # on a fault — so partial telemetry survives in the error record.
        item_telemetry = EvaluationTelemetry() if self.telemetry else None
        # 'fail' and 'skip' walk a one-rung ladder: the item's method.
        routes = self.routes if self.on_error == "degrade" else (item.method,)
        with fault_scope(index):
            try:
                with telemetry_scope(item_telemetry), span(
                    "item", index=index, task=item.task, method=item.method
                ):
                    answer = evaluate_with_policy(
                        self.engine, item.query, item.database,
                        task=item.task, method=item.method, seed=item_seed,
                        cache=self.cache, budget=self.item_budget,
                        max_retries=self.max_retries, routes=routes,
                    )
                result = BatchItemResult(
                    index=index,
                    answer=answer,
                    seed=item_seed,
                    elapsed=time.perf_counter() - item_started,
                )
            except Exception as failure:
                elapsed = time.perf_counter() - item_started
                self.causes[index] = failure
                # The failed attempt's scope stamped its usage on the
                # failure; an unlimited budget opens no scope.
                budget_state = getattr(failure, "budget_state", None)
                if budget_state is None and self.item_budget is not None:
                    budget_state = BudgetState(
                        deadline=self.item_budget.deadline,
                        max_work_units=self.item_budget.max_work_units,
                        lineage_clause_cap=(
                            self.item_budget.lineage_clause_cap
                        ),
                        elapsed=elapsed,
                        work_units=0,
                    )
                result = BatchItemResult(
                    index=index,
                    answer=None,
                    seed=item_seed,
                    elapsed=elapsed,
                    error=_error_record(
                        failure, elapsed, getattr(failure, "retries", 0),
                        budget_state,
                    ),
                )
        if item_telemetry is not None:
            result = _with_telemetry(result, item_telemetry)
        return result


def _result_telemetry(result: BatchItemResult):
    """The telemetry riding on a settled item, wherever it landed."""
    if result.answer is not None:
        return result.answer.telemetry
    if result.error is not None:
        return result.error.telemetry
    return None


def _with_telemetry(result: BatchItemResult, telemetry) -> BatchItemResult:
    """``result`` with ``telemetry`` on its answer, or on its error
    record when it failed."""
    if result.answer is not None:
        return dataclasses.replace(
            result,
            answer=dataclasses.replace(result.answer, telemetry=telemetry),
        )
    return dataclasses.replace(
        result, error=dataclasses.replace(result.error, telemetry=telemetry)
    )


def _run_admitted(
    run, pending: list[int], width: int, on_settled
) -> dict[int, BatchItemResult]:
    """Settle ``pending`` with ``run(index)`` on ``width`` workers: the
    calling thread alone at width 1, fresh threads above.

    ``run`` is :meth:`ItemRunner.run` under thread isolation and
    :meth:`repro.core.procpool.ChildRunner.run`, which runs the item in
    the worker's own forked child, under process isolation.  Each
    worker takes the next index until none is left, a drain is
    requested or a worker failed outside an item (a journal append, an
    interrupt); that failure stops admission and is raised here once
    every worker has stopped.
    """
    queue = iter(pending)
    lock = threading.Lock()
    computed: dict[int, BatchItemResult] = {}
    failures: list[BaseException] = []

    def work() -> None:
        try:
            while True:
                with lock:
                    if failures or drain_requested():
                        return
                    index = next(queue, None)
                if index is None:
                    return
                computed[index] = on_settled(run(index))
        except BaseException as failure:
            failures.append(failure)

    if width == 1:
        work()
    else:
        threads = [threading.Thread(target=work) for _ in range(width)]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                thread.join()
        except BaseException as failure:
            failures.append(failure)  # stop admission, then unwind
            raise
    if failures:
        raise failures[0]
    return computed


def evaluate_batch(
    engine,
    items: Iterable,
    *,
    max_workers: int | None = None,
    seed: int | None = None,
    cache: ReductionCache | None = None,
    budget: EvaluationBudget | None = None,
    max_retries: int = 0,
    on_error: str = "fail",
    routes: tuple[str, ...] | None = None,
    telemetry: bool = False,
    isolation: str = "thread",
    memory_limit: int | None = None,
    journal=None,
    resume: bool = False,
) -> BatchResult:
    """Evaluate ``items`` with ``engine`` per the module contract.

    Parameters
    ----------
    engine:
        A :class:`~repro.core.estimator.PQEEngine`; its epsilon,
        repetitions and lineage budget apply to every item.
    items:
        :class:`BatchItem` objects or ``(query, database)`` pairs.
    max_workers:
        Most workers to run; defaults to ``min(len(items), cpu_count)``.
        Workers take items one at a time, as the module docstring says;
        at 1 the batch runs on the calling thread.  Results are
        identical at every width — only the scheduling and the
        journal's line order change.
    seed:
        Batch seed from which every item stream is derived; ``None``
        leaves randomized items nondeterministic.
    cache:
        Reduction cache to share; a private one is created per call when
        omitted.  Pass a long-lived cache to amortise construction
        across batches; ``BatchResult.cache_stats`` always reports only
        this batch's traffic.  Failed builds are never stored (the
        cache retries them), so aborted items cannot poison siblings.
    budget:
        Per-item :class:`~repro.core.budget.EvaluationBudget`, enforced
        at cooperative checkpoints inside the evaluation loops.  Its
        ``deadline`` is the item's one deadline: under
        ``isolation='process'`` it also arms the watchdog.
    max_retries:
        Retries per item (per ladder rung in ``'degrade'`` mode) for
        transient estimation failures, each run at once on a
        deterministically derived seed (``derive_retry_seed``).
    on_error:
        ``'fail'``, ``'skip'`` or ``'degrade'`` — see the module
        docstring's fault-isolation contract.
    routes:
        ``'degrade'`` mode only: the ladder every item walks, in place
        of its task's (``TASKS[task].ladder(query, method)``).
    telemetry:
        When true, every item records spans and metrics into its own
        :class:`~repro.obs.EvaluationTelemetry` (installed where the
        item runs, rooted at an ``item`` span), attached to the item's
        answer — or to its :class:`BatchItemError` on failure, covering
        the work done up to the fault.  The per-item collections are
        merged in item-index order into ``BatchResult.telemetry``, so
        the merged deterministic counters are worker-count-independent.
    isolation:
        ``'thread'`` (default) or ``'process'`` — see the module
        docstring's durability contract.  Process isolation survives
        segfaults, OOM kills and ``SIGKILL`` of a worker's child at the
        cost of per-process caches and fork/IPC overhead.
    memory_limit:
        Per-child address-space cap in bytes (``isolation='process'``
        only): a child that outgrows it gets ``MemoryError`` — a
        structured, recoverable error record — instead of taking the
        host down.
    journal:
        Path (or open :class:`~repro.core.journal.BatchJournal`) to
        append fsync'd per-item completion records to; see the module
        docstring's durability contract.
    resume:
        Replay the journal's verified prefix before evaluating; only
        meaningful with ``journal``.  Completed items are restored
        bitwise (marked ``replayed=True``), previously failed or
        missing items are (re)computed.
    """
    from repro.core import journal as journal_mod

    batch = _coerce_items(items)
    if on_error not in _ON_ERROR:
        raise ReproError(
            f"unknown on_error mode {on_error!r}; choose from {_ON_ERROR}"
        )
    if isolation not in _ISOLATION:
        raise ReproError(
            f"unknown isolation mode {isolation!r}; "
            f"choose from {_ISOLATION}"
        )
    if max_retries < 0:
        raise ReproError(f"max_retries must be >= 0, got {max_retries}")
    if routes is not None and on_error != "degrade":
        raise ReproError("routes requires on_error='degrade'")
    if max_workers is None:
        max_workers = max(1, min(len(batch), os.cpu_count() or 1))
    if max_workers < 1:
        raise ReproError(f"max_workers must be >= 1, got {max_workers}")
    if memory_limit is not None and isolation != "process":
        raise ReproError(
            "memory_limit requires isolation='process' (thread workers "
            "share the caller's address space)"
        )
    if resume and journal is None:
        raise ReproError("resume=True requires a journal")
    if cache is None:
        cache = ReductionCache()

    stats_before = cache.stats
    started = time.perf_counter()

    # -- journal replay -------------------------------------------------
    replayed: dict[int, BatchItemResult] = {}
    journal_log = None
    if journal is not None:
        fingerprint = journal_mod.batch_fingerprint(batch, seed, engine)
        owns_journal = not isinstance(journal, journal_mod.BatchJournal)
        journal_log = (
            journal_mod.BatchJournal(journal) if owns_journal else journal
        )
        loaded = journal_mod.load_journal(journal_log.path)
        if resume:
            journal_mod.check_fingerprint(
                loaded, fingerprint, journal_log.path
            )
            for index in loaded.completed():
                if index >= len(batch):
                    continue
                restored = loaded.restore_result(index)
                if telemetry:
                    # Rebuild counter-only telemetry so the merged
                    # replay-stable counters survive the resume.
                    item_telemetry = EvaluationTelemetry()
                    for name, value in (
                        loaded.counters(index) or {}
                    ).items():
                        item_telemetry.metrics.inc(name, value)
                    restored = _with_telemetry(restored, item_telemetry)
                replayed[index] = restored
                metric_inc("journal.replays")
        if loaded.header is None:
            journal_log.write_header(fingerprint, seed, len(batch))

    runner = ItemRunner(
        engine,
        batch,
        seed=seed,
        cache=cache,
        item_budget=budget,
        max_retries=max_retries,
        routes=routes,
        on_error=on_error,
        telemetry=telemetry,
    )

    # A worker thread has no collector of its own: its journal appends
    # count where the caller's would.
    caller_telemetry = active_telemetry()

    def record(result: BatchItemResult) -> BatchItemResult:
        """Journal one settled item (from whichever thread settled it)."""
        if journal_log is not None:
            item_telemetry = _result_telemetry(result)
            counters = (
                item_telemetry.metrics.replay_stable_counters()
                if item_telemetry is not None
                else None
            )
            with telemetry_scope(caller_telemetry):
                journal_log.record_item(result, counters)
        return result

    pending = [i for i in range(len(batch)) if i not in replayed]

    # -- execution ------------------------------------------------------
    children = None
    if isolation == "process":
        from repro.core.procpool import ChildRunner

        children = ChildRunner(runner, memory_limit)
    try:
        computed = _run_admitted(
            runner.run if children is None else children.run,
            pending,
            min(max_workers, len(pending)),
            record,
        )
    finally:
        if children is not None:
            children.close()
        if journal_log is not None and journal is not journal_log:
            journal_log.close()
    cache_stats = (
        cache.stats - stats_before if children is None else children.stats
    )

    settled = {**replayed, **computed}
    results = tuple(settled[i] for i in sorted(settled))
    batch_telemetry = None
    if telemetry:
        # Merge in item-index order: span ids and counter totals then
        # depend only on the per-item collections, not on scheduling.
        batch_telemetry = EvaluationTelemetry()
        for item_result in results:
            source = _result_telemetry(item_result)
            if source is not None:
                batch_telemetry.merge(source)
    result = BatchResult(
        results=results,
        cache_stats=cache_stats,
        wall_time=time.perf_counter() - started,
        max_workers=max_workers,
        telemetry=batch_telemetry,
    )

    remaining = tuple(i for i in range(len(batch)) if i not in settled)
    if remaining:
        # Drained: in-flight items settled (and were journalled); the
        # rest were never admitted.  Surface the partial outcome.
        metric_inc("batch.drained")
        raise BatchDrainedError(
            f"batch drained after {len(settled)} of {len(batch)} items; "
            f"{len(remaining)} never admitted",
            result,
            remaining,
        )

    if on_error == "fail" and not result.ok:
        first = result.errors[0]
        item = batch[first.index]
        raise BatchError(
            f"batch item {first.index} ({item.task}, {item.query}) "
            f"failed: {first.error.message}",
            result,
            first.index,
        ) from runner.causes.get(first.index)

    return result
