"""Batch evaluation: one reduction cache, many items, a worker pool.

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
- items are fanned out over a ``concurrent.futures`` thread pool.

Reproducibility contract
------------------------
Item ``i`` draws from its own RNG stream, seeded with
``derive_item_seed(seed, i)`` — a SHA-256 derivation of the batch seed
and the item index, so the streams are statistically independent and do
not depend on worker scheduling.  Retry attempt ``a`` of an item draws
from ``derive_retry_seed(item_seed, a)`` (same construction; see
:mod:`repro.core.resilience`), so retry outcomes are equally
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
``on_error`` selects what a failing item does to its batch:

``'fail'`` (default)
    The batch raises :class:`BatchError` for the lowest-indexed failing
    item, with the original exception chained as ``__cause__`` — but
    only after every item has settled, and the exception carries the
    full :class:`BatchResult` (completed answers *and* structured error
    records) as ``BatchError.result``.  Completed siblings are never
    discarded.
``'skip'``
    Failing items yield a :class:`BatchItemResult` whose ``error`` is a
    structured :class:`BatchItemError` (exception class, message,
    phase, elapsed, budget state, retries); the rest of the batch
    completes normally and no exception is raised.
``'degrade'``
    Like ``'skip'``, but each item is evaluated through
    :func:`repro.core.resilience.evaluate_with_policy` first: routes
    fall back along exact-WMC → FPRAS → Monte-Carlo with widened ε
    before an error record is produced, and answers carry their
    degradation provenance.

``timeout``/``budget`` bound each item via cooperative checkpoints
(:mod:`repro.core.budget`): the deadline is absolute per item — shared
across its retries and degradation rungs — so a stalled item cannot
overrun it by more than the checkpoint granularity.  ``max_retries``
bounds deterministic retry of transient estimation failures.

Durability contract
-------------------
Two orthogonal extensions harden a batch against failures the thread
pool cannot contain:

``isolation='process'``
    Items run in subprocess workers supervised by
    :mod:`repro.core.procpool`: a worker that dies without reporting —
    segfault, OOM kill, ``SIGKILL``, hard watchdog timeout — becomes a
    structured :class:`BatchItemError` carrying
    :class:`~repro.errors.WorkerCrashError`, and the batch continues
    under the same ``on_error`` semantics.  Answers and seeds are
    bitwise-identical to the thread backend (same
    :func:`derive_item_seed` streams, same routing); only cache
    *traffic* differs, because each worker process owns a private
    reduction cache (share a durable
    :class:`~repro.core.diskcache.DiskCache` tier to win the reuse
    back).

``journal=FILE`` (+ ``resume=True``)
    Every settled item is appended to an fsync'd
    :class:`~repro.core.journal.BatchJournal` before the batch moves
    on.  A rerun with ``resume=True`` replays the journal's verified
    prefix — completed answers are restored bitwise, error records are
    recomputed — and evaluates only the remainder, producing a
    :class:`BatchResult` whose answers, seeds and merged replay-stable
    deterministic counters are identical to an uninterrupted run
    (asserted at workers 1 and 4 in ``tests/test_chaos.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.budget import BudgetState, EvaluationBudget, budget_scope
from repro.core.cache import CacheStats, ReductionCache
from repro.obs import (
    EvaluationTelemetry,
    metric_inc,
    span,
    telemetry_scope,
)
from repro.core.resilience import (
    DegradationPolicy,
    TRANSIENT_ERRORS,
    derive_retry_seed,
    evaluate_with_policy,
)
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
#: the serve daemon's) sets it; the execution backends check it before
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

    SHA-256 over ``(seed, index)`` — deterministic across processes and
    platforms (unlike ``hash``), and statistically independent between
    indices.  ``None`` stays ``None`` (nondeterministic items).
    """
    if seed is None:
        return None
    digest = hashlib.sha256(
        f"repro-batch:{seed}:{index}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big")


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
    degradations: tuple[str, ...] = ()   # attempt log (degrade mode)
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
    retries: int = 0
    #: True when this result was restored from a batch journal rather
    #: than computed in this run.  Excluded from equality: a replayed
    #: answer is the recorded answer.
    replayed: bool = field(default=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None


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


def _combine_budget(
    budget: EvaluationBudget | None, timeout: float | None
) -> EvaluationBudget | None:
    """Fold a ``timeout`` shorthand into the per-item budget."""
    if timeout is None:
        return budget
    if budget is None:
        return EvaluationBudget(deadline=timeout)
    deadline = (
        timeout if budget.deadline is None else min(budget.deadline, timeout)
    )
    return dataclasses.replace(budget, deadline=deadline)


def _error_record(
    failure: BaseException,
    elapsed: float,
    retries: int,
    budget_state: BudgetState | None,
    telemetry: EvaluationTelemetry | None = None,
) -> BatchItemError:
    return BatchItemError(
        exception=type(failure).__name__,
        message=str(failure),
        phase=getattr(failure, "phase", None),
        elapsed=elapsed,
        retries=retries,
        budget=budget_state,
        degradations=tuple(getattr(failure, "degradations", ())),
        telemetry=telemetry,
    )


class ItemRunner:
    """Runs single batch items per the module contract.

    The one piece both execution backends share: the thread backend
    calls :meth:`run` from pool threads, the process backend
    (:mod:`repro.core.procpool`) forks workers that call it in their own
    process.  Everything an item needs — engine, coerced batch, derived
    seeds, budget, retry/degradation policy, shared cache, telemetry
    flag — is captured at construction, so ``run(index)`` is
    self-contained and scheduling-independent.
    """

    def __init__(
        self,
        engine,
        batch: Sequence[BatchItem],
        *,
        seed: int | None,
        cache: ReductionCache,
        item_budget: EvaluationBudget | None,
        policy: DegradationPolicy,
        on_error: str,
        telemetry: bool,
    ):
        self.engine = engine
        self.batch = tuple(batch)
        self.seed = seed
        self.cache = cache
        self.item_budget = item_budget
        self.policy = policy
        self.on_error = on_error
        self.telemetry = telemetry
        #: index → terminal exception, for ``BatchError.__cause__``.
        self.causes: dict[int, BaseException] = {}

    # -- engine dispatch ------------------------------------------------

    def _call_engine(self, item: BatchItem, call_seed: int | None):
        return TASKS[item.task].evaluate(
            self.engine,
            item.query,
            item.database,
            method=item.method,
            seed=call_seed,
            cache=self.cache,
        )

    def _run_degrading(self, item: BatchItem, item_seed: int | None):
        answer = evaluate_with_policy(
            self.engine,
            item.query,
            item.database,
            task=item.task,
            method=item.method,
            seed=item_seed,
            cache=self.cache,
            budget=self.item_budget,
            policy=self.policy,
        )
        return answer, answer.retries

    def _run_retrying(
        self, item: BatchItem, item_seed: int | None, item_started: float
    ):
        attempt = 0
        while True:
            try:
                with budget_scope(self.item_budget, started=item_started):
                    answer = self._call_engine(
                        item, derive_retry_seed(item_seed, attempt)
                    )
                return answer, attempt
            except TRANSIENT_ERRORS:
                # BudgetExceededError is not an EstimationError, so
                # budget exhaustion never consumes retries.
                if attempt >= self.policy.max_retries:
                    raise
                attempt += 1
                metric_inc("resilience.retries")
                delay = self.policy.backoff(attempt, seed=item_seed)
                if delay:
                    time.sleep(delay)

    # -- the per-item entry point ---------------------------------------

    def run(self, index: int) -> BatchItemResult:
        item = self.batch[index]
        item_seed = derive_item_seed(self.seed, index)
        item_started = time.perf_counter()
        retries = 0
        # Worker threads have their own ContextVar contexts, so the
        # collector must be installed here, not by the caller.  The
        # ``item`` root span closes when this block unwinds — including
        # on a fault — so partial telemetry survives in the error record.
        item_telemetry = EvaluationTelemetry() if self.telemetry else None
        with fault_scope(index):
            try:
                with telemetry_scope(item_telemetry), span(
                    "item", index=index, task=item.task, method=item.method
                ):
                    if self.on_error == "degrade":
                        answer, retries = self._run_degrading(
                            item, item_seed
                        )
                    else:
                        answer, retries = self._run_retrying(
                            item, item_seed, item_started
                        )
            except BaseException as failure:
                elapsed = time.perf_counter() - item_started
                self.causes[index] = failure
                retries = getattr(failure, "retries", retries)
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
                return BatchItemResult(
                    index=index,
                    answer=None,
                    seed=item_seed,
                    elapsed=elapsed,
                    error=_error_record(
                        failure, elapsed, retries, budget_state,
                        telemetry=item_telemetry,
                    ),
                    retries=retries,
                )
        if item_telemetry is not None:
            answer = dataclasses.replace(answer, telemetry=item_telemetry)
        return BatchItemResult(
            index=index,
            answer=answer,
            seed=item_seed,
            elapsed=time.perf_counter() - item_started,
            retries=retries,
        )


def _result_telemetry(result: BatchItemResult):
    """The telemetry riding on a settled item, wherever it landed."""
    if result.answer is not None:
        return result.answer.telemetry
    if result.error is not None:
        return result.error.telemetry
    return None


def evaluate_batch(
    engine,
    items: Iterable,
    *,
    max_workers: int | None = None,
    seed: int | None = None,
    cache: ReductionCache | None = None,
    timeout: float | None = None,
    budget: EvaluationBudget | None = None,
    max_retries: int = 0,
    on_error: str = "fail",
    policy: DegradationPolicy | None = None,
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
        Pool width; defaults to ``min(len(items), cpu_count)``.  With 1
        the batch runs inline on the calling thread (identical results —
        only the scheduling changes).
    seed:
        Batch seed from which every item stream is derived; ``None``
        leaves randomized items nondeterministic.
    cache:
        Reduction cache to share; a private one is created per call when
        omitted.  Pass a long-lived cache to amortise construction
        across batches; ``BatchResult.cache_stats`` always reports only
        this batch's traffic.  Failed builds are never stored (the
        cache retries them), so aborted items cannot poison siblings.
    timeout:
        Per-item wall-clock deadline in seconds — shorthand for (and
        combined with) ``budget``'s deadline; the tighter wins.
    budget:
        Per-item :class:`~repro.core.budget.EvaluationBudget`, enforced
        at cooperative checkpoints inside the evaluation loops.
    max_retries:
        Retries per item for transient estimation failures, each on a
        deterministically derived seed (``derive_retry_seed``).
    on_error:
        ``'fail'``, ``'skip'`` or ``'degrade'`` — see the module
        docstring's fault-isolation contract.
    policy:
        :class:`~repro.core.resilience.DegradationPolicy` for
        ``'degrade'`` mode (and retry backoff); defaults to
        ``DegradationPolicy(max_retries=max_retries)``.
    telemetry:
        When true, every item records spans and metrics into its own
        :class:`~repro.obs.EvaluationTelemetry` (installed on the worker
        thread, rooted at an ``item`` span), attached to the item's
        answer — or to its :class:`BatchItemError` on failure, covering
        the work done up to the fault.  The per-item collections are
        merged in item-index order into ``BatchResult.telemetry``, so
        the merged deterministic counters are worker-count-independent.
    isolation:
        ``'thread'`` (default) or ``'process'`` — see the module
        docstring's durability contract.  Process isolation survives
        worker segfaults, OOM kills and ``SIGKILL`` at the cost of
        per-process caches and fork/IPC overhead.
    memory_limit:
        Per-worker address-space cap in bytes (``isolation='process'``
        only): a worker that outgrows it gets ``MemoryError`` — a
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
    if policy is None:
        policy = DegradationPolicy(max_retries=max_retries)
    item_budget = _combine_budget(budget, timeout)

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
                    restored = dataclasses.replace(
                        restored,
                        answer=dataclasses.replace(
                            restored.answer, telemetry=item_telemetry
                        ),
                    )
                replayed[index] = restored
                metric_inc("journal.replays")
        if loaded.header is None:
            journal_log.write_header(fingerprint, seed, len(batch))

    runner = ItemRunner(
        engine,
        batch,
        seed=seed,
        cache=cache,
        item_budget=item_budget,
        policy=policy,
        on_error=on_error,
        telemetry=telemetry,
    )

    def record(result: BatchItemResult) -> BatchItemResult:
        """Journal one settled item (from whichever thread settled it)."""
        if journal_log is not None:
            item_telemetry = _result_telemetry(result)
            counters = (
                item_telemetry.metrics.replay_stable_counters()
                if item_telemetry is not None
                else None
            )
            journal_log.record_item(result, counters)
        return result

    pending = [i for i in range(len(batch)) if i not in replayed]

    # -- execution backends ---------------------------------------------
    if isolation == "process" and pending:
        from repro.core.procpool import run_process_batch

        computed, stats_delta = run_process_batch(
            runner,
            pending,
            max_workers=max_workers,
            memory_limit=memory_limit,
            timeout=timeout,
            on_settled=record,
        )
    elif max_workers == 1 or len(pending) <= 1:
        computed = {}
        for i in pending:
            if drain_requested():
                break
            computed[i] = record(runner.run(i))
        stats_delta = None
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = {}
            for i in pending:
                if drain_requested():
                    break
                futures[i] = pool.submit(runner.run, i)
            # Every future settles — workers record failures instead of
            # raising, so no sibling's work is ever discarded.
            computed = {
                i: record(future.result())
                for i, future in futures.items()
            }
            stats_delta = None

    if journal_log is not None and journal is not journal_log:
        journal_log.close()

    settled = {**replayed, **computed}
    remaining = tuple(i for i in range(len(batch)) if i not in settled)
    if remaining:
        # Drained: in-flight items settled (and were journalled); the
        # rest were never admitted.  Surface the partial outcome.
        partial = BatchResult(
            results=tuple(settled[i] for i in sorted(settled)),
            cache_stats=(
                stats_delta
                if stats_delta is not None
                else cache.stats - stats_before
            ),
            wall_time=time.perf_counter() - started,
            max_workers=max_workers,
        )
        metric_inc("batch.drained")
        raise BatchDrainedError(
            f"batch drained after {len(settled)} of {len(batch)} items; "
            f"{len(remaining)} never admitted",
            partial,
            remaining,
        )

    results = [
        replayed[i] if i in replayed else computed[i]
        for i in range(len(batch))
    ]

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
        results=tuple(results),
        cache_stats=(
            stats_delta
            if stats_delta is not None
            else cache.stats - stats_before
        ),
        wall_time=time.perf_counter() - started,
        max_workers=max_workers,
        telemetry=batch_telemetry,
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
