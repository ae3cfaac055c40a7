"""Process-isolated batch execution: crash containment for workers.

The thread backend in :mod:`repro.core.parallel` contains *Python*
failures — an exception in one item becomes a structured error record.
It cannot contain *process* failures: a segfault in native code, the
kernel OOM killer, or an operator ``SIGKILL`` takes down the whole
batch, completed siblings included.  This module is the containment
layer ``evaluate_batch(..., isolation='process')`` runs on:

- each worker is a forked subprocess evaluating one item at a time over
  a dedicated pipe, with an optional ``RLIMIT_AS`` address-space cap so
  runaway memory becomes a recoverable ``MemoryError`` inside the
  worker instead of an OOM kill outside it;
- a supervisor loop multiplexes worker pipes *and* process sentinels:
  a worker that dies without reporting — whatever killed it — is
  detected immediately, recorded as a
  :class:`~repro.errors.WorkerCrashError` error record for exactly the
  item it was evaluating, and replaced so the batch continues;
- a watchdog backstops cooperative deadlines: when the item budget has
  a ``deadline``, a worker that blows well past it (stuck in native
  code where no :mod:`~repro.core.budget` checkpoint can fire) is
  hard-killed and recorded the same way.

Reproducibility: workers run the same :class:`~repro.core.parallel.
ItemRunner` with the same SHA-256 per-item seed streams as the thread
backend, so answers and seeds are bitwise-identical across backends
and worker counts.  Telemetry is shipped back as plain records and
rebuilt id-for-id.  Cache *traffic* is the one documented difference:
each worker owns a fork-time copy of the reduction cache, so the
batch's ``cache_stats`` aggregate per-worker traffic (pair the pool
with a :class:`~repro.core.diskcache.DiskCache` tier to share builds
across processes durably).

Requires the ``fork`` start method (POSIX): the runner — engine, items,
live cache — crosses into workers by inheritance, not pickling, and
installed fault plans (:mod:`repro.testing.faults`) propagate the same
way, which is what lets chaos tests crash a worker at a named site.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from multiprocessing import connection

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

from repro.core.cache import CacheStats
from repro.core.parallel import (
    BatchItemResult,
    ItemRunner,
    _error_record,
    _result_telemetry,
    _with_telemetry,
    derive_item_seed,
    drain_requested,
)
from repro.errors import ReproError, WorkerCrashError
from repro.obs import EvaluationTelemetry, MetricsRegistry, Tracer, metric_inc

__all__ = ["run_process_batch"]

#: Supervisor poll interval while watchdog deadlines are armed.
_POLL_SECONDS = 0.05

#: Slack multiplier over the cooperative per-item deadline before the
#: watchdog hard-kills a worker: the budget layer should always fire
#: first, so the watchdog only triggers when checkpoints cannot run
#: (wedged native code, a stopped process).
_WATCHDOG_FACTOR = 2.0
_WATCHDOG_SLACK = 1.0


def _freeze_payload(index: int, result: BatchItemResult, cause, stats):
    """A picklable transport message for one settled item.

    Telemetry objects hold locks and cannot cross the pipe; they travel
    as ``(span records, metrics state)`` and are rebuilt id-for-id by
    the supervisor.
    """
    telemetry = _result_telemetry(result)
    frozen = None
    if telemetry is not None:
        frozen = (telemetry.tracer.records, telemetry.metrics.state())
        result = _with_telemetry(result, None)
    if cause is not None:
        try:
            pickle.dumps(cause)
        except Exception:
            cause = None
    return {
        "index": index,
        "result": result,
        "telemetry": frozen,
        "cause": cause,
        "stats": (stats.hits, stats.misses, stats.evictions),
    }


def _thaw_result(payload) -> BatchItemResult:
    result: BatchItemResult = payload["result"]
    frozen = payload["telemetry"]
    if frozen is not None:
        records, metrics_state = frozen
        result = _with_telemetry(
            result,
            EvaluationTelemetry(
                tracer=Tracer.from_records(records),
                metrics=MetricsRegistry.from_state(metrics_state),
            ),
        )
    return result


def _worker_main(conn, runner: ItemRunner, memory_limit: int | None):
    """Worker loop: evaluate requested indexes until told to stop."""
    if memory_limit is not None and resource is not None:
        try:
            resource.setrlimit(
                resource.RLIMIT_AS, (memory_limit, memory_limit)
            )
        except (ValueError, OSError):  # pragma: no cover - cap refused
            pass
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        before = runner.cache.stats
        result = runner.run(message)
        stats = runner.cache.stats - before
        try:
            payload = _freeze_payload(
                message, result, runner.causes.get(message), stats
            )
            conn.send(payload)
        except Exception as failure:
            # The result itself would not pickle; ship a structured
            # error record instead of wedging the pipe.
            fallback = BatchItemResult(
                index=message,
                answer=None,
                seed=result.seed,
                elapsed=result.elapsed,
                error=_error_record(failure, result.elapsed, 0, None),
            )
            conn.send(_freeze_payload(message, fallback, None, stats))


class _Worker:
    """One subprocess worker plus its supervisor-side bookkeeping."""

    def __init__(self, ctx, runner, memory_limit):
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, runner, memory_limit),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.item: int | None = None
        self.assigned_at: float = 0.0

    def assign(self, index: int) -> None:
        self.item = index
        self.assigned_at = time.perf_counter()
        self.conn.send(index)

    def settle(self) -> None:
        self.item = None

    def alive(self) -> bool:
        return self.process.is_alive()

    def shutdown(self) -> None:
        try:
            if self.process.is_alive():
                self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.conn.close()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.kill()
            self.process.join()


def _crash_result(
    runner: ItemRunner, index: int, exitcode, elapsed: float, reason: str
) -> BatchItemResult:
    failure = WorkerCrashError(
        f"subprocess worker died evaluating batch item {index} "
        f"({reason}, exit code {exitcode})",
        exitcode=exitcode,
        item_index=index,
        phase="procpool.worker",
        elapsed=elapsed,
    )
    runner.causes[index] = failure
    metric_inc("procpool.crashes")
    return BatchItemResult(
        index=index,
        answer=None,
        seed=derive_item_seed(runner.seed, index),
        elapsed=elapsed,
        error=_error_record(failure, elapsed, 0, None),
    )


def run_process_batch(
    runner: ItemRunner,
    pending,
    *,
    max_workers: int,
    memory_limit: int | None = None,
    on_settled=None,
):
    """Evaluate ``pending`` item indexes in supervised subprocess workers.

    Returns ``(computed, cache_stats)``: index → settled
    :class:`BatchItemResult` (crashes included, as structured error
    records) and the summed per-worker cache traffic.  ``on_settled``
    is invoked in the supervisor, once per item, as each settles — the
    journal hook, so completions are durable before the batch moves on.
    The watchdog arms from ``runner.item_budget.deadline``: a worker
    still busy ``2 × deadline + 1 s`` after taking its item is killed.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ReproError(
            "isolation='process' requires the 'fork' start method "
            "(POSIX); use the thread backend on this platform"
        )
    ctx = multiprocessing.get_context("fork")
    queue = list(pending)
    queue.reverse()  # pop() from the front of the original order
    computed: dict[int, BatchItemResult] = {}
    total = len(pending)
    hits = misses = evictions = 0
    budget = runner.item_budget
    watchdog = (
        budget.deadline * _WATCHDOG_FACTOR + _WATCHDOG_SLACK
        if budget is not None and budget.deadline is not None
        else None
    )
    if on_settled is None:
        on_settled = lambda result: result  # noqa: E731

    width = max(1, min(max_workers, total))
    workers = [_Worker(ctx, runner, memory_limit) for _ in range(width)]
    try:
        while len(computed) < total:
            # A graceful drain stops admission: busy workers finish (and
            # their items are journalled via ``on_settled``), idle ones
            # get nothing new, and once no worker is busy the loop below
            # exits with the queue's remainder unevaluated — the caller
            # surfaces it as a BatchDrainedError.
            draining = drain_requested()
            for position, worker in enumerate(workers):
                if worker.item is None and queue and not draining:
                    if not worker.alive():
                        # An idle worker died (killed from outside);
                        # replace it before handing it work.
                        worker.shutdown()
                        workers[position] = _Worker(
                            ctx, runner, memory_limit
                        )
                        metric_inc("procpool.restarts")
                    workers[position].assign(queue.pop())
            busy = [w for w in workers if w.item is not None]
            if not busy:
                # Nothing in flight: either every worker died with the
                # queue empty (defensive) or a drain stopped admission.
                break
            waitables = [w.conn for w in busy] + [
                w.process.sentinel for w in busy
            ]
            ready = connection.wait(
                waitables,
                timeout=_POLL_SECONDS if watchdog is not None else None,
            )
            now = time.perf_counter()
            for worker in busy:
                index = worker.item
                if index is None:  # pragma: no cover - defensive
                    continue
                # Results win over death: a worker that reported and
                # then exited is a completion, not a crash.
                has_payload = False
                if worker.conn in ready:
                    has_payload = True
                elif worker.process.sentinel in ready:
                    has_payload = worker.conn.poll()
                if has_payload:
                    try:
                        payload = worker.conn.recv()
                    except (EOFError, OSError):
                        payload = None
                    if payload is not None:
                        result = _thaw_result(payload)
                        if payload["cause"] is not None:
                            runner.causes[index] = payload["cause"]
                        item_hits, item_misses, item_evictions = (
                            payload["stats"]
                        )
                        hits += item_hits
                        misses += item_misses
                        evictions += item_evictions
                        computed[index] = on_settled(result)
                        worker.settle()
                        continue
                crashed = (
                    worker.process.sentinel in ready
                    and not worker.alive()
                )
                reason = "crashed"
                if (
                    not crashed
                    and watchdog is not None
                    and now - worker.assigned_at > watchdog
                ):
                    # Cooperative deadline long blown: the worker is
                    # wedged somewhere no checkpoint can fire.
                    worker.process.kill()
                    worker.process.join()
                    crashed = True
                    reason = "watchdog timeout"
                if crashed:
                    elapsed = now - worker.assigned_at
                    computed[index] = on_settled(
                        _crash_result(
                            runner,
                            index,
                            worker.process.exitcode,
                            elapsed,
                            reason,
                        )
                    )
                    worker.settle()
                    worker.conn.close()
                    position = workers.index(worker)
                    if queue:
                        workers[position] = _Worker(
                            ctx, runner, memory_limit
                        )
                        metric_inc("procpool.restarts")
                    else:
                        workers.pop(position)
    finally:
        for worker in workers:
            worker.shutdown()
    return computed, CacheStats(hits, misses, evictions)
