"""Process isolation: each admission thread runs its items in a forked
child of its own.

Threads contain *Python* failures — an exception in one item becomes a
structured error record — but not *process* failures: a segfault in
native code, the kernel OOM killer or an operator ``SIGKILL`` takes
down the whole batch.  This module is that containment and nothing
else.  The one admission loop in :mod:`repro.core.parallel` still
decides which worker takes the next item, when a drain stops admission
and when a settled item is journalled; under ``isolation='process'``
it calls :meth:`ChildRunner.run` where threads call
:meth:`~repro.core.parallel.ItemRunner.run`:

- each admission thread owns one forked child, forked on the thread's
  first item and replaced (``procpool.restarts``) when found dead.  The
  child evaluates the indexes sent over its pipe, under an optional
  ``RLIMIT_AS`` cap that turns runaway memory into a ``MemoryError``
  record instead of an OOM kill;
- ``run`` waits on the child's pipe and sentinel until the payload
  arrives or the child dies, whatever killed it.  A death is a
  :class:`~repro.errors.WorkerCrashError` record (``procpool.crashes``)
  for the item the child was evaluating;
- when the item budget has a ``deadline``, that wait is one timed wait
  of ``2 × deadline + 1 s`` (the watchdog), and a child still busy then
  — stuck where no :mod:`~repro.core.budget` checkpoint fires — is
  killed and recorded the same way.

Forks take one module lock, ``_FORK_LOCK``, over the pipe, the fork
and the close of the child's pipe end, so no child inherits a sibling's
pipe end or sentinel and hides that sibling's death; the daemon's
per-request forks take it too, and so does reaping, since every fork
reaps finished children.  A child takes none of the locks a parent
admission thread holds: the admission lock, the stats lock, the
journal lock and the caller's collector.  The crash counters count in
the caller's collector, outside any fork.

Answers and seeds are bitwise-identical to the thread backend's: the
children run the same :class:`~repro.core.parallel.ItemRunner` on the
same SHA-256 per-item seed streams, and telemetry comes back as plain
records rebuilt id-for-id.  Cache *traffic* is the one documented
difference: each child owns a fork-time copy of the reduction cache,
so the batch's ``cache_stats`` sum the children's traffic (a
:class:`~repro.core.diskcache.DiskCache` tier shares builds across
processes durably).  Above one worker that sum changes from run to
run, because scheduling picks which child's cache serves an item.

Requires the ``fork`` start method (POSIX): the runner — engine, items,
live cache — and installed fault plans (:mod:`repro.testing.faults`)
reach the children by inheritance, not pickling, which is what lets
chaos tests crash a child at a named site.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
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
)
from repro.errors import ReproError, WorkerCrashError
from repro.obs import (
    EvaluationTelemetry,
    MetricsRegistry,
    Tracer,
    active_telemetry,
    metric_inc,
    telemetry_scope,
)

__all__ = ["ChildRunner"]

#: Slack multiplier over the cooperative per-item deadline before the
#: watchdog hard-kills a child: the budget layer should always fire
#: first, so the watchdog only triggers when checkpoints cannot run
#: (wedged native code, a stopped process).
_WATCHDOG_FACTOR = 2.0
_WATCHDOG_SLACK = 1.0

#: Held while forking (pipe, fork, close of the child's end) and while
#: reaping: one fork at a time in the whole process.
_FORK_LOCK = threading.Lock()


def _freeze_payload(result: BatchItemResult, cause, stats):
    """A picklable transport message for one settled item.

    Telemetry objects hold locks and cannot cross the pipe; they travel
    as ``(span records, metrics state)`` and are rebuilt id-for-id by
    the admission thread.
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


def _child_main(conn, runner: ItemRunner, memory_limit: int | None):
    """Child loop: evaluate requested indexes until told to stop.  An
    interrupt ends the child with exit code 1 and no traceback (its
    admission thread records the crash)."""
    if memory_limit is not None and resource is not None:
        try:
            resource.setrlimit(
                resource.RLIMIT_AS, (memory_limit, memory_limit)
            )
        except (ValueError, OSError):  # pragma: no cover - cap refused
            pass
    try:
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
                    result, runner.causes.get(message), stats
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
                conn.send(_freeze_payload(fallback, None, stats))
    except KeyboardInterrupt:
        # multiprocessing reports an integer exit code without a
        # traceback.
        raise SystemExit(1) from None


class _Child:
    """One forked child plus the parent's end of its pipe.  Made with
    ``_FORK_LOCK`` held."""

    def __init__(self, runner, memory_limit):
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_child_main,
            args=(child_conn, runner, memory_limit),
            daemon=True,
        )
        self.process.start()
        child_conn.close()

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
    return BatchItemResult(
        index=index,
        answer=None,
        seed=derive_item_seed(runner.seed, index),
        elapsed=elapsed,
        error=_error_record(failure, elapsed, 0, None),
    )


class ChildRunner:
    """Runs each item in the calling admission thread's own child.

    ``run(index)`` is what the admission loop calls under
    ``isolation='process'``; it returns the settled result, or the
    :class:`~repro.errors.WorkerCrashError` record of a child that
    died.  ``stats`` sums the children's cache traffic.  Make it on the
    thread whose collector should count ``procpool.crashes`` and
    ``procpool.restarts``, and :meth:`close` it once admission stopped.
    """

    def __init__(self, runner: ItemRunner, memory_limit: int | None = None):
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ReproError(
                "isolation='process' requires the 'fork' start method "
                "(POSIX); use the thread backend on this platform"
            )
        self.runner = runner
        self.memory_limit = memory_limit
        budget = runner.item_budget
        self.watchdog = (
            budget.deadline * _WATCHDOG_FACTOR + _WATCHDOG_SLACK
            if budget is not None and budget.deadline is not None
            else None
        )
        self._telemetry = active_telemetry()
        self._children: dict[int, _Child] = {}  # admission thread → child
        self._traffic = [0, 0, 0]  # hits, misses, evictions
        self._stats_lock = threading.Lock()

    @property
    def stats(self) -> CacheStats:
        return CacheStats(*self._traffic)

    def run(self, index: int) -> BatchItemResult:
        child = self._child()
        started = time.perf_counter()
        child.conn.send(index)
        ready = connection.wait(
            [child.conn, child.process.sentinel], timeout=self.watchdog
        )
        elapsed = time.perf_counter() - started
        payload = None
        # Results win over death: a child that reported and then exited
        # settled its item.
        if ready and child.conn.poll():
            try:
                payload = child.conn.recv()
            except (EOFError, OSError):
                pass  # it died before its report was whole
        if payload is not None:
            if payload["cause"] is not None:
                self.runner.causes[index] = payload["cause"]
            with self._stats_lock:
                self._traffic = [
                    total + part
                    for total, part in zip(self._traffic, payload["stats"])
                ]
            return _thaw_result(payload)
        if not ready:
            # Cooperative deadline long blown: the child is wedged
            # somewhere no checkpoint can fire.
            child.process.kill()
        with _FORK_LOCK:  # a sibling's fork reaps finished children too
            child.process.join()
        self._count("procpool.crashes")
        return _crash_result(
            self.runner, index, child.process.exitcode, elapsed,
            "crashed" if ready else "watchdog timeout",
        )

    def close(self) -> None:
        """Shut down every child this runner forked."""
        with _FORK_LOCK:
            children = list(self._children.values())
            self._children.clear()
        for child in children:
            child.shutdown()

    def _child(self) -> _Child:
        """The calling thread's child: forked on its first item and
        replaced when found dead."""
        thread = threading.get_ident()
        with _FORK_LOCK:
            previous = self._children.get(thread)
            if previous is not None and previous.process.is_alive():
                return previous
            child = self._children[thread] = _Child(
                self.runner, self.memory_limit
            )
        if previous is not None:  # found dead
            previous.shutdown()
            self._count("procpool.restarts")
        return child

    def _count(self, name: str) -> None:
        with telemetry_scope(self._telemetry):
            metric_inc(name)
