"""Deterministic fault injection at named sites in the pipeline.

Production modules mark *named injection sites* by calling
``fault_point("site.name")`` at the start of each phase of the
reduce → NFTA → CountNFTA chain.  With no plan installed the call is a
read of one module global and an immediate return, so the sites cost
nothing in normal operation.  Tests and CI install a :class:`FaultPlan`
(usually via the :func:`inject_faults` context manager) to force a
failure — or a cooperative stall — at any phase, for any batch item,
without monkeypatching internals.

Determinism contract
--------------------
Triggering is counted per ``(spec, scope)`` where the *scope* is the
logical work key installed by :func:`fault_scope` — the batch evaluator
scopes every item to its input index.  Hit counts therefore depend only
on what each item does, never on worker scheduling, so a faulted batch
is as reproducible across ``max_workers`` settings as a fault-free one
(asserted in ``tests/test_faults.py``).

A spec with ``times=1`` models a *transient* failure: the first attempt
inside the scope raises, the retry succeeds.  ``stall=seconds`` models
a wedged phase: the site spins cooperatively (checkpointing the active
:mod:`~repro.core.budget` every millisecond), so a per-item deadline
cuts the stall off with :class:`~repro.errors.BudgetExceededError`
within the checkpoint granularity.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from contextvars import ContextVar
from pathlib import Path
from dataclasses import dataclass
from typing import Hashable

from repro.core.budget import budget_checkpoint
from repro.errors import EstimationError, ReproError

__all__ = [
    "FAULT_SITES",
    "FaultSpec",
    "FaultPlan",
    "fault_point",
    "fault_scope",
    "flip_bit",
    "inject_faults",
    "request_burst",
    "truncate_tail",
]

#: Every named injection site, one per phase of the pipeline.  The
#: registry is authoritative: ``FaultSpec`` rejects unknown names, so a
#: site renamed in production code breaks loudly in the test suite.
FAULT_SITES = (
    "decomposition.search",
    "reduction.ur",
    "reduction.pqe",
    "lineage.build",
    "lineage.karp_luby",
    "counting.nfta",
    "sampling.trees",
    "monte_carlo.sample",
    "rpq.count",
    "serve.request",
    "db.delta",
)

#: Granularity of the cooperative stall loop (seconds).
_STALL_RESOLUTION = 0.001


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule.

    Parameters
    ----------
    site:
        A name from :data:`FAULT_SITES`.
    exception:
        Exception class raised on trigger (default
        :class:`~repro.errors.EstimationError`, the transient kind).
        Ignored when ``stall`` is set.
    scope:
        Restrict to one logical scope key (a batch item index under
        :func:`fault_scope`); ``None`` matches every scope, with hits
        still counted per scope.
    after:
        Skip this many hits within the scope before triggering.
    times:
        Trigger at most this many hits (``None`` = every hit past
        ``after``).  ``times=1`` models a transient failure that a
        retry survives.
    stall:
        Instead of raising, spin cooperatively for this many seconds —
        checkpointing any active evaluation budget — to simulate a
        wedged phase for deadline tests.
    crash:
        Instead of raising, **kill the current process** at the site:
        ``'exit'`` calls ``os._exit(exit_code)`` (a native abort — no
        ``finally`` blocks, no unwinding, exactly what a segfault looks
        like from outside), ``'sigkill'`` delivers ``SIGKILL`` to the
        current process.  Only meaningful inside a sacrificial process —
        a worker's forked child under :mod:`~repro.core.procpool`,
        or a child process a chaos test spawned to die — since in the
        thread backend the "current process" is the caller itself.
    exit_code:
        Process exit status for ``crash='exit'`` (default 134, the
        classic ``SIGABRT`` status).
    """

    site: str
    exception: type[BaseException] = EstimationError
    scope: Hashable | None = None
    after: int = 0
    times: int | None = None
    stall: float = 0.0
    crash: str | None = None
    exit_code: int = 134

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ReproError(
                f"unknown fault site {self.site!r}; "
                f"choose from {FAULT_SITES}"
            )
        if self.after < 0:
            raise ReproError(f"after must be >= 0, got {self.after}")
        if self.times is not None and self.times < 1:
            raise ReproError(f"times must be >= 1, got {self.times}")
        if self.stall < 0:
            raise ReproError(f"stall must be >= 0, got {self.stall}")
        if self.crash not in (None, "exit", "sigkill"):
            raise ReproError(
                f"crash must be None, 'exit' or 'sigkill', "
                f"got {self.crash!r}"
            )


class FaultPlan:
    """A set of specs with per-(spec, scope) hit accounting."""

    def __init__(self, *specs: FaultSpec):
        self.specs = tuple(specs)
        self._lock = threading.Lock()
        self._hits: dict[tuple[int, Hashable], int] = {}

    def match(self, site: str, scope: Hashable) -> FaultSpec | None:
        """Record a hit at ``site`` under ``scope``; return the spec to
        trigger, if any.  The first matching spec (in installation
        order) wins."""
        triggered: FaultSpec | None = None
        for index, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if spec.scope is not None and spec.scope != scope:
                continue
            with self._lock:
                count = self._hits.get((index, scope), 0) + 1
                self._hits[(index, scope)] = count
            if count <= spec.after:
                continue
            if spec.times is not None and count > spec.after + spec.times:
                continue
            if triggered is None:
                triggered = spec
        return triggered

    def hits(self, site: str, scope: Hashable = None) -> int:
        """Hit count for the first spec on ``site`` under ``scope``."""
        for index, spec in enumerate(self.specs):
            if spec.site == site:
                with self._lock:
                    return self._hits.get((index, scope), 0)
        return 0


# The installed plan is process-global (worker threads must see it);
# the *scope* is per-thread so concurrent items stay independent.
_PLAN: FaultPlan | None = None
_PLAN_LOCK = threading.Lock()
_SCOPE: ContextVar[Hashable] = ContextVar("repro-fault-scope", default=None)


def fault_point(site: str) -> None:
    """A named injection site.  No-op unless a plan is installed."""
    plan = _PLAN
    if plan is None:
        return
    spec = plan.match(site, _SCOPE.get())
    if spec is None:
        return
    if spec.crash is not None:
        if spec.crash == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)  # pragma: no cover - awaiting the signal
        os._exit(spec.exit_code)
    if spec.stall > 0:
        _stall(spec.stall, site)
        return
    message = f"injected fault at {site!r}"
    try:
        # Contextual exception types record the site as their phase,
        # so structured error records name it like real failures do.
        failure = spec.exception(message, phase=site)
    except TypeError:
        failure = spec.exception(message)
    raise failure


def _stall(seconds: float, site: str) -> None:
    """Spin cooperatively: a deadline budget cuts the stall short."""
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        budget_checkpoint(site)
        time.sleep(_STALL_RESOLUTION)


@contextlib.contextmanager
def fault_scope(key: Hashable):
    """Tag the current thread's work with a logical scope key (the
    batch evaluator uses the item index)."""
    token = _SCOPE.set(key)
    try:
        yield
    finally:
        _SCOPE.reset(token)


@contextlib.contextmanager
def inject_faults(*specs: FaultSpec):
    """Install a :class:`FaultPlan` for the duration of the block.

    Plans do not nest (the harness is for tests, where one active plan
    is the only sane configuration); installing over an existing plan
    raises.
    """
    global _PLAN
    plan = FaultPlan(*specs)
    with _PLAN_LOCK:
        if _PLAN is not None:
            raise ReproError("a fault plan is already installed")
        _PLAN = plan
    try:
        yield plan
    finally:
        with _PLAN_LOCK:
            _PLAN = None


# ---------------------------------------------------------------------------
# overload injection (chaos tests for the serve daemon)


def request_burst(send, count: int, *, concurrency: int | None = None):
    """Fire ``count`` calls of ``send(i)`` from ``concurrency`` threads
    at once and collect every outcome.

    The serve chaos suite's overload generator: all threads arm on a
    barrier so the burst lands as one synchronized spike — the worst
    case for admission control — rather than a ramp.  Returns a list of
    ``count`` entries in request order, each either ``send``'s return
    value or the exception it raised (exceptions are outcomes here: an
    overloaded daemon *should* reject, and the caller asserts on the
    mix).
    """
    if count < 1:
        raise ReproError(f"count must be >= 1, got {count}")
    if concurrency is None:
        concurrency = count
    if concurrency < 1:
        raise ReproError(f"concurrency must be >= 1, got {concurrency}")
    concurrency = min(concurrency, count)
    outcomes: list = [None] * count
    indexes = list(range(count))
    indexes_lock = threading.Lock()
    barrier = threading.Barrier(concurrency)

    def _fire():
        try:
            barrier.wait(timeout=30.0)
        except threading.BrokenBarrierError:  # pragma: no cover
            pass
        while True:
            with indexes_lock:
                if not indexes:
                    return
                index = indexes.pop(0)
            try:
                outcomes[index] = send(index)
            except Exception as failure:
                outcomes[index] = failure

    threads = [
        threading.Thread(target=_fire, daemon=True)
        for _ in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


# ---------------------------------------------------------------------------
# durable-state corruption helpers (chaos tests for journal/disk cache)


def flip_bit(path: str | Path, offset: int = -1, bit: int = 0) -> None:
    """Flip one bit of the file at ``path`` in place.

    ``offset`` indexes the byte to damage (negative counts from the
    end, Python-style); models silent media corruption of a disk-cache
    record or a journal line.  The durable layers must *quarantine* the
    damaged record — never raise, never serve it.
    """
    path = Path(path)
    blob = bytearray(path.read_bytes())
    if not blob:
        raise ReproError(f"cannot flip a bit in empty file {path}")
    blob[offset] ^= 1 << bit
    path.write_bytes(bytes(blob))


def truncate_tail(path: str | Path, drop_bytes: int) -> None:
    """Drop the final ``drop_bytes`` bytes of the file at ``path``.

    Models a torn write: a crash (or ``SIGKILL``) between ``write`` and
    ``fsync`` leaves a prefix of the final record on disk.  Journal
    loading must keep the valid prefix and quarantine the torn tail.
    """
    if drop_bytes < 0:
        raise ReproError(f"drop_bytes must be >= 0, got {drop_bytes}")
    path = Path(path)
    blob = path.read_bytes()
    path.write_bytes(blob[: max(0, len(blob) - drop_bytes)])
