"""Evaluation budgets: cooperative deadlines and work caps.

The FPRAS chain is polynomial in combined complexity, but real inputs
still blow up in practice: the exhaustive elimination-order search can
chew through 8! orders, lineage construction is Θ(|D|^|Q|), and the
Karp–Luby / CountNFTA sampling loops scale with 1/ε² on adversarial
instances.  An :class:`EvaluationBudget` bounds one evaluation with

- a wall-clock **deadline** (seconds),
- a **work-unit cap** (samples drawn, search orders tried, witnesses
  enumerated — every hot loop charges one unit per iteration), and
- a **lineage clause cap** tightening any caller-supplied clause
  budget.

Enforcement is *cooperative*: threads cannot be killed, so the long
loops in :mod:`repro.decomposition.search`, :mod:`repro.lineage.build`,
:mod:`repro.lineage.karp_luby`, :mod:`repro.automata.nfa_counting`
(whose union loop CountNFTA shares), :mod:`repro.automata.nfta_counting`,
:mod:`repro.core.sampling` and :mod:`repro.core.monte_carlo` call
:func:`budget_tick` once per iteration.  When no budget is active the
call is a single context-variable read; when one is active, exceeding a
limit raises :class:`~repro.errors.BudgetExceededError` carrying the
phase, elapsed time and the limit hit.  A stalled evaluation therefore
cannot overrun its deadline by more than one loop iteration — the
*checkpoint granularity*.

The active budget propagates through a :class:`contextvars.ContextVar`,
so scopes are per-thread: the batch evaluator enters a scope inside
each worker task and items never see each other's budgets.  Scopes for
retries and degradation rungs share the item's original start time via
``EvaluationBudget.start(started=...)``, which keeps the deadline
absolute per item while work-unit counters reset per attempt.
"""

from __future__ import annotations

import contextlib
import time
from contextvars import ContextVar
from dataclasses import dataclass

from repro.errors import BudgetExceededError, ReproError
from repro.obs import metric_inc

__all__ = [
    "EvaluationBudget",
    "BudgetScope",
    "BudgetState",
    "active_budget",
    "budget_scope",
    "budget_checkpoint",
    "budget_tick",
    "effective_clause_budget",
]


@dataclass(frozen=True)
class EvaluationBudget:
    """Declarative limits for one evaluation (all optional).

    ``deadline`` is wall-clock seconds, ``max_work_units`` caps the
    total number of charged loop iterations, and ``lineage_clause_cap``
    tightens the clause budget used by lineage construction (the
    effective budget is the minimum of this cap and any explicit
    ``budget=`` argument; see :func:`effective_clause_budget`).
    """

    deadline: float | None = None
    max_work_units: int | None = None
    lineage_clause_cap: int | None = None

    def __post_init__(self):
        if self.deadline is not None and self.deadline <= 0:
            raise ReproError(
                f"budget deadline must be > 0, got {self.deadline}"
            )
        if self.max_work_units is not None and self.max_work_units < 1:
            raise ReproError(
                f"budget max_work_units must be >= 1, "
                f"got {self.max_work_units}"
            )
        if self.lineage_clause_cap is not None and self.lineage_clause_cap < 1:
            raise ReproError(
                f"budget lineage_clause_cap must be >= 1, "
                f"got {self.lineage_clause_cap}"
            )

    @property
    def unlimited(self) -> bool:
        return (
            self.deadline is None
            and self.max_work_units is None
            and self.lineage_clause_cap is None
        )

    def start(self, started: float | None = None) -> "BudgetScope":
        """A fresh runtime tracker; ``started`` (a ``perf_counter``
        value) anchors the deadline at an earlier instant, so retries
        and degradation rungs share one absolute per-item deadline."""
        return BudgetScope(self, started=started)

    def consume_wait(
        self, waited: float, *, phase: str = "serve.queue"
    ) -> "EvaluationBudget":
        """The budget left after ``waited`` seconds spent queueing.

        The serving boundary admits a request, parks it in a bounded
        queue, and only then evaluates — the queue wait is the
        *request's* time, so it is deducted from the deadline before
        any engine work.  Raises :class:`BudgetExceededError` (kind
        ``deadline``) when the wait consumed the whole deadline, so an
        expired request is rejected without touching the engine.  A
        deadline-free budget passes through unchanged.
        """
        if waited < 0:
            raise ReproError(f"waited must be >= 0, got {waited}")
        if self.deadline is None:
            return self
        remaining = self.deadline - waited
        if remaining <= 0:
            raise BudgetExceededError(
                "deadline",
                phase=phase,
                elapsed=waited,
                limit=self.deadline,
                used=round(waited, 3),
            )
        return EvaluationBudget(
            deadline=remaining,
            max_work_units=self.max_work_units,
            lineage_clause_cap=self.lineage_clause_cap,
        )

    def describe(self) -> str:
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline:g}s")
        if self.max_work_units is not None:
            parts.append(f"work_units<={self.max_work_units}")
        if self.lineage_clause_cap is not None:
            parts.append(f"lineage_clauses<={self.lineage_clause_cap}")
        return ", ".join(parts) if parts else "unlimited"


@dataclass(frozen=True)
class BudgetState:
    """Immutable snapshot of a scope, for structured error records."""

    deadline: float | None
    max_work_units: int | None
    lineage_clause_cap: int | None
    elapsed: float
    work_units: int

    def describe(self) -> str:
        limits = EvaluationBudget(
            self.deadline, self.max_work_units, self.lineage_clause_cap
        ).describe()
        return (
            f"{limits}; used elapsed={self.elapsed:.3f}s "
            f"work_units={self.work_units}"
        )


class BudgetScope:
    """Mutable per-evaluation tracker behind the checkpoint helpers.

    Not thread-safe by design: a scope belongs to exactly one worker
    thread (the context variable is per-thread), so the counters need
    no locking.
    """

    __slots__ = ("budget", "started", "work_units")

    def __init__(
        self, budget: EvaluationBudget, *, started: float | None = None
    ):
        self.budget = budget
        self.started = time.perf_counter() if started is None else started
        self.work_units = 0

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def snapshot(self) -> BudgetState:
        return BudgetState(
            deadline=self.budget.deadline,
            max_work_units=self.budget.max_work_units,
            lineage_clause_cap=self.budget.lineage_clause_cap,
            elapsed=self.elapsed,
            work_units=self.work_units,
        )

    def checkpoint(self, phase: str) -> None:
        """Raise :class:`BudgetExceededError` if any limit is exhausted."""
        budget = self.budget
        if budget.deadline is not None:
            elapsed = self.elapsed
            if elapsed > budget.deadline:
                raise BudgetExceededError(
                    "deadline",
                    phase=phase,
                    elapsed=elapsed,
                    limit=budget.deadline,
                    used=round(elapsed, 3),
                )
        if (
            budget.max_work_units is not None
            and self.work_units > budget.max_work_units
        ):
            raise BudgetExceededError(
                "work_units",
                phase=phase,
                elapsed=self.elapsed,
                limit=budget.max_work_units,
                used=self.work_units,
            )

    def tick(self, phase: str, units: int = 1) -> None:
        self.work_units += units
        self.checkpoint(phase)


_ACTIVE: ContextVar[BudgetScope | None] = ContextVar(
    "repro-active-budget", default=None
)


def active_budget() -> BudgetScope | None:
    """The scope governing the current thread, or ``None``."""
    return _ACTIVE.get()


@contextlib.contextmanager
def budget_scope(
    budget: EvaluationBudget | None, *, started: float | None = None
):
    """Install ``budget`` as the current thread's active budget.

    ``None`` (or an unlimited budget) is a no-op scope, so call sites
    can wrap unconditionally.  Scopes nest; the inner scope shadows the
    outer for its duration.
    """
    if budget is None or budget.unlimited:
        yield None
        return
    scope = budget.start(started=started)
    token = _ACTIVE.set(scope)
    try:
        yield scope
    finally:
        _ACTIVE.reset(token)


def budget_checkpoint(phase: str) -> None:
    """Cooperative cancellation point: no-op without an active budget."""
    scope = _ACTIVE.get()
    if scope is not None:
        scope.checkpoint(phase)


def budget_tick(phase: str, units: int = 1) -> None:
    """Charge ``units`` of work, then checkpoint.  Hot-loop safe: one
    context-variable read per layer (budget, telemetry) when neither is
    active.  Ticks are counted into the ``budget.ticks`` telemetry
    counter whether or not a budget is installed — the tick sites *are*
    the pipeline's unit-of-work markers."""
    metric_inc("budget.ticks", units)
    scope = _ACTIVE.get()
    if scope is not None:
        scope.tick(phase, units)


def effective_clause_budget(explicit: int | None) -> int | None:
    """Combine an explicit lineage clause budget with the active
    budget's cap (the tighter of the two wins)."""
    scope = _ACTIVE.get()
    if scope is None or scope.budget.lineage_clause_cap is None:
        return explicit
    cap = scope.budget.lineage_clause_cap
    return cap if explicit is None else min(explicit, cap)
