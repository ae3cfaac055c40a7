"""Route degradation and bounded retries for budgeted evaluation.

The engine's Table 1 routing picks the *cheapest* applicable method;
this module supplies the policy for what to do when that method fails
or blows its :class:`~repro.core.budget.EvaluationBudget`.  Routes
degrade along the ladder

    lifted (safe queries only)  →  exact WMC  →  FPRAS (Karp–Luby for
    self-joins)  →  Monte-Carlo

with the approximation target ε *widened* at each step: later rungs
are coarser but strictly cheaper, so an item that cannot finish its
preferred route within budget still produces an answer — flagged as
degraded in :attr:`~repro.core.estimator.PQEAnswer.degradations` —
instead of taking down its batch.

Retry semantics
---------------
Transient estimation failures (:class:`~repro.errors.EstimationError`,
e.g. a rejection-sampling loop that drew no accepted sample) are
retried up to ``max_retries`` times per rung with deterministic
backoff.  Retry attempt ``a`` runs with seed
:func:`derive_retry_seed(seed, a)` — a SHA-256 derivation mirroring the
batch evaluator's per-item streams (``derive_item_seed``) — so a retry
draws a fresh, reproducible RNG stream: same seed → same retry
outcomes, at any worker count.  Budget exhaustion is *not* transient:
:class:`~repro.errors.BudgetExceededError` skips the retry loop and
degrades immediately (work caps) or aborts the ladder (deadline — no
time is left for any rung).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import time

from repro.core.budget import EvaluationBudget, budget_scope
from repro.core.tasks import TASKS
from repro.obs import metric_inc, span
from repro.errors import (
    BudgetExceededError,
    EstimationError,
    GraphError,
    LineageError,
    ReproError,
    UnknownSafetyError,
    UnsafeQueryError,
    WidthExceededError,
)

__all__ = [
    "DegradationPolicy",
    "TRANSIENT_ERRORS",
    "DEGRADABLE_ERRORS",
    "derive_retry_seed",
    "degradation_ladder",
    "evaluate_with_policy",
]

#: Failures worth retrying with a fresh RNG stream on the same route.
TRANSIENT_ERRORS = (EstimationError,)

#: Failures that trigger falling to the next (cheaper) route.  Budget
#: exhaustion and width/lineage blow-ups are deterministic for a given
#: route, so retrying the same route is pointless — degrading is not.
DEGRADABLE_ERRORS = (
    EstimationError,
    BudgetExceededError,
    WidthExceededError,
    LineageError,
    UnsafeQueryError,
    UnknownSafetyError,
    GraphError,
)


@dataclasses.dataclass(frozen=True)
class DegradationPolicy:
    """How an evaluation degrades and retries under failure.

    ``epsilon_widening`` multiplies ε at each fallback rung (capped at
    ``epsilon_max``); ``backoff_base`` seconds double per retry attempt
    up to ``backoff_cap`` — deterministic, so reproducibility is
    unaffected.  ``jitter`` shaves a *seed-derived* fraction off each
    delay (full-jitter style, but driven by :func:`derive_retry_seed`
    rather than an ambient RNG) so coordinated retries decorrelate
    while faulted batches stay bitwise-reproducible.  ``routes``
    overrides the structural ladder from :func:`degradation_ladder`
    when set.
    """

    max_retries: int = 1
    backoff_base: float = 0.0
    backoff_cap: float = 1.0
    epsilon_widening: float = 2.0
    epsilon_max: float = 0.5
    jitter: float = 0.0
    routes: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise ReproError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0:
            raise ReproError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.epsilon_widening < 1:
            raise ReproError(
                f"epsilon_widening must be >= 1, got {self.epsilon_widening}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ReproError(
                f"jitter must be within [0, 1], got {self.jitter}"
            )

    def backoff(self, attempt: int, seed: int | None = None) -> float:
        """Deterministic delay before retry ``attempt`` (1-based).

        With ``jitter > 0`` the exponential delay is scaled by
        ``1 - jitter * u`` where ``u ∈ [0, 1)`` is derived from
        ``(seed, attempt)`` via :func:`derive_retry_seed` — two items
        retrying the same attempt sleep different amounts, but the same
        ``(seed, attempt)`` always sleeps the same amount.  A ``None``
        seed keeps jitter deterministic by deriving from seed 0.
        """
        if self.backoff_base <= 0:
            return 0.0
        delay = min(self.backoff_base * 2 ** (attempt - 1), self.backoff_cap)
        if self.jitter > 0:
            # derive_retry_seed(seed, 0) returns seed unchanged, so use
            # attempt + 1 to guarantee a hashed (uniform) value even for
            # the first retry.
            stream = derive_retry_seed(
                seed if seed is not None else 0, attempt + 1
            )
            unit = (stream >> 11) / float(1 << 53)
            delay *= 1.0 - self.jitter * unit
        return delay

    def widened_epsilon(self, epsilon: float, rung: int) -> float:
        """ε for ladder rung ``rung`` (0 = the preferred route)."""
        if rung <= 0:
            return epsilon
        return min(epsilon * self.epsilon_widening**rung, self.epsilon_max)


def derive_retry_seed(seed: int | None, attempt: int) -> int | None:
    """The RNG seed for retry ``attempt`` of an evaluation seeded with
    ``seed``.

    Attempt 0 is the original stream.  Later attempts are SHA-256
    derivations of ``(seed, attempt)`` — the same construction as
    :func:`~repro.core.parallel.derive_item_seed`, so retried batch
    items stay deterministic across processes and worker counts.
    ``None`` stays ``None`` (nondeterministic evaluations).
    """
    if seed is None or attempt == 0:
        return seed
    digest = hashlib.sha256(
        f"repro-retry:{seed}:{attempt}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def degradation_ladder(query, task: str = "probability",
                       method: str = "auto") -> tuple[str, ...]:
    """The fallback routes for ``query``, most-preferred first.

    Each task's ladder lives in the task table
    (:data:`repro.core.tasks.TASKS`).  For probabilities, queries the
    lifted router certifies *safe* start at the ``lifted`` rung, which
    subsumes ``auto`` for them; everything else starts with the
    engine's normal auto routing (which already prefers exact answers),
    then repeats the randomized leg with widened ε, then lands on plain
    Monte-Carlo — the only route whose per-sample cost is independent
    of the automaton and lineage sizes.  An explicit method starts the
    ladder at itself and degrades along the tail below it.
    """
    return TASKS[task].ladder(query, method)


def _engine_with_epsilon(engine, epsilon: float):
    if epsilon == engine.epsilon:
        return engine
    widened = copy.copy(engine)
    widened.epsilon = epsilon
    return widened


def _describe_failure(failure: BaseException) -> str:
    text = str(failure)
    if len(text) > 120:
        text = text[:117] + "..."
    return f"{type(failure).__name__}: {text}"


def evaluate_with_policy(
    engine,
    query,
    database,
    *,
    task: str = "probability",
    method: str = "auto",
    seed: int | None = None,
    cache=None,
    budget: EvaluationBudget | None = None,
    policy: DegradationPolicy | None = None,
):
    """Evaluate one item with retries and graceful route degradation.

    Returns a :class:`~repro.core.estimator.PQEAnswer` whose
    ``degradations`` tuple records every failed attempt (route and
    failure) and whose ``retries`` counts the retry attempts consumed.
    Raises the last failure when every rung is exhausted, or
    immediately for non-degradable errors (malformed queries, schema
    violations, programming errors).

    The ``budget`` deadline is absolute across the whole ladder — every
    rung and retry shares the item's start time — while work-unit and
    lineage caps reset per attempt (they bound one evaluation's work,
    and later rungs are expected to be cheaper).
    """
    if policy is None:
        policy = DegradationPolicy()
    routes = policy.routes or degradation_ladder(query, task, method)
    started = time.perf_counter()

    provenance: list[str] = []
    retries_used = 0
    last_failure: BaseException | None = None

    for rung, route in enumerate(routes):
        epsilon = policy.widened_epsilon(engine.epsilon, rung)
        rung_engine = _engine_with_epsilon(engine, epsilon)
        attempt = 0
        while True:
            attempt_seed = derive_retry_seed(seed, retries_used)
            try:
                with budget_scope(budget, started=started), span(
                    "resilience.attempt",
                    route=route, rung=rung, retry=attempt,
                ):
                    answer = TASKS[task].evaluate(
                        rung_engine, query, database, method=route,
                        seed=attempt_seed, cache=cache,
                    )
            except DEGRADABLE_ERRORS as failure:
                last_failure = failure
                label = route if attempt == 0 else f"{route}#retry{attempt}"
                provenance.append(f"{label}: {_describe_failure(failure)}")
                deadline_hit = (
                    isinstance(failure, BudgetExceededError)
                    and failure.kind == "deadline"
                )
                if deadline_hit:
                    # No wall-clock left for any route; stop the ladder.
                    raise _stamp_failure(failure, provenance, retries_used)
                transient = isinstance(failure, TRANSIENT_ERRORS) and not \
                    isinstance(failure, BudgetExceededError)
                if transient and attempt < policy.max_retries:
                    attempt += 1
                    retries_used += 1
                    metric_inc("resilience.retries")
                    delay = policy.backoff(attempt, seed=seed)
                    if delay:
                        time.sleep(delay)
                    continue
                # Degrade to the next rung; the counter records the
                # rung *transition* even when no cheaper rung is left.
                metric_inc("resilience.degradations")
                break
            if provenance:
                answer = dataclasses.replace(
                    answer,
                    degradations=tuple(provenance),
                    retries=retries_used,
                )
            return answer

    assert last_failure is not None
    raise _stamp_failure(last_failure, provenance, retries_used)


def _stamp_failure(
    failure: BaseException, provenance: list[str], retries: int
):
    """Attach the attempt log to the terminal failure."""
    failure.degradations = tuple(provenance)
    failure.retries = retries
    return failure
