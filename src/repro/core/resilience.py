"""Route degradation and bounded retries for budgeted evaluation.

The engine's Table 1 routing picks the *cheapest* applicable method;
this module says what to do when that method fails or blows its
:class:`~repro.core.budget.EvaluationBudget`.  Routes degrade along
the task's ladder (``TASKS[task].ladder(query, method)``)

    lifted (safe queries only)  →  exact WMC  →  FPRAS (Karp–Luby for
    self-joins)  →  Monte-Carlo

with the approximation target ε *widened* at each step
(:func:`widened_epsilon`: ×2 per rung, capped at 0.5): later rungs are
coarser but strictly cheaper, so an item that cannot finish its
preferred route within budget still produces an answer — flagged as
degraded in :attr:`~repro.core.estimator.PQEAnswer.degradations` —
instead of taking down its batch.

Retry semantics
---------------
Transient estimation failures (:class:`~repro.errors.EstimationError`,
e.g. a rejection-sampling loop that drew no accepted sample, but not a
:class:`~repro.errors.FloatRangeError`, which recurs on any seed) are
retried at once, up to ``max_retries`` times per rung.  Retry attempt
``a`` runs with seed :func:`derive_retry_seed(seed, a)` — a SHA-256
derivation mirroring the batch evaluator's per-item streams
(``derive_item_seed``) — so a retry is an independent run on a fresh,
reproducible RNG stream: same seed → same retry outcomes, at any
worker count.  Waiting before it could not change its outcome and
would only spend the item's deadline, so no retry sleeps.  Budget
exhaustion is *not* transient: :class:`~repro.errors.BudgetExceededError`
skips the retry loop and degrades immediately (work caps) or aborts
the ladder (deadline — no time is left for any rung).
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
    FloatRangeError,
    GraphError,
    LineageError,
    ReproError,
    UnknownSafetyError,
    UnsafeQueryError,
    WidthExceededError,
)

__all__ = [
    "EPSILON_MAX",
    "EPSILON_WIDENING",
    "TRANSIENT_ERRORS",
    "DEGRADABLE_ERRORS",
    "derive_retry_seed",
    "derive_seed",
    "evaluate_with_policy",
    "widened_epsilon",
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


#: Each rung below the preferred route multiplies ε by this factor.
EPSILON_WIDENING = 2.0
#: No rung widens ε past this.
EPSILON_MAX = 0.5


def widened_epsilon(epsilon: float, rung: int) -> float:
    """ε for ladder rung ``rung`` (0 = the preferred route)."""
    if rung <= 0:
        return epsilon
    return min(epsilon * EPSILON_WIDENING**rung, EPSILON_MAX)


def derive_seed(*parts) -> int:
    """A 64-bit RNG seed derived from ``parts``: the first 8 bytes,
    big-endian, of the SHA-256 of their ``:``-joined text.

    Deterministic across processes and platforms (unlike ``hash``) and
    statistically independent between distinct ``parts``.  Batch item
    streams, retry streams and the daemon's request seeds all derive
    here, each under its own leading tag.
    """
    text = ":".join(map(str, parts))
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def derive_retry_seed(seed: int | None, attempt: int) -> int | None:
    """The RNG seed for retry ``attempt`` of an evaluation seeded with
    ``seed``.

    Attempt 0 is the original stream.  Later attempts are
    :func:`derive_seed` derivations of ``(seed, attempt)``, like
    :func:`~repro.core.parallel.derive_item_seed`, so retried batch
    items stay deterministic across processes and worker counts.
    ``None`` stays ``None`` (nondeterministic evaluations).
    """
    if seed is None or attempt == 0:
        return seed
    return derive_seed("repro-retry", seed, attempt)


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
    max_retries: int = 1,
    routes: tuple[str, ...] | None = None,
):
    """Evaluate one item with retries and graceful route degradation.

    Returns a :class:`~repro.core.estimator.PQEAnswer` whose
    ``degradations`` tuple records every failed attempt (route and
    failure) and whose ``retries`` counts the retry attempts consumed.
    Raises the last failure when every rung is exhausted, or
    immediately for non-degradable errors (malformed queries, schema
    violations, programming errors); either way the failure carries
    the same two attributes.

    ``max_retries`` bounds the transient-failure retries per rung.
    ``routes`` replaces the task's ladder
    (``TASKS[task].ladder(query, method)``); the serve daemon passes
    the tail it starts a shed request on.  The ``budget`` deadline is
    absolute across the whole ladder — every rung and retry shares the
    item's start time — while work-unit and lineage caps reset per
    attempt (they bound one evaluation's work, and later rungs are
    expected to be cheaper).
    """
    if max_retries < 0:
        raise ReproError(f"max_retries must be >= 0, got {max_retries}")
    routes = routes or TASKS[task].ladder(query, method)
    started = time.perf_counter()

    provenance: list[str] = []
    retries_used = 0
    last_failure: BaseException | None = None

    for rung, route in enumerate(routes):
        rung_engine = _engine_with_epsilon(
            engine, widened_epsilon(engine.epsilon, rung)
        )
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
                    isinstance(failure, FloatRangeError)
                if transient and attempt < max_retries:
                    attempt += 1
                    retries_used += 1
                    metric_inc("resilience.retries")
                    continue
                # Degrade to the next rung; the counter records the
                # rung *transition* even when no cheaper rung is left.
                metric_inc("resilience.degradations")
                break
            except BaseException as failure:
                # No rung mends it: it leaves with the attempts so far.
                raise _stamp_failure(failure, provenance, retries_used)
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
