"""Semantic load shedding: pressure → degradation-ladder rung.

Classic load shedding drops requests.  This daemon's requests are
*approximation* queries, so it has a better lever — the resilience
ladder (``TASKS[task].ladder(query, method)``, see
:mod:`repro.core.tasks`):

    lifted → exact WMC → FPRAS / Karp–Luby → Monte-Carlo

Under pressure the server starts evaluation *lower* on the ladder with
a *wider* ε instead of rejecting: every admitted request still gets an
answer that is correct within its **reported** ε, just a coarser ε than
it would get unloaded.  The response labels the rung and ε it actually
ran at, so a shed answer is never mistaken for a full-fidelity one.

The pressure signal combines the two symptoms of overload the
admission controller and the latency history expose:

    pressure = queue_fraction + max(0, p95_ewma / target_p95 - 1)

``queue_fraction`` is admission-queue occupancy in ``[0, 1]``;
``p95_ewma`` is an exponentially-weighted moving average of the p95 of
a sliding window of recent request latencies, normalised by the
configured target (the second term is 0 while p95 meets the target, 1
when it is at 2× target, and so on).  Pressure maps to a rung through
the ``thresholds`` tuple: rung = number of thresholds the pressure
meets or exceeds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import ReproError

__all__ = ["LoadShedder", "SheddingDecision"]


@dataclass(frozen=True)
class SheddingDecision:
    """One request's shedding outcome, sampled at admission."""

    rung: int
    pressure: float

    @property
    def shed(self) -> bool:
        return self.rung > 0


class LoadShedder:
    """Latency-history keeper + pressure-to-rung mapping (thread-safe)."""

    def __init__(
        self,
        target_p95: float = 0.5,
        thresholds: tuple[float, ...] = (0.5, 0.75, 0.9),
        ewma_alpha: float = 0.3,
        window: int = 64,
    ):
        if target_p95 <= 0:
            raise ReproError(
                f"target_p95 must be > 0, got {target_p95}"
            )
        if not thresholds or list(thresholds) != sorted(thresholds):
            raise ReproError(
                f"thresholds must be a non-empty ascending tuple, "
                f"got {thresholds!r}"
            )
        if not 0 < ewma_alpha <= 1:
            raise ReproError(
                f"ewma_alpha must be in (0, 1], got {ewma_alpha}"
            )
        if window < 1:
            raise ReproError(f"window must be >= 1, got {window}")
        self.target_p95 = target_p95
        self.thresholds = tuple(thresholds)
        self.ewma_alpha = ewma_alpha
        self.window = window
        self._lock = threading.Lock()
        self._latencies: list[float] = []
        self._next = 0
        self._p95_ewma = 0.0

    # -- latency history ------------------------------------------------

    def observe(self, latency: float) -> None:
        """Record one settled request's wall-clock latency."""
        with self._lock:
            if len(self._latencies) < self.window:
                self._latencies.append(latency)
            else:
                self._latencies[self._next] = latency
                self._next = (self._next + 1) % self.window
            ordered = sorted(self._latencies)
            p95 = ordered[int(0.95 * (len(ordered) - 1))]
            self._p95_ewma = (
                self.ewma_alpha * p95
                + (1 - self.ewma_alpha) * self._p95_ewma
            )

    @property
    def p95_ewma(self) -> float:
        with self._lock:
            return self._p95_ewma

    # -- pressure → rung ------------------------------------------------

    def pressure(self, queue_fraction: float) -> float:
        latency_term = max(0.0, self.p95_ewma / self.target_p95 - 1.0)
        return queue_fraction + latency_term

    def decide(self, queue_fraction: float) -> SheddingDecision:
        """The ladder rung this request should *start* at."""
        pressure = self.pressure(queue_fraction)
        rung = sum(1 for limit in self.thresholds if pressure >= limit)
        return SheddingDecision(rung=rung, pressure=pressure)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "p95_ewma": self._p95_ewma,
                "target_p95": self.target_p95,
                "thresholds": list(self.thresholds),
                "samples": len(self._latencies),
            }
