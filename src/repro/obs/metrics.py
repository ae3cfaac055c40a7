"""Counters, gauges and histograms for one evaluation.

A :class:`MetricsRegistry` holds three kinds of instruments, all keyed
by dotted names from the catalogue in ``docs/observability.md``:

- **counters** — monotone integers (samples drawn, clauses built, cache
  hits …).  Counters are the deterministic backbone of the telemetry
  layer: for a fixed seed they are bitwise-identical run to run, and —
  because cache accounting depends only on the request multiset (see
  :mod:`repro.core.cache`) — the *merged* batch counters are identical
  at any worker count too, with the documented exceptions of
  :data:`SCHEDULING_SENSITIVE` and the history-dependent
  :data:`SCHEDULING_SENSITIVE_PREFIXES` families.
- **gauges** — last-written values (automaton sizes, tree sizes).
- **histograms** — summarised distributions (count/total/min/max) of
  timing-like observations; these are *not* deterministic and tests
  must not compare them bitwise.

Registries merge: the batch evaluator gives each item its own registry
and folds them, in item order, into one batch registry — counters and
histogram summaries add, gauges take the later writer.  The
metrics-invariant suite asserts that the fold equals the sum of the
per-item registries at workers 1, 4 and 8.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = [
    "HistogramStats",
    "MetricsRegistry",
    "REPLAY_SENSITIVE_PREFIXES",
    "SCHEDULING_SENSITIVE",
    "SCHEDULING_SENSITIVE_PREFIXES",
]

#: Counter names whose *merged* batch totals legitimately depend on
#: thread scheduling.  ``cache.inflight_waits`` counts lookups that
#: blocked on another worker's in-progress build — at ``max_workers=1``
#: no lookup ever waits, so the total varies with pool width by design.
#: Determinism tests exclude exactly these names.
SCHEDULING_SENSITIVE = frozenset({"cache.inflight_waits"})

#: Counter-name *prefixes* outside the bitwise contract.  The
#: ``kernels.`` family instruments the optimized counting backend
#: (:mod:`repro.core.kernels`), whose compiled form, sampling plans and
#: DP layers live on the automaton
#: (:attr:`repro.automata.nfta.NFTA.compiled`): when a reduction is
#: shared through a cache, which evaluation compiles it, builds a plan
#: or fills a layer — and so is charged that work — depends on what
#: ran earlier in the process, not on the item and its seed.  The
#: *answers* those kernels produce remain
#: bitwise-identical to the reference backend; only this bookkeeping is
#: history-dependent.  ``lifted.plan_cache.`` / ``lifted.classified.``
#: instrument the lifted router's process-wide plan memo
#: (:mod:`repro.queries.lifted`) the same way: a query is a miss (and
#: is classified) only for the first evaluation in the process to ask.
#: ``serve.`` instruments the daemon's admission queue, shedding ladder
#: and circuit breaker — all functions of concurrent load and wall
#: clock, deterministic only in the trivial single-request case.
#: ``delta.`` instruments database-version mutation
#: (:mod:`repro.db.delta`): how many cache/journal/registry artifacts a
#: delta invalidates or spares depends on what earlier traffic happened
#: to cache, i.e. on process history, not on any one item.
SCHEDULING_SENSITIVE_PREFIXES = (
    "delta.",
    "kernels.",
    "lifted.plan_cache.",
    "lifted.classified.",
    "serve.",
)

#: Counter-name prefixes whose per-item totals depend on which *other*
#: items ran in the same process: cache traffic (a key is a miss only
#: for the first item to want it), work performed *inside shared cache
#: builders* and therefore attributed to whichever item missed
#: (decomposition search, exact CountNFTA table fills), the durable
#: tiers, and worker lifecycle events.  A resumed batch replays
#: completed items from the journal without re-running them — and a
#: process-isolated batch partitions the cache per worker — so these
#: counters cannot survive a resume or a backend change bitwise; the
#: journal stores (and the resume-identity contract covers) only the
#: *replay-stable* remainder: the evaluation-semantic counters that are
#: a function of the item and its seed alone.
REPLAY_SENSITIVE_PREFIXES = (
    "cache.",
    "count_nfta.",
    "decomposition.",
    "delta.",
    "diskcache.",
    "journal.",
    "kernels.",
    "procpool.",
    "serve.",
)


def _deterministic(name: str) -> bool:
    return name not in SCHEDULING_SENSITIVE and not name.startswith(
        SCHEDULING_SENSITIVE_PREFIXES
    )


def _replay_stable(name: str) -> bool:
    return _deterministic(name) and not name.startswith(
        REPLAY_SENSITIVE_PREFIXES
    )


@dataclass(frozen=True)
class HistogramStats:
    """Summary of one histogram: enough to merge and to report."""

    count: int
    total: float
    minimum: float
    maximum: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merged(self, other: "HistogramStats") -> "HistogramStats":
        if not other.count:
            return self
        if not self.count:
            return other
        return HistogramStats(
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Thread-safe named counters/gauges/histograms with merging.

    Per-item registries are only ever written from their item's worker
    thread, but the batch-level registry is merged into from the
    coordinating thread while benchmarks may still be reading — so every
    operation takes the (uncontended, cheap) lock.
    """

    __slots__ = ("_lock", "_counters", "_gauges", "_histograms")

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, list] = {}

    # -- writes ---------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            cell = self._histograms.get(name)
            if cell is None:
                self._histograms[name] = [1, value, value, value]
            else:
                cell[0] += 1
                cell[1] += value
                if value < cell[2]:
                    cell[2] = value
                if value > cell[3]:
                    cell[3] = value

    # -- reads ----------------------------------------------------------

    def counter(self, name: str, default: int = 0) -> int:
        with self._lock:
            return self._counters.get(name, default)

    @property
    def counters(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    @property
    def gauges(self) -> dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    @property
    def histograms(self) -> dict[str, HistogramStats]:
        with self._lock:
            return {
                name: HistogramStats(*cell)
                for name, cell in self._histograms.items()
            }

    def deterministic_counters(self) -> dict[str, int]:
        """Counters minus the scheduling-sensitive names and prefixes —
        the part of the registry covered by the bitwise-reproducibility
        contract."""
        return {
            name: value
            for name, value in self.counters.items()
            if _deterministic(name)
        }

    def replay_stable_counters(self) -> dict[str, int]:
        """The counters preserved across a journal replay: per-item
        evaluation semantics only, minus :data:`SCHEDULING_SENSITIVE`
        and the :data:`REPLAY_SENSITIVE_PREFIXES` families."""
        return {
            name: value
            for name, value in self.counters.items()
            if _replay_stable(name)
        }

    # -- transport ------------------------------------------------------

    def state(self) -> tuple:
        """A picklable snapshot (the registry itself holds a lock and
        cannot cross a process boundary); invert with
        :meth:`from_state`.  Used by the process-isolation backend to
        ship per-item telemetry back from subprocess workers."""
        with self._lock:
            return (
                dict(self._counters),
                dict(self._gauges),
                {name: list(cell) for name, cell in self._histograms.items()},
            )

    @classmethod
    def from_state(cls, state: tuple) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`state` snapshot."""
        counters, gauges, histograms = state
        registry = cls()
        registry._counters.update(counters)
        registry._gauges.update(gauges)
        for name, cell in histograms.items():
            registry._histograms[name] = list(cell)
        return registry

    # -- merging --------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (counters and histograms
        add; gauges take ``other``'s value)."""
        counters = other.counters
        gauges = other.gauges
        histograms = other.histograms
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            self._gauges.update(gauges)
            for name, stats in histograms.items():
                cell = self._histograms.get(name)
                if cell is None:
                    self._histograms[name] = [
                        stats.count, stats.total,
                        stats.minimum, stats.maximum,
                    ]
                else:
                    cell[0] += stats.count
                    cell[1] += stats.total
                    cell[2] = min(cell[2], stats.minimum)
                    cell[3] = max(cell[3], stats.maximum)

    def as_dict(self) -> dict:
        return {
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": {
                name: stats.as_dict()
                for name, stats in self.histograms.items()
            },
        }

    def describe(self) -> str:
        counters = self.counters
        if not counters:
            return "no metrics recorded"
        parts = [
            f"{name}={counters[name]}" for name in sorted(counters)
        ]
        return " ".join(parts)
