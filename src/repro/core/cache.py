"""Shared reduction cache: memoized Proposition 1 / Theorem 1 builds.

Constructing the reduction chain — hypertree decomposition → augmented
NFTA → (optionally) multiplier gadgets — is deterministic and often the
dominant cost of an evaluation, yet workloads like answer ranking
evaluate *the same query shape* over *the same database* many times
(one pinned instance per candidate answer, repeated across requests).
:class:`ReductionCache` memoizes those builds behind canonical keys so
a batch pays for each distinct construction once.

Keys are tuples of short strings:

    ("ghd", query_token)                      — construction-ready
                                                decomposition
    ("ur",  query_token, proj_token, cm)      — Proposition 1 reduction
    ("pqe", query_token, proj_token, weighted) — Theorem 1 reduction
    ("count", kind, …, cap)                   — *exact* hybrid-counter
                                                results (seed-
                                                independent by
                                                construction; sampled
                                                counts are never
                                                stored)
    ("rpq", query_token, graph_token)         — RPQ product reduction

where ``query_token`` is the ``cache_token`` digest exposed by
:class:`~repro.queries.cq.ConjunctiveQuery` and ``proj_token`` is the
database's ``projection_token`` over exactly the relations the query
reads (:meth:`~repro.db.probabilistic.ProbabilisticDatabase.projection_token`):
canonical (order insensitive, repr-exact) SHA-256 digests, so two
structurally equal inputs share an entry regardless of construction
order.  Keying data-dependent entries on the *projection* rather than
the whole-database token means a delta confined to other relations
leaves their keys valid — those entries keep hitting on the new
database version (see :mod:`repro.db.delta` and
``docs/incremental.md``).

Entries may register the relation set their key depends on
(``get_or_build(..., relations=...)``); ``invalidate_relations``
reclaims exactly the entries whose registered relations were touched
by a delta — and entries registered ``weighted=False`` (keyed on
unweighted projection tokens) only when the touch was *structural*
(insert/delete), so reweight-only deltas spare them.  Invalidation is
*hygiene and accounting*, never a correctness mechanism: keys are
content addressed, so a stale entry can only ever miss, not serve a
wrong value.

The cache is safe for concurrent use from the batch evaluator's worker
pool.  Concurrent ``get_or_build`` calls on the same missing key are
deduplicated: exactly one caller runs the builder (and counts the miss);
the others block and then count hits — so hit/miss totals depend only on
the request multiset, not on thread scheduling, which is what makes the
cache accounting in ``tests/test_parallel.py`` deterministic across
``max_workers`` settings.

:class:`ReductionCache` is the process's one memo store: the lifted
router's plan memo (:mod:`repro.queries.lifted`) is an instance of it
too, told apart only by its size bound and its counter ``name``.  A
reduction's compiled automaton, sampling plans and exact layer tables
are not entries: they live on the automaton
(:attr:`repro.automata.nfta.NFTA.compiled`), so they share the
lifetime of the entry holding it.  ``cache.*`` counters are
deterministic per item; the process-wide ``lifted.plan_cache.*``
family depends on process history (see :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.errors import ReproError
from repro.obs import metric_inc, metric_observe

__all__ = ["CacheStats", "ReductionCache"]

Key = Hashable


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of cache traffic counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        """Traffic since an earlier snapshot (per-batch accounting)."""
        return CacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            evictions=self.evictions - other.evictions,
        )

    def describe(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions} hit-rate={self.hit_rate:.1%}"
        )


class _InFlight:
    """One pending build: waiters block on the event, then re-check."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


class ReductionCache:
    """A thread-safe LRU cache with build deduplication.

    Parameters
    ----------
    maxsize:
        Entry budget before least-recently-used eviction; ``None`` means
        unbounded.  Reductions for small instances are a few kilobytes,
        so the default comfortably covers a serving workload's hot set.
    disk:
        Optional :class:`~repro.core.diskcache.DiskCache` durable tier.
        A memory miss consults the disk before running the builder (a
        disk hit still counts as a memory ``miss`` — the hit/miss
        counters keep their request-multiset semantics — plus a
        ``diskcache.hits`` telemetry increment), and every value this
        cache decides to store is written through, so reductions survive
        process restarts.  Values rejected by ``cache_if`` (seed-
        dependent sampled counts) are never written to disk either.
    name:
        Counter prefix: every lookup counts ``<name>.lookups`` and then
        exactly one of ``<name>.hits`` / ``<name>.misses``; blocking on
        a concurrent build counts ``<name>.inflight_waits``, and builds
        are timed into the ``<name>.build_seconds`` histogram.
    """

    def __init__(
        self,
        maxsize: int | None = 128,
        disk: "object | None" = None,
        name: str = "cache",
    ):
        if maxsize is not None and maxsize < 1:
            raise ReproError(f"cache maxsize must be >= 1, got {maxsize}")
        self._maxsize = maxsize
        self._disk = disk
        self._name = name
        self._lock = threading.Lock()
        self._entries: OrderedDict[Key, object] = OrderedDict()
        self._inflight: dict[Key, _InFlight] = {}
        # Key → the relation names its value depends on.  frozenset()
        # marks an explicitly query-only entry (survives every delta);
        # an unregistered key is treated as depending on everything.
        self._relations: dict[Key, frozenset[str]] = {}
        # Keys registered with ``weighted=False``: their values depend
        # only on the *fact sets* of their relations, not the
        # probability labels, so reweight-only deltas leave them valid.
        self._unweighted: set[Key] = set()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------

    def get_or_build(
        self,
        key: Key,
        builder: Callable[[], object],
        cache_if: Callable[[object], bool] | None = None,
        relations: "frozenset[str] | None" = None,
        weighted: bool = True,
    ):
        """Return the cached value for ``key``, building it on miss.

        ``relations`` registers the relation names the entry's keyed
        inputs depend on, for :meth:`invalidate_relations`.  Pass an
        empty frozenset for query-only artifacts (decompositions,
        lifted plans) — they survive every database delta.
        ``None`` leaves the entry unregistered, which invalidation
        treats conservatively (evicted by any delta).

        ``weighted=False`` declares the entry a function of the
        relations' *fact sets* alone — UR reductions and their counts,
        keyed on unweighted projection tokens.  Invalidation then only
        reclaims it for structural (insert/delete) touches; reweight-
        only deltas leave it serving hits, because its key is already
        exact on the new version.

        Exactly one concurrent caller per key runs ``builder``; a
        builder exception is propagated to its caller and the key stays
        absent, so a later call retries.

        ``cache_if`` decides whether a freshly built value is stored.
        A rejected value is still returned to its builder's caller and
        still counts as a miss, but waiters deduplicated onto that
        build re-run their *own* builder instead of sharing it.  This
        is how seed-*dependent* count results stay private to their
        item while seed-independent (exact) ones are shared — and the
        hit/miss totals remain a function of the request multiset
        alone, not of thread scheduling.
        """
        # Telemetry attribution: the requesting thread's active
        # telemetry (the batch item currently running) is charged for
        # this lookup.  Exactly one terminal increment follows — hit or
        # miss — so ``hits + misses == lookups`` holds per registry.
        # ``inflight_waits`` counts blocking on a sibling's build; for
        # the ``cache`` store it is the one scheduling-sensitive counter
        # (see :data:`repro.obs.metrics.SCHEDULING_SENSITIVE`).
        name = self._name
        metric_inc(f"{name}.lookups")
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    metric_inc(f"{name}.hits")
                    return self._entries[key]
                pending = self._inflight.get(key)
                if pending is None:
                    pending = _InFlight()
                    self._inflight[key] = pending
                    owner = True
                else:
                    owner = False
            if not owner:
                # Someone else is building; wait, then re-check (counts
                # as a hit on success, or retries if the build failed).
                metric_inc(f"{name}.inflight_waits")
                pending.event.wait()
                continue
            durable = False
            if self._disk is not None:
                # Durable tier: corrupt records quarantine inside
                # ``load`` and surface here as a plain miss.
                sentinel = object()
                value = self._disk.load(key, sentinel)
                durable = value is not sentinel
            if not durable:
                build_started = time.perf_counter()
                try:
                    value = builder()
                except BaseException:
                    with self._lock:
                        del self._inflight[key]
                    pending.event.set()
                    raise
                metric_observe(
                    f"{name}.build_seconds",
                    time.perf_counter() - build_started,
                )
            store = cache_if is None or cache_if(value)
            if store and self._disk is not None and not durable:
                self._disk.store(key, value)
            with self._lock:
                self._misses += 1
                metric_inc(f"{name}.misses")
                if store:
                    self._entries[key] = value
                    self._entries.move_to_end(key)
                    if relations is not None:
                        self._relations[key] = frozenset(relations)
                    if not weighted:
                        self._unweighted.add(key)
                    if self._maxsize is not None:
                        while len(self._entries) > self._maxsize:
                            evicted, _ = self._entries.popitem(last=False)
                            self._relations.pop(evicted, None)
                            self._unweighted.discard(evicted)
                            self._evictions += 1
                del self._inflight[key]
            pending.event.set()
            return value

    def peek(self, key: Key, default=None):
        """Non-recording lookup (no hit/miss counted, no LRU touch)."""
        with self._lock:
            return self._entries.get(key, default)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def disk(self):
        """The durable tier, or ``None`` (memory-only cache)."""
        return self._disk

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(self._hits, self._misses, self._evictions)

    def invalidate_relations(self, touched, structural=None) -> dict:
        """Reclaim entries whose registered relations were touched.

        Called by the delta layer after a version commits.  An entry is
        evicted when its registered relation set intersects ``touched``
        or when it never registered one (conservative: unknown
        dependencies are assumed touched).  Query-only entries
        (registered with an empty relation set) and entries over
        disjoint relations survive — their projection-token keys are
        still exact on the new version, so they keep serving hits.

        ``structural`` is the subset of ``touched`` whose fact *sets*
        changed (insert/delete ops, :attr:`repro.db.delta.Delta.
        structural_relations`).  Entries registered ``weighted=False``
        are only matched against it: a reweight-only delta leaves every
        unweighted artifact — UR reductions and their exact counts — in
        place.  ``None`` (a caller without op-level knowledge)
        conservatively treats every touch as structural.

        Evicted keys are deleted from the durable tier too; a compiled
        automaton goes with the reduction holding it.  Returns the
        counts ``{"cache": …, "diskcache": …, "survived": …}``.  This
        is reclamation and accounting only — content-addressed keys
        already make stale hits impossible.
        """
        touched = frozenset(touched)
        structural = (
            touched if structural is None else frozenset(structural)
        )
        with self._lock:
            evicted = []
            for key in list(self._entries):
                deps = self._relations.get(key)
                guard = structural if key in self._unweighted else touched
                if deps is None or deps & guard:
                    del self._entries[key]
                    self._relations.pop(key, None)
                    self._unweighted.discard(key)
                    evicted.append(key)
            survived = len(self._entries)
        disk_deleted = 0
        if self._disk is not None:
            disk_deleted = sum(1 for key in evicted if self._disk.delete(key))
        return {
            "cache": len(evicted),
            "diskcache": disk_deleted,
            "survived": survived,
        }

    def clear(self) -> None:
        """Drop every entry; traffic counters are preserved."""
        with self._lock:
            self._entries.clear()
            self._relations.clear()
            self._unweighted.clear()

    def __repr__(self) -> str:
        return (
            f"ReductionCache(entries={len(self)}, "
            f"maxsize={self._maxsize}, {self.stats.describe()})"
        )
