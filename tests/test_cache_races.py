"""Eviction-race tests for the shared reduction cache.

PR 1's accounting contract says hit/miss totals are a function of the
request multiset alone.  That is easy to uphold when the cache is big
enough to never evict; these tests hammer a cache sized *at* the
working-set boundary — the regime an ``exact_set_cap``-limited serving
deployment actually runs in, where every lookup can race an eviction —
and assert the conservation law ``hits + misses == lookups`` plus the
structural invariants (entry count bounded by ``maxsize``, evictions
consistent with the miss count) survive.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.cache import ReductionCache
from repro.core.diskcache import DiskCache
from repro.core.estimator import PQEEngine
from repro.core.parallel import BatchItem
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import ReproError


def _hammer(cache: ReductionCache, threads: int, rounds: int, keys: int):
    """``threads`` workers each touch every key ``rounds`` times."""
    barrier = threading.Barrier(threads)

    def worker(_):
        barrier.wait()
        for round_number in range(rounds):
            for key in range(keys):
                value = cache.get_or_build(key, lambda k=key: k * 2)
                assert value == key * 2

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(worker, range(threads)))
    return threads * rounds * keys


class TestConservationUnderEviction:
    @pytest.mark.parametrize("maxsize", [1, 2, 3, 4])
    def test_hits_plus_misses_equals_lookups(self, maxsize):
        # maxsize < keys: every round cycles entries through eviction,
        # so lookups race evictions constantly.
        cache = ReductionCache(maxsize=maxsize)
        lookups = _hammer(cache, threads=8, rounds=20, keys=4)
        stats = cache.stats
        assert stats.lookups == lookups
        assert stats.hits + stats.misses == lookups
        assert len(cache) <= maxsize

    def test_eviction_count_matches_overflow(self):
        # Sequentially: k distinct keys through a size-1 cache evict
        # exactly k-1 times — the race-free baseline the threaded runs
        # must stay consistent with.
        cache = ReductionCache(maxsize=1)
        for key in range(5):
            cache.get_or_build(key, lambda k=key: k)
        assert cache.stats == type(cache.stats)(
            hits=0, misses=5, evictions=4
        )

    def test_evictions_never_exceed_stores(self):
        cache = ReductionCache(maxsize=2)
        _hammer(cache, threads=6, rounds=10, keys=5)
        stats = cache.stats
        # Every eviction displaces a previously stored (missed) entry.
        assert stats.evictions <= stats.misses
        assert len(cache) <= 2

    def test_unbounded_cache_never_evicts(self):
        cache = ReductionCache(maxsize=None)
        _hammer(cache, threads=4, rounds=5, keys=8)
        assert cache.stats.evictions == 0
        assert len(cache) == 8

    def test_cache_if_rejection_races(self):
        # Rejected values are returned but never stored: under eviction
        # pressure the conservation law must still hold and rejected
        # keys must never appear in the cache.
        cache = ReductionCache(maxsize=2)

        def worker(_):
            for key in range(4):
                cache.get_or_build(
                    key,
                    lambda k=key: k,
                    cache_if=lambda value: value % 2 == 0,
                )

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(worker, range(6)))
        assert cache.stats.lookups == 6 * 4
        assert 1 not in cache and 3 not in cache

    def test_disk_tier_preserves_conservation(self, tmp_path):
        cache = ReductionCache(
            maxsize=2, disk=DiskCache(tmp_path / "cache")
        )
        lookups = _hammer(cache, threads=6, rounds=10, keys=4)
        stats = cache.stats
        assert stats.lookups == lookups
        # Evicted entries come back from disk as (memory) misses, never
        # as phantom hits.
        assert stats.hits + stats.misses == lookups

    def test_maxsize_validation(self):
        with pytest.raises(ReproError):
            ReductionCache(maxsize=0)


class TestBatchAccountingAtTheBoundary:
    """End-to-end: a batch over an eviction-pressured shared cache keeps
    worker-count-independent traffic, the serving property PR 1 pinned
    at ``exact_set_cap`` scale."""

    def _items(self, rs_query):
        items = []
        for shift in range(6):
            labels = {}
            for i in range(3):
                labels[Fact("R", (f"a{i + shift}", f"b{i}"))] = "1/2"
                labels[Fact("S", (f"b{i}", f"c{i}"))] = "2/3"
            items.append(
                BatchItem(
                    rs_query, ProbabilisticDatabase(labels), method="fpras"
                )
            )
        return items

    @pytest.mark.parametrize("maxsize", [1, 2])
    def test_lookups_and_values_are_worker_count_independent(
        self, rs_query, maxsize
    ):
        # Under eviction pressure the hit/miss *split* legitimately
        # depends on interleaving (a sibling may or may not have evicted
        # the key first) — but the conservation total and the answers
        # must not.
        items = self._items(rs_query)
        engine = PQEEngine(seed=3, exact_set_cap=512)
        outcomes = {}
        for workers in (1, 4):
            cache = ReductionCache(maxsize=maxsize)
            batch = engine.evaluate_batch(
                items, seed=3, max_workers=workers, cache=cache
            )
            outcomes[workers] = (
                batch.values,
                batch.cache_stats.hits + batch.cache_stats.misses,
            )
        assert outcomes[1] == outcomes[4]

    def test_roomy_cache_restores_full_traffic_identity(self, rs_query):
        # Away from the boundary the stronger PR 1 contract holds: the
        # exact (hits, misses) pair is worker-count independent.
        items = self._items(rs_query)
        engine = PQEEngine(seed=3, exact_set_cap=512)
        outcomes = {}
        for workers in (1, 4):
            batch = engine.evaluate_batch(
                items, seed=3, max_workers=workers,
                cache=ReductionCache(maxsize=128),
            )
            outcomes[workers] = (
                batch.values,
                (batch.cache_stats.hits, batch.cache_stats.misses),
            )
        assert outcomes[1] == outcomes[4]


class TestProcessWideStores:
    """The lifted plan memo is the one process-wide ReductionCache:
    bounded, and counted under its own name.  A reduction's compiled
    automaton keeps its own plans and layer tables."""

    def test_lifted_plan_memo_stays_at_its_bound(self):
        from repro.queries import parse_query
        from repro.queries.lifted import (
            PLAN_MEMO_SIZE,
            _plan_memo,
            classify_query,
            clear_lifted_caches,
            lifted_probability,
        )

        clear_lifted_caches()
        first = parse_query("Q :- R0(x, y), S0(y)")
        pdb = ProbabilisticDatabase(
            {Fact("R0", ("a", "b")): "1/2", Fact("S0", ("b",)): "2/3"}
        )
        verdict = classify_query(first)
        answer = lifted_probability(first, pdb)
        for i in range(1, PLAN_MEMO_SIZE + 8):
            classify_query(parse_query(f"Q :- R{i}(x, y), S{i}(y)"))
        assert len(_plan_memo) == PLAN_MEMO_SIZE
        # The first query was evicted; classifying it again rebuilds
        # the same verdict and plan, and the answer is unchanged.
        assert classify_query(first) == verdict
        assert lifted_probability(first, pdb) == answer
        assert len(_plan_memo) == PLAN_MEMO_SIZE
        clear_lifted_caches()

    def test_exact_dp_counts_no_sampling_plan_traffic(self):
        from repro.core.pqe_estimate import pqe_estimate
        from repro.queries import parse_query

        pdb = ProbabilisticDatabase({
            Fact("R", ("a",)): "1/2",
            Fact("S", ("a", "b")): "1/3",
            Fact("T", ("b",)): "2/3",
        })
        query = parse_query("Q :- R(x), S(x, y), T(y)")
        estimate = pqe_estimate(query, pdb, method="exact-weighted")
        # One layer table and no sampling plan on the compiled form.
        [(kind, _weights)] = estimate.reduction.nfta.compiled._memo
        assert kind in ("numpy", "scalar")
