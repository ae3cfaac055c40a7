"""Batch evaluation and the shared reduction cache.

Covers the contracts documented in :mod:`repro.core.parallel` and
:mod:`repro.core.cache`:

- bitwise determinism of a seeded batch across ``max_workers`` settings,
  including items whose counts are genuinely sampled (seed-dependent);
- equivalence with a sequential per-item engine loop, method-for-method;
- thread-scheduling-independent cache hit/miss accounting, including
  the build deduplication and the ``cache_if`` (exact-counts-only)
  storage predicate;
- worker failures surfacing as :class:`EstimationError` naming the item;
- retry backoff jitter drawn from each item's own seed.
"""

import threading

import pytest

import repro.core.parallel as parallel
from repro.core.cache import CacheStats, ReductionCache
from repro.core.estimator import PQEEngine
from repro.core.parallel import (
    BatchItem,
    derive_item_seed,
    evaluate_batch,
)
from repro.core.resilience import DegradationPolicy
from repro.db.fact import Fact
from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import EstimationError, ReproError
from repro.queries.parser import parse_query
from repro.testing import FaultSpec, inject_faults

QUERY = parse_query("Q :- R1(x, y), R2(y, z)")

# Two facts: every counting group stays exact (seed-independent).
SMALL_PDB = ProbabilisticDatabase({
    Fact("R1", ("a", "b")): "1/2",
    Fact("R2", ("b", "c")): "2/3",
})

# Two derivations through d: with exact_set_cap=0 the counter samples,
# so estimates genuinely depend on the per-item seed.
DIAMOND_PDB = ProbabilisticDatabase({
    Fact("R1", ("a", "b")): "1/2",
    Fact("R1", ("a", "c")): "2/3",
    Fact("R2", ("b", "d")): "3/4",
    Fact("R2", ("c", "d")): "2/5",
})

WIDTHS = (1, 2, 8)


def small_items(n):
    return [BatchItem(QUERY, SMALL_PDB, method="fpras-weighted")] * n


def sampled_engine():
    return PQEEngine(epsilon=0.5, exact_set_cap=0)


# ---------------------------------------------------------------------
# Determinism across worker counts
# ---------------------------------------------------------------------

def test_batch_bitwise_identical_across_worker_counts():
    engine = sampled_engine()
    items = [BatchItem(QUERY, DIAMOND_PDB, method="fpras-weighted")] * 4
    batches = [
        evaluate_batch(engine, items, max_workers=width, seed=7)
        for width in WIDTHS
    ]
    # The workload really is randomized (else this test is vacuous) …
    assert not any(answer.exact for answer in batches[0].answers)
    # … and each item draws from its own stream.
    assert len(set(batches[0].values)) == len(items)
    for batch in batches[1:]:
        assert batch.values == batches[0].values
        assert batch.methods == batches[0].methods


def test_batch_matches_sequential_engine_loop():
    engine = sampled_engine()
    items = [
        BatchItem(QUERY, DIAMOND_PDB, method="fpras-weighted"),
        BatchItem(QUERY, SMALL_PDB, method="fpras-weighted"),
        BatchItem(QUERY, SMALL_PDB, method="auto"),
        BatchItem(QUERY, DIAMOND_PDB.instance, task="reliability"),
    ]
    batch = evaluate_batch(engine, items, max_workers=8, seed=3)
    for index, item in enumerate(items):
        item_seed = derive_item_seed(3, index)
        if item.task == "reliability":
            expected = engine.uniform_reliability(
                item.query, item.database, method=item.method,
                seed=item_seed,
            )
        else:
            expected = engine.probability(
                item.query, item.database, method=item.method,
                seed=item_seed,
            )
        assert batch.results[index].answer.value == expected.value
        assert batch.results[index].answer.method == expected.method


def test_derive_item_seed_is_stable_and_spread():
    assert derive_item_seed(None, 5) is None
    assert derive_item_seed(7, 0) == derive_item_seed(7, 0)
    seeds = {derive_item_seed(7, index) for index in range(100)}
    assert len(seeds) == 100
    assert derive_item_seed(7, 0) != derive_item_seed(8, 0)


# ---------------------------------------------------------------------
# Cache accounting
# ---------------------------------------------------------------------

def test_cache_accounting_is_scheduling_independent():
    # 6 identical exact items: builder misses pqe + ghd + count once,
    # every other item hits pqe + count.
    engine = PQEEngine(epsilon=0.25)
    for width in WIDTHS:
        batch = evaluate_batch(
            engine, small_items(6), max_workers=width, seed=11
        )
        assert batch.cache_stats.misses == 3
        assert batch.cache_stats.hits == 10
        assert batch.cache_stats.hit_rate == pytest.approx(10 / 13)


def test_sampled_counts_are_never_shared():
    # Non-exact counts are seed-dependent, so the count layer must miss
    # once per item; only the reduction layers are shared.
    engine = sampled_engine()
    items = [BatchItem(QUERY, DIAMOND_PDB, method="fpras-weighted")] * 3
    for width in WIDTHS:
        batch = evaluate_batch(engine, items, max_workers=width, seed=5)
        # pqe: 1 miss + 2 hits; ghd: 1 miss; count: 3 misses.
        assert batch.cache_stats.misses == 5
        assert batch.cache_stats.hits == 2
        assert len(set(batch.values)) == 3


def test_long_lived_cache_spans_batches_but_stats_do_not():
    cache = ReductionCache()
    engine = PQEEngine(epsilon=0.25, cache=cache)
    first = engine.evaluate_batch(small_items(2), max_workers=1, seed=1)
    assert first.cache_stats.misses == 3
    second = engine.evaluate_batch(small_items(2), max_workers=1, seed=1)
    # Everything is warm now, and per-batch stats are deltas.
    assert second.cache_stats.misses == 0
    assert second.cache_stats.hits == 4
    assert cache.stats.lookups == (
        first.cache_stats.lookups + second.cache_stats.lookups
    )


def test_cached_batch_values_equal_uncached_values():
    items = [
        BatchItem(QUERY, DIAMOND_PDB, method="fpras-weighted"),
        BatchItem(QUERY, SMALL_PDB, method="fpras-weighted"),
    ] * 2
    engine = sampled_engine()
    warm = ReductionCache()
    engine.evaluate_batch(items, max_workers=1, seed=9, cache=warm)
    cached = engine.evaluate_batch(items, max_workers=1, seed=9, cache=warm)
    fresh = engine.evaluate_batch(items, max_workers=1, seed=9)
    assert cached.values == fresh.values


# ---------------------------------------------------------------------
# ReductionCache unit behavior
# ---------------------------------------------------------------------

def test_concurrent_builds_deduplicate():
    cache = ReductionCache()
    builds = []
    gate = threading.Event()

    def builder():
        builds.append(1)
        gate.wait(timeout=5)
        return "value"

    def request():
        return cache.get_or_build("key", builder)

    threads = [threading.Thread(target=request) for _ in range(8)]
    for thread in threads:
        thread.start()
    gate.set()
    for thread in threads:
        thread.join()
    assert len(builds) == 1
    assert cache.stats.misses == 1
    assert cache.stats.hits == 7


def test_cache_if_rejected_values_stay_private():
    cache = ReductionCache()
    results = [
        cache.get_or_build("key", lambda i=i: i, cache_if=lambda _: False)
        for i in range(4)
    ]
    # Every caller ran its own builder and got its own value back.
    assert results == [0, 1, 2, 3]
    assert "key" not in cache
    assert cache.stats.misses == 4
    assert cache.stats.hits == 0
    # An accepted value is then shared as usual.
    assert cache.get_or_build("key", lambda: "kept") == "kept"
    assert cache.get_or_build("key", lambda: "ignored") == "kept"


def test_builder_exception_leaves_key_absent():
    cache = ReductionCache()
    with pytest.raises(ValueError):
        cache.get_or_build("key", lambda: (_ for _ in ()).throw(ValueError))
    assert "key" not in cache
    assert cache.get_or_build("key", lambda: 42) == 42


def test_lru_eviction_and_stats_arithmetic():
    cache = ReductionCache(maxsize=2)
    cache.get_or_build("a", lambda: 1)
    cache.get_or_build("b", lambda: 2)
    cache.get_or_build("a", lambda: 1)      # refresh a
    cache.get_or_build("c", lambda: 3)      # evicts b
    assert "a" in cache and "c" in cache and "b" not in cache
    assert cache.stats.evictions == 1
    delta = cache.stats - CacheStats(hits=1, misses=3, evictions=1)
    assert delta == CacheStats(hits=0, misses=0, evictions=0)
    assert CacheStats().hit_rate == 0.0
    with pytest.raises(ReproError):
        ReductionCache(maxsize=0)


# ---------------------------------------------------------------------
# Failure and validation contracts
# ---------------------------------------------------------------------

def test_worker_failure_surfaces_as_estimation_error():
    engine = PQEEngine()
    items = [
        BatchItem(QUERY, SMALL_PDB),
        BatchItem(QUERY, SMALL_PDB, method="not-a-method"),
    ]
    for width in (1, 4):
        with pytest.raises(EstimationError, match="batch item 1"):
            evaluate_batch(engine, items, max_workers=width, seed=0)


def test_failure_chains_the_original_exception():
    engine = PQEEngine()
    try:
        evaluate_batch(
            engine,
            [BatchItem(QUERY, SMALL_PDB, method="not-a-method")],
            seed=0,
        )
    except EstimationError as failure:
        assert isinstance(failure.__cause__, ReproError)
    else:  # pragma: no cover
        pytest.fail("expected EstimationError")


def test_item_validation():
    with pytest.raises(ReproError, match="unknown task"):
        evaluate_batch(PQEEngine(), [BatchItem(QUERY, SMALL_PDB, task="x")])
    with pytest.raises(ReproError, match="needs a ProbabilisticDatabase"):
        evaluate_batch(
            PQEEngine(),
            [BatchItem(QUERY, SMALL_PDB.instance, task="probability")],
        )
    with pytest.raises(ReproError, match="expected BatchItem"):
        evaluate_batch(PQEEngine(), [QUERY])
    with pytest.raises(ReproError, match="max_workers"):
        evaluate_batch(PQEEngine(), small_items(2), max_workers=0)


def test_tuple_items_and_task_inference():
    engine = PQEEngine()
    instance = DatabaseInstance(
        [Fact("R1", ("a", "b")), Fact("R2", ("b", "c"))]
    )
    batch = evaluate_batch(
        engine, [(QUERY, SMALL_PDB), (QUERY, instance)], seed=0
    )
    assert batch.results[0].answer.value == pytest.approx(1 / 3)
    assert batch.results[1].answer.value == 1.0  # UR(Q, D) = 1 world


def test_engine_seed_is_the_default_batch_seed():
    engine = sampled_engine()
    items = [BatchItem(QUERY, DIAMOND_PDB, method="fpras-weighted")] * 2
    seeded = PQEEngine(epsilon=0.5, exact_set_cap=0, seed=21)
    assert (
        seeded.evaluate_batch(items).values
        == engine.evaluate_batch(items, seed=21).values
    )


@pytest.mark.parametrize("on_error", ["fail", "skip"])
def test_retry_jitter_uses_each_items_seed(monkeypatch, on_error):
    """Two items retrying the same attempt sleep different, seed-derived
    amounts — the jitter stream is the item's, not seed 0's."""
    delays = []
    monkeypatch.setattr(parallel.time, "sleep", delays.append)
    policy = DegradationPolicy(max_retries=1, backoff_base=0.05, jitter=1.0)
    items = [BatchItem(QUERY, DIAMOND_PDB, method="fpras")] * 2
    with inject_faults(FaultSpec("counting.nfta", times=1)):
        batch = evaluate_batch(
            sampled_engine(), items, seed=5, max_workers=1,
            policy=policy, on_error=on_error,
        )
    assert [result.retries for result in batch.results] == [1, 1]
    assert sorted(delays) == sorted(
        policy.backoff(1, seed=derive_item_seed(5, index))
        for index in range(2)
    )
    assert delays[0] != delays[1]
