"""Incremental evaluation under a changing database (``-m delta``).

The never-stale-wrong tier for :mod:`repro.db.delta`:

- **token identity** — the incrementally-maintained ``cache_token`` of
  a delta-applied database is *bitwise-identical* to rebuilding the
  database from scratch, property-tested over random insert / delete /
  reweight streams (the homomorphic multiset hash is order-free and
  cancellative, so this is an algebraic identity, not a fixture);
- **transactional apply** — conflicting ops abort with
  :class:`~repro.errors.DeltaError` before any state changes, and a
  reweight-only delta shares the parent's unweighted instance object;
- **WAL recovery** — a journalled version chain replays to the same
  head token; foreign bases, broken chains, torn tails and flipped
  bits are refused or quarantined, never replayed wrong;
- **structure-aware invalidation** — a delta evicts exactly the warm
  artifacts keyed on a touched relation (memory, disk shadow, kernel
  memos); disjoint-relation and query-only (``relations=∅``) artifacts
  survive, and answers served from survivors are bitwise-identical to
  a cold evaluation on the new version.
"""

from __future__ import annotations

import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ReductionCache
from repro.core.estimator import PQEEngine
from repro.core.exact import exact_probability
from repro.db import (
    DatabaseInstance,
    Delta,
    DeltaOp,
    Fact,
    ProbabilisticDatabase,
    VersionedDatabase,
    apply_delta,
    load_delta_journal,
)
from repro.errors import DeltaError, JournalError
from repro.obs import EvaluationTelemetry, telemetry_scope
from repro.queries.parser import parse_query
from repro.testing.faults import flip_bit, truncate_tail

pytestmark = pytest.mark.delta

R1AB = Fact("R1", ("a", "b"))
R2BC = Fact("R2", ("b", "c"))
S1XY = Fact("S1", ("x", "y"))
S2YZ = Fact("S2", ("y", "z"))

RQ = parse_query("Q :- R1(x, y), R2(y, z)")
SQ = parse_query("Q :- S1(x, y), S2(y, z)")


def base_pdb() -> ProbabilisticDatabase:
    return ProbabilisticDatabase({
        R1AB: "1/2",
        R2BC: "2/3",
        S1XY: "3/4",
        S2YZ: "2/5",
    })


def rebuilt(pdb: ProbabilisticDatabase) -> ProbabilisticDatabase:
    """The from-scratch oracle: same facts, fresh accumulators."""
    return ProbabilisticDatabase(dict(pdb.probabilities))


# ---------------------------------------------------------------------
# Op and delta validation
# ---------------------------------------------------------------------

def test_unknown_op_is_rejected():
    with pytest.raises(DeltaError, match="unknown delta op"):
        DeltaOp("upsert", R1AB, "1/2")


def test_delete_must_not_carry_a_probability():
    with pytest.raises(DeltaError, match="must not carry"):
        DeltaOp("delete", R1AB, "1/2")


def test_insert_and_reweight_require_a_probability():
    for op in ("insert", "reweight"):
        with pytest.raises(DeltaError, match="require a probability"):
            DeltaOp(op, R1AB)


def test_empty_delta_is_rejected():
    with pytest.raises(DeltaError, match="at least one op"):
        Delta([])


def test_malformed_record_is_a_delta_error():
    for record in (
        {"op": "insert"},
        {"op": "insert", "relation": 7, "constants": ["a"],
         "probability": "1/2"},
        {"op": "insert", "relation": "R1", "constants": [["x"]],
         "probability": "1/2"},
        {"op": "insert", "relation": "R1", "constants": "ab",
         "probability": "1/2"},
    ):
        with pytest.raises(DeltaError, match="malformed delta op record"):
            DeltaOp.from_record(record)


def test_record_round_trip():
    ops = [
        DeltaOp.insert(Fact("R1", ("z", "z")), "1/7"),
        DeltaOp.delete(R2BC),
        DeltaOp.reweight(R1AB, "5/6"),
    ]
    delta = Delta(ops)
    again = Delta.from_records(delta.to_records())
    assert again.ops == delta.ops
    assert again.digest == delta.digest


def test_digest_is_order_sensitive():
    fresh = Fact("R1", ("q", "q"))
    legal = Delta([DeltaOp.insert(fresh, "1/2"),
                   DeltaOp.reweight(fresh, "1/3")])
    swapped = Delta([DeltaOp.reweight(fresh, "1/3"),
                     DeltaOp.insert(fresh, "1/2")])
    assert legal.digest != swapped.digest
    assert legal.touched_relations == frozenset({"R1"})


# ---------------------------------------------------------------------
# Transactional apply semantics
# ---------------------------------------------------------------------

def test_insert_delete_reweight_semantics():
    new = Fact("R1", ("c", "d"))
    pdb = apply_delta(base_pdb(), Delta([
        DeltaOp.insert(new, "1/7"),
        DeltaOp.delete(S1XY),
        DeltaOp.reweight(R2BC, "1/3"),
    ]))
    assert pdb.probabilities[new] == Fraction(1, 7)
    assert S1XY not in pdb.probabilities
    assert pdb.probabilities[R2BC] == Fraction(1, 3)
    assert pdb.cache_token == rebuilt(pdb).cache_token


@pytest.mark.parametrize("delta,message", [
    (Delta([DeltaOp.insert(R1AB, "1/2")]), "already"),
    (Delta([DeltaOp.delete(Fact("R1", ("no", "no")))]), "not"),
    (Delta([DeltaOp.reweight(Fact("R9", ("a", "b")), "1/2")]), "not"),
])
def test_conflicting_ops_abort_with_no_state_change(delta, message):
    base = base_pdb()
    token = base.cache_token
    with pytest.raises(DeltaError, match=message):
        apply_delta(base, delta)
    assert base.cache_token == token
    assert len(base) == 4


def test_sequenced_ops_validate_against_the_evolving_state():
    fresh = Fact("R1", ("q", "q"))
    pdb = apply_delta(base_pdb(), Delta([
        DeltaOp.insert(fresh, "1/2"),
        DeltaOp.reweight(fresh, "1/3"),   # legal only after the insert
    ]))
    assert pdb.probabilities[fresh] == Fraction(1, 3)
    with pytest.raises(DeltaError):
        apply_delta(base_pdb(), Delta([
            DeltaOp.delete(R1AB),
            DeltaOp.delete(R1AB),          # second delete sees it gone
        ]))


def test_reweight_only_delta_shares_the_instance():
    base = base_pdb()
    pdb = apply_delta(base, Delta([DeltaOp.reweight(R1AB, "9/10")]))
    assert pdb.instance is base.instance
    assert pdb.cache_token != base.cache_token
    assert pdb.cache_token == rebuilt(pdb).cache_token


def test_probabilities_is_a_cached_readonly_view():
    pdb = base_pdb()
    view = pdb.probabilities
    assert isinstance(view, MappingProxyType)
    assert pdb.probabilities is view          # cached, not rebuilt
    with pytest.raises(TypeError):
        view[R1AB] = Fraction(1, 3)


# ---------------------------------------------------------------------
# Token identity: incremental == from-scratch, property-tested
# ---------------------------------------------------------------------

def _random_stream(rng: random.Random, steps: int):
    """A valid delta stream over an evolving fact set."""
    pdb = base_pdb()
    live = dict(pdb.probabilities)
    deltas = []
    denominators = (2, 3, 5, 7, 11)
    for step in range(steps):
        ops = []
        for _ in range(rng.randint(1, 3)):
            prob = Fraction(
                1, denominators[rng.randrange(len(denominators))]
            )
            kind = rng.random()
            if kind < 0.4 or not live:
                fact = Fact(
                    f"R{rng.randint(1, 3)}",
                    (f"n{step}", f"m{len(ops)}-{rng.randint(0, 9)}"),
                )
                if fact in live:
                    continue
                live[fact] = prob
                ops.append(DeltaOp.insert(fact, prob))
            elif kind < 0.7:
                fact = rng.choice(sorted(live, key=repr))
                del live[fact]
                ops.append(DeltaOp.delete(fact))
            else:
                fact = rng.choice(sorted(live, key=repr))
                live[fact] = prob
                ops.append(DeltaOp.reweight(fact, prob))
        if ops:
            deltas.append(Delta(ops))
    return deltas


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_incremental_token_is_bitwise_from_scratch(seed):
    rng = random.Random(seed)
    pdb = base_pdb()
    for delta in _random_stream(rng, steps=8):
        pdb = apply_delta(pdb, delta)
        oracle = rebuilt(pdb)
        assert pdb.cache_token == oracle.cache_token
        assert (
            pdb.instance.cache_token == oracle.instance.cache_token
        )
        for relations in (
            frozenset({"R1"}),
            frozenset({"R1", "R2"}),
            frozenset({"S1", "S2"}),
            frozenset({"absent"}),
            frozenset(),
        ):
            assert pdb.projection_token(relations) == (
                oracle.projection_token(relations)
            )
            assert pdb.instance.projection_token(relations) == (
                oracle.instance.projection_token(relations)
            )


def test_projection_token_ignores_untouched_relations():
    base = base_pdb()
    pdb = apply_delta(
        base, Delta([DeltaOp.reweight(S1XY, "1/9")])
    )
    r_relations = frozenset({"R1", "R2"})
    assert pdb.projection_token(r_relations) == (
        base.projection_token(r_relations)
    )
    assert pdb.projection_token(frozenset({"S1"})) != (
        base.projection_token(frozenset({"S1"}))
    )


# ---------------------------------------------------------------------
# The versioned database and its WAL
# ---------------------------------------------------------------------

def test_versions_are_immutable_and_ordered(tmp_path):
    vdb = VersionedDatabase(base_pdb())
    v0 = vdb.current
    v1 = vdb.apply(Delta([DeltaOp.reweight(R1AB, "1/5")]))
    v2 = vdb.apply(Delta([DeltaOp.delete(S2YZ)]))
    assert (v0.version, v1.version, v2.version) == (0, 1, 2)
    assert vdb.version == 2
    assert v0.pdb.probabilities[R1AB] == Fraction(1, 2)
    assert v1.pdb.probabilities[R1AB] == Fraction(1, 5)
    assert S2YZ not in v2.pdb.probabilities
    assert vdb.cache_token == v2.token


def test_journal_round_trip_and_recovery(tmp_path):
    wal = tmp_path / "deltas.wal"
    deltas = [
        Delta([DeltaOp.insert(Fact("R1", ("c", "d")), "1/7")]),
        Delta([DeltaOp.reweight(R2BC, "1/3"),
               DeltaOp.delete(S1XY)]),
    ]
    with VersionedDatabase(base_pdb(), journal=wal) as vdb:
        for delta in deltas:
            vdb.apply(delta)
        head = vdb.current

    loaded = load_delta_journal(wal)
    assert len(loaded) == 2
    assert loaded.quarantined == 0
    assert loaded.applied[1]["version"] == 1

    with VersionedDatabase(base_pdb(), journal=wal) as again:
        assert again.recovered == 2
        assert again.version == 2
        assert again.cache_token == head.token
        assert dict(again.pdb.probabilities) == dict(
            head.pdb.probabilities
        )


def test_foreign_base_is_refused(tmp_path):
    wal = tmp_path / "deltas.wal"
    with VersionedDatabase(base_pdb(), journal=wal) as vdb:
        vdb.apply(Delta([DeltaOp.delete(R1AB)]))
    other = ProbabilisticDatabase({R1AB: "1/9"})
    with pytest.raises(JournalError, match="different base"):
        VersionedDatabase(other, journal=wal)


def test_torn_tail_recovers_the_valid_prefix(tmp_path):
    wal = tmp_path / "deltas.wal"
    with VersionedDatabase(base_pdb(), journal=wal) as vdb:
        vdb.apply(Delta([DeltaOp.reweight(R1AB, "1/5")]))
        vdb.apply(Delta([DeltaOp.reweight(R1AB, "1/6")]))
    # Tear mid-way through the second delta record: drop the final
    # trailer line and all but 25 bytes of the record before it.
    lines = wal.read_bytes().split(b"\n")
    header, delta1, applied1, delta2, applied2 = lines[:5]
    truncate_tail(
        wal, len(applied2) + 1 + (len(delta2) + 1 - 25)
    )
    with pytest.warns(Warning, match="quarantin"):
        with VersionedDatabase(base_pdb(), journal=wal) as again:
            # The torn record falls away; the valid prefix replays
            # bitwise.
            assert again.recovered == 1
            expected = apply_delta(
                base_pdb(),
                Delta([DeltaOp.reweight(R1AB, "1/5")]),
            )
            assert again.cache_token == expected.cache_token


def test_flipped_bit_quarantines_the_chain_suffix(tmp_path):
    wal = tmp_path / "deltas.wal"
    with VersionedDatabase(base_pdb(), journal=wal) as vdb:
        vdb.apply(Delta([DeltaOp.reweight(R1AB, "1/5")]))
    blob = wal.read_bytes()
    # Damage the middle of the first delta record (after the header
    # line) — the checksum catches it and the suffix is quarantined.
    header_end = blob.index(b"\n")
    flip_bit(wal, offset=header_end + 40)
    with pytest.warns(Warning, match="quarantin"):
        with VersionedDatabase(base_pdb(), journal=wal) as again:
            assert again.version == 0
            assert again.cache_token == base_pdb().cache_token


# ---------------------------------------------------------------------
# Structure-aware invalidation
# ---------------------------------------------------------------------

def test_invalidation_is_selective_and_counted():
    cache = ReductionCache()
    engine = PQEEngine(epsilon=0.5, seed=3, cache=cache)
    pdb = base_pdb()
    engine.probability(RQ, pdb, method="fpras")
    engine.probability(SQ, pdb, method="fpras")
    warm_misses = cache.stats.misses

    vdb = VersionedDatabase(pdb)
    vdb.attach_cache(cache)
    telemetry = EvaluationTelemetry()
    with telemetry_scope(telemetry):
        vdb.apply(Delta([DeltaOp.reweight(R1AB, "1/3")]))
    counters = telemetry.metrics.counters
    assert counters["delta.applied"] == 1
    assert counters["delta.invalidated.cache"] >= 1
    assert counters["delta.survived"] >= 1

    # The S-side pipeline survived: re-evaluating on the old head
    # costs zero new misses …
    engine.probability(SQ, pdb, method="fpras")
    assert cache.stats.misses == warm_misses
    # … while the touched R-side was reclaimed and rebuilds.
    engine.probability(RQ, vdb.pdb, method="fpras")
    assert cache.stats.misses > warm_misses


def test_structural_relations_exclude_pure_reweights():
    mixed = Delta([
        DeltaOp.reweight(R1AB, "1/3"),
        DeltaOp.insert(Fact("R2", ("b", "d")), "1/7"),
    ])
    assert mixed.touched_relations == frozenset({"R1", "R2"})
    assert mixed.structural_relations == frozenset({"R2"})
    assert Delta(
        [DeltaOp.reweight(R1AB, "1/3")]
    ).structural_relations == frozenset()


def test_unweighted_artifacts_survive_reweight_only_deltas():
    """The UR pipeline is keyed on unweighted projection tokens, so a
    reweight-only delta must spare 100% of its artifacts — the bench
    gate in ``benchmarks/bench_incremental.py`` holds this at scale."""
    cache = ReductionCache()
    engine = PQEEngine(epsilon=0.5, seed=17, cache=cache)
    pdb = base_pdb()
    engine.uniform_reliability(RQ, pdb.instance, method="fpras")
    warm_misses = cache.stats.misses

    vdb = VersionedDatabase(pdb)
    vdb.attach_cache(cache)
    telemetry = EvaluationTelemetry()
    with telemetry_scope(telemetry):
        vdb.apply(Delta([DeltaOp.reweight(R1AB, "1/9")]))
    counters = telemetry.metrics.counters
    assert counters.get("delta.invalidated.cache", 0) == 0
    assert counters["delta.survived"] >= 1

    # Re-running UR on the *new* head costs zero new misses: the fact
    # sets (and therefore every key) are unchanged by a reweight.
    engine.uniform_reliability(RQ, vdb.pdb.instance, method="fpras")
    assert cache.stats.misses == warm_misses

    # An insert into the same relation is structural and reclaims.
    with telemetry_scope(telemetry):
        vdb.apply(
            Delta([DeltaOp.insert(Fact("R1", ("a", "c")), "1/4")])
        )
    assert telemetry.metrics.counters["delta.invalidated.cache"] >= 1


def test_query_only_artifacts_survive_every_delta():
    cache = ReductionCache()

    build_count = 0

    def build():
        nonlocal build_count
        build_count += 1
        return object()

    # relations=∅ is the contract for query-only artifacts (GHDs, RPQ
    # products): no relational delta may ever evict them.
    first = cache.get_or_build(
        ("ghd", "some-query"), build, relations=frozenset()
    )
    counts = cache.invalidate_relations(frozenset({"R1", "S1"}))
    assert counts["cache"] == 0
    assert counts["survived"] == 1
    again = cache.get_or_build(
        ("ghd", "some-query"), build, relations=frozenset()
    )
    assert again is first
    assert build_count == 1


def test_unregistered_entries_are_evicted_conservatively():
    cache = ReductionCache()
    cache.get_or_build(("legacy", "key"), lambda: object())
    counts = cache.invalidate_relations(frozenset({"R1"}))
    assert counts["cache"] == 1


def test_surviving_entries_answer_bitwise_like_a_cold_run():
    """The never-stale-wrong acceptance check: after a delta to an
    unrelated relation, answers served through the surviving warm
    cache are bitwise-identical to a cold engine on the new version."""
    cache = ReductionCache()
    warm = PQEEngine(epsilon=0.5, seed=11, cache=cache)
    pdb = base_pdb()
    warm.probability(RQ, pdb, method="fpras")

    vdb = VersionedDatabase(pdb)
    vdb.attach_cache(cache)
    vdb.apply(Delta([DeltaOp.reweight(S1XY, "1/9"),
                     DeltaOp.delete(S2YZ)]))
    head = vdb.pdb

    before = cache.stats.misses
    warm_answer = warm.probability(RQ, head, method="fpras")
    assert cache.stats.misses == before      # served from survivors

    cold = PQEEngine(epsilon=0.5, seed=11, cache=ReductionCache())
    cold_answer = cold.probability(RQ, head, method="fpras")
    assert warm_answer.value == cold_answer.value
    assert warm_answer.method == cold_answer.method

    oracle = exact_probability(RQ, head)
    assert warm_answer.value == pytest.approx(float(oracle), abs=0.5)


def test_touched_artifacts_recompute_to_the_new_answer():
    cache = ReductionCache()
    engine = PQEEngine(epsilon=0.5, seed=5, cache=cache)
    pdb = ProbabilisticDatabase({R1AB: "1/2", R2BC: "2/3"})
    engine.probability(RQ, pdb, method="fpras")

    vdb = VersionedDatabase(pdb)
    vdb.attach_cache(cache)
    vdb.apply(Delta([DeltaOp.reweight(R1AB, "1/1")]))
    head = vdb.pdb

    answer = engine.probability(RQ, head, method="fpras")
    cold = PQEEngine(epsilon=0.5, seed=5, cache=ReductionCache())
    assert answer.value == cold.probability(
        RQ, head, method="fpras"
    ).value
    oracle = exact_probability(RQ, head)
    assert oracle == Fraction(2, 3)
    assert answer.value == pytest.approx(float(oracle), abs=0.5)


# ---------------------------------------------------------------------
# Version pinning through the engine entry points
# ---------------------------------------------------------------------

def test_engine_entry_points_pin_the_versioned_head():
    vdb = VersionedDatabase(base_pdb())
    engine = PQEEngine(epsilon=0.5, seed=2)
    direct = engine.probability(RQ, vdb.pdb, method="fpras")
    pinned = engine.probability(RQ, vdb, method="fpras")
    assert pinned.value == direct.value

    ur_direct = engine.uniform_reliability(
        RQ, vdb.pdb.instance, method="fpras"
    )
    ur_pinned = engine.uniform_reliability(RQ, vdb, method="fpras")
    assert ur_pinned.value == ur_direct.value


def test_instance_projection_matches_unweighted_semantics():
    instance = DatabaseInstance([R1AB, R2BC])
    assert instance.projection_token(frozenset({"R1"})) != (
        instance.projection_token(frozenset({"R2"}))
    )
    assert instance.projection_token(frozenset({"R1", "R2"})) == (
        DatabaseInstance([R2BC, R1AB]).projection_token(
            frozenset({"R1", "R2"})
        )
    )
