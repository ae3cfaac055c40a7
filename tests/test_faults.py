"""Deterministic fault injection across the whole pipeline.

The headline guarantee (the issue's acceptance criterion): a 16-item
batch with faults injected at 3 distinct pipeline sites returns 13
successful answers **bitwise-identical** to a fault-free run plus 3
structured error records — and the whole result is identical for worker
counts 1, 4 and 8.

Also covered: every named site in :data:`FAULT_SITES` is live, retries
recover transient faults deterministically, the reduction cache never
stores aborted builds, ``on_error='fail'`` preserves completed
siblings, and a stalled item cannot overrun its deadline beyond the
checkpoint granularity (the timeout smoke test).
"""

import pytest

from repro.core.budget import EvaluationBudget
from repro.core.cache import ReductionCache
from repro.core.estimator import PQEEngine
from repro.core.parallel import BatchError, BatchItem, evaluate_batch
from repro.db.delta import Delta, DeltaOp, VersionedDatabase
from repro.db.fact import Fact
from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import EstimationError, ReproError
from repro.graphs import Edge, ProbabilisticGraph
from repro.lineage.build import build_lineage
from repro.queries.builders import path_query
from repro.queries.parser import parse_query
from repro.testing import (
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    fault_point,
    fault_scope,
    inject_faults,
)
from repro.workloads import complete_layered_path_instance

pytestmark = pytest.mark.faults

QUERY = parse_query("Q :- R1(x, y), R2(y, z)")
TRIANGLE = parse_query("Q :- R1(x, y), R2(y, z), R3(z, x)")

SMALL_PDB = ProbabilisticDatabase({
    Fact("R1", ("a", "b")): "1/2",
    Fact("R2", ("b", "c")): "2/3",
})

DIAMOND_PDB = ProbabilisticDatabase({
    Fact("R1", ("a", "b")): "1/2",
    Fact("R1", ("a", "c")): "2/3",
    Fact("R2", ("b", "d")): "3/4",
    Fact("R2", ("c", "d")): "2/5",
})

WIDTHS = (1, 4, 8)


def sampled_engine(seed=None):
    return PQEEngine(epsilon=0.5, exact_set_cap=0, seed=seed)


# ---------------------------------------------------------------------
# Harness basics
# ---------------------------------------------------------------------

def test_unknown_site_is_rejected():
    with pytest.raises(ReproError, match="unknown fault site"):
        FaultSpec("no.such.site")


def test_spec_validation():
    with pytest.raises(ReproError):
        FaultSpec("reduction.ur", after=-1)
    with pytest.raises(ReproError):
        FaultSpec("reduction.ur", times=0)
    with pytest.raises(ReproError):
        FaultSpec("reduction.ur", stall=-1.0)


def test_plans_do_not_nest():
    with inject_faults(FaultSpec("reduction.ur")):
        with pytest.raises(ReproError, match="already installed"):
            with inject_faults(FaultSpec("reduction.pqe")):
                pass  # pragma: no cover


def test_fault_point_is_a_noop_without_a_plan():
    fault_point("reduction.ur")  # must not raise


def test_scoped_specs_only_fire_in_their_scope():
    with inject_faults(FaultSpec("reduction.ur", scope=3)) as plan:
        with fault_scope(1):
            fault_point("reduction.ur")     # different scope: no fire
        with fault_scope(3):
            with pytest.raises(EstimationError, match="injected fault"):
                fault_point("reduction.ur")
        # Hits are only accounted within the spec's own scope.
        assert plan.hits("reduction.ur", 1) == 0
        assert plan.hits("reduction.ur", 3) == 1


def test_after_and_times_windows():
    plan = FaultPlan(FaultSpec("reduction.ur", after=1, times=1))
    assert plan.match("reduction.ur", None) is None       # hit 1: skipped
    assert plan.match("reduction.ur", None) is not None   # hit 2: fires
    assert plan.match("reduction.ur", None) is None       # hit 3: spent


# ---------------------------------------------------------------------
# Every named site is live
# ---------------------------------------------------------------------

# One production call path per site; each must pass through its
# fault_point, so a renamed or deleted site fails here loudly.
_INSTANCE = DatabaseInstance([Fact("R1", ("a", "b")), Fact("R2", ("b", "c"))])

SITE_TRIGGERS = {
    "decomposition.search": lambda: PQEEngine(seed=1).probability(
        TRIANGLE,
        ProbabilisticDatabase({
            Fact("R1", ("a", "b")): "1/2",
            Fact("R2", ("b", "c")): "1/2",
            Fact("R3", ("c", "a")): "1/2",
        }),
        method="fpras",
    ),
    "reduction.ur": lambda: PQEEngine(seed=1).uniform_reliability(
        QUERY, _INSTANCE, method="fpras"
    ),
    "reduction.pqe": lambda: PQEEngine(seed=1).probability(
        QUERY, SMALL_PDB, method="fpras"
    ),
    "lineage.build": lambda: build_lineage(QUERY, _INSTANCE),
    "lineage.karp_luby": lambda: PQEEngine(seed=1).probability(
        QUERY, SMALL_PDB, method="karp-luby"
    ),
    "counting.nfta": lambda: PQEEngine(seed=1).probability(
        QUERY, SMALL_PDB, method="fpras"
    ),
    "sampling.trees": lambda: __import__(
        "repro.core.sampling", fromlist=["sample_satisfying_subinstances"]
    ).sample_satisfying_subinstances(QUERY, _INSTANCE, k=1, seed=1),
    "monte_carlo.sample": lambda: PQEEngine(seed=1).probability(
        QUERY, SMALL_PDB, method="monte-carlo"
    ),
    "rpq.count": lambda: PQEEngine(seed=1).rpq_probability(
        ProbabilisticGraph.uniform(
            [Edge("s", "a", "m"), Edge("m", "b", "t")]
        ),
        "a b", source="s", target="t", method="exact",
    ),
    "serve.request": lambda: _served_request(),
    "db.delta": lambda: VersionedDatabase(SMALL_PDB).apply(
        Delta([DeltaOp.insert(Fact("R3", ("x", "y")), "1/2")])
    ),
}


def _served_request():
    """Drive a request through ``PQEServer.handle``, re-raising the
    serving-layer fault it contains (the daemon's contract is a
    structured 500 body, never a propagated exception)."""
    from repro.serve import PQEServer, ServerConfig

    server = PQEServer(SMALL_PDB, ServerConfig())
    status, body = server.handle(
        {"query": "Q :- R1(x, y), R2(y, z)", "method": "monte-carlo"}
    )
    if status == 500:
        raise EstimationError(body["error"]["message"])
    assert status == 200, body
    return body


def test_every_site_has_a_trigger():
    assert set(SITE_TRIGGERS) == set(FAULT_SITES)


@pytest.mark.parametrize("site", FAULT_SITES)
def test_injected_fault_surfaces_from_production_code(site):
    with inject_faults(FaultSpec(site)):
        with pytest.raises(EstimationError, match=f"injected fault at {site!r}"):
            SITE_TRIGGERS[site]()
    # The pipeline recovers completely once the plan is gone.
    SITE_TRIGGERS[site]()


# ---------------------------------------------------------------------
# The acceptance batch: 16 items, 3 faulted, any worker count
# ---------------------------------------------------------------------

FAULTED = {2: "counting.nfta", 5: "lineage.karp_luby", 10: "monte_carlo.sample"}


def acceptance_items():
    items = [
        BatchItem(QUERY, DIAMOND_PDB, method="fpras-weighted")
        for _ in range(16)
    ]
    items[5] = BatchItem(QUERY, DIAMOND_PDB, method="karp-luby")
    items[10] = BatchItem(QUERY, DIAMOND_PDB, method="monte-carlo")
    return items


def canon(batch):
    """The scheduling-independent projection of a batch result."""
    return [
        (
            r.index,
            r.ok,
            r.answer.value if r.ok else None,
            r.answer.method if r.ok else None,
            r.retries,
            (r.error.exception, r.error.message, r.error.phase)
            if r.error
            else None,
        )
        for r in batch.results
    ]


def test_faulted_batch_is_identical_across_worker_counts():
    engine = sampled_engine()
    items = acceptance_items()
    clean = evaluate_batch(engine, items, max_workers=4, seed=7)

    specs = [
        FaultSpec(site, scope=index) for index, site in FAULTED.items()
    ]
    with inject_faults(*specs):
        batches = [
            evaluate_batch(
                engine, items, max_workers=width, seed=7, on_error="skip"
            )
            for width in WIDTHS
        ]

    first = batches[0]
    # 13 successes, 3 structured error records.
    assert len(first.succeeded) == 13
    assert len(first.errors) == 3
    assert {r.index for r in first.errors} == set(FAULTED)
    for failed in first.errors:
        assert failed.answer is None
        assert failed.error.exception == "EstimationError"
        assert failed.error.message.startswith(
            f"injected fault at {FAULTED[failed.index]!r}"
        )
        assert failed.error.phase == FAULTED[failed.index]
    # Successes are bitwise-identical to the fault-free run …
    for r in first.succeeded:
        assert r.answer.value == clean.results[r.index].answer.value
        assert r.answer.method == clean.results[r.index].answer.method
    # … and the whole outcome is identical at every worker count.
    for batch in batches[1:]:
        assert canon(batch) == canon(first)


def test_retry_outcomes_are_identical_across_worker_counts():
    engine = sampled_engine()
    items = acceptance_items()[:6]
    outcomes = []
    for width in (1, 4):
        # Fresh plan per run: hit counts must start from zero each time.
        with inject_faults(FaultSpec("counting.nfta", scope=1, times=1)):
            outcomes.append(
                evaluate_batch(
                    engine, items, max_workers=width, seed=7,
                    on_error="skip", max_retries=1,
                )
            )
    assert canon(outcomes[0]) == canon(outcomes[1])
    recovered = outcomes[0].results[1]
    assert recovered.ok
    assert recovered.retries == 1


@pytest.mark.parametrize(
    "step,rolls_forward",
    [(0, False), (1, False), (2, True), (3, True)],
)
def test_delta_fault_matrix_across_worker_counts(step, rolls_forward):
    """The mutation path under injected faults, at workers 1/4/8.

    A delta apply killed at any of its four steps leaves the version
    head on exactly the old version (fault before the WAL commit,
    steps 1-2) or the new one (fault after it, steps 3-4) — never a
    hybrid — and a batch admitted afterwards pins that head and
    produces bitwise-identical answers at every worker count.  A
    pre-commit failure is retryable: re-applying the same delta
    converges on the same final state the roll-forward cases reach.
    """
    from fractions import Fraction

    engine = sampled_engine()
    outcomes = []
    for width in WIDTHS:
        vdb = VersionedDatabase(SMALL_PDB)
        reweight = Delta(
            [DeltaOp.reweight(Fact("R1", ("a", "b")), "3/4")]
        )
        with inject_faults(
            FaultSpec("db.delta", after=step, times=1)
        ):
            with pytest.raises(
                EstimationError, match="injected fault at 'db.delta'"
            ):
                vdb.apply(reweight)
            # Items pin the admission-time head via ``.pdb`` duck
            # typing — the batch sees one consistent version.
            items = [
                BatchItem(QUERY, vdb, method="fpras-weighted")
                for _ in range(8)
            ]
            batch = evaluate_batch(
                engine, items, max_workers=width, seed=11
            )
        assert vdb.version == (1 if rolls_forward else 0)
        if not rolls_forward:
            vdb.apply(reweight)  # the retry converges
        assert vdb.version == 1
        assert (
            vdb.pdb.probabilities[Fact("R1", ("a", "b"))]
            == Fraction(3, 4)
        )
        assert batch.ok
        outcomes.append(
            [
                (r.index, r.answer.value, r.answer.method)
                for r in batch.results
            ]
        )
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_degrade_mode_reroutes_faulted_items():
    engine = sampled_engine()
    items = acceptance_items()[:4]
    with inject_faults(FaultSpec("counting.nfta", scope=2)):
        batch = evaluate_batch(
            engine, items, max_workers=4, seed=7, on_error="degrade"
        )
    assert batch.ok
    rerouted = batch.results[2].answer
    assert rerouted.method == "monte-carlo"
    assert rerouted.degraded


# ---------------------------------------------------------------------
# Fail mode preserves siblings; the cache never stores aborted builds
# ---------------------------------------------------------------------

def test_fail_mode_preserves_completed_siblings():
    engine = sampled_engine()
    items = acceptance_items()[:4]
    clean = evaluate_batch(engine, items, max_workers=4, seed=7)
    with inject_faults(FaultSpec("counting.nfta", scope=1)):
        with pytest.raises(BatchError, match="batch item 1") as info:
            evaluate_batch(engine, items, max_workers=4, seed=7)
    partial = info.value.result
    assert info.value.index == 1
    assert isinstance(info.value.__cause__, EstimationError)
    assert len(partial.succeeded) == 3
    for r in partial.succeeded:
        assert r.answer.value == clean.results[r.index].answer.value
    assert partial.results[1].error.phase == "counting.nfta"


def test_aborted_builds_are_never_cached():
    cache = ReductionCache()
    engine = PQEEngine(epsilon=0.5, seed=3)
    item = [BatchItem(QUERY, SMALL_PDB, method="fpras")]
    # The first build attempt dies inside the cached builder; the retry
    # must rebuild from scratch (a second miss) and succeed.
    with inject_faults(FaultSpec("reduction.pqe", times=1)):
        batch = evaluate_batch(
            engine, item, max_workers=1, seed=3, cache=cache,
            max_retries=1, on_error="skip",
        )
    assert batch.ok
    assert batch.results[0].retries == 1
    clean = evaluate_batch(engine, item, max_workers=1, seed=3)
    assert batch.values == clean.values
    # Nothing half-built leaked: a fresh evaluation over the same cache
    # hits the (complete) entries stored by the successful retry.
    warm = evaluate_batch(engine, item, max_workers=1, seed=3, cache=cache)
    assert warm.values == clean.values
    assert warm.cache_stats.misses == 0


# ---------------------------------------------------------------------
# Timeout smoke: a stalled item cannot overrun its deadline
# ---------------------------------------------------------------------

def test_stalled_item_is_cut_off_at_the_deadline():
    engine = sampled_engine()
    items = [
        BatchItem(QUERY, DIAMOND_PDB, method="fpras-weighted"),
        BatchItem(QUERY, DIAMOND_PDB, method="fpras-weighted"),
    ]
    with inject_faults(FaultSpec("counting.nfta", scope=1, stall=30.0)):
        batch = evaluate_batch(
            engine, items, max_workers=2, seed=7,
            timeout=0.25, on_error="skip",
        )
    assert batch.results[0].ok
    stalled = batch.results[1]
    assert not stalled.ok
    assert stalled.error.exception == "BudgetExceededError"
    assert stalled.error.phase == "counting.nfta"
    # The 30s stall was cut off within the checkpoint granularity.
    assert stalled.elapsed < 2.0
    assert stalled.error.budget is not None
    assert stalled.error.budget.deadline == 0.25


def test_failed_item_reports_the_work_its_attempt_used():
    pdb = ProbabilisticDatabase({
        fact: "1/3" for fact in complete_layered_path_instance(3, 2)
    })
    item = BatchItem(path_query(3), pdb, method="karp-luby")
    with inject_faults(FaultSpec("lineage.karp_luby", times=1)):
        batch = evaluate_batch(
            PQEEngine(), [item], max_workers=1, seed=1,
            budget=EvaluationBudget(max_work_units=10**9),
            on_error="skip", telemetry=True,
        )
    error = batch.results[0].error
    # The lineage build ticked before the injected fault; the record
    # carries the attempt's own count, not a rebuilt zero.
    assert error.budget.work_units == error.telemetry.counter("budget.ticks")
    assert error.budget.work_units > 0
