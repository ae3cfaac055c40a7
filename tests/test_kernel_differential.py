"""Differential tests: every kernel backend pair, compared bitwise.

The optimized backend (:mod:`repro.core.kernels` over
:mod:`repro.automata.optimize`, also spelled ``vectorized``) promises
*bitwise-identical* results to the reference transcription for any
input and any seed — not "close", identical.  Its exact DP runs the
numpy layer table (:mod:`repro.core.vectorized`) when numpy is
importable and the scalar one otherwise, so the exact-count tests add
a leg with numpy hidden: on a host with numpy, both tables are checked
against the reference.  This module enforces that promise over every
backend name on the repository's existing corpus:

- every automaton shape used by ``test_nfta_counting`` (Catalan, random
  NFTAs with dead/unreachable/duplicate structure, ambiguous and
  adversarially ambiguous automata, weighted variants), for exact
  counts, hybrid/sampled counts, and sampled tree lists, plus
  reductions whose unions draw from exact products (the optimized
  store's recipes against the reference's materialised products);
- the query fixtures of ``conftest.py`` and the random query/instance
  shapes of ``test_estimators`` / ``test_cross_validation``, through
  ``pqe_estimate`` / ``ur_estimate`` / ``PQEEngine`` on every routed
  method;
- Karp–Luby over random monotone DNFs, a path lineage wider than one
  machine word, DNFs mixing clause lengths (one clause containing
  another) with facts at probability 0 and 1, runs of three blocks and
  more of the numpy block path with equal and with unequal free
  counts, blocks that carry more unread doubles than they read,
  clauses with no free fact, a one-fact DNF and zero-weight clauses,
  under a work budget and under a deadline — with a leg that
  hides numpy, so the bitset loop and the block path are both held to
  the reference, work counters included;
- RPQ product automata: the engine's RPQ routes, which no backend
  changes, over the handcrafted adversarial graph corpus;
- whole batches at workers 1 and 4, where answers *and* the merged
  deterministic counters must agree across both worker counts and
  every backend.

Comparisons use ``==`` on exact values (``int``/``Fraction``: value and
type), full result dataclasses, and tree lists — never ``approx``.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from repro.automata.nfta import NFTA
from repro.automata.nfta_counting import (
    count_nfta,
    count_nfta_exact,
    sample_accepted_trees,
)
from repro.core import kernels
from repro.core.budget import EvaluationBudget, budget_scope
from repro.core.estimator import PQEEngine
from repro.core.pqe_estimate import (
    build_pqe_reduction,
    pqe_estimate,
    ur_estimate,
)
from repro.core.ur_reduction import build_ur_reduction
from repro.db.fact import Fact
from repro.errors import BudgetExceededError
from repro.lineage.build import build_lineage
from repro.lineage.dnf import DNF
from repro.lineage.karp_luby import _BLOCK_CELLS, karp_luby_probability
from repro.obs import EvaluationTelemetry, telemetry_scope
from repro.queries.builders import path_query, star_query
from repro.workloads.graphs import (
    complete_layered_path_instance,
    layered_path_instance,
)
from repro.workloads.instances import (
    random_instance_for_query,
    random_probabilities,
)

from test_kernel_vectorized import numpy_hidden
from test_nfta_counting import _catalan_automaton, _random_nfta

BACKENDS = ("reference", "optimized", "vectorized")

#: Exact-DP legs: every backend name, plus ``"scalar"`` — the optimized
#: backend with numpy hidden, which runs the scalar layer table.
EXACT_LEGS = BACKENDS + ("scalar",)

#: Karp–Luby legs: every backend name, plus ``"bitset"`` — the optimized
#: backend with numpy hidden, which runs the bitset loop instead of the
#: numpy block path.
KARP_LUBY_LEGS = BACKENDS + ("bitset",)


def _leg(run, leg):
    """``run(backend)`` on one exact-DP or Karp–Luby leg."""
    if leg in ("scalar", "bitset"):
        with numpy_hidden():
            return run("optimized")
    return run(leg)


def _ambiguous_automaton() -> NFTA:
    # Two distinct run assignments accept the same tree a(a, a).
    return NFTA(
        [
            ("s", "a", ("p", "r")),
            ("s", "a", ("p", "p")),
            ("p", "a", ()),
            ("r", "a", ()),
        ],
        initial="s",
    )


def _adversarial_automaton(m: int = 4) -> NFTA:
    # m states all deriving the full binary-tree language (maximal pool
    # correlation in the sampler, heavy duplicate structure for dedup).
    transitions = []
    names = [f"c{i}" for i in range(m)]
    for name in names:
        transitions.append((name, "a", ()))
        for left in names:
            for right in names:
                transitions.append((name, "a", (left, right)))
    return NFTA(transitions, initial=names[0])


def _dead_state_automaton() -> NFTA:
    # 'dead' never produces a tree; 'lost' is unreachable; the duplicate
    # leaf rule exercises dedup.  All three must be invisible to counts.
    return NFTA(
        [
            ("q", "a", ()),
            ("q", "a", ()),
            ("q", "b", ("q", "q")),
            ("q", "b", ("dead", "q")),
            ("dead", "b", ("dead",)),
            ("lost", "a", ()),
        ],
        initial="q",
    )


def _automaton_corpus() -> list[NFTA]:
    corpus = [
        _catalan_automaton(),
        _ambiguous_automaton(),
        _adversarial_automaton(),
        _dead_state_automaton(),
    ]
    corpus.extend(_random_nfta(seed, states=4) for seed in range(8))
    return corpus


def _weight_table(nfta: NFTA) -> dict:
    return {
        symbol: weight
        for symbol, weight in zip(
            sorted(nfta.alphabet, key=str), [2, 3, 5, 7, 11]
        )
    }


# ---------------------------------------------------------------------------
# automaton corpus: counts, estimates, sampled trees


@pytest.mark.parametrize("index", range(12))
def test_exact_counts_bitwise(index):
    nfta = _automaton_corpus()[index]
    weights = _weight_table(nfta)
    fractional = {s: Fraction(w, 7) for s, w in weights.items()}
    for size in range(1, 8):
        for weight_of in (None, weights.get, fractional.get):
            counts = [
                _leg(
                    lambda backend: count_nfta_exact(
                        nfta, size, weight_of=weight_of, backend=backend
                    ),
                    leg,
                )
                for leg in EXACT_LEGS
            ]
            for other in counts[1:]:
                assert other == counts[0]
                assert type(other) is type(counts[0])


@pytest.mark.parametrize("index", range(12))
@pytest.mark.parametrize("exact_set_cap", [0, 4096])
def test_count_nfta_bitwise(index, exact_set_cap):
    nfta = _automaton_corpus()[index]
    results = [
        count_nfta(
            nfta,
            6,
            epsilon=0.3,
            seed=index,
            exact_set_cap=exact_set_cap,
            repetitions=3,
            backend=backend,
        )
        for backend in BACKENDS
    ]
    assert all(result == results[0] for result in results[1:])


@pytest.mark.parametrize("index", range(12))
def test_sampled_trees_bitwise(index):
    nfta = _automaton_corpus()[index]
    size_mask = nfta.possible_sizes(7).get(nfta.initial, 0)
    sizes = [s for s in range(3, 8) if (size_mask >> s) & 1]
    if not sizes:
        pytest.skip("no accepted size in range for this automaton")
    size = sizes[0]
    trees = [
        sample_accepted_trees(
            nfta, size, k=25, seed=index, exact_set_cap=0, backend=backend
        )
        for backend in BACKENDS
    ]
    assert all(sample == trees[0] for sample in trees[1:])


def test_weighted_sampling_bitwise():
    nfta = NFTA([("q", "light", ()), ("q", "heavy", ())], initial="q")
    weights = {"light": 1, "heavy": 9}
    trees = [
        sample_accepted_trees(
            nfta, 1, k=120, seed=2, weight_of=weights.get,
            exact_set_cap=16, backend=backend,
        )
        for backend in BACKENDS
    ]
    assert all(sample == trees[0] for sample in trees[1:])


def _cap_heavy_cases():
    """``(nfta, size, weight_of)`` whose Karp–Luby unions draw from
    exact products: a union past the cap whose children fit it, the
    shape of the repository benchmark's UR path and Q4 items."""
    ur = build_ur_reduction(
        path_query(4), complete_layered_path_instance(4, 2)
    )
    layered = layered_path_instance(4, 2, 1.0, seed=0)
    weighted = build_pqe_reduction(
        path_query(4),
        random_probabilities(layered, seed=1, max_denominator=3),
        weighted=True,
    )
    return [
        (ur.nfta, ur.tree_size, None),
        (weighted.nfta, weighted.tree_size, weighted.weight_of),
    ]


@pytest.mark.parametrize("case", range(2))
def test_cap_heavy_draws_on_exact_products_bitwise(case):
    nfta, size, weight_of = _cap_heavy_cases()[case]
    results = [
        count_nfta(
            nfta, size, epsilon=0.3, seed=case, weight_of=weight_of,
            backend=backend,
        )
        for backend in BACKENDS
    ]
    assert not results[0].exact
    assert all(result == results[0] for result in results[1:])
    trees = [
        sample_accepted_trees(
            nfta, size, k=60, seed=case, weight_of=weight_of,
            backend=backend,
        )
        for backend in BACKENDS
    ]
    assert all(sample == trees[0] for sample in trees[1:])


# ---------------------------------------------------------------------------
# query corpus: estimators and the engine


def _query_corpus():
    cases = []
    for i, query in enumerate(
        [path_query(2), path_query(3), star_query(2), star_query(3)]
    ):
        instance = random_instance_for_query(
            query, domain_size=2, facts_per_relation=3, seed=60 + i
        )
        pdb = random_probabilities(instance, seed=60 + i, max_denominator=4)
        cases.append((query, instance, pdb))
    return cases


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize(
    "method", ["fpras", "fpras-weighted", "exact-automaton", "exact-weighted"]
)
def test_pqe_estimate_bitwise(case, method):
    query, _instance, pdb = _query_corpus()[case]
    estimates = [
        _leg(
            lambda backend: pqe_estimate(
                query, pdb, epsilon=0.3, seed=case, method=method,
                backend=backend,
            ),
            leg,
        )
        for leg in (EXACT_LEGS if method.startswith("exact") else BACKENDS)
    ]
    for other in estimates[1:]:
        assert other.estimate == estimates[0].estimate
        assert other.count_result == estimates[0].count_result


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("method", ["fpras", "exact-automaton"])
def test_ur_estimate_bitwise(case, method):
    query, instance, _pdb = _query_corpus()[case]
    estimates = [
        _leg(
            lambda backend: ur_estimate(
                query, instance, epsilon=0.3, seed=case, method=method,
                backend=backend,
            ),
            leg,
        )
        for leg in (EXACT_LEGS if method.startswith("exact") else BACKENDS)
    ]
    for other in estimates[1:]:
        assert other.estimate == estimates[0].estimate
        assert other.count_result == estimates[0].count_result


def test_engine_fixture_corpus_bitwise(q2, q3, tiny_pdb):
    for query in (q2, q3):
        for method in ("auto", "fpras", "fpras-weighted", "karp-luby"):
            answers = [
                PQEEngine(seed=17, kernel_backend=backend).probability(
                    query, tiny_pdb, method=method
                )
                for backend in BACKENDS
            ]
            assert all(
                answer == answers[0] for answer in answers[1:]
            ), (query, method)


def test_engine_random_sjf_corpus_bitwise():
    # The test_cross_validation query/instance shape: random SJF queries
    # with shared variables over small random instances.
    from test_cross_validation import _random_instance, _random_sjf_query

    rng = random.Random(5)
    checked = 0
    while checked < 6:
        query = _random_sjf_query(rng)
        instance = _random_instance(query, rng, max_facts=8)
        pdb = random_probabilities(instance, seed=checked, max_denominator=5)
        answers = [
            PQEEngine(
                seed=checked, kernel_backend=backend
            ).probability(query, pdb, method="fpras")
            for backend in BACKENDS
        ]
        assert all(answer == answers[0] for answer in answers[1:])
        checked += 1


def _path_lineage_128():
    """``path_query(6)`` over the complete width-2 layered instance: 128
    clauses, so every clause bitset is wider than one machine word."""
    instance = complete_layered_path_instance(6, 2)
    pdb = random_probabilities(instance, seed=6, max_denominator=4)
    return build_lineage(path_query(6), instance), pdb.probabilities


def _karp_luby_inputs():
    """``(formula, probabilities, seed, samples)`` for the Karp–Luby
    differential."""
    rng = random.Random(99)
    for _trial in range(25):
        facts = [Fact("R", (f"a{i}",)) for i in range(rng.randint(2, 8))]
        clauses = frozenset(
            frozenset(rng.sample(facts, rng.randint(1, min(3, len(facts)))))
            for _ in range(rng.randint(1, 6))
        )
        probs = {f: Fraction(rng.randint(1, 9), 10) for f in facts}
        yield DNF(clauses), probs, rng.randint(0, 10**6), rng.randint(1, 300)
    formula, probs = _path_lineage_128()
    yield formula, probs, 6, 400
    # Clauses of 1 to 6 facts, the first one also inside a longer
    # clause, and probabilities in tenths from 0 to 1 inclusive.
    rng = random.Random(7)
    facts = [Fact("R", (f"a{i}",)) for i in range(10)]
    for _trial in range(12):
        clauses = [
            frozenset(rng.sample(facts, rng.randint(1, 6)))
            for _ in range(rng.randint(2, 12))
        ]
        outside = [f for f in facts if f not in clauses[0]]
        clauses.append(clauses[0] | {rng.choice(outside)})
        probs = {
            f: Fraction(rng.choice((0, 10, *range(1, 10))), 10)
            for f in facts
        }
        yield DNF(clauses), probs, rng.randint(0, 10**6), rng.randint(1, 300)


def _karp_luby_block_inputs():
    """``(formula, probabilities, seed, samples)`` for the corners of
    the numpy block path."""
    rng = random.Random(31)
    # Three blocks and more: unequal free counts (the walk carries each
    # block's unread doubles into the next), then equal ones (one
    # reshape a block); probabilities in tenths make some clauses weigh
    # 0.
    for low, high in ((1, 6), (4, 4)):
        facts = [Fact("R", (f"b{i}",)) for i in range(120)]
        formula = DNF(
            frozenset(rng.sample(facts, rng.randint(low, high)))
            for _ in range(30)
        )
        probs = {f: Fraction(rng.randint(0, 10), 10) for f in facts}
        block = _BLOCK_CELLS // len(formula.variables)
        yield formula, probs, rng.randint(0, 10**6), (
            3 * block + rng.randint(1, block)
        )
    facts = [Fact("R", (f"c{i}",)) for i in range(5)]
    probs = {f: Fraction(i + 1, 7) for i, f in enumerate(facts)}
    everything = frozenset(facts)
    # A clause holding every fact has no free fact, beside clauses that
    # have some; alone, it is a DNF whose every sample reads one double.
    yield DNF([everything, {facts[1]}, {facts[2], facts[3]}]), probs, 5, 2000
    yield DNF([everything]), probs, 6, 700
    yield DNF([{facts[0]}]), probs, 7, 500
    # A zero-weight clause among clauses that weigh something.
    zero = {**probs, facts[4]: Fraction(0)}
    yield DNF([
        {facts[0], facts[4]}, {facts[1], facts[2]}, {facts[4]}, {facts[3]},
    ]), zero, 8, 3000
    # Most samples pick a clause with one free fact beside a light
    # clause with 39: a block reads under half the doubles it draws,
    # so the unread ones it carries overlap the ones it read.
    facts = [Fact("R", (f"d{i}",)) for i in range(40)]
    heavy = {f: Fraction(1) for f in facts}
    heavy[facts[0]] = Fraction(1, 100)
    heavy[facts[5]] = Fraction(1, 2)
    block = _BLOCK_CELLS // len(facts)
    yield DNF([
        frozenset(facts[1:]), {facts[0]}, {facts[0], facts[2]},
    ]), heavy, 9, 2 * block + 17


#: Counters every Karp–Luby leg charges alike; the ``kernels.*`` pair
#: counts the batched flushes, which the reference does not make.
_KARP_LUBY_COUNTERS = ("karp_luby.samples_drawn", "budget.ticks")
_BATCH_COUNTERS = ("kernels.batch_draws", "kernels.batched_samples")


def _karp_luby_leg(formula, probs, seed, samples, leg):
    """(result, counters) of one Karp–Luby run on one leg."""
    telemetry = EvaluationTelemetry()
    with telemetry_scope(telemetry):
        result = _leg(
            lambda backend: karp_luby_probability(
                formula, probs, seed=seed, samples=samples, backend=backend
            ),
            leg,
        )
    return result, {
        name: telemetry.counter(name)
        for name in _KARP_LUBY_COUNTERS + _BATCH_COUNTERS
    }


def test_karp_luby_random_dnfs_bitwise():
    inputs = [*_karp_luby_inputs(), *_karp_luby_block_inputs()]
    for formula, probs, seed, samples in inputs:
        runs = {
            leg: _karp_luby_leg(formula, probs, seed, samples, leg)
            for leg in KARP_LUBY_LEGS
        }
        reference, reference_counters = runs["reference"]
        batched = runs["optimized"][1]
        for leg, (result, counters) in runs.items():
            assert result == reference, leg
            for name in _KARP_LUBY_COUNTERS:
                assert counters[name] == reference_counters[name], name
            if leg != "reference":
                assert counters == batched, leg
        assert reference_counters["karp_luby.samples_drawn"] in (
            0, samples
        )


def test_karp_luby_budget_bitwise():
    # Under a budget every leg checks it per sample, so all stop at the
    # same sample; a budget that suffices draws the same samples.
    formula, probs = _path_lineage_128()

    def run(backend, max_work_units):
        telemetry = EvaluationTelemetry()
        budget = EvaluationBudget(max_work_units=max_work_units)
        with telemetry_scope(telemetry), budget_scope(budget):
            result = karp_luby_probability(
                formula, probs, seed=3, samples=400, backend=backend
            )
        return result, telemetry.counter("karp_luby.samples_drawn")

    used = []
    for leg in KARP_LUBY_LEGS:
        with pytest.raises(BudgetExceededError) as caught:
            _leg(lambda backend: run(backend, 150), leg)
        used.append(caught.value.used)
    assert used == [151] * len(KARP_LUBY_LEGS)
    finished = [
        _leg(lambda backend: run(backend, 400), leg)
        for leg in KARP_LUBY_LEGS
    ]
    assert all(other == finished[0] for other in finished[1:])
    assert finished[0][1] == 400


def test_karp_luby_deadline_every_leg():
    # The block path checks the deadline as each block starts, so it
    # overruns by at most one block; every leg raises within twice the
    # deadline on the 729-clause lineage of the repository benchmark.
    instance = complete_layered_path_instance(5, 3)
    pdb = random_probabilities(instance, seed=5, max_denominator=4)
    formula = build_lineage(path_query(5), instance)
    deadline = 0.1
    for leg in KARP_LUBY_LEGS:
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError) as caught:
            with budget_scope(EvaluationBudget(deadline=deadline)):
                _leg(
                    lambda backend: karp_luby_probability(
                        formula, pdb.probabilities, seed=1,
                        samples=200_000, backend=backend,
                    ),
                    leg,
                )
        elapsed = time.perf_counter() - started
        assert caught.value.kind == "deadline", leg
        assert caught.value.phase == "lineage.karp_luby", leg
        assert elapsed < 2 * deadline, (leg, elapsed)


@pytest.mark.parametrize("budgeted", [False, True])
@pytest.mark.parametrize("units", [0, 1, 511, 512, 513, 5000])
def test_tick_batcher_units_flush_like_single_ticks(
    monkeypatch, units, budgeted
):
    # ``tick(n)`` emits the budget/metric calls of n single ticks: whole
    # chunks of 512 without a budget, chunks of 1 under one, from an
    # empty and from a part-filled chunk.
    calls = []
    monkeypatch.setattr(
        kernels, "budget_tick",
        lambda phase, n=1: calls.append(("budget", phase, n)),
    )
    monkeypatch.setattr(
        kernels, "metric_inc",
        lambda name, n=1: calls.append(("metric", name, n)),
    )
    budget = EvaluationBudget(max_work_units=10**9) if budgeted else None

    def trace(tick):
        calls.clear()
        with budget_scope(budget):
            for filled in (0, 300):
                batcher = kernels.TickBatcher("phase", "drawn")
                for _ in range(filled):
                    batcher.tick()
                tick(batcher)
                batcher.flush()
        return list(calls)

    def single(batcher):
        for _ in range(units):
            batcher.tick()

    expected = trace(single)
    assert trace(lambda batcher: batcher.tick(units)) == expected
    flushed = [call for call in expected if call[:2] == ("budget", "phase")]
    assert sum(call[2] for call in flushed) == 2 * units + 300
    if budgeted:
        assert {call[2] for call in flushed} == {1}


# ---------------------------------------------------------------------------
# RPQ product automata: the exact product-DP route per backend


@pytest.mark.parametrize("case", range(8))
def test_rpq_exact_product_dp_bitwise(case):
    from test_rpq_differential import _handcrafted_cases

    name, graph, query = _handcrafted_cases()[case]
    answers = [
        PQEEngine(kernel_backend=backend).rpq_probability(
            graph, query, method="exact"
        )
        for backend in BACKENDS
    ]
    for other in answers[1:]:
        assert other.exact is answers[0].exact, name
        assert other.rational == answers[0].rational, name
        assert other.value == answers[0].value, name


@pytest.mark.parametrize("case", range(8))
def test_rpq_auto_frontier_bailout_parity(case):
    # 'auto': whether the DP bails to the FPRAS must be
    # backend-independent, and the fallback estimates (fixed seed)
    # bitwise-equal.
    from test_rpq_differential import _handcrafted_cases

    name, graph, query = _handcrafted_cases()[case]
    answers = [
        PQEEngine(epsilon=0.3, kernel_backend=backend).rpq_probability(
            graph, query, method="auto", seed=case
        )
        for backend in BACKENDS
    ]
    for other in answers[1:]:
        assert other.method == answers[0].method, name
        assert other.value == answers[0].value, name
        assert other.rational == answers[0].rational, name


# ---------------------------------------------------------------------------
# batches: answers and merged counters at workers 1 and 4


def test_batch_answers_and_counters_bitwise():
    items = [(query, pdb) for query, _instance, pdb in _query_corpus()]
    merged = {}
    for backend in BACKENDS:
        engine = PQEEngine(seed=23, kernel_backend=backend)
        per_workers = {}
        for workers in (1, 4):
            batch = engine.evaluate_batch(
                items, seed=23, max_workers=workers, telemetry=True
            )
            per_workers[workers] = (
                batch.values,
                batch.telemetry.metrics.deterministic_counters(),
            )
        # Worker-count invariance within one backend …
        assert per_workers[1] == per_workers[4]
        merged[backend] = per_workers[1]
    # … and full answer + counter parity across backends: the optimized
    # and vectorized kernels do the same semantic work, bit for bit
    # (only the contract-exempt kernels.* bookkeeping may differ).
    for backend in BACKENDS[1:]:
        assert merged[backend] == merged["reference"]
