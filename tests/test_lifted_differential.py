"""Three-oracle differential harness for the lifted fast path.

Every query the router certifies ``safe`` is answered by three
independent implementations and the answers are differenced:

1. **lifted** — the typed lifted plan of :mod:`repro.queries.lifted`
   (independent join/project with separators, shattering, independent
   union, inclusion–exclusion);
2. **exact WMC** — lineage construction plus exact weighted model
   counting (and brute-force world enumeration on tiny instances):
   lifted must agree **bitwise**, as :class:`~fractions.Fraction`;
3. **FPRAS** — the paper's randomized route must land inside a loose ε
   envelope around the exact value (deterministic for a fixed seed).

Queries the router proves ``unsafe`` must *deterministically* fall
through: classification says so, the auto ladder carries no lifted
rung, and an explicit ``method='lifted'`` degrades with the
classification recorded in the answer's provenance.

The harness sweeps the shared frozen corpus (the same 20 workloads
``tests/golden/corpus.json`` pins) plus the random generator families
of :mod:`repro.workloads.queries`, and re-runs the safe sweep through
``evaluate_batch`` at ``max_workers`` 1 and 4 to pin worker-count
invariance of the lifted route.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.estimator import PQEEngine
from repro.core.exact import exact_probability
from repro.core.parallel import BatchItem
from repro.core.resilience import evaluate_with_policy
from repro.core.tasks import TASKS
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import UnknownSafetyError, UnsafeQueryError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.lifted import (
    build_lifted_plan,
    classify_query,
    lifted_probability,
)
from repro.queries.parser import parse_query
from repro.queries.ucq import UnionQuery, ucq_probability
from repro.workloads import (
    random_hierarchical_query,
    random_instance_for_query,
    random_probabilities,
    random_safe_ucq,
    random_shatterable_query,
    random_unsafe_query,
)

from test_golden_corpus import _corpus_cases

pytestmark = pytest.mark.lifted

#: Enumeration oracle cap: 2^12 worlds is instant, larger is not.
ENUMERATION_CAP = 12


def _generated_cases(seeds=range(20)):
    """(name, query, pdb) triples from the random generator families,
    over random instances sized for the exact oracles."""
    cases = []
    for seed in seeds:
        for label, generator in (
            ("hier", random_hierarchical_query),
            ("shatter", random_shatterable_query),
        ):
            query = generator(seed)
            instance = random_instance_for_query(
                query, domain_size=2, facts_per_relation=2, seed=seed
            )
            pdb = random_probabilities(
                instance, seed=seed, max_denominator=5,
                include_extremes=True,
            )
            cases.append((f"{label}-{seed}", query, pdb))
    return cases


def _safe_corpus_cases():
    return [
        (name, query, pdb)
        for name, query, pdb, _instance in _corpus_cases()
        if isinstance(query, ConjunctiveQuery)
        and classify_query(query).safe
    ]


def _unsafe_corpus_cases():
    return [
        (name, query, pdb)
        for name, query, pdb, _instance in _corpus_cases()
        if isinstance(query, ConjunctiveQuery)
        and classify_query(query).status == "unsafe"
    ]


# ---------------------------------------------------------------------
# Oracle 1 vs oracle 2: bitwise Fraction equality on every safe query
# ---------------------------------------------------------------------

def test_corpus_covers_both_regimes():
    # The shared corpus must actually exercise the harness: several
    # safe workloads and at least one provably-unsafe one.
    assert len(_safe_corpus_cases()) >= 5
    assert len(_unsafe_corpus_cases()) >= 1


def test_lifted_matches_exact_wmc_on_safe_corpus():
    for name, query, pdb in _safe_corpus_cases():
        lifted = lifted_probability(query, pdb)
        wmc = exact_probability(query, pdb, method="lineage")
        assert isinstance(lifted, Fraction)
        assert lifted == wmc, name


def test_lifted_matches_both_exact_oracles_on_generated_queries():
    checked_enumeration = 0
    for name, query, pdb in _generated_cases():
        classification = classify_query(query)
        assert classification.safe, (name, classification.reason)
        lifted = lifted_probability(query, pdb)
        wmc = exact_probability(query, pdb, method="lineage")
        assert lifted == wmc, name
        if len(pdb) <= ENUMERATION_CAP:
            brute = exact_probability(query, pdb, method="enumerate")
            assert lifted == brute, name
            checked_enumeration += 1
    assert checked_enumeration >= 10  # the brute-force leg really ran


def test_lifted_matches_lineage_on_safe_ucqs():
    for seed in range(20):
        ucq = random_safe_ucq(seed)
        assert classify_query(ucq).safe, str(ucq)
        instance_facts = {}
        for index, disjunct in enumerate(ucq.disjuncts):
            instance = random_instance_for_query(
                disjunct, domain_size=2, facts_per_relation=2,
                seed=seed + index,
            )
            pdb_part = random_probabilities(
                instance, seed=seed + index, max_denominator=4
            )
            instance_facts.update(pdb_part.probabilities)
        pdb = ProbabilisticDatabase(instance_facts)
        lifted = lifted_probability(ucq, pdb)
        wmc = ucq_probability(ucq, pdb, method="lineage")
        assert lifted == wmc, str(ucq)
        # The default UCQ entry point routes through the same plan.
        assert ucq_probability(ucq, pdb) == wmc


# ---------------------------------------------------------------------
# Oracle 3: the FPRAS lands inside its ε envelope around the truth
# ---------------------------------------------------------------------

def test_fpras_lands_within_epsilon_of_lifted_on_safe_corpus():
    engine = PQEEngine(epsilon=0.2, seed=7, repetitions=3)
    for name, query, pdb in _safe_corpus_cases():
        truth = lifted_probability(query, pdb)
        method = "fpras" if query.is_self_join_free else "karp-luby"
        estimate = engine.probability(query, pdb, method=method)
        if truth == 0:
            assert estimate.value == pytest.approx(0.0, abs=1e-9), name
        else:
            relative = abs(estimate.value - float(truth)) / float(truth)
            # Loose envelope: ε=0.2 at fixed seed with median-of-3.
            assert relative < 0.75, (name, estimate.value, float(truth))


# ---------------------------------------------------------------------
# Routing: safe queries ride the lifted rung, at any worker count
# ---------------------------------------------------------------------

def test_auto_routes_safe_corpus_queries_to_lifted():
    engine = PQEEngine(seed=0)
    for name, query, pdb in _safe_corpus_cases():
        answer = engine.probability(query, pdb)
        assert answer.route == "lifted", name
        assert answer.exact
        assert answer.rational == lifted_probability(query, pdb), name
        plan = engine.explain(query, pdb)
        assert plan.route == "lifted", name
        assert plan.safety == "safe", name
        assert plan.fallbacks[0] == "lifted", name


@pytest.mark.parametrize("max_workers", [1, 4])
def test_batch_lifted_route_is_worker_count_invariant(max_workers):
    items = [
        BatchItem(query, pdb)
        for _name, query, pdb in _safe_corpus_cases()
    ] + [
        BatchItem(query, pdb)
        for _name, query, pdb in _generated_cases(seeds=range(5))
    ]
    engine = PQEEngine(seed=42)
    batch = engine.evaluate_batch(items, max_workers=max_workers)
    assert batch.ok
    for item, result in zip(items, batch.results):
        assert result.answer.route == "lifted"
        expected = lifted_probability(item.query, item.database)
        assert result.answer.rational == expected


def test_batch_values_bitwise_identical_across_worker_counts():
    items = [
        BatchItem(query, pdb)
        for _name, query, pdb in _generated_cases(seeds=range(8))
    ]
    engine = PQEEngine(seed=42)
    one = engine.evaluate_batch(items, max_workers=1)
    four = engine.evaluate_batch(items, max_workers=4)
    assert one.values == four.values


# ---------------------------------------------------------------------
# Unsafe queries deterministically fall through
# ---------------------------------------------------------------------

def test_unsafe_queries_are_proved_hard_and_skipped_by_the_ladder():
    for seed in range(20):
        query = random_unsafe_query(seed)
        classification = classify_query(query)
        assert classification.status == "unsafe", str(query)
        assert "dichotomy" in classification.reason
        with pytest.raises(UnsafeQueryError):
            build_lifted_plan(query)
        # The auto ladder never carries a lifted rung for them.
        ladder = TASKS["probability"].ladder(query, "auto")
        assert ladder[0] == "auto", str(query)


def test_unsafe_corpus_queries_record_classification_in_fallbacks():
    engine = PQEEngine(seed=3, epsilon=0.4)
    for name, query, pdb in _unsafe_corpus_cases():
        plan = engine.explain(query, pdb)
        assert plan.safety == "unsafe", name
        assert "lifted" not in plan.fallbacks, name
        # Forcing the lifted rung degrades deterministically, with the
        # classification recorded in the provenance log.
        answer = evaluate_with_policy(
            engine, query, pdb, method="lifted", seed=3
        )
        assert answer.degraded, name
        assert answer.degradations[0].startswith(
            "lifted: UnsafeQueryError"
        ), name
        assert answer.method != "lifted", name


def test_unknown_self_join_falls_through_with_unknown_classification():
    query = parse_query("R(x, y), R(y, x)")
    classification = classify_query(query)
    assert classification.status == "unknown"
    pdb = ProbabilisticDatabase({
        Fact("R", ("a", "b")): "1/2",
        Fact("R", ("b", "a")): "1/3",
    })
    with pytest.raises(UnknownSafetyError):
        lifted_probability(query, pdb)
    engine = PQEEngine(seed=1)
    answer = evaluate_with_policy(engine, query, pdb, method="lifted")
    assert answer.degradations[0].startswith("lifted: UnknownSafetyError")
    # And the fallback answer agrees with brute force (tiny instance).
    assert answer.value == pytest.approx(
        float(exact_probability(query, pdb, method="enumerate"))
    )


def test_safe_answers_carry_zero_epsilon_semantics():
    # The lifted rung is exact: no degradations, exact flag, rational
    # payload — regardless of the engine's configured ε.
    engine = PQEEngine(epsilon=0.49, seed=9)
    for name, query, pdb in _safe_corpus_cases():
        answer = engine.evaluate_resilient(query, pdb)
        assert not answer.degraded, name
        assert answer.exact, name
        assert answer.rational is not None, name
