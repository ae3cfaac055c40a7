"""Tests for the CountNFA FPRAS (hybrid and pure-sampling regimes)."""

import random
import time
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.nfa import NFA
from repro.automata.nfa_counting import (
    _Counter,
    _ExactConcat,
    _ExactNode,
    _ExactProduct,
    _karp_luby_union,
    _materialize,
    _ProductNode,
    _SumNode,
    _WordPlan,
    count_nfa,
    default_sample_count,
    sample_accepted_strings,
    weighted_index,
)
from repro.core.budget import EvaluationBudget, budget_scope
from repro.errors import BudgetExceededError, EstimationError
from repro.graphs.product import build_rpq_nfa, make_weight_of
from repro.graphs.rpq import RPQQuery
from repro.obs import EvaluationTelemetry, telemetry_scope
from repro.workloads import grid_graph


def _random_nfa(seed: int, states: int = 6) -> NFA:
    rng = random.Random(seed)
    transitions = []
    for s in range(states):
        for symbol in "ab":
            for t in range(states):
                if rng.random() < 0.3:
                    transitions.append((s, symbol, t))
    initial = [s for s in range(states) if rng.random() < 0.5] or [0]
    accepting = [s for s in range(states) if rng.random() < 0.4] or [
        states - 1
    ]
    return NFA(transitions, initial=initial, accepting=accepting)


class TestHybridRegime:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_hybrid_is_exact_on_small_automata(self, seed):
        nfa = _random_nfa(seed)
        n = 7
        exact = nfa.count_exact(n)
        result = count_nfa(nfa, n, epsilon=0.5, seed=seed)
        if result.exact:
            assert result.estimate == exact

    def test_empty_language(self):
        nfa = NFA([(0, "a", 1)], initial=[0], accepting=[])
        result = count_nfa(nfa, 3, seed=0)
        assert result.estimate == 0
        assert result.exact

    def test_length_zero(self):
        nfa = NFA([(0, "a", 0)], initial=[0], accepting=[0])
        result = count_nfa(nfa, 0, seed=0)
        assert result.estimate == 1


class TestSamplingRegime:
    @pytest.mark.parametrize("seed", range(8))
    def test_pure_sampling_accuracy(self, seed):
        nfa = _random_nfa(seed)
        n = 8
        exact = nfa.count_exact(n)
        result = count_nfa(
            nfa, n, epsilon=0.2, seed=seed, exact_set_cap=0,
            repetitions=3,
        )
        if exact == 0:
            assert result.estimate == 0
        else:
            assert abs(result.estimate - exact) / exact < 0.35

    def test_samples_override(self):
        nfa = _random_nfa(1)
        result = count_nfa(
            nfa, 6, seed=0, exact_set_cap=0, samples=32
        )
        assert result.estimate >= 0

    def test_invalid_epsilon(self):
        nfa = _random_nfa(0)
        with pytest.raises(EstimationError):
            count_nfa(nfa, 3, epsilon=0.0)
        with pytest.raises(EstimationError):
            count_nfa(nfa, 3, epsilon=1.5)

    def test_invalid_repetitions(self):
        with pytest.raises(EstimationError):
            count_nfa(_random_nfa(0), 3, repetitions=0)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_rejects_sample_counts_below_one(self, samples):
        with pytest.raises(EstimationError, match="samples must be >= 1"):
            count_nfa(_random_nfa(5), 7, seed=42, exact_set_cap=0,
                      samples=samples)

    def test_default_sample_count_scales(self):
        assert default_sample_count(10, 0.1) > default_sample_count(10, 0.5)
        assert default_sample_count(100, 0.2) > default_sample_count(4, 0.2)


class TestUnionLoop:
    """The one Karp–Luby union loop both counters run."""

    COMPONENTS = [_ExactNode(("x",)), _ExactNode(("y",))]

    @staticmethod
    def _union(samples, rejections):
        """Run the loop with a membership test that rejects the first
        ``rejections`` draws; return its result and the draw count."""
        asked = []

        def held_earlier(index, item):
            asked.append(item)
            return len(asked) <= rejections

        result = _karp_luby_union(
            TestUnionLoop.COMPONENTS, held_earlier, samples,
            random.Random(0), "counting.nfa", "count_nfa.samples_drawn",
        )
        return result, len(asked)

    def test_draws_past_the_sample_count_until_one_is_accepted(self):
        (estimate, pool, attempts), asked = self._union(3, rejections=5)
        assert (attempts, asked, len(pool)) == (6, 6, 1)
        assert estimate == 2.0 * 1 / 6

    def test_gives_up_at_the_attempt_cap(self):
        with pytest.raises(EstimationError, match="rejected every sample"):
            self._union(4, rejections=10**6)

    def test_attempt_cap_is_samples_times_one_plus_components(self):
        (_, pool, attempts), _ = self._union(4, rejections=4 * 3 - 1)
        assert (attempts, len(pool)) == (4 * 3, 1)


#: The word store of an automaton over eight letters (ids 0–7), for
#: tests that build words by hand.
WORDS = _WordPlan(NFA(
    [
        (source, letter, target)
        for source in range(3)
        for letter in "abcdefgh"
        for target in range(3)
        if (source + target + ord(letter)) % 3
    ],
    initial=[0],
    accepting=[1],
), 0).words


def _word(*letters):
    """The word of letter ids ``letters``, made cell by cell in
    :data:`WORDS`."""
    word = ()
    for letter in reversed(letters):
        word = WORDS.make(letter, (word,))
    return word


def _held(rng, words, weighted):
    """A held exact node over ``words``, with random weights if
    ``weighted``."""
    weights = tuple(rng.random() for _ in words) if weighted else None
    return _ExactNode(tuple(words), weights)


def _assert_same_node(recipe, eager):
    """``recipe`` reads as ``eager``: members by index and in bulk (the
    bulk tuple built once and kept), and a bitwise count and weights."""
    assert [recipe.member(i) for i in range(recipe.size)] == list(
        eager.members
    )
    assert recipe.members == eager.members
    assert recipe.members is recipe.members
    assert recipe.member_weights() == eager.member_weights()
    assert repr(recipe.count) == repr(eager.count)
    if eager.weights is not None:
        assert recipe.count == list(accumulate(eager.weights))[-1]


class TestRecipes:
    """Concatenations and letter prefixes (unary exact products over the
    word store) read like the tuples they replace."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_unequal_concatenation(self, weighted):
        rng = random.Random(3)
        parts = [
            _held(rng, [_word(0, i) for i in range(size)], weighted)
            for size in (1, 4, 2, 7)
        ]
        # A recipe among the parts: another letter before part 2.
        weights = parts[2].weights
        if weighted:
            weights = tuple(0.5 * w for w in weights)
        parts.append(_ExactProduct(WORDS, 2, [parts[2]], weights))
        concat = _ExactConcat(parts, weighted)
        eager = _ExactNode(
            tuple(m for part in parts for m in part.members),
            tuple(w for part in parts for w in part.member_weights())
            if weighted else None,
        )
        _assert_same_node(concat, eager)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_prefix(self, weighted):
        rng = random.Random(4)
        child = _held(rng, [_word(i) for i in range(5)], weighted)
        weights = None
        if weighted:
            weights = tuple(0.25 * w for w in child.member_weights())
        prefix = _ExactProduct(WORDS, 7, [child], weights)
        eager = _ExactNode(
            tuple(WORDS.make(7, (word,)) for word in child.members),
            weights,
        )
        _assert_same_node(prefix, eager)

    def test_a_word_drawn_twice_is_one_cons_cell(self):
        prefix = _ExactProduct(
            WORDS, 1, [_ExactNode((_word(0), _word(2)))], None
        )
        assert prefix.member(1) is prefix.member(1)
        rng = random.Random(0)
        draws = [prefix.draw(rng) for _ in range(20)]
        assert {id(word) for word in draws} == {
            id(prefix.member(0)), id(prefix.member(1))
        }

    def test_draws_read_the_stream_of_the_eager_node(self):
        rng = random.Random(5)
        for weighted in (False, True):
            parts = [_held(rng, [_word(s) for s in range(k)], weighted)
                     for k in (3, 1, 5)]
            concat = _ExactConcat(parts, weighted)
            eager = _ExactNode(concat.members, concat.weights)
            left, right = random.Random(9), random.Random(9)
            assert [concat.draw(left) for _ in range(50)] == [
                eager.draw(right) for _ in range(50)
            ]
            assert left.getstate() == right.getstate()


def _recursive_draw(node, rng):
    """One ``draw`` call per link: the order the chain walk keeps."""
    if isinstance(node, _ProductNode):
        (child,) = node.children  # a letter prefix is unary
        return node.store.make(
            node.symbol, (_recursive_draw(child, rng),)
        )
    if isinstance(node, _SumNode):
        pick = rng.random() * node.count
        return _recursive_draw(
            node.parts[weighted_index(node.cumulative, pick)], rng
        )
    return node.draw(rng)


class TestChainWalk:
    @pytest.mark.parametrize("exact_set_cap", [0, 3])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_walk_equals_the_recursion(self, exact_set_cap, weighted):
        nfa = _random_nfa(11, states=5)
        length = 9
        weight_of = {"a": 0.25, "b": 0.75}.get if weighted else None
        plan = _WordPlan(nfa, length)
        counter = _Counter(
            plan, length, 0.5, 40, exact_set_cap, random.Random(1),
            weight_of=weight_of,
        )
        values: list = []
        for cell in plan.cells:
            values.append(counter._compute(cell, values))
        chains = [v for v in values if isinstance(v, _ProductNode)]
        chains += [
            v for v in values
            if isinstance(v, _SumNode)
            and any(isinstance(p, _ProductNode) for p in v.parts)
        ]
        assert chains
        for seed, node in enumerate(chains):
            walked, recursed = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert node.draw(walked) == _recursive_draw(node, recursed)
                assert walked.getstate() == recursed.getstate()


    def test_make_chain_conses_like_make(self):
        word = _word(5, 6)
        symbols = [1, 2, 3, 2]
        folded = word
        for symbol in reversed(symbols):
            folded = WORDS.make(symbol, (folded,))
        chained = WORDS.make_chain(symbols, word)
        assert chained == folded
        assert _materialize(chained) == [1, 2, 3, 2, 5, 6]
        assert chained[1][1][1][1] is word
        assert WORDS.make_chain([], word) is word
        assert WORDS.make_all(4, [(word,), (chained,)]) == [
            WORDS.make(4, (word,)), WORDS.make(4, (chained,))
        ]


class TestSampling:
    def test_samples_are_accepted_strings(self):
        nfa = _random_nfa(3)
        n = 6
        if nfa.count_exact(n) == 0:
            pytest.skip("empty language for this seed")
        words = sample_accepted_strings(nfa, n, k=20, seed=1)
        assert len(words) == 20
        for word in words:
            assert len(word) == n
            assert nfa.accepts(word)

    def test_sampling_empty_language_raises(self):
        nfa = NFA([(0, "a", 1)], initial=[0], accepting=[])
        with pytest.raises(EstimationError):
            sample_accepted_strings(nfa, 3, k=5, seed=0)

    def test_sampling_coverage(self):
        # Over many draws from a tiny language every member should show.
        nfa = NFA(
            [(0, "a", 1), (0, "b", 1), (1, "a", 2), (1, "b", 2)],
            initial=[0],
            accepting=[2],
        )
        words = sample_accepted_strings(
            nfa, 2, k=200, seed=7, exact_set_cap=0
        )
        assert len(set(words)) == 4


class TestDeterminism:
    def test_same_seed_same_estimate(self):
        nfa = _random_nfa(5)
        a = count_nfa(nfa, 7, seed=42, exact_set_cap=0)
        b = count_nfa(nfa, 7, seed=42, exact_set_cap=0)
        assert a.estimate == b.estimate

    def test_median_of_repetitions(self):
        nfa = _random_nfa(5)
        result = count_nfa(
            nfa, 7, seed=42, exact_set_cap=0, repetitions=5
        )
        assert result.samples_used > 0


class TestWeightedStringCounting:
    def test_exact_weighted_single_letter(self):
        nfa = NFA([(0, "a", 1), (0, "b", 1)], initial=[0], accepting=[1])
        weights = {"a": 3, "b": 5}
        assert nfa.count_exact(1, weight_of=weights.get) == 8

    def test_exact_weighted_chain(self):
        nfa = NFA([(0, "a", 1), (1, "b", 2)], initial=[0], accepting=[2])
        weights = {"a": 2, "b": 7}
        assert nfa.count_exact(2, weight_of=weights.get) == 14

    def test_zero_weight_prunes(self):
        nfa = NFA([(0, "a", 1), (0, "b", 1)], initial=[0], accepting=[1])
        weights = {"a": 0, "b": 5}
        assert nfa.count_exact(1, weight_of=weights.get) == 5

    def test_weighted_ambiguity_not_overcounted(self):
        # Two runs accept the same string "a": weight counted once.
        nfa = NFA(
            [(0, "a", 1), (0, "a", 2)], initial=[0], accepting=[1, 2]
        )
        assert nfa.count_exact(1, weight_of=lambda _s: 3) == 3

    def test_fpras_weighted_matches_exact(self):
        nfa = _random_nfa(4)
        weights = {"a": 2, "b": 3}
        n = 7
        exact = nfa.count_exact(n, weight_of=weights.get)
        if exact == 0:
            return
        result = count_nfa(
            nfa, n, epsilon=0.2, seed=5, exact_set_cap=0,
            weight_of=weights.get, repetitions=3,
        )
        assert abs(result.estimate - exact) / exact < 0.4

    def test_fpras_weighted_hybrid(self):
        nfa = _random_nfa(2)
        weights = {"a": 2, "b": 1}
        n = 6
        exact = nfa.count_exact(n, weight_of=weights.get)
        result = count_nfa(nfa, n, epsilon=0.3, seed=0, weight_of=weights.get)
        if result.exact and exact:
            assert abs(result.estimate - exact) / exact < 1e-9

    def test_weighted_sampling_proportional(self):
        nfa = NFA(
            [(0, "light", 1), (0, "heavy", 1)],
            initial=[0],
            accepting=[1],
        )
        weights = {"light": 1, "heavy": 9}
        words = sample_accepted_strings(
            nfa, 1, k=400, seed=6, exact_set_cap=16,
            weight_of=weights.get,
        )
        heavy = sum(1 for w in words if w == ("heavy",))
        assert 0.8 < heavy / 400 < 0.97


class TestAdversarialAmbiguity:
    """Highly-ambiguous automata: the union correction's hardest case."""

    def test_m_identical_branches(self):
        # m disjoint state copies all accepting {a,b}^n: naive summing
        # over components would report m·2^n; the KL correction must
        # recover ~2^n.
        m, n = 6, 6
        transitions = []
        for copy in range(m):
            for symbol in "ab":
                transitions.append(((copy, 0), symbol, (copy, 1)))
                transitions.append(((copy, 1), symbol, (copy, 1)))
        nfa = NFA(
            transitions,
            initial=[(copy, 0) for copy in range(m)],
            accepting=[(copy, 1) for copy in range(m)],
        )
        exact = nfa.count_exact(n)
        assert exact == 2**n
        result = count_nfa(
            nfa, n, epsilon=0.15, seed=3, exact_set_cap=0,
            repetitions=3,
        )
        assert abs(result.estimate - exact) / exact < 0.3

    def test_nested_ambiguity(self):
        # Every state at every level has two successors accepting the
        # same suffix language.
        n = 6
        transitions = []
        for level in range(n):
            for branch in (0, 1):
                for nxt in (0, 1):
                    transitions.append(
                        ((level, branch), "a", (level + 1, nxt))
                    )
        nfa = NFA(
            transitions,
            initial=[(0, 0)],
            accepting=[(n, 0), (n, 1)],
        )
        exact = nfa.count_exact(n)
        assert exact == 1  # only a^n, massively ambiguous
        result = count_nfa(
            nfa, n, epsilon=0.2, seed=1, exact_set_cap=0
        )
        assert abs(result.estimate - 1) < 0.3


def _grid_rpq(side: int, regex: str):
    """The RPQ product NFA of ``regex`` corner to corner on a
    ``side × side`` grid (labels k/16), with its literal weights."""
    graph = grid_graph(side, side)
    corner = f"n{side - 1}_{side - 1}"
    reduction = build_rpq_nfa(graph, RPQQuery(regex, "n0_0", corner))
    return reduction, make_weight_of(graph)


def _grid6_counter(**kwargs):
    """count_nfa on the 6×6 ``(a|b)*`` product, built up front so that
    only the counting runs under a test's budget."""
    reduction, weight_of = _grid_rpq(6, "(a|b)*")
    return lambda: count_nfa(
        reduction.nfa, reduction.string_length, epsilon=0.3, seed=0,
        exact_set_cap=0, weight_of=weight_of, **kwargs,
    )


def _expired_deadline():
    return budget_scope(
        EvaluationBudget(deadline=0.05), started=time.perf_counter() - 1.0
    )


class TestBudget:
    """CountNFA obeys the evaluation budget: plan cells and exact DP
    layers are deadline checkpoints, and every union sample is a work
    unit, all under the phase ``counting.nfa``."""

    def test_expired_deadline_stops_the_sampler(self):
        count = _grid6_counter()
        with _expired_deadline(), pytest.raises(BudgetExceededError) as info:
            count()
        assert info.value.phase == "counting.nfa"

    def test_expired_deadline_stops_the_exact_dp(self):
        reduction, weight_of = _grid_rpq(8, "(a|b)*a(a|b)(a|b)")
        assert reduction.string_length == 112
        with _expired_deadline(), pytest.raises(BudgetExceededError) as info:
            reduction.nfa.count_exact(
                reduction.string_length, weight_of=weight_of
            )
        assert info.value.phase == "counting.nfa"

    def test_work_units_cap_the_samples(self):
        count = _grid6_counter(samples=64)
        budget = EvaluationBudget(max_work_units=100)
        with budget_scope(budget), pytest.raises(BudgetExceededError) as info:
            count()
        assert info.value.phase == "counting.nfa"
        assert info.value.used == 101

    def test_ample_work_units_change_nothing(self):
        count = _grid6_counter(samples=64)
        unbudgeted = count()
        telemetry = EvaluationTelemetry()
        with telemetry_scope(telemetry), budget_scope(
            EvaluationBudget(max_work_units=1_000_000)
        ):
            budgeted = count()
        assert budgeted == unbudgeted
        assert not budgeted.exact
        assert (
            telemetry.counter("count_nfa.samples_drawn")
            == budgeted.samples_used
        )

