"""Unit and property tests for the NFA substrate."""

import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.nfa import NFA
from repro.errors import AutomatonError


def _ab_star_ending_b() -> NFA:
    """(a|b)* b  over {a, b}."""
    return NFA(
        [
            (0, "a", 0),
            (0, "b", 0),
            (0, "b", 1),
        ],
        initial=[0],
        accepting=[1],
    )


def _random_nfa(seed: int, states: int = 5) -> NFA:
    rng = random.Random(seed)
    transitions = []
    for s in range(states):
        for symbol in "ab":
            for t in range(states):
                if rng.random() < 0.3:
                    transitions.append((s, symbol, t))
    initial = [s for s in range(states) if rng.random() < 0.5] or [0]
    accepting = [s for s in range(states) if rng.random() < 0.4]
    return NFA(transitions, initial=initial, accepting=accepting)


class TestMembership:
    def test_accepts(self):
        nfa = _ab_star_ending_b()
        assert nfa.accepts(["b"])
        assert nfa.accepts(["a", "a", "b"])
        assert not nfa.accepts(["a"])
        assert not nfa.accepts([])

    def test_accepts_from_state(self):
        nfa = _ab_star_ending_b()
        assert nfa.accepts_from(0, ["b"])
        assert not nfa.accepts_from(1, ["b"])
        assert nfa.accepts_from_set(frozenset({1}), [])

    def test_no_initial_states_rejected(self):
        with pytest.raises(AutomatonError):
            NFA([(0, "a", 1)], initial=[], accepting=[1])


class TestCounting:
    def test_count_exact_known_language(self):
        # Strings of length n over {a,b} ending in b: 2^(n-1).
        nfa = _ab_star_ending_b()
        for n in range(1, 8):
            assert nfa.count_exact(n) == 2 ** (n - 1)

    def test_count_zero_length(self):
        nfa = _ab_star_ending_b()
        assert nfa.count_exact(0) == 0
        accepting_start = NFA([(0, "a", 0)], initial=[0], accepting=[0])
        assert accepting_start.count_exact(0) == 1

    def test_negative_length_rejected(self):
        with pytest.raises(AutomatonError):
            _ab_star_ending_b().count_exact(-1)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_count_matches_enumeration(self, seed):
        nfa = _random_nfa(seed)
        rng = random.Random(seed)
        weight_maps = (
            {"a": rng.randint(0, 3), "b": rng.randint(0, 3)},
            {"a": 0, "b": rng.randint(1, 3)},
            # "b" is missing: weights.get gives None, a falsy weight.
            {"a": rng.randint(1, 3)},
        )
        for n in range(0, 5):
            enumerated = list(nfa.enumerate_language(n))
            assert nfa.count_exact(n) == len(enumerated)
            assert len(set(enumerated)) == len(enumerated)
            for word in enumerated:
                assert nfa.accepts(word)
            for weights in weight_maps:
                expected = sum(
                    math.prod(weights.get(symbol) or 0 for symbol in word)
                    for word in enumerated
                )
                assert nfa.count_exact(n, weight_of=weights.get) == expected
                self._check_frontier_bound(nfa, n, weights, expected)

    @staticmethod
    def _check_frontier_bound(nfa, n, weights, expected):
        """``max_subsets=c`` gives up exactly when some layer reaches
        more than ``c`` distinct non-empty subsets by words over the
        nonzero-weight symbols, and otherwise returns the full count."""
        symbols = sorted(s for s in nfa.alphabet if weights.get(s))
        widest = 1
        for k in range(1, n + 1):
            frontier = set()
            for word in product(symbols, repeat=k):
                reached = nfa.initial
                for symbol in word:
                    reached = nfa.move(reached, symbol)
                if reached:
                    frontier.add(reached)
            widest = max(widest, len(frontier))
        for cap in range(1, widest + 2):
            bounded = nfa.count_exact(
                n, weight_of=weights.get, max_subsets=cap
            )
            assert bounded == (None if widest > cap else expected)


class TestTrim:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_trim_preserves_language(self, seed):
        nfa = _random_nfa(seed)
        trimmed = nfa.trimmed()
        for n in range(0, 5):
            assert trimmed.count_exact(n) == nfa.count_exact(n)

    def test_trim_removes_dead_states(self):
        nfa = NFA(
            [(0, "a", 1), (0, "a", 2), (2, "b", 2)],
            initial=[0],
            accepting=[1],
        )
        trimmed = nfa.trimmed()
        assert 2 not in trimmed.states

    def test_trim_empty_language(self):
        nfa = NFA([(0, "a", 1)], initial=[0], accepting=[])
        trimmed = nfa.trimmed()
        assert trimmed.count_exact(1) == 0


class TestStructure:
    def test_num_transitions(self):
        assert _ab_star_ending_b().num_transitions == 3

    def test_successors(self):
        nfa = _ab_star_ending_b()
        assert nfa.successors(0)["b"] == frozenset({0, 1})
        assert nfa.successors(1) == {}

    def test_transitions_iteration(self):
        assert len(list(_ab_star_ending_b().transitions())) == 3
