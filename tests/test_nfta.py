"""Unit tests for the NFTA substrate: membership, λ-elimination, trim."""

import time

import pytest

from repro.automata.nfta import LAMBDA, NFTA
from repro.automata.trees import LabeledTree, leaf, path_tree
from repro.core.budget import EvaluationBudget, budget_scope
from repro.errors import AutomatonError, BudgetExceededError


def _binary_tree_automaton() -> NFTA:
    """Accepts trees over a (leaf or binary) and b (unary)."""
    return NFTA(
        [
            ("q", "a", ()),
            ("q", "a", ("q", "q")),
            ("q", "b", ("q",)),
        ],
        initial="q",
    )


class TestMembership:
    def test_leaf(self):
        assert _binary_tree_automaton().accepts(leaf("a"))

    def test_unary_chain(self):
        assert _binary_tree_automaton().accepts(path_tree(["b", "b", "a"]))

    def test_binary(self):
        tree = LabeledTree("a", (leaf("a"), leaf("a")))
        assert _binary_tree_automaton().accepts(tree)

    def test_rejects_wrong_arity(self):
        # b as a leaf has no transition.
        assert not _binary_tree_automaton().accepts(leaf("b"))

    def test_rejects_unknown_symbol(self):
        assert not _binary_tree_automaton().accepts(leaf("z"))

    def test_derivable_states(self):
        nfta = NFTA(
            [("p", "a", ()), ("q", "a", ()), ("q", "b", ("p",))],
            initial="q",
        )
        assert nfta.derivable_states(leaf("a")) == frozenset({"p", "q"})
        assert nfta.derivable_states(path_tree(["b", "a"])) == frozenset(
            {"q"}
        )

    def test_membership_requires_lambda_free(self):
        nfta = NFTA([("s", LAMBDA, ("t",)), ("t", "a", ())], initial="s")
        with pytest.raises(AutomatonError):
            nfta.accepts(leaf("a"))


class TestLambdaElimination:
    def test_single_child_splice(self):
        nfta = NFTA(
            [("s", LAMBDA, ("t",)), ("t", "a", ())], initial="s"
        ).eliminate_lambda()
        assert not nfta.has_lambda
        assert nfta.accepts(leaf("a"))

    def test_multi_child_splice(self):
        # root reads r, its child m splices into two leaves.
        nfta = NFTA(
            [
                ("root", "r", ("m",)),
                ("m", LAMBDA, ("p", "q")),
                ("p", "a", ()),
                ("q", "b", ()),
            ],
            initial="root",
        ).eliminate_lambda()
        tree = LabeledTree("r", (leaf("a"), leaf("b")))
        assert nfta.accepts(tree)
        assert not nfta.accepts(LabeledTree("r", (leaf("a"),)))

    def test_cascaded_lambda(self):
        nfta = NFTA(
            [
                ("root", "r", ("m1",)),
                ("m1", LAMBDA, ("m2",)),
                ("m2", LAMBDA, ("p",)),
                ("p", "a", ()),
            ],
            initial="root",
        ).eliminate_lambda()
        assert nfta.accepts(LabeledTree("r", (leaf("a"),)))

    def test_lambda_cycle_rejected(self):
        nfta = NFTA(
            [("s", LAMBDA, ("t",)), ("t", LAMBDA, ("s",))], initial="s"
        )
        with pytest.raises(AutomatonError):
            nfta.eliminate_lambda()

    def test_root_multi_child_lambda_rejected(self):
        nfta = NFTA(
            [
                ("s", LAMBDA, ("p", "q")),
                ("p", "a", ()),
                ("q", "b", ()),
            ],
            initial="s",
        )
        with pytest.raises(AutomatonError):
            nfta.eliminate_lambda()

    def test_root_single_child_lambda(self):
        nfta = NFTA(
            [("s", LAMBDA, ("t",)), ("t", "a", ())], initial="s"
        ).eliminate_lambda()
        assert nfta.accepts(leaf("a"))

    def test_state_with_both_lambda_and_symbol_transitions(self):
        # m can either read 'c' itself or splice into a leaf pair.
        nfta = NFTA(
            [
                ("root", "r", ("m",)),
                ("m", "c", ()),
                ("m", LAMBDA, ("p", "q")),
                ("p", "a", ()),
                ("q", "b", ()),
            ],
            initial="root",
        ).eliminate_lambda()
        assert nfta.accepts(LabeledTree("r", (leaf("c"),)))
        assert nfta.accepts(LabeledTree("r", (leaf("a"), leaf("b"))))

    def test_noop_when_lambda_free(self):
        nfta = _binary_tree_automaton()
        assert nfta.eliminate_lambda() is nfta


class TestTrim:
    def test_removes_unproductive(self):
        nfta = NFTA(
            [("q", "a", ()), ("q", "b", ("dead",))], initial="q"
        )
        trimmed = nfta.trimmed()
        assert "dead" not in trimmed.states
        assert trimmed.accepts(leaf("a"))

    def test_removes_unreachable(self):
        nfta = NFTA(
            [("q", "a", ()), ("island", "b", ())], initial="q"
        )
        trimmed = nfta.trimmed()
        assert "island" not in trimmed.states

    def test_empty_language(self):
        nfta = NFTA([("q", "a", ("q",))], initial="q")  # no leaf rule
        trimmed = nfta.trimmed()
        assert trimmed.num_transitions == 0


class TestSizeAnalysis:
    def test_possible_sizes_chain(self):
        nfta = NFTA(
            [("q", "b", ("q",)), ("q", "a", ())], initial="q"
        )
        masks = nfta.possible_sizes(5)
        # Chains of any length 1..5 are derivable from q.
        assert masks["q"] == 0b111110

    def test_possible_sizes_binary(self):
        nfta = _binary_tree_automaton()
        masks = nfta.possible_sizes(6)
        for s in range(1, 7):
            assert masks["q"] & (1 << s)

    def test_possible_sizes_parity(self):
        # Only binary branching from a leaf base: sizes 1, 3, 5, ...
        nfta = NFTA(
            [("q", "a", ()), ("q", "a", ("q", "q"))], initial="q"
        )
        masks = nfta.possible_sizes(7)
        assert masks["q"] == 0b10101010

    @pytest.mark.parametrize("max_size", [0, -1, -2, -5])
    def test_no_size_below_one(self, max_size):
        masks = _binary_tree_automaton().possible_sizes(max_size)
        assert masks == {"q": 0}

    def test_structure_properties(self):
        nfta = _binary_tree_automaton()
        assert nfta.num_transitions == 3
        assert nfta.max_arity == 2
        assert nfta.encoding_size == (2 + 0) + (2 + 2) + (2 + 1)


def _chain(length: int) -> NFTA:
    """``q0 -a-> (q1) -a-> … -a-> (q{length-1})`` with a leaf rule on the
    last state, listed root first: a pass-until-stable fixpoint over
    this listing learns one state per pass."""
    transitions = [
        (f"q{i}", "a", (f"q{i + 1}",)) for i in range(length - 1)
    ]
    transitions.append((f"q{length - 1}", "b", ()))
    return NFTA(transitions, initial="q0")


class TestFixpointScaling:
    """The three fixpoints are worklists, linear in the transitions on
    a deep chain (as pass-until-stable loops each took seconds on this
    4,000-state chain)."""

    def _timed(self, run):
        chain = _chain(4000)
        started = time.perf_counter()
        result = run(chain)
        assert time.perf_counter() - started < 1.0
        return result

    def test_productive_states(self):
        productive = self._timed(lambda nfta: nfta.productive_states)
        assert len(productive) == 4000

    def test_trimmed(self):
        chain = _chain(4000)
        assert self._timed(lambda nfta: nfta.trimmed()).transitions == (
            chain.transitions
        )

    def test_possible_sizes(self):
        masks = self._timed(lambda nfta: nfta.possible_sizes(4001))
        assert masks["q0"] == 1 << 4000
        assert masks["q3999"] == 1 << 1

    def test_a_deadline_stops_a_long_trim(self):
        chain = _chain(100_000)
        started = time.perf_counter()
        with budget_scope(EvaluationBudget(deadline=0.05)), pytest.raises(
            BudgetExceededError
        ) as info:
            chain.trimmed()
        assert time.perf_counter() - started < 0.5
        assert info.value.kind == "deadline"
        assert info.value.phase == "counting.nfta"
