"""Language operations on NFAs and NFTAs.

Closure constructions (union, intersection) and *bounded* language
comparison: deciding inclusion/equivalence of the accepted languages up
to a given string length or tree size.  Bounded comparison is exact —
it runs a joint subset construction (for trees, one
:meth:`NFTA.derived <repro.automata.nfta.NFTA.derived>` step per
automaton and node), so it does not rely on counting.  The package
itself never calls this module: only ``tests/test_operations.py`` uses
it, to check the closures against exact counts and enumeration, and
that λ-elimination and trimming preserve languages.

Everything here is worst-case exponential in the state count (subset
constructions), as language comparison must be; it is only run on
validation-sized automata.
"""

from __future__ import annotations

from typing import Hashable

from repro.automata.nfa import NFA
from repro.automata.nfta import NFTA
from repro.errors import AutomatonError

__all__ = [
    "nfa_union",
    "nfa_intersection",
    "nfa_included_upto",
    "nfa_equivalent_upto",
    "nfta_union",
    "nfta_intersection",
    "nfta_included_upto",
    "nfta_equivalent_upto",
]

State = Hashable
Symbol = Hashable


# ----------------------------------------------------------------------
# String automata
# ----------------------------------------------------------------------

def nfa_union(a: NFA, b: NFA) -> NFA:
    """An NFA accepting ``L(a) ∪ L(b)`` (disjoint state tagging)."""
    transitions = [
        ((0, s), symbol, (0, t)) for s, symbol, t in a.transitions()
    ] + [
        ((1, s), symbol, (1, t)) for s, symbol, t in b.transitions()
    ]
    initial = [(0, s) for s in a.initial] + [(1, s) for s in b.initial]
    accepting = [(0, s) for s in a.accepting] + [
        (1, s) for s in b.accepting
    ]
    return NFA(transitions, initial=initial, accepting=accepting)


def nfa_intersection(a: NFA, b: NFA) -> NFA:
    """The product NFA accepting ``L(a) ∩ L(b)``."""
    transitions = []
    for s_a, symbol, t_a in a.transitions():
        for s_b in b.states:
            for t_b in b.successors(s_b).get(symbol, ()):
                transitions.append(((s_a, s_b), symbol, (t_a, t_b)))
    initial = [(s, t) for s in a.initial for t in b.initial]
    accepting = [(s, t) for s in a.accepting for t in b.accepting]
    return NFA(transitions, initial=initial, accepting=accepting)


def nfa_included_upto(a: NFA, b: NFA, length: int) -> bool:
    """Is every string of length ≤ ``length`` in L(a) also in L(b)?

    Joint subset construction: track the pair of state subsets reached
    by each string; a counterexample is a pair where a accepts and b
    does not.
    """
    alphabet = a.alphabet | b.alphabet
    current: set[tuple[frozenset, frozenset]] = {(a.initial, b.initial)}
    for step in range(length + 1):
        for subset_a, subset_b in current:
            if subset_a & a.accepting and not (subset_b & b.accepting):
                return False
        if step == length:
            break
        nxt: set[tuple[frozenset, frozenset]] = set()
        for subset_a, subset_b in current:
            for symbol in alphabet:
                moved_a = a.move(subset_a, symbol)
                if not moved_a:
                    continue  # a rejects every extension; inclusion safe
                moved_b = b.move(subset_b, symbol)
                nxt.add((moved_a, moved_b))
        current = nxt
        if not current:
            return True
    return True


def nfa_equivalent_upto(a: NFA, b: NFA, length: int) -> bool:
    """``L(a)`` and ``L(b)`` agree on all strings of length ≤ length."""
    return nfa_included_upto(a, b, length) and nfa_included_upto(
        b, a, length
    )


# ----------------------------------------------------------------------
# Tree automata
# ----------------------------------------------------------------------

def nfta_union(a: NFTA, b: NFTA) -> NFTA:
    """An NFTA accepting ``L(a) ∪ L(b)``.

    States are tagged; a fresh initial state adopts the transitions of
    both original initial states.
    """
    if a.has_lambda or b.has_lambda:
        raise AutomatonError("operands must be λ-free")
    fresh = ("union_root",)
    transitions = []
    for source, symbol, children in a.transitions:
        tagged = ((0, source), symbol, tuple((0, c) for c in children))
        transitions.append(tagged)
        if source == a.initial:
            transitions.append(
                (fresh, symbol, tuple((0, c) for c in children))
            )
    for source, symbol, children in b.transitions:
        tagged = ((1, source), symbol, tuple((1, c) for c in children))
        transitions.append(tagged)
        if source == b.initial:
            transitions.append(
                (fresh, symbol, tuple((1, c) for c in children))
            )
    return NFTA(transitions, initial=fresh)


def nfta_intersection(a: NFTA, b: NFTA) -> NFTA:
    """The product NFTA accepting ``L(a) ∩ L(b)``."""
    if a.has_lambda or b.has_lambda:
        raise AutomatonError("operands must be λ-free")
    transitions = []
    for s_a, symbol, children_a in a.transitions:
        for s_b, symbol_b, children_b in b.by_symbol.get(symbol, ()):
            if len(children_a) != len(children_b):
                continue
            transitions.append((
                (s_a, s_b),
                symbol,
                tuple(zip(children_a, children_b)),
            ))
    return NFTA(transitions, initial=(a.initial, b.initial))


def _reachable_pair_subsets(
    a: NFTA, b: NFTA, size: int
) -> list[set[tuple[frozenset, frozenset]]]:
    """For s = 0..size, the set of (derivable-in-a, derivable-in-b)
    subset pairs realised by some tree of size s (index 0 unused)."""
    keys = set(a.by_symbol_arity) | set(b.by_symbol_arity)
    table: list[set[tuple[frozenset, frozenset]]] = [set() for _ in range(size + 1)]
    for s in range(1, size + 1):
        for symbol, arity in keys:
            if arity == 0:
                if s == 1:
                    table[1].add(
                        (a.derived(symbol, ()), b.derived(symbol, ()))
                    )
                continue
            if s < arity + 1:
                continue
            for combo in _pair_combinations(table, arity, s - 1):
                table[s].add((
                    a.derived(symbol, [pair[0] for pair in combo]),
                    b.derived(symbol, [pair[1] for pair in combo]),
                ))
    return table


def _pair_combinations(table, arity, total):
    def rec(position, remaining):
        slots_left = arity - position
        if slots_left == 0:
            if remaining == 0:
                yield ()
            return
        for s in range(1, remaining - (slots_left - 1) + 1):
            for pair in table[s]:
                for rest in rec(position + 1, remaining - s):
                    yield (pair,) + rest

    yield from rec(0, total)


def nfta_included_upto(a: NFTA, b: NFTA, size: int) -> bool:
    """Is every tree of size ≤ ``size`` in L(a) also in L(b)?"""
    if a.has_lambda or b.has_lambda:
        raise AutomatonError("operands must be λ-free")
    table = _reachable_pair_subsets(a, b, size)
    for s in range(1, size + 1):
        for subset_a, subset_b in table[s]:
            if a.initial in subset_a and b.initial not in subset_b:
                return False
    return True


def nfta_equivalent_upto(a: NFTA, b: NFTA, size: int) -> bool:
    """``L(a)`` and ``L(b)`` agree on all trees of size ≤ size."""
    return nfta_included_upto(a, b, size) and nfta_included_upto(
        b, a, size
    )
