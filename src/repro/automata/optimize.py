"""Automaton preprocessing for the optimized counting kernels.

The reference counters (:mod:`repro.automata.nfta_counting`) work
directly on :class:`~repro.automata.nfta.NFTA` objects: states are
arbitrary hashable values, subsets are ``frozenset`` keys, and every DP
cell rescans the full per-(symbol, arity) transition list.  That is the
right substrate for correctness arguments but a poor one for speed.

:func:`optimize_nfta` compiles an NFTA into a :class:`DenseNFTA`:

- **pruning** — it compiles :meth:`NFTA.trimmed
  <repro.automata.nfta.NFTA.trimmed>`, without the transitions touching
  unproductive or unreachable states (a reduction automaton is already
  trim).  Unproductive states never occur in any tree's evaluated-state
  set, and unreachable states can only *merge* DP cells whose
  membership of ``s_init`` is unchanged, so every count the kernels
  derive from the pruned automaton equals the count over the original
  one (the property-based suite checks ``|L_k(T)|`` preservation);
- **dedup** — duplicate ``(source, symbol, children)`` triples collapse
  to their first occurrence.  The reference DP already frozensets them
  away per cell; dropping them up front removes the rescans entirely;
- **interning** — surviving states and symbols get dense integer ids
  (the initial state is always id 0), so a subset of states is a plain
  ``int`` bitmask and a DP cell key costs one integer hash;
- **indexing** — transitions are grouped per (symbol, arity) into
  :class:`DenseRuleGroup` rows with per-combo evaluated-mask memos, so
  each distinct child-subset combination is resolved against the rules
  once per automaton rather than once per DP cell.

Everything here is seed-free preprocessing.  An automaton compiles once,
on first use, into :attr:`NFTA.compiled
<repro.automata.nfta.NFTA.compiled>`, which keeps the CountNFTA
sampling plans and both exact layer tables (:meth:`DenseNFTA.memoized`)
for as long as the automaton lives.
Telemetry (``kernels.states_pruned`` / ``kernels.transitions_deduped``
/ ``kernels.transitions_pruned``) is attributed to whichever evaluation
first compiles the automaton; like all ``kernels.*`` counters it is
outside the bitwise determinism contract (see
:mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.automata.nfta import NFTA
from repro.errors import AutomatonError
from repro.obs import metric_inc

__all__ = ["DenseNFTA", "DenseRuleGroup", "OptimizationReport", "optimize_nfta"]

State = Hashable
Symbol = Hashable


@dataclass(frozen=True)
class OptimizationReport:
    """What preprocessing removed, for telemetry and benchmarks."""

    states_before: int
    states_after: int
    transitions_before: int
    transitions_after: int
    transitions_deduped: int

    @property
    def states_pruned(self) -> int:
        return self.states_before - self.states_after

    @property
    def transitions_pruned(self) -> int:
        """Transitions dropped by the productive/reachable closure
        (dedup removals are counted separately)."""
        return (
            self.transitions_before
            - self.transitions_after
            - self.transitions_deduped
        )

    def describe(self) -> str:
        return (
            f"states {self.states_before}->{self.states_after} "
            f"transitions {self.transitions_before}->{self.transitions_after} "
            f"(deduped {self.transitions_deduped})"
        )


class DenseRuleGroup:
    """All surviving transitions of one (symbol, arity), interned.

    For leaves (``arity == 0``) only the OR of the source bits matters:
    every size-1 tree labelled ``symbol`` evaluates to exactly that
    subset.  Inner rules are stored arity-specialised — flat
    ``(source_bit, child)`` / ``(source_bit, left, right)`` rows for the
    ubiquitous unary/binary cases, generic children tuples above — with
    a memo from child-subset-mask combos to the evaluated source mask:
    the closed-over computation the reference DP repeats per cell runs
    here once per distinct combo per automaton.
    """

    __slots__ = ("symbol_id", "arity", "leaf_mask", "rules", "_eval_memo")

    def __init__(self, symbol_id: int, arity: int, leaf_mask: int, rules):
        self.symbol_id = symbol_id
        self.arity = arity
        self.leaf_mask = leaf_mask
        if arity == 1:
            rules = tuple((bit, children[0]) for bit, children in rules)
        elif arity == 2:
            rules = tuple(
                (bit, children[0], children[1]) for bit, children in rules
            )
        self.rules = rules
        self._eval_memo: dict = {}

    def evaluated1(self, mask: int) -> int:
        """Unary case: sources firing when the child subtree evaluates
        to the subset ``mask``."""
        cached = self._eval_memo.get(mask)
        if cached is None:
            cached = 0
            for source_bit, child in self.rules:
                if (mask >> child) & 1:
                    cached |= source_bit
            self._eval_memo[mask] = cached
        return cached

    def evaluated2(self, left: int, right: int) -> int:
        key = (left, right)
        cached = self._eval_memo.get(key)
        if cached is None:
            cached = 0
            for source_bit, c1, c2 in self.rules:
                if (left >> c1) & 1 and (right >> c2) & 1:
                    cached |= source_bit
            self._eval_memo[key] = cached
        return cached

    def evaluated_mask(self, combo: tuple[int, ...]) -> int:
        """Generic arity: sources firing when child i's subtree
        evaluates to the subset ``combo[i]`` (a dense bitmask)."""
        if self.arity == 1:
            return self.evaluated1(combo[0])
        if self.arity == 2:
            return self.evaluated2(combo[0], combo[1])
        cached = self._eval_memo.get(combo)
        if cached is not None:
            return cached
        mask = 0
        for source_bit, children in self.rules:
            if mask & source_bit:
                continue
            for child, subset in zip(children, combo):
                if not (subset >> child) & 1:
                    break
            else:
                mask |= source_bit
        self._eval_memo[combo] = mask
        return mask


class DenseNFTA:
    """The compiled automaton the layer DP in ``core.kernels`` runs on.

    Immutable after construction except for the per-group evaluated-mask
    memos, whose entries are deterministic functions of their key (a
    concurrent duplicate computation is redundant, never wrong), and the
    plans and layer tables kept by :meth:`memoized`.
    """

    __slots__ = (
        "states",
        "symbols",
        "initial_bit",
        "groups",
        "transitions",
        "initial",
        "report",
        "_memo",
        "_lock",
    )

    def __init__(
        self,
        states: tuple,
        symbols: tuple,
        groups: tuple,
        transitions: tuple,
        initial,
        report: OptimizationReport,
    ):
        self.states = states          # dense id -> original state
        self.symbols = symbols        # dense id -> original symbol
        self.initial_bit = 1          # initial state is always interned as 0
        self.groups = groups
        self.transitions = transitions  # pruned+deduped, original labels
        self.initial = initial
        self.report = report
        self._memo: dict = {}
        self._lock = threading.Lock()

    @property
    def num_states(self) -> int:
        return len(self.states)

    def memoized(self, key: Hashable, build: Callable[[], object]):
        """The value kept under ``key``, built by ``build()`` on first
        use: a CountNFTA sampling plan per tree size, an exact layer
        table per table kind and weight vector.

        Builds run under one lock, so concurrent counts of this
        automaton build each value once.  A build that raises — a
        budget cut, say — keeps nothing, and the next call rebuilds.
        """
        with self._lock:
            value = self._memo.get(key)
            if value is None:
                value = self._memo[key] = build()
            return value

    def as_nfta(self) -> NFTA:
        """The pruned/deduped automaton over the *original* labels —
        what the property-based suite compares against the input."""
        return NFTA(self.transitions, self.initial)

    def __repr__(self) -> str:
        return (
            f"DenseNFTA(states={len(self.states)}, "
            f"transitions={len(self.transitions)}, "
            f"symbols={len(self.symbols)})"
        )


def optimize_nfta(nfta: NFTA) -> DenseNFTA:
    """Compile ``nfta`` into a :class:`DenseNFTA` (prune, dedup, intern).

    Counting-equivalent to the input: for every size ``k`` the weighted
    tree measure the kernels compute over the result equals
    :func:`repro.automata.nfta_counting.count_nfta_exact` over the
    original automaton.
    """
    if nfta.has_lambda:
        raise AutomatonError("optimize_nfta requires a λ-free NFTA")

    trim = nfta.trimmed()
    kept = list(dict.fromkeys(trim.transitions))

    state_id: dict[State, int] = {nfta.initial: 0}
    symbol_id: dict[Symbol, int] = {}
    for source, symbol, children in kept:
        if source not in state_id:
            state_id[source] = len(state_id)
        for child in children:
            if child not in state_id:
                state_id[child] = len(state_id)
        if symbol not in symbol_id:
            symbol_id[symbol] = len(symbol_id)

    grouped: dict[tuple[int, int], list] = {}
    for source, symbol, children in kept:
        grouped.setdefault((symbol_id[symbol], len(children)), []).append(
            (
                1 << state_id[source],
                tuple(state_id[c] for c in children),
            )
        )

    groups = []
    for (sid, arity), rules in grouped.items():
        if arity == 0:
            leaf_mask = 0
            for source_bit, _children in rules:
                leaf_mask |= source_bit
            groups.append(DenseRuleGroup(sid, 0, leaf_mask, ()))
        else:
            groups.append(DenseRuleGroup(sid, arity, 0, tuple(rules)))

    report = OptimizationReport(
        states_before=len(nfta.states),
        states_after=len(state_id),
        transitions_before=nfta.num_transitions,
        transitions_after=len(kept),
        transitions_deduped=trim.num_transitions - len(kept),
    )
    metric_inc("kernels.states_pruned", report.states_pruned)
    metric_inc("kernels.transitions_pruned", report.transitions_pruned)
    metric_inc("kernels.transitions_deduped", report.transitions_deduped)

    states = [None] * len(state_id)
    for state, dense in state_id.items():
        states[dense] = state
    symbols = [None] * len(symbol_id)
    for symbol, dense in symbol_id.items():
        symbols[dense] = symbol

    return DenseNFTA(
        states=tuple(states),
        symbols=tuple(symbols),
        groups=tuple(groups),
        transitions=tuple(kept),
        initial=nfta.initial,
        report=report,
    )
