"""Non-deterministic finite string automata (NFAs).

The warm-up construction of Section 3 reduces uniform reliability of a
path query to counting the strings of length |D| accepted by an NFA.
This module provides the NFA structure itself, membership testing (also
*from* a given state), trimming, and an
**exact** counter for ``|L_n(M)|`` based on the layered subset
construction — the ground truth that the FPRAS in
:mod:`repro.automata.nfa_counting` is validated against.
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from repro.core.budget import budget_checkpoint
from repro.errors import AutomatonError

__all__ = ["NFA"]

State = Hashable
Symbol = Hashable


class NFA:
    """An NFA ``(S, Σ, δ, I, F)`` with set-valued transition function.

    Parameters
    ----------
    transitions:
        Iterable of triples ``(state, symbol, successor)``.
    initial:
        The set I of initial states.
    accepting:
        The set F of accepting states.

    States and symbols may be any hashable values.  The state set is
    inferred as everything mentioned by the transitions plus ``initial``
    and ``accepting``.
    """

    def __init__(
        self,
        transitions: Iterable[tuple[State, Symbol, State]],
        initial: Iterable[State],
        accepting: Iterable[State],
    ):
        delta: dict[State, dict[Symbol, set[State]]] = {}
        states: set[State] = set()
        alphabet: set[Symbol] = set()
        for source, symbol, target in transitions:
            delta.setdefault(source, {}).setdefault(symbol, set()).add(target)
            states.add(source)
            states.add(target)
            alphabet.add(symbol)
        self._initial = frozenset(initial)
        self._accepting = frozenset(accepting)
        states |= self._initial | self._accepting
        self._states = frozenset(states)
        self._delta: dict[State, dict[Symbol, frozenset[State]]] = {
            source: {sym: frozenset(targets) for sym, targets in by_symbol.items()}
            for source, by_symbol in delta.items()
        }
        self._alphabet = frozenset(alphabet)
        if not self._initial:
            raise AutomatonError("NFA needs at least one initial state")

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------

    @property
    def states(self) -> frozenset[State]:
        return self._states

    @property
    def alphabet(self) -> frozenset[Symbol]:
        return self._alphabet

    @property
    def initial(self) -> frozenset[State]:
        return self._initial

    @property
    def accepting(self) -> frozenset[State]:
        return self._accepting

    @cached_property
    def num_transitions(self) -> int:
        """Number of transition triples — the paper's |M| size measure."""
        return sum(
            len(targets)
            for by_symbol in self._delta.values()
            for targets in by_symbol.values()
        )

    def successors(self, state: State) -> Mapping[Symbol, frozenset[State]]:
        """Outgoing transitions of a state, grouped by symbol."""
        return self._delta.get(state, {})

    def transitions(self) -> Iterator[tuple[State, Symbol, State]]:
        for source, by_symbol in self._delta.items():
            for symbol, targets in by_symbol.items():
                for target in targets:
                    yield (source, symbol, target)

    # ------------------------------------------------------------------
    # Runs and membership
    # ------------------------------------------------------------------

    def move(self, states: frozenset[State], symbol: Symbol) -> frozenset[State]:
        """One subset-construction step."""
        out: set[State] = set()
        for state in states:
            out |= self._delta.get(state, {}).get(symbol, frozenset())
        return frozenset(out)

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Standard NFA acceptance of ``word`` from the initial set."""
        return self.accepts_from_set(self._initial, word)

    def accepts_from(self, state: State, word: Sequence[Symbol]) -> bool:
        """Acceptance starting from a single given state: whether a
        suffix lies in ``L(q, ℓ)`` (the property-based suite holds the
        CountNFA sampler's per-cons-cell acceptance masks to it)."""
        return self.accepts_from_set(frozenset({state}), word)

    def accepts_from_set(
        self, states: frozenset[State], word: Sequence[Symbol]
    ) -> bool:
        current = states
        for symbol in word:
            current = self.move(current, symbol)
            if not current:
                return False
        return bool(current & self._accepting)

    # ------------------------------------------------------------------
    # Trimming
    # ------------------------------------------------------------------

    @cached_property
    def reachable_states(self) -> frozenset[State]:
        """States reachable from some initial state."""
        seen = set(self._initial)
        stack = list(self._initial)
        while stack:
            state = stack.pop()
            for targets in self._delta.get(state, {}).values():
                for target in targets:
                    if target not in seen:
                        seen.add(target)
                        stack.append(target)
        return frozenset(seen)

    @cached_property
    def coreachable_states(self) -> frozenset[State]:
        """States from which some accepting state is reachable."""
        reverse: dict[State, set[State]] = {}
        for source, symbol, target in self.transitions():
            reverse.setdefault(target, set()).add(source)
        seen = set(self._accepting)
        stack = list(self._accepting)
        while stack:
            state = stack.pop()
            for source in reverse.get(state, ()):
                if source not in seen:
                    seen.add(source)
                    stack.append(source)
        return frozenset(seen)

    def trimmed(self) -> "NFA":
        """Remove states that are unreachable or cannot reach acceptance.

        Trimming does not change any ``L_n``; it speeds up counting and
        sampling substantially on constructed automata.
        """
        useful = self.reachable_states & self.coreachable_states
        return NFA(
            (
                (source, symbol, target)
                for source, symbol, target in self.transitions()
                if source in useful and target in useful
            ),
            initial=self._initial & useful,
            accepting=self._accepting & useful,
        ) if useful & self._initial else _empty_nfa()

    # ------------------------------------------------------------------
    # Exact counting (ground truth)
    # ------------------------------------------------------------------

    def count_exact(self, length: int, weight_of=None, max_subsets=None):
        """``|L_n(M)|`` exactly, via the layered subset construction.

        Strings are partitioned by the subset of states they reach from
        I (the subset construction is deterministic), so summing counts
        over accepting subsets is exact even for highly ambiguous NFAs.
        Worst-case exponential in |S| but fast on the automata this
        library constructs, whose reachable subsets stay small.

        With ``weight_of`` (symbol → weight), each string contributes
        the product of its symbols' weights instead of 1 — the weighted
        string measure used by the gadget-free path-query PQE pipeline
        (:func:`repro.core.path_estimate.path_pqe_estimate`).

        ``max_subsets`` bounds the determinized frontier: when some
        level holds more than this many distinct state subsets the
        sweep bails out and returns ``None`` instead of a count.  This
        makes the DP usable as a *bounded* exact fast path — callers
        (:func:`repro.automata.nfa_counting.count_nfa`) try it first
        and fall back to sampling only when it gives up, which is how
        structurally-trivial languages (empty, or total with weight
        0/1 boundaries) are guaranteed exact answers, never estimates.

        Every layer is a checkpoint of the active evaluation budget
        (phase ``counting.nfa``).
        """
        if length < 0:
            raise AutomatonError("length must be non-negative")
        if max_subsets is not None and max_subsets < 1:
            raise AutomatonError(
                f"max_subsets must be >= 1, got {max_subsets}"
            )
        weigh = weight_of if weight_of is not None else (lambda _s: 1)
        level: dict[frozenset[State], object] = {self._initial: 1}
        for _ in range(length):
            budget_checkpoint("counting.nfa")
            nxt: dict[frozenset[State], object] = {}
            for subset, count in level.items():
                symbols: set[Symbol] = set()
                for state in subset:
                    symbols.update(self._delta.get(state, {}))
                for symbol in symbols:
                    weight = weigh(symbol)
                    if not weight:
                        continue
                    target = self.move(subset, symbol)
                    if target:
                        nxt[target] = nxt.get(target, 0) + weight * count
            level = nxt
            if max_subsets is not None and len(level) > max_subsets:
                return None
            if not level:
                return 0
        return sum(
            count
            for subset, count in level.items()
            if subset & self._accepting
        )

    def enumerate_language(self, length: int) -> Iterator[tuple[Symbol, ...]]:
        """Enumerate ``L_n(M)`` explicitly (testing only; exponential)."""
        def walk(
            states: frozenset[State], remaining: int, prefix: tuple[Symbol, ...]
        ) -> Iterator[tuple[Symbol, ...]]:
            if remaining == 0:
                if states & self._accepting:
                    yield prefix
                return
            symbols: set[Symbol] = set()
            for state in states:
                symbols.update(self._delta.get(state, {}))
            for symbol in sorted(symbols, key=str):
                target = self.move(states, symbol)
                if target:
                    yield from walk(target, remaining - 1, prefix + (symbol,))

        yield from walk(self._initial, length, ())

    def __repr__(self) -> str:
        return (
            f"NFA(states={len(self._states)}, "
            f"transitions={self.num_transitions}, "
            f"alphabet={len(self._alphabet)})"
        )


def _empty_nfa() -> "NFA":
    """An NFA accepting nothing (used when trimming removes everything)."""
    sink = "__empty_sink__"
    return NFA((), initial=[sink], accepting=[])
