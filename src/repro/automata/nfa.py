"""Non-deterministic finite string automata (NFAs).

The warm-up construction of Section 3 reduces uniform reliability of a
path query to counting the strings of length |D| accepted by an NFA.
This module provides the NFA structure itself, membership testing (also
*from* a given state), trimming, an integer form (:class:`CompiledNFA`,
built once per NFA on first use) and an **exact** counter for
``|L_n(M)|`` based on the layered subset construction, run on that
integer form — the ground truth that the FPRAS in
:mod:`repro.automata.nfa_counting` is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from repro.core.budget import budget_checkpoint
from repro.errors import AutomatonError

__all__ = ["NFA"]

State = Hashable
Symbol = Hashable


@dataclass(frozen=True, slots=True)
class CompiledNFA:
    """An NFA numbered for integer work (:attr:`NFA.compiled`).

    States and symbols are numbered in ``str`` order, so sorting by id
    is deterministic across hash seeds.  ``letters[s]`` lists state
    ``s``'s transitions as ``(symbol id, sorted target ids)`` pairs in
    symbol-id order; ``initial`` holds the sorted initial ids and bit
    ``s`` of ``accepting_mask`` is set iff state ``s`` accepts.
    """

    states: tuple
    symbols: tuple
    letters: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    initial: tuple[int, ...]
    accepting_mask: int


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

    @cached_property
    def compiled(self) -> CompiledNFA:
        """The integer form the exact counter and the CountNFA plan run
        on, built on first use (so an NFA pickled before it is counted
        pickles without it)."""
        states = tuple(sorted(self._states, key=str))
        state_id = {state: index for index, state in enumerate(states)}
        symbols = tuple(sorted(self._alphabet, key=str))
        symbol_id = {symbol: index for index, symbol in enumerate(symbols)}
        letters = tuple(
            tuple(sorted(
                (symbol_id[symbol], tuple(sorted(state_id[t] for t in targets)))
                for symbol, targets in self._delta.get(state, {}).items()
            ))
            for state in states
        )
        accepting_mask = 0
        for state in self._accepting:
            accepting_mask |= 1 << state_id[state]
        return CompiledNFA(
            states=states,
            symbols=symbols,
            letters=letters,
            initial=tuple(sorted(state_id[q] for q in self._initial)),
            accepting_mask=accepting_mask,
        )

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

        The sweep runs on :attr:`compiled`, over integers.  Each layer
        numbers only the states its frontier holds, as local bits in
        first-seen order, so a subset is a small ``int`` mask, and gives
        each symbol it reads a slot of that many bits.  An active state's
        row packs its ``(symbol, next-layer target mask)`` pairs into one
        ``int``, one mask per slot, so a subset's move on every symbol at
        once is the OR of its states' rows.

        With ``weight_of`` (symbol → weight), each string contributes
        the product of its symbols' weights instead of 1 — the weighted
        string measure used by the gadget-free path-query PQE pipeline
        (:func:`repro.core.path_estimate.path_pqe_estimate`).  It is
        called once per symbol the sweep meets, and symbols of falsy
        weight are skipped.

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
        compiled = self.compiled
        letters = compiled.letters
        symbols = compiled.symbols
        weights: dict[int, object] = {}
        # active[i] is the state id behind local bit i of this layer.
        active = compiled.initial
        level: dict[int, object] = {(1 << len(active)) - 1: 1}
        for _ in range(length):
            budget_checkpoint("counting.nfa")
            local: dict[int, int] = {}
            slots: dict[int, int] = {}
            pairs = []
            for state in active:
                row = []
                for symbol, targets in letters[state]:
                    if symbol not in weights:
                        weights[symbol] = (
                            1 if weight_of is None
                            else weight_of(symbols[symbol])
                        )
                    if not weights[symbol]:
                        continue
                    slot = slots.setdefault(symbol, len(slots))
                    mask = 0
                    for target in targets:
                        bit = local.get(target)
                        if bit is None:
                            bit = local[target] = len(local)
                        mask |= 1 << bit
                    row.append((slot, mask))
                pairs.append(row)
            width = len(local)
            rows = [
                sum(mask << slot * width for slot, mask in row)
                for row in pairs
            ]
            reads = [
                (weights[symbol], slot * width)
                for symbol, slot in slots.items()
            ]
            full = (1 << width) - 1
            active = tuple(local)
            nxt: dict[int, object] = {}
            for subset, count in level.items():
                moved = 0
                while subset:
                    low = subset & -subset
                    moved |= rows[low.bit_length() - 1]
                    subset ^= low
                for weight, shift in reads:
                    target = moved >> shift & full
                    if target:
                        nxt[target] = nxt.get(target, 0) + weight * count
            level = nxt
            if max_subsets is not None and len(level) > max_subsets:
                return None
            if not level:
                return 0
        accepting = 0
        for bit, state in enumerate(active):
            if compiled.accepting_mask >> state & 1:
                accepting |= 1 << bit
        return sum(
            count for subset, count in level.items() if subset & accepting
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
