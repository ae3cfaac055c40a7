"""Top-down non-deterministic finite tree automata (NFTAs).

An NFTA is a tuple ``(S, Σ, Δ, s_init)`` with transition relation
``Δ ⊆ S × Σ × (∪_k S^k)`` (Section 2): a node in state ``q`` labelled
``σ`` may expand into children in states ``q1 … qk``; a leaf requires a
transition with the empty child tuple.  Following the paper we also allow
λ-transitions ``(s, λ, R)`` — the node is *spliced out* and its children
attach to its parent — together with a standard elimination procedure.

Membership is decided bottom-up: for each subtree we compute the set of
states from which it is derivable (the property-based suite holds the
CountNFTA sampler's compiled membership oracle to it).
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, Iterable

from repro.automata.trees import LabeledTree
from repro.core.budget import budget_checkpoint
from repro.errors import AutomatonError

__all__ = ["NFTA", "LAMBDA", "Transition"]

State = Hashable
Symbol = Hashable


class _Lambda:
    """Sentinel for λ-transitions; compares only to itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "λ"


LAMBDA = _Lambda()

# A transition is (state, symbol-or-LAMBDA, children tuple).
Transition = tuple[State, Symbol, tuple[State, ...]]

#: The budget phase the fixpoint analyses below report.  They run inside
#: the reduction build and the counters alike; each round is one
#: deadline checkpoint.
_PHASE = "counting.nfta"


class NFTA:
    """A top-down NFTA.

    Parameters
    ----------
    transitions:
        Iterable of ``(state, symbol, children)`` triples; ``children``
        is a (possibly empty) tuple of states.  Use :data:`LAMBDA` as the
        symbol for λ-transitions.
    initial:
        The initial state ``s_init``.
    """

    #: Set on an automaton known to be trim (see :meth:`trimmed`).
    _trim = False

    def __init__(
        self,
        transitions: Iterable[Transition],
        initial: State,
    ):
        all_transitions: list[Transition] = []
        states: set[State] = {initial}
        alphabet: set[Symbol] = set()
        for source, symbol, children in transitions:
            children = tuple(children)
            all_transitions.append((source, symbol, children))
            states.add(source)
            states.update(children)
            if symbol is not LAMBDA:
                alphabet.add(symbol)
        self._transitions = tuple(all_transitions)
        self._states = frozenset(states)
        self._alphabet = frozenset(alphabet)
        self._initial = initial

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def states(self) -> frozenset[State]:
        return self._states

    @property
    def alphabet(self) -> frozenset[Symbol]:
        return self._alphabet

    @property
    def initial(self) -> State:
        return self._initial

    @property
    def transitions(self) -> tuple[Transition, ...]:
        return self._transitions

    @cached_property
    def num_transitions(self) -> int:
        return len(self._transitions)

    @cached_property
    def encoding_size(self) -> int:
        """|T|: total symbols needed to write down Δ (the paper's size)."""
        return sum(2 + len(children) for _, _, children in self._transitions)

    @cached_property
    def has_lambda(self) -> bool:
        return any(symbol is LAMBDA for _, symbol, _ in self._transitions)

    @cached_property
    def max_arity(self) -> int:
        return max(
            (len(children) for _, _, children in self._transitions),
            default=0,
        )

    @cached_property
    def compiled(self) -> "DenseNFTA":
        """The dense form the optimized counters run on
        (:func:`~repro.automata.optimize.optimize_nfta`), built on first
        use.  It lives as long as this automaton, and so do the sampling
        plans and exact layer tables memoized on it; it is never pickled
        (see :meth:`__getstate__`)."""
        from repro.automata.optimize import optimize_nfta

        return optimize_nfta(self)

    def __getstate__(self) -> dict:
        # The compiled form holds locks and memo tables; an unpickled
        # automaton compiles afresh on first use.
        state = dict(self.__dict__)
        state.pop("compiled", None)
        return state

    @cached_property
    def by_symbol(self) -> dict[Symbol, tuple[Transition, ...]]:
        out: dict[Symbol, list[Transition]] = {}
        for transition in self._transitions:
            out.setdefault(transition[1], []).append(transition)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def by_symbol_arity(
        self,
    ) -> dict[tuple[Symbol, int], tuple[tuple[State, tuple[State, ...]], ...]]:
        """(symbol, arity) → ((source, children), …) — the hot index for
        bottom-up membership checks."""
        out: dict[tuple[Symbol, int], list] = {}
        for source, symbol, children in self._transitions:
            out.setdefault((symbol, len(children)), []).append(
                (source, children)
            )
        return {k: tuple(v) for k, v in out.items()}

    # ------------------------------------------------------------------
    # Membership (bottom-up)
    # ------------------------------------------------------------------

    def derivable_states(self, tree: LabeledTree) -> frozenset[State]:
        """States q such that ``tree`` is derivable from q.

        Raises
        ------
        AutomatonError
            If the automaton still has λ-transitions (eliminate first).
        """
        if self.has_lambda:
            raise AutomatonError(
                "membership requires a λ-free NFTA; call eliminate_lambda()"
            )
        memo: dict[int, frozenset[State]] = {}
        keep_alive: list[LabeledTree] = []

        def visit(node: LabeledTree) -> frozenset[State]:
            cached = memo.get(id(node))
            if cached is not None:
                return cached
            child_sets = [visit(child) for child in node.children]
            states: set[State] = set()
            for source, symbol, children in self.by_symbol.get(
                node.label, ()
            ):
                if len(children) != len(child_sets):
                    continue
                if all(
                    child in child_set
                    for child, child_set in zip(children, child_sets)
                ):
                    states.add(source)
            result = frozenset(states)
            memo[id(node)] = result
            keep_alive.append(node)
            return result

        return visit(tree)

    def accepts(self, tree: LabeledTree) -> bool:
        return self._initial in self.derivable_states(tree)

    # ------------------------------------------------------------------
    # λ-elimination
    # ------------------------------------------------------------------

    def eliminate_lambda(self) -> "NFTA":
        """Return an equivalent λ-free NFTA (standard splicing procedure).

        A λ-transition ``(s, λ, (r1 … rm))`` means a node in state ``s``
        is replaced in place by children in states ``r1 … rm``.  We
        eliminate by substituting, in every transition that has ``s`` as
        a child, each occurrence of ``s`` by every right-hand side of
        ``s``'s λ-transitions, iterating until no transition references a
        λ-state.  States with both λ- and symbol-transitions keep their
        symbol-transitions as alternatives.

        Raises
        ------
        AutomatonError
            On λ-cycles, or if the initial state can only expand by a
            λ-transition with child count ≠ 1 (the spliced "tree" would
            not be a tree).
        """
        if not self.has_lambda:
            return self

        lambda_rules: dict[State, list[tuple[State, ...]]] = {}
        concrete: list[Transition] = []
        for source, symbol, children in self._transitions:
            if symbol is LAMBDA:
                lambda_rules.setdefault(source, []).append(children)
            else:
                concrete.append((source, symbol, children))

        _check_lambda_acyclic(lambda_rules)

        concrete_sources = {t[0] for t in concrete}
        expansion_memo: dict[State, list[tuple[State, ...]]] = {}

        def expansions(state: State) -> list[tuple[State, ...]]:
            """All λ-closures of a state into tuples of non-λ-only states."""
            cached = expansion_memo.get(state)
            if cached is not None:
                return cached
            results: list[tuple[State, ...]] = []
            if state in concrete_sources or state not in lambda_rules:
                results.append((state,))
            for rhs in lambda_rules.get(state, ()):
                partial: list[tuple[State, ...]] = [()]
                for child in rhs:
                    partial = [
                        prefix + expansion
                        for prefix in partial
                        for expansion in expansions(child)
                    ]
                results.extend(partial)
            expansion_memo[state] = results
            return results

        new_transitions: list[Transition] = []
        for source, symbol, children in concrete:
            partial: list[tuple[State, ...]] = [()]
            for child in children:
                partial = [
                    prefix + expansion
                    for prefix in partial
                    for expansion in expansions(child)
                ]
            for expanded in partial:
                new_transitions.append((source, symbol, expanded))

        initial = self._initial
        root_expansions = expansions(initial)
        if any(len(e) != 1 for e in root_expansions):
            raise AutomatonError(
                "initial state has a multi-child λ expansion; the spliced "
                "root would yield a forest, not a tree — re-root the "
                "construction so the root carries a symbol"
            )
        if root_expansions != [(initial,)]:
            # Route the root through a fresh state that adopts the
            # transitions of every single-state expansion target.
            fresh = ("__root__", initial)
            targets = {e[0] for e in root_expansions}
            for source, symbol, children in list(new_transitions):
                if source in targets:
                    new_transitions.append((fresh, symbol, children))
            initial = fresh

        # Dedupe in first-seen order: a set would order the transitions
        # by hash, and downstream constructions name states by position.
        return NFTA(dict.fromkeys(new_transitions), initial)

    # ------------------------------------------------------------------
    # Trimming
    # ------------------------------------------------------------------

    @cached_property
    def productive_states(self) -> frozenset[State]:
        """States from which at least one finite tree is derivable."""
        productive: set[State] = set()
        changed = True
        while changed:
            budget_checkpoint(_PHASE)
            changed = False
            for source, symbol, children in self._transitions:
                if symbol is LAMBDA:
                    continue
                if source not in productive and all(
                    c in productive for c in children
                ):
                    productive.add(source)
                    changed = True
        return frozenset(productive)

    def trimmed(self) -> "NFTA":
        """Drop transitions involving unproductive or unreachable states.

        An automaton that is already trim is returned unchanged, and a
        result of this method answers its own ``trimmed()`` without
        rerunning the fixpoints.
        """
        if self._trim:
            return self
        if self.has_lambda:
            raise AutomatonError("trim after λ-elimination")
        productive = self.productive_states
        if self._initial not in productive:
            return NFTA((), self._initial)._mark_trim()
        reachable: set[State] = {self._initial}
        changed = True
        useful_transitions: list[Transition] = []
        while changed:
            budget_checkpoint(_PHASE)
            changed = False
            for source, symbol, children in self._transitions:
                if source in reachable and all(
                    c in productive for c in children
                ):
                    for child in children:
                        if child not in reachable:
                            reachable.add(child)
                            changed = True
        for source, symbol, children in self._transitions:
            if source in reachable and source in productive and all(
                c in productive for c in children
            ):
                useful_transitions.append((source, symbol, children))
        if len(useful_transitions) == self.num_transitions:
            return self._mark_trim()
        return NFTA(useful_transitions, self._initial)._mark_trim()

    def _mark_trim(self) -> "NFTA":
        self._trim = True
        return self

    # ------------------------------------------------------------------
    # Size reachability
    # ------------------------------------------------------------------

    def possible_sizes(self, max_size: int) -> dict[State, int]:
        """Bitmask (bit s set ⟺ some derivable tree has size s) per state.

        Used by the counters to prune impossible size splits; bounded by
        ``max_size``.
        """
        if self.has_lambda:
            raise AutomatonError("size analysis requires a λ-free NFTA")
        limit_mask = (1 << (max_size + 1)) - 1
        masks: dict[State, int] = {state: 0 for state in self._states}
        changed = True
        while changed:
            budget_checkpoint(_PHASE)
            changed = False
            for source, symbol, children in self._transitions:
                combined = 1  # sizes sum starts at {0}
                for child in children:
                    child_mask = masks[child]
                    if child_mask == 0:
                        combined = 0
                        break
                    shifted = 0
                    remaining = combined
                    offset = 0
                    while remaining:
                        if remaining & 1:
                            shifted |= child_mask << offset
                        remaining >>= 1
                        offset += 1
                    combined = shifted & limit_mask
                if combined == 0:
                    continue
                new_mask = (masks[source] | (combined << 1)) & limit_mask
                if new_mask != masks[source]:
                    masks[source] = new_mask
                    changed = True
        return masks

    def __repr__(self) -> str:
        return (
            f"NFTA(states={len(self._states)}, "
            f"transitions={self.num_transitions}, "
            f"alphabet={len(self._alphabet)})"
        )


def _check_lambda_acyclic(
    lambda_rules: dict[State, list[tuple[State, ...]]]
) -> None:
    """Reject λ-cycles (they would make elimination diverge)."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour: dict[State, int] = {}

    def visit(state: State) -> None:
        colour[state] = GREY
        for rhs in lambda_rules.get(state, ()):
            for child in rhs:
                c = colour.get(child, WHITE)
                if c == GREY:
                    raise AutomatonError("λ-transition cycle detected")
                if c == WHITE:
                    visit(child)
        colour[state] = BLACK

    for state in list(lambda_rules):
        if colour.get(state, WHITE) == WHITE:
            visit(state)
