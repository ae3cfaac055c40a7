"""PathEstimate (Theorem 2): uniform reliability of path queries on
labelled graphs via an NFA reduction.

This is the paper's Section 3 warm-up, implemented exactly as described:
given the self-join-free path query ``Q = R1(x1,x2), …, Rn(xn,x{n+1})``
and a database of binary facts, build an NFA M whose accepted strings of
length |D| are in bijection with the satisfying subinstances of D.

A string lists, for every fact of D in a fixed global order (facts
grouped by relation in query order, each relation's facts in its ≺_i
order), either the fact or its negation.  The automaton threads a
*witness* fact per relation through its states: state ``(i, j, k)``
means "reading relation i's j-th fact next; the chosen R_i-witness is
its k-th fact".  The witness position must appear positively; all other
facts are free.  Moving from relation i to i+1 non-deterministically
picks the next witness among the facts joining the current one — that
choice is where the automaton's ambiguity (and the hardness of exact
counting) lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.automata.nfa import NFA
from repro.automata.nfa_counting import (
    CountResult,
    count_nfa,
    probability_from_measure,
    scaled_count,
)
from repro.automata.symbols import Literal, literal_weights
from repro.db.fact import Fact
from repro.db.instance import DatabaseInstance
from repro.errors import QueryError, SelfJoinError
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.properties import is_path_query

__all__ = [
    "PathReductionResult",
    "build_path_nfa",
    "build_witness_nfa",
    "path_estimate",
    "path_pqe_estimate",
]

_END = "s_end"


def _chain_order(query: ConjunctiveQuery) -> list[Atom]:
    """Atoms of a path query in chain order (R1 before R2 before …)."""
    by_source = {atom.args[0]: atom for atom in query.atoms}
    targets = {atom.args[1] for atom in query.atoms}
    start_vars = set(by_source) - targets
    if len(start_vars) != 1:
        raise QueryError(f"not a path query: {query}")
    (current,) = start_vars
    ordered: list[Atom] = []
    while current in by_source:
        atom = by_source[current]
        ordered.append(atom)
        current = atom.args[1]
    return ordered


def build_witness_nfa(
    query: ConjunctiveQuery, instance: DatabaseInstance
) -> tuple[NFA, int]:
    """The paper's intermediate automaton M′ (Section 3).

    M′ accepts exactly the strings
    ``R1(z1,z2) R2(z2,z3) … Rn(zn,z{n+1})`` listing a *witness sequence*
    of the path query on D — so ``|L_n(M′)|`` equals the number of
    homomorphisms of Q into D.  Returns the NFA together with the
    witness-string length n = |Q|.

    M′ is a stepping stone: the full Theorem 2 construction M extends it
    to record the presence/absence of every non-witness fact.
    """
    if not query.is_self_join_free:
        raise SelfJoinError(f"path reduction requires self-join-freeness: {query}")
    if not is_path_query(query):
        raise QueryError(f"not a path query: {query}")
    chain = _chain_order(query)
    projected = instance.project_to_query(query)
    transitions: list[tuple] = []
    for i, atom in enumerate(chain):
        facts = projected.facts_for_relation(atom.relation)
        for fact in facts:
            source = ("w", i, fact)
            if i + 1 < len(chain):
                for nxt in projected.facts_for_relation(
                    chain[i + 1].relation
                ):
                    if nxt.constants[0] == fact.constants[1]:
                        transitions.append(
                            (source, Literal(fact, True), ("w", i + 1, nxt))
                        )
            else:
                transitions.append((source, Literal(fact, True), _END))
    initial = [
        ("w", 0, fact)
        for fact in projected.facts_for_relation(chain[0].relation)
    ]
    if not initial:
        return NFA((), initial=["dead"], accepting=[]), len(chain)
    return NFA(transitions, initial=initial, accepting=[_END]), len(chain)


@dataclass(frozen=True)
class PathReductionResult:
    """The NFA of Theorem 2, plus the bookkeeping needed to use it."""

    nfa: NFA
    string_length: int       # |D'|: length of every accepted string
    dropped_facts: int       # |D \ D'|: facts over non-query relations
    relation_order: tuple[str, ...]

    @property
    def scale(self) -> int:
        """``2^{|D \\ D'|}``: UR multiplier for the dropped facts."""
        return 2 ** self.dropped_facts


def build_path_nfa(
    query: ConjunctiveQuery, instance: DatabaseInstance
) -> PathReductionResult:
    """The Section 3 construction: ``|L_{|D'|}(M)| = UR(Q, D')``.

    Raises
    ------
    QueryError / SelfJoinError
        If the query is not a self-join-free path query, or the instance
        contains non-binary facts over query relations.
    """
    if not query.is_self_join_free:
        raise SelfJoinError(f"path reduction requires self-join-freeness: {query}")
    if not is_path_query(query):
        raise QueryError(f"not a path query: {query}")

    chain = _chain_order(query)
    projected = instance.project_to_query(query)
    dropped = len(instance) - len(projected)
    for fact in projected:
        if fact.arity != 2:
            raise QueryError(
                f"path reduction needs binary relations, got {fact}"
            )

    relation_facts: list[tuple[Fact, ...]] = [
        projected.facts_for_relation(atom.relation) for atom in chain
    ]
    n = len(chain)

    if any(not facts for facts in relation_facts):
        # Some atom has no candidate facts: UR = 0, realised by an NFA
        # with an empty language at the required length.
        empty = NFA((), initial=["dead"], accepting=[])
        return PathReductionResult(
            nfa=empty,
            string_length=len(projected),
            dropped_facts=dropped,
            relation_order=tuple(a.relation for a in chain),
        )

    transitions: list[tuple] = []

    def state(i: int, j: int, k: int) -> tuple:
        return ("q", i, j, k)

    for i in range(n):
        facts = relation_facts[i]
        count = len(facts)
        for k, witness in enumerate(facts):
            for j, fact in enumerate(facts):
                literals = [Literal(fact, True)]
                if j != k:
                    literals.append(Literal(fact, False))
                if j + 1 < count:
                    targets = [state(i, j + 1, k)]
                elif i + 1 < n:
                    join_value = witness.constants[1]
                    targets = [
                        state(i + 1, 0, k2)
                        for k2, next_witness in enumerate(
                            relation_facts[i + 1]
                        )
                        if next_witness.constants[0] == join_value
                    ]
                else:
                    targets = [_END]
                for literal in literals:
                    for target in targets:
                        transitions.append((state(i, j, k), literal, target))

    initial = [state(0, 0, k) for k in range(len(relation_facts[0]))]
    nfa = NFA(transitions, initial=initial, accepting=[_END])
    return PathReductionResult(
        nfa=nfa,
        string_length=len(projected),
        dropped_facts=dropped,
        relation_order=tuple(a.relation for a in chain),
    )


@dataclass(frozen=True)
class PathEstimate:
    """Result of the Theorem 2 estimator."""

    estimate: float
    count_result: CountResult
    nfa_states: int
    nfa_transitions: int
    string_length: int

    @property
    def exact(self) -> bool:
        return self.count_result.exact

    def __float__(self) -> float:
        return self.estimate


def _estimate_words(
    reduction: PathReductionResult, normalise, by: int, exact: bool,
    weight_of, **sampler,
) -> PathEstimate:
    """The word-count step both path estimators share: the exact subset
    DP (whose integer measure normalises exactly past the float range)
    or CountNFA over ``reduction.nfa`` at ``reduction.string_length``,
    weighted by ``weight_of`` unless it is ``None``; the answer is
    ``normalise(measure, by)``."""
    nfa = reduction.nfa
    if exact:
        measure = nfa.count_exact(reduction.string_length, weight_of=weight_of)
        result = CountResult.of_exact(measure)
    else:
        result = count_nfa(
            nfa, reduction.string_length, weight_of=weight_of, **sampler
        )
        if math.isnan(result.estimate):
            raise AssertionError("count_nfa returned NaN")
        measure = result.estimate
    return PathEstimate(
        normalise(measure, by), result, len(nfa.states),
        nfa.num_transitions, reduction.string_length,
    )


def path_estimate(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    epsilon: float = 0.25,
    seed: int | None = None,
    samples: int | None = None,
    exact_set_cap: int = 4096,
    repetitions: int = 1,
) -> PathEstimate:
    """Theorem 2's PathEstimate: a (1 ± ε)-approximation of UR(Q, D).

    Runtime is polynomial in |Q|, |D| and 1/ε: the NFA has
    O(|Q| · max_i c_i²) states and CountNFA is polynomial in the NFA size
    and the string length |D|.  A count past the float range is
    ``inf``.
    """
    reduction = build_path_nfa(query, instance)
    return _estimate_words(
        reduction, scaled_count, reduction.scale, False, None,
        epsilon=epsilon, seed=seed, samples=samples,
        exact_set_cap=exact_set_cap, repetitions=repetitions,
    )


def path_pqe_estimate(
    query: ConjunctiveQuery,
    pdb,
    epsilon: float = 0.25,
    seed: int | None = None,
    samples: int | None = None,
    exact_set_cap: int = 4096,
    repetitions: int = 1,
    method: str = "fpras",
) -> PathEstimate:
    """Full PQE for path queries through the Section 3 NFA.

    Section 3 of the paper only treats uniform reliability; this is its
    natural probabilistic extension using *weighted string counting*:
    a positive literal ``R(a,b)`` weighs the fact's probability
    numerator, a negative one its complement, and

        Pr_H(Q) = weighted-|L_{|D'|}(M)| / Π_f d_f.

    Results agree with the Theorem 1 tree pipeline (unit-tested); for
    path queries this NFA route is typically the fastest evaluator in
    the library.  ``method`` is ``'fpras'`` or ``'exact'`` (weighted
    layered subset DP).  A sampled measure past the float range over a
    ``Π_f d_f`` past it too raises :class:`~repro.errors.EstimationError`.
    """
    if method not in ("fpras", "exact"):
        raise ValueError(f"unknown method {method!r}")
    projected = pdb.project_to_query(query)
    reduction = build_path_nfa(query, projected.instance)
    return _estimate_words(
        reduction, probability_from_measure, projected.denominator_product,
        method == "exact", literal_weights(projected.probabilities),
        epsilon=epsilon, seed=seed, samples=samples,
        exact_set_cap=exact_set_cap, repetitions=repetitions,
    )
