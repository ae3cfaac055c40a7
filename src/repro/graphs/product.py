"""Query-NFA × graph product: RPQ probability as weighted #NFA.

The reduction mirrors the paper's Section 3 literal-string encoding.
Fix the *relevant* edges ``e_0 < … < e_{m-1}`` (sorted by topological
position of their source node); a length-``m`` string over the literals
``e_i`` / ``¬e_i`` is in bijection with an edge subset.  The product
automaton threads a witness path through layered states ``(i, v, q)`` —
"``i`` literals read, the witness path currently ends at graph node
``v`` with the query NFA in state ``q``":

- *stay* transitions read either literal of ``e_i`` without moving the
  witness (a non-path edge is free to be present or absent), and
- *advance* transitions read ``e_i`` **positively** when ``v`` is its
  source, moving to ``(i+1, e_i.target, q')`` for each
  ``q' ∈ δ(q, e_i.label)`` — the witness path uses the edge, so it must
  be present.

Acceptance at layer ``m`` with ``v = target`` and ``q`` accepting means
"some path made of present edges reads a word in L(regex)".  On a DAG
every source→target path lists its edges in strictly increasing
topological order of their sources, so the layered single-pass witness
is complete — this is exactly why the construction (like the FPRAS of
arXiv 2309.13287 for DAG-shaped instances) requires acyclicity; cyclic
graphs take the enumeration / Monte-Carlo routes instead.

Weighting literals with probability numerators (positive) or
complement numerators (negative) turns ``|L_m|`` into the weighted
measure whose normalisation by ``Π_e d_e`` is the RPQ probability —
the same move :func:`repro.core.path_estimate.path_pqe_estimate` makes
for relational path queries.  *Irrelevant* edges (label outside the
regex alphabet, or not on any source→target corridor) marginalise to a
factor of 1 and are projected away before the product is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from repro.automata.nfa import NFA
from repro.automata.symbols import Literal, literal_weights
from repro.core.budget import budget_tick
from repro.errors import GraphError
from repro.graphs.model import Edge, ProbabilisticGraph
from repro.graphs.rpq import RPQQuery

__all__ = [
    "RPQReduction",
    "build_rpq_nfa",
    "make_weight_of",
    "relevant_edges",
    "rpq_brute_force",
    "rpq_holds",
]


def rpq_holds(
    edges: Iterable[Edge], query: RPQQuery
) -> bool:
    """Does the (deterministic) edge set satisfy the RPQ?

    Product BFS over ``(node, NFA state)`` pairs — works on *any*
    graph, cyclic or not, which is what makes it a trustworthy oracle
    for the layered reduction and the Monte-Carlo fallback alike.
    """
    nfa = query.rpq.nfa
    if query.source == query.target and query.rpq.nullable:
        return True
    successors: dict[str, list[Edge]] = {}
    for edge in edges:
        successors.setdefault(edge.source, []).append(edge)
    initial = {(query.source, state) for state in nfa.initial}
    seen = set(initial)
    stack = list(initial)
    accepting = nfa.accepting
    while stack:
        node, state = stack.pop()
        if node == query.target and state in accepting:
            return True
        for edge in successors.get(node, ()):
            for nxt in nfa.successors(state).get(edge.label, ()):
                pair = (edge.target, nxt)
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
    return False


def relevant_edges(
    graph: ProbabilisticGraph, query: RPQQuery
) -> tuple[Edge, ...]:
    """The edges that can influence the query, in canonical order.

    An edge is relevant iff its label occurs in the regex, its source
    is reachable from ``query.source`` and ``query.target`` is
    reachable from its target — all over label-compatible edges.
    Everything else marginalises to probability mass 1 and is sound to
    drop (the brute-force oracle enumerates only relevant edges for the
    same reason).  Both reachability passes walk adjacency lists, so
    the whole filter is linear in the edge count.
    """
    labels = query.rpq.labels
    candidates = [e for e in graph.edges if e.label in labels]
    successors: dict[str, list[str]] = {}
    predecessors: dict[str, list[str]] = {}
    for edge in candidates:
        successors.setdefault(edge.source, []).append(edge.target)
        predecessors.setdefault(edge.target, []).append(edge.source)
    forward = _reachable(query.source, successors)
    backward = _reachable(query.target, predecessors)
    return tuple(
        e for e in candidates
        if e.source in forward and e.target in backward
    )


def _reachable(start: str, adjacency: dict[str, list[str]]) -> set[str]:
    """The nodes reachable from ``start`` (itself included)."""
    seen = {start}
    stack = [start]
    while stack:
        for node in adjacency.get(stack.pop(), ()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen


@dataclass(frozen=True)
class RPQReduction:
    """The layered product NFA plus the bookkeeping to use it."""

    nfa: NFA
    string_length: int              # m = |relevant edges|
    edges: tuple[Edge, ...]         # relevant edges, in layer order
    denominator: int                # Π_e d_e over relevant edges
    trivial: Fraction | None        # exact answer when no counting needed

    @property
    def nfa_states(self) -> int:
        return len(self.nfa.states)

    @property
    def nfa_transitions(self) -> int:
        return self.nfa.num_transitions


def build_rpq_nfa(
    graph: ProbabilisticGraph, query: RPQQuery
) -> RPQReduction:
    """Build the layered product reduction for a DAG-shaped graph.

    Raises
    ------
    GraphError
        When the graph has a directed cycle (the layered witness pass
        is only complete on DAGs) or an endpoint is not a known node.
    """
    _check_endpoints(graph, query)
    if query.source == query.target and query.rpq.nullable:
        # The empty path always exists; no counting needed.
        return RPQReduction(
            nfa=_dead_nfa(), string_length=0, edges=(),
            denominator=1, trivial=Fraction(1),
        )
    order = graph.topological_order
    if order is None:
        raise GraphError(
            "the layered RPQ product requires an acyclic graph; "
            "use the 'enumerate' or 'monte-carlo' route for cyclic ones"
        )
    edges = relevant_edges(graph, query)
    if not edges:
        return RPQReduction(
            nfa=_dead_nfa(), string_length=0, edges=(),
            denominator=1, trivial=Fraction(0),
        )
    position = {node: index for index, node in enumerate(order)}
    layered = tuple(
        sorted(edges, key=lambda e: (position[e.source], e.sort_key))
    )
    m = len(layered)
    denominator = 1
    for edge in layered:
        denominator *= graph.probability(edge).denominator

    query_nfa = query.rpq.nfa
    accepting_query = query_nfa.accepting

    transitions: list[tuple] = []
    # Forward layer-by-layer construction over *reachable* product
    # states only; acceptance is collapsed into a single sink the
    # moment the witness completes, so accepted runs coast through the
    # remaining layers on stay transitions of the sink.
    done = "rpq_done"
    frontier: set = {
        ("p", query.source, state) for state in query_nfa.initial
    }
    if not frontier:
        return RPQReduction(
            nfa=_dead_nfa(), string_length=m, edges=layered,
            denominator=denominator, trivial=Fraction(0),
        )
    states_by_layer = frontier
    initial = {(0,) + state for state in frontier}
    def flat(index: int, state) -> tuple:
        if state == done:
            return (index, done)
        return (index,) + state

    for index, edge in enumerate(layered):
        budget_tick("rpq.product", units=len(states_by_layer))
        present = Literal(edge, True)
        absent = Literal(edge, False)
        nxt: set = set()
        for state in states_by_layer:
            source_state = flat(index, state)
            if state == done:
                transitions.append((source_state, present, (index + 1, done)))
                transitions.append((source_state, absent, (index + 1, done)))
                nxt.add(done)
                continue
            _tag, node, qstate = state
            # Stay: the edge is not on the witness path.
            stay = (index + 1, "p", node, qstate)
            transitions.append((source_state, present, stay))
            transitions.append((source_state, absent, stay))
            nxt.add(("p", node, qstate))
            # Advance: the witness uses this edge (positively).
            if node == edge.source:
                for qnext in query_nfa.successors(qstate).get(
                    edge.label, ()
                ):
                    if (
                        edge.target == query.target
                        and qnext in accepting_query
                    ):
                        target_state = (index + 1, done)
                        nxt.add(done)
                    else:
                        target_state = (index + 1, "p", edge.target, qnext)
                        nxt.add(("p", edge.target, qnext))
                    transitions.append(
                        (source_state, present, target_state)
                    )
        states_by_layer = nxt

    # Every state built above is reachable, and each layer's
    # transitions precede the next layer's, so one reverse pass finds
    # the states that reach acceptance and keeps exactly the
    # transitions between them: the trimmed product, built once.
    useful = {(m, done)}
    kept = []
    for transition in reversed(transitions):
        if transition[2] in useful:
            useful.add(transition[0])
            kept.append(transition)
    kept.reverse()
    initial &= useful
    product = (
        NFA(kept, initial=initial, accepting=[(m, done)])
        if initial else _dead_nfa()
    )
    return RPQReduction(
        nfa=product,
        string_length=m,
        edges=layered,
        denominator=denominator,
        trivial=None,
    )


def make_weight_of(graph: ProbabilisticGraph):
    """Literal → integer weight, as in the Section 3 weighted measure:
    :func:`~repro.automata.symbols.literal_weights` over the edges'
    probabilities."""
    return literal_weights(graph.probabilities)


def _dead_nfa() -> NFA:
    return NFA((), initial=["rpq_dead"], accepting=[])


def _check_endpoints(
    graph: ProbabilisticGraph, query: RPQQuery
) -> None:
    for endpoint in (query.source, query.target):
        if endpoint not in graph.nodes:
            raise GraphError(
                f"RPQ endpoint {endpoint!r} is not a node of the graph"
            )


def rpq_brute_force(
    graph: ProbabilisticGraph, query: RPQQuery
) -> Fraction:
    """Exact ``Pr_G(source ⟶_regex target)`` by world enumeration.

    Enumerates all ``2^m`` subsets of the *relevant* edges (dropping
    irrelevant ones is exact — their marginal is 1) and sums the exact
    rational probability of the satisfying ones.  The differential
    tier's ground truth; exponential, so keep ``m`` small (≤ ~16).
    """
    _check_endpoints(graph, query)
    edges = relevant_edges(graph, query)
    restricted = graph.restricted(edges)
    total = Fraction(0)
    m = len(edges)
    for mask in range(1 << m):
        budget_tick("rpq.enumerate")
        subset = [edges[i] for i in range(m) if mask >> i & 1]
        if rpq_holds(subset, query):
            total += restricted.subgraph_probability(subset)
    return total
