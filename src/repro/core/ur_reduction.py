"""The Proposition 1 construction: query + database → augmented NFTA.

Given a self-join-free conjunctive query Q of bounded hypertree width
and a database D over Q's relations, build an augmented NFTA T+ whose
accepted trees of the appropriate size are in bijection with the
subinstances of D satisfying Q.

Construction summary (following Section 4.2):

- Take a complete generalized hypertree decomposition of Q, re-rooted at
  a covering vertex and binarised
  (:func:`repro.decomposition.transform.ensure_construction_ready`).
- A state at vertex p is a consistent assignment of facts to the atoms
  of ξ(p) — equivalently, since atoms are constant-free, a consistent
  assignment of constants to vars(ξ(p)).  There are at most |D|^width of
  them per vertex.
- Transitions connect each state of p with every tuple of child states
  that agrees with it (and pairwise) on shared variables.
- The transition's annotation lists, for every atom whose ≺-minimal
  covering vertex is p (in query order ≺_atoms), *all* facts of that
  atom's relation in the fixed per-relation order ≺_i, each marked
  optional (``?``) except the state's witness fact for the atom, which
  must appear positively.

Vertices that are minimal covering vertices of no atom get an empty
annotation.  The paper contracts them out of the accepted trees with
λ-transitions; by default we instead label them with the padding symbol
:data:`~repro.automata.symbols.PAD` (``contract_mode='pad'``), which
keeps the translated automaton small when binarisation introduced copy
chains — every accepted tree then carries the same fixed number of PAD
nodes, and the bijection targets trees of size |D| + pad_count instead
of |D|.  Pass ``contract_mode='lambda'`` for the paper-literal
behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from repro.automata.augmented import AnnotatedSymbol, AugmentedNFTA
from repro.automata.nfta import NFTA
from repro.automata.symbols import PAD
from repro.core.budget import budget_checkpoint
from repro.db.fact import Fact
from repro.db.instance import DatabaseInstance
from repro.decomposition import HypertreeDecomposition, decompose
from repro.decomposition.transform import ensure_construction_ready
from repro.errors import QueryError, SelfJoinError
from repro.obs import metric_gauge, span
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery

__all__ = ["URReduction", "build_ur_reduction"]


def _ready_decomposition(query: ConjunctiveQuery):
    """The construction-ready decomposition cached under ``("ghd", …)``.

    ``ensure_construction_ready`` is idempotent, so handing this shared
    object back into the builders is safe.
    """
    return ensure_construction_ready(decompose(query))

_INIT = ("init",)

Assignment = tuple[tuple[str, Hashable], ...]


@dataclass(frozen=True)
class URReduction:
    """Everything Theorems 3 and 1 need from the Proposition 1 output."""

    augmented: AugmentedNFTA
    nfta: NFTA                    # translated, λ-free, trimmed
    tree_size: int                # size of every accepted tree
    pad_count: int                # PAD nodes per accepted tree
    dropped_facts: int            # |D \ D'| over non-query relations
    decomposition: HypertreeDecomposition
    projected_instance: DatabaseInstance

    @property
    def scale(self) -> int:
        """``2^{|D \\ D'|}``: UR multiplier for projected-away facts."""
        return 2 ** self.dropped_facts


def _assignment_from_atom(
    atom: Atom, fact: Fact, partial: dict[str, Hashable]
) -> dict[str, Hashable] | None:
    """Extend ``partial`` so atom maps onto fact; None on clash."""
    extended = dict(partial)
    for var, const in zip(atom.args, fact.constants):
        existing = extended.get(var.name)
        if existing is None:
            extended[var.name] = const
        elif existing != const:
            return None
    return extended


def _vertex_assignments(
    xi: Sequence[Atom], instance: DatabaseInstance
) -> list[dict[str, Hashable]]:
    """All consistent fact choices for ξ(p), as variable assignments.

    Because atoms are constant-free, the assignment over vars(ξ(p))
    determines every chosen fact uniquely, so assignments are a faithful
    state representation.
    """
    assignments: list[dict[str, Hashable]] = [{}]
    for atom in xi:
        extended: list[dict[str, Hashable]] = []
        for partial in assignments:
            for fact in instance.facts_for_relation(atom.relation):
                candidate = _assignment_from_atom(atom, fact, partial)
                if candidate is not None:
                    extended.append(candidate)
        assignments = extended
        if not assignments:
            break
    return assignments


def _freeze(assignment: Mapping[str, Hashable]) -> Assignment:
    return tuple(sorted(assignment.items()))


def _witness_fact(atom: Atom, assignment: Mapping[str, Hashable]) -> Fact:
    return Fact(
        atom.relation,
        tuple(assignment[v.name] for v in atom.args),
    )


def _annotation_for(
    covered_atoms: Sequence[Atom],
    assignment: Mapping[str, Hashable],
    instance: DatabaseInstance,
    contract_mode: str,
) -> tuple[AnnotatedSymbol, ...]:
    if not covered_atoms:
        if contract_mode == "pad":
            return (AnnotatedSymbol(PAD, optional=False),)
        return ()
    positions: list[AnnotatedSymbol] = []
    for atom in covered_atoms:
        witness = _witness_fact(atom, assignment)
        for fact in instance.facts_for_relation(atom.relation):
            positions.append(
                AnnotatedSymbol(fact, optional=(fact != witness))
            )
    return tuple(positions)


def build_ur_reduction(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    decomposition: HypertreeDecomposition | None = None,
    contract_mode: str = "pad",
    cache=None,
) -> URReduction:
    """Proposition 1: an augmented NFTA with
    ``|L_k(T+)| = UR(Q, D')``, where D' is D projected onto Q's
    relations and ``k = |D'| + pad_count``.

    Parameters
    ----------
    decomposition:
        A complete generalized hypertree decomposition of the query; one
        is computed when omitted.  It is re-rooted/binarised as needed.
    contract_mode:
        ``'pad'`` (default) or ``'lambda'`` — how vertices that cover no
        atom minimally are represented; see the module docstring.
    cache:
        Optional :class:`~repro.core.cache.ReductionCache`.  The whole
        reduction is memoized under ``("ur", query.cache_token,
        instance.projection_token(query.relation_names),
        len(instance), contract_mode)``.  The projection token covers
        everything the automaton is built from (the reduction projects
        to the query's relations), and the total fact count covers the
        one residual dependency on the rest of the database —
        ``dropped_facts``, whose ``2**dropped`` marginalisation factor
        scales the final count.  The key is therefore exact, yet
        unchanged by reweight deltas anywhere and by any delta confined
        to other relations that preserves ``|D|``.  The construction-
        ready decomposition is cached under the query-only
        ``("ghd", query.cache_token)``, so many instances of one query
        shape share a single decomposition search.  A caller-supplied
        ``decomposition`` bypasses the cache entirely (the key cannot
        describe it).
    """
    if contract_mode not in ("pad", "lambda"):
        raise QueryError(f"unknown contract_mode {contract_mode!r}")
    if cache is not None and decomposition is None:
        relations = frozenset(query.relation_names)
        key = (
            "ur", query.cache_token,
            instance.projection_token(relations),
            len(instance), contract_mode,
        )
        return cache.get_or_build(
            key,
            lambda: _build_ur_reduction(
                query,
                instance,
                cache.get_or_build(
                    ("ghd", query.cache_token),
                    lambda: _ready_decomposition(query),
                    relations=frozenset(),
                ),
                contract_mode,
            ),
            relations=relations,
            # Keyed on the unweighted projection token: reweight-only
            # deltas cannot stale this entry, only insert/delete can.
            weighted=False,
        )
    return _build_ur_reduction(query, instance, decomposition, contract_mode)


def _build_ur_reduction(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    decomposition: HypertreeDecomposition | None,
    contract_mode: str,
) -> URReduction:
    from repro.testing.faults import fault_point

    fault_point("reduction.ur")
    with span("reduction.ur", contract_mode=contract_mode):
        reduction = _build_ur_reduction_body(
            query, instance, decomposition, contract_mode
        )
    metric_gauge("reduction.nfta_states", len(reduction.nfta.states))
    metric_gauge("reduction.tree_size", reduction.tree_size)
    return reduction


def _build_ur_reduction_body(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    decomposition: HypertreeDecomposition | None,
    contract_mode: str,
) -> URReduction:
    if not query.is_self_join_free:
        raise SelfJoinError(
            f"the Proposition 1 construction requires self-join-freeness: "
            f"{query}"
        )
    projected = instance.project_to_query(query)
    dropped = len(instance) - len(projected)

    if decomposition is None:
        decomposition = decompose(query)
    elif decomposition.query != query:
        raise QueryError("decomposition does not match query")
    decomposition = ensure_construction_ready(decomposition)

    # Per-vertex state spaces.
    states_at: dict[int, list[Assignment]] = {}
    for node in decomposition.nodes:
        assignments = _vertex_assignments(node.xi, projected)
        states_at[node.node_id] = [_freeze(a) for a in assignments]

    pad_count = sum(
        1
        for node in decomposition.nodes
        if not decomposition.atoms_minimally_covered_at(node.node_id)
    ) if contract_mode == "pad" else 0

    transitions: list[tuple] = []

    def state_id(node_id: int, assignment: Assignment) -> tuple:
        return ("v", node_id, assignment)

    for node in decomposition.nodes:
        covered = decomposition.atoms_minimally_covered_at(node.node_id)
        child_ids = decomposition.children_map[node.node_id]
        child_states = [states_at[c] for c in child_ids]

        # Index child states by their restriction to the variables shared
        # with this vertex, for join-style enumeration.
        parent_vars = {
            v.name for atom in node.xi for v in atom.args
        }
        child_indexes: list[dict[Assignment, list[Assignment]]] = []
        child_vars: list[set[str]] = []
        for c_id, c_states in zip(child_ids, child_states):
            c_atom_vars = {
                v.name
                for atom in decomposition.nodes[c_id].xi
                for v in atom.args
            }
            shared = parent_vars & c_atom_vars
            index: dict[Assignment, list[Assignment]] = {}
            for state in c_states:
                key = tuple(
                    item for item in state if item[0] in shared
                )
                index.setdefault(key, []).append(state)
            child_indexes.append(index)
            child_vars.append(c_atom_vars)

        for assignment in states_at[node.node_id]:
            budget_checkpoint("reduction.ur")
            assignment_map = dict(assignment)
            annotation = _annotation_for(
                covered, assignment_map, projected, contract_mode
            )
            source = state_id(node.node_id, assignment)

            if not child_ids:
                transitions.append((source, annotation, ()))
                continue

            candidate_lists: list[list[Assignment]] = []
            viable = True
            for index, c_vars in zip(child_indexes, child_vars):
                shared = parent_vars & c_vars
                key = tuple(
                    item for item in assignment if item[0] in shared
                )
                candidates = index.get(key, [])
                if not candidates:
                    viable = False
                    break
                candidate_lists.append(candidates)
            if not viable:
                continue

            if len(child_ids) == 1:
                for child_assignment in candidate_lists[0]:
                    transitions.append((
                        source,
                        annotation,
                        (state_id(child_ids[0], child_assignment),),
                    ))
            else:
                shared_children = child_vars[0] & child_vars[1]
                for left in candidate_lists[0]:
                    left_map = dict(left)
                    for right in candidate_lists[1]:
                        if all(
                            left_map.get(name) == value
                            for name, value in right
                            if name in shared_children
                        ):
                            transitions.append((
                                source,
                                annotation,
                                (
                                    state_id(child_ids[0], left),
                                    state_id(child_ids[1], right),
                                ),
                            ))

    # Single fresh initial state feeding every root state through a
    # λ-annotation (spliced out by translation).
    for assignment in states_at[decomposition.root.node_id]:
        transitions.append(
            (_INIT, (), (state_id(decomposition.root.node_id, assignment),))
        )

    augmented = AugmentedNFTA(transitions, initial=_INIT)
    nfta = augmented.translate(eliminate_lambda=True).trimmed()
    return URReduction(
        augmented=augmented,
        nfta=nfta,
        tree_size=len(projected) + pad_count,
        pad_count=pad_count,
        dropped_facts=dropped,
        decomposition=decomposition,
        projected_instance=projected,
    )
