"""Hypertree decompositions (Gottlob, Leone, Scarcello).

A hypertree for a conjunctive query Q is a rooted tree whose vertices p
carry a variable label χ(p) ⊆ vars(Q) and an atom label ξ(p) ⊆ atoms(Q).
A *hypertree decomposition* additionally satisfies (Section 2):

1. every atom A has a vertex p with vars(A) ⊆ χ(p);
2. for every variable x, { p : x ∈ χ(p) } induces a connected subtree;
3. χ(p) ⊆ vars(ξ(p)) for every vertex p;
4. vars(ξ(p)) ∩ χ(T_p) ⊆ χ(p) for every vertex p (T_p the subtree at p).

Dropping condition 4 yields a *generalized* hypertree decomposition; the
paper's results apply to bounded generalized hypertree width as well
(ghtw ≤ htw ≤ 3·ghtw + 1), and the Proposition 1 construction only relies
on conditions 1–3 plus completeness, so the builders in this package may
return decompositions violating only condition 4.  The validator reports
each condition separately.

A vertex p is a *covering vertex* for atom A if A ∈ ξ(p) and
vars(A) ⊆ χ(p); a decomposition is *complete* if every atom has one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.errors import DecompositionError
from repro.queries.atoms import Atom, Variable
from repro.queries.cq import ConjunctiveQuery

__all__ = ["HypertreeNode", "HypertreeDecomposition", "ValidationReport"]


@dataclass(frozen=True, slots=True)
class HypertreeNode:
    """A vertex of the decomposition tree.

    ``chi`` is the variable label χ(p); ``xi`` is the atom label ξ(p),
    kept as an ordered tuple so that decompositions render
    deterministically.
    """

    node_id: int
    chi: frozenset[Variable]
    xi: tuple[Atom, ...]

    def covers(self, atom: Atom) -> bool:
        """Is this vertex a covering vertex for ``atom``?"""
        return atom in self.xi and atom.variables <= self.chi

    def __str__(self) -> str:
        chi = "{" + ", ".join(sorted(v.name for v in self.chi)) + "}"
        xi = "{" + ", ".join(str(a) for a in self.xi) + "}"
        return f"node {self.node_id}: chi={chi} xi={xi}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a decomposition against its query.

    Each field corresponds to one definition condition; ``problems``
    holds human-readable descriptions of every violation found.
    """

    covers_all_atoms: bool          # condition (1)
    connected: bool                 # condition (2)
    chi_within_xi_vars: bool        # condition (3)
    descendant_condition: bool      # condition (4)
    complete: bool                  # every atom has a covering vertex
    problems: tuple[str, ...]

    @property
    def is_generalized_hd(self) -> bool:
        """Conditions (1)–(3): a generalized hypertree decomposition."""
        return (
            self.covers_all_atoms
            and self.connected
            and self.chi_within_xi_vars
        )

    @property
    def is_hd(self) -> bool:
        """All four conditions: a hypertree decomposition proper."""
        return self.is_generalized_hd and self.descendant_condition

    @property
    def usable_for_construction(self) -> bool:
        """What Proposition 1 requires: a *complete* generalized HD."""
        return self.is_generalized_hd and self.complete


class HypertreeDecomposition:
    """A rooted, ordered hypertree decomposition.

    Parameters
    ----------
    query:
        The query being decomposed.
    nodes:
        The vertices; node ids must be 0..n-1 with 0 the root.
    parents:
        ``parents[i]`` is the parent id of node i (root maps to -1).
        Parents must precede children (topological id order), which also
        makes ascending node id a depth-compatible order usable as
        ``≺_vertices`` — see :meth:`vertex_order`.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        nodes: Sequence[HypertreeNode],
        parents: Sequence[int],
    ):
        if not nodes:
            raise DecompositionError(
                "decomposition must have at least one node"
            )
        ids = [n.node_id for n in nodes]
        if ids != list(range(len(nodes))):
            raise DecompositionError(
                f"node ids must be 0..{len(nodes) - 1} in order, got {ids}"
            )
        if len(parents) != len(nodes):
            raise DecompositionError("parents length must match node count")
        if parents[0] != -1:
            raise DecompositionError("node 0 must be the root (parent -1)")
        for i, parent in enumerate(parents[1:], start=1):
            if not 0 <= parent < len(nodes):
                raise DecompositionError(
                    f"node {i} has out-of-range parent {parent}"
                )
            if parent >= i:
                raise DecompositionError(
                    f"node {i} has parent {parent} >= itself; ids must be "
                    "topologically ordered (parents before children)"
                )
        self._query = query
        self._nodes = tuple(nodes)
        self._parents = tuple(parents)

    # ------------------------------------------------------------------
    # Tree structure
    # ------------------------------------------------------------------

    @property
    def query(self) -> ConjunctiveQuery:
        return self._query

    @property
    def nodes(self) -> tuple[HypertreeNode, ...]:
        return self._nodes

    @property
    def root(self) -> HypertreeNode:
        return self._nodes[0]

    def parent_id(self, node_id: int) -> int:
        """Parent id, or -1 for the root."""
        return self._parents[node_id]

    @cached_property
    def children_map(self) -> dict[int, tuple[int, ...]]:
        """Node id → ordered tuple of child ids."""
        out: dict[int, list[int]] = {n.node_id: [] for n in self._nodes}
        for node_id, parent in enumerate(self._parents):
            if parent >= 0:
                out[parent].append(node_id)
        return {k: tuple(v) for k, v in out.items()}

    def children(self, node_id: int) -> tuple[HypertreeNode, ...]:
        return tuple(self._nodes[c] for c in self.children_map[node_id])

    @cached_property
    def depths(self) -> tuple[int, ...]:
        """Depth of each node (root = 0)."""
        depths = [0] * len(self._nodes)
        for node_id in range(1, len(self._nodes)):
            depths[node_id] = depths[self._parents[node_id]] + 1
        return tuple(depths)

    def subtree_ids(self, node_id: int) -> frozenset[int]:
        """Ids of all nodes in the subtree rooted at ``node_id``."""
        out = {node_id}
        stack = [node_id]
        while stack:
            current = stack.pop()
            for child in self.children_map[current]:
                out.add(child)
                stack.append(child)
        return frozenset(out)

    @cached_property
    def vertex_order(self) -> tuple[int, ...]:
        """``≺_vertices``: node ids sorted by (depth, id).

        The paper requires p ≺ q iff depth(p) <= depth(q); sorting by
        depth first (with id as tiebreak) satisfies that requirement.
        """
        return tuple(
            sorted(range(len(self._nodes)), key=lambda i: (self.depths[i], i))
        )

    # ------------------------------------------------------------------
    # Width, covering vertices
    # ------------------------------------------------------------------

    @property
    def width(self) -> int:
        """max_p |ξ(p)|."""
        return max(len(n.xi) for n in self._nodes)

    def covering_vertices(self, atom: Atom) -> tuple[int, ...]:
        """All covering vertices for ``atom``, in node-id order."""
        return tuple(
            n.node_id for n in self._nodes if n.covers(atom)
        )

    @cached_property
    def minimal_covering_vertex(self) -> dict[Atom, int]:
        """For each atom, its ``≺_vertices``-minimal covering vertex.

        Atoms lacking a covering vertex are absent from the map (the
        decomposition is then incomplete; run
        :func:`repro.decomposition.complete.make_complete` first).
        """
        position = {nid: i for i, nid in enumerate(self.vertex_order)}
        out: dict[Atom, int] = {}
        for atom in self._query.atoms:
            covering = self.covering_vertices(atom)
            if covering:
                out[atom] = min(covering, key=position.__getitem__)
        return out

    def atoms_minimally_covered_at(self, node_id: int) -> tuple[Atom, ...]:
        """Atoms whose minimal covering vertex is ``node_id``.

        Returned in query order (``≺_atoms``) as condition 5(b) of
        Proposition 1 requires.
        """
        return tuple(
            atom
            for atom in self._query.atoms
            if self.minimal_covering_vertex.get(atom) == node_id
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check all four decomposition conditions plus completeness."""
        problems: list[str] = []

        covers_all = True
        for atom in self._query.atoms:
            if not any(atom.variables <= n.chi for n in self._nodes):
                covers_all = False
                problems.append(f"condition 1: no vertex covers vars({atom})")

        connected = True
        for var in self._query.variables:
            holding = [n.node_id for n in self._nodes if var in n.chi]
            if not holding:
                continue
            if not self._induces_connected_subtree(holding):
                connected = False
                problems.append(
                    f"condition 2: vertices containing {var} are disconnected"
                )

        chi_ok = True
        for node in self._nodes:
            xi_vars = frozenset().union(
                *(a.variables for a in node.xi)
            ) if node.xi else frozenset()
            if not node.chi <= xi_vars:
                chi_ok = False
                problems.append(
                    f"condition 3: chi({node.node_id}) not within "
                    f"vars(xi({node.node_id}))"
                )

        descendant_ok = True
        chi_by_id = {n.node_id: n.chi for n in self._nodes}
        for node in self._nodes:
            xi_vars = frozenset().union(
                *(a.variables for a in node.xi)
            ) if node.xi else frozenset()
            subtree_chi: set[Variable] = set()
            for nid in self.subtree_ids(node.node_id):
                subtree_chi |= chi_by_id[nid]
            if not (xi_vars & subtree_chi) <= node.chi:
                descendant_ok = False
                problems.append(
                    f"condition 4: vars(xi) ∩ chi(subtree) escapes "
                    f"chi at node {node.node_id}"
                )

        complete = all(
            atom in self.minimal_covering_vertex
            for atom in self._query.atoms
        )
        if not complete:
            missing = [
                str(a)
                for a in self._query.atoms
                if a not in self.minimal_covering_vertex
            ]
            problems.append(
                f"incomplete: atoms without covering vertex: {missing}"
            )

        return ValidationReport(
            covers_all_atoms=covers_all,
            connected=connected,
            chi_within_xi_vars=chi_ok,
            descendant_condition=descendant_ok,
            complete=complete,
            problems=tuple(problems),
        )

    def _induces_connected_subtree(self, node_ids: list[int]) -> bool:
        # The induced subgraph of a vertex set in a tree is a forest; it
        # is connected iff exactly one member is a "local root", i.e. has
        # its tree parent outside the set (or is the tree root itself).
        wanted = set(node_ids)
        local_roots = sum(
            1 for nid in wanted if self._parents[nid] not in wanted
        )
        return local_roots == 1

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        lines = [f"HypertreeDecomposition(width={self.width})"]
        for node in self._nodes:
            indent = "  " * (self.depths[node.node_id] + 1)
            lines.append(f"{indent}{node}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"HypertreeDecomposition(nodes={len(self._nodes)}, "
            f"width={self.width})"
        )
