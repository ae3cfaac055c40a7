"""Tuple-independent probabilistic graphs.

A probabilistic graph ``G = (V, E, π)`` (Amarilli–van Bremen–Gaspard–
Meel, arXiv 2309.13287) is an edge-labelled directed graph whose edges
carry independent *rational* probabilities — the graph-shaped analogue
of :class:`~repro.db.probabilistic.ProbabilisticDatabase`.  A possible
world keeps each edge independently with its probability; regular path
queries ask for the probability that some source→target path whose
label word matches a regex survives.

The class mirrors the database API deliberately: exact ``Fraction``
labels, a canonical ``cache_token`` digest (so graphs key reduction
caches and batch journals exactly like databases do), ``uniform`` /
``certain`` constructors, and exact world-probability helpers that the
brute-force oracle builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from repro.db.probabilistic import _as_probability
from repro.errors import GraphError, ProbabilityError

__all__ = ["Edge", "ProbabilisticGraph"]

_HALF = Fraction(1, 2)


@dataclass(frozen=True, slots=True)
class Edge:
    """A directed labelled edge ``source --label--> target``.

    Nodes and labels are plain strings (hashable, orderable) so that
    edge sets have one canonical sorted order everywhere — the layered
    RPQ reduction, cache tokens and the differential oracles all depend
    on that order being reproducible.
    """

    source: str
    label: str
    target: str

    def __str__(self) -> str:
        return f"{self.source}-[{self.label}]->{self.target}"

    @property
    def sort_key(self) -> tuple[str, str, str]:
        return (self.source, self.label, self.target)


class ProbabilisticGraph:
    """A probabilistic graph ``G = (V, E, π)``.

    Parameters
    ----------
    probabilities:
        Mapping from every :class:`Edge` to its probability.  Any value
        :class:`fractions.Fraction` accepts works — pass strings like
        ``"3/4"`` (or Fractions) when the denominator matters.
    nodes:
        Optional extra nodes beyond the edge endpoints (isolated nodes
        are legal RPQ endpoints: a query from an isolated node to
        itself holds exactly when the regex is nullable).

    >>> g = ProbabilisticGraph({Edge("u", "a", "v"): "1/2"})
    >>> g.probability(Edge("u", "a", "v"))
    Fraction(1, 2)
    """

    __slots__ = ("_probabilities", "_nodes", "__dict__")

    def __init__(
        self,
        probabilities: Mapping[Edge, object],
        nodes: Iterable[str] = (),
    ):
        coerced: dict[Edge, Fraction] = {}
        for edge, prob in probabilities.items():
            if not isinstance(edge, Edge):
                raise GraphError(f"expected an Edge key, got {edge!r}")
            coerced[edge] = _as_probability(prob)
        self._probabilities = coerced
        inferred: set[str] = set(nodes)
        for edge in coerced:
            inferred.add(edge.source)
            inferred.add(edge.target)
        self._nodes = frozenset(inferred)

    @classmethod
    def uniform(
        cls, edges: Iterable[Edge], probability=_HALF, nodes: Iterable[str] = ()
    ) -> "ProbabilisticGraph":
        """All edges labelled with the same probability (default 1/2)."""
        prob = _as_probability(probability)
        return cls({edge: prob for edge in edges}, nodes=nodes)

    @classmethod
    def certain(
        cls, edges: Iterable[Edge], nodes: Iterable[str] = ()
    ) -> "ProbabilisticGraph":
        """All edges labelled 1 — an ordinary graph in disguise."""
        return cls.uniform(edges, Fraction(1), nodes=nodes)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge, in the canonical sorted order."""
        return tuple(
            sorted(self._probabilities, key=lambda e: e.sort_key)
        )

    @cached_property
    def labels(self) -> frozenset[str]:
        return frozenset(edge.label for edge in self._probabilities)

    def probability(self, edge: Edge) -> Fraction:
        try:
            return self._probabilities[edge]
        except KeyError:
            raise ProbabilityError(
                f"edge {edge} not in probabilistic graph"
            ) from None

    @property
    def probabilities(self) -> Mapping[Edge, Fraction]:
        return dict(self._probabilities)

    @cached_property
    def size(self) -> int:
        """|G|: edges plus aggregate bit size of the labels."""
        bits = 0
        for prob in self._probabilities.values():
            bits += prob.numerator.bit_length() + prob.denominator.bit_length()
        return len(self._probabilities) + bits

    # ------------------------------------------------------------------
    # Acyclicity (the layered product reduction needs a topo order)
    # ------------------------------------------------------------------

    @cached_property
    def topological_order(self) -> tuple[str, ...] | None:
        """A deterministic topological order of the nodes, or ``None``
        when the graph has a directed cycle.

        Kahn's algorithm with lexicographic tie-breaking, so the order
        — hence the layered reduction built from it — is a pure
        function of the edge set.
        """
        indegree: dict[str, int] = {node: 0 for node in self._nodes}
        successors: dict[str, list[str]] = {}
        for edge in self.edges:
            indegree[edge.target] += 1
            successors.setdefault(edge.source, []).append(edge.target)
        ready = sorted(node for node, deg in indegree.items() if deg == 0)
        order: list[str] = []
        import heapq

        heapq.heapify(ready)
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for successor in successors.get(node, ()):
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    heapq.heappush(ready, successor)
        if len(order) != len(self._nodes):
            return None
        return tuple(order)

    @property
    def is_acyclic(self) -> bool:
        return self.topological_order is not None

    # ------------------------------------------------------------------
    # Exact world probabilities (oracle building blocks)
    # ------------------------------------------------------------------

    @cached_property
    def denominator_product(self) -> int:
        """``Π_e d_e``: the normalisation constant of the weighted
        string measure (the graph analogue of Theorem 1's ``d``)."""
        product = 1
        for prob in self._probabilities.values():
            product *= prob.denominator
        return product

    def subgraph_probability(self, subset: Iterable[Edge]) -> Fraction:
        """``Pr_G(E')`` for an edge subset ``E' ⊆ E`` — exact."""
        chosen = frozenset(subset)
        unknown = chosen - set(self._probabilities)
        if unknown:
            raise ProbabilityError(
                f"subgraph contains edges not in G: "
                f"{sorted(map(str, unknown))}"
            )
        result = Fraction(1)
        for edge, prob in self._probabilities.items():
            result *= prob if edge in chosen else 1 - prob
        return result

    def restricted(self, edges: Iterable[Edge]) -> "ProbabilisticGraph":
        """The sub-graph over ``edges`` (same labels), keeping all nodes."""
        wanted = frozenset(edges)
        return ProbabilisticGraph(
            {e: p for e, p in self._probabilities.items() if e in wanted},
            nodes=self._nodes,
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @cached_property
    def cache_token(self) -> str:
        """Canonical digest of edges, labels *and* isolated nodes.

        Same contract as ``ProbabilisticDatabase.cache_token``: two
        graphs share a token iff they are equal, so cached RPQ
        reductions and journal fingerprints are reused only when
        bit-for-bit valid.
        """
        import hashlib

        canonical = "\x1f".join(
            sorted(
                f"{edge.source!r}-{edge.label!r}->{edge.target!r}="
                f"{prob.numerator}/{prob.denominator}"
                for edge, prob in self._probabilities.items()
            )
        ) + "\x1e" + "\x1f".join(sorted(self._nodes))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]

    def __len__(self) -> int:
        return len(self._probabilities)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __contains__(self, edge: object) -> bool:
        return edge in self._probabilities

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbabilisticGraph):
            return NotImplemented
        return (
            self._probabilities == other._probabilities
            and self._nodes == other._nodes
        )

    def __hash__(self) -> int:
        return hash(
            (frozenset(self._probabilities.items()), self._nodes)
        )

    def __repr__(self) -> str:
        return (
            f"ProbabilisticGraph(nodes={len(self._nodes)}, "
            f"edges={len(self._probabilities)})"
        )
