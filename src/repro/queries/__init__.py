"""Conjunctive queries: representation, parsing, families, and properties.

Heavier machinery lives in submodules to avoid import cycles with the
database layer: :mod:`repro.queries.containment` (Chandra–Merlin),
:mod:`repro.queries.ucq` (unions), :mod:`repro.queries.answers`
(answer-tuple probabilities), :mod:`repro.queries.lifted` (exact
lifted inference).
"""

from repro.queries.atoms import Atom, Variable
from repro.queries.builders import (
    branching_tree_query,
    chain_query,
    cycle_query,
    hierarchical_star_query,
    path_query,
    star_query,
    triangle_query,
)
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_query
from repro.queries.properties import (
    is_hierarchical,
    is_path_query,
    is_safe,
    is_self_join_free,
)

__all__ = [
    "Atom",
    "Variable",
    "ConjunctiveQuery",
    "parse_query",
    "path_query",
    "star_query",
    "hierarchical_star_query",
    "cycle_query",
    "triangle_query",
    "branching_tree_query",
    "chain_query",
    "is_hierarchical",
    "is_path_query",
    "is_safe",
    "is_self_join_free",
]
