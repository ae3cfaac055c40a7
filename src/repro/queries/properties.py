"""Structural properties of conjunctive queries.

Table 1 of the paper classifies queries along three axes: bounded
hypertree width, self-join-freeness, and *safety* in the sense of Dalvi
and Suciu.  For self-join-free conjunctive queries, safety coincides with
the *hierarchical* property [Dalvi & Suciu 2007]:

    Q is hierarchical iff for every pair of variables x, y, the atom sets
    at(x) and at(y) (atoms containing the variable) are either disjoint or
    comparable under inclusion.

Hierarchical SJF queries admit exact polynomial-time (in data complexity)
evaluation via a safe plan (:mod:`repro.queries.lifted`); every
non-hierarchical SJF query is #P-hard in data complexity.  The paper's
headline class ``3Path`` is non-hierarchical, which the tests verify via
:func:`is_hierarchical`.
"""

from __future__ import annotations

from itertools import combinations

from repro.queries.atoms import Atom, Variable
from repro.queries.cq import ConjunctiveQuery

__all__ = [
    "is_self_join_free",
    "is_hierarchical",
    "is_safe",
    "is_path_query",
    "is_boolean",
    "atom_sets_by_variable",
]


def is_self_join_free(query: ConjunctiveQuery) -> bool:
    """``True`` iff no relation symbol repeats across atoms."""
    return query.is_self_join_free


def is_boolean(query: ConjunctiveQuery) -> bool:
    """All queries in this library are Boolean (no free variables)."""
    return True


def atom_sets_by_variable(
    query: ConjunctiveQuery,
) -> dict[Variable, frozenset[Atom]]:
    """Map each variable x to at(x), the set of atoms containing it."""
    out: dict[Variable, set[Atom]] = {}
    for atom in query.atoms:
        for var in atom.variables:
            out.setdefault(var, set()).add(atom)
    return {v: frozenset(s) for v, s in out.items()}


def is_hierarchical(query: ConjunctiveQuery) -> bool:
    """Test the hierarchy condition of Dalvi and Suciu.

    For every pair of variables, their atom sets must be disjoint or one
    must contain the other.

    >>> from repro.queries.builders import path_query, star_query
    >>> is_hierarchical(star_query(3))
    True
    >>> is_hierarchical(path_query(3))  # the 3Path class is unsafe
    False
    """
    atom_sets = atom_sets_by_variable(query)
    for left, right in combinations(atom_sets.values(), 2):
        if left & right and not (left <= right or right <= left):
            return False
    return True


def is_safe(query: ConjunctiveQuery) -> bool:
    """Syntactic safety in the sense of Dalvi and Suciu [11].

    For self-join-free conjunctive queries, safety is equivalent to the
    hierarchical property; this library only decides safety in that case.

    Raises
    ------
    NotImplementedError
        For queries with self-joins, where safety requires the full UCQ
        dichotomy machinery that is out of scope for this reproduction
        (the corresponding Table 1 rows are marked "Open"/"Depends").
    """
    if not query.is_self_join_free:
        raise NotImplementedError(
            "safety is only decided for self-join-free queries here; the "
            "self-join rows of Table 1 are outside the paper's FPRAS too"
        )
    return is_hierarchical(query)


def is_path_query(query: ConjunctiveQuery) -> bool:
    """``True`` iff the query has the exact path shape of Section 3.

    A path query is ``R1(x1,x2), R2(x2,x3), ..., Rn(xn,x{n+1})``: binary
    atoms chained through shared variables, with all endpoints distinct.
    Atom order within the query object does not matter; we search for a
    consistent chaining.
    """
    atoms = query.atoms
    if any(atom.arity != 2 for atom in atoms):
        return False
    if len(atoms) == 1:
        first, second = atoms[0].args
        return first != second

    # Count variable occurrences: a path has exactly two endpoint
    # variables occurring once, and all interior variables occurring
    # twice (once as a target, once as a source).
    occurrences: dict[Variable, int] = {}
    for atom in atoms:
        first, second = atom.args
        if first == second:
            return False
        occurrences[first] = occurrences.get(first, 0) + 1
        occurrences[second] = occurrences.get(second, 0) + 1
    endpoint_count = sum(1 for c in occurrences.values() if c == 1)
    if endpoint_count != 2 or any(c > 2 for c in occurrences.values()):
        return False

    # Follow the chain from the unique source (a variable that appears
    # only in first position).
    by_source = {atom.args[0]: atom for atom in atoms}
    if len(by_source) != len(atoms):
        return False
    targets = {atom.args[1] for atom in atoms}
    sources = set(by_source)
    start_candidates = sources - targets
    if len(start_candidates) != 1:
        return False
    (current,) = start_candidates
    seen = 0
    while current in by_source:
        atom = by_source[current]
        current = atom.args[1]
        seen += 1
        if seen > len(atoms):
            return False
    return seen == len(atoms)
