"""Ground facts.

A fact ``R(c1, ..., ck)`` pairs a relation name with a tuple of constants
drawn from the universe U (Section 2).  Constants may be any hashable,
totally-orderable-within-a-relation Python values; the library uses
strings and integers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.errors import SchemaError

__all__ = ["Fact", "fact_from_json"]

Constant = Hashable


@dataclass(frozen=True, slots=True)
class Fact:
    """A ground fact ``relation(constants)``.

    Facts are immutable and hashable so they can serve as DNF lineage
    variables, automaton alphabet symbols, and dict keys.

    >>> f = Fact("R", ("a", "b"))
    >>> str(f)
    'R(a, b)'
    >>> f.arity
    2
    """

    relation: str
    constants: tuple[Constant, ...]

    def __post_init__(self) -> None:
        if not self.relation:
            raise SchemaError("fact relation name must be non-empty")
        if not self.constants:
            raise SchemaError("facts must have at least one constant")

    @property
    def arity(self) -> int:
        return len(self.constants)

    def __str__(self) -> str:
        inner = ", ".join(str(c) for c in self.constants)
        return f"{self.relation}({inner})"

    def __repr__(self) -> str:
        return f"Fact({self.relation!r}, {self.constants!r})"

    def sort_key(self) -> tuple[str, tuple[str, ...]]:
        """A total-order key used for the per-relation fact orders ``≺_i``.

        Constants are compared by their string representation so that
        heterogeneous constant types never raise at comparison time; the
        constructions only need *some* fixed total order per relation.
        """
        return (self.relation, tuple(str(c) for c in self.constants))


def fact_from_json(relation, constants) -> Fact:
    """The fact a JSON fact record names, checked field by field.

    The one record check behind :func:`repro.io.load_pdb_json` and
    :meth:`repro.db.delta.DeltaOp.from_record`: ``relation`` must be a
    non-empty string and ``constants`` an array of strings or numbers —
    a bare string would silently explode into one constant per
    character.  Raises :class:`~repro.errors.SchemaError` naming the
    offending field.
    """
    if not isinstance(relation, str) or not relation:
        raise SchemaError(
            f"'relation' must be a non-empty string, got {relation!r}"
        )
    if not isinstance(constants, (list, tuple)) or not all(
        isinstance(c, (str, int, float)) and not isinstance(c, bool)
        for c in constants
    ):
        raise SchemaError(
            f"'constants' must be an array of strings or numbers, got "
            f"{constants!r}"
        )
    return Fact(relation, tuple(constants))
