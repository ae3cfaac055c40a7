"""Alphabet symbols shared by the automaton constructions.

The automata of Sections 3–5 read *literals*: a database fact either
asserted present (``R(a,b)``) or absent (``¬R(a,b)``).  The multiplier
gadget of Section 5.1 additionally reads the bit symbols ``0`` and ``1``;
those are represented by the plain integers ``0``/``1`` (the paper
assumes Σ ∩ {0,1} = ∅, which holds because literals are never ints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.db.fact import Fact

__all__ = [
    "Literal", "BIT_ZERO", "BIT_ONE", "PAD", "literal_weights", "negate",
]

BIT_ZERO = 0
BIT_ONE = 1


class _Pad:
    """Sentinel label for contracted decomposition vertices.

    The paper splices vertices that are not minimal covering vertices out
    of the accepted trees via λ-transitions.  Splicing a binarisation
    copy with two children would re-expand the very fanout product the
    copy was introduced to avoid, so the construction can instead keep
    such vertices as real tree nodes carrying this padding symbol; every
    accepted tree then contains the same fixed number of PAD nodes, and
    the counting length is shifted accordingly (see
    :mod:`repro.core.ur_reduction`).
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "#"


PAD = _Pad()

Symbol = Hashable


@dataclass(frozen=True, slots=True)
class Literal:
    """A fact literal: the fact's presence (positive) or absence.

    The RPQ product (:mod:`repro.graphs.product`) puts an
    :class:`~repro.graphs.model.Edge` in ``fact``.

    >>> lit = Literal(Fact("R", ("a",)), positive=True)
    >>> str(lit)
    'R(a)'
    >>> str(lit.negated())
    '¬R(a)'
    """

    fact: Fact
    positive: bool

    def negated(self) -> "Literal":
        return Literal(self.fact, not self.positive)

    def __str__(self) -> str:
        prefix = "" if self.positive else "¬"
        return f"{prefix}{self.fact}"

    def __repr__(self) -> str:
        return f"Literal({self.fact!r}, positive={self.positive})"


def negate(symbol: Literal) -> Literal:
    """Functional form of :meth:`Literal.negated`."""
    return symbol.negated()


def literal_weights(probabilities):
    """Symbol weights of the weighted (gadget-free) measure.

    With ``π(f) = w_f / d_f`` (a :class:`fractions.Fraction` per fact,
    or per edge, in ``probabilities``), a positive literal of f weighs
    ``w_f``, a negative one ``d_f − w_f`` and every other symbol 1, so
    the weighted count of accepted trees or words divided by
    ``Π_f d_f`` is ``Pr_H(Q)``.
    """

    def weight_of(symbol):
        if isinstance(symbol, Literal):
            probability = probabilities[symbol.fact]
            if symbol.positive:
                return probability.numerator
            return probability.denominator - probability.numerator
        return 1

    return weight_of
