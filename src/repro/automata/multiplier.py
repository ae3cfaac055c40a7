"""NFTAs with multipliers (Section 5.1) and the comparator-gadget
translation to ordinary NFTAs.

A multiplier transition ``(s, α, n, s1 … sv)`` behaves like the ordinary
transition ``(s, α, s1 … sv)`` except that taking it multiplies the
number of accepted trees by ``n``: the translation splices, between the
symbol and the children, a unary path reading a binary string, built so
that **exactly n distinct strings** are accepted.  The PQE reduction
(Theorem 1) uses this to weight each fact literal by the numerator of
its probability (positive branch) or by denominator − numerator
(negative branch).

Gadget construction.  For a multiplier ``n`` realised over ``bits``
binary symbols (``n ≤ 2^bits``), we build the standard *binary
comparator* for "string ≤ b" where ``b = n − 1``: states ``eq_i``
(prefix equal to b so far) and ``lt_i`` (already strictly less), wired
so the accepted strings are exactly the ``bits``-length encodings of
``0 … n−1``.  This is the paper's construction with one generalisation:
``bits`` may exceed the minimal ``⌊log2(n−1)⌋ + 1``, padding the gadget
with leading comparator stages.  Padding lets a caller give the positive
and negative gadgets of the same fact *equal length*, which the size
formula ``k = |D| + Σ_i u(w_i)`` of Theorem 1 implicitly requires (both
branches of a fact must contribute the same number of tree nodes).

A multiplier of 0 deletes the transition (no trees through it), and a
multiplier of ``n = 1`` with ``bits = 0`` is the identity translation.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.automata.nfta import NFTA, Transition
from repro.automata.symbols import BIT_ONE, BIT_ZERO
from repro.core.budget import budget_checkpoint
from repro.errors import AutomatonError

__all__ = [
    "MultiplierTransition",
    "MultiplierNFTA",
    "minimal_gadget_bits",
    "comparator_gadget_transitions",
]

State = Hashable
Symbol = Hashable

# (source, symbol, multiplier, bits, children)
MultiplierTransition = tuple[State, Symbol, int, int, tuple[State, ...]]


def minimal_gadget_bits(multiplier: int) -> int:
    """The paper's ``u(w)``: gadget length for multiplier ``w``.

    0 when the multiplier is 1 (no gadget), otherwise
    ``⌊log2(w − 1)⌋ + 1``.
    """
    if multiplier < 1:
        raise AutomatonError(
            f"gadget length undefined for multiplier {multiplier}"
        )
    if multiplier == 1:
        return 0
    return (multiplier - 1).bit_length()


def comparator_gadget_transitions(
    multiplier: int,
    bits: int,
    entry: State,
    children: tuple[State, ...],
    fresh_prefix,
) -> list[Transition]:
    """Transitions of a unary path accepting exactly ``multiplier``
    binary strings of length ``bits``, from ``entry`` to ``children``.

    The accepted strings are the ``bits``-bit encodings of
    ``0 … multiplier − 1`` (i.e. strings ≤ b where b = multiplier − 1).
    ``fresh_prefix`` namespaces the gadget's internal states.
    """
    if bits < 0:
        raise AutomatonError("bits must be non-negative")
    if multiplier < 1:
        raise AutomatonError("comparator gadget needs multiplier >= 1")
    if multiplier > (1 << bits):
        raise AutomatonError(
            f"multiplier {multiplier} does not fit in {bits} bits"
        )
    if bits == 0:
        raise AutomatonError(
            "bits == 0 carries no gadget; caller should emit the "
            "transition directly"
        )

    bound = multiplier - 1
    bound_bits = [(bound >> (bits - 1 - i)) & 1 for i in range(bits)]

    def eq(i: int) -> State:
        # Stage 1 is the entry state the caller wired the symbol to.
        return entry if i == 1 else (fresh_prefix, "eq", i)

    def lt(i: int) -> State:
        return (fresh_prefix, "lt", i)

    def eq_successor(i: int) -> tuple[State, ...]:
        return children if i == bits else (eq(i + 1),)

    def lt_successor(i: int) -> tuple[State, ...]:
        return children if i == bits else (lt(i + 1),)

    transitions: list[Transition] = []
    for i in range(1, bits + 1):
        if bound_bits[i - 1] == 1:
            # Reading 1 keeps us equal; reading 0 drops to strictly-less.
            transitions.append((eq(i), BIT_ONE, eq_successor(i)))
            transitions.append((eq(i), BIT_ZERO, lt_successor(i)))
        else:
            # Only 0 keeps the prefix ≤ bound.
            transitions.append((eq(i), BIT_ZERO, eq_successor(i)))
        if i > 1:  # lt(1) is unreachable: we always start "equal"
            transitions.append((lt(i), BIT_ZERO, lt_successor(i)))
            transitions.append((lt(i), BIT_ONE, lt_successor(i)))
    return transitions


class MultiplierNFTA:
    """An NFTA with multipliers ``T^c = (S, Σ, Δ, s_init)``.

    Transitions are ``(source, symbol, multiplier, bits, children)``:
    the paper's tuple extended with the explicit gadget length ``bits``
    (pass ``minimal_gadget_bits(multiplier)`` for the paper's exact
    construction).  Multiplier-0 transitions are dropped at translation.
    """

    def __init__(
        self,
        transitions: Iterable[MultiplierTransition],
        initial: State,
    ):
        checked: list[MultiplierTransition] = []
        for source, symbol, multiplier, bits, children in transitions:
            if multiplier < 0:
                raise AutomatonError(
                    f"multiplier must be >= 0, got {multiplier}"
                )
            if bits < 0:
                raise AutomatonError(f"bits must be >= 0, got {bits}")
            if multiplier > 1 and multiplier > (1 << bits):
                raise AutomatonError(
                    f"multiplier {multiplier} does not fit in {bits} bits"
                )
            checked.append(
                (source, symbol, multiplier, bits, tuple(children))
            )
        self._transitions = tuple(checked)
        self._initial = initial

    @property
    def transitions(self) -> tuple[MultiplierTransition, ...]:
        return self._transitions

    @property
    def initial(self) -> State:
        return self._initial

    @property
    def encoding_size(self) -> int:
        return sum(
            3 + len(children)
            for _s, _a, _m, _b, children in self._transitions
        )

    def translate(self) -> NFTA:
        """The ordinary NFTA whose tree count realises the multipliers.

        Every transition with multiplier n and gadget length ``bits``
        contributes ``bits`` extra nodes to each accepted tree passing
        through it and multiplies the count of such trees by n.
        """
        ordinary: list[Transition] = []
        for index, (source, symbol, multiplier, bits, children) in enumerate(
            self._transitions
        ):
            budget_checkpoint("reduction.pqe")
            if multiplier == 0:
                continue
            if bits == 0:
                if multiplier != 1:
                    raise AutomatonError(
                        f"multiplier {multiplier} needs bits > 0"
                    )
                ordinary.append((source, symbol, children))
                continue
            entry = ("mul", index, "entry")
            ordinary.append((source, symbol, (entry,)))
            ordinary.extend(
                comparator_gadget_transitions(
                    multiplier, bits, entry, children, ("mul", index)
                )
            )
        return NFTA(ordinary, self._initial)

    def __repr__(self) -> str:
        return (
            f"MultiplierNFTA(transitions={len(self._transitions)}, "
            f"size={self.encoding_size})"
        )
