"""CountNFA: approximate counting of ``|L_n(M)|`` for an NFA.

The paper uses as a black box the FPRAS of Arenas, Croquevielle, Jayaram
and Riveros ("#NFA admits an FPRAS", JACM 2021).  This module implements
a counting/sampling scheme in the same spirit, built on the same
self-reducible decomposition the ACJR analysis exploits:

    A(q, ℓ) = ⨄_a  a · ( ⋃_{q' ∈ δ(q, a)} A(q', ℓ-1) )

where ``A(q, ℓ)`` is the set of length-ℓ strings accepted *from* state q.
The outer combination over letters is a disjoint union (counts add
exactly); only the inner same-letter union needs estimation.  For every
(state, length) pair, reached lazily from the initial states downward,
the evaluator builds a *node* that knows its (estimated) cardinality and
can draw approximately-uniform samples:

- **exact nodes** know the full language while it fits within
  ``exact_set_cap`` — mirroring how the ACJR sketches stay exact until
  they saturate — as a held tuple or as a recipe (a concatenation or a
  product of exact nodes) that builds one member by index, so a draw
  builds only the word it lands on;
- **product/sum nodes** represent letter-concatenation and the disjoint
  union across letters *lazily*: their counts combine arithmetically
  (no sampling error introduced) and their draws delegate downward, a
  chain of products and the sum picks between them in one loop;
- **union (Karp–Luby) nodes** handle overlapping same-letter successor
  sets: sample a component ∝ its estimated size, draw a string from it,
  accept iff the component is the canonically-first one containing the
  string (membership read off the bitmask of states accepting the
  string, which its cons cell carries).  Only these nodes consume
  samples and introduce error.

A word is a unary tree: the letter prefix ``a · A`` is the one-child
case of the tree product σ⟨A1 × … × Ak⟩, so CountNFTA
(:mod:`repro.automata.nfta_counting`), the same estimator over trees,
shares this module's nodes (:class:`_ProductNode`,
:class:`_ExactProduct`), member-weight rule
(:meth:`_CounterBase._exact_product`), union loop
(:func:`_karp_luby_union`), counter skeleton, runner
(:func:`_median_count`) and k-draw loop.  Nodes make their members
through a store — cons cells that carry their accepting states for
words (:class:`_Words`, one per plan), interned trees for CountNFTA —
and a chain draw ends in one ``store.make_chain`` call.  Each counter
supplies only its plan, its store, its membership test and its rule
for when a product is exact.
Every union sample and k-draw charges the active evaluation budget.

Error behaviour: each union estimate has relative standard deviation
``O(sqrt(m / K))`` (m overlapping components, K samples), and estimates
compound along the ≤ n levels of the recursion; the default sample count
grows with ``sqrt(n)/ε²`` so the compounded error concentrates below ε.
The full ACJR machinery achieves the same guarantee with worst-case
polynomial bounds; we trade their careful bookkeeping for simplicity and
validate accuracy against :meth:`repro.automata.nfa.NFA.count_exact` in
the test suite and the G1 benchmark.

Set ``exact_set_cap=0`` to force pure sampling (useful for exercising
the estimator on small automata where the hybrid would stay exact).
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, product
from operator import add
from typing import Hashable

from repro.automata.nfa import NFA
from repro.core.budget import budget_checkpoint
from repro.core.kernels import TickBatcher
from repro.errors import EstimationError, FloatRangeError
from repro.obs import span

__all__ = [
    "CountResult",
    "count_nfa",
    "probability_from_measure",
    "sample_accepted_strings",
    "scaled_count",
    "weighted_index",
]

State = Hashable
Symbol = Hashable

# A word is a cons-chain: () for the empty word, else (symbol id, rest,
# accepting states) (see _Words).  Cons cells share suffixes, so sample
# pools cost O(1) cells per entry.
_EMPTY = ()


def _materialize(cons) -> list:
    out = []
    while cons:
        out.append(cons[0])
        cons = cons[1]
    return out


def default_sample_count(length: int, epsilon: float) -> int:
    """Heuristic per-union sample count; see module docstring.  A
    length below 0 counts as 0 (nothing that short is ever drawn)."""
    return max(
        64, int(round(8.0 * math.sqrt(max(length, 0) + 1) / epsilon**2))
    )


@dataclass(frozen=True)
class CountResult:
    """Outcome of a counting run.

    ``exact`` is True when no Karp–Luby estimation was involved in the
    returned value, in which case ``estimate`` is the true cardinality.
    """

    estimate: float
    exact: bool
    samples_used: int

    def __float__(self) -> float:
        return float(self.estimate)

    @classmethod
    def of_exact(cls, measure) -> "CountResult":
        """An exact count's result: ``inf`` past the float range."""
        try:
            estimate = float(measure)
        except OverflowError:
            estimate = math.inf
        return cls(estimate=estimate, exact=True, samples_used=0)


def probability_from_measure(measure, denominator: int) -> float:
    """``measure / denominator`` clamped to 1 (an estimate above 1 is
    sampling error): a weighted count as a probability.  Past the float
    range an exact measure gives the correctly rounded ratio; a float
    measure that overflowed to ``inf`` raises
    :class:`~repro.errors.FloatRangeError`."""
    try:
        return min(float(measure) / denominator, 1.0)
    except OverflowError:
        if measure == math.inf:
            raise FloatRangeError(
                "the estimated measure and its denominator are both past "
                "the float range; an exact method gives the probability"
            ) from None
        return min(float(Fraction(measure) / denominator), 1.0)


def scaled_count(count, scale: int) -> float:
    """``count · scale`` (``scale = 2^|D \\ D'|`` in Theorems 2 and 3):
    ``inf`` past the float range."""
    try:
        return float(count) * scale
    except OverflowError:
        return math.inf if count else 0.0


def weighted_index(cumulative: list[float], pick: float) -> int:
    """The index a weighted draw lands on: the first cumulative weight
    ``>= pick``, clamped to the last entry (float rounding can put
    ``pick`` just past the final sum)."""
    return min(bisect_left(cumulative, pick), len(cumulative) - 1)


# ----------------------------------------------------------------------
# Evaluator nodes, shared with the CountNFTA estimator
# ----------------------------------------------------------------------

class _ExactNode:
    """Full language known: ``size`` distinct members, read by index.

    This class holds its members as a tuple (leaves, the result of
    :func:`_distinct`, ``_ZERO``).  Its subclasses hold a recipe
    instead — a concatenation (:class:`_ExactConcat`) or a product
    (:class:`_ExactProduct`, a letter prefix when unary) of exact
    children — so a draw builds only the member its index names, and
    the whole tuple is built only when :func:`_distinct` reads it.

    ``weights`` (one float per member) switches the node to the
    weighted measure: ``count`` is the total weight and draws are
    weight-proportional.  ``None`` means every member weighs 1 and
    draws are uniform.
    """

    __slots__ = (
        "size", "weights", "count", "exact", "_cumulative", "_members",
    )

    def __init__(self, members: tuple, weights: tuple | None = None):
        self._members = members
        self._measure(len(members), weights)

    def _measure(self, size: int, weights: tuple | None) -> None:
        self.size = size
        self.weights = weights
        self.exact = True
        self._cumulative = None
        # The weights summed left to right: the last running sum of
        # ``accumulate`` (``sum`` compensates float sums from Python
        # 3.12 on).
        if weights is None:
            self.count = float(size)
        else:
            self.count = reduce(add, weights) if weights else 0.0

    @property
    def members(self) -> tuple:
        """Every member, in index order."""
        return self._members

    def member(self, index: int):
        return self._members[index]

    def member_weights(self) -> tuple:
        if self.weights is None:
            return (1.0,) * self.size
        return self.weights

    def draw(self, rng: random.Random):
        if not self.size:
            raise EstimationError("drawing from an empty exact node")
        if self.weights is None:
            return self.member(rng.randrange(self.size))
        cumulative = self._cumulative
        if cumulative is None:
            cumulative = self._cumulative = list(accumulate(self.weights))
        return self.member(
            weighted_index(cumulative, rng.random() * self.count)
        )


class _ExactConcat(_ExactNode):
    """The disjoint union of exact ``parts``: their members in order,
    member i read from the part that holds index i (which keeps what it
    builds, so the concatenation needs no memo of its own).  The whole
    tuple is built on the first read of ``members`` and kept."""

    __slots__ = ("_parts", "_starts")

    def __init__(self, parts: list, weighted: bool):
        self._parts = parts
        self._members = None
        self._starts = list(
            accumulate((part.size for part in parts), initial=0)
        )
        weights = None
        if weighted:
            weights = tuple(
                w for part in parts for w in part.member_weights()
            )
        self._measure(self._starts[-1], weights)

    @property
    def members(self) -> tuple:
        held = self._members
        if held is None:
            held = self._members = tuple(chain.from_iterable(
                part.members for part in self._parts
            ))
        return held

    def member(self, index: int):
        at = bisect_right(self._starts, index) - 1
        return self._parts[at].member(index - self._starts[at])


class _Recipe(_ExactNode):
    """An exact node whose members are built from its children's.

    ``member(i)`` builds member i once and keeps it in a list of
    ``size`` slots, made on the first such read: a member drawn twice
    is built once.  ``members`` builds the whole tuple in bulk from the
    children's tuples on the first read, and keeps it.  A subclass
    supplies ``_resolve(i)`` and ``_build()``.
    """

    __slots__ = ("_memo",)

    def __init__(self, size: int, weights: tuple | None):
        self._memo = None
        self._members = None
        self._measure(size, weights)

    @property
    def members(self) -> tuple:
        held = self._members
        if held is None:
            held = self._members = self._build()
        return held

    def member(self, index: int):
        memo = self._memo
        if memo is None:
            if self._members is not None:
                return self._members[index]
            memo = self._memo = [None] * self.size
        found = memo[index]
        if found is None:
            found = memo[index] = self._resolve(index)
        return found


class _ExactProduct(_Recipe):
    """σ⟨A1 × … × Ak⟩ over exact children, its members in
    ``itertools.product`` order: child j of member i is child j's member
    ``i // Π_{m>j} size_m % size_j``.  A member is made in ``store``
    when it is first read; a word's letter prefix ``a · A`` is the unary
    case, whose member i is the cons cell of ``a`` before A's member
    i."""

    __slots__ = ("_store", "_symbol", "_children")

    def __init__(self, store, symbol: int, children: list, weights):
        self._store = store
        self._symbol = symbol
        self._children = children
        super().__init__(_product_size(children), weights)

    def _resolve(self, index: int):
        picked = []
        for child in reversed(self._children):
            index, digit = divmod(index, child.size)
            picked.append(child.member(digit))
        picked.reverse()
        return self._store.make(self._symbol, tuple(picked))

    def _build(self) -> tuple:
        return tuple(self._store.make_all(
            self._symbol,
            product(*[child.members for child in self._children]),
        ))


def _product_size(children) -> int:
    """Number of distinct members of an exact product (not the
    measure)."""
    size = 1
    for child in children:
        size *= child.size
    return size


class _PoolNode:
    """A Karp–Luby union result: estimate + accepted-sample pool."""

    __slots__ = ("count", "exact", "pool")

    def __init__(self, estimate: float, pool: list):
        self.count = estimate
        self.exact = False
        self.pool = pool

    def draw(self, rng: random.Random):
        if not self.pool:
            raise EstimationError("drawing from an empty sample pool")
        return self.pool[rng.randrange(len(self.pool))]


class _SumNode:
    """Lazy disjoint union: counts add exactly, draws pick ∝ weight."""

    __slots__ = ("parts", "cumulative", "count", "exact")

    def __init__(self, parts: list):
        self.parts = parts
        self.cumulative = list(accumulate(part.count for part in parts))
        self.count = self.cumulative[-1]
        self.exact = all(part.exact for part in parts)

    def draw(self, rng: random.Random):
        pick = rng.random() * self.count
        return self.parts[weighted_index(self.cumulative, pick)].draw(rng)


_ZERO = _ExactNode(())

#: Frontier bound for the exact-sweep fast path in :func:`count_nfa`.
_EXACT_SWEEP_FRONTIER = 64


def _distinct(nodes: list, weighted: bool) -> _ExactNode:
    """The union of exact ``nodes``: their distinct members in
    first-seen order.  A member's weight is a function of the member,
    so any copy's weight will do."""
    merged: dict = {}
    for node in nodes:
        for member, weight in zip(node.members, node.member_weights()):
            merged.setdefault(member, weight)
    return _ExactNode(
        tuple(merged), tuple(merged.values()) if weighted else None
    )


def _disjoint_sum(nodes: list, exact_set_cap: int, weighted: bool):
    """The disjoint union of ``nodes``: their concatenation while they
    are all exact and fit the cap, else a lazy sum."""
    if not nodes:
        return _ZERO
    if len(nodes) == 1:
        return nodes[0]
    if (
        exact_set_cap
        and all(isinstance(node, _ExactNode) for node in nodes)
        and sum(node.size for node in nodes) <= exact_set_cap
    ):
        return _ExactConcat(nodes, weighted)
    return _SumNode(nodes)


class _ProductNode:
    """Lazy σ⟨A1 × … × Ak⟩: counts multiply, draws combine through
    ``store``, which makes (and, for trees, interns) what they return.
    A word's letter prefix ``a · A`` is the unary case, whose ``child``
    is ``A`` (``None`` at any other arity)."""

    __slots__ = ("store", "symbol", "children", "child", "count", "exact")

    def __init__(
        self, store, symbol: int, children: list, symbol_weight: float
    ):
        self.store = store
        self.symbol = symbol
        self.children = children
        self.child = children[0] if len(children) == 1 else None
        count = symbol_weight
        for child in children:
            count *= child.count
        self.count = count
        self.exact = all(child.exact for child in children)

    def draw(self, rng: random.Random):
        """A product of two or more children (or none) draws each child
        in turn.  A unary one walks down the chain of unary products,
        and the sum picks between them, in one loop, then builds the
        chain with one ``store.make_chain`` call: a chain has no
        siblings, so the random stream is read in the order of one
        ``draw`` call per link."""
        node = self.child
        if node is None:
            return self.store.make(
                self.symbol,
                tuple([child.draw(rng) for child in self.children]),
            )
        symbols = [self.symbol]
        append = symbols.append
        while True:
            kind = type(node)
            if kind is _ProductNode and node.child is not None:
                append(node.symbol)
                node = node.child
            elif kind is _SumNode:
                node = node.parts[weighted_index(
                    node.cumulative, rng.random() * node.count
                )]
            else:
                break
        return self.store.make_chain(symbols, node.draw(rng))


class _Words:
    """Words as cons cells: CountNFA's store, one per plan.

    ``make(a, (w,))`` is the cell ``(a, w, states)``, where ``states``
    is the bitmask of the states accepting the word ``a · w``: one
    backward step (``backward[a][t]`` is the bitmask of states reaching
    state ``t`` on symbol ``a``) from ``w``'s mask, which for the empty
    word is the accepting mask.  A word thus carries what a union's
    membership test reads, and a rejected draw is freed with its union.
    A chain conses its letters, and exact products are recipes.
    """

    __slots__ = ("_backward", "_accepting")

    def __init__(self, backward: list, accepting_mask: int):
        self._backward = backward
        self._accepting = accepting_mask

    def states(self, word) -> int:
        """The bitmask of the states accepting ``word``."""
        return word[2] if word else self._accepting

    def make(self, symbol: int, children: tuple):
        return self.make_chain((symbol,), children[0])

    def make_all(self, symbol: int, combos) -> list:
        make_chain = self.make_chain
        letter = (symbol,)
        return [make_chain(letter, word) for (word,) in combos]

    def make_chain(self, symbols, word):
        """The word ``symbols · word``: the letters consed on last to
        first, each cell's mask one backward step from its suffix's,
        walked a state bit at a time."""
        mask = self.states(word)
        backward = self._backward
        for symbol in reversed(symbols):
            table = backward[symbol]
            sources = 0
            while mask:
                low = mask & -mask
                sources |= table.get(low.bit_length() - 1, 0)
                mask ^= low
            mask = sources
            word = (symbol, word, mask)
        return word

    def exact_product(self, symbol: int, children, weights):
        return _ExactProduct(self, symbol, children, weights)


# ----------------------------------------------------------------------
# The shared estimator: union loop, counter skeleton, runner
# ----------------------------------------------------------------------

def _karp_luby_union(components, held_earlier, samples, rng, phase, metric):
    """Karp–Luby estimate of the measure of a union of overlapping
    ``components`` (nodes with a ``count`` and a ``draw(rng)``).

    An attempt picks a component ∝ its count and draws from it; the
    draw is accepted iff ``held_earlier(index, item)`` is false, i.e.
    at the first component holding it (the drawn one holds it, so only
    earlier ones are asked).  After ``samples`` attempts it stops at the
    first acceptance, giving up at ``samples * (1 + len(components))``.
    Every attempt ticks ``phase``'s budget and ``metric``.  Returns the
    estimate, the accepted pool and the attempt count.
    """
    cumulative = list(accumulate(node.count for node in components))
    total_weight = cumulative[-1]
    pool: list = []
    attempts = 0
    max_attempts = samples * (1 + len(components))
    batcher = TickBatcher(phase, metric)
    try:
        while attempts < samples or (not pool and attempts < max_attempts):
            attempts += 1
            batcher.tick()
            index = weighted_index(cumulative, rng.random() * total_weight)
            item = components[index].draw(rng)
            if not held_earlier(index, item):
                pool.append(item)
    finally:
        batcher.flush()
    if not pool:
        raise EstimationError(
            "union estimation rejected every sample; "
            "component estimates are inconsistent"
        )
    return total_weight * len(pool) / attempts, pool, attempts


class _CounterBase:
    """One run of the estimator over a seed-free plan, shared by
    CountNFA and CountNFTA.

    ``top_node`` builds one node per ``plan.cells`` entry, in order,
    with a budget checkpoint before each.  A subclass supplies
    ``_store`` (what makes its words or trees), ``_compute(cell,
    values)`` (a cell's node, from the nodes of the cells before it),
    ``_root(values)``, and the budget phases and counters of its unions
    (``_phase``, ``_metric``) and of its k-draw loop (``_draw_phase``,
    ``_draw_metric``).
    """

    def __init__(
        self, plan, size: int, epsilon: float, samples: int | None,
        exact_set_cap: int, rng: random.Random, weight_of=None,
    ):
        self._plan = plan
        self._size = size
        self._samples = samples or default_sample_count(size, epsilon)
        self._cap = exact_set_cap
        self._rng = rng
        self._weights = None
        if weight_of is not None:
            self._weights = [1.0] * len(plan.symbols)
            for symbol in plan.used_symbols:
                literal = plan.symbols[symbol]
                try:
                    self._weights[symbol] = float(weight_of(literal))
                except OverflowError:
                    raise FloatRangeError(
                        f"the weight of {literal} is past the float range; "
                        "an exact method gives the probability"
                    ) from None
        self.samples_used = 0

    def _symbol_weight(self, symbol: int) -> float:
        if self._weights is None:
            return 1.0
        return self._weights[symbol]

    def _exact_product(self, symbol: int, children: list):
        """σ⟨A1 × … × Ak⟩ over exact ``children``, as the store makes
        it.  A member weighs its symbol's weight times its children's
        weights, left to right (``None`` unweighted)."""
        weights = None
        if self._weights is not None:
            symbol_weight = self._weights[symbol]
            if len(children) == 1:
                weights = tuple([
                    symbol_weight * weight
                    for weight in children[0].member_weights()
                ])
            else:
                products = []
                for child_weights in product(
                    *[child.member_weights() for child in children]
                ):
                    weight = symbol_weight
                    for child_weight in child_weights:
                        weight *= child_weight
                    products.append(weight)
                weights = tuple(products)
        return self._store.exact_product(symbol, children, weights)

    def run(self) -> CountResult:
        top = self.top_node()
        return CountResult(
            estimate=top.count,
            exact=top.exact,
            samples_used=self.samples_used,
        )

    def top_node(self):
        sys.setrecursionlimit(
            max(sys.getrecursionlimit(), 10 * self._size + 10_000)
        )
        values: list = []
        for cell in self._plan.cells:
            budget_checkpoint(self._phase)
            values.append(self._compute(cell, values))
        return self._root(values)

    def draw(self, k: int) -> list:
        """``k`` draws from the top node, on the run's RNG."""
        top = self.top_node()
        if top.count <= 0:
            raise EstimationError(
                "language is (estimated) empty; cannot sample"
            )
        drawn: list = []
        with span(self._draw_phase, k=k):
            batcher = TickBatcher(self._draw_phase, self._draw_metric)
            try:
                for _ in range(k):
                    batcher.tick()
                    drawn.append(top.draw(self._rng))
            finally:
                batcher.flush()
        return drawn


def _check_arguments(
    epsilon: float, samples: int | None = None, repetitions: int = 1,
    k: int = 0,
) -> None:
    """The argument checks every counting and k-draw entry point makes,
    before any work (``k`` is the draw count of a k-draw one)."""
    if not 0 < epsilon < 1:
        raise EstimationError(f"epsilon must be in (0, 1), got {epsilon}")
    if repetitions < 1:
        raise EstimationError("repetitions must be >= 1")
    if samples is not None and samples < 1:
        raise EstimationError("samples must be >= 1")
    if k < 0:
        raise EstimationError(f"k must be >= 0, got {k}")


def _check_length(length: int) -> None:
    if length < 0:
        raise EstimationError(f"length must be >= 0, got {length}")


def _median_count(
    prepare, phase: str, epsilon: float, samples: int | None,
    repetitions: int, seed: int | None, **tags,
) -> CountResult:
    """The repetition runner behind :func:`count_nfa` and
    :func:`~repro.automata.nfta_counting.count_nfta`.

    Checks the arguments they share (:func:`_check_arguments`), then
    calls ``prepare()`` for the seed-free work: it returns the answer
    when no sampling is needed, else a factory ``rng → counter``.  Each
    repetition runs a fresh counter on its own RNG stream, all seeded up
    front from ``seed``, inside one ``phase`` span; the answer is the
    median estimate.
    """
    _check_arguments(epsilon, samples, repetitions)
    new_counter = prepare()
    if isinstance(new_counter, CountResult):
        return new_counter
    rng = random.Random(seed)
    seeds = [rng.randrange(2**63) for _ in range(repetitions)]
    with span(phase, **tags, repetitions=repetitions):
        results = [new_counter(random.Random(s)).run() for s in seeds]
    results.sort(key=lambda r: r.estimate)
    median = results[len(results) // 2]
    return CountResult(
        estimate=median.estimate,
        exact=all(r.exact for r in results),
        samples_used=sum(r.samples_used for r in results),
    )


# ----------------------------------------------------------------------
# The seed-free plan and the counter
# ----------------------------------------------------------------------

class _WordPlan:
    """Seed-free preprocessing of one (NFA, length), shared by the
    repetitions of a :func:`count_nfa` call.

    States, symbols, letters, initial states and the accepting mask
    come from :attr:`NFA.compiled <repro.automata.nfa.NFA.compiled>`,
    numbered in ``str`` order, so sorting by id is the deterministic
    order the evaluator visits them in.  ``cells[i]`` describes the
    i-th needed (state, remaining) pair in evaluation order: for
    ``remaining == 0`` whether the state accepts, otherwise its letters
    as ``(symbol id, ((target id, pair index), …))``.  ``words`` is the
    word store (:class:`_Words`) over the automaton's backward table.
    """

    __slots__ = (
        "states", "symbols", "cells", "roots", "used_symbols", "words",
    )

    def __init__(self, nfa: NFA, length: int):
        compiled = nfa.compiled
        self.states = compiled.states
        self.symbols = compiled.symbols
        accepting_mask = compiled.accepting_mask
        letters = compiled.letters
        backward: list[dict[int, int]] = [{} for _ in self.symbols]
        for state, state_letters in enumerate(letters):
            for sid, targets in state_letters:
                table = backward[sid]
                for target in targets:
                    table[target] = table.get(target, 0) | 1 << state
        self.words = _Words(backward, accepting_mask)

        needed: set[tuple[int, int]] = set()
        stack = [(q, length) for q in compiled.initial]
        while stack:
            pair = stack.pop()
            if pair in needed:
                continue
            needed.add(pair)
            state, remaining = pair
            if remaining:
                for _sid, targets in letters[state]:
                    for target in targets:
                        stack.append((target, remaining - 1))
        pairs = sorted(needed, key=lambda p: (p[1], p[0]))
        index = {pair: position for position, pair in enumerate(pairs)}
        used: set[int] = set()
        cells: list = []
        for state, remaining in pairs:
            if not remaining:
                cells.append(bool(accepting_mask >> state & 1))
                continue
            cell = []
            for sid, targets in letters[state]:
                used.add(sid)
                cell.append((sid, tuple(
                    (target, index[(target, remaining - 1)])
                    for target in targets
                )))
            cells.append(tuple(cell))
        self.cells = tuple(cells)
        self.used_symbols = tuple(sorted(used))
        self.roots = tuple(
            (state, index[(state, length)]) for state in compiled.initial
        )


class _Counter(_CounterBase):
    """CountNFA over a :class:`_WordPlan`."""

    _phase = "counting.nfa"
    _metric = "count_nfa.samples_drawn"
    _draw_phase = "sampling.strings"
    _draw_metric = "sampling.strings_drawn"

    def __init__(self, plan: _WordPlan, *args, **kwargs):
        super().__init__(plan, *args, **kwargs)
        self._store = plan.words

    def _root(self, values: list):
        return self._union(
            [(state, values[pair]) for state, pair in self._plan.roots],
            prefix_symbol=None,
        )

    def _compute(self, cell, values: list):
        if cell is True:
            return _ExactNode((_EMPTY,))
        if cell is False:
            return _ZERO
        letter_nodes = []
        for symbol, targets in cell:
            if self._symbol_weight(symbol) == 0:
                continue
            node = self._union(
                [(target, values[pair]) for target, pair in targets],
                prefix_symbol=symbol,
            )
            if node.count > 0:
                letter_nodes.append(node)
        return _disjoint_sum(
            letter_nodes, self._cap, self._weights is not None
        )

    # -- same-letter union (Karp–Luby) ---------------------------------

    def _wrap(self, node, prefix_symbol: int | None):
        """``a · node``, a unary product (or ``node`` itself at the
        virtual root): exact whenever ``node`` is, at any cap."""
        if prefix_symbol is None:
            return node
        if isinstance(node, _ExactNode):
            return self._exact_product(prefix_symbol, [node])
        return _ProductNode(
            self._store, prefix_symbol, [node],
            self._symbol_weight(prefix_symbol),
        )

    def _union(self, components, prefix_symbol: int | None):
        """Combine overlapping components ``A(q', ℓ-1)``, prefixing the
        letter (or nothing at the virtual root over initial states)."""
        components = [c for c in components if c[1].count > 0]
        if not components:
            return _ZERO
        if len(components) == 1:
            return self._wrap(components[0][1], prefix_symbol)

        if self._cap and all(
            isinstance(v, _ExactNode) for _, v in components
        ):
            total = sum(v.size for _, v in components)
            if total <= self._cap:
                # Dedupe in first-seen order; a word's weight is a
                # function of the word, so any copy's weight will do.
                merged = _distinct(
                    [value for _, value in components],
                    self._weights is not None,
                )
                return self._wrap(merged, prefix_symbol)

        # Component i holds a word iff its state accepts the word;
        # earlier[i] has the states of the components before i.
        earlier = [0]
        for state, _value in components[:-1]:
            earlier.append(earlier[-1] | 1 << state)
        states = self._store.states

        def held_earlier(index: int, word) -> bool:
            return index > 0 and bool(states(word) & earlier[index])

        estimate, pool, attempts = _karp_luby_union(
            [value for _, value in components], held_earlier,
            self._samples, self._rng, self._phase, self._metric,
        )
        self.samples_used += attempts
        # The pool keeps the accepted words; a draw from it gets the
        # letter (and the letter's weight scales the estimate) through
        # the unary product over it.
        return self._wrap(_PoolNode(estimate, pool), prefix_symbol)


def count_nfa(
    nfa: NFA,
    length: int,
    epsilon: float = 0.25,
    seed: int | None = None,
    samples: int | None = None,
    exact_set_cap: int = 4096,
    repetitions: int = 1,
    weight_of=None,
) -> CountResult:
    """Estimate ``|L_n(M)|`` — the paper's CountNFA black box.

    Parameters
    ----------
    epsilon:
        Target relative error; drives the default per-union sample count.
    samples:
        Override the per-union sample count directly (at least 1).
    exact_set_cap:
        Languages at most this large are tracked exactly instead of
        sampled (0 disables the hybrid and forces sampling everywhere).
        A positive cap also enables the bounded exact subset-DP sweep
        that runs before any sampling: automata whose determinized
        frontier stays small — in particular every empty-language and
        probability-0/1 edge case — return their true (weighted) count
        with ``exact=True`` and zero samples.
    repetitions:
        Run the estimator this many times and return the median — the
        standard confidence amplification.

    Returns
    -------
    CountResult
        ``estimate`` is within ``(1 ± ε)`` of ``|L_n|`` with high
        probability; ``exact`` marks runs whose value involved no
        sampling at all.

    The sweep, the plan cells and the union samples all charge the
    active evaluation budget under the phase ``counting.nfa``.
    """

    def prepare():
        _check_length(length)
        if exact_set_cap > 0:
            # Bounded exact sweep first: languages whose determinized
            # frontier stays tiny (notably the structurally-trivial
            # cases — empty languages, and total/self-loop-only automata
            # whose weighted measure pins the probability at 0 or 1) get
            # the true count, never an estimate.  The frontier bound
            # keeps the attempt O(cap · n · |Σ|), so nontrivial automata
            # bail out after a few layers and sample as before.
            measure = nfa.count_exact(
                length,
                weight_of=weight_of,
                max_subsets=min(_EXACT_SWEEP_FRONTIER, exact_set_cap),
            )
            if measure is not None:
                return CountResult.of_exact(measure)
        plan = _WordPlan(nfa, length)
        return lambda rng: _Counter(
            plan, length, epsilon, samples, exact_set_cap, rng,
            weight_of=weight_of,
        )

    return _median_count(
        prepare, "counting.nfa", epsilon, samples, repetitions, seed,
        length=length,
    )


def sample_accepted_strings(
    nfa: NFA,
    length: int,
    k: int,
    epsilon: float = 0.25,
    seed: int | None = None,
    exact_set_cap: int = 4096,
    weight_of=None,
) -> list[tuple]:
    """Draw ``k`` approximately-uniform members of ``L_n(M)``.

    Uses the same machinery and argument checks as :func:`count_nfa`
    (the ACJR result is simultaneously a counter and an almost-uniform
    generator).  With ``weight_of``, draws are approximately
    weight-proportional.
    """
    _check_arguments(epsilon, k=k)
    _check_length(length)
    plan = _WordPlan(nfa, length)
    counter = _Counter(
        plan, length, epsilon, None, exact_set_cap, random.Random(seed),
        weight_of=weight_of,
    )
    symbols = plan.symbols
    return [
        tuple(symbols[s] for s in _materialize(word))
        for word in counter.draw(k)
    ]
