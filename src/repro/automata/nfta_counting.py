"""CountNFTA: exact and approximate counting of ``|L_n(T)|``.

The paper's second black box is the FPRAS of Arenas, Croquevielle,
Jayaram and Riveros ("When is approximate counting for conjunctive
queries tractable?", STOC 2021) for counting the trees of size n accepted
by an NFTA.  This module provides:

- :func:`count_nfta_exact` — ground truth via bottom-up determinization
  with a size-indexed convolution DP (worst-case exponential in |S|, fine
  on the validation instances); and
- :func:`count_nfta` — the FPRAS, mirroring
  :mod:`repro.automata.nfa_counting` lifted from string concatenation to
  tree composition.  The decomposition underlying the estimator is

      A(q, s) = ⨄_{(σ, k, s̄)}  ⋃_{τ = (q, σ, (q1..qk)) ∈ Δ}
                    σ⟨ A(q1, s̄1) × … × A(qk, s̄k) ⟩

  where ``A(q, s)`` is the set of size-s trees derivable from q and s̄
  ranges over the compositions of s−1 into k parts.  Two components with
  different root symbol, arity, or size split produce *different* trees
  (a tree determines its children's sizes), so those unions are disjoint
  and their counts add exactly; only same-(σ, k, s̄) components overlap
  and need the Karp–Luby estimator.  Component sets are products, whose
  estimates multiply and whose samples combine independent child draws.

The evaluator is the string counter's DAG of nodes
(:mod:`repro.automata.nfa_counting`), where a word is a unary tree:
exact nodes (the full language, up to ``exact_set_cap`` trees, held or
as a product recipe whose trees are interned only when a draw or a
dedup reads them), lazy product and disjoint-sum nodes whose counts
combine arithmetically (a draw walks a chain of unary products in one
loop and interns it with one ``make_chain`` call), and Karp–Luby pool
nodes — the only place sampling error enters.  Those nodes, the
member-weight rule (a member weighs its symbol's weight times its
children's weights, left to right, the rule lazy products use for
their counts), the union loop that fills the pools, the counter
skeleton, the median-of-repetitions runner and the k-draw loop are all
the string counter's; this module supplies the plan, the tree stores
and their membership tests, and two rules: a product is exact when its
children are and it fits the cap, and merged members are deduplicated
in first-seen order.

Every entry point takes a ``backend`` name (default ``"optimized"``;
see :mod:`repro.core.kernels` and ``docs/performance.md``).  For the
exact DP the optimized backend runs the layer table
:func:`repro.core.kernels.layer_table` picks over dense pruned bitmask
indexes with layers memoized on the automaton — the numpy table when
numpy is importable, the scalar one otherwise; exact arithmetic keeps
both bitwise-equal to the reference (float weights fall back to the
reference DP).  The sampler is one loop over one seed-free plan
(:class:`_CounterPlan`, built on the compiled
:class:`~repro.automata.optimize.DenseNFTA`); a backend only picks how
sampled trees are stored — :class:`LabeledTree` objects with
derivability folded bottom-up from :meth:`NFTA.derived
<repro.automata.nfta.NFTA.derived>`, and exact products built in full,
for ``reference``; interned integer ids with top-down membership over
dense states, and exact products as recipes, for the optimized
backend — so estimates
and sampled trees are bitwise-identical across backends, and none of
them depends on the interpreter's hash seed.  The differential suite
(``tests/test_kernel_differential.py``) enforces this equivalence
across every backend name and both layer tables.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Hashable, Iterator

from repro.automata.nfa_counting import (
    CountResult,
    _check_arguments,
    _CounterBase,
    _disjoint_sum,
    _distinct,
    _ExactNode,
    _ExactProduct,
    _karp_luby_union,
    _median_count,
    _PoolNode,
    _product_size,
    _ProductNode,
    _ZERO,
)
from repro.automata.nfta import NFTA
from repro.automata.optimize import DenseNFTA, optimize_nfta
from repro.automata.trees import LabeledTree
from repro.core.budget import budget_checkpoint
from repro.errors import AutomatonError
from repro.obs import metric_inc, span
from repro.testing.faults import fault_point

__all__ = ["count_nfta_exact", "count_nfta", "sample_accepted_trees"]

State = Hashable
Symbol = Hashable


# ----------------------------------------------------------------------
# Exact counting via bottom-up determinization
# ----------------------------------------------------------------------

def count_nfta_exact(nfta: NFTA, size: int, weight_of=None, backend=None):
    """``|L_n(T)|`` exactly — or its *weighted* generalisation.

    Bottom-up subset construction: every tree evaluates deterministically
    to the *full* set of states deriving it, so counting trees per
    (size, subset) cell and summing cells containing ``s_init`` is exact
    even for ambiguous automata.

    With ``weight_of`` (a symbol → weight function), each tree
    contributes ``Π weight_of(label)`` over its nodes instead of 1 —
    the weighted tree measure that lets Theorem 1 skip the comparator
    gadgets entirely (``Pr_H(Q) = measure / d`` on the plain UR
    automaton; see :func:`repro.core.pqe_estimate.pqe_estimate` with
    ``method='exact-weighted'``).  Weights may be ints, Fractions, or
    floats; the result type follows the weights (int when unweighted).

    ``backend='optimized'`` (the default; ``'vectorized'`` is another
    spelling of it) runs the layer DP of :mod:`repro.core.kernels` over
    the pruned dense automaton, with layers memoized on the automaton's
    compiled form: the numpy table when numpy is importable,
    the scalar one otherwise.  Exact arithmetic makes the result
    bitwise-equal to the reference.  Float weights (whose summation
    order matters) automatically use the reference DP.  The
    ``counting.nfta_exact`` span's ``table`` tag says which DP ran:
    ``reference``, ``scalar`` or ``numpy``.
    """
    from repro.core import kernels

    backend = kernels.resolve_backend(backend)
    if nfta.has_lambda:
        raise AutomatonError("count_nfta_exact requires a λ-free NFTA")
    if size < 1:
        return 0
    fault_point("counting.nfta")
    weigh = weight_of if weight_of is not None else (lambda _symbol: 1)

    table = None
    if backend != "reference":
        budget_checkpoint("counting.nfta")
        table = kernels.layer_table(nfta, weigh)
    name = "reference" if table is None else table.name
    with span("counting.nfta_exact", size=size, table=name):
        if table is None:
            return _count_nfta_exact_reference(nfta, size, weigh)
        result = table.count(
            size, checkpoint=lambda: budget_checkpoint("counting.nfta")
        )
        # Keep the per-call ``dp_cells`` total equal to the reference's
        # one-increment-per-size, whether or not the layers came from
        # the shared table.
        metric_inc("count_nfta.dp_cells", size)
        return result


def _count_nfta_exact_reference(nfta: NFTA, size: int, weigh):
    """The seed implementation, verbatim: frozenset-keyed subset DP."""
    groups: dict[tuple[Symbol, int], list[tuple[State, tuple[State, ...]]]] = {}
    for source, symbol, children in nfta.transitions:
        groups.setdefault((symbol, len(children)), []).append(
            (source, children)
        )

    # table[s] maps frozenset-of-states -> total weight of size-s trees
    # evaluating to exactly that subset.
    table: list[dict[frozenset[State], object]] = [
        dict() for _ in range(size + 1)
    ]

    for s in range(1, size + 1):
        budget_checkpoint("counting.nfta")
        metric_inc("count_nfta.dp_cells")
        cell = table[s]
        for (symbol, arity), rules in groups.items():
            weight = weigh(symbol)
            if not weight:
                continue
            if arity == 0:
                if s == 1:
                    subset = frozenset(source for source, _ in rules)
                    cell[subset] = cell.get(subset, 0) + weight
                continue
            if s < arity + 1:
                continue
            for combo, count in _subset_combinations(table, arity, s - 1):
                evaluated = frozenset(
                    source
                    for source, children in rules
                    if all(
                        child in subset
                        for child, subset in zip(children, combo)
                    )
                )
                if evaluated:
                    cell[evaluated] = (
                        cell.get(evaluated, 0) + weight * count
                    )

    return sum(
        count
        for subset, count in table[size].items()
        if nfta.initial in subset
    )


def _subset_combinations(
    table: list[dict[frozenset[State], int]], arity: int, total: int
) -> Iterator[tuple[tuple[frozenset[State], ...], int]]:
    """All ordered subset tuples with sizes summing to ``total``."""

    def rec(
        position: int, remaining: int
    ) -> Iterator[tuple[tuple[frozenset[State], ...], int]]:
        slots_left = arity - position
        if slots_left == 0:
            if remaining == 0:
                yield ((), 1)
            return
        for s in range(1, remaining - (slots_left - 1) + 1):
            for subset, count in table[s].items():
                for rest, rest_count in rec(position + 1, remaining - s):
                    yield ((subset,) + rest, count * rest_count)

    yield from rec(0, total)


# ----------------------------------------------------------------------
# The seed-free plan
# ----------------------------------------------------------------------

class _CounterPlan:
    """Seed-free preprocessing of one (automaton, size): what every
    backend's sampling loop runs over.

    Built on the :class:`~repro.automata.optimize.DenseNFTA` integer
    states and symbols.  ``cells[i]`` is the i-th needed (state, size)
    pair in evaluation order, as its ``(symbol id, members)`` groups —
    one group per (symbol, arity, size split) — and each member as
    ``(child pair indices, child state ids)``; ``root`` indexes
    ``(s_init, size)`` (``None``: no accepted tree of that size).  Pairs
    sort by (size, ``str(state)``), groups by (``str(symbol)``, arity,
    split) and members by their children's ``str``: orders of the
    original labels, hence the same on every backend; the optimized
    ones keep it on :attr:`NFTA.compiled
    <repro.automata.nfta.NFTA.compiled>`.  ``derivations[q]`` maps
    a symbol id to the child-state tuples of state q's rules — the
    interned tree store's membership tables.
    """

    __slots__ = (
        "states", "symbols", "used_symbols", "cells", "root", "derivations",
    )

    def __init__(self, nfta: NFTA, dense: DenseNFTA, size: int):
        self.states = dense.states
        self.symbols = dense.symbols
        state_id = {state: index for index, state in enumerate(dense.states)}
        symbol_id = {
            symbol: index for index, symbol in enumerate(dense.symbols)
        }
        derivations: list[dict[int, list]] = [{} for _ in dense.states]
        for source, symbol, children in dense.transitions:
            derivations[state_id[source]].setdefault(
                symbol_id[symbol], []
            ).append(tuple(state_id[c] for c in children))
        self.derivations = tuple(
            {symbol: tuple(found) for symbol, found in by_symbol.items()}
            for by_symbol in derivations
        )
        self.used_symbols: tuple[int, ...] = ()
        self.cells: tuple = ()
        self.root: int | None = None
        if size < 1:  # no tree is that small
            return
        sizes = nfta.possible_sizes(size)
        masks = [sizes.get(state, 0) for state in dense.states]
        if not masks[0] >> size & 1:
            return
        memo: dict = {}

        def splits(children: tuple[int, ...], total: int) -> tuple:
            key = (children, total)
            cached = memo.get(key)
            if cached is None:
                cached = memo[key] = tuple(
                    _iter_splits(masks, children, total)
                )
            return cached

        def rules(state: int):
            for symbol, found in self.derivations[state].items():
                for children in found:
                    yield symbol, children

        needed: set[tuple[int, int]] = set()
        stack = [(0, size)]
        while stack:
            pair = stack.pop()
            if pair in needed:
                continue
            budget_checkpoint("counting.nfta")
            needed.add(pair)
            state, s = pair
            for _symbol, children in rules(state):
                for split in splits(children, s - 1):
                    stack.extend(zip(children, split))
        names = [str(state) for state in dense.states]
        symbol_names = [str(symbol) for symbol in dense.symbols]
        pairs = sorted(needed, key=lambda p: (p[1], names[p[0]]))
        index = {pair: position for position, pair in enumerate(pairs)}

        used: set[int] = set()
        cells = []
        for state, s in pairs:
            budget_checkpoint("counting.nfta")
            grouped: dict[tuple, list] = {}
            for symbol, children in rules(state):
                for split in splits(children, s - 1):
                    grouped.setdefault((symbol, split), []).append(children)
            groups = []
            for symbol, split in sorted(
                grouped,
                key=lambda k: (symbol_names[k[0]], len(k[1]), k[1]),
            ):
                used.add(symbol)
                members = sorted(
                    grouped[(symbol, split)],
                    key=lambda children: [names[c] for c in children],
                )
                groups.append((symbol, tuple(
                    (tuple(index[pair] for pair in zip(children, split)),
                     children)
                    for children in members
                )))
            cells.append(tuple(groups))
        self.cells = tuple(cells)
        self.root = index[(0, size)]
        self.used_symbols = tuple(sorted(used))


def _iter_splits(
    size_masks: list[int], children: tuple[int, ...], total: int
) -> Iterator[tuple[int, ...]]:
    """Size compositions of ``total`` consistent with the child size
    masks, in lexicographic order."""
    if total < 0:
        return
    if not children:
        if total == 0:
            yield ()
        return
    masks = [size_masks[c] for c in children]
    suffix = [0] * (len(children) + 1)
    suffix[len(children)] = 1  # {0}
    for i in range(len(children) - 1, -1, -1):
        suffix[i] = _sumset(masks[i], suffix[i + 1], total)

    def rec(index: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if index == len(children):
            if remaining == 0:
                yield ()
            return
        if remaining < 0 or not (suffix[index] >> remaining) & 1:
            return
        mask = masks[index]
        s = 1
        while (1 << s) <= mask and s <= remaining:
            if (mask >> s) & 1 and (
                (suffix[index + 1] >> (remaining - s)) & 1
            ):
                for rest in rec(index + 1, remaining - s):
                    yield (s,) + rest
            s += 1

    yield from rec(0, total)


def _sumset(mask_a: int, mask_b: int, limit: int) -> int:
    """Bitmask of { a + b : bit a of mask_a, bit b of mask_b }, ≤ limit."""
    out = 0
    limit_mask = (1 << (limit + 1)) - 1
    remaining = mask_a
    offset = 0
    while remaining:
        if remaining & 1:
            out |= mask_b << offset
        remaining >>= 1
        offset += 1
    return out & limit_mask


# ----------------------------------------------------------------------
# Tree stores: how a backend represents sampled trees
# ----------------------------------------------------------------------

class _InternedTrees:
    """Sampled trees as interned integer ids (``optimized`` and
    ``vectorized``).

    A run gets one id per distinct (symbol id, child ids), so equal
    trees share an id and dedup, interning and memo lookups hash small
    integer tuples.  Membership is decided top-down over the dense
    automaton's integer states, for the states actually asked about,
    and memoized per (tree, state).
    """

    __slots__ = ("_plan", "_ids", "_nodes", "_width", "_derives", "_labeled")

    def __init__(self, plan: _CounterPlan):
        self._plan = plan
        self._ids: dict[tuple, int] = {}
        self._nodes: list[tuple[int, tuple[int, ...]]] = []
        self._width = len(plan.states)
        self._derives: dict[int, bool] = {}
        self._labeled: dict[int, LabeledTree] = {}

    def make(self, symbol: int, children: tuple[int, ...]) -> int:
        key = (symbol, children)
        tree = self._ids.get(key)
        if tree is None:
            tree = self._ids[key] = len(self._nodes)
            self._nodes.append(key)
        return tree

    def make_all(self, symbol: int, combos) -> list[int]:
        """:meth:`make` over many child tuples (an exact product)."""
        ids = self._ids
        nodes = self._nodes
        fresh = len(nodes)
        out = []
        for children in combos:
            key = (symbol, children)
            tree = ids.setdefault(key, fresh)
            if tree == fresh:
                nodes.append(key)
                fresh += 1
            out.append(tree)
        return out

    def make_chain(self, symbols: list, tree: int) -> int:
        """The unary chain ``symbols[0](symbols[1](… tree))``, interned
        bottom-up in one call."""
        ids = self._ids
        nodes = self._nodes
        for symbol in reversed(symbols):
            key = (symbol, (tree,))
            found = ids.get(key)
            if found is None:
                found = ids[key] = len(nodes)
                nodes.append(key)
            tree = found
        return tree

    def exact_product(self, symbol: int, children, weights):
        """σ⟨A1 × … × Ak⟩ over exact children, as a recipe: its trees
        are interned when a draw or a dedup reads them."""
        return _ExactProduct(self, symbol, children, weights)

    def derives(self, state: int, tree: int) -> bool:
        """Whether dense state ``state`` derives ``tree``."""
        key = tree * self._width + state
        known = self._derives.get(key)
        if known is None:
            symbol, children = self._nodes[tree]
            known = False
            for rule in self._plan.derivations[state].get(symbol, ()):
                if len(rule) == len(children) and all(
                    map(self.derives, rule, children)
                ):
                    known = True
                    break
            self._derives[key] = known
        return known

    def derived_by_any(self, keys, tree: int) -> bool:
        """Whether the children of some member of ``keys`` (tuples of
        child state ids) derive ``tree``'s children."""
        children = self._nodes[tree][1]
        derives = self.derives
        for key in keys:
            if all(map(derives, key, children)):
                return True
        return False

    def labeled(self, tree: int) -> LabeledTree:
        out = self._labeled.get(tree)
        if out is None:
            symbol, children = self._nodes[tree]
            out = self._labeled[tree] = LabeledTree(
                self._plan.symbols[symbol],
                tuple([self.labeled(c) for c in children]),
            )
        return out


class _LabeledTrees:
    """Sampled trees as :class:`LabeledTree` objects (``reference``).

    Membership folds :meth:`NFTA.derived` over the original automaton,
    bottom-up, with each tree's derivable states memoized by identity
    (every tree is interned here, so its id stays unique): the oracle
    the differential tier holds the interned store to.  Trees are
    interned by (symbol, child identities) so that memo keeps hitting
    across draws.
    """

    __slots__ = ("_plan", "_nfta", "_intern", "_derivable")

    def __init__(self, plan: _CounterPlan, nfta: NFTA):
        self._plan = plan
        self._nfta = nfta
        self._intern: dict[tuple, LabeledTree] = {}
        self._derivable: dict[int, frozenset[State]] = {}

    def make(self, symbol: int, children: tuple) -> LabeledTree:
        key = (symbol, tuple(map(id, children)))
        tree = self._intern.get(key)
        if tree is None:
            tree = self._intern[key] = LabeledTree(
                self._plan.symbols[symbol], children
            )
        return tree

    def make_all(self, symbol: int, combos) -> list[LabeledTree]:
        return [self.make(symbol, children) for children in combos]

    def make_chain(self, symbols: list, tree: LabeledTree) -> LabeledTree:
        for symbol in reversed(symbols):
            tree = self.make(symbol, (tree,))
        return tree

    def exact_product(self, symbol: int, children, weights) -> _ExactNode:
        """σ⟨A1 × … × Ak⟩ over exact children, materialised: the oracle
        builds every tree of an exact product when it is made."""
        return _ExactNode(
            tuple(self.make_all(
                symbol, product(*[child.members for child in children])
            )),
            weights,
        )

    def _states(self, tree: LabeledTree) -> frozenset[State]:
        found = self._derivable.get(id(tree))
        if found is None:
            found = self._derivable[id(tree)] = self._nfta.derived(
                tree.label, [self._states(child) for child in tree.children]
            )
        return found

    def derived_by_any(self, keys, tree: LabeledTree) -> bool:
        if not keys:
            return False
        child_sets = [self._states(c) for c in tree.children]
        states = self._plan.states
        return any(
            all(
                states[state] in child_set
                for state, child_set in zip(key, child_sets)
            )
            for key in keys
        )

    @staticmethod
    def labeled(tree: LabeledTree) -> LabeledTree:
        return tree


def _sampler(nfta: NFTA, size: int, backend: str):
    """The plan and a tree-store factory for ``backend``: the only
    per-backend choice the sampler makes."""
    if nfta.has_lambda:
        raise AutomatonError("count_nfta requires a λ-free NFTA")
    if backend == "reference":
        plan = _CounterPlan(nfta, optimize_nfta(nfta), size)
        return plan, lambda: _LabeledTrees(plan, nfta)
    dense = nfta.compiled
    plan = dense.memoized(
        ("plan", size), lambda: _CounterPlan(nfta, dense, size)
    )
    return plan, lambda: _InternedTrees(plan)


# ----------------------------------------------------------------------
# The estimator
# ----------------------------------------------------------------------

class _TreeCounter(_CounterBase):
    """CountNFTA over a :class:`_CounterPlan`; sampled trees live in
    ``store``."""

    _phase = "counting.nfta"
    _metric = "count_nfta.samples_drawn"
    _draw_phase = "sampling.trees"
    _draw_metric = "sampling.trees_drawn"

    def __init__(self, plan: _CounterPlan, store, *args, **kwargs):
        super().__init__(plan, *args, **kwargs)
        self._store = store

    def _root(self, values: list):
        root = self._plan.root
        return _ZERO if root is None else values[root]

    # -- per-(state, size) computation ------------------------------------

    def _compute(self, groups, values: list):
        metric_inc("count_nfta.dp_cells")
        # Groups (symbol, arity, split) are disjoint; members within a
        # group overlap.
        group_nodes = []
        for symbol, members in groups:
            node = self._group_union(symbol, members, values)
            if node.count > 0:
                group_nodes.append(node)
        return _disjoint_sum(
            group_nodes, self._cap, self._weights is not None
        )

    def _group_union(self, symbol: int, members, values: list):
        components = []
        for pairs, children in members:
            child_values = [values[pair] for pair in pairs]
            if all(value.count > 0 for value in child_values):
                components.append((children, child_values))
        if not components:
            return _ZERO

        if len(components) == 1:
            return self._product(symbol, components[0][1])

        if self._cap and all(
            isinstance(v, _ExactNode)
            for _, child_values in components
            for v in child_values
        ):
            total_trees = sum(
                _product_size(child_values) for _, child_values in components
            )
            if total_trees <= self._cap:
                return _distinct(
                    [
                        self._exact_product(symbol, child_values)
                        for _, child_values in components
                    ],
                    self._weights is not None,
                )

        symbol_weight = self._symbol_weight(symbol)
        store = self._store
        keys = [children for children, _ in components]
        derived_by_any = store.derived_by_any
        estimate, pool, attempts = _karp_luby_union(
            [
                _ProductNode(store, symbol, child_values, symbol_weight)
                for _, child_values in components
            ],
            lambda index, tree: derived_by_any(keys[:index], tree),
            self._samples, self._rng, self._phase, self._metric,
        )
        self.samples_used += attempts
        return _PoolNode(estimate, pool)

    # -- products ----------------------------------------------------------

    def _product(self, symbol: int, child_values):
        symbol_weight = self._symbol_weight(symbol)
        count = symbol_weight
        for value in child_values:
            count *= value.count
        if count <= 0:
            return _ZERO
        if (
            self._cap
            and all(isinstance(v, _ExactNode) for v in child_values)
            and _product_size(child_values) <= self._cap
        ):
            return self._exact_product(symbol, child_values)
        return _ProductNode(self._store, symbol, child_values, symbol_weight)


def count_nfta(
    nfta: NFTA,
    size: int,
    epsilon: float = 0.25,
    seed: int | None = None,
    samples: int | None = None,
    exact_set_cap: int = 4096,
    repetitions: int = 1,
    weight_of=None,
    backend=None,
) -> CountResult:
    """Estimate ``|L_n(T)|`` — the paper's CountNFTA black box.

    Same knobs, guarantees and repetition runner as
    :func:`repro.automata.nfa_counting.count_nfa`; see the module
    docstring for the estimator design.  With ``weight_of`` the
    estimate targets the weighted tree measure instead (see
    :func:`count_nfta_exact`); the ``exact`` flag then certifies the
    measure up to float rounding.

    Every backend runs the same loop over the same plan and differs
    only in its tree store: ``reference`` keeps :class:`LabeledTree`
    objects and frozenset derivability, ``optimized`` (also spelled
    ``vectorized``) interns trees as integer ids with dense-state
    bitmasks and keeps the plan on the automaton for later counts.
    Estimates, exact flags and sample counts are bitwise-identical
    across backends.
    """
    from repro.core import kernels

    backend = kernels.resolve_backend(backend)

    def prepare():
        fault_point("counting.nfta")
        plan, new_store = _sampler(nfta, size, backend)
        metric_inc("count_nfta.repetitions", repetitions)
        return lambda rng: _TreeCounter(
            plan, new_store(), size, epsilon, samples, exact_set_cap, rng,
            weight_of=weight_of,
        )

    return _median_count(
        prepare, "counting.nfta", epsilon, samples, repetitions, seed,
        size=size,
    )


def sample_accepted_trees(
    nfta: NFTA,
    size: int,
    k: int,
    epsilon: float = 0.25,
    seed: int | None = None,
    exact_set_cap: int = 4096,
    weight_of=None,
    backend=None,
) -> list[LabeledTree]:
    """Draw ``k`` approximately-uniform members of ``L_n(T)``.

    With ``weight_of``, draws are approximately weight-proportional
    instead of uniform.  The ``backend`` knob matches
    :func:`count_nfta`: for a fixed seed every backend returns the same
    trees in the same order.
    """
    from repro.core import kernels

    _check_arguments(epsilon, k=k)
    plan, new_store = _sampler(nfta, size, kernels.resolve_backend(backend))
    store = new_store()
    counter = _TreeCounter(
        plan, store, size, epsilon, None, exact_set_cap, random.Random(seed),
        weight_of=weight_of,
    )
    # Only the k results leave the store.
    return [store.labeled(tree) for tree in counter.draw(k)]
