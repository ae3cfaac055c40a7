"""Optimized counting kernels: backend names, shared layer DP, batching.

This module is the home of the ``optimized`` counting backend (see
``docs/performance.md``):

- :func:`resolve_backend` — validates the
  ``backend="reference"|"optimized"|"vectorized"`` name threaded
  through ``count_nfta_exact``, the estimators and
  :class:`~repro.core.estimator.PQEEngine`.  ``reference`` is the
  direct transcription of the paper's pseudocode, kept as the oracle;
  ``optimized`` is the one fast backend, and ``vectorized`` is another
  spelling of it;
- :func:`layer_table` — the exact layer-at-a-time bottom-up DP over the
  :class:`~repro.automata.optimize.DenseNFTA` bitmask indexes, and the
  only place that decides which table runs it: the numpy
  :class:`~repro.core.vectorized.VectorLayerTable` when numpy is
  importable, the scalar :class:`_LayerTable` otherwise.  A table is
  memoized on the automaton's compiled form
  (:attr:`~repro.automata.nfta.NFTA.compiled`) per table kind and
  symbol-weight vector, and its per-size layers are *extended in
  place*, so repeated counts of one automaton — across ``count_nfta``
  repetitions, and across batch items or daemon requests that share
  its reduction through a :class:`~repro.core.cache.ReductionCache` —
  pay only for sizes never seen before.  Integer and
  :class:`fractions.Fraction` weights sum order-independently, which is
  what makes the reorganized DP *bitwise* equal to the reference;
  float weights are order-sensitive, so there is no table for them and
  the caller runs the reference DP;
- :class:`TickBatcher` — chunked budget/metric accounting for the
  sampling hot loops (one ``budget_tick(phase, n)`` per chunk instead
  of ``n`` calls).  Totals are unchanged; with an active budget scope
  the chunk size drops to 1 so deadline/work enforcement keeps its
  per-sample granularity.

The module keeps no state of its own: a compiled form, its sampling
plans (:mod:`repro.automata.nfta_counting`) and its layer tables live
exactly as long as the automaton that holds them.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.automata.nfta import NFTA
from repro.automata.optimize import DenseNFTA
from repro.core.budget import active_budget, budget_tick
from repro.errors import ReproError
from repro.obs import metric_inc

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "TickBatcher",
    "add_layer_terms",
    "clear_kernel_caches",
    "layer_table",
    "resolve_backend",
]

#: ``"vectorized"`` names the same backend as ``"optimized"``; it stays
#: accepted because ``perfbench/cold.py`` passes it.
BACKENDS = ("reference", "optimized", "vectorized")
DEFAULT_BACKEND = "optimized"


def resolve_backend(backend: str | None) -> str:
    """Validate a backend name (``None`` means the default).

    Returns the name it was given; the engine stores it, so journal
    fingerprints keep it.  Raises a contextual
    :class:`~repro.errors.ReproError` for unknown names.
    """
    if backend is None:
        return DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ReproError(
            f"unknown kernel backend {backend!r}; choose from {BACKENDS}"
        )
    return backend


def clear_kernel_caches() -> None:
    """Nothing to clear: compiled forms, plans and layer tables live on
    their automata, so a freshly built automaton counts cold.  Kept
    because the repository benchmark calls it before every cold op."""


# ----------------------------------------------------------------------
# Layer-at-a-time exact DP over dense bitmasks
# ----------------------------------------------------------------------

def add_layer_terms(cell: dict, by_arity: dict, items, s: int) -> None:
    """Add the size-``s`` terms of the inner rule groups to ``cell``.

    ``by_arity`` maps an arity to its ``(group, weight)`` pairs and
    ``items(t)`` lists the ``(mask, count)`` pairs of the size-``t``
    layer.  Child-subset combinations are enumerated once per *arity*
    with the (symbol, arity) groups iterated innermost — the reference
    DP re-enumerates them per group — and combo evaluation memoizes per
    group.  Exact arithmetic keeps the regrouped summation
    bitwise-equal to the reference.
    """
    total = s - 1
    for arity, groups in by_arity.items():
        if s < arity + 1:
            continue
        if arity == 1:
            for mask, count in items(total):
                for group, weight in groups:
                    evaluated = group.evaluated1(mask)
                    if evaluated:
                        cell[evaluated] = (
                            cell.get(evaluated, 0) + weight * count
                        )
            continue
        if arity == 2:
            for left in range(1, total):
                left_items = items(left)
                right_items = items(total - left)
                for mask_a, count_a in left_items:
                    for mask_b, count_b in right_items:
                        count = count_a * count_b
                        for group, weight in groups:
                            evaluated = group.evaluated2(mask_a, mask_b)
                            if evaluated:
                                cell[evaluated] = (
                                    cell.get(evaluated, 0) + weight * count
                                )
            continue
        for combo, count in _combinations(items, arity, total):
            for group, weight in groups:
                evaluated = group.evaluated_mask(combo)
                if evaluated:
                    cell[evaluated] = (
                        cell.get(evaluated, 0) + weight * count
                    )


def _combinations(items, arity: int, total: int):
    """Ordered mask tuples with sizes summing to ``total`` (arity ≥ 3)
    — the dense mirror of the reference ``_subset_combinations``."""

    def rec(position: int, remaining: int):
        slots_left = arity - position
        if slots_left == 0:
            if remaining == 0:
                yield (), 1
            return
        for part in range(1, remaining - (slots_left - 1) + 1):
            for mask, count in items(part):
                for rest, rest_count in rec(position + 1, remaining - part):
                    yield (mask,) + rest, count * rest_count

    yield from rec(0, total)


class _LayerTable:
    """Memoized DP layers for one (automaton, weight vector): the scalar
    table, which runs when numpy is not importable.

    ``layers[s]`` maps a dense state bitmask to the total weight of
    size-``s`` trees evaluating to exactly that subset — the dense
    mirror of the reference DP's ``table[s]`` — and is extended on
    demand: a request for a larger size resumes from the last computed
    layer instead of starting over.
    """

    name = "scalar"

    __slots__ = (
        "_initial_bit", "_lock", "_layers", "_items", "_leaf_groups",
        "_by_arity",
    )

    def __init__(self, dense: DenseNFTA, weights: tuple):
        self._initial_bit = dense.initial_bit
        self._lock = threading.Lock()
        self._layers: list[dict[int, object]] = [{}]  # size 0 is empty
        self._items: list[list] = [[]]  # snapshot lists for enumeration
        # Zero-weight symbols contribute nothing; drop their groups once.
        self._leaf_groups: list = []
        self._by_arity: dict[int, list] = {}
        for group in dense.groups:
            weight = weights[group.symbol_id]
            if not weight:
                continue
            if group.arity == 0:
                self._leaf_groups.append((group, weight))
            else:
                self._by_arity.setdefault(group.arity, []).append(
                    (group, weight)
                )

    def count(self, size: int, checkpoint: Callable[[], None]):
        """Total weight of size-``size`` trees accepted from the initial
        state.  ``checkpoint`` runs once per newly computed layer so the
        caller's budget scope keeps its deadline granularity."""
        with self._lock:
            while len(self._layers) <= size:
                checkpoint()
                self._append_layer()
            layer = self._layers[size]
        initial_bit = self._initial_bit
        total = 0
        for mask, weight in layer.items():
            if mask & initial_bit:
                total += weight
        return total

    def _append_layer(self) -> None:
        s = len(self._layers)
        cell: dict[int, object] = {}
        if s == 1:
            for group, weight in self._leaf_groups:
                mask = group.leaf_mask
                cell[mask] = cell.get(mask, 0) + weight
        add_layer_terms(cell, self._by_arity, self._items.__getitem__, s)
        self._layers.append(cell)
        self._items.append(list(cell.items()))
        metric_inc("kernels.layers_computed")


def layer_table(nfta: NFTA, weigh):
    """The memoized exact layer table for ``nfta`` under the symbol
    weights ``weigh``, or ``None`` when a float weight forces the
    reference summation order.

    The table is the numpy
    :class:`~repro.core.vectorized.VectorLayerTable` when numpy is
    importable and the scalar :class:`_LayerTable` otherwise; its
    ``name`` says which.  Its ``count(size, checkpoint)`` is
    bitwise-equal to the reference DP for int/Fraction weights: both
    sum exactly the same per-tree weight terms, and exact arithmetic
    makes the grouping irrelevant.  The two kinds are kept under
    different keys on :attr:`NFTA.compiled
    <repro.automata.nfta.NFTA.compiled>`, so a process that stops
    seeing numpy never reads a numpy table.
    """
    from repro.core import vectorized

    dense = nfta.compiled
    weights = tuple(weigh(symbol) for symbol in dense.symbols)
    if any(isinstance(weight, float) for weight in weights):
        return None
    if vectorized.available():
        return dense.memoized(
            ("numpy", weights),
            lambda: vectorized.VectorLayerTable(dense, weights),
        )
    return dense.memoized(
        ("scalar", weights), lambda: _LayerTable(dense, weights)
    )


# ----------------------------------------------------------------------
# Batched budget/metric ticks for the sampling loops
# ----------------------------------------------------------------------

class TickBatcher:
    """Accumulate per-sample ticks and flush them in chunks.

    ``tick()`` replaces a ``budget_tick(phase) + metric_inc(metric)``
    pair in a sampling loop; ``flush()`` (call it on every loop exit,
    including error paths) emits the pending units in one call each, so
    counter *totals* and budget *charges* are identical to the
    per-sample reference — only the call count changes.  A flush also
    records one ``kernels.batch_draws`` and the flushed
    ``kernels.batched_samples``.

    When a budget scope is active the chunk size is 1: work-limit and
    deadline checks then run per sample, exactly like the reference.
    """

    __slots__ = ("_phase", "_metric", "_chunk", "_pending")

    def __init__(self, phase: str, metric: str, chunk: int = 512):
        self._phase = phase
        self._metric = metric
        self._chunk = 1 if active_budget() is not None else chunk
        self._pending = 0

    def tick(self, units: int = 1) -> None:
        """Charge ``units`` samples at once.  The flushes are exactly
        those of ``units`` single ticks: whole chunks (of 1 under a
        budget scope, so a work cap still stops at the same sample),
        with the remainder left pending."""
        pending = self._pending + units
        chunk = self._chunk
        while pending >= chunk:
            pending -= chunk
            self._pending = chunk
            self.flush()
        self._pending = pending

    def flush(self) -> None:
        pending = self._pending
        if not pending:
            return
        self._pending = 0
        budget_tick(self._phase, pending)
        metric_inc(self._metric, pending)
        metric_inc("kernels.batch_draws")
        metric_inc("kernels.batched_samples", pending)
