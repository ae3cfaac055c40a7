"""Optimized counting kernels: backend names, shared layer DP, batching.

This module is the process-wide home of the ``optimized`` counting
backend (see ``docs/performance.md``):

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
  importable, the scalar :class:`_LayerTable` otherwise.  A table's
  per-size layers are memoized under the automaton
  :attr:`~repro.automata.nfta.NFTA.fingerprint` (plus the symbol-weight
  vector) and *extended in place*, so repeated counts — across
  ``count_nfta`` repetitions, batch items, and whatever the
  :class:`~repro.core.cache.ReductionCache`/disk tier did not already
  absorb — pay only for sizes never seen before.  Integer and
  :class:`fractions.Fraction` weights sum order-independently, which is
  what makes the reorganized DP *bitwise* equal to the reference;
  float weights are order-sensitive, so there is no table for them and
  the caller runs the reference DP;
- :func:`shared_plan` — fingerprint-keyed seed-free sampling plans
  (per (state, size) cell of the compiled automaton: the group order,
  the member order and the child cells, plus the per-state rule tables
  membership runs on) built once and reused by every CountNFTA run
  over the same automaton.  Every backend runs the same sampling loop
  over such a plan, consuming the per-item SHA-256 seed streams in one
  fixed order, so answers are bitwise-identical at any worker count;
- :class:`TickBatcher` — chunked budget/metric accounting for the
  sampling hot loops (one ``budget_tick(phase, n)`` per chunk instead
  of ``n`` calls).  Totals are unchanged; with an active budget scope
  the chunk size drops to 1 so deadline/work enforcement keeps its
  per-sample granularity.

The three stores (compiled automata, sampling plans, DP layer tables)
are :class:`~repro.core.cache.ReductionCache` instances counting as
``kernels.dense_cache.*``, ``kernels.plan_cache.*`` and
``kernels.layer_cache.*``.  They are *global to the process* — their
hit/miss counters depend on process history, not on the item, so every
``kernels.*`` counter sits outside the bitwise determinism contract
(see :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable

from repro.automata.nfta import NFTA
from repro.automata.optimize import DenseNFTA, optimize_nfta
from repro.core.budget import active_budget, budget_tick
from repro.core.cache import ReductionCache
from repro.errors import ReproError
from repro.obs import metric_inc

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "TickBatcher",
    "add_layer_terms",
    "clear_kernel_caches",
    "dense_automaton",
    "evict_fingerprints",
    "layer_table",
    "resolve_backend",
    "shared_plan",
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


# ----------------------------------------------------------------------
# Process-wide keyed stores with build deduplication
# ----------------------------------------------------------------------

_dense_store = ReductionCache(256, name="kernels.dense_cache")
_plan_store = ReductionCache(256, name="kernels.plan_cache")
_layer_store = ReductionCache(128, name="kernels.layer_cache")
_STORES = (_dense_store, _plan_store, _layer_store)


def clear_kernel_caches() -> None:
    """Drop every compiled automaton, sampling plan and layer table.

    Benchmarks call this to measure cold passes; tests call it to make
    kernel-cache counter assertions independent of ordering."""
    for store in _STORES:
        store.clear()


def evict_fingerprints(fingerprints) -> int:
    """Drop kernel memos compiled from the given automaton fingerprints.

    The structure-aware arm of delta invalidation
    (:meth:`repro.core.cache.ReductionCache.invalidate_relations`):
    when a reduction over touched relations is evicted, the dense
    automaton, sampling plans and DP layer tables compiled from its
    NFTA go with it; kernels for untouched automata survive.  Returns
    the number of entries dropped across the three stores.

    Every store key is a tuple carrying the automaton fingerprint
    (``("dense", fp)``, ``("plan", fp, size)``, ``("layers", fp,
    weights)``, ``("vlayers", fp, weights)``), so membership anywhere
    in the tuple identifies the artefacts compiled from that automaton.
    """
    wanted = frozenset(fingerprints)
    if not wanted:
        return 0

    def compiled_from_wanted(key) -> bool:
        return any(part in wanted for part in key)

    dropped = sum(
        len(store.evict(compiled_from_wanted)[0]) for store in _STORES
    )
    if dropped:
        metric_inc("kernels.delta_evicted", dropped)
    return dropped


def dense_automaton(nfta: NFTA) -> DenseNFTA:
    """The compiled (pruned/deduped/interned) form of ``nfta``, shared
    process-wide under its fingerprint."""
    return _dense_store.get_or_build(
        ("dense", nfta.fingerprint), lambda: optimize_nfta(nfta)
    )


def shared_plan(key: Hashable, builder: Callable[[], object]):
    """Memoize a seed-free sampling plan under ``key``.

    The caller (``nfta_counting``) owns the plan contents; this module
    only provides the fingerprint-keyed sharing and build dedup."""
    return _plan_store.get_or_build(key, builder)


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
        "_dense", "_lock", "_layers", "_items", "_leaf_groups", "_by_arity",
    )

    def __init__(self, dense: DenseNFTA, weights: tuple):
        self._dense = dense
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
        initial_bit = self._dense.initial_bit
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
    makes the grouping irrelevant.  The two kinds are stored under
    different keys (``("vlayers", …)`` / ``("layers", …)``), so a
    process that stops seeing numpy never reads a numpy table.
    """
    from repro.core import vectorized

    dense = dense_automaton(nfta)
    weights = tuple(weigh(symbol) for symbol in dense.symbols)
    if any(isinstance(weight, float) for weight in weights):
        return None
    if vectorized.available():
        return _layer_store.get_or_build(
            ("vlayers", dense.fingerprint, weights),
            lambda: vectorized.VectorLayerTable(dense, weights),
        )
    return _layer_store.get_or_build(
        ("layers", dense.fingerprint, weights),
        lambda: _LayerTable(dense, weights),
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

    def tick(self) -> None:
        self._pending += 1
        if self._pending >= self._chunk:
            self.flush()

    def flush(self) -> None:
        pending = self._pending
        if not pending:
            return
        self._pending = 0
        budget_tick(self._phase, pending)
        metric_inc(self._metric, pending)
        metric_inc("kernels.batch_draws")
        metric_inc("kernels.batched_samples", pending)
