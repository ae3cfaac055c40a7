"""The numpy layer table of the exact counting DP.

The layer-at-a-time DP of :mod:`repro.core.kernels` spends its time in
three places: resolving each (child-subset, rule-group) pair to the
evaluated source mask, multiplying weights into counts, and merging the
contributions of every group into the next layer.  This module lowers
all three to batched numpy array operations over a *columnar* layer
representation, and it does only the work of the pairs that fire:

- a layer is a pair of arrays — packed little-endian state-bitmask rows
  (``uint8``, padded to whole 64-bit words) and a parallel count
  vector — instead of a ``{int mask: count}`` dict;
- the table keeps the rules of its vectorized groups as flat arrays
  (source state, child states, group), built from all the rules in one
  pass; an evaluated row is written by OR-ing the firing rules' source
  bits into a zeroed row block with one ``bitwise_or.at``;
- unary groups work from the layer's set bits: each (row, state) bit
  satisfies the unary rules reading that state (a by-child index), and
  each such hit names its (row, group) pair.  Only pairs with a hit are
  evaluated and weighted — a pair with none evaluates to the empty set,
  the reference DP's ``if evaluated:`` guard — so a layer costs what
  its firing pairs cost, not |rows| × |groups| (on the repository
  benchmark's ``path3-d4-f7`` automaton 16,145 of 339,486 pairs fire);
- binary groups key *pairs* of layers by fired-rule bitmasks
  (``bitwise_and.outer`` of per-side rule-satisfaction words, over the
  rows whose side word is nonzero) and evaluate only the nonzero keys;
  arities ≥ 3 — and any binary group whose key would not fit 63 bits —
  run the scalar per-arity loops of
  :func:`repro.core.kernels.add_layer_terms`, feeding the same
  per-layer aggregation;
- the merged contributions collapse to unique next-layer rows with one
  ``lexsort`` over the packed words plus an exact ``add.reduceat``.

**Bitwise contract.**  Exact integer and :class:`~fractions.Fraction`
arithmetic is order-free, so the regrouped summation equals the
reference DP term for term.  Counts live in ``int64`` while a
conservative per-layer bound (total absolute mass convolved across the
arity splits, computed in exact Python ints) proves no intermediate can
overflow; the first layer whose bound reaches 2^63 switches the table
to ``object`` dtype — numpy arrays of Python ints — which is slower
but exact at any magnitude (``kernels.vectorized.object_fallback``
counts the switches).  Fraction weights use object dtype from the
start.  Float weights are order-sensitive and never reach this module:
:func:`repro.core.kernels.layer_table` builds no table for them and
the caller runs the reference DP.

numpy is an *optional* dependency (the ``[vectorized]`` extra): this
module imports with or without it, and
:func:`repro.core.kernels.layer_table` builds this table only when
:func:`available` says numpy is there; otherwise the scalar table runs.
"""

from __future__ import annotations

import threading
from itertools import accumulate, chain
from typing import Callable

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from repro.core.kernels import add_layer_terms
from repro.obs import metric_inc

__all__ = [
    "VectorLayerTable",
    "available",
]

#: Binary keys are packed into int64 words, so binary groups with more
#: rules take the scalar path.
_MAX_KEY_BITS = 63

#: int64 counts are abandoned once a layer's conservative bound on any
#: intermediate value reaches this (2^63 would wrap).
_INT64_CEILING = 1 << 63


def available() -> bool:
    """Whether numpy is importable (this table's only requirement)."""
    return _np is not None


def _is_exact_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _pack_masks(masks, npad: int):
    """Python-int bitmasks as padded little-endian byte rows, in one
    ``frombuffer``."""
    return _np.frombuffer(
        b"".join(mask.to_bytes(npad, "little") for mask in masks),
        dtype=_np.uint8,
    ).reshape(-1, npad)


def _rule_arrays(groups):
    """The rules of ``groups`` (``(group, weight)`` pairs) in one pass:
    each rule's source state id, then its child state ids, as one intp
    array per field."""
    bits, *children = zip(*chain.from_iterable(g.rules for g, _w in groups))
    sources = _np.fromiter(
        map(int.bit_length, bits), dtype=_np.intp, count=len(bits)
    ) - 1
    return (sources, *(_np.array(c, dtype=_np.intp) for c in children))


def _ragged_range(starts, lengths):
    """``starts[i] + 0 … lengths[i] - 1`` for every ``i``, concatenated."""
    ends = _np.cumsum(lengths)
    return _np.arange(ends[-1]) + _np.repeat(starts - ends + lengths, lengths)


def _aggregate(rows, vals, nwords: int):
    """Collapse duplicate packed rows, summing their values exactly.

    ``rows`` is ``(m, nwords * 8)`` uint8 and holds no empty mask: each
    producer keeps only the pairs that fire.  Returns unique packed
    rows and their per-row sums — for int64 and for object (Python int
    / Fraction) value dtypes alike, since ``np.add.reduceat`` reduces
    object arrays with exact Python addition.
    """
    words = rows.view(_np.uint64).reshape(len(rows), nwords)
    order = _np.lexsort(tuple(words[:, k] for k in range(nwords)))
    sorted_words = words[order]
    changed = (sorted_words[1:] != sorted_words[:-1]).any(axis=1)
    starts = _np.flatnonzero(
        _np.concatenate([_np.ones(1, dtype=bool), changed])
    )
    sums = _np.add.reduceat(vals[order], starts)
    return rows[order[starts]], sums


class _Rules:
    """The source bits of a set of rules, as the packed rows they write.

    ``byte[r]`` and ``bit[r]`` locate rule ``r``'s source state in a
    packed row; :meth:`rows` ORs the source bits of many (pair, rule)
    hits into one zeroed row block in one ``bitwise_or.at``.
    """

    __slots__ = ("_byte", "_bit", "_npad")

    def __init__(self, sources, npad: int):
        self._byte = sources >> 3
        self._bit = (1 << (sources & 7)).astype(_np.uint8)
        self._npad = npad

    def rows(self, count: int, pair, rule):
        """``count`` packed rows; row ``pair[i]`` gains the source bit
        of rule ``rule[i]``."""
        npad = self._npad
        block = _np.zeros(count * npad, dtype=_np.uint8)
        _np.bitwise_or.at(
            block, pair * npad + self._byte[rule], self._bit[rule]
        )
        return block.reshape(count, npad)


class VectorLayerTable:
    """Memoized vectorized DP layers for one (automaton, weight vector).

    The numpy mirror of :class:`repro.core.kernels._LayerTable`, and
    the table :func:`repro.core.kernels.layer_table` builds whenever
    numpy is importable: ``count(size)`` extends the layer arrays on
    demand and sums the counts of rows containing the initial state.
    Kept on the automaton's compiled form under ``("numpy", weights)``.
    """

    name = "numpy"

    __slots__ = (
        "_nstates", "_lock", "_layers", "_totals",
        "_leaf_cell", "_scalar_by_arity", "_wsum_by_arity",
        "_pyitems", "_npad", "_nwords", "_nbytes", "_object_mode",
        "_ngroups", "_urules", "_ugroup", "_ureaders", "_ufirst",
        "_udegree", "_uweights", "_uweights64",
        "_binary", "_brules", "_bcols", "_bpow2", "_boffsets",
        "_binkeys",
    )

    def __init__(self, dense, weights: tuple):
        self._lock = threading.Lock()
        n_states = self._nstates = dense.num_states
        self._nbytes = max(1, (n_states + 7) // 8)
        self._nwords = (self._nbytes + 7) // 8
        self._npad = self._nwords * 8

        self._object_mode = any(
            not _is_exact_int(weights[g.symbol_id])
            or abs(weights[g.symbol_id]) >= _INT64_CEILING
            for g in dense.groups
            if weights[g.symbol_id]
        )

        self._leaf_cell: dict[int, object] = {}
        unary: list = []
        binary: list = []
        self._scalar_by_arity: dict[int, list] = {}
        self._wsum_by_arity: dict[int, int] = {}
        for group in dense.groups:
            weight = weights[group.symbol_id]
            if not weight:
                continue
            if group.arity == 0:
                mask = group.leaf_mask
                self._leaf_cell[mask] = (
                    self._leaf_cell.get(mask, 0) + weight
                )
                continue
            if not self._object_mode:
                self._wsum_by_arity[group.arity] = (
                    self._wsum_by_arity.get(group.arity, 0) + abs(weight)
                )
            if group.arity == 1:
                unary.append((group, weight))
            elif group.arity == 2 and len(group.rules) <= _MAX_KEY_BITS:
                binary.append((group, weight))
            else:
                self._scalar_by_arity.setdefault(group.arity, []).append(
                    (group, weight)
                )
        self._init_unary(unary)
        self._init_binary(binary)

        empty = self._empty_layer()
        self._layers: list = [empty]  # size 0 has no trees
        self._totals: list[int] = [0]
        self._pyitems: list = [[]]
        self._binkeys: dict = {}

    def _init_unary(self, unary: list) -> None:
        """The unary groups' rules as flat arrays, plus the by-child
        index: the rules reading state ``q`` are
        ``_ureaders[_ufirst[q]:_ufirst[q] + _udegree[q]]``."""
        self._ngroups = len(unary)
        weights = [weight for _group, weight in unary]
        self._uweights = _np.empty(len(weights), dtype=object)
        self._uweights[:] = weights
        self._uweights64 = (
            None if self._object_mode
            else _np.array(weights, dtype=_np.int64)
        )
        if not unary:
            return
        sources, children = _rule_arrays(unary)
        self._urules = _Rules(sources, self._npad)
        self._ugroup = _np.repeat(
            _np.arange(len(unary)), [len(g.rules) for g, _w in unary]
        )
        self._ureaders = _np.argsort(children, kind="stable")
        self._udegree = _np.bincount(children, minlength=self._nstates)
        self._ufirst = _np.cumsum(self._udegree) - self._udegree

    def _init_binary(self, binary: list) -> None:
        """The binary groups' rules as flat arrays, group ``g``'s from
        ``_boffsets[g]`` on.  A binary key is a fired-*rule* bitmask:
        side words mark which rules see their child state satisfied,
        and their AND is exactly the set of rules that fire on the
        pair."""
        self._binary = [weight for _group, weight in binary]
        if not binary:
            return
        sources, lefts, rights = _rule_arrays(binary)
        self._brules = _Rules(sources, self._npad)
        sizes = [len(g.rules) for g, _w in binary]
        self._boffsets = _np.array(
            [0, *accumulate(sizes[:-1])], dtype=_np.intp
        )
        self._bcols = (lefts, rights)
        self._bpow2 = _np.left_shift(
            1,
            _np.arange(len(sources)) - _np.repeat(self._boffsets, sizes),
            dtype=_np.int64,
        )

    # -- public API ----------------------------------------------------

    def count(self, size: int, checkpoint: Callable[[], None]):
        """Total weight of size-``size`` trees accepted from the initial
        state; bitwise-equal to the reference and scalar DPs."""
        with self._lock:
            while len(self._layers) <= size:
                checkpoint()
                self._append_layer()
            packed, counts = self._layers[size]
        if not len(counts):
            return 0
        has_initial = (packed[:, 0] & 1) == 1  # initial state is bit 0
        total = counts[has_initial].sum()
        if counts.dtype == object:
            return total if has_initial.any() else 0
        return int(total)

    # -- layer construction --------------------------------------------

    def _empty_layer(self):
        dtype = object if self._object_mode else _np.int64
        return (
            _np.zeros((0, self._npad), dtype=_np.uint8),
            _np.zeros(0, dtype=dtype),
        )

    def _counts_for_math(self, counts):
        """Counts ready for multiplication in the current mode."""
        if self._object_mode and counts.dtype != object:
            return counts.astype(object)
        return counts

    def _unpacked(self, packed):
        return _np.unpackbits(
            packed[:, :self._nbytes], axis=1, bitorder="little"
        )[:, :self._nstates]

    def _set_bits(self, packed):
        """``(row, state)`` of every set bit of a packed layer."""
        nonzero_bytes = _np.flatnonzero(packed)
        bits = _np.flatnonzero(_np.unpackbits(
            packed.ravel()[nonzero_bytes], bitorder="little"
        ))
        return _np.divmod(
            nonzero_bytes[bits >> 3] * 8 + (bits & 7), self._npad * 8
        )

    def _append_layer(self) -> None:
        s = len(self._layers)
        if not self._object_mode and self._layer_bound(s) >= _INT64_CEILING:
            self._object_mode = True
            metric_inc("kernels.vectorized.object_fallback")
        rows_list = []
        vals_list = []
        total = s - 1

        if s == 1:
            self._add_cell(self._leaf_cell, rows_list, vals_list)

        if self._ngroups and total >= 1:
            self._add_unary_terms(total, rows_list, vals_list)

        if self._binary and total >= 2:
            self._add_binary_terms(total, rows_list, vals_list)

        if self._scalar_by_arity:
            cell: dict[int, object] = {}
            add_layer_terms(cell, self._scalar_by_arity, self._mask_items, s)
            self._add_cell(cell, rows_list, vals_list)

        if rows_list:
            all_rows = _np.concatenate(rows_list)
            if self._object_mode:
                all_vals = _np.concatenate(
                    [self._as_object(v) for v in vals_list]
                )
            else:
                all_vals = _np.concatenate(vals_list)
            layer = _aggregate(all_rows, all_vals, self._nwords)
        else:
            layer = self._empty_layer()
        self._layers.append(layer)
        self._pyitems.append(None)
        counts = layer[1]
        if counts.dtype == object:
            self._totals.append(sum(abs(v) for v in counts.tolist()))
        else:
            self._totals.append(int(_np.abs(counts).sum()))
        metric_inc("kernels.layers_computed")
        metric_inc("kernels.vectorized_layers")

    def _add_unary_terms(self, total: int, rows_list, vals_list) -> None:
        """The unary groups' terms over layer ``total``.

        Every set bit (row, state) hits the unary rules reading that
        state; the hits, grouped by their (row, group) pair, are the
        pairs that fire, and only those are evaluated and weighted.
        """
        packed, counts = self._layers[total]
        row, state = self._set_bits(packed)
        reads = self._udegree[state]
        if not reads.any():
            return
        rule = self._ureaders[_ragged_range(self._ufirst[state], reads)]
        pairs, which = _np.unique(
            _np.repeat(row, reads) * self._ngroups + self._ugroup[rule],
            return_inverse=True,
        )
        rows_list.append(self._urules.rows(len(pairs), which, rule))
        row, group = _np.divmod(pairs, self._ngroups)
        counts = self._counts_for_math(counts)
        weights = (
            self._uweights if counts.dtype == object else self._uweights64
        )
        vals_list.append(weights[group] * counts[row])

    def _add_binary_terms(self, total: int, rows_list, vals_list) -> None:
        """The binary groups' terms over every (left, right) layer pair
        of sizes summing to ``total``: only the row pairs whose
        fired-rule key is nonzero are evaluated and weighted."""
        for left in range(1, total):
            right = total - left
            lc = self._layers[left][1]
            rc = self._layers[right][1]
            if not len(lc) or not len(rc):
                continue
            lc = self._counts_for_math(lc)
            rc = self._counts_for_math(rc)
            left_keys = self._side_keys(left)[0]
            right_keys = self._side_keys(right)[1]
            for gi, weight in enumerate(self._binary):
                lrows = _np.flatnonzero(left_keys[:, gi])
                rrows = _np.flatnonzero(right_keys[:, gi])
                if not len(lrows) or not len(rrows):
                    continue
                fired = _np.bitwise_and.outer(
                    left_keys[lrows, gi], right_keys[rrows, gi]
                )
                li, ri = _np.nonzero(fired)
                if not len(li):
                    continue
                rows_list.append(
                    self._binary_rows(fired[li, ri], self._boffsets[gi])
                )
                vals_list.append(weight * (lc[lrows[li]] * rc[rrows[ri]]))

    def _binary_rows(self, keys, first_rule: int):
        """Evaluated rows of nonzero fired-rule ``keys`` of the group
        whose rules start at ``first_rule``: each set bit is a rule."""
        nbytes = (int(keys.max()).bit_length() + 7) // 8
        key_bytes = keys.astype("<u8").view(_np.uint8).reshape(-1, 8)
        which, bit = _np.nonzero(_np.unpackbits(
            key_bytes[:, :nbytes], axis=1, bitorder="little"
        ))
        return self._brules.rows(len(keys), which, first_rule + bit)

    def _add_cell(self, cell: dict, rows_list: list, vals_list: list):
        """Append a ``{int mask: value}`` cell as packed rows and values."""
        if not cell:
            return
        rows_list.append(_pack_masks(cell, self._npad))
        if self._object_mode:
            vals = _np.empty(len(cell), dtype=object)
            vals[:] = list(cell.values())
        else:
            vals = _np.array(list(cell.values()), dtype=_np.int64)
        vals_list.append(vals)

    @staticmethod
    def _as_object(array):
        return array if array.dtype == object else array.astype(object)

    def _side_keys(self, layer_index: int):
        """Per-row rule-satisfaction words of one layer, ``(left,
        right)``, each ``(rows, binary groups)``."""
        cached = self._binkeys.get(layer_index)
        if cached is None:
            matrix = self._unpacked(self._layers[layer_index][0])
            cached = self._binkeys[layer_index] = tuple(
                _np.add.reduceat(
                    matrix[:, cols] * self._bpow2, self._boffsets, axis=1
                )
                for cols in self._bcols
            )
        return cached

    def _mask_items(self, size: int) -> list:
        """Layer ``size`` as ``(int mask, count)`` pairs: the input of
        the groups that run :func:`~repro.core.kernels.add_layer_terms`
        (arity ≥ 3, or binary keys too wide)."""
        cached = self._pyitems[size]
        if cached is None:
            packed, counts = self._layers[size]
            masks = (
                int.from_bytes(row.tobytes(), "little")
                for row in packed[:, :self._nbytes]
            )
            cached = self._pyitems[size] = list(zip(masks, counts.tolist()))
        return cached

    # -- overflow bound -------------------------------------------------

    def _layer_bound(self, s: int) -> int:
        """Exact upper bound on |any intermediate| while building layer
        ``s`` in int64.

        Every contribution is ``weight * Π_child count`` with the child
        counts drawn from layers whose total absolute mass is known, so
        ``Σ_arity (Σ_group |w|) * P_arity(s-1)`` — with ``P_a(t)`` the
        composition-convolution of the totals — dominates both the
        layer's absolute mass and (since every nonzero integer weight
        has |w| ≥ 1) each intermediate product.  Computed in Python
        ints, so the bound itself never wraps.
        """
        bound = 0
        if s == 1:
            bound += sum(abs(w) for w in self._leaf_cell.values())
        total = s - 1
        for arity, wsum in self._wsum_by_arity.items():
            if total >= arity:
                bound += wsum * self._composition_mass(arity, total)
        return bound

    def _composition_mass(self, arity: int, total: int) -> int:
        totals = self._totals
        current = list(totals[: total + 1]) + [0] * (
            total + 1 - len(totals)
        )
        for _ in range(arity - 1):
            merged = [0] * (total + 1)
            for i in range(1, total + 1):
                mass = current[i]
                if not mass:
                    continue
                for j in range(1, total - i + 1):
                    if j < len(totals):
                        merged[i + j] += mass * totals[j]
            current = merged
        return current[total]
