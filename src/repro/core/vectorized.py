"""The numpy layer table of the exact counting DP.

The layer-at-a-time DP of :mod:`repro.core.kernels` spends its time in
three places: resolving each (child-subset, rule-group) pair to the
evaluated source mask, multiplying weights into counts, and merging the
contributions of every group into the next layer.  This module lowers
all three to batched numpy array operations over a *columnar* layer
representation:

- a layer is a pair of arrays — packed little-endian state-bitmask rows
  (``uint8``, padded to whole 64-bit words) and a parallel count
  vector — instead of a ``{int mask: count}`` dict;
- each unary rule group keys a layer by the satisfied *child columns*
  (one fused ``reduceat`` computes every group's keys at once) and
  resolves keys through a lazily filled direct-address memo whose rows
  are built by vectorized ORs of per-column packed source masks — the
  array mirror of :meth:`DenseRuleGroup.evaluated1`'s memo; the
  per-group tables are fused into one :class:`_UnaryBank` so a whole
  layer's rows resolve with a single gather;
- binary groups key *pairs* of layers by fired-rule bitmasks
  (``bitwise_and.outer`` of per-side rule-satisfaction words) through
  the same memo machinery; arities ≥ 3 — and any group whose key would
  not fit 63 bits — run the scalar per-arity loops of
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

#: Direct-address memo tables are used up to this many key bits (2^20
#: int32 slots = 4 MiB); wider keys fall back to a dict-backed memo.
_DIRECT_TABLE_BITS = 20

#: Keys are packed into int64 words, so groups needing more key bits
#: take the scalar path.
_MAX_KEY_BITS = 63

#: Combined size cap for the fused unary memo bank (int32 slots;
#: 2^22 = 16 MiB).  Groups beyond the cap keep per-group memos.
_MAX_BANK_SLOTS = 1 << 22

#: int64 counts are abandoned once a layer's conservative bound on any
#: intermediate value reaches this (2^63 would wrap).
_INT64_CEILING = 1 << 63


def available() -> bool:
    """Whether numpy is importable (this table's only requirement)."""
    return _np is not None


def _is_exact_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _pack_mask(mask: int, npad: int):
    """One Python-int bitmask as a padded little-endian byte row."""
    return _np.frombuffer(
        mask.to_bytes(npad, "little"), dtype=_np.uint8
    ).copy()


def _aggregate(rows, vals, nwords: int):
    """Collapse duplicate packed rows, summing their values exactly.

    ``rows`` is ``(m, nwords * 8)`` uint8; rows whose mask is empty are
    dropped first (the reference DP's ``if evaluated:`` guard).
    Returns unique packed rows and their per-row sums — for int64 and
    for object (Python int / Fraction) value dtypes alike, since
    ``np.add.reduceat`` reduces object arrays with exact Python
    addition.
    """
    words = rows.view(_np.uint64).reshape(len(rows), nwords)
    nonzero = words.any(axis=1)
    if not nonzero.all():
        words = words[nonzero]
        rows = rows[nonzero]
        vals = vals[nonzero]
    if not len(rows):
        return rows, vals
    order = _np.lexsort(tuple(words[:, k] for k in range(nwords)))
    sorted_words = words[order]
    changed = (sorted_words[1:] != sorted_words[:-1]).any(axis=1)
    starts = _np.flatnonzero(
        _np.concatenate([_np.ones(1, dtype=bool), changed])
    )
    sums = _np.add.reduceat(vals[order], starts)
    return rows[order[starts]], sums


class _EvalMemo:
    """Lazily filled key → evaluated-row memo for one rule group.

    ``src_packed[j]`` is the packed OR of source bits that fire when
    key bit ``j`` is set; the evaluated row for a key is the OR over
    its set bits.  Keys at most :data:`_DIRECT_TABLE_BITS` wide resolve
    through a direct-address int32 table; wider (≤ 63-bit) keys through
    a dict.  Rows for missing keys are built in one vectorized pass
    per batch — entries are deterministic functions of their key, so
    the memo is shared across threads the same way the dense group
    memos are (a duplicate fill is redundant, never wrong).
    """

    __slots__ = ("_src", "_bits", "_table", "_dict", "_rows", "_nrows")

    def __init__(self, src_packed):
        self._src = src_packed
        self._bits = len(src_packed)
        if self._bits <= _DIRECT_TABLE_BITS:
            self._table = _np.full(1 << self._bits, -1, dtype=_np.int32)
            self._dict = None
        else:
            self._table = None
            self._dict: dict[int, int] = {}
        npad = src_packed.shape[1] if self._bits else 8
        self._rows = _np.zeros((max(16, self._bits), npad), dtype=_np.uint8)
        self._nrows = 0

    def _build(self, new_keys):
        count = len(new_keys)
        while self._nrows + count > len(self._rows):
            self._rows = _np.concatenate([self._rows, _np.zeros_like(self._rows)])
        block = self._rows[self._nrows:self._nrows + count]
        block[:] = 0
        for j in range(self._bits):
            block[(new_keys >> j) & 1 == 1] |= self._src[j]
        first = self._nrows
        self._nrows += count
        return first

    def rows_for(self, keys):
        """Evaluated packed rows for an int64 key array."""
        if self._table is not None:
            idx = self._table[keys]
            miss = idx < 0
            if miss.any():
                new_keys = _np.unique(keys[miss])
                first = self._build(new_keys)
                self._table[new_keys] = _np.arange(
                    first, self._nrows, dtype=_np.int32
                )
                idx = self._table[keys]
        else:
            table = self._dict
            new_list = sorted(
                {int(k) for k in keys.tolist() if k not in table}
            )
            if new_list:
                new_keys = _np.array(new_list, dtype=_np.int64)
                first = self._build(new_keys)
                for offset, key in enumerate(new_list):
                    table[key] = first + offset
            idx = _np.array(
                [table[int(k)] for k in keys.tolist()], dtype=_np.int32
            )
        return self._rows[idx]


class _UnaryGroup:
    """One vector-eligible unary (symbol, arity=1) rule group."""

    __slots__ = ("weight", "abs_weight", "cols", "src", "memo")

    def __init__(self, group, weight, npad: int):
        self.weight = weight
        self.abs_weight = abs(weight)
        by_child: dict[int, int] = {}
        for source_bit, child in group.rules:
            by_child[child] = by_child.get(child, 0) | source_bit
        cols = sorted(by_child)
        self.cols = cols
        src = _np.zeros((len(cols), npad), dtype=_np.uint8)
        for j, child in enumerate(cols):
            src[j] = _pack_mask(by_child[child], npad)
        self.src = src
        self.memo: _EvalMemo | None = None  # set when not bank-resident


class _UnaryBank:
    """Fused direct-address memo across many unary groups.

    The per-group direct tables are laid out back to back in one int32
    array (group ``g``'s key ``k`` lives at ``bases[g] + k``) over a
    shared row store, so a whole layer's rows for *every* banked group
    resolve with a single gather — the per-call overhead of ~|groups| ×
    |layers| separate lookups was the vectorized DP's largest fixed
    cost.  Fills are batched per layer and, like :class:`_EvalMemo`,
    idempotent (duplicate fills are redundant, never wrong).
    """

    __slots__ = ("_srcs", "_bases", "_table", "_rows", "_nrows")

    def __init__(self, groups: list[_UnaryGroup], npad: int):
        self._srcs = [g.src for g in groups]
        sizes = [1 << len(g.src) for g in groups]
        bases = [0]
        for size in sizes[:-1]:
            bases.append(bases[-1] + size)
        self._bases = _np.array(bases, dtype=_np.int64)
        self._table = _np.full(sum(sizes), -1, dtype=_np.int32)
        self._rows = _np.zeros((max(64, len(groups)), npad), dtype=_np.uint8)
        self._nrows = 0

    def rows_for_all(self, keys):
        """Rows for an ``(n, G)`` key matrix, flattened group-major."""
        flat = (keys + self._bases).T.ravel()
        idx = self._table[flat]
        miss = idx < 0
        if miss.any():
            self._fill(flat[miss])
            idx = self._table[flat]
        return self._rows[idx]

    def _fill(self, missing) -> None:
        new = _np.unique(missing)
        grp = _np.searchsorted(self._bases, new, side="right") - 1
        count = len(new)
        while self._nrows + count > len(self._rows):
            self._rows = _np.concatenate(
                [self._rows, _np.zeros_like(self._rows)]
            )
        block = self._rows[self._nrows:self._nrows + count]
        block[:] = 0
        for g, src in enumerate(self._srcs):
            positions = _np.flatnonzero(grp == g)
            if not len(positions):
                continue
            local = new[positions] - self._bases[g]
            for j in range(len(src)):
                block[positions[(local >> j) & 1 == 1]] |= src[j]
        self._table[new] = _np.arange(
            self._nrows, self._nrows + count, dtype=_np.int32
        )
        self._nrows += count


class _BinaryGroup:
    """One vector-eligible binary (symbol, arity=2) rule group.

    Keys are fired-*rule* bitmasks: side words mark which rules see
    their child state satisfied, and their AND is exactly the set of
    rules that fire on the pair.
    """

    __slots__ = ("weight", "left_cols", "right_cols", "pow2", "memo")

    def __init__(self, group, weight, npad: int):
        self.weight = weight
        self.left_cols = _np.array(
            [c1 for _bit, c1, _c2 in group.rules], dtype=_np.intp
        )
        self.right_cols = _np.array(
            [c2 for _bit, _c1, c2 in group.rules], dtype=_np.intp
        )
        self.pow2 = (
            _np.int64(1) << _np.arange(len(group.rules), dtype=_np.int64)
        )
        src = _np.zeros((len(group.rules), npad), dtype=_np.uint8)
        for j, (source_bit, _c1, _c2) in enumerate(group.rules):
            src[j] = _pack_mask(source_bit, npad)
        self.memo = _EvalMemo(src)


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
        "_leaf_cell", "_unary", "_binary", "_scalar_by_arity",
        "_pyitems", "_npad", "_nwords", "_nbytes", "_ucols", "_ucolw",
        "_uoffsets", "_uweights", "_binkeys", "_object_mode",
        "_wsum_by_arity", "_ubank", "_nbanked",
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
        self._unary: list[_UnaryGroup] = []
        self._binary: list[_BinaryGroup] = []
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
            if group.arity == 1 and len(
                {child for _bit, child in group.rules}
            ) <= _MAX_KEY_BITS:
                self._unary.append(_UnaryGroup(group, weight, self._npad))
            elif group.arity == 2 and len(group.rules) <= _MAX_KEY_BITS:
                self._binary.append(_BinaryGroup(group, weight, self._npad))
            else:
                self._scalar_by_arity.setdefault(group.arity, []).append(
                    (group, weight)
                )

        # Bank the leading unary groups whose direct tables fit the
        # combined cap; the rest resolve through per-group memos.
        banked: list[_UnaryGroup] = []
        rest: list[_UnaryGroup] = []
        slots = 0
        for ugroup in self._unary:
            size = 1 << len(ugroup.src)
            if not rest and slots + size <= _MAX_BANK_SLOTS:
                banked.append(ugroup)
                slots += size
            else:
                rest.append(ugroup)
                ugroup.memo = _EvalMemo(ugroup.src)
        self._unary = banked + rest
        self._nbanked = len(banked)
        self._ubank = (
            _UnaryBank(banked, self._npad) if banked else None
        )

        # Fused unary keying: one gather + one reduceat computes every
        # group's keys for a whole layer.
        cols: list[int] = []
        colw: list[int] = []
        offsets: list[int] = []
        for ugroup in self._unary:
            offsets.append(len(cols))
            cols.extend(ugroup.cols)
            colw.extend(1 << j for j in range(len(ugroup.cols)))
        self._ucols = _np.array(cols, dtype=_np.intp)
        self._ucolw = _np.array(colw, dtype=_np.int64)
        self._uoffsets = _np.array(offsets, dtype=_np.intp)
        self._uweights = [g.weight for g in self._unary]

        empty = self._empty_layer()
        self._layers: list = [empty]  # size 0 has no trees
        self._totals: list[int] = [0]
        self._pyitems: list = [[]]
        self._binkeys: dict = {}

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

        if self._unary and total >= 1:
            prev_packed, prev_counts = self._layers[total]
            if len(prev_counts):
                matrix = self._unpacked(prev_packed)
                keyed = matrix[:, self._ucols] * self._ucolw
                keys = _np.add.reduceat(keyed, self._uoffsets, axis=1)
                counts = self._counts_for_math(prev_counts)
                if counts.dtype == object:
                    scaled = [g.weight * counts for g in self._unary]
                else:
                    scaled = _np.multiply.outer(
                        _np.array(self._uweights, dtype=_np.int64), counts
                    )
                nbanked = self._nbanked
                if nbanked:
                    rows_list.append(
                        self._ubank.rows_for_all(keys[:, :nbanked])
                    )
                    if counts.dtype == object:
                        vals_list.extend(scaled[:nbanked])
                    else:
                        vals_list.append(scaled[:nbanked].ravel())
                for gi in range(nbanked, len(self._unary)):
                    ugroup = self._unary[gi]
                    rows_list.append(ugroup.memo.rows_for(keys[:, gi]))
                    vals_list.append(scaled[gi])

        if self._binary and total >= 2:
            for left in range(1, total):
                left_packed, left_counts = self._layers[left]
                right_packed, right_counts = self._layers[total - left]
                if not len(left_counts) or not len(right_counts):
                    continue
                lc = self._counts_for_math(left_counts)
                rc = self._counts_for_math(right_counts)
                pair_counts = _np.multiply.outer(lc, rc).ravel()
                for gi, bgroup in enumerate(self._binary):
                    fired = _np.bitwise_and.outer(
                        self._side_keys(left, gi, 0),
                        self._side_keys(total - left, gi, 1),
                    ).ravel()
                    rows_list.append(bgroup.memo.rows_for(fired))
                    vals_list.append(bgroup.weight * pair_counts)

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

    def _add_cell(self, cell: dict, rows_list: list, vals_list: list):
        """Append a ``{int mask: value}`` cell as packed rows and values."""
        if not cell:
            return
        packed = _np.zeros((len(cell), self._npad), dtype=_np.uint8)
        for i, mask in enumerate(cell):
            packed[i] = _pack_mask(mask, self._npad)
        rows_list.append(packed)
        if self._object_mode:
            vals = _np.empty(len(cell), dtype=object)
            vals[:] = list(cell.values())
        else:
            vals = _np.array(list(cell.values()), dtype=_np.int64)
        vals_list.append(vals)

    @staticmethod
    def _as_object(array):
        return array if array.dtype == object else array.astype(object)

    def _side_keys(self, layer_index: int, group_index: int, side: int):
        """Per-row rule-satisfaction words for one binary group side."""
        key = (layer_index, group_index, side)
        cached = self._binkeys.get(key)
        if cached is None:
            bgroup = self._binary[group_index]
            cols = bgroup.left_cols if side == 0 else bgroup.right_cols
            matrix = self._unpacked(self._layers[layer_index][0])
            cached = (matrix[:, cols] * bgroup.pow2).sum(axis=1)
            self._binkeys[key] = cached
        return cached

    def _mask_items(self, size: int) -> list:
        """Layer ``size`` as ``(int mask, count)`` pairs: the input of
        the groups that run :func:`~repro.core.kernels.add_layer_terms`
        (arity ≥ 3, or keys too wide)."""
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
