"""The numpy layer table's own contracts: overflow and selection.

Two properties the differential suite cannot pin by itself:

- **the object-dtype overflow fallback** — weighted counts that
  straddle 2^63 must silently switch the numpy DP from ``int64`` to
  object dtype (exact Python ints) and still match the reference
  bitwise, value *and* type.  A hypothesis property drives random
  weighted automata across the boundary; a pinned regression freezes
  one straddling workload and asserts the
  ``kernels.vectorized.object_fallback`` counter actually fired.
- **table selection** — numpy availability, not the backend name,
  picks the exact layer table: with numpy importable ``optimized`` and
  ``vectorized`` both run the numpy table; with numpy hidden (see
  :func:`numpy_hidden`) both run the scalar one, and the engine keeps
  the name it was given.  The ``counting.nfta_exact`` span's ``table``
  tag names the DP that ran.
"""

from __future__ import annotations

import contextlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.vectorized as vectorized
from repro.automata.nfta import NFTA
from repro.automata.nfta_counting import count_nfta_exact
from repro.core.estimator import PQEEngine
from repro.core.kernels import resolve_backend
from repro.errors import ReproError
from repro.obs import EvaluationTelemetry, telemetry_scope
from repro.queries.builders import path_query
from repro.workloads.instances import (
    random_instance_for_query,
    random_probabilities,
)

from test_nfta_counting import _random_nfta

needs_numpy = pytest.mark.skipif(
    not vectorized.available(), reason="numpy not installed"
)


# ---------------------------------------------------------------------------
# overflow: counts straddling 2^63 take the object-dtype fallback


@needs_numpy
@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=20, deadline=None)
def test_straddling_counts_match_reference_bitwise(seed):
    """Mixed-sign weights near 2^44 push intermediate products far past
    2^63 within a few layers; the vectorized DP must cross into object
    mode and stay bitwise-equal (value and type) to the reference."""
    nfta = _random_nfta(seed, states=4)
    symbols = sorted(nfta.alphabet, key=str)
    table = {
        symbol: ((-1) ** i) * ((1 << 44) + 977 * i + seed)
        for i, symbol in enumerate(symbols)
    }
    for size in range(1, 7):
        expected = count_nfta_exact(
            nfta, size, weight_of=table.get, backend="reference"
        )
        actual = count_nfta_exact(
            nfta, size, weight_of=table.get, backend="vectorized"
        )
        assert actual == expected
        assert type(actual) is type(expected)


@needs_numpy
def test_pinned_straddling_regression():
    """One frozen straddling workload: a weighted PQE reduction whose
    weights are scaled by 2^40, forcing the int64 → object switch.  The
    count, its type, and the fallback counter are all pinned."""
    query = path_query(2)
    instance = random_instance_for_query(
        query, domain_size=2, facts_per_relation=3, seed=7
    )
    pdb = random_probabilities(instance, seed=7, max_denominator=4)
    from repro.core.pqe_estimate import build_pqe_reduction

    reduction = build_pqe_reduction(query, pdb, weighted=True)

    def scaled(symbol):
        return reduction.weight_of(symbol) * (1 << 40)

    expected = count_nfta_exact(
        reduction.nfta, reduction.tree_size, weight_of=scaled,
        backend="reference",
    )
    telemetry = EvaluationTelemetry()
    with telemetry_scope(telemetry):
        actual = count_nfta_exact(
            reduction.nfta, reduction.tree_size, weight_of=scaled,
            backend="vectorized",
        )
    assert actual == expected
    assert type(actual) is type(expected) is int
    assert actual.bit_length() > 63  # genuinely straddles int64
    assert telemetry.counter("kernels.vectorized.object_fallback") >= 1


@needs_numpy
def test_fraction_weights_use_object_mode_from_the_start():
    nfta = _random_nfta(3, states=4)
    symbols = sorted(nfta.alphabet, key=str)
    table = {
        symbol: Fraction(2 * i + 1, 7) for i, symbol in enumerate(symbols)
    }
    for size in range(1, 6):
        expected = count_nfta_exact(
            nfta, size, weight_of=table.get, backend="reference"
        )
        actual = count_nfta_exact(
            nfta, size, weight_of=table.get, backend="vectorized"
        )
        assert actual == expected
        assert type(actual) is type(expected)


# ---------------------------------------------------------------------------
# selection: numpy availability picks the layer table


@contextlib.contextmanager
def numpy_hidden():
    """Run the body as on a host without numpy, so the exact DP builds
    the scalar layer table."""
    saved = vectorized._np
    vectorized._np = None
    try:
        yield
    finally:
        vectorized._np = saved


def _cold_exact(nfta, size, backend, weight_of=None):
    """(count, ``table`` span tag, numpy layers computed) of one cold
    exact count: over a fresh copy of ``nfta``, which has no compiled
    form and so no layer table yet."""
    fresh = NFTA(nfta.transitions, nfta.initial)
    telemetry = EvaluationTelemetry()
    with telemetry_scope(telemetry):
        count = count_nfta_exact(
            fresh, size, weight_of=weight_of, backend=backend
        )
    [record] = [
        r for r in telemetry.spans if r.name == "counting.nfta_exact"
    ]
    return (
        count,
        record.tag_dict["table"],
        telemetry.counter("kernels.vectorized_layers"),
    )


@needs_numpy
def test_fast_backends_run_the_numpy_table_with_numpy():
    nfta = _random_nfta(5, states=4)
    expected = count_nfta_exact(nfta, 6, backend="reference")
    for backend in ("optimized", "vectorized", None):
        count, table, layers = _cold_exact(nfta, 6, backend)
        assert (count, table) == (expected, "numpy")
        assert layers == 6


def test_fast_backends_run_the_scalar_table_without_numpy():
    nfta = _random_nfta(5, states=4)
    table_weights = {
        symbol: Fraction(i + 2, 3)
        for i, symbol in enumerate(sorted(nfta.alphabet, key=str))
    }
    for weight_of in (None, table_weights.get):
        expected = count_nfta_exact(
            nfta, 6, weight_of=weight_of, backend="reference"
        )
        with numpy_hidden():
            for backend in ("optimized", "vectorized"):
                count, table, layers = _cold_exact(
                    nfta, 6, backend, weight_of=weight_of
                )
                assert count == expected
                assert type(count) is type(expected)
                assert (table, layers) == ("scalar", 0)


def test_reference_and_float_weights_run_the_reference_dp():
    nfta = _random_nfta(5, states=4)
    assert _cold_exact(nfta, 4, "reference")[1] == "reference"
    halves = {symbol: 0.5 for symbol in nfta.alphabet}
    assert _cold_exact(nfta, 4, "optimized", halves.get)[1] == "reference"


def test_resolve_backend_raises_contextually_without_numpy():
    """Without numpy ``vectorized`` still resolves to itself, and only
    an unknown name raises a contextual error."""
    with numpy_hidden():
        assert resolve_backend("vectorized") == "vectorized"
        with pytest.raises(ReproError) as failure:
            resolve_backend("simd")
    message = str(failure.value)
    assert "simd" in message
    assert "optimized" in message  # lists the valid names


def test_other_backends_are_numpy_independent():
    with numpy_hidden():
        assert resolve_backend("optimized") == "optimized"
        assert resolve_backend("reference") == "reference"
        assert resolve_backend(None) == "optimized"


def test_engine_autofallback_without_numpy(q2, tiny_pdb):
    """The engine keeps the name ``vectorized`` and, with numpy hidden,
    answers exactly like ``optimized`` on every exact-DP method."""
    with numpy_hidden():
        engine = PQEEngine(seed=11, kernel_backend="vectorized")
        native = PQEEngine(seed=11, kernel_backend="optimized")
        assert engine.kernel_backend == "vectorized"
        assert engine.probability(q2, tiny_pdb) == native.probability(
            q2, tiny_pdb
        )
        from repro.core.pqe_estimate import pqe_estimate

        for method in ("exact-automaton", "exact-weighted"):
            spelled, reference = (
                pqe_estimate(q2, tiny_pdb, method=method, backend=backend)
                for backend in ("vectorized", "reference")
            )
            assert spelled.count_result == reference.count_result


@needs_numpy
def test_engine_keeps_vectorized_with_numpy():
    engine = PQEEngine(kernel_backend="vectorized")
    assert engine.kernel_backend == "vectorized"
    assert resolve_backend("vectorized") == "vectorized"


def test_unknown_backend_message_lists_choices():
    with pytest.raises(ReproError) as failure:
        resolve_backend("simd")
    assert "simd" in str(failure.value)


# ---------------------------------------------------------------------------
# randomized cross-check at moderate weights (no overflow): the int64
# path itself, not just the object fallback


@needs_numpy
def test_random_small_weight_parity():
    rng = random.Random(31)
    for trial in range(8):
        nfta = _random_nfta(200 + trial, states=4)
        symbols = sorted(nfta.alphabet, key=str)
        table = {
            symbol: rng.randint(1, 9) for symbol in symbols
        }
        size = rng.randint(1, 7)
        expected = count_nfta_exact(
            nfta, size, weight_of=table.get, backend="reference"
        )
        actual = count_nfta_exact(
            nfta, size, weight_of=table.get, backend="vectorized"
        )
        assert actual == expected
        assert type(actual) is type(expected)
