"""Lint: one memo store and one process-global memo, one durable-write
path, one weighted pick, one backend table, one scalar layer DP, one
Hoeffding bound, one Karp–Luby union loop and no sleep before a retry
in ``src/repro/``.

The package has one LRU with in-flight build dedup —
:class:`repro.core.cache.ReductionCache` — and one module-level
instance of it, the lifted plan memo of :mod:`repro.queries.lifted`,
whose plans depend on the query alone; a compiled automaton and what
is memoized on it live on the automaton instead.  It has one fsync'd
append path for its logs, :class:`repro.core.journal.RecordLog` (plus
the durable cache tier's atomic file writes in
:mod:`repro.core.diskcache`).  The
samplers draw an index from cumulative weights with one helper,
:func:`repro.automata.nfa_counting.weighted_index`.  Only
:mod:`repro.core.kernels` knows the backend names and which exact
layer table runs, and it owns the scalar per-arity loops both tables
use (:func:`repro.core.kernels.add_layer_terms`).  The additive
Monte-Carlo sample count is
:func:`repro.core.monte_carlo.additive_sample_bound`.  CountNFA and
CountNFTA estimate their overlapping unions with one loop,
:func:`repro.automata.nfa_counting._karp_luby_union`, the only owner of
the ``max_attempts`` fallback.  A hand-copied LRU, log, bisection,
backend choice, DP loop, bound or union loop elsewhere drifts from the
original: its counters, its eviction, its crash safety, its
tie-breaking, its budget charges or its answers stop being the ones
the tests check.  Nothing sleeps but the fault injector's stall and
crash waits (:mod:`repro.testing.faults`): a retry re-runs CPU-bound
sampling on a fresh seed, so a delay before it would only spend the
item's deadline.  So this test greps the source tree for the
tell-tale code outside the modules that own it.
"""

from __future__ import annotations

import pathlib
import re

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

#: pattern → the source files (relative to ``src/repro``) allowed to
#: use it.
_OWNED = {
    # LRU eviction of the oldest entry.
    re.compile(r"\.popitem\(\s*last\s*=\s*False\s*\)"): {"core/cache.py"},
    # A process-global memo store.
    re.compile(r"^\w+\s*(:[^=]*)?=\s*ReductionCache\("): {
        "queries/lifted.py"
    },
    # Forcing file contents to disk.
    re.compile(r"\bos\.fsync\s*\("): {"core/journal.py", "core/diskcache.py"},
    # A hand-written bisection over cumulative weights: use
    # ``weighted_index`` (``bisect.bisect_left``, clamped) instead.
    re.compile(r"\bdef _bisect\b"): set(),
    # A backend name: no flag or field outside the kernels picks one.
    re.compile(r'"vectorized"'): {"core/kernels.py"},
    # A second copy of the scalar layer DP's arity >= 3 enumeration.
    re.compile(r"\bdef _combinations\b"): {"core/kernels.py"},
    # The Hoeffding sample bound for additive error.
    re.compile(r"2 \* epsilon\s*\*\*\s*2"): {"core/monte_carlo.py"},
    # The Karp–Luby union loop's give-up bound: a second union loop.
    re.compile(r"\bmax_attempts\s*=(?!=)"): {"automata/nfa_counting.py"},
    # A wait: retries run at once, so only injected stalls sleep.
    re.compile(r"\btime\.sleep\s*\("): {"testing/faults.py"},
}


def _violations() -> list[str]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            code = line.split("#", 1)[0]
            for pattern, owners in _OWNED.items():
                if name not in owners and pattern.search(code):
                    found.append(f"src/repro/{name}:{number}: {line.strip()}")
    return found


def test_owners_exist():
    for owners in _OWNED.values():
        for name in owners:
            assert (SRC / name).is_file(), name


def test_no_second_lru_or_fsync_path():
    violations = _violations()
    assert not violations, (
        "LRU eviction belongs to repro.core.cache.ReductionCache and "
        "the one process-global memo to repro.queries.lifted, "
        "fsync'd appends to repro.core.journal.RecordLog, weighted "
        "picks to repro.automata.nfa_counting.weighted_index, backend "
        "names and the scalar layer DP to repro.core.kernels, the "
        "additive sample bound to repro.core.monte_carlo, the "
        "Karp-Luby union loop to "
        "repro.automata.nfa_counting._karp_luby_union and sleeps to "
        "repro.testing.faults; build on them instead:\n"
        + "\n".join(violations)
    )
