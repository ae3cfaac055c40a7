"""Lint: one memo store and one process-global memo, one durable-write
path, one JSON form of an answer and of an error, one weighted pick,
one backend table, one scalar layer DP, one Hoeffding bound, one
Karp–Luby union loop, one sampler chain walk, one cache rule for tree
counts, one normaliser of a weighted count, one literal type, one
probability-label check, one attempt loop, one admission loop, one
fork site and two owners of lookups by identity, no executor that
admits a whole batch at once and no sleep before a retry in
``src/repro/``.

The package has one LRU with in-flight build dedup —
:class:`repro.core.cache.ReductionCache` — and one module-level
instance of it, the lifted plan memo of :mod:`repro.queries.lifted`,
whose plans depend on the query alone; a compiled automaton and what
is memoized on it live on the automaton instead.  It has one fsync'd
append path for its logs, :class:`repro.core.journal.RecordLog` (plus
the durable cache tier's atomic file writes in
:mod:`repro.core.diskcache`).  An answer and an error have one JSON
form, :func:`repro.core.journal.answer_record` and
:func:`repro.core.journal.error_record`, which the journals, the serve
daemon's bodies and ``repro eval --batch --json`` all write; a dict
literal spelling ``"degradations"``, ``"exception"`` or ``"rational"``
elsewhere is a second writer.  The
samplers draw an index from cumulative weights with one helper,
:func:`repro.automata.nfa_counting.weighted_index`: no other module
calls ``bisect``, so a chain walk cannot inline its own pick, and only
Karp–Luby's block path (:mod:`repro.lineage.karp_luby`) calls numpy's
``.searchsorted(``, which picks a block's clauses as
``weighted_index`` would.  Only
:mod:`repro.core.kernels` knows the backend names and which exact
layer table runs, and it owns the scalar per-arity loops both tables
use (:func:`repro.core.kernels.add_layer_terms`).  The additive
Monte-Carlo sample count is
:func:`repro.core.monte_carlo.additive_sample_bound`.  CountNFA and
CountNFTA estimate their overlapping unions with one loop,
:func:`repro.automata.nfa_counting._karp_luby_union`, the only owner of
the ``max_attempts`` fallback.  Words and trees share one node family:
a letter prefix is a unary
:class:`~repro.automata.nfa_counting._ProductNode`, whose ``draw`` is
the one loop that walks a chain of unary products and the
``_SumNode`` picks between them, and a chain is built by its store's
``make_chain`` (the word store in :mod:`repro.automata.nfa_counting`,
the tree stores in :mod:`repro.automata.nfta_counting`), so a second
prefix node or chain walk cannot return.  A word carries the states
that accept it, so CountNFA needs no memo keyed by a cell's identity,
which would have to pin every cell it keys: only the tree automaton's
per-call derivability memo (:mod:`repro.automata.nfta`) and the
reference tree store, which interns and keeps every tree
(:mod:`repro.automata.nfta_counting`), look anything up by ``id(``,
and that lint reads comments too.  UREstimate and PQEEstimate
count trees in one step, :func:`repro.core.pqe_estimate._estimate_trees`,
the only place that caches a count result only when it stayed exact
(``cache_if=lambda …: ….exact``).  Every automaton route turns a
weighted count into a probability with
:func:`repro.automata.nfa_counting.probability_from_measure`, the one
clamped division by a denominator, which owns what happens past the
float range.  Facts and graph edges are read through one literal type,
:class:`repro.automata.symbols.Literal`, and fact and edge labels (and
delta probabilities) pass one check,
``repro.db.probabilistic._as_probability``.  Every retry of an evaluation
runs in one attempt loop,
:func:`repro.core.resilience.evaluate_with_policy`, the only caller of
``derive_retry_seed``; a batch item in any ``on_error`` mode walks it.
Batch workers take one item at a time from one admission loop,
``repro.core.parallel._run_admitted``, under either isolation, so no
module submits a batch to a ``concurrent.futures`` executor up front,
which would read the drain flag only while submitting, and no module
but :mod:`repro.core.parallel` reads the drain flag
(``drain_requested(``).  A process worker is an admission thread that
owns one forked child, and :mod:`repro.core.procpool` is the one fork
site (``.Process(``, ``get_context(``), under its fork lock.  A
hand-copied LRU, log, bisection, backend choice, record writer, DP
loop, bound, union loop, chain walk, count cache rule, normaliser,
literal type, label check, retry loop, admission loop, fork or
executor elsewhere drifts from the original: its counters, its
eviction, its crash safety, its strict JSON, its tie-breaking, its
budget charges, its random stream, its label errors, its attempt log,
its drain, its inherited pipe ends or its answers stop being the ones
the tests check; an identity-keyed memo pins every draw it has seen.
Nothing sleeps but the fault injector's stall and crash waits
(:mod:`repro.testing.faults`): a retry re-runs CPU-bound sampling on a
fresh seed, so a delay before it would only spend the item's
deadline.  So this test greps the source tree for the
tell-tale code outside the modules that own it.
"""

from __future__ import annotations

import pathlib
import re

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

#: ``id(``: matched in comments too, since a comment that keys by
#: identity describes a memo keyed by it.
_IDENTITY_KEY = re.compile(r"\bid\(")

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
    # An answer's or an error's JSON fields: a second record writer.
    re.compile(r'"(degradations|exception|rational)"\s*:'): {
        "core/journal.py"
    },
    # A hand-written bisection over cumulative weights: use
    # ``weighted_index`` (``bisect.bisect_left``, clamped) instead.
    re.compile(r"\bdef _bisect\b"): set(),
    # A bisection call: a sampler that inlines its own weighted pick
    # (a chain walk, say) instead of calling ``weighted_index``.  The
    # owner also bisects the part offsets of an exact concatenation.
    re.compile(r"\bbisect(_left|_right)?\s*\("): {
        "automata/nfa_counting.py"
    },
    # numpy's bisection: only Karp–Luby's block path picks its clauses
    # with it, a block at a time, equal to ``weighted_index``.
    re.compile(r"\.searchsorted\("): {"lineage/karp_luby.py"},
    # A backend name: no flag or field outside the kernels picks one.
    re.compile(r'"vectorized"'): {"core/kernels.py"},
    # A second copy of the scalar layer DP's arity >= 3 enumeration.
    re.compile(r"\bdef _combinations\b"): {"core/kernels.py"},
    # The Hoeffding sample bound for additive error.
    re.compile(r"2 \* epsilon\s*\*\*\s*2"): {"core/monte_carlo.py"},
    # The Karp–Luby union loop's give-up bound: a second union loop.
    re.compile(r"\bmax_attempts\s*=(?!=)"): {"automata/nfa_counting.py"},
    # A test for a sum node: a second chain walk stepping through the
    # sum picks (``_ProductNode.draw`` owns the one walk).
    re.compile(r"\bis\s+_SumNode\b|isinstance\([^)]*\b_SumNode\b"): {
        "automata/nfa_counting.py"
    },
    # Building a chain: only the word store and the tree stores do.
    re.compile(r"\bdef make_chain\b"): {
        "automata/nfa_counting.py", "automata/nfta_counting.py"
    },
    # Caching a count result only when it stayed exact: a second
    # tree-count step (``_estimate_trees`` owns the one).
    re.compile(r"cache_if\s*=\s*lambda\s+\w+\s*:\s*\w+\.exact\b"): {
        "core/pqe_estimate.py"
    },
    # A clamped division by a denominator: a second normaliser, which
    # would drift past the float range (``probability_from_measure``).
    re.compile(r"min\(.*/\s*[\w.]*denominator\b.*,\s*1\.0\s*\)"): {
        "automata/nfa_counting.py"
    },
    # A second literal type: edges are literals too.
    re.compile(r"^\s*class\s+Literal\b"): {"automata/symbols.py"},
    # A second probability-label check: graphs and deltas import it.
    re.compile(r"\bdef _as_probability\b"): {"db/probabilistic.py"},
    # A retry seed: a second retry loop beside the one attempt loop.
    re.compile(r"\bderive_retry_seed\("): {"core/resilience.py"},
    # An executor that takes a whole batch up front ignores a drain.
    re.compile(r"\bThreadPoolExecutor\b"): set(),
    # Reading the drain flag: a second admission loop.
    re.compile(r"\bdrain_requested\("): {"core/parallel.py"},
    # A fork outside the fork lock: a child that inherits a sibling's
    # pipe end or sentinel hides that sibling's death.
    re.compile(r"\.Process\(|\bget_context\("): {"core/procpool.py"},
    # A wait: retries run at once, so only injected stalls sleep.
    re.compile(r"\btime\.sleep\s*\("): {"testing/faults.py"},
    # An identity-keyed lookup: its keys stay valid only while what
    # they name is pinned.
    _IDENTITY_KEY: {"automata/nfta.py", "automata/nfta_counting.py"},
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
                text = line if pattern is _IDENTITY_KEY else code
                if name not in owners and pattern.search(text):
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
        "fsync'd appends to repro.core.journal.RecordLog, the JSON "
        "form of answers and errors to repro.core.journal.answer_record "
        "and error_record, weighted "
        "picks to repro.automata.nfa_counting.weighted_index (bisect "
        "calls to that module, .searchsorted( to "
        "repro.lineage.karp_luby), backend "
        "names and the scalar layer DP to repro.core.kernels, the "
        "additive sample bound to repro.core.monte_carlo, the "
        "Karp-Luby union loop to "
        "repro.automata.nfa_counting._karp_luby_union, the chain walk "
        "to repro.automata.nfa_counting._ProductNode.draw (make_chain "
        "to the word and tree stores), caching exact tree counts to "
        "repro.core.pqe_estimate._estimate_trees, the clamped division by "
        "a denominator to "
        "repro.automata.nfa_counting.probability_from_measure, the "
        "literal type to repro.automata.symbols.Literal, the "
        "probability-label check to "
        "repro.db.probabilistic._as_probability, retry seeds "
        "to repro.core.resilience.evaluate_with_policy, batch admission "
        "and the drain flag to repro.core.parallel's admission loop (no "
        "ThreadPoolExecutor), forks to repro.core.procpool (under its "
        "fork lock), sleeps to repro.testing.faults and lookups by "
        "id( to the tree automaton's derivability memo and the "
        "reference tree store (a word carries its accepting states); "
        "build on them instead:\n"
        + "\n".join(violations)
    )
