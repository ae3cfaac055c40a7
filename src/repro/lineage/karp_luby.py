"""The Karp–Luby FPRAS for weighted DNF counting.

This is the classical *intensional* approximation baseline the paper's
introduction describes (approximate weighted model counting of the
lineage).  Its per-sample cost is polynomial in the lineage size — which
itself is Θ(|D|^|Q|) — so while the estimator's sample complexity is
excellent, the end-to-end pipeline inherits the lineage blow-up.  The
KL1 benchmark measures exactly this cross-over against the paper's
automaton-based FPRAS.

Algorithm (union-of-events form): for a monotone DNF with clauses
C_1 … C_m of probabilities w_i = Pr[C_i],

1. sample a clause i with probability w_i / W,  W = Σ w_i;
2. sample a world: facts of C_i present, every other fact independently;
3. accept iff i is the *smallest* index whose clause the world satisfies.

``Pr[φ] = W · Pr[accept]``, estimated by the empirical acceptance rate;
the estimate lies within (1 ± ε)·Pr[φ] with probability ≥ 1 − δ for
``samples ≥ 3m·ln(2/δ)/ε²`` (we expose the standard bound as a helper).

Three loops draw the same samples from one ``random.Random`` stream:
the ``reference`` transcription (a clause scan per sample, kept as the
oracle); the bitset loop :func:`_sample_optimized`, one interpreter
step per (sample, free fact), which the optimized backend runs when
numpy is absent; and :func:`_sample_blocks`, which the optimized
backend runs when numpy is importable.  The block path reads the same
doubles from numpy's ``MT19937`` loaded with the stream's state, so it
needs no interpreter step per fact: a block of samples costs a few
array passes and O(clauses · clause size) big-int operations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain
from operator import and_
from typing import Mapping

from repro.automata.nfa_counting import weighted_index
from repro.core.budget import budget_tick
from repro.db.fact import Fact
from repro.errors import EstimationError
from repro.lineage.dnf import DNF
from repro.obs import metric_gauge, metric_inc, span
from repro.testing.faults import fault_point

__all__ = ["KarpLubyResult", "karp_luby_probability", "required_samples"]


def required_samples(num_clauses: int, epsilon: float, delta: float) -> int:
    """The textbook sample bound ``⌈3 m ln(2/δ) / ε²⌉``."""
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise EstimationError("epsilon and delta must lie in (0, 1)")
    return max(1, math.ceil(3 * num_clauses * math.log(2 / delta) / epsilon**2))


@dataclass(frozen=True)
class KarpLubyResult:
    estimate: float
    samples: int
    accepted: int

    def __float__(self) -> float:
        return self.estimate


def karp_luby_probability(
    formula: DNF,
    probabilities: Mapping[Fact, Fraction],
    epsilon: float = 0.25,
    delta: float = 0.1,
    seed: int | None = None,
    samples: int | None = None,
    backend=None,
) -> KarpLubyResult:
    """Estimate ``Pr[φ]`` for a monotone DNF under independent facts.

    Each sample charges one work unit against any active
    :class:`~repro.core.budget.EvaluationBudget`.

    ``W · accepted / samples`` can exceed 1 when ``Pr[φ]`` is close to
    1, so the estimate is clamped to 1, like the other approximate
    routes.  An explicit ``samples`` below 1 raises
    :class:`~repro.errors.EstimationError`.

    ``backend='optimized'`` (the default; see
    :mod:`repro.core.kernels`) never scans the clauses and batches the
    per-sample budget/metric ticks.  With numpy importable
    (:func:`repro.core.vectorized.available`) it decides the samples a
    block at a time from the same Mersenne doubles, read by numpy, with
    bit-sliced clause walks; without numpy it runs the bitset loop,
    which ORs per-fact clause bitsets.  Both consult the random stream
    for exactly the same facts in exactly the reference order, so the
    estimate, the sample and acceptance counts and every work counter
    are bitwise-identical to ``backend='reference'`` for any seed.
    """
    from repro.core import vectorized
    from repro.core.kernels import resolve_backend

    if samples is not None and samples < 1:
        raise EstimationError("samples must be >= 1")
    backend = resolve_backend(backend)
    fault_point("lineage.karp_luby")
    if formula.is_false():
        return KarpLubyResult(estimate=0.0, samples=0, accepted=0)

    rng = random.Random(seed)
    probs = {f: Fraction(p) for f, p in probabilities.items()}
    # Facts relevant to the formula; facts outside it cannot affect
    # satisfaction and are never sampled.
    relevant = sorted(formula.variables, key=Fact.sort_key)
    # Each clause read once as the positions of its facts in
    # ``relevant``; the set-up below indexes lists, not facts.
    position_of = {fact: position for position, fact in enumerate(relevant)}
    unordered = list(formula.clauses)
    positions = [tuple(map(position_of.__getitem__, c)) for c in unordered]
    # Clauses in the order of their sorted fact names, compared through
    # dense name ranks (equal names share one), which is the order of
    # the names themselves.
    names = [str(fact) for fact in relevant]
    rank = {name: at for at, name in enumerate(sorted(set(names)))}
    name_rank = [rank[name] for name in names]
    order = sorted(
        range(len(unordered)),
        key=lambda i: sorted(map(name_rank.__getitem__, positions[i])),
    )
    clauses = [unordered[i] for i in order]
    members = [positions[i] for i in order]
    # A clause weight is ``float(clause_probability(c, probs))``: the
    # exact product as one integer division, which rounds correctly.
    # Running left-to-right sums: ``sum`` of floats rounds differently
    # from Python 3.12 on, and the total must not depend on that.
    numerators = [probs[fact].numerator for fact in relevant]
    denominators = [probs[fact].denominator for fact in relevant]
    cumulative = list(accumulate(
        math.prod(map(numerators.__getitem__, c))
        / math.prod(map(denominators.__getitem__, c))
        for c in members
    ))
    total_weight = cumulative[-1] if cumulative else 0.0
    if total_weight == 0:
        return KarpLubyResult(estimate=0.0, samples=0, accepted=0)

    if samples is None:
        samples = required_samples(len(clauses), epsilon, delta)

    float_probs = {f: float(probs[f]) for f in relevant}

    accepted = 0
    metric_gauge("karp_luby.clauses", len(clauses))
    with span("lineage.karp_luby", samples=samples):
        if backend != "reference" and vectorized.available():
            accepted = _sample_blocks(
                rng, samples, members, cumulative, total_weight,
                [float_probs[fact] for fact in relevant],
            )
        elif backend != "reference":
            accepted = _sample_optimized(
                rng, samples, clauses, cumulative, total_weight,
                relevant, float_probs,
            )
        else:
            for _ in range(samples):
                budget_tick("lineage.karp_luby")
                metric_inc("karp_luby.samples_drawn")
                pick = rng.random() * total_weight
                index = weighted_index(cumulative, pick)
                forced = clauses[index]
                world = set(forced)
                for fact in relevant:
                    if fact not in forced and rng.random() < float_probs[fact]:
                        world.add(fact)
                world_frozen = frozenset(world)
                first = next(
                    i for i, clause in enumerate(clauses)
                    if clause <= world_frozen
                )
                if first == index:
                    accepted += 1
        metric_inc("karp_luby.samples_accepted", accepted)

    return KarpLubyResult(
        estimate=min(total_weight * accepted / samples, 1.0),
        samples=samples,
        accepted=accepted,
    )


def _sample_optimized(
    rng, samples, clauses, cumulative, total_weight, relevant, float_probs
) -> int:
    """The bitset sampling loop of the optimized kernel backend.

    Each relevant fact carries the bitset of the clauses that contain
    it (bit j is ``clauses[j]``), and each clause precomputes its free
    (non-forced) facts *in the same relevant order the reference
    iterates*, so the two backends draw identical RNG sequences.  The
    loop ORs the bitsets of the facts drawn absent into ``dead``: a
    clause is unsatisfied exactly when one of its facts is absent, and
    the drawn clause's facts are all present, so ``index`` is the first
    satisfied clause iff every clause below it is dead.  That is one
    AND-compare per sample instead of a scan of the earlier clauses.

    The free lists share one ``(clauses_with_fact, probability)`` pair
    per fact, which keeps the data the loop reads at random clauses
    small enough to stay in cache.
    """
    from repro.core.kernels import TickBatcher

    clauses_with = dict.fromkeys(relevant, 0)
    for position, clause in enumerate(clauses):
        for fact in clause:
            clauses_with[fact] |= 1 << position
    pair_of = {
        fact: (clauses_with[fact], float_probs[fact]) for fact in relevant
    }
    free_lists = [
        tuple(pair_of[fact] for fact in relevant if fact not in clause)
        for clause in clauses
    ]

    accepted = 0
    random_ = rng.random
    batcher = TickBatcher("lineage.karp_luby", "karp_luby.samples_drawn")
    try:
        for _ in range(samples):
            batcher.tick()
            pick = random_() * total_weight
            index = weighted_index(cumulative, pick)
            dead = 0
            for clauses_with_fact, probability in free_lists[index]:
                if random_() >= probability:
                    dead |= clauses_with_fact
            # A table of these masks per index would take O(m²) bits.
            below = (1 << index) - 1
            if dead & below == below:
                accepted += 1
    finally:
        batcher.flush()
    return accepted


#: The most (sample, fact) cells a block of the numpy path decides: its
#: presence matrix holds this many bools and it reads at most this many
#: doubles, so a block takes a few MiB whatever the sample count or the
#: lineage's width.
_BLOCK_CELLS = 1 << 18


def _sample_blocks(
    rng, samples, members, cumulative, total_weight, probabilities
) -> int:
    """The numpy sampling path of the optimized kernel backend: the
    bitset loop's samples, decided a block at a time.

    The facts are numbered by their place in ``relevant`` (the
    formula's facts in ``Fact.sort_key`` order): ``members[j]`` lists
    clause j's fact numbers and ``probabilities[f]`` is fact f's
    probability.

    numpy's ``MT19937``, loaded with the state of ``rng``, returns the
    doubles ``rng.random()`` would, in the same order (both compute
    genrand_res53).  A sample reads one double to pick its clause, then
    one per free fact of that clause in ``relevant`` order, and a fact
    is present iff it is in the clause or its double is below its
    probability — so a sample depends on the ones before it only
    through how many doubles they read.  When every clause has the
    same free count, a block's picks are every stride-th double;
    otherwise a Python walk finds where each sample starts (one
    ``weighted_index`` per sample, not per fact) and the block's
    unread doubles carry into the next.  Each sample's doubles then
    land in one row of (pick, fact 0, …) cells, at its pick and its
    free facts: the row-major order of those places is the order the
    doubles were read in.

    Acceptance is bit-sliced: the block's samples are grouped by
    clause, each fact's presence across the block becomes one Python
    int, and :func:`_accepted` walks the clauses — O(clauses · clause
    size) big-int operations a block.

    The arrays a block fills are made once per call, for a full block,
    and reused (``out=``): freed and made afresh each block, the
    allocator hands their pages back and faults them in again.

    Budget and metric ticks are charged once per block, before it is
    drawn, with the flushes of as many single ticks: the counters are
    those of the bitset loop, a work cap stops at the same sample, and
    a deadline is checked as each block starts.
    """
    import numpy as np
    from numpy.random import MT19937, Generator

    from repro.core.kernels import TickBatcher

    _, internal, _ = rng.getstate()
    bit_generator = MT19937()
    bit_generator.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.array(internal[:624], dtype=np.uint32),
            "pos": internal[624],
        },
    }
    draw = Generator(bit_generator).random

    width = len(probabilities)
    clauses = len(members)
    sizes = list(map(len, members))
    # reads[j]: the cells a sample of clause j fills — its pick (cell
    # 0) and its free facts (cell 1 + f).
    reads = np.ones((clauses, 1 + width), dtype=bool)
    reads[
        np.repeat(np.arange(clauses), sizes),
        np.fromiter(chain.from_iterable(members), dtype=np.intp) + 1,
    ] = False
    cumulative_array = np.array(cumulative)
    probabilities = np.array(probabilities)
    strides = [1 + width - size for size in sizes]
    stride = max(strides)
    uniform = stride == min(strides)

    block = max(1, _BLOCK_CELLS // width)
    doubles = np.empty(block * stride)
    cells = np.empty((block, 1 + width))
    # A block's read cells, then, once they are spent, its presence
    # rows by fact.
    flags = np.empty(block * (1 + width), dtype=bool)
    presence = np.empty(block * width, dtype=bool)
    carried = 0  # unread doubles at the front of ``doubles``

    def decide(size: int) -> int:
        """Draw and decide the next ``size`` samples."""
        nonlocal carried
        wanted = size * stride
        if carried < wanted:
            draw(out=doubles[carried:wanted])
        available = max(carried, wanted)
        if uniform:
            end = wanted
            picks = np.searchsorted(
                cumulative_array, doubles[:end:stride] * total_weight
            )
            np.minimum(picks, clauses - 1, out=picks)
        else:
            read = memoryview(doubles)
            picked = []
            end = 0
            for _ in range(size):
                pick = weighted_index(cumulative, read[end] * total_weight)
                picked.append(pick)
                end += strides[pick]
            picks = np.array(picked, dtype=np.intp)
        rows = flags[:size * (1 + width)].reshape(size, 1 + width)
        np.take(reads, picks, axis=0, out=rows, mode="clip")
        grid = cells[:size]
        grid[rows] = doubles[:end]
        carried = available - end
        doubles[:carried] = doubles[end:available]
        # A fact is present unless it is free and its double is not
        # below its probability.
        present = presence[:size * width].reshape(size, width)
        np.greater_equal(grid[:, 1:], probabilities, out=present)
        np.logical_and(present, rows[:, 1:], out=present)
        np.logical_not(present, out=present)
        # One row per fact, its samples grouped by clause (the order
        # within a clause does not change the count).
        by_fact = flags[:width * size].reshape(width, size)
        np.take(
            present.T, np.argsort(picks), axis=1, out=by_fact, mode="clip"
        )
        packed = np.packbits(by_fact, axis=1, bitorder="little")
        bits = packed.tobytes()
        step = packed.shape[1]
        return _accepted(
            [
                int.from_bytes(bits[at:at + step], "little")
                for at in range(0, len(bits), step)
            ],
            np.bincount(picks).tolist(),
            members,
        )

    accepted = 0
    batcher = TickBatcher("lineage.karp_luby", "karp_luby.samples_drawn")
    try:
        for done in range(0, samples, block):
            size = min(block, samples - done)
            batcher.tick(size)
            accepted += decide(size)
    finally:
        batcher.flush()
    return accepted


def _accepted(present: list, counts: list, members: list) -> int:
    """The accepted samples of one block grouped by picked clause.

    ``present[f]`` has bit s set iff sample s has fact f,
    ``counts[j]`` samples picked clause j (so they hold the next
    ``counts[j]`` bits), and ``members[j]`` lists clause j's facts.
    ``found`` is the OR of the satisfaction ints of the clauses before
    the current one: a sample is accepted iff its bit there is clear,
    which is the reference's "its clause is the first one the world
    satisfies".
    """
    accepted = 0
    found = 0
    start = 0
    for clause, count in enumerate(counts):
        if count:
            mask = (1 << count) - 1
            accepted += count - ((found >> start) & mask).bit_count()
            start += count
        found |= reduce(and_, map(present.__getitem__, members[clause]))
    return accepted
