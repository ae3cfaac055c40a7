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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Mapping

from repro.automata.nfa_counting import weighted_index
from repro.core.budget import budget_tick
from repro.db.fact import Fact
from repro.errors import EstimationError
from repro.lineage.dnf import DNF, clause_probability
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

    ``backend='optimized'`` (the default; see
    :mod:`repro.core.kernels`) interns the relevant facts to bit
    positions so worlds are int masks, precomputes each clause's
    free-fact list, and batches the per-sample budget/metric ticks.
    The RNG is consulted for exactly the same facts in exactly the
    reference order, so the estimate is bitwise-identical to
    ``backend='reference'`` for any seed.
    """
    from repro.core.kernels import resolve_backend

    backend = resolve_backend(backend)
    fault_point("lineage.karp_luby")
    if formula.is_false():
        return KarpLubyResult(estimate=0.0, samples=0, accepted=0)

    rng = random.Random(seed)
    probs = {f: Fraction(p) for f, p in probabilities.items()}
    clauses = sorted(formula.clauses, key=lambda c: sorted(map(str, c)))
    # Running left-to-right sums: ``sum`` of floats rounds differently
    # from Python 3.12 on, and the total must not depend on that.
    cumulative = list(accumulate(
        float(clause_probability(c, probs)) for c in clauses
    ))
    total_weight = cumulative[-1] if cumulative else 0.0
    if total_weight == 0:
        return KarpLubyResult(estimate=0.0, samples=0, accepted=0)

    if samples is None:
        samples = required_samples(len(clauses), epsilon, delta)

    # Facts relevant to the formula; facts outside it cannot affect
    # satisfaction and are never sampled.
    relevant = sorted(formula.variables, key=Fact.sort_key)
    float_probs = {f: float(probs[f]) for f in relevant}

    accepted = 0
    metric_gauge("karp_luby.clauses", len(clauses))
    with span("lineage.karp_luby", samples=samples):
        if backend != "reference":
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
        estimate=total_weight * accepted / samples,
        samples=samples,
        accepted=accepted,
    )


def _sample_optimized(
    rng, samples, clauses, cumulative, total_weight, relevant, float_probs
) -> int:
    """The bitmask sampling loop of the optimized kernel backend.

    Worlds are int masks over the ``relevant`` fact order; each clause
    precomputes its mask and its free (non-forced) facts *in the same
    relevant order the reference iterates*, so the two backends draw
    identical RNG sequences — ``world ⊨ C_i`` becomes one AND compare.

    The free lists share one ``(bit, probability)`` pair per fact.  The
    loop reads them at random clauses, so their size decides whether it
    runs from cache: on the 729-clause benchmark lineage they take
    0.27 MB, against 1.9 MB (about a core's L2) with a pair per clause
    and fact.
    """
    from repro.core.kernels import TickBatcher

    bit_of = {fact: 1 << i for i, fact in enumerate(relevant)}
    pair_of = {fact: (bit_of[fact], float_probs[fact]) for fact in relevant}
    clause_masks = []
    free_lists = []
    for clause in clauses:
        mask = 0
        for fact in clause:
            mask |= bit_of[fact]
        clause_masks.append(mask)
        free_lists.append(
            tuple(pair_of[fact] for fact in relevant if fact not in clause)
        )

    accepted = 0
    random_ = rng.random
    batcher = TickBatcher("lineage.karp_luby", "karp_luby.samples_drawn")
    try:
        for _ in range(samples):
            batcher.tick()
            pick = random_() * total_weight
            index = weighted_index(cumulative, pick)
            world = clause_masks[index]
            for bit, probability in free_lists[index]:
                if random_() < probability:
                    world |= bit
            first = next(
                i for i, mask in enumerate(clause_masks)
                if mask & world == mask
            )
            if first == index:
                accepted += 1
    finally:
        batcher.flush()
    return accepted
