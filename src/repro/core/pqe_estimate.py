"""PQEEstimate (Theorem 1) and UREstimate (Theorem 3): the FPRASes for
probabilistic query evaluation and uniform reliability.

Both count trees in one step, :func:`_estimate_trees`: UREstimate
scales the count by ``2^{|D \\ D'|}``, PQEEstimate divides it by
``d = Π_f d_f``.

PQEEstimate extends the uniform-reliability reduction to arbitrary
rational fact probabilities with the multiplier construction of
Section 5:

- write each label as ``π(f) = w_f / d_f`` in lowest terms;
- in the λ-free NFTA of Proposition 1, weight every positive literal
  transition of fact f with multiplier ``w_f`` and every negative one
  with ``d_f − w_f`` (PAD transitions get 1);
- translate multipliers into binary-comparator gadgets
  (:mod:`repro.automata.multiplier`), using a **common gadget length**
  ``bits_f = max(u(w_f), u(d_f − w_f))`` for both polarities of a fact,
  so both branches add the same number of tree nodes — this is what
  makes every accepted tree have the single size

      k = |D'| + pad_count + Σ_f bits_f

  that the paper's formula ``k = |D| + Σ u(w_i)`` presupposes;
- then  Pr_H(Q) = |L_k(T')| / d  with  d = Π_f d_f.

Facts with probability 0 (positive multiplier 0) simply lose their
positive branch; probability-1 facts lose the negative branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.automata.multiplier import (
    MultiplierNFTA,
    minimal_gadget_bits,
)
from repro.automata.nfa_counting import (
    CountResult,
    probability_from_measure,
    scaled_count,
)
from repro.automata.nfta import NFTA
from repro.automata.nfta_counting import count_nfta, count_nfta_exact
from repro.automata.symbols import Literal, literal_weights
from repro.core.ur_reduction import (
    URReduction,
    _ready_decomposition,
    build_ur_reduction,
)
from repro.db.fact import Fact
from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.decomposition import HypertreeDecomposition
from repro.errors import AutomatonError
from repro.obs import span
from repro.queries.cq import ConjunctiveQuery

__all__ = [
    "PQEReduction",
    "PQEEstimate",
    "build_pqe_reduction",
    "pqe_estimate",
    "ur_estimate",
]


def _gadget_bits(probability: Fraction) -> int:
    """Common gadget length for both polarities of a fact."""
    numerator = probability.numerator
    complement = probability.denominator - numerator
    bits = 0
    if numerator >= 1:
        bits = max(bits, minimal_gadget_bits(numerator))
    if complement >= 1:
        bits = max(bits, minimal_gadget_bits(complement))
    return bits


@dataclass(frozen=True)
class PQEReduction:
    """The Theorem 1 automaton and its normalisation constants.

    ``weighted=True`` marks the gadget-free variant: ``nfta`` is then
    the plain Proposition 1 automaton and the probability is recovered
    as the *weighted* tree measure over it (numerator weights on
    positive literals, complement weights on negative ones) divided by
    ``denominator`` — the practical optimisation the paper's conclusion
    anticipates, avoiding the ``Σ u(w_i)`` tree-size inflation.
    """

    ur_reduction: URReduction
    nfta: NFTA                    # multiplier automaton, or UR automaton
    tree_size: int                # the k of Theorem 1
    denominator: int              # d = Π d_f
    weighted: bool = False
    weight_of: object = None      # symbol → weight (weighted mode only)


def build_pqe_reduction(
    query: ConjunctiveQuery,
    pdb: ProbabilisticDatabase,
    decomposition: HypertreeDecomposition | None = None,
    weighted: bool = False,
    cache=None,
) -> PQEReduction:
    """Build the Section 5.2 automaton: ``Pr_H(Q) = |L_k(T')| / d``.

    With ``weighted=True`` the comparator gadgets are skipped: the plain
    Proposition 1 automaton is returned together with a per-symbol
    weight function, and the probability is the weighted tree measure
    over it divided by ``d``.

    ``cache`` (a :class:`~repro.core.cache.ReductionCache`) memoizes the
    finished reduction under ``("pqe", query.cache_token,
    pdb.projection_token(query.relation_names), weighted)``.  The
    projection token is exact — the build projects ``pdb`` to the
    query's relations before constructing anything — and, unlike the
    whole-database token, is stable across deltas confined to other
    relations, so the entry keeps hitting on later database versions.
    The underlying decomposition is cached under its own query-only
    ``("ghd", …)`` key, so distinct groundings of one query shape still
    share the decomposition search.  A caller-supplied
    ``decomposition`` bypasses the cache.
    """
    if cache is not None and decomposition is None:
        relations = frozenset(query.relation_names)
        key = ("pqe", query.cache_token, pdb.projection_token(relations), weighted)
        return cache.get_or_build(
            key,
            lambda: _build_pqe_reduction(query, pdb, None, weighted, cache),
            relations=relations,
        )
    return _build_pqe_reduction(query, pdb, decomposition, weighted, cache)


def _build_pqe_reduction(
    query: ConjunctiveQuery,
    pdb: ProbabilisticDatabase,
    decomposition: HypertreeDecomposition | None,
    weighted: bool,
    cache,
) -> PQEReduction:
    from repro.testing.faults import fault_point

    fault_point("reduction.pqe")
    with span("reduction.pqe", weighted=weighted):
        return _build_pqe_reduction_body(
            query, pdb, decomposition, weighted, cache
        )


def _build_pqe_reduction_body(
    query: ConjunctiveQuery,
    pdb: ProbabilisticDatabase,
    decomposition: HypertreeDecomposition | None,
    weighted: bool,
    cache,
) -> PQEReduction:
    projected = pdb.project_to_query(query)
    if cache is not None and decomposition is None:
        # Only the decomposition layer is shared here: the full UR entry
        # would duplicate what the enclosing PQE entry already stores.
        decomposition = cache.get_or_build(
            ("ghd", query.cache_token),
            lambda: _ready_decomposition(query),
            relations=frozenset(),
        )
    reduction = build_ur_reduction(
        query, projected.instance, decomposition=decomposition
    )

    probabilities: dict[Fact, Fraction] = dict(projected.probabilities)

    if weighted:
        return PQEReduction(
            ur_reduction=reduction,
            nfta=reduction.nfta,
            tree_size=reduction.tree_size,
            denominator=projected.denominator_product,
            weighted=True,
            weight_of=literal_weights(probabilities),
        )
    bits_for: dict[Fact, int] = {
        fact: _gadget_bits(prob) for fact, prob in probabilities.items()
    }

    multiplier_transitions = []
    for source, symbol, children in reduction.nfta.transitions:
        if isinstance(symbol, Literal):
            prob = probabilities.get(symbol.fact)
            if prob is None:
                raise AutomatonError(
                    f"automaton reads fact {symbol.fact} missing from H"
                )
            if symbol.positive:
                multiplier = prob.numerator
            else:
                multiplier = prob.denominator - prob.numerator
            bits = bits_for[symbol.fact]
            # A multiplier of 1 with a non-zero common gadget length must
            # still consume `bits` symbols so both polarities add the
            # same node count.
            multiplier_transitions.append(
                (source, symbol, multiplier, bits, children)
            )
        else:
            # PAD (or any non-literal) transitions are weight-neutral.
            multiplier_transitions.append((source, symbol, 1, 0, children))

    multiplier_nfta = MultiplierNFTA(
        multiplier_transitions, initial=reduction.nfta.initial
    )
    translated = multiplier_nfta.translate().trimmed()
    return PQEReduction(
        ur_reduction=reduction,
        nfta=translated,
        tree_size=reduction.tree_size + sum(bits_for.values()),
        denominator=projected.denominator_product,
    )


@dataclass(frozen=True)
class PQEEstimate:
    """Result of the Theorem 1 and Theorem 3 estimators (the reduction
    of :func:`ur_estimate` is a :class:`URReduction`)."""

    estimate: float
    count_result: CountResult
    reduction: PQEReduction | URReduction

    @property
    def exact(self) -> bool:
        """True when the hybrid counter stayed exact end to end."""
        return self.count_result.exact

    @property
    def nfta_states(self) -> int:
        return len(self.reduction.nfta.states)

    @property
    def nfta_transitions(self) -> int:
        return self.reduction.nfta.num_transitions

    def __float__(self) -> float:
        return self.estimate


def _estimate_trees(
    reduction, normalise, by: int, exact: bool, weight_of, backend: str,
    cache, key: tuple | None, relations: frozenset, weighted: bool = True,
    **sampler,
) -> PQEEstimate:
    """The tree-count step both estimators share: the exact DP (whose
    integer measure normalises exactly past the float range) or
    CountNFTA over ``reduction.nfta`` at ``reduction.tree_size``,
    weighted by ``weight_of`` unless it is ``None``; the answer is
    ``normalise(measure, by)``.

    With a ``key``, a CountNFTA result is stored in ``cache`` (with
    ``relations`` and ``weighted`` as in
    :meth:`~repro.core.cache.ReductionCache.get_or_build`) only when it
    stayed exact: it then depends on the automaton, tree size, weights
    and cap, not the seed, so it is shareable, while a sampled one
    stays private and a fixed seed gives the same estimate with or
    without a cache.  The key holds the backend, though every backend
    is bitwise-identical, so differential runs never share a result.
    """
    if exact:
        measure = count_nfta_exact(
            reduction.nfta, reduction.tree_size, weight_of=weight_of,
            backend=backend,
        )
        result = CountResult.of_exact(measure)
    else:
        def run_count() -> CountResult:
            return count_nfta(
                reduction.nfta, reduction.tree_size, weight_of=weight_of,
                backend=backend, **sampler,
            )

        if key is None:
            result = run_count()
        else:
            result = cache.get_or_build(
                key, run_count, cache_if=lambda result: result.exact,
                relations=relations, weighted=weighted,
            )
        measure = result.estimate
    return PQEEstimate(normalise(measure, by), result, reduction)


def ur_estimate(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    epsilon: float = 0.25,
    seed: int | None = None,
    samples: int | None = None,
    exact_set_cap: int = 4096,
    repetitions: int = 1,
    decomposition: HypertreeDecomposition | None = None,
    method: str = "fpras",
    cache=None,
    backend=None,
) -> PQEEstimate:
    """Theorem 3's UREstimate: a (1 ± ε)-approximation of UR(Q, D).

    Chains the Proposition 1 construction with CountNFTA:

        UR(Q, D) = 2^{|D \\ D'|} · |L_k(T)|

    where D' is D projected onto Q's relations, T the translated NFTA,
    and k the accepted-tree size reported by the reduction.  Runtime is
    polynomial in |Q|, |D| and 1/ε for any query class of bounded
    hypertree width; a count past the float range is ``inf``.

    Parameters
    ----------
    method:
        ``'fpras'`` (the paper's algorithm) or ``'exact-automaton'``
        (same reduction, but the determinization-based exact counter —
        exponential worst case, used for validation).
    cache:
        Optional :class:`~repro.core.cache.ReductionCache`; memoizes the
        Proposition 1 build (see
        :func:`repro.core.ur_reduction.build_ur_reduction`) and exact
        (seed-independent) count results; sampled counts are never
        stored, so a fixed seed yields the same estimate with or
        without a cache.
    backend:
        Counting-kernel backend, ``'optimized'`` (default; also spelled
        ``'vectorized'``) or ``'reference'`` — see
        :mod:`repro.core.kernels`.  Bitwise-identical results under
        every name.
    """
    from repro.core.kernels import resolve_backend

    backend = resolve_backend(backend)
    if method not in ("fpras", "exact-automaton"):
        raise ValueError(f"unknown method {method!r}")
    reduction = build_ur_reduction(
        query, instance, decomposition=decomposition, cache=cache
    )
    relations = frozenset(query.relation_names)
    key = None
    if cache is not None and decomposition is None:
        key = (
            "count", "ur", query.cache_token,
            instance.projection_token(relations), exact_set_cap, backend,
        )
    return _estimate_trees(
        reduction, scaled_count, reduction.scale,
        method == "exact-automaton", None, backend, cache, key, relations,
        # The count sees only the instance's fact sets (via the
        # unweighted projection token): reweights never stale it.
        weighted=False,
        epsilon=epsilon, seed=seed, samples=samples,
        exact_set_cap=exact_set_cap, repetitions=repetitions,
    )


_PQE_METHODS = (
    "fpras", "fpras-weighted", "exact-automaton", "exact-weighted",
)


def pqe_estimate(
    query: ConjunctiveQuery,
    pdb: ProbabilisticDatabase,
    epsilon: float = 0.25,
    seed: int | None = None,
    samples: int | None = None,
    exact_set_cap: int = 4096,
    repetitions: int = 1,
    decomposition: HypertreeDecomposition | None = None,
    method: str = "fpras",
    cache=None,
    backend=None,
) -> PQEEstimate:
    """Theorem 1's PQEEstimate: (1 ± ε)-approximation of ``Pr_H(Q)``.

    Runtime is polynomial in |Q|, |H| (including the bit size of the
    probability labels) and 1/ε for bounded-hypertree-width self-join-
    free conjunctive queries.

    Parameters
    ----------
    method:
        ``'fpras'`` (the paper's algorithm), ``'exact-automaton'``
        (exact tree count through the same reduction; validation only),
        or the gadget-free weighted variants ``'fpras-weighted'`` /
        ``'exact-weighted'`` that count a weighted tree measure over
        the plain Proposition 1 automaton — smaller trees, same answer
        (the practical optimisation anticipated in the paper's
        conclusion; see ``benchmarks/bench_weighted_vs_gadget.py``).
    cache:
        Optional :class:`~repro.core.cache.ReductionCache`; memoizes the
        reduction build (see :func:`build_pqe_reduction`) and, when the
        hybrid counter stays in its exact regime, the count result
        itself — exact counts are seed-independent, so sharing them
        changes nothing about any item's value.  Sampled (non-exact)
        counts are never stored: with or without a cache, a fixed seed
        yields bitwise the same estimate.
    backend:
        Counting-kernel backend, ``'optimized'`` (default; also spelled
        ``'vectorized'``) or ``'reference'`` — see
        :mod:`repro.core.kernels`.  Both are bitwise-identical for any
        seed; ``reference`` exists for differential testing and triage.

    A sampled measure past the float range over a ``d`` past it too
    raises :class:`~repro.errors.EstimationError`; exact methods answer.
    """
    from repro.core.kernels import resolve_backend

    backend = resolve_backend(backend)
    if method not in _PQE_METHODS:
        raise ValueError(f"unknown method {method!r}")
    weighted = method in ("fpras-weighted", "exact-weighted")
    reduction = build_pqe_reduction(
        query, pdb, decomposition=decomposition, weighted=weighted,
        cache=cache,
    )
    relations = frozenset(query.relation_names)
    key = None
    if cache is not None and decomposition is None:
        key = (
            "count", "pqe", query.cache_token,
            pdb.projection_token(relations),
            method, exact_set_cap, backend,
        )
    return _estimate_trees(
        reduction, probability_from_measure, reduction.denominator,
        method.startswith("exact"),
        reduction.weight_of if weighted else None, backend, cache, key,
        relations,
        epsilon=epsilon, seed=seed, samples=samples,
        exact_set_cap=exact_set_cap, repetitions=repetitions,
    )
