"""Brute-force exact PQE and uniform reliability — the ground truth.

Two independent exact code paths are provided for each quantity:

- subinstance enumeration (pure definition, 2^|D| work), and
- lineage construction + exact weighted model counting.

Tests cross-validate them against each other and use them to certify
every estimator in the library.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.budget import budget_checkpoint
from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.db.semantics import satisfies
from repro.errors import ReproError
from repro.lineage.build import build_lineage
from repro.lineage.exact_wmc import dnf_probability
from repro.queries.cq import ConjunctiveQuery

__all__ = ["exact_probability", "exact_uniform_reliability"]

_ENUMERATION_LIMIT = 24


def exact_probability(
    query: ConjunctiveQuery,
    pdb: ProbabilisticDatabase,
    method: str = "lineage",
) -> Fraction:
    """``Pr_H(Q)`` exactly, as a rational.

    ``method='lineage'`` (default) computes the DNF lineage and counts it
    exactly; ``method='enumerate'`` sums over all 2^|D| subinstances
    (only for instances of at most 24 facts).
    """
    if method == "lineage":
        projected = pdb.project_to_query(query)
        formula = build_lineage(query, projected.instance)
        return dnf_probability(formula, projected.probabilities)
    if method == "enumerate":
        if len(pdb) > _ENUMERATION_LIMIT:
            raise ReproError(
                f"enumeration over 2^{len(pdb)} subinstances refused; "
                "use method='lineage'"
            )
        return sum(
            map(pdb.subinstance_probability, _satisfying(pdb.instance, query)),
            Fraction(0),
        )
    raise ReproError(f"unknown exact method {method!r}")


def exact_uniform_reliability(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    method: str = "lineage",
) -> int:
    """``UR(Q, D)``: the number of subinstances of D satisfying Q.

    Computed via ``Pr_H(Q) · 2^|D|`` at uniform probability 1/2
    (``method='lineage'``), or by direct enumeration
    (``method='enumerate'``).
    """
    if method == "lineage":
        pdb = ProbabilisticDatabase.uniform(instance)
        probability = exact_probability(query, pdb, method="lineage")
        scaled = probability * (Fraction(2) ** len(instance))
        if scaled.denominator != 1:
            raise ReproError(
                "internal error: uniform reliability came out non-integer"
            )
        return int(scaled)
    if method == "enumerate":
        if len(instance) > _ENUMERATION_LIMIT:
            raise ReproError(
                f"enumeration over 2^{len(instance)} subinstances refused"
            )
        return sum(1 for _ in _satisfying(instance, query))
    raise ReproError(f"unknown exact method {method!r}")


def _satisfying(instance: DatabaseInstance, query: ConjunctiveQuery):
    """The subinstances of ``instance`` that satisfy ``query``, each
    subinstance a deadline checkpoint (phase ``exact.enumerate``)."""
    for subset in instance.subinstances():
        budget_checkpoint("exact.enumerate")
        if satisfies(DatabaseInstance(subset), query):
            yield subset
