"""Lineage construction: from (query, database) to a DNF formula.

This is the first half of the *intensional* approach the paper's
introduction critiques: each homomorphism of the query into the database
contributes one clause (its witness fact set).  The clause count is
bounded below by the homomorphism count, which is Θ(|D|^|Q|) on the
paper's path workloads — the ``budget`` parameter lets benchmarks abort
construction once the blow-up has been demonstrated rather than filling
memory.
"""

from __future__ import annotations

from repro.core.budget import budget_tick, effective_clause_budget
from repro.db.instance import DatabaseInstance
from repro.db.semantics import witness_sets
from repro.errors import LineageSizeBudgetExceeded
from repro.lineage.dnf import DNF
from repro.obs import metric_inc, span
from repro.queries.cq import ConjunctiveQuery
from repro.testing.faults import fault_point

__all__ = ["build_lineage", "lineage_clause_count"]


def build_lineage(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    budget: int | None = None,
    minimize: bool = False,
) -> DNF:
    """The DNF lineage of ``query`` over ``instance``.

    Parameters
    ----------
    budget:
        Maximum number of (distinct) clauses to accumulate; exceeding it
        raises :class:`~repro.errors.LineageSizeBudgetExceeded` carrying
        the count reached.
    minimize:
        Also remove absorbed clauses (supersets of smaller clauses).

    An active :class:`~repro.core.budget.EvaluationBudget` participates
    too: its ``lineage_clause_cap`` tightens ``budget``, and every
    witness charges one work unit against the deadline/work caps.
    """
    fault_point("lineage.build")
    with span("lineage.build"):
        formula = DNF(_distinct_witnesses(query, instance, budget))
        if minimize:
            formula = formula.minimized()
    return formula


def lineage_clause_count(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    budget: int | None = None,
) -> int:
    """Count distinct lineage clauses without building the formula.

    Streaming variant for the blow-up benchmarks; same budget semantics
    as :func:`build_lineage`, whose witness loop it runs.
    """
    with span("lineage.build", streaming=True):
        return len(_distinct_witnesses(query, instance, budget))


def _distinct_witnesses(query, instance, budget) -> set[frozenset]:
    """The witness loop behind both entry points: the distinct clauses,
    charging one work unit per witness and raising
    :class:`~repro.errors.LineageSizeBudgetExceeded` past the budget."""
    budget = effective_clause_budget(budget)
    clauses: set[frozenset] = set()
    for witness in witness_sets(query, instance):
        budget_tick("lineage.build")
        metric_inc("lineage.witnesses_enumerated")
        before = len(clauses)
        clauses.add(witness)
        if len(clauses) > before:
            metric_inc("lineage.clauses_built")
        if budget is not None and len(clauses) > budget:
            raise LineageSizeBudgetExceeded(budget, len(clauses))
    return clauses
