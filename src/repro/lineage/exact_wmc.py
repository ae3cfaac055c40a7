"""Exact weighted model counting of monotone DNF lineage.

Computes ``Pr[φ]`` for a monotone DNF φ under independent fact
probabilities, by Shannon expansion with three standard optimisations:

- **independent components**: clauses over disjoint variable sets
  multiply as ``1 − Π (1 − Pr[component])``... more precisely the
  probability of a disjunction of independent components composes as
  ``Pr[φ ∨ ψ] = 1 − (1 − Pr[φ])(1 − Pr[ψ])``;
- **unit clauses**: a singleton clause {f} allows the factorisation
  ``Pr[φ] = p(f) + (1 − p(f)) · Pr[φ | f=0]``;
- **memoisation** on the structure of the residual formula.

Worst-case exponential (weighted #DNF is #P-hard), but fast on the small
instances used for ground truth, and an exact *baseline system* in its
own right — this is what "compute the lineage and count it exactly"
amounts to.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from repro.core.budget import budget_checkpoint
from repro.db.fact import Fact
from repro.lineage.dnf import DNF

__all__ = ["dnf_probability"]


def dnf_probability(
    formula: DNF, probabilities: Mapping[Fact, Fraction]
) -> Fraction:
    """Exact ``Pr[φ]`` under independent fact probabilities.  Each
    expansion step is a deadline checkpoint (phase ``lineage.wmc``)."""
    probs = {f: Fraction(p) for f, p in probabilities.items()}
    memo: dict[frozenset[frozenset[Fact]], Fraction] = {}
    return _probability(formula.minimized().clauses, probs, memo)


def _probability(
    clauses: frozenset[frozenset[Fact]],
    probs: Mapping[Fact, Fraction],
    memo: dict,
) -> Fraction:
    budget_checkpoint("lineage.wmc")
    if not clauses:
        return Fraction(0)
    cached = memo.get(clauses)
    if cached is not None:
        return cached

    components = _split_components(clauses)
    if len(components) > 1:
        none_holds = Fraction(1)
        for component in components:
            none_holds *= 1 - _probability(component, probs, memo)
        result = 1 - none_holds
        memo[clauses] = result
        return result

    # Single connected component: branch on the most frequent variable.
    counts: dict[Fact, int] = {}
    for clause in clauses:
        for fact in clause:
            counts[fact] = counts.get(fact, 0) + 1
    pivot = max(counts, key=lambda f: (counts[f], str(f)))
    p = probs[pivot]

    # Positive cofactor: pivot present.
    positive: set[frozenset[Fact]] = set()
    positive_true = False
    for clause in clauses:
        reduced = clause - {pivot}
        if not reduced and pivot in clause:
            positive_true = True
            break
        positive.add(reduced)
    if positive_true:
        pr_pos = Fraction(1)
    else:
        pr_pos = _probability(
            _absorb(frozenset(positive)), probs, memo
        )

    # Negative cofactor: pivot absent — clauses containing it die.
    negative = frozenset(c for c in clauses if pivot not in c)
    pr_neg = _probability(negative, probs, memo)

    result = p * pr_pos + (1 - p) * pr_neg
    memo[clauses] = result
    return result


def _absorb(
    clauses: frozenset[frozenset[Fact]],
) -> frozenset[frozenset[Fact]]:
    """Drop clauses that are supersets of other clauses."""
    ordered = sorted(clauses, key=len)
    kept: list[frozenset[Fact]] = []
    for clause in ordered:
        if not any(other <= clause for other in kept):
            kept.append(clause)
    return frozenset(kept)


def _split_components(
    clauses: frozenset[frozenset[Fact]],
) -> list[frozenset[frozenset[Fact]]]:
    """Partition clauses into variable-disjoint connected components."""
    remaining = list(clauses)
    components: list[frozenset[frozenset[Fact]]] = []
    while remaining:
        seed = remaining.pop()
        group = [seed]
        group_vars = set(seed)
        changed = True
        while changed:
            changed = False
            still: list[frozenset[Fact]] = []
            for clause in remaining:
                if clause & group_vars:
                    group.append(clause)
                    group_vars |= clause
                    changed = True
                else:
                    still.append(clause)
            remaining = still
        components.append(frozenset(group))
    return components
