"""Answer checks against truths computed at set-up, outside timing.

- Exact routes must equal the truth as :class:`~fractions.Fraction`\\ s.
- Approximate routes must lie within their ε of the truth at the fixed
  seed: ``|value − truth| ≤ ε · truth``.
- Daemon answers must lie within the ε the response itself reports;
  answers from a shed ladder rung may end on Monte-Carlo, whose error
  is additive, so they also get ``+ ε``.

:func:`catches_perturbation` is the checker's own test: a truth moved
by a little more than the allowed error must be reported as a miss.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["answer_ok", "catches_perturbation"]


def answer_ok(
    value: float,
    rational: Fraction | None,
    truth: Fraction,
    epsilon: float | None,
    additive: bool = False,
) -> bool:
    """Whether one answer is correct.

    ``epsilon=None`` marks an exact route: ``rational`` must equal
    ``truth``.  Otherwise ``value`` must be within ``epsilon`` (relative,
    plus ``epsilon`` absolute when ``additive``).
    """
    if epsilon is None:
        return rational is not None and Fraction(rational) == truth
    allowed = epsilon * float(truth) + (epsilon if additive else 0.0)
    return abs(value - float(truth)) <= allowed


def catches_perturbation(
    value: float,
    rational: Fraction | None,
    truth: Fraction,
    epsilon: float | None,
) -> bool:
    """True when :func:`answer_ok` rejects ``value`` against a truth
    perturbed just beyond the allowed error — the benchmark's proof that
    its checks can fail."""
    if epsilon is None:
        wrong = truth + Fraction(1, 10**12)
        return not answer_ok(value, rational, wrong, None)
    # A truth below the answer by 1.1 ε of itself: just out of band.
    wrong = value / (1 + 1.1 * epsilon) if value > 0 else 2 * float(truth)
    return not answer_ok(value, rational, Fraction(wrong), epsilon)
