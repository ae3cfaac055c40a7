"""Benchmark harness utilities: tables, timing, and growth fitting.

Every benchmark in ``benchmarks/`` prints its results through
:class:`ResultTable` so the output mirrors the row/series structure a
paper table or figure would have, and records paper-vs-measured notes
for EXPERIMENTS.md.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

__all__ = [
    "ResultTable",
    "timed",
    "fit_growth_exponent",
    "relative_error",
    "BatchComparison",
    "compare_sequential_vs_batch",
    "telemetry_table",
]


@dataclass
class ResultTable:
    """A printable results table with a caption.

    >>> t = ResultTable("demo", ["x", "y"])
    >>> t.add_row([1, 2.5])
    >>> print(t.render())  # doctest: +ELLIPSIS
    == demo ==...
    """

    caption: str
    columns: Sequence[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, values: Sequence[object]) -> None:
        self.rows.append([_format(v) for v in values])

    def render(self) -> str:
        header = [str(c) for c in self.columns]
        widths = [len(h) for h in header]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [f"== {self.caption} =="]
        lines.append(
            "  ".join(h.ljust(w) for h, w in zip(header, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            )
        return "\n".join(lines)

    def print(self) -> None:
        print(self.render())
        print()


def _format(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-4:
            return f"{value:.3e}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def timed(fn: Callable[[], object]) -> tuple[object, float]:
    """Run ``fn`` and return (result, wall seconds)."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def fit_growth_exponent(
    xs: Sequence[float], ys: Sequence[float]
) -> float:
    """Least-squares slope of log y against log x.

    The scaling benchmarks use this to certify polynomial growth: a
    slope of e means y ≈ c·x^e over the measured range.  Zero or
    negative measurements are dropped (timer noise floor).
    """
    points = [
        (math.log(x), math.log(y))
        for x, y in zip(xs, ys)
        if x > 0 and y > 0
    ]
    if len(points) < 2:
        raise ValueError("need at least two positive points to fit")
    n = len(points)
    mean_x = sum(p[0] for p in points) / n
    mean_y = sum(p[1] for p in points) / n
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in points)
    denominator = sum((x - mean_x) ** 2 for x, y in points)
    if denominator == 0:
        raise ValueError("all x values identical; cannot fit")
    return numerator / denominator


def relative_error(estimate: float, truth: float) -> float:
    """|estimate − truth| / truth (0 when both are 0, inf if truth is)."""
    if truth == 0:
        return 0.0 if estimate == 0 else math.inf
    return abs(estimate - truth) / abs(truth)


def telemetry_table(
    telemetry, caption: str = "telemetry stage breakdown"
) -> ResultTable:
    """A :class:`ResultTable` of per-phase span totals for ``telemetry``
    (an :class:`repro.obs.EvaluationTelemetry`), largest wall share
    first — the benchmark-side rendering of ``repro eval --profile``.
    """
    phases: dict[str, list[float]] = {}
    root_total = 0.0
    for record in telemetry.spans:
        cell = phases.setdefault(record.name, [0, 0.0, 0.0])
        cell[0] += 1
        cell[1] += record.duration
        cell[2] += record.cpu
        if record.parent_id is None:
            root_total += record.duration
    table = ResultTable(
        caption, ["phase", "spans", "wall s", "cpu s", "share"]
    )
    ordered = sorted(
        phases.items(), key=lambda pair: pair[1][1], reverse=True
    )
    for name, (count, wall, cpu) in ordered:
        share = wall / root_total if root_total else 0.0
        table.add_row([name, count, wall, cpu, f"{share:.1%}"])
    return table


@dataclass(frozen=True)
class BatchComparison:
    """Sequential-loop vs ``evaluate_batch`` timings over the same items."""

    items: int
    max_workers: int
    sequential_seconds: float
    batch_seconds: float
    cache_stats: object          # repro.core.cache.CacheStats
    sequential_values: tuple[float, ...]
    batch_values: tuple[float, ...]

    @property
    def speedup(self) -> float:
        if self.batch_seconds <= 0:
            return math.inf
        return self.sequential_seconds / self.batch_seconds

    @property
    def values_match(self) -> bool:
        """Bitwise agreement between the loop and the batch (the
        reproducibility contract of :mod:`repro.core.parallel`)."""
        return self.sequential_values == self.batch_values


def compare_sequential_vs_batch(
    engine, items, *, max_workers: int, seed: int | None
) -> BatchComparison:
    """Run ``items`` twice — a per-item engine loop with no cache, then
    ``evaluate_batch`` with a shared cache and a pool — and report both
    timings plus the batch's cache statistics.

    The sequential loop uses the *same* derived per-item seeds as the
    batch, so the two value tuples must agree bitwise; benchmarks and
    the CLI both route batch work through this contract.
    """
    from repro.core.parallel import derive_item_seed, evaluate_batch
    from repro.core.tasks import TASKS

    sequential_values = []

    def run_loop():
        for index, item in enumerate(items):
            answer = TASKS[item.task].evaluate(
                engine, item.query, item.database,
                method=item.method, seed=derive_item_seed(seed, index),
            )
            sequential_values.append(answer.value)

    _, sequential_seconds = timed(run_loop)
    batch, batch_seconds = timed(
        lambda: evaluate_batch(
            engine, items, max_workers=max_workers, seed=seed
        )
    )
    return BatchComparison(
        items=len(items),
        max_workers=max_workers,
        sequential_seconds=sequential_seconds,
        batch_seconds=batch_seconds,
        cache_stats=batch.cache_stats,
        sequential_values=tuple(sequential_values),
        batch_values=batch.values,
    )
