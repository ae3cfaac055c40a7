"""The task table: what ``probability``, ``reliability`` and ``rpq`` mean.

A batch item, an HTTP request and a CLI batch entry each name one task.
:data:`TASKS` maps every task name to what the layers above the engine
need to know about it — the engine entry point, the database and query
types an item must carry, the coercion applied before the call, the
label answers print under and the degradation ladder — so the batch
evaluator, the resilience ladder, the serve daemon, the CLI and the
bench harness read one table instead of each branching on task strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import ReproError
from repro.graphs.model import ProbabilisticGraph
from repro.graphs.rpq import RPQQuery
from repro.queries.lifted import classify_query

__all__ = ["TASKS", "Task", "infer_task"]


@dataclass(frozen=True)
class Task:
    """One evaluation task.

    ``entry(engine, query, database, **kwargs)`` calls the engine and
    returns its :class:`~repro.core.estimator.PQEAnswer`; ``databases``
    and ``query`` are the types an item must carry; ``coerce`` maps an
    accepted database onto what ``entry`` takes; ``label`` names the
    answer in printed output; ``ladder(query, method)`` lists the
    degradation routes, most-preferred first.
    """

    name: str
    label: str
    databases: tuple[type, ...]
    query: type
    coerce: Callable
    entry: Callable
    ladder: Callable[[object, str], tuple[str, ...]]

    def evaluate(self, engine, query, database, **kwargs):
        """Run the task's engine entry point on a coerced database."""
        return self.entry(engine, query, self.coerce(database), **kwargs)

    def check(self, query, database, where: str) -> None:
        """Raise a :class:`~repro.errors.ReproError` naming ``where``
        unless ``query`` and ``database`` fit this task."""
        if not isinstance(database, self.databases):
            wanted = " or ".join(t.__name__ for t in self.databases)
            raise ReproError(
                f"{where}: task {self.name!r} needs a {wanted}, got "
                f"{type(database).__name__}"
            )
        if not isinstance(query, self.query):
            raise ReproError(
                f"{where}: task {self.name!r} needs an "
                f"{self.query.__name__}, got {type(query).__name__}"
            )


def _starting_at(method: str, tail: tuple[str, ...]) -> tuple[str, ...]:
    """``method`` followed by the tail rungs below it."""
    if method in tail:
        return tail[tail.index(method):]
    return (method,) + tail


def _probability_ladder(query, method: str) -> tuple[str, ...]:
    # Safe queries start at the lifted rung — exact, polynomial, zero-ε
    # — which subsumes ``auto`` for them (auto routes safe queries to
    # the same plan); everything else starts at the engine's auto
    # routing, repeats the randomized leg with widened ε, then lands on
    # Monte-Carlo.
    randomized = "fpras" if query.is_self_join_free else "karp-luby"
    if method == "auto" and classify_query(query).safe:
        method = "lifted"
    return _starting_at(method, (randomized, "monte-carlo"))


def _reliability_ladder(query, method: str) -> tuple[str, ...]:
    # Monte-Carlo has no reliability variant: the FPRAS with widened ε
    # is the last resort, even below an explicit ``fpras`` rung.
    return (method, "fpras")


def _rpq_ladder(query, method: str) -> tuple[str, ...]:
    # 'auto' already self-routes around cyclic graphs; the product
    # FPRAS degrades to world-sampling Monte-Carlo, which works on any
    # graph at any size.
    return _starting_at(method, ("fpras", "monte-carlo"))


def _unchanged(database):
    return database


def _as_instance(database):
    if isinstance(database, ProbabilisticDatabase):
        return database.instance
    return database


TASKS: dict[str, Task] = {
    task.name: task
    for task in (
        Task(
            "probability", "Pr", (ProbabilisticDatabase,), object,
            _unchanged,
            lambda engine, query, database, **kw: engine.probability(
                query, database, **kw
            ),
            _probability_ladder,
        ),
        Task(
            "reliability", "UR", (DatabaseInstance, ProbabilisticDatabase),
            object,
            _as_instance,
            lambda engine, query, database, **kw: engine.uniform_reliability(
                query, database, **kw
            ),
            _reliability_ladder,
        ),
        Task(
            "rpq", "Pr_G", (ProbabilisticGraph,), RPQQuery,
            _unchanged,
            lambda engine, query, database, **kw: engine.rpq_probability(
                database, query, **kw
            ),
            _rpq_ladder,
        ),
    )
}


def infer_task(database) -> str:
    """The task a bare ``(query, database)`` pair asks for: the first
    task, in table order, whose database types include ``database``'s —
    a probabilistic database means ``probability``, a plain instance
    ``reliability``, a graph ``rpq`` — and ``reliability`` for anything
    else (a versioned database pins to a version at validation)."""
    for task in TASKS.values():
        if isinstance(database, task.databases):
            return task.name
    return "reliability"
