"""The task table: what ``probability``, ``reliability`` and ``rpq`` mean.

A batch item, an HTTP request and a CLI batch entry each name one task.
:data:`TASKS` maps every task name to what the layers above the engine
need to know about it — the engine entry point, the methods it accepts,
the database and query types an item must carry, the coercion applied
before the call, the label answers print under and the degradation
ladder — so the engine, the batch evaluator, the resilience ladder, the
serve daemon, the CLI and the bench harness read one table instead of
each branching on task strings or keeping their own method lists.

:func:`probability_route` is the paper's Table 1 as one function: the
route ``method='auto'`` takes for a probability.  The engine's ``auto``
dispatch, :meth:`~repro.core.estimator.PQEEngine.explain` and the
probability ladder all read it, so a routing change is one edit here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import LineageSizeBudgetExceeded, ReproError
from repro.graphs.estimate import RPQ_METHODS
from repro.graphs.model import ProbabilisticGraph
from repro.graphs.rpq import RPQQuery
from repro.lineage.build import build_lineage
from repro.lineage.dnf import DNF
from repro.queries.lifted import LiftedClassification, classify_query

__all__ = [
    "TASKS", "Route", "Task", "check_entry", "infer_task",
    "probability_route", "randomized_route",
]


@dataclass(frozen=True)
class Route:
    """Where Table 1 sends one probability query under ``auto``.

    ``method`` is ``'lifted'``, ``'lineage-exact'`` or the randomized
    route; ``classification`` is the lifted router's verdict, whose
    plan serves ``'lifted'``.  ``formula`` and ``probabilities`` are the
    lineage built within the clause budget and the labels it is counted
    under, set only for ``'lineage-exact'``.
    """

    method: str
    classification: LiftedClassification
    formula: DNF | None = None
    probabilities: Mapping | None = None


def randomized_route(query) -> str:
    """Table 1's randomized route: the combined FPRAS (Theorem 1) for
    self-join-free queries, Karp–Luby over the lineage otherwise (the
    FPRAS needs self-join-freeness)."""
    return "fpras" if query.is_self_join_free else "karp-luby"


def probability_route(query, pdb, lineage_budget: int | None) -> Route:
    """Table 1: the route ``method='auto'`` takes for ``Pr_H(query)``.

    Safe queries (a lifted plan exists) go to ``lifted``; an unsafe
    query whose lineage fits ``lineage_budget`` clauses is counted
    exactly (``lineage-exact``, with the formula built here); anything
    larger takes :func:`randomized_route`.
    """
    classification = classify_query(query)
    if classification.safe:
        return Route("lifted", classification)
    projected = pdb.project_to_query(query)
    try:
        formula = build_lineage(
            query, projected.instance, budget=lineage_budget
        )
    except LineageSizeBudgetExceeded:
        return Route(randomized_route(query), classification)
    return Route(
        "lineage-exact", classification, formula, projected.probabilities
    )


@dataclass(frozen=True)
class Task:
    """One evaluation task.

    ``entry(engine, query, database, **kwargs)`` calls the engine and
    returns its :class:`~repro.core.estimator.PQEAnswer`; ``methods``
    lists the ``method`` values ``entry`` accepts; ``databases`` and
    ``query`` are the types an item must carry; ``coerce`` maps an
    accepted database onto what ``entry`` takes; ``label`` names the
    answer in printed output; ``ladder(query, method)`` lists the
    degradation routes, most-preferred first.
    """

    name: str
    label: str
    methods: tuple[str, ...]
    databases: tuple[type, ...]
    query: type
    coerce: Callable
    entry: Callable
    ladder: Callable[[object, str], tuple[str, ...]]

    def evaluate(self, engine, query, database, **kwargs):
        """Run the task's engine entry point on a coerced database."""
        return self.entry(engine, query, self.coerce(database), **kwargs)

    def check_method(self, method) -> None:
        """Raise a :class:`~repro.errors.ReproError` unless this task
        accepts ``method``."""
        if method not in self.methods:
            raise ReproError(
                f"unknown method {method!r} for task {self.name!r}; "
                f"choose from {self.methods}"
            )

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
    if method == "auto" and classify_query(query).safe:
        method = "lifted"
    return _starting_at(method, (randomized_route(query), "monte-carlo"))


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
            "probability", "Pr",
            (
                "auto", "lifted", "fpras", "fpras-weighted",
                "lineage-exact", "karp-luby", "monte-carlo", "enumerate",
            ),
            (ProbabilisticDatabase,), object,
            _unchanged,
            lambda engine, query, database, **kw: engine.probability(
                query, database, **kw
            ),
            _probability_ladder,
        ),
        Task(
            "reliability", "UR",
            ("auto", "lifted", "lineage-exact", "fpras", "enumerate"),
            (DatabaseInstance, ProbabilisticDatabase), object,
            _as_instance,
            lambda engine, query, database, **kw: engine.uniform_reliability(
                query, database, **kw
            ),
            _reliability_ladder,
        ),
        Task(
            # RPQ 'auto' stays in repro.graphs.estimate: it needs the
            # bounded DP attempt to decide.
            "rpq", "Pr_G", RPQ_METHODS, (ProbabilisticGraph,), RPQQuery,
            _unchanged,
            lambda engine, query, database, **kw: engine.rpq_probability(
                database, query, **kw
            ),
            _rpq_ladder,
        ),
    )
}


def check_entry(entry: Mapping, tasks: tuple[str, ...] = tuple(TASKS)):
    """Check the fields a batch-file entry and a request body share, and
    return its ``(task, method)``, defaulting to ``probability`` and
    ``auto``: ``query`` is a string, ``task`` one of ``tasks``, ``method``
    a string the task accepts and, for an RPQ, ``source`` and ``target``
    are strings.  Raises :class:`~repro.errors.ReproError`; the caller
    says where the entry came from."""
    if not isinstance(entry["query"], str):
        raise ReproError(f"query must be a string, got {entry['query']!r}")
    task = entry.get("task", "probability")
    if task not in tasks:
        raise ReproError(f"unknown task {task!r}; choose from {tasks}")
    method = entry.get("method", "auto")
    if not isinstance(method, str):
        raise ReproError(f"method must be a string, got {method!r}")
    TASKS[task].check_method(method)
    if task == "rpq":
        missing = [
            field for field in ("source", "target") if not entry.get(field)
        ]
        if missing:
            raise ReproError(f"rpq items require {missing}")
        for field in ("source", "target"):
            if not isinstance(entry[field], str):
                raise ReproError(
                    f"{field} must be a string, got {entry[field]!r}"
                )
    return task, method


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
