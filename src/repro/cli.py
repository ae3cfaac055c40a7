"""Command-line interface: evaluate queries over probabilistic CSV data.

The paper's Section 6 calls out integration into practical systems as
the main avenue of future work; this CLI is the minimal such surface.
A probabilistic database is a CSV file with one fact per line::

    relation,probability,constant1,constant2,...
    R1,1/2,alice,bob
    R2,2/3,bob,carol

Usage::

    python -m repro --data facts.csv --query "Q :- R1(x,y), R2(y,z)"
    python -m repro --data facts.csv --query-file q.txt \
        --method fpras --epsilon 0.1 --seed 7
    python -m repro --data facts.csv --query "..." --reliability
    repro eval --data facts.csv --batch batch.json --workers 8 --seed 7
    repro eval --data facts.csv --batch batch.json --profile \
        --metrics-out trace.jsonl
    repro eval --data facts.csv --batch batch.json --seed 7 \
        --isolation process --journal batch.wal
    repro eval --data facts.csv --batch batch.json --seed 7 \
        --journal batch.wal --resume
    repro eval --data edges.csv --rpq "a (b|c)*" --source s --target t
    repro trace-summary trace.jsonl
    repro serve --data facts.csv --port 8080 --isolation process
    repro cache-stats /var/cache/repro

``--rpq`` treats the CSV's binary facts as a probabilistic graph
(relation name = edge label) and evaluates a regular path query between
``--source`` and ``--target`` — see docs/graphs.md.

``repro serve`` starts the PQE-as-a-service daemon (admission control,
load shedding, circuit breaker, graceful drain — see docs/serving.md).
``repro cache-stats`` reports a durable cache directory's tier sizes
and quarantine contents.  A batch run (``--batch``) handles SIGTERM by
*draining*: in-flight items finish and are journalled, unstarted items
are left for a later ``--resume``, and the process exits with code 5.

The optional leading ``eval`` subcommand is accepted (and implied) for
symmetry with the batch form.  A batch file is JSON: a list whose
entries are either query strings or objects ::

    [
        "Q :- R1(x,y), R2(y,z)",
        {"query": "Q :- R1(x,y)", "method": "fpras", "task": "probability"}
    ]

All batch items are evaluated over the ``--data`` CSV through one
shared reduction cache and a worker pool; per-item results and the
cache hit-rate are printed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Iterable, TextIO

from repro.core.budget import EvaluationBudget
from repro.core.cache import ReductionCache
from repro.core.estimator import PQEEngine
from repro.core.journal import answer_record, error_record, fraction_text
from repro.core.parallel import (
    BatchDrainedError,
    BatchError,
    BatchItem,
    request_drain,
)
from repro.core.tasks import TASKS, check_entry
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import ContextualError, ReproError
from repro.io import load_facts_csv
from repro.obs.export import (
    read_trace,
    summarize_trace,
    telemetry_records,
    write_trace,
)
from repro.queries.parser import parse_query

__all__ = ["main", "load_facts_csv", "load_batch_file"]

# Batch exit codes (single-query errors keep the classic 1):
# 0 = every item succeeded; EXIT_PARTIAL = some items failed but others
# completed; EXIT_ALL_FAILED = no item produced an answer; EXIT_DRAINED
# = a SIGTERM drained the batch (settled items journalled, the rest
# resumable).  Scripts can therefore distinguish "retry the
# stragglers" from "the batch is dead" from "finish with --resume".
EXIT_PARTIAL = 3
EXIT_ALL_FAILED = 4
EXIT_DRAINED = 5


def load_batch_file(
    stream: TextIO, pdb: ProbabilisticDatabase, source: str | None = None
) -> list[BatchItem]:
    """Parse the JSON batch format into :class:`BatchItem` objects.

    Entries are query strings (task 'probability', method 'auto') or
    objects with a required ``query`` and optional ``method``/``task``.
    Reliability items run against the CSV's underlying instance.  RPQ
    items (``task: "rpq"``) read ``query`` as a label regex, require
    ``source``/``target`` nodes, and run against the graph view of the
    CSV (binary facts as labelled edges).  Malformed entries raise
    :class:`~repro.errors.ContextualError` naming the ``source`` file
    and the entry index.
    """
    if source is None:
        name = getattr(stream, "name", None)
        source = name if isinstance(name, str) else "<batch>"
    try:
        payload = json.load(stream)
    except json.JSONDecodeError as failure:
        raise ContextualError(
            f"{source}: batch file is not valid JSON: {failure}",
            phase="io.load",
        )
    if not isinstance(payload, list) or not payload:
        raise ContextualError(
            f"{source}: batch file must be a non-empty JSON list",
            phase="io.load",
        )
    items: list[BatchItem] = []
    for index, entry in enumerate(payload):
        if isinstance(entry, str):
            entry = {"query": entry}
        if not isinstance(entry, dict) or "query" not in entry:
            raise ContextualError(
                f"{source}: batch entry {index}: expected a query "
                f"string or an object with a 'query' field, got "
                f"{entry!r}",
                phase="io.load",
            )
        try:
            task, method = check_entry(entry)
        except ReproError as failure:
            raise ContextualError(
                f"{source}: batch entry {index}: {failure}",
                phase="io.load",
            )
        allowed = {"query", "method", "task"}
        if task == "rpq":
            allowed |= {"source", "target"}
        unknown = set(entry) - allowed
        if unknown:
            raise ContextualError(
                f"{source}: batch entry {index}: unknown fields "
                f"{sorted(unknown)}",
                phase="io.load",
            )
        if task == "rpq":
            from repro.graphs import RPQQuery

            try:
                query = RPQQuery(
                    entry["query"], entry["source"], entry["target"]
                )
                query.rpq  # parse the regex now: reject it at load
            except ReproError as failure:
                raise ContextualError(
                    f"{source}: batch entry {index}: {failure}",
                    phase="io.load",
                )
            database = _graph_from_pdb(pdb)
        else:
            query = parse_query(entry["query"])
            database = TASKS[task].coerce(pdb)
        item = BatchItem(query, database, task=task, method=method)
        items.append(item.validated(index))
    return items


def _batch_exit_code(batch) -> int:
    if batch.ok:
        return 0
    return EXIT_ALL_FAILED if not batch.succeeded else EXIT_PARTIAL


def _batch_item_records(items, batch) -> list[dict]:
    """The per-item ``{"type": "item"}`` payloads for a trace file."""
    records = []
    for item, result in zip(items, batch.results):
        records.append(
            {
                "index": result.index,
                "ok": result.ok,
                "elapsed": result.elapsed,
                "task": item.task,
                "method": (
                    result.answer.method if result.ok else item.method
                ),
            }
        )
    return records


def _write_metrics_file(path, telemetry, meta, items=None) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        write_trace(stream, telemetry, meta=meta, items=items)


def _print_phase_table(summary, label="", footer=None, stream=None) -> None:
    """A trace summary's phases, largest wall time first, then
    ``footer`` and the counters; rows and footer are indented under
    ``label``, which prefixes the header."""
    indent = " " * len(label)
    print(
        f"{label}{'phase':<24} {'spans':>6} {'wall':>10} "
        f"{'cpu':>10} {'share':>7}",
        file=stream,
    )
    ordered = sorted(
        summary["phases"].items(),
        key=lambda pair: pair[1]["total"],
        reverse=True,
    )
    for name, cell in ordered:
        print(
            f"{indent}{name:<24} {cell['spans']:>6} "
            f"{cell['total']:>9.4f}s {cell['cpu']:>9.4f}s "
            f"{cell['share']:>6.1%}",
            file=stream,
        )
    if footer is not None:
        print(indent + footer, file=stream)
    counters = summary["counters"]
    if counters:
        print(
            "counters: "
            + " ".join(
                f"{name}={counters[name]}" for name in sorted(counters)
            ),
            file=stream,
        )


def _print_profile(telemetry, meta, items=None, stream=None) -> None:
    """Per-phase wall/CPU breakdown, largest share first."""
    summary = summarize_trace(
        list(telemetry_records(telemetry, meta=meta, items=items))
    )
    if not summary["phases"]:
        print("profile: no spans recorded", file=stream)
        return
    footer = None
    if summary["coverage"] is not None:
        footer = (
            f"span coverage: {summary['coverage']:.1%} of "
            f"{summary['item_total']:.4f}s item wall time"
        )
    _print_phase_table(summary, "profile: ", footer, stream)


def _run_trace_summary(arguments: list[str]) -> int:
    """``repro trace-summary FILE`` — summarise a saved JSONL trace."""
    parser = argparse.ArgumentParser(
        prog="repro trace-summary",
        description=(
            "Aggregate a JSONL trace written by repro eval "
            "--metrics-out into a per-phase breakdown"
        ),
    )
    parser.add_argument("trace", help="JSONL trace file")
    parser.add_argument(
        "--json", action="store_true",
        help="emit the summary as JSON instead of text",
    )
    args = parser.parse_args(arguments)
    try:
        with open(args.trace, encoding="utf-8") as stream:
            records = read_trace(stream)
    except (ReproError, OSError) as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    summary = summarize_trace(records)
    if args.json:
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    meta = summary["meta"]
    if meta:
        print(
            "trace:   "
            + " ".join(f"{k}={meta[k]}" for k in sorted(meta))
        )
    footer = None
    if summary["items"]:
        footer = (
            f"items:   {summary['items']} "
            f"({summary['item_total']:.4f}s wall, span coverage "
            f"{summary['coverage']:.1%})"
        )
    _print_phase_table(summary, footer=footer)
    return 0


def _run_serve(arguments: list[str]) -> int:
    """``repro serve`` — start the PQE-as-a-service daemon."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve PQE over HTTP with admission control, load "
            "shedding, a per-query circuit breaker and graceful "
            "SIGTERM drain (see docs/serving.md)"
        ),
    )
    parser.add_argument(
        "--data", required=True, help="probabilistic facts CSV"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=_nonnegative_int, default=0,
        help="listen port (default 0 = ephemeral)",
    )
    parser.add_argument(
        "--max-concurrency", type=_positive_int, default=2,
        help="concurrent evaluations admitted (default 2)",
    )
    parser.add_argument(
        "--max-queue", type=_nonnegative_int, default=8,
        help="waiting requests before 429s (default 8)",
    )
    parser.add_argument(
        "--deadline", type=_positive_float, default=None,
        help="default per-request deadline in seconds "
             "(queue wait is deducted from it)",
    )
    parser.add_argument(
        "--epsilon", type=_epsilon, default=0.25,
        help="unshed approximation error bound (default 0.25)",
    )
    parser.add_argument(
        "--seed", type=int, default=2023,
        help="server seed; request seeds derive from it and the "
             "request content (default 2023)",
    )
    parser.add_argument(
        "--isolation", choices=("thread", "process"), default="thread",
        help="run evaluations in threads or forked workers "
             "(process contains crashes; default thread)",
    )
    parser.add_argument(
        "--memory-limit", type=_positive_int, default=None,
        metavar="BYTES",
        help="per-worker address-space cap (requires "
             "--isolation process)",
    )
    parser.add_argument(
        "--journal", default=None, metavar="FILE",
        help="request journal: full-fidelity answers are replayed "
             "across daemon restarts",
    )
    parser.add_argument(
        "--delta-journal", default=None, metavar="FILE",
        help="delta WAL: POST /delta mutations are journalled before "
             "publishing and replayed on restart (see "
             "docs/incremental.md)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="durable disk tier behind the warm artifact registry",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write the server telemetry trace (JSONL) on drain",
    )
    parser.add_argument(
        "--shed-target-p95", type=_positive_float, default=0.5,
        help="latency target feeding the shedding pressure signal "
             "(default 0.5s)",
    )
    parser.add_argument(
        "--shed-thresholds", default="0.5,0.75,0.9",
        help="comma-separated ascending pressure thresholds; each one "
             "met sheds one more ladder rung (default 0.5,0.75,0.9)",
    )
    parser.add_argument(
        "--drain-deadline", type=_positive_float, default=10.0,
        help="seconds to wait for in-flight requests on drain "
             "(default 10)",
    )
    parser.add_argument(
        "--max-requests", type=_positive_int, default=None,
        help="drain automatically after this many settled requests "
             "(soak-test bound)",
    )
    parser.add_argument(
        "--ready-file", default=None, metavar="FILE",
        help="write the bound port here once listening (lets scripts "
             "discover an ephemeral --port 0)",
    )
    args = parser.parse_args(arguments)
    if args.memory_limit is not None and args.isolation != "process":
        parser.error("--memory-limit requires --isolation process")
    try:
        thresholds = tuple(
            float(part) for part in args.shed_thresholds.split(",") if part
        )
    except ValueError:
        parser.error(
            f"--shed-thresholds must be comma-separated numbers, "
            f"got {args.shed_thresholds!r}"
        )

    from repro.serve import PQEServer, ServerConfig

    try:
        with open(args.data, encoding="utf-8") as stream:
            pdb = load_facts_csv(stream, source=args.data)
        config = ServerConfig(
            host=args.host,
            port=args.port,
            max_concurrency=args.max_concurrency,
            max_queue=args.max_queue,
            default_deadline=args.deadline,
            shed_target_p95=args.shed_target_p95,
            shed_thresholds=thresholds,
            epsilon=args.epsilon,
            seed=args.seed,
            isolation=args.isolation,
            memory_limit=args.memory_limit,
            disk_cache=args.cache_dir,
            journal=args.journal,
            delta_journal=args.delta_journal,
            trace=args.trace,
            drain_deadline=args.drain_deadline,
            max_requests=args.max_requests,
        )
        server = PQEServer(pdb, config)
        server.start()
    except (ReproError, OSError) as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    server.install_signal_handlers()
    if args.ready_file:
        # Written atomically (rename) so a polling parent never reads a
        # half-written port number.
        staging = args.ready_file + ".tmp"
        with open(staging, "w", encoding="utf-8") as out:
            out.write(f"{server.port}\n")
        os.replace(staging, args.ready_file)
    print(f"serving: http://{args.host}:{server.port}", flush=True)
    print(
        f"config:  concurrency={args.max_concurrency} "
        f"queue={args.max_queue} isolation={args.isolation} "
        f"epsilon={args.epsilon}",
        flush=True,
    )
    server.serve_until_drained()
    stats = server.stats()
    print(
        f"drained: {stats['settled']} requests settled "
        f"(counters: "
        + " ".join(
            f"{name}={value}"
            for name, value in sorted(stats["requests"].items())
            if name.startswith("serve.")
        )
        + ")"
    )
    return 0


def _run_cache_stats(arguments: list[str]) -> int:
    """``repro cache-stats [DIR] [--delta-journal FILE]``."""
    parser = argparse.ArgumentParser(
        prog="repro cache-stats",
        description=(
            "Report record and quarantine sizes for a durable disk "
            "cache directory (--cache-dir), and/or the version chain "
            "and invalidation trailers of a delta WAL "
            "(--delta-journal)"
        ),
    )
    parser.add_argument(
        "cache_dir", nargs="?", default=None, help="cache directory"
    )
    parser.add_argument(
        "--delta-journal", default=None, metavar="FILE",
        help="delta WAL to report: recovered version chain plus the "
             "per-delta invalidation counts from its applied trailers",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the stats as JSON instead of text",
    )
    args = parser.parse_args(arguments)
    if args.cache_dir is None and args.delta_journal is None:
        parser.error(
            "give a cache directory, --delta-journal FILE, or both"
        )

    from repro.core.diskcache import DiskCache

    stats = None
    if args.cache_dir is not None:
        try:
            stats = DiskCache(args.cache_dir).tier_stats()
        except (ReproError, OSError) as failure:
            print(f"error: {failure}", file=sys.stderr)
            return 1
    chain = None
    if args.delta_journal is not None:
        from repro.db.delta import load_delta_journal

        try:
            loaded = load_delta_journal(args.delta_journal)
        except (ReproError, OSError) as failure:
            print(f"error: {failure}", file=sys.stderr)
            return 1
        chain = {
            "path": args.delta_journal,
            "base_token": (
                loaded.header["base_token"] if loaded.header else None
            ),
            "versions": len(loaded.deltas),
            "quarantined": loaded.quarantined,
            "deltas": [
                {
                    "version": record["to_version"],
                    "digest": record["digest"],
                    "token": record["token_after"],
                    "ops": len(record["ops"]),
                    "invalidated": (
                        loaded.applied.get(record["to_version"], {})
                        .get("invalidated", {})
                    ),
                    "survived": (
                        loaded.applied.get(record["to_version"], {})
                        .get("survived")
                    ),
                }
                for record in loaded.deltas
            ],
        }
    if args.json:
        if chain is None:
            payload = stats
        elif stats is None:
            payload = chain
        else:
            payload = {"cache": stats, "delta_journal": chain}
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    if stats is not None:
        print(f"cache:       {stats['path']}")
        print(
            f"records:     {stats['records']} ({stats['bytes']} bytes)"
        )
        print(
            f"quarantined: {stats['quarantined']} "
            f"({stats['quarantine_bytes']} bytes, "
            f"cap {stats['quarantine_cap']})"
        )
        for name in stats["quarantine_files"]:
            print(f"  {name}")
    if chain is not None:
        base = chain["base_token"]
        print(f"deltas:      {chain['path']}")
        print(f"base:        {base if base else '(no header)'}")
        print(
            f"versions:    {chain['versions']} "
            f"(quarantined records: {chain['quarantined']})"
        )
        for entry in chain["deltas"]:
            invalidated = " ".join(
                f"{name}={value}"
                for name, value in sorted(entry["invalidated"].items())
            ) or "-"
            survived = (
                entry["survived"]
                if entry["survived"] is not None
                else "-"
            )
            print(
                f"  v{entry['version']}: ops={entry['ops']} "
                f"token={entry['token']} digest={entry['digest']} "
                f"invalidated[{invalidated}] survived={survived}"
            )
    return 0


def _batch_payload(args, items, batch) -> dict:
    """The ``--json`` document for a batch run."""
    records = []
    for item, result in zip(items, batch.results):
        record: dict = {
            "index": result.index,
            "task": item.task,
            "query": str(item.query),
            "ok": result.ok,
            "elapsed": result.elapsed,
            "retries": result.retries,
            "replayed": result.replayed,
        }
        if result.ok:
            record.update(answer_record(result.answer))
        else:
            error = result.error
            record["error"] = error_record(error)
            if error.budget is not None:
                record["error"]["budget"] = error.budget.describe()
        records.append(record)
    return {
        "items": len(batch),
        "succeeded": len(batch.succeeded),
        "failed": len(batch.errors),
        "workers": batch.max_workers,
        "seed": args.seed,
        "on_error": args.on_error,
        "wall_time": batch.wall_time,
        "cache": batch.cache_stats.describe(),
        "results": records,
    }


def _install_drain_on_sigterm():
    """SIGTERM → graceful batch drain.  Returns the previous handler
    (``None`` when handlers cannot be installed, e.g. off the main
    thread under pytest-xdist)."""

    def _on_sigterm(signum, frame):
        request_drain()

    try:
        return signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        return None


def _print_item(item, result) -> None:
    """One batch item's line: its value and route, or its failure."""
    label = TASKS[item.task].label
    if not result.ok:
        print(
            f"[{result.index}] {label} = FAILED "
            f"({result.error.describe()})  {item.query}"
        )
        return
    answer = result.answer
    exact = " (exact)" if answer.exact else ""
    degraded = (
        f" degraded×{len(answer.degradations)}" if answer.degradations else ""
    )
    print(
        f"[{result.index}] {label} = {answer.value:<22g} "
        f"method={answer.method}{exact}{degraded}  {item.query}"
    )


def _print_drained(items, failure: BatchDrainedError, args) -> int:
    partial = failure.result
    print(f"drained: {failure}", file=sys.stderr)
    for result in partial.results:
        _print_item(items[result.index], result)
    if args.journal:
        print(
            f"resume:  {len(partial)} settled items journalled in "
            f"{args.journal}; finish with --resume"
        )
    return EXIT_DRAINED


def _run_batch(args, pdb: ProbabilisticDatabase) -> int:
    with open(args.batch, encoding="utf-8") as stream:
        items = load_batch_file(stream, pdb, source=args.batch)
    engine = _engine(args)
    cache = None
    if args.cache_dir:
        from repro.core.diskcache import DiskCache

        cache = ReductionCache(disk=DiskCache(args.cache_dir))
    profiled = bool(args.profile or args.metrics_out)
    previous_sigterm = _install_drain_on_sigterm()
    try:
        batch = engine.evaluate_batch(
            items,
            max_workers=args.workers,
            seed=args.seed,
            cache=cache,
            budget=_budget(args),
            max_retries=args.max_retries,
            on_error=args.on_error,
            telemetry=profiled,
            isolation=args.isolation,
            memory_limit=args.memory_limit,
            journal=args.journal,
            resume=args.resume,
        )
    except BatchError as failure:
        # on_error='fail': the exception still carries every completed
        # sibling's answer plus the structured error records — render
        # them all rather than discarding the batch's work.
        print(f"error: {failure}", file=sys.stderr)
        batch = failure.result
    except BatchDrainedError as failure:
        # SIGTERM mid-batch: everything admitted settled (and was
        # journalled); report it and exit resumable.
        return _print_drained(items, failure, args)
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)

    trace_meta = {
        "items": len(batch),
        "workers": batch.max_workers,
        "seed": args.seed,
        "wall_time": batch.wall_time,
        "on_error": args.on_error,
    }
    item_records = _batch_item_records(items, batch)
    if args.metrics_out and batch.telemetry is not None:
        _write_metrics_file(
            args.metrics_out, batch.telemetry, trace_meta, item_records
        )

    if args.json:
        payload = _batch_payload(args, items, batch)
        if profiled and batch.telemetry is not None:
            payload["telemetry"] = summarize_trace(
                list(
                    telemetry_records(
                        batch.telemetry, trace_meta, item_records
                    )
                )
            )
        json.dump(payload, sys.stdout, indent=2, allow_nan=False)
        print()
        return _batch_exit_code(batch)

    print(f"facts:   {len(pdb)}")
    print(
        f"batch:   {len(batch)} items, {batch.max_workers} workers, "
        f"seed {args.seed}"
    )
    replayed = sum(1 for result in batch.results if result.replayed)
    if replayed:
        print(
            f"resumed: {replayed} of {len(batch)} items replayed from "
            f"{args.journal}"
        )
    for item, result in zip(items, batch.results):
        _print_item(item, result)
    if not batch.ok:
        print(
            f"failed:  {len(batch.errors)} of {len(batch)} items "
            f"(on-error={args.on_error})"
        )
    print(f"cache:   {batch.cache_stats.describe()}")
    print(f"wall:    {batch.wall_time:.3f}s")
    if args.profile and batch.telemetry is not None:
        _print_profile(batch.telemetry, trace_meta, item_records)
    if args.metrics_out and batch.telemetry is not None:
        print(f"trace:   written to {args.metrics_out}")
    return _batch_exit_code(batch)


# Argument validators: malformed numeric flags are *usage* errors and
# must exit with argparse's code 2 before any evaluation starts, not
# surface later as an engine exception with exit code 1.
def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}"
        )
    if value <= 0 or value != value:  # rejects 0, negatives and NaN
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text}"
        )
    return value


def _epsilon(text: str) -> float:
    value = _positive_float(text)
    if value >= 1:
        raise argparse.ArgumentTypeError(
            f"epsilon must be in (0, 1), got {text}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Probabilistic query evaluation with the combined-complexity "
            "FPRAS of van Bremen & Meel (PODS 2023)"
        ),
    )
    parser.add_argument(
        "--data", required=True,
        help="CSV file of facts: relation,probability,constants...",
    )
    query_group = parser.add_mutually_exclusive_group(required=True)
    query_group.add_argument(
        "--query", help='query text, e.g. "Q :- R(x,y), S(y,z)"'
    )
    query_group.add_argument(
        "--query-file", help="file containing the query text"
    )
    query_group.add_argument(
        "--batch",
        help="JSON file of batch items (list of query strings or "
             "{query, method, task} objects) evaluated over --data "
             "through a shared reduction cache",
    )
    query_group.add_argument(
        "--rpq", metavar="REGEX",
        help="regular path query over the graph formed by --data's "
             "binary facts (relation = edge label); requires --source "
             "and --target (see docs/graphs.md)",
    )
    parser.add_argument(
        "--source", default=None, metavar="NODE",
        help="source node for --rpq",
    )
    parser.add_argument(
        "--target", default=None, metavar="NODE",
        help="target node for --rpq",
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=None,
        help="worker-pool width for --batch (default: one per item, "
             "capped at the CPU count); results are identical for any "
             "width under a fixed --seed",
    )
    parser.add_argument(
        "--isolation", default="thread", choices=["thread", "process"],
        help="batch execution backend: 'process' contains worker "
             "crashes (segfault, OOM kill, SIGKILL) as structured "
             "error records while the batch continues (see "
             "docs/durability.md)",
    )
    parser.add_argument(
        "--memory-limit", type=_positive_int, default=None,
        metavar="BYTES",
        help="per-worker address-space cap for --isolation process; a "
             "worker that outgrows it records a MemoryError instead of "
             "being OOM-killed",
    )
    parser.add_argument(
        "--journal", default=None, metavar="FILE",
        help="append an fsync'd completion record per batch item to "
             "FILE; an interrupted batch can then be resumed with "
             "--resume (see docs/durability.md)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay the --journal's verified prefix and evaluate only "
             "the remaining items; the resumed result is bitwise-"
             "identical to an uninterrupted run",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="durable reduction-cache directory shared across runs and "
             "processes; corrupt records are quarantined and rebuilt, "
             "never served",
    )
    parser.add_argument(
        "--method",
        default="auto",
        choices=list(dict.fromkeys(
            method for task in TASKS.values() for method in task.methods
        )),
        help="evaluation method (default: auto routing, which takes "
             "the exact lifted fast path whenever the query is safe); "
             "'exact' is the RPQ product DP and applies only to --rpq",
    )
    parser.add_argument(
        "--epsilon", type=_epsilon, default=0.25,
        help="target relative error for randomized methods, in (0, 1)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="random seed"
    )
    parser.add_argument(
        "--repetitions", type=_positive_int, default=1,
        help="median-of-k amplification for randomized methods",
    )
    parser.add_argument(
        "--timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="wall-clock deadline per evaluation (per item for --batch), "
             "enforced at cooperative checkpoints",
    )
    parser.add_argument(
        "--max-retries", type=_nonnegative_int, default=0, metavar="N",
        help="retries per batch item for transient estimation failures, "
             "each on a deterministically derived seed",
    )
    parser.add_argument(
        "--on-error", default="fail", choices=["fail", "skip", "degrade"],
        help="batch fault isolation: fail (report first failure, exit "
             "nonzero), skip (record structured errors, keep going), or "
             "degrade (fall back along cheaper routes with widened "
             "epsilon first)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit batch results as JSON (per-item answers and "
             "structured error records) instead of text",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="collect spans and metrics during evaluation and print a "
             "per-phase wall/CPU breakdown (see docs/observability.md)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the collected telemetry as a JSONL trace to FILE "
             "(implies collection; inspect with repro trace-summary)",
    )
    parser.add_argument(
        "--reliability", action="store_true",
        help="report uniform reliability (ignores probability labels)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print the routing decision and cost statistics, then "
             "evaluate",
    )
    return parser


def _graph_from_pdb(pdb: ProbabilisticDatabase):
    """The probabilistic graph formed by ``pdb``'s binary facts.

    A binary fact ``R(u, v)`` with probability ``p`` becomes the edge
    ``u -[R]-> v`` with probability ``p``; facts of any other arity are
    rejected (the CSV was loaded for an RPQ run, so a stray ternary
    fact is a data error, not something to drop silently).
    """
    from repro.graphs import Edge, ProbabilisticGraph

    probabilities = {}
    for fact, probability in pdb.probabilities.items():
        if fact.arity != 2:
            raise ContextualError(
                f"--rpq needs binary facts only; {fact} has arity "
                f"{fact.arity}",
                phase="io.load",
            )
        u, v = fact.constants
        probabilities[Edge(str(u), fact.relation, str(v))] = probability
    if not probabilities:
        raise ContextualError(
            "--rpq needs at least one binary fact in --data",
            phase="io.load",
        )
    return ProbabilisticGraph(probabilities)


def _run_rpq(args, pdb: ProbabilisticDatabase) -> int:
    graph = _graph_from_pdb(pdb)
    answer = _engine(args).rpq_probability(
        graph, args.rpq, source=args.source, target=args.target,
        method=args.method, budget=_budget(args),
        telemetry=bool(args.profile or args.metrics_out),
    )
    return _print_answer(
        args, answer, "Pr_G",
        f"rpq:     {args.source} -[{args.rpq}]-> {args.target}",
        f"edges:   {len(graph)}",
    )


def _engine(args) -> PQEEngine:
    return PQEEngine(
        epsilon=args.epsilon,
        seed=args.seed,
        repetitions=args.repetitions,
    )


def _budget(args) -> EvaluationBudget | None:
    if args.timeout is None:
        return None
    return EvaluationBudget(deadline=args.timeout)


def _print_answer(args, answer, label: str, *header: str) -> int:
    """Print one evaluation: the ``header`` lines, the method, the
    value under ``label`` and any ``--profile``/``--metrics-out``."""
    for line in header:
        print(line)
    print(f"method:  {answer.method}" + (" (exact)" if answer.exact else ""))
    if answer.rational is not None:
        exact = fraction_text(answer.rational)
        print(f"{label} = {answer.value} ({exact})")
    else:
        print(f"{label} = {answer.value}")
    if answer.telemetry is not None:
        meta = {"seed": args.seed, "method": args.method}
        if args.profile:
            _print_profile(answer.telemetry, meta)
        if args.metrics_out:
            _write_metrics_file(args.metrics_out, answer.telemetry, meta)
            print(f"trace:   written to {args.metrics_out}")
    return 0


def main(argv: Iterable[str] | None = None) -> int:
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if arguments and arguments[0] == "trace-summary":
        return _run_trace_summary(arguments[1:])
    if arguments and arguments[0] == "serve":
        return _run_serve(arguments[1:])
    if arguments and arguments[0] == "cache-stats":
        return _run_cache_stats(arguments[1:])
    if arguments and arguments[0] == "eval":
        # ``repro eval …`` — the (only) subcommand, accepted for the
        # batch-serving form; single-query flags work under it too.
        arguments = arguments[1:]
    parser = _build_parser()
    args = parser.parse_args(arguments)
    # Flag-combination errors are usage errors too: report via the
    # parser (exit code 2) before touching any file.
    if args.resume and not args.journal:
        parser.error("--resume requires --journal FILE")
    if args.memory_limit is not None and args.isolation != "process":
        parser.error("--memory-limit requires --isolation process")
    batch_only = {
        "--journal": args.journal,
        "--resume": args.resume,
        "--cache-dir": args.cache_dir,
        "--memory-limit": args.memory_limit,
    }
    if not args.batch:
        for flag, value in batch_only.items():
            if value:
                parser.error(f"{flag} only applies to --batch runs")
        if args.isolation != "thread":
            parser.error("--isolation only applies to --batch runs")
    if args.rpq:
        if args.source is None or args.target is None:
            parser.error("--rpq requires --source and --target")
        if args.reliability:
            parser.error("--reliability does not apply to --rpq")
        if args.explain:
            parser.error("--explain does not apply to --rpq")
        if args.method not in TASKS["rpq"].methods:
            parser.error(
                f"--rpq accepts methods {', '.join(TASKS['rpq'].methods)}; "
                f"got {args.method!r}"
            )
    else:
        if args.source is not None or args.target is not None:
            parser.error("--source/--target only apply to --rpq")
        if args.method not in TASKS["probability"].methods:
            parser.error(f"method {args.method!r} only applies to --rpq")
    try:
        with open(args.data, encoding="utf-8") as stream:
            pdb = load_facts_csv(stream, source=args.data)
        if args.batch:
            return _run_batch(args, pdb)
        if args.rpq:
            return _run_rpq(args, pdb)
        if args.query_file:
            from repro.io import load_query

            with open(args.query_file, encoding="utf-8") as stream:
                query = load_query(stream, source=args.query_file)
        else:
            query = parse_query(args.query)

        engine = _engine(args)
        if args.explain:
            print(f"plan:    {engine.explain(query, pdb).describe()}")
        task = "reliability" if args.reliability else "probability"
        answer = TASKS[task].evaluate(
            engine, query, pdb, method=args.method, budget=_budget(args),
            telemetry=bool(args.profile or args.metrics_out),
        )
    except (ReproError, OSError) as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    label = "UR(Q, D)" if args.reliability else "Pr_H(Q)"
    return _print_answer(
        args, answer, label, f"query:   {query}", f"facts:   {len(pdb)}"
    )


if __name__ == "__main__":
    sys.exit(main())
