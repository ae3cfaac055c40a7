"""The serve-mixed workload: a closed loop of 2 client connections
against ``repro serve`` in its own process, over HTTP, with
``--journal`` and ``--delta-journal`` on.

Reads (``POST /evaluate``) mix ~40% lifted queries, ~30% lineage-exact
queries (warehouse, triad), ~10% a self-join and ~10% ``fpras`` on the
triad ``R(x), S(x, y), T(y)`` at scale 3.  About 10% of all ops are
``POST /delta`` writes — reweights plus insert/delete pairs — all sent
by connection 0, so the version sequence is the order the benchmark
sent them in and the benchmark can keep a shadow copy of every version.

A read is pinned by the daemon to the version current when it was
admitted.  The benchmark knows the lowest version the read can have
seen (acknowledged before it was sent) and the highest (sent before its
answer arrived), and after the timed phase computes the lineage truth
for each candidate version: exact answers must equal one of them as a
Fraction, approximate answers must lie within the ε the response
reports of one of them.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from repro.core.exact import exact_probability
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.obs.export import read_trace
from repro.queries.parser import parse_query
from repro.workloads import (
    random_binary_instance,
    random_hierarchical_query,
    random_instance_for_query,
    warehouse_instance,
    warehouse_query,
)

from perfbench.checks import answer_ok, catches_perturbation
from perfbench.record import (
    ResultBuilder,
    median,
    quantile,
    rss_of_pid_mb,
)

__all__ = ["run_serve_mixed"]

CONNECTIONS = 2
#: Daemon starts per run; their median start-to-ready time is setup_s.
SETUP_STARTS = 5
#: Share of connection 0's ops that are writes (connection 1 only
#: reads), so about 10% of all ops.
WRITE_SHARE = 0.2
#: Share of writes that start an insert/delete pair.
INSERT_SHARE = 0.2
TRIAD = "Q :- R(x), S(x, y), T(y)"
SELF_JOIN = "Q :- E1(x, y), E1(y, z)"
#: Daemon span names whose self time is reported per read.
SPAN_METRICS = (
    "item",
    "resilience.attempt",
    "route.lifted",
    "route.lineage-exact",
    "route.fpras",
    "lifted.classify",
    "lifted.eval",
    "lineage.build",
    "decomposition.search",
    "reduction.pqe",
    "counting.nfta",
)


# ---------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------

#: Labels per relation.  The triad keeps the labels of the serving
#: bench (R, T at 1/2, S in thirds), which fix its fpras automaton's
#: size; every other relation draws quarters.
LABELS = {
    "R": (Fraction(1, 2),),
    "T": (Fraction(1, 2),),
    "S": (Fraction(1, 3), Fraction(2, 3)),
}
QUARTERS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def _label(rng: random.Random, relation: str) -> Fraction:
    return rng.choice(LABELS.get(relation, QUARTERS))


def build_inputs(seed: int):
    """(database, weighted read mix) generated from ``seed``.

    The read mix is a list of ``(weight, query text, method)``."""
    rng = random.Random(seed)
    labels: dict[Fact, Fraction] = {}
    reads = []
    for index in range(4):
        query = random_hierarchical_query(
            seed + index, max_branches=2, relation_prefix=f"H{index}_"
        )
        for fact in sorted(
            random_instance_for_query(query, 4, 5, seed=seed + index),
            key=Fact.sort_key,
        ):
            labels[fact] = _label(rng, fact.relation)
        reads.append((10, str(query), "lifted"))
    warehouse = warehouse_instance(4, 4, 6, seed=seed)
    labels.update(warehouse.probabilities)
    reads.append((15, str(warehouse_query()), "lineage-exact"))
    for i in range(3):
        for fact in (
            Fact("R", (f"a{i}",)),
            Fact("S", (f"a{i}", f"b{i}")),
            Fact("S", (f"a{i}", f"b{(i + 1) % 3}")),
            Fact("T", (f"b{i}",)),
        ):
            labels[fact] = _label(rng, fact.relation)
    reads.append((15, TRIAD, "lineage-exact"))
    for fact in sorted(
        random_binary_instance(1, 4, 6, seed=seed, relation_prefix="E"),
        key=Fact.sort_key,
    ):
        labels[fact] = _label(rng, fact.relation)
    reads.append((10, SELF_JOIN, "auto"))
    reads.append((10, TRIAD, "fpras"))
    return ProbabilisticDatabase(labels), reads


def _csv_text(labels: dict[Fact, Fraction]) -> str:
    rows = sorted(
        ",".join([fact.relation, str(p), *map(str, fact.constants)])
        for fact, p in labels.items()
    )
    return "relation,probability,constants...\n" + "\n".join(rows) + "\n"


# ---------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------

@dataclass
class Daemon:
    process: subprocess.Popen
    port: int
    journals: tuple[Path, Path]
    trace: Path | None


def start_daemon(root: Path, workdir: Path, data: Path, seed: int,
                 trace: bool) -> tuple[Daemon, float]:
    """Start ``repro serve``; returns the daemon and the seconds from
    spawn until it answered ``/healthz``."""
    workdir.mkdir(parents=True)
    ready = workdir / "ready"
    journals = (workdir / "requests.jsonl", workdir / "deltas.jsonl")
    trace_path = workdir / "trace.jsonl" if trace else None
    command = [
        sys.executable, "-m", "repro", "serve",
        "--data", str(data), "--port", "0", "--ready-file", str(ready),
        "--seed", str(seed),
        "--journal", str(journals[0]), "--delta-journal", str(journals[1]),
    ]
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    started = time.perf_counter()
    with open(workdir / "daemon.log", "wb") as log:
        process = subprocess.Popen(
            command, cwd=root, env=env, stdout=log, stderr=log,
            stdin=subprocess.DEVNULL,
        )
    daemon = Daemon(process, 0, journals, trace_path)
    try:
        while not ready.exists():
            if process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {process.returncode}: "
                    + (workdir / "daemon.log").read_text()[-2000:]
                )
            if time.perf_counter() - started > 60:
                raise RuntimeError("repro serve not ready after 60 s")
            time.sleep(0.002)
        daemon.port = int(ready.read_text().strip())
        while _get(daemon.port, "/healthz")[0] != 200:
            time.sleep(0.002)
    except BaseException:
        stop_daemon(daemon)
        raise
    return daemon, time.perf_counter() - started


def stop_daemon(daemon: Daemon) -> None:
    """SIGTERM (graceful drain, journals and trace flushed), then wait."""
    if daemon.process.poll() is None:
        daemon.process.send_signal(signal.SIGTERM)
        try:
            daemon.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.process.kill()
            daemon.process.wait()


def _get(port: int, path: str) -> tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    except OSError:
        return 0, {}
    finally:
        connection.close()


# ---------------------------------------------------------------------
# The client loop
# ---------------------------------------------------------------------

@dataclass
class Op:
    kind: str               # read | write
    key: int                # read: index into the read mix
    status: int
    body: dict
    latency: float
    low: int = 0            # read: versions it may have seen
    high: int = 0


class Versions:
    """The writer's view of the database versions (connection 0 is the
    only writer, so versions are applied in the order it sends them)."""

    def __init__(self, labels: dict[Fact, Fraction]):
        self.lock = threading.Lock()
        self.states = {0: dict(labels)}
        self.acked = 0
        self.in_flight = False
        self.shadow = dict(labels)


def _post(connection, path: str, payload: dict) -> tuple[int, dict]:
    connection.request(
        "POST", path, body=json.dumps(payload),
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, json.loads(response.read() or b"{}")


class _Writer:
    """Connection 0's write schedule: reweights, plus insert/delete
    pairs on fresh facts."""

    def __init__(self, rng: random.Random, versions: Versions):
        self.rng = rng
        self.versions = versions
        self.pending: Fact | None = None
        self.fresh = 0

    def next_ops(self) -> list[dict]:
        shadow = self.versions.shadow
        if self.pending is not None:
            fact, self.pending = self.pending, None
            return [{"op": "delete", "relation": fact.relation,
                     "constants": list(fact.constants)}]
        if self.rng.random() < INSERT_SHARE:
            self.fresh += 1
            relation = self.rng.choice(("Sales", "S", "E1"))
            constants = {
                "Sales": (f"order-new{self.fresh}", "cust0", "prod0"),
                "S": ("a0", f"b-new{self.fresh}"),
                "E1": (f"v-new{self.fresh}", "v0"),
            }[relation]
            self.pending = Fact(relation, constants)
            return [{"op": "insert", "relation": relation,
                     "constants": list(constants),
                     "probability": str(_label(self.rng, relation))}]
        fact = self.rng.choice(sorted(
            (f for f in shadow if len(LABELS.get(f.relation, QUARTERS)) > 1),
            key=Fact.sort_key,
        ))
        probability = shadow[fact]
        while probability == shadow[fact]:
            probability = _label(self.rng, fact.relation)
        return [{"op": "reweight", "relation": fact.relation,
                 "constants": list(fact.constants),
                 "probability": str(probability)}]

    def applied(self, ops: list[dict], version: int) -> None:
        shadow = self.versions.shadow
        for op in ops:
            fact = Fact(op["relation"], tuple(op["constants"]))
            if op["op"] == "delete":
                del shadow[fact]
            else:
                shadow[fact] = Fraction(op["probability"])
        self.versions.states[version] = dict(shadow)


def _client(index: int, port: int, seed: int, reads, deadline: float,
            versions: Versions, ops: list[Op]) -> None:
    rng = random.Random(f"perfbench-serve:{seed}:{index}")
    weights = [weight for weight, _, _ in reads]
    writer = _Writer(rng, versions) if index == 0 else None
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        while time.perf_counter() < deadline:
            if writer is not None and rng.random() < WRITE_SHARE:
                payload = writer.next_ops()
                with versions.lock:
                    versions.in_flight = True
                started = time.perf_counter()
                status, body = _request(connection, "/delta",
                                        {"ops": payload})
                latency = time.perf_counter() - started
                with versions.lock:
                    if status == 200:
                        writer.applied(payload, body["version"])
                        versions.acked = body["version"]
                    elif payload[0]["op"] == "insert":
                        writer.pending = None
                    versions.in_flight = False
                ops.append(Op("write", 0, status, body, latency))
                continue
            key = rng.choices(range(len(reads)), weights)[0]
            _, query, method = reads[key]
            with versions.lock:
                low = versions.acked
            started = time.perf_counter()
            status, body = _request(connection, "/evaluate",
                                    {"query": query, "method": method})
            latency = time.perf_counter() - started
            with versions.lock:
                high = versions.acked + (1 if versions.in_flight else 0)
            ops.append(Op("read", key, status, body, latency, low, high))
    finally:
        connection.close()


def _request(connection, path: str, payload: dict) -> tuple[int, dict]:
    try:
        return _post(connection, path, payload)
    except (OSError, http.client.HTTPException, ValueError) as failure:
        connection.close()  # reconnects on the next request
        return 0, {"error": repr(failure)}


def closed_loop(port: int, seed: int, reads, seconds: float,
                versions: Versions) -> tuple[list[Op], float]:
    ops: list[list[Op]] = [[] for _ in range(CONNECTIONS)]
    deadline = time.perf_counter() + seconds
    started = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client,
            args=(index, port, seed, reads, deadline, versions, ops[index]),
            name=f"perfbench-client-{index}",
        )
        for index in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [op for part in ops for op in part], time.perf_counter() - started


# ---------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------

class Truths:
    """Lineage truths per (query, version), memoized on the query's
    projection so versions that did not touch it share one."""

    def __init__(self, reads, versions: Versions):
        self.reads = reads
        self.versions = versions
        self.queries = [parse_query(query) for _, query, _ in reads]
        self.memo: dict = {}

    def truth(self, key: int, version: int) -> Fraction:
        query = self.queries[key]
        relations = query.relation_names
        labels = {
            fact: p for fact, p in self.versions.states[version].items()
            if fact.relation in relations
        }
        memo_key = (key, frozenset(labels.items()))
        if memo_key not in self.memo:
            self.memo[memo_key] = exact_probability(
                query, ProbabilisticDatabase(labels), method="lineage"
            )
        return self.memo[memo_key]

    def candidates(self, op: Op) -> list[Fraction]:
        return [
            self.truth(op.key, version)
            for version in range(op.low, op.high + 1)
            if version in self.versions.states
        ]


def _tolerance(body: dict) -> tuple[Fraction | None, float | None]:
    """(rational, ε) to check a 200 body with: Fraction equality when it
    carries a rational; float rounding for an exact answer without one
    (the hybrid counter's exact regime); else the reported ε."""
    rational = Fraction(body["rational"]) if body.get("rational") else None
    if rational is not None:
        return rational, None
    return None, 1e-9 if body.get("exact") else body["epsilon"]


def _read_ok(op: Op, truths: Truths) -> bool:
    rational, epsilon = _tolerance(op.body)
    return any(
        answer_ok(op.body["value"], rational, truth, epsilon,
                  additive=op.body.get("ladder_rung", 0) > 0)
        for truth in truths.candidates(op)
    )


def judge(ops: list[Op], truths: Truths) -> tuple[int, bool]:
    """(failed ops, checks passed).  Non-200 answers fail; wrong
    answers fail and make the run incorrect."""
    failed = 0
    wrong = 0
    perturbation_caught = True
    checked_perturbation = False
    for op in ops:
        if op.status != 200:
            failed += 1
            continue
        if op.kind != "read":
            continue
        if not _read_ok(op, truths):
            failed += 1
            wrong += 1
            print(f"serve read {truths.reads[op.key][1:]} versions "
                  f"{op.low}..{op.high}: {op.body} misses "
                  f"{[str(t) for t in truths.candidates(op)]}",
                  file=sys.stderr)
        elif not checked_perturbation and op.low == op.high:
            checked_perturbation = True
            rational, epsilon = _tolerance(op.body)
            perturbation_caught = catches_perturbation(
                op.body["value"], rational, truths.truth(op.key, op.low),
                epsilon,
            )
    return failed, wrong == 0 and perturbation_caught


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------

def _self_times(trace: Path) -> dict[str, float]:
    """Total self time per span name in a daemon trace file."""
    with open(trace, encoding="utf-8") as stream:
        spans = [r for r in read_trace(stream) if r["type"] == "span"]
    children: dict[int, float] = {}
    for record in spans:
        if record["parent_id"] is not None:
            children[record["parent_id"]] = (
                children.get(record["parent_id"], 0.0) + record["duration"]
            )
    totals: dict[str, float] = {}
    for record in spans:
        own = record["duration"] - children.get(record["span_id"], 0.0)
        totals[record["name"]] = totals.get(record["name"], 0.0) + own
    return totals


def _counter_delta(before: dict, after: dict, name: str) -> int:
    return after.get(name, 0) - before.get(name, 0)


def serve_layer_metrics(root: Path, seed: int, seconds: float,
                        smoke: bool, result: ResultBuilder) -> bool:
    """Add the serving layers' per-layer metrics (``serve.*``,
    ``registry.*``, ``delta.*``, ``journal.*``) of a traced serve-mixed
    run of ``seconds`` to ``result``; returns whether every answer was
    correct."""
    scratch = ResultBuilder()
    correct, _, _, _ = run_serve_mixed(root, seed, seconds, True, smoke,
                                       scratch)
    for name, cell in scratch.metrics.items():
        if name.startswith(("serve.", "registry.", "delta.", "journal.")):
            result.add(name, cell["value"], cell["unit"])
    return correct


def run_serve_mixed(root: Path, seed: int, seconds: float, trace: bool,
                    smoke: bool, result: ResultBuilder):
    workroot = root / ".perfbench" / f"serve-{os.getpid()}"
    if workroot.exists():
        shutil.rmtree(workroot)
    workroot.mkdir(parents=True)
    try:
        return _run(root, workroot, seed, seconds, trace, result)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)


def _run(root, workroot, seed, seconds, trace, result):
    pdb, reads = build_inputs(seed)
    labels = dict(pdb.probabilities)
    data = workroot / "data.csv"
    data.write_text(_csv_text(labels), encoding="utf-8")

    # Set-up: the daemon is started (and stopped) several times; the
    # median start-to-ready time is setup_s.  The last one serves.
    setup_times = []
    for attempt in range(SETUP_STARTS):
        daemon, elapsed = start_daemon(
            root, workroot / f"daemon-{attempt}", data, seed,
            trace=False,
        )
        setup_times.append(elapsed)
        if attempt < SETUP_STARTS - 1:
            stop_daemon(daemon)

    try:
        versions = Versions(labels)
        ops, wall = closed_loop(daemon.port, seed, reads,
                                seconds / 2 if trace else seconds, versions)
        rss = rss_of_pid_mb(daemon.process.pid) or 0.0
    finally:
        stop_daemon(daemon)
    truths = Truths(reads, versions)
    failed, correct = judge(ops, truths)
    attempted = len(ops)

    read_ops = [o for o in ops if o.kind == "read" and o.status == 200]
    write_ops = [o for o in ops if o.kind == "write" and o.status == 200]
    latencies = [o.latency for o in read_ops]
    writes = [o.latency for o in write_ops]
    if not trace:
        result.add("setup_s", median(setup_times), "s")
        # Seconds per 1,000 ops: the closed loop's inverse throughput.
        result.add("wall_s", 1000 * wall / max(1, attempted), "s")
        result.add("ok_share", (attempted - failed) / max(1, attempted),
                   "share")
        result.add("peak_rss_mb", rss, "MiB")
        result.add("read_p50_s", median(latencies), "s")
        result.add("read_p99_s", quantile(latencies, 0.99), "s")
        result.add("write_p50_s", median(writes), "s")
        result.add("write_p90_s", quantile(writes, 0.9), "s")
        result.add(
            "unshed_share",
            sum(1 for o in read_ops if o.body.get("ladder_rung", 0) == 0)
            / max(1, len(read_ops)),
            "share",
        )
        print(f"serve-mixed: {attempted} ops ({len(read_ops)} reads ok, "
              f"{len(write_ops)} writes ok) in {wall:.1f} s over "
              f"{CONNECTIONS} connections")
        return correct, attempted, failed, None

    # Traced half: a fresh daemon with --trace on the same inputs.
    traced, _ = start_daemon(root, workroot / "daemon-traced", data, seed,
                             trace=True)
    try:
        traced_versions = Versions(labels)
        traced_before = _get(traced.port, "/stats")[1]
        traced_ops, _ = closed_loop(traced.port, seed, reads, seconds / 2,
                                    traced_versions)
        traced_after = _get(traced.port, "/stats")[1]
    finally:
        stop_daemon(traced)
    traced_failed, traced_correct = judge(
        traced_ops, Truths(reads, traced_versions)
    )
    attempted += len(traced_ops)
    failed += traced_failed
    correct = correct and traced_correct

    traced_reads = [o for o in traced_ops
                    if o.kind == "read" and o.status == 200]
    n_reads = max(1, len(traced_reads))
    bodies = [o.body for o in traced_reads if not o.body.get("replayed")]
    result.add("serve.reads", len(traced_reads), "count")
    result.add("serve.queue_p99_s",
               quantile([b["queue_seconds"] for b in bodies], 0.99), "s")
    result.add("serve.engine_p50_s", median(b["elapsed"] for b in bodies),
               "s")
    result.add(
        "serve.overhead_p50_s",
        median(o.latency - o.body["elapsed"] - o.body["queue_seconds"]
               for o in traced_reads),
        "s",
    )
    counters_before = traced_before.get("requests", {})
    counters_after = traced_after.get("requests", {})
    hits = _counter_delta(counters_before, counters_after,
                          "serve.registry.hits")
    misses = _counter_delta(counters_before, counters_after,
                            "serve.registry.misses")
    result.add("registry.hits", hits, "count")
    result.add("registry.misses", misses, "count")
    result.add("registry.hit_ratio", hits / max(1, hits + misses), "share")
    result.add(
        "delta.reclaimed",
        sum(_counter_delta(counters_before, counters_after, name)
            for name in counters_after
            if name.startswith("delta.invalidated.")),
        "count",
    )
    result.add("delta.survived",
               _counter_delta(counters_before, counters_after,
                              "delta.survived"),
               "count")
    journal_bytes = sum(
        path.stat().st_size for path in traced.journals if path.exists()
    )
    result.add("journal.bytes_per_op",
               journal_bytes / max(1, len(traced_ops)), "B")
    result.add("serve.rejected_draining",
               _counter_delta(counters_before, counters_after,
                              "serve.rejected.draining"),
               "count")
    self_times = _self_times(traced.trace)
    # Spans cover the engine's share of a request, not the transport.
    result.add("trace.coverage",
               sum(self_times.values())
               / max(1e-9, sum(o.latency for o in traced_ops)),
               "share")
    untraced_mean = sum(latencies) / max(1, len(latencies))
    traced_mean = sum(o.latency for o in traced_reads) / n_reads
    result.add("trace.overhead", traced_mean / untraced_mean - 1, "share")
    for name in SPAN_METRICS:
        result.add(f"serve.self.{name}_s",
                   self_times.pop(name, 0.0) / n_reads, "s")
    result.add("serve.self.other_s", sum(self_times.values()) / n_reads,
               "s")
    return correct, attempted, failed, None
