"""Overload + chaos acceptance for the serve daemon (``-m serve``).

The ISSUE's acceptance scenario: a synchronized burst of at least 4×
the daemon's capacity (execution slots + queue), with worker crashes
injected, must produce **only** these three outcome shapes:

1. an answer correct within its *reported* ε (shed answers widen ε and
   say so — they are still answers, not errors);
2. a structured rejection (429 queue-full / 503 draining-or-quarantined
   / 504 deadline);
3. a structured crash record (500 with ``WorkerCrashError``) — never an
   unhandled exception, never a hung request.

Plus the durability half: a drained daemon's request journal replays
full-fidelity answers bitwise-identically after a restart, including
across a real SIGTERM against a live ``repro serve`` process.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import urllib.request
from fractions import Fraction
from pathlib import Path

import pytest

import repro
from repro.core.estimator import PQEEngine
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.queries.parser import parse_query
from repro.serve import CircuitBreaker, PQEServer, ServerConfig
from repro.testing.faults import FaultSpec, inject_faults, request_burst

pytestmark = pytest.mark.serve

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash containment needs fork-based process isolation",
)

BASE = "Q :- R(x), S(x, y), T(y)"
POISON = "Q :- P(x, y), P(y, z)"

#: Daemon capacity = slots + queue; the burst is 4x this.
CONCURRENCY = 2
QUEUE = 2
BURST = 4 * (CONCURRENCY + QUEUE)


@pytest.fixture
def pdb() -> ProbabilisticDatabase:
    return ProbabilisticDatabase({
        Fact("R", ("a",)): "1/2",
        Fact("R", ("b",)): "1/3",
        Fact("S", ("a", "b")): "1/2",
        Fact("S", ("b", "c")): "2/3",
        Fact("T", ("b",)): "1/2",
        Fact("T", ("c",)): "1/3",
        Fact("P", ("a", "b")): "1/2",
        Fact("P", ("b", "c")): "2/3",
    })


def truth(pdb, query: str) -> float:
    """Ground truth from the exact lineage path (tiny instances)."""
    answer = PQEEngine().probability(
        parse_query(query), pdb, method="auto"
    )
    assert answer.exact
    return float(Fraction(answer.rational))


def assert_acceptable(body, status, truths):
    """One burst outcome must be answer / rejection / crash record."""
    if status == 200:
        assert body["ok"] is True
        expected = truths[body_query(body)]
        epsilon = body["epsilon"]
        # FPRAS answers are multiplicative (1 ± ε); Monte-Carlo under
        # shedding is additive ε (the engine runs it at ε/4) — accept
        # the union so every rung's own guarantee is what we check.
        tolerance = epsilon * expected + epsilon
        assert abs(body["value"] - expected) <= tolerance, body
        assert body["shed"] == (body["ladder_rung"] > 0)
        return "ok"
    if body.get("rejected"):
        assert status in (429, 503, 504)
        assert body["reason"] in (
            "queue_full", "draining", "deadline_expired", "quarantined"
        )
        return "rejected"
    # Structured failure: the only acceptable kind is a contained
    # worker crash (the injected chaos), never an unhandled error.
    assert status == 500
    assert body["error"]["exception"] == "WorkerCrashError"
    return "crashed"


def body_query(body) -> str:
    return body["_query"]  # stamped by the burst senders below


class TestOverloadBurst:
    def test_burst_over_capacity_all_outcomes_structured(self, pdb):
        server = PQEServer(pdb, ServerConfig(
            max_concurrency=CONCURRENCY, max_queue=QUEUE,
        ))
        truths = {BASE: truth(pdb, BASE)}

        def send(i):
            status, body = server.handle(
                {"query": BASE, "method": "fpras"}
            )
            body["_query"] = BASE
            return status, body

        # Tiny instances evaluate in microseconds — too fast for a
        # burst to ever stack up.  Hold each admitted request at the
        # serving-layer fault site so the spike actually contends.
        with inject_faults(FaultSpec("serve.request", stall=0.25)):
            outcomes = request_burst(send, BURST, concurrency=BURST)
        assert not any(isinstance(o, Exception) for o in outcomes)
        kinds = [
            assert_acceptable(body, status, truths)
            for status, body in outcomes
        ]
        # A 4x-capacity synchronized spike must overflow the bounded
        # queue: admission rejected the excess explicitly.
        assert kinds.count("rejected") >= 1
        assert kinds.count("ok") >= CONCURRENCY
        assert kinds.count("crashed") == 0
        counters = server.telemetry.metrics.counters
        assert counters["serve.requests"] == BURST
        assert (
            counters["serve.ok"]
            + counters.get("serve.rejected.queue_full", 0)
            + counters.get("serve.rejected.deadline_expired", 0)
            == BURST
        )

    def test_shedding_engages_under_sustained_pressure(self, pdb):
        # Low thresholds + a hot latency history: the spike is served
        # on higher rungs with wider ε rather than erroring.
        server = PQEServer(pdb, ServerConfig(
            max_concurrency=CONCURRENCY, max_queue=QUEUE,
            shed_target_p95=0.001, shed_thresholds=(0.1, 0.3, 0.6),
        ))
        for _ in range(8):
            server.shedder.observe(0.5)
        truths = {BASE: truth(pdb, BASE)}

        def send(i):
            status, body = server.handle(
                {"query": BASE, "method": "fpras"}
            )
            body["_query"] = BASE
            return status, body

        outcomes = request_burst(send, BURST, concurrency=BURST)
        kinds = [
            assert_acceptable(body, status, truths)
            for status, body in outcomes
        ]
        assert kinds.count("ok") >= CONCURRENCY
        shed = [
            body for status, body in outcomes
            if status == 200 and body["shed"]
        ]
        assert shed, "sustained pressure must shed at least one answer"
        for body in shed:
            assert body["epsilon"] > 0.25  # widened beyond the default
        assert server.telemetry.metrics.counters["serve.shed"] >= 1


@needs_fork
class TestOverloadWithCrashes:
    def test_burst_with_injected_crashes_stays_structured(self, pdb):
        server = PQEServer(pdb, ServerConfig(
            max_concurrency=CONCURRENCY, max_queue=QUEUE,
            isolation="process", epsilon=0.5,
        ))
        truths = {
            BASE: truth(pdb, BASE),
            POISON: truth(pdb, POISON),
        }
        # Unloaded poison request first: rung 0 -> karp-luby -> the
        # injected crash site fires deterministically at least once.
        with inject_faults(
            FaultSpec("lineage.karp_luby", crash="sigkill")
        ):
            status, body = server.handle(
                {"query": POISON, "method": "karp-luby"}
            )
            body["_query"] = POISON
            assert assert_acceptable(body, status, truths) == "crashed"

            def send(i):
                query, method = (
                    (POISON, "karp-luby")
                    if i % 4 == 0
                    else (BASE, "fpras")
                )
                status, body = server.handle(
                    {"query": query, "method": method}
                )
                body["_query"] = query
                return status, body

            outcomes = request_burst(send, BURST, concurrency=BURST)
        assert not any(isinstance(o, Exception) for o in outcomes)
        kinds = [
            assert_acceptable(body, status, truths)
            for status, body in outcomes
        ]
        assert kinds.count("ok") >= 1
        counters = server.telemetry.metrics.counters
        assert counters["serve.crashes"] >= 1
        # The slots all drained back: nothing leaked, nothing hung.
        assert server.admission.snapshot()["running"] == 0

    def test_repeat_crashes_trip_the_breaker(self, pdb):
        server = PQEServer(pdb, ServerConfig(
            isolation="process", epsilon=0.5,
        ))
        server.breaker = CircuitBreaker(threshold=2)
        with inject_faults(
            FaultSpec("lineage.karp_luby", crash="sigkill")
        ):
            for _ in range(2):
                status, body = server.handle(
                    {"query": POISON, "method": "karp-luby"}
                )
                assert status == 500
                assert body["error"]["exception"] == "WorkerCrashError"
            # Third request: quarantined up front, no worker risked.
            status, body = server.handle(
                {"query": POISON, "method": "karp-luby"}
            )
        assert status == 503
        assert body["reason"] == "quarantined"
        counters = server.telemetry.metrics.counters
        assert counters["serve.crashes"] == 2
        assert counters["serve.rejected.quarantined"] == 1


class TestDrainJournalIdentity:
    #: Full-fidelity requests a restart must replay bitwise.
    REQUESTS = (
        {"query": BASE, "method": "fpras"},
        {"query": BASE, "method": "monte-carlo"},
        {"query": BASE, "task": "reliability"},
    )

    def test_drained_journal_replays_bitwise_identically(
        self, pdb, tmp_path
    ):
        journal = str(tmp_path / "requests.wal")
        first = PQEServer(pdb, ServerConfig(
            epsilon=0.5, journal=journal
        ))
        originals = []
        for payload in self.REQUESTS:
            status, body = first.handle(dict(payload))
            assert status == 200 and body["ok"]
            originals.append(body)
        # drain() is exactly what the SIGTERM handler runs.
        assert first.drain(reason="SIGTERM") is True

        second = PQEServer(pdb, ServerConfig(
            epsilon=0.5, journal=journal
        ))
        for payload, original in zip(self.REQUESTS, originals):
            status, replay = second.handle(dict(payload))
            assert status == 200
            assert replay["replayed"] is True
            assert replay["value"] == original["value"]
            assert replay["seed"] == original["seed"]
            assert replay["rational"] == original["rational"]
            assert replay["method"] == original["method"]
        counters = second.telemetry.metrics.counters
        assert counters["serve.replays"] == len(self.REQUESTS)


class TestDaemonSigterm:
    def test_live_daemon_sigterm_drains_and_restart_replays(
        self, pdb, tmp_path
    ):
        src_root = Path(repro.__file__).resolve().parents[1]
        data = tmp_path / "facts.csv"
        data.write_text(
            "R,1/2,a\nS,1/2,a,b\nT,1/2,b\n", encoding="utf-8"
        )
        journal = tmp_path / "requests.wal"
        env = {**os.environ, "PYTHONPATH": str(src_root)}

        def start_daemon(tag):
            ready = tmp_path / f"port-{tag}"
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--data", str(data), "--journal", str(journal),
                 "--ready-file", str(ready), "--epsilon", "0.5"],
                env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
            )
            deadline = time.monotonic() + 30
            while not ready.exists():
                assert process.poll() is None, process.stderr.read()
                assert time.monotonic() < deadline
                time.sleep(0.05)
            return process, int(ready.read_text().strip())

        def evaluate(port):
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/evaluate",
                data=json.dumps(
                    {"query": BASE, "method": "fpras"}
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as reply:
                return json.loads(reply.read())

        process, port = start_daemon("first")
        try:
            original = evaluate(port)
            assert original["ok"] and not original["replayed"]
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=30)
            assert process.returncode == 0, err
            assert "drained:" in out
        finally:
            if process.poll() is None:
                process.kill()

        process, port = start_daemon("second")
        try:
            replay = evaluate(port)
            assert replay["replayed"] is True
            assert replay["value"] == original["value"]
            assert replay["seed"] == original["seed"]
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
