"""Budget arithmetic at the serving boundary (``-m serve``).

Satellite contract: queue wait is the *request's* time.  The server
deducts it from the request deadline before any engine work
(:meth:`EvaluationBudget.consume_wait`), a request whose deadline
expired in the queue is rejected without touching the engine, and
rejected requests leave no trace in the request journal.
"""

import time

import pytest

from repro.core.budget import EvaluationBudget
from repro.core.journal import load_request_journal
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import BudgetExceededError, ReproError
from repro.serve import PQEServer, ServerConfig
from repro.serve.admission import AdmissionTicket

pytestmark = pytest.mark.serve

BASE = "Q :- R(x), S(x, y), T(y)"


@pytest.fixture
def pdb() -> ProbabilisticDatabase:
    return ProbabilisticDatabase({
        Fact("R", ("a",)): "1/2",
        Fact("S", ("a", "b")): "1/2",
        Fact("T", ("b",)): "1/2",
    })


def stub_queue_wait(server, waited: float) -> None:
    """Make admission report ``waited`` seconds of queueing without
    actually sleeping (the arithmetic is the subject under test)."""
    server.admission.admit = lambda deadline=None: AdmissionTicket(
        queue_seconds=waited, queue_fraction=0.0
    )


class TestConsumeWait:
    def test_wait_is_deducted_from_the_deadline(self):
        budget = EvaluationBudget(deadline=2.0, max_work_units=100)
        remaining = budget.consume_wait(0.5)
        assert remaining.deadline == pytest.approx(1.5)
        # Non-deadline limits ride along untouched.
        assert remaining.max_work_units == 100

    def test_expired_wait_raises_deadline_kind(self):
        budget = EvaluationBudget(deadline=0.5)
        with pytest.raises(BudgetExceededError) as info:
            budget.consume_wait(0.5)
        assert info.value.kind == "deadline"
        with pytest.raises(BudgetExceededError):
            budget.consume_wait(1.0)

    def test_no_deadline_passes_through(self):
        budget = EvaluationBudget(max_work_units=10)
        assert budget.consume_wait(100.0) is budget

    def test_negative_wait_is_an_error(self):
        with pytest.raises(ReproError):
            EvaluationBudget(deadline=1.0).consume_wait(-0.1)


class TestServingBoundary:
    def test_queue_wait_charged_against_request_deadline(self, pdb):
        # 0.4s queued against a 10s deadline: admitted and answered,
        # with the wait reported on the response.
        server = PQEServer(pdb, ServerConfig())
        stub_queue_wait(server, 0.4)
        status, body = server.handle(
            {"query": BASE, "deadline": 10.0}
        )
        assert status == 200 and body["ok"]
        assert body["queue_seconds"] == pytest.approx(0.4)

    def test_expired_request_rejected_before_engine_work(self, pdb):
        server = PQEServer(pdb, ServerConfig())
        stub_queue_wait(server, 0.75)
        status, body = server.handle(
            {"query": BASE, "deadline": 0.5}
        )
        assert status == 504
        assert body["rejected"] is True
        assert body["reason"] == "deadline_expired"
        counters = server.telemetry.metrics.counters
        assert counters["serve.rejected.deadline_expired"] == 1
        # No evaluation happened: nothing settled, nothing shed,
        # no latency sample polluting the shedder.
        assert server.stats()["settled"] == 0
        assert "serve.ok" not in counters
        assert server.shedder.snapshot()["samples"] == 0

    def test_rejections_emit_no_journal_records(self, pdb, tmp_path):
        journal = str(tmp_path / "requests.wal")
        server = PQEServer(pdb, ServerConfig(journal=journal))
        stub_queue_wait(server, 0.75)
        status, _ = server.handle({"query": BASE, "deadline": 0.5})
        assert status == 504
        server.drain(reason="test")
        loaded = load_request_journal(journal)
        assert loaded.requests == {}
        assert loaded.header is not None  # the header alone

    def test_default_deadline_applies_when_request_omits_one(self, pdb):
        server = PQEServer(
            pdb, ServerConfig(default_deadline=0.5)
        )
        stub_queue_wait(server, 0.75)
        status, body = server.handle({"query": BASE})
        assert status == 504
        assert body["reason"] == "deadline_expired"

    def test_classification_runs_under_the_request_deadline(self):
        from repro.queries.lifted import clear_lifted_caches

        # A 64-atom self-join path over a four-fact cycle: the lifted
        # classifier's minimization of it takes seconds.
        query = "Q :- " + ", ".join(f"R(x{i}, x{i + 1})" for i in range(64))
        server = PQEServer(
            ProbabilisticDatabase({
                Fact("R", pair): "1/2"
                for pair in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"))
            }),
            ServerConfig(),
        )
        clear_lifted_caches()
        started = time.perf_counter()
        status, body = server.handle({"query": query, "deadline": 0.5})
        assert time.perf_counter() - started < 1.0
        assert status == 500
        assert body["error"]["exception"] == "BudgetExceededError"
        assert body["error"]["phase"] == "lifted.classify"

    def test_deadline_free_requests_never_expire_in_queue(self, pdb):
        server = PQEServer(pdb, ServerConfig())
        stub_queue_wait(server, 1e6)
        status, body = server.handle({"query": BASE})
        assert status == 200 and body["ok"]
