"""Socket-level coverage for the serve daemon (``-m serve``).

One live :class:`ThreadingHTTPServer` per test, bound to an ephemeral
port on loopback; requests go through ``urllib`` so the wire format —
status codes, JSON bodies, Content-Length framing — is what a real
client sees.  Request-path *logic* is covered in ``test_serve.py``.
"""

import http.client
import json
import socket
import statistics
import time
import urllib.error
import urllib.request

import pytest

from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.serve import PQEServer, ServerConfig
from repro.serve.server import MAX_BODY_BYTES

pytestmark = pytest.mark.serve

BASE = "Q :- R(x), S(x, y), T(y)"


@pytest.fixture
def pdb() -> ProbabilisticDatabase:
    return ProbabilisticDatabase({
        Fact("R", ("a",)): "1/2",
        Fact("S", ("a", "b")): "1/2",
        Fact("T", ("b",)): "1/2",
    })


@pytest.fixture
def server(pdb):
    instance = PQEServer(pdb, ServerConfig())
    instance.start()
    yield instance
    instance.drain(reason="test-teardown")


def get(server, path):
    url = f"http://127.0.0.1:{server.port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as failure:
        return failure.code, json.loads(failure.read())


def post(server, path, payload, *, raw=None):
    body = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as failure:
        return failure.code, json.loads(failure.read())


def raw_post(server, content_length, path="/evaluate", body=b""):
    """POST headers announcing ``content_length``, then ``body``, and
    read until the server closes the connection (a 3 s timeout fails
    the test if it never does).  Asserts that exactly one response came
    back; returns (status, lower-cased head, body)."""
    with socket.create_connection(
        ("127.0.0.1", server.port), timeout=3
    ) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n".encode()
            + b"Content-Type: application/json\r\n"
            + f"Content-Length: {content_length}\r\n\r\n".encode()
            + body
        )
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    assert response.count(b"HTTP/1.") == 1, response
    head, _, blob = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), head.lower(), json.loads(blob)


class TestEndpoints:
    def test_healthz(self, server):
        assert get(server, "/healthz") == (
            200, {"ok": True, "status": "alive"}
        )

    def test_readyz_flips_on_drain(self, server):
        assert get(server, "/readyz") == (
            200, {"ok": True, "status": "ready"}
        )
        server.drain(reason="test")
        # The HTTP listener is closed by drain, so readiness is
        # asserted through the in-process surface afterwards.
        assert server.admission.draining

    def test_evaluate_round_trip(self, server):
        status, body = post(server, "/evaluate", {"query": BASE})
        assert status == 200
        assert body["ok"] is True
        assert 0.0 <= body["value"] <= 1.0
        assert body["trace_id"].startswith("req-")

    def test_evaluate_rejects_malformed_json(self, server):
        status, body = post(
            server, "/evaluate", None, raw=b"{not json"
        )
        assert status == 400
        assert body["reason"] == "bad_request"

    @pytest.mark.parametrize("content_length", ["-1", "ten"])
    def test_invalid_content_length_is_rejected_and_closed(
        self, server, content_length
    ):
        status, head, body = raw_post(server, content_length)
        assert status == 400
        assert body["rejected"] is True
        assert body["reason"] == "bad_request"
        assert b"connection: close" in head
        assert get(server, "/healthz")[0] == 200

    @pytest.mark.parametrize(
        "content_length", [MAX_BODY_BYTES + 1, 99999999999]
    )
    def test_oversized_body_is_rejected_before_reading(
        self, server, content_length
    ):
        # No body is sent: a server that tried to read it would wait
        # past the socket timeout.
        status, head, body = raw_post(server, content_length)
        assert status == 413
        assert body["rejected"] is True
        assert body["reason"] == "body_too_large"
        assert b"connection: close" in head
        assert get(server, "/healthz")[0] == 200

    def test_post_to_unknown_route_is_rejected_and_closed(self, server):
        # The body is a whole request: left unread on a kept-alive
        # connection, it would be answered as a second request.
        body = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"
        status, head, reply = raw_post(server, len(body), "/nope", body)
        assert status == 404
        assert reply["rejected"] is True
        assert reply["reason"] == "not_found"
        assert b"connection: close" in head
        assert get(server, "/healthz")[0] == 200

    def test_evaluate_rejects_bad_payload(self, server):
        # Wrong field types get a 400 too, not an empty reply.
        for payload in (
            {"nope": 1},
            {"query": BASE, "deadline": "soon"},
            {"query": 5},
        ):
            status, body = post(server, "/evaluate", payload)
            assert status == 400
            assert body["reason"] == "bad_request"

    def test_oversized_query_is_a_400(self, server):
        # A 1,200-atom self-join star, 13 kB: under the body cap, over
        # the query-size cap.  The parser rejects it before any stage
        # recurses once per atom.
        query = "Q :- " + ", ".join(f"R(x, y{i})" for i in range(1200))
        status, body = post(server, "/evaluate", {"query": query})
        assert status == 400
        assert body["reason"] == "bad_request"
        assert "256" in body["message"]
        assert get(server, "/healthz")[0] == 200

    def test_stats_endpoint(self, server):
        post(server, "/evaluate", {"query": BASE})
        status, body = get(server, "/stats")
        assert status == 200
        assert body["settled"] == 1
        assert body["requests"]["serve.ok"] == 1
        assert body["draining"] is False

    def test_unknown_routes_404(self, server):
        assert get(server, "/nope")[0] == 404
        assert post(server, "/nope", {})[0] == 404

    def test_concurrent_requests_share_the_warm_registry(self, server):
        from repro.testing.faults import request_burst

        outcomes = request_burst(
            lambda i: post(
                server, "/evaluate", {"query": BASE, "method": "fpras"}
            ),
            count=8,
            concurrency=4,
        )
        assert all(
            not isinstance(outcome, Exception) and outcome[0] == 200
            for outcome in outcomes
        )
        values = {outcome[1]["value"] for outcome in outcomes}
        assert len(values) == 1  # content-derived seed: one answer
        counters = server.telemetry.metrics.counters
        assert counters["serve.ok"] == 8
        assert counters["serve.registry.hits"] > 0


    def test_keep_alive_replies_do_not_wait_for_delayed_ack(self, server):
        # Headers and body leave as two sends; with Nagle on, the body
        # of every reply on a kept-alive connection waited ~40 ms for
        # the client's delayed ACK.
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        try:
            latencies = []
            for _ in range(20):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["ok"] is True
                latencies.append(time.perf_counter() - started)
        finally:
            connection.close()
        assert statistics.median(latencies) < 0.020, latencies


class TestDrainOverHttp:
    def test_drain_stops_the_listener(self, pdb):
        instance = PQEServer(pdb, ServerConfig())
        instance.start()
        port = instance.port
        assert get(instance, "/healthz")[0] == 200
        assert instance.drain(reason="test") is True
        with pytest.raises(OSError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=2
            )
