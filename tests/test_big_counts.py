"""Exact counts of any size print and round-trip.

A uniform-reliability count over a large relation passes the
interpreter's 4,300-digit limit on ``int``/``str`` conversion: one
``R`` fact and 14,400 ``S`` facts give ``UR(Q :- R(x, y)) = 2^14400``
(4,335 digits).  The CLI, the daemon's ``/evaluate`` body and the batch
journal write such a count exactly, without changing that limit, which
is process-wide.

Past 1,024 facts a count no longer fits in a float at all: its value
is ``inf``.  Every written form of an answer — a batch journal line, a
request journal line, the ``/evaluate`` body and ``repro eval --batch
--json`` — is strict JSON, with ``"value": null`` and the exact count
in ``rational``; a resumed batch and a restarted daemon read it back
as ``inf`` and the exact count.
"""

import json
import math
import sys
import urllib.request
from fractions import Fraction

import pytest

from repro.cli import main
from repro.core.estimator import PQEAnswer, PQEEngine
from repro.core.journal import (
    BatchJournal,
    fraction_text,
    load_journal,
    load_request_journal,
    parse_fraction,
    restore_answer,
)
from repro.core.parallel import BatchItem, BatchItemResult
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.queries import parse_query
from repro.serve import PQEServer, ServerConfig

COUNT = Fraction(2**14400)
DIGITS = 4335

#: ``UR(Q :- R(x, y))`` over one ``R`` fact and 1,100 ``S`` facts: past
#: the float range, well inside the digit limit.
OVERFLOW = Fraction(2**1100)
QUERY = "Q :- R(x, y)"


def _facts(s_facts: int = 14400) -> dict:
    facts = {Fact("R", ("a", "b")): "1/2"}
    for i in range(s_facts):
        facts[Fact("S", (f"c{i}", "d"))] = "1/2"
    return facts


def _csv(path, facts) -> str:
    path.write_text(
        "".join(
            f"{fact.relation},{label},{','.join(fact.constants)}\n"
            for fact, label in facts.items()
        )
    )
    return str(path)


def _strict(text: str):
    """``json.loads`` that refuses ``Infinity``, ``-Infinity`` and
    ``NaN``, as every JSON reader but Python's does."""

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def _overflowing(record: dict) -> None:
    assert record["value"] is None
    assert parse_fraction(record["rational"]) == OVERFLOW


def _evaluate(server, payload: dict) -> dict:
    """POST ``payload`` to a started daemon's ``/evaluate``; the body
    as strict JSON."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}/evaluate",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return _strict(response.read().decode())


def test_fraction_text_round_trips_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for value in (COUNT, Fraction(-3, 2**14400), Fraction(7), Fraction(0)):
        text = fraction_text(value)
        assert parse_fraction(text) == value
    assert fraction_text(Fraction(3, 4)) == str(Fraction(3, 4))
    assert len(fraction_text(COUNT)) == DIGITS
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError):
        parse_fraction("1.5")


def test_cli_prints_the_exact_count(tmp_path, capsys):
    path = _csv(tmp_path / "facts.csv", _facts())
    code = main(["--data", path, "--query", QUERY, "--reliability"])
    assert code == 0
    assert f"({fraction_text(COUNT)})" in capsys.readouterr().out


def test_batch_journal_round_trips_the_exact_count(tmp_path):
    path = tmp_path / "batch.jsonl"
    answer = PQEAnswer(
        value=math.inf, method="lifted", exact=True, rational=COUNT
    )
    with BatchJournal(path) as journal:
        journal.write_header("fp", 7, 1)
        journal.record_item(
            BatchItemResult(index=0, answer=answer, seed=1, elapsed=0.1)
        )
    restored = load_journal(path).restore_result(0).answer
    assert restored.rational == COUNT
    assert restored == answer


@pytest.mark.serve
def test_evaluate_body_is_strict_json_with_the_exact_count():
    server = PQEServer(ProbabilisticDatabase(_facts()), ServerConfig())
    status, body = server.handle(
        {"query": "Q :- R(x, y)", "task": "reliability"}
    )
    assert status == 200
    assert body["value"] is None  # past the float range
    assert parse_fraction(body["rational"]) == COUNT
    json.dumps(body, allow_nan=False)


def test_batch_journal_is_strict_json_and_resumes_bitwise(tmp_path):
    engine = PQEEngine(seed=1)
    items = [
        BatchItem(
            parse_query(QUERY),
            ProbabilisticDatabase(_facts(1100)).instance,
            task="reliability",
        )
    ]
    path = tmp_path / "batch.jsonl"
    first = engine.evaluate_batch(items, seed=7, journal=path)
    answer = first.results[0].answer
    assert answer.value == math.inf and answer.rational == OVERFLOW
    _, item = [_strict(line) for line in path.read_text().splitlines()]
    _overflowing(item["answer"])

    resumed = engine.evaluate_batch(items, seed=7, journal=path, resume=True)
    replayed = resumed.results[0]
    assert replayed.replayed
    assert replayed.answer == answer
    assert replayed.answer.value == math.inf


@pytest.mark.serve
def test_request_journal_is_strict_json_and_replays_bitwise(tmp_path):
    pdb = ProbabilisticDatabase(_facts(1100))
    journal = str(tmp_path / "requests.jsonl")
    request = {"query": QUERY, "task": "reliability"}
    first = PQEServer(pdb, ServerConfig(journal=journal))
    first.start()
    try:
        body = _evaluate(first, request)
    finally:
        first.drain()
    _overflowing(body)
    lines = (tmp_path / "requests.jsonl").read_text().splitlines()
    records = [_strict(line) for line in lines]
    assert [r["type"] for r in records] == ["serve-header", "request"]
    _overflowing(records[1]["answer"])

    (record,) = load_request_journal(journal).requests.values()
    restored = restore_answer(record["answer"])
    assert restored.value == math.inf and restored.rational == OVERFLOW
    second = PQEServer(pdb, ServerConfig(journal=journal))
    second.start()
    try:
        replayed = _evaluate(second, request)
    finally:
        second.drain()
    assert replayed["replayed"]
    assert {k: replayed[k] for k in ("value", "rational", "method")} == {
        k: body[k] for k in ("value", "rational", "method")
    }


def test_batch_json_output_is_strict_json(tmp_path, capsys):
    data = _csv(tmp_path / "facts.csv", _facts(1100))
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([{"query": QUERY, "task": "reliability"}]))
    code = main(["--data", data, "--batch", str(batch), "--json"])
    assert code == 0
    (result,) = _strict(capsys.readouterr().out)["results"]
    _overflowing(result)
