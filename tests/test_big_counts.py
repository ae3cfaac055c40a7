"""Exact counts of any size print and round-trip.

A uniform-reliability count over a large relation passes the
interpreter's 4,300-digit limit on ``int``/``str`` conversion: one
``R`` fact and 14,400 ``S`` facts give ``UR(Q :- R(x, y)) = 2^14400``
(4,335 digits).  The CLI, the daemon's ``/evaluate`` body and the batch
journal write such a count exactly, without changing that limit, which
is process-wide; ``/evaluate`` stays strict JSON.
"""

import json
import math
import sys
from fractions import Fraction

import pytest

from repro.cli import main
from repro.core.estimator import PQEAnswer
from repro.core.journal import (
    BatchJournal,
    fraction_text,
    load_journal,
    parse_fraction,
)
from repro.core.parallel import BatchItemResult
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.serve import PQEServer, ServerConfig

COUNT = Fraction(2**14400)
DIGITS = 4335


def _facts() -> dict:
    facts = {Fact("R", ("a", "b")): "1/2"}
    for i in range(14400):
        facts[Fact("S", (f"c{i}", "d"))] = "1/2"
    return facts


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
    path = tmp_path / "facts.csv"
    path.write_text(
        "".join(
            f"{fact.relation},{label},{','.join(fact.constants)}\n"
            for fact, label in _facts().items()
        )
    )
    code = main(
        ["--data", str(path), "--query", "Q :- R(x, y)", "--reliability"]
    )
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
