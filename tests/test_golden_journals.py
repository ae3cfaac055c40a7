"""Journals written by an earlier release load and re-append bitwise.

``tests/golden/journals/`` holds one batch journal, one request journal
and one delta journal written before the three journals shared one
record log (:class:`repro.core.journal.RecordLog`).  Each must load
with the header and records it holds and quarantine nothing; appended
again record by record, the loaded records must reproduce the file
byte for byte.  A resumed batch or a restarted daemon therefore
replays journals the old code wrote.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.core.estimator import PQEEngine
from repro.core.journal import (
    BatchJournal,
    RequestJournal,
    load_journal,
    load_request_journal,
)
from repro.core.parallel import BatchItem
from repro.db.delta import DeltaJournal, VersionedDatabase, load_delta_journal
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.queries import parse_query

GOLDEN = Path(__file__).parent / "golden" / "journals"


def _delta_record(loaded, record):
    if record["type"] == "delta":
        return loaded.deltas[record["to_version"] - 1]
    return loaded.applied[record["version"]]


# (file, log class, loader, file record -> the loaded record for it)
CASES = {
    "batch": (
        "batch.jsonl", BatchJournal, load_journal,
        lambda loaded, record: loaded.items[record["index"]],
    ),
    "requests": (
        "requests.jsonl", RequestJournal, load_request_journal,
        lambda loaded, record: loaded.requests[record["key"]],
    ),
    "deltas": (
        "deltas.jsonl", DeltaJournal, load_delta_journal, _delta_record,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_old_journal_loads_and_reappends_bitwise(case, tmp_path):
    name, log_class, load, loaded_record = CASES[case]
    golden = GOLDEN / name
    header, *records = [
        json.loads(line) for line in golden.read_text().splitlines()
    ]
    assert records, "golden journal holds no records"

    loaded = load(golden)
    assert loaded.quarantined == 0
    assert loaded.header == header
    reloaded = [loaded_record(loaded, record) for record in records]
    assert reloaded == records

    copy = tmp_path / name
    with log_class(copy) as log:
        for record in [loaded.header, *reloaded]:
            log._append(record)
    assert copy.read_bytes() == golden.read_bytes()


# The inputs the golden batch and delta journals were recorded for.
BASE = ProbabilisticDatabase({
    Fact("R", ("a", "b")): "1/2",
    Fact("R", ("a", "c")): "1/3",
    Fact("S", ("b", "d")): "2/3",
    Fact("S", ("c", "d")): "3/4",
})


def _batch_items():
    safe = parse_query("Q :- R(x, y), S(y, z)")
    unsafe = parse_query("Q :- R(x), S(x, y), T(y)")
    return [
        BatchItem(safe, BASE),
        BatchItem(safe, BASE, method="fpras"),
        BatchItem(safe, BASE.instance, task="reliability"),
        BatchItem(unsafe, BASE, method="lifted"),
    ]


def test_old_batch_journal_resumes(tmp_path):
    journal = tmp_path / "batch.jsonl"
    shutil.copy(GOLDEN / "batch.jsonl", journal)
    recorded = load_journal(journal)
    engine = PQEEngine(seed=7, exact_set_cap=0)
    resumed = engine.resume_batch(
        _batch_items(), seed=7, journal=journal, on_error="skip"
    )
    assert [r.replayed for r in resumed.results] == [
        True, True, True, False
    ]
    for result in resumed.results[:3]:
        answer = recorded.items[result.index]["answer"]
        assert result.answer.value == answer["value"]
        assert result.answer.method == answer["method"]
    assert resumed.results[3].error.exception == "UnsafeQueryError"


def test_old_delta_journal_recovers_its_chain(tmp_path):
    journal = tmp_path / "deltas.jsonl"
    shutil.copy(GOLDEN / "deltas.jsonl", journal)
    recorded = load_delta_journal(journal)
    with VersionedDatabase(BASE, journal=journal) as versioned:
        assert versioned.version == 2
        assert versioned.cache_token == recorded.deltas[-1]["token_after"]
