"""Append-only record logs: batch journals, request journals, resume.

A batch killed at item *k* — worker segfault, OOM kill, operator
``SIGKILL``, host restart — used to discard every completed sibling.
:class:`BatchJournal` is the write-ahead log that prevents that: the
batch evaluator appends one fsync'd JSONL record per settled item, and
:meth:`PQEEngine.resume_batch <repro.core.estimator.PQEEngine.resume_batch>`
(CLI ``repro eval --batch … --journal FILE --resume``) replays the
journal's valid prefix and computes only the remainder.

Record format (one JSON object per line)::

    {"type": "header", "version": 1, "fingerprint": "<sha256>",
     "seed": 7, "items": 16, "checksum": "<sha256>"}
    {"type": "item", "index": 3, "ok": true, "seed": 1234,
     "elapsed": 0.0021, "retries": 0,
     "answer": {"value": 0.5, "method": "fpras", "exact": false,
                "rational": null, "degradations": []},
     "counters": {"karp_luby.samples": 96, ...} | null,
     "checksum": "<sha256>"}
    {"type": "item", "index": 5, "ok": false, ...,
     "error": {"exception": "EstimationError", "message": "...",
               "phase": "counting.nfta", "retries": 1}, ...}

Every journal in the package — this batch journal, the serve daemon's
:class:`RequestJournal` and the delta WAL
(:class:`repro.db.delta.DeltaJournal`) — is a :class:`RecordLog` and is
read back by :func:`read_records`; each adds only its record types and
its validity rule.  Every record carries a ``checksum``: the SHA-256
hex digest of its own canonical JSON serialisation (sorted keys,
compact separators) with the ``checksum`` field removed.  Loading keeps
the longest prefix of structurally valid, checksum-verified records
and **quarantines the tail** — a torn final line from a crash
mid-``write``, a bit-flipped byte, or trailing garbage produces a
:class:`JournalWarning` naming the file and line, never an exception
and never a wrong probability (quarantined items are simply
recomputed).

Exactness across the round trip: probabilities are stored as JSON
floats (Python's ``repr``-based float serialisation is shortest-round-
trip exact) plus the exact ``Fraction`` as a ``"num/den"`` string when
present, so a replayed :class:`~repro.core.estimator.PQEAnswer` is
bitwise-identical to the recorded one.  ``counters`` holds the item's
*replay-stable* deterministic counters (see
:data:`repro.obs.metrics.REPLAY_SENSITIVE_PREFIXES`), so a resumed
batch's merged deterministic telemetry matches an uninterrupted run's.

Fingerprints bind a journal to one logical batch: SHA-256 over the
batch seed, the engine's routing-relevant configuration, and every
item's ``(task, method, query token, database token)``.  Resuming
against a journal whose fingerprint differs raises
:class:`~repro.errors.JournalError` — replaying answers computed for
different items or a different ε would be silent corruption.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import threading
import warnings
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable

from repro.errors import JournalError
from repro.obs import metric_inc

__all__ = [
    "JOURNAL_VERSION",
    "BatchJournal",
    "JournalWarning",
    "RecordLog",
    "RequestJournal",
    "batch_fingerprint",
    "check_fingerprint",
    "fraction_text",
    "load_journal",
    "load_request_journal",
    "parse_fraction",
    "read_records",
    "restore_answer",
]

JOURNAL_VERSION = 1


class JournalWarning(UserWarning):
    """A journal's tail was quarantined (torn, truncated, corrupt)."""


def _checksummed(record: dict) -> dict:
    """Return ``record`` with its ``checksum`` field filled in."""
    body = {k: v for k, v in record.items() if k != "checksum"}
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    body["checksum"] = digest
    return body


def _verify(record) -> bool:
    if not isinstance(record, dict) or "checksum" not in record:
        return False
    return _checksummed(record)["checksum"] == record["checksum"]


class RecordLog:
    """An append-only file of checksummed JSON records, one per line.

    Appends are serialised under a lock (worker threads record their
    own completions) and each record is flushed and ``fsync``'d before
    the append returns — after a crash the log holds every record whose
    append returned, missing at most the one in-flight line (which
    :func:`read_records` then quarantines).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._stream: io.TextIOWrapper | None = None

    def _append(self, record: dict) -> None:
        line = json.dumps(
            _checksummed(record), sort_keys=True, separators=(",", ":")
        )
        with self._lock:
            if self._stream is None:
                self._stream = open(self.path, "a", encoding="utf-8")
            self._stream.write(line + "\n")
            self._stream.flush()
            os.fsync(self._stream.fileno())
        metric_inc("journal.appends")

    def close(self) -> None:
        with self._lock:
            if self._stream is not None:
                self._stream.close()
                self._stream = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_records(
    path: str | Path,
    valid: Callable[[dict, list], bool],
    label: str = "journal",
) -> tuple[list[dict], int]:
    """The longest valid prefix of the record log at ``path``.

    A line that is not JSON, fails its checksum, or fails
    ``valid(record, accepted)`` — the log's own rule, shown the records
    accepted before it — quarantines that line **and everything after
    it** (a torn tail means later bytes cannot be trusted), with a
    :class:`JournalWarning` naming the file and line number and one
    ``journal.quarantines`` increment; never an exception.  Blank lines
    are skipped and a missing file loads as an empty log.  Returns the
    accepted records and the number of quarantined lines.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    with open(path, encoding="utf-8") as stream:
        lines = stream.read().splitlines()
    accepted: list[dict] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = None
        if not (_verify(record) and valid(record, accepted)):
            quarantined = len(lines) - number + 1
            warnings.warn(
                f"{label} {path}: quarantined line {number} and the "
                f"{quarantined - 1} line(s) after it (torn or corrupt "
                f"tail); only the records before it are kept",
                JournalWarning,
                stacklevel=3,
            )
            metric_inc("journal.quarantines")
            return accepted, quarantined
        accepted.append(record)
    return accepted, 0


def _header(records: list[dict], kind: str) -> dict | None:
    """The first record of type ``kind`` (later duplicates are ignored)."""
    return next((r for r in records if r["type"] == kind), None)


def check_fingerprint(
    loaded,
    fingerprint: str,
    path,
    *,
    field: str = "fingerprint",
    subject: str = "batch",
    phase: str = "journal.resume",
) -> None:
    """Refuse to replay a log recorded for a different ``subject``.

    The loaded header's ``field`` must equal ``fingerprint``: a batch
    journal binds one batch, a request journal one engine configuration
    (``subject="engine configuration"``), a delta journal one base
    database (``field="base_token"``).  A log without a header has
    recorded nothing to contradict.
    """
    if loaded.header is None:
        return
    recorded = loaded.header.get(field)
    if recorded != fingerprint:
        raise JournalError(
            f"journal {path} was recorded for a different {subject} "
            f"({field} {recorded!r:.20} != {fingerprint!r:.20}); "
            f"refusing to replay it",
            phase=phase,
        )


def batch_fingerprint(items, seed, engine) -> str:
    """The digest binding a journal to one (items, seed, engine) batch.

    Covers everything that changes answers: per-item task/method and
    the canonical ``cache_token`` digests of query and database, the
    batch seed, and the engine knobs that steer routing and sampling.
    """
    digest = hashlib.sha256()
    digest.update(
        f"repro-journal:{JOURNAL_VERSION}:{seed}:"
        f"{engine.epsilon!r}:{engine.repetitions}:"
        f"{engine.lineage_budget}:{engine.exact_set_cap}:"
        f"{engine.kernel_backend}".encode()
    )
    for item in items:
        digest.update(
            f"|{item.task}:{item.method}:{item.query.cache_token}:"
            f"{item.database.cache_token}".encode()
        )
    return digest.hexdigest()


def fraction_text(value: Fraction) -> str:
    """``value`` as ``"num/den"`` text (``"num"`` when whole), exactly
    and at any size.

    ``str`` refuses integers past the interpreter's digit limit
    (``sys.get_int_max_str_digits``, 4,300 by default), which a uniform
    reliability count over a large relation passes.  Going through
    :class:`decimal.Decimal` converts exactly without touching that
    limit, which is process-wide and so belongs to the caller.
    """
    numerator = str(Decimal(value.numerator))
    if value.denominator == 1:
        return numerator
    return f"{numerator}/{Decimal(value.denominator)}"


_FRACTION_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_fraction(text: str) -> Fraction:
    """The :class:`~fractions.Fraction` that :func:`fraction_text` (or
    ``str``) wrote, at any size."""
    match = _FRACTION_TEXT.fullmatch(text)
    if match is None:
        raise ValueError(f"not a fraction: {text[:40]!r}")
    numerator, denominator = match.groups()
    return Fraction(
        int(Decimal(numerator)), int(Decimal(denominator or "1"))
    )


def _answer_payload(answer) -> dict:
    rational = answer.rational
    return {
        "value": answer.value,
        "method": answer.method,
        "exact": answer.exact,
        "rational": (
            fraction_text(rational) if rational is not None else None
        ),
        "degradations": list(answer.degradations),
        "retries": answer.retries,
    }


def restore_answer(payload: dict):
    """Rebuild the :class:`~repro.core.estimator.PQEAnswer` an answer
    record holds."""
    from repro.core.estimator import PQEAnswer

    rational = payload.get("rational")
    return PQEAnswer(
        value=payload["value"],
        method=payload["method"],
        exact=payload["exact"],
        rational=parse_fraction(rational) if rational is not None else None,
        degradations=tuple(payload.get("degradations", ())),
        retries=payload.get("retries", 0),
    )


def _error_payload(error) -> dict:
    return {
        "exception": error.exception,
        "message": error.message,
        "phase": error.phase,
        "elapsed": error.elapsed,
        "retries": error.retries,
        "degradations": list(error.degradations),
    }


class BatchJournal(RecordLog):
    """One batch's write-ahead journal, open for appending."""

    def write_header(self, fingerprint: str, seed, items: int) -> None:
        self._append(
            {
                "type": "header",
                "version": JOURNAL_VERSION,
                "fingerprint": fingerprint,
                "seed": seed,
                "items": items,
            }
        )

    def record_item(self, result, counters: dict | None = None) -> None:
        """Append one settled :class:`BatchItemResult` (success or
        structured error)."""
        record = {
            "type": "item",
            "index": result.index,
            "ok": result.ok,
            "seed": result.seed,
            "elapsed": result.elapsed,
            "retries": result.retries,
            "counters": counters,
        }
        if result.ok:
            record["answer"] = _answer_payload(result.answer)
        else:
            record["error"] = _error_payload(result.error)
        self._append(record)


class RequestJournal(RecordLog):
    """The serve daemon's write-ahead request log.

    Unlike a :class:`BatchJournal` — bound to one finite batch with
    integer indexes — a request journal is open-ended: records are
    keyed by the request's content digest (query/database
    ``cache_token``, task, method, seed), appended as requests settle,
    and replayed by :func:`load_request_journal` when the daemon
    restarts.  Only **full-fidelity** answers are recorded (rung 0, no
    degradations): a load-shed answer is correct for its *widened* ε
    but must not be replayed to a future unloaded request.  The header
    fingerprint binds the journal to the serving engine's configuration,
    the same way a batch fingerprint binds to a batch.
    """

    def write_serve_header(self, fingerprint: str) -> None:
        self._append(
            {
                "type": "serve-header",
                "version": JOURNAL_VERSION,
                "fingerprint": fingerprint,
            }
        )

    def record_request(
        self,
        key: str,
        answer,
        *,
        seed: int | None,
        elapsed: float,
        deps: dict | None = None,
    ) -> None:
        """Append one settled full-fidelity response.

        ``deps`` records the answer's data dependencies — the relations
        the query read and the database's projection token over them —
        so that after a delta the replay path can re-check eligibility
        per record instead of discarding the whole journal (records
        whose relations were untouched replay bitwise on the new
        version; see ``docs/incremental.md``).
        """
        record = {
            "type": "request",
            "key": key,
            "seed": seed,
            "elapsed": elapsed,
            "answer": _answer_payload(answer),
        }
        if deps is not None:
            record["deps"] = deps
        self._append(record)


@dataclass
class LoadedRequestJournal:
    """The verified prefix of a serve request journal."""

    header: dict | None
    requests: dict[str, dict]
    quarantined: int

    def __len__(self) -> int:
        return len(self.requests)

    def deps(self, key: str) -> dict | None:
        """The recorded data dependencies for ``key`` (``None`` for
        records written before deps tracking existed)."""
        return self.requests[key].get("deps")


def _valid_request_record(record: dict, _accepted) -> bool:
    kind = record.get("type")
    if kind == "serve-header":
        return record.get("version") == JOURNAL_VERSION
    return (
        kind == "request"
        and isinstance(record.get("key"), str)
        and "answer" in record
    )


def load_request_journal(path: str | Path) -> LoadedRequestJournal:
    """Read a serve request journal, keeping the longest valid prefix
    (see :func:`read_records`).  The latest verified record for a key
    wins."""
    records, quarantined = read_records(
        path, _valid_request_record, "request journal"
    )
    return LoadedRequestJournal(
        _header(records, "serve-header"),
        {r["key"]: r for r in records if r["type"] == "request"},
        quarantined,
    )


@dataclass
class LoadedJournal:
    """The verified prefix of a journal file.

    ``header`` is the header record (``None`` for an empty/absent
    file); ``items`` maps item index to its **latest** verified item
    record (a resumed run re-records items it recomputes, and the newer
    record wins); ``quarantined`` counts discarded lines.
    """

    header: dict | None
    items: dict[int, dict]
    quarantined: int

    def completed(self) -> dict[int, dict]:
        """Index → record for items that completed successfully.  Only
        these are replayed: error records (a crashed worker, an
        exhausted budget) are recomputed on resume — that is the point
        of resuming."""
        return {
            index: record
            for index, record in self.items.items()
            if record["ok"]
        }

    def restore_result(self, index: int):
        """Rebuild the :class:`BatchItemResult` for a completed item."""
        from repro.core.parallel import BatchItemResult

        record = self.items[index]
        return BatchItemResult(
            index=index,
            answer=restore_answer(record["answer"]),
            seed=record["seed"],
            elapsed=record["elapsed"],
            retries=record["retries"],
            replayed=True,
        )

    def counters(self, index: int) -> dict | None:
        return self.items[index].get("counters")


def _valid_batch_record(record: dict, _accepted) -> bool:
    kind = record.get("type")
    if kind == "header":
        return record.get("version") == JOURNAL_VERSION
    return (
        kind == "item"
        and isinstance(record.get("index"), int)
        and ("answer" if record.get("ok") else "error") in record
    )


def load_journal(path: str | Path) -> LoadedJournal:
    """Read a batch journal, keeping the longest valid prefix.

    A structurally invalid line — unparseable JSON, a failed checksum,
    an unknown record type, a missing field — quarantines that line
    and everything after it (see :func:`read_records`).  Missing files
    load as empty journals.
    """
    records, quarantined = read_records(path, _valid_batch_record)
    return LoadedJournal(
        _header(records, "header"),
        {r["index"]: r for r in records if r["type"] == "item"},
        quarantined,
    )
