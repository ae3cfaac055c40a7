"""Serialisation: probabilistic databases and queries to/from files.

Two on-disk formats are supported for probabilistic databases:

- **CSV** (``relation,probability,constant1,...``) — the CLI's native
  format, see :mod:`repro.cli`;
- **JSON** — structured, round-trip safe, with probabilities stored as
  exact ``"numerator/denominator"`` strings::

      {
        "facts": [
          {"relation": "R", "constants": ["a", "b"], "probability": "1/2"},
          ...
        ]
      }

Constants are serialised as strings in both formats (the JSON loader
returns them as strings; callers with typed constants should map them
back themselves).  Queries serialise to/from their standard textual
form via :func:`repro.queries.parser.parse_query` / ``str``.

Load-path hardening: a malformed, truncated or wrong-schema input
raises :class:`~repro.errors.ContextualError` naming the *source*
(the file path, or the stream's ``name``) and the offending record
(``facts[3]``, a line number), so an operator pointed at a broken
fixture learns which file and which record to fix — not just that
"JSON was invalid" somewhere.  Corruption of *durable evaluation
state* (journals, disk-cache records) is handled differently — it is
quarantined, never raised; see ``docs/durability.md``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import TextIO

from repro.db.fact import Fact, fact_from_json
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import ContextualError, ParseError, ReproError, SchemaError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_query

__all__ = [
    "dump_pdb_json",
    "load_pdb_json",
    "dump_pdb_csv",
    "load_pdb_csv",
    "dump_query",
    "load_query",
    "save_pdb",
    "load_pdb",
]


def _source_name(stream, source: str | None) -> str:
    """The name load errors report: an explicit source, the stream's
    file name, or a placeholder for anonymous buffers."""
    if source is not None:
        return source
    name = getattr(stream, "name", None)
    return name if isinstance(name, str) else "<stream>"


def _checked_probability(value, source: str, record: str):
    """Validate a probability annotation where it was read, so the
    error names the record instead of surfacing later from the
    database constructor with no provenance."""
    try:
        Fraction(str(value))
    except (ValueError, ZeroDivisionError, TypeError) as failure:
        raise ContextualError(
            f"{source}: {record} has invalid probability {value!r} "
            f"(expected a rational like '1/2')",
            phase="io.load",
        ) from failure
    return value


def dump_pdb_json(pdb: ProbabilisticDatabase, stream: TextIO) -> None:
    """Write a probabilistic database as JSON (exact probabilities)."""
    payload = {
        "facts": [
            {
                "relation": fact.relation,
                "constants": [str(c) for c in fact.constants],
                "probability": str(pdb.probability(fact)),
            }
            for fact in pdb
        ]
    }
    json.dump(payload, stream, indent=2, ensure_ascii=False)


def load_pdb_json(
    stream: TextIO, source: str | None = None
) -> ProbabilisticDatabase:
    """Read a probabilistic database from JSON.

    Every failure names ``source`` (defaulting to the stream's file
    name) and the offending record, as a
    :class:`~repro.errors.ContextualError`.
    """
    name = _source_name(stream, source)
    try:
        payload = json.load(stream)
    except json.JSONDecodeError as failure:
        raise ContextualError(
            f"{name}: invalid or truncated JSON at line "
            f"{failure.lineno}, column {failure.colno}: {failure.msg}",
            phase="io.load",
        ) from failure
    if not isinstance(payload, dict) or "facts" not in payload:
        raise ContextualError(
            f'{name}: expected an object with a "facts" array, got '
            f"{type(payload).__name__}",
            phase="io.load",
        )
    if not isinstance(payload["facts"], list):
        raise ContextualError(
            f'{name}: "facts" must be an array, got '
            f"{type(payload['facts']).__name__}",
            phase="io.load",
        )
    labels: dict[Fact, str] = {}
    for index, entry in enumerate(payload["facts"]):
        record = f"facts[{index}]"
        if not isinstance(entry, dict):
            raise ContextualError(
                f"{name}: {record} must be an object, got {entry!r}",
                phase="io.load",
            )
        missing = {"relation", "constants", "probability"} - set(entry)
        if missing:
            raise ContextualError(
                f"{name}: {record} is missing {sorted(missing)}: "
                f"{entry!r}",
                phase="io.load",
            )
        try:
            fact = fact_from_json(entry["relation"], entry["constants"])
        except SchemaError as failure:
            raise ContextualError(
                f"{name}: {record} {failure}", phase="io.load"
            ) from failure
        if fact in labels:
            raise ContextualError(
                f"{name}: {record} duplicates fact {fact}",
                phase="io.load",
            )
        labels[fact] = _checked_probability(
            entry["probability"], name, record
        )
    if not labels:
        raise ContextualError(
            f"{name}: no facts in JSON input", phase="io.load"
        )
    return ProbabilisticDatabase(labels)


def dump_pdb_csv(pdb: ProbabilisticDatabase, stream: TextIO) -> None:
    """Write the CLI's CSV format (header + one fact per line)."""
    stream.write("relation,probability,constants...\n")
    for fact in pdb:
        constants = ",".join(str(c) for c in fact.constants)
        stream.write(
            f"{fact.relation},{pdb.probability(fact)},{constants}\n"
        )


def load_pdb_csv(
    stream: TextIO, source: str | None = None
) -> ProbabilisticDatabase:
    """Read the CLI's CSV format (delegates to :mod:`repro.cli`)."""
    from repro.cli import load_facts_csv

    return load_facts_csv(stream, source=_source_name(stream, source))


def dump_query(query: ConjunctiveQuery, stream: TextIO) -> None:
    """Write a query in its standard textual form."""
    stream.write(str(query) + "\n")


def load_query(
    stream: TextIO, source: str | None = None
) -> ConjunctiveQuery:
    """Read a query from its textual form; parse failures name the
    source file."""
    name = _source_name(stream, source)
    text = stream.read()
    if not text.strip():
        raise ContextualError(
            f"{name}: query file is empty", phase="io.load"
        )
    try:
        return parse_query(text)
    except ParseError as failure:
        raise ParseError(f"{name}: {failure}") from failure


def save_pdb(pdb: ProbabilisticDatabase, path: str | Path) -> None:
    """Save to a path; format chosen by extension (.json or .csv)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as stream:
        if path.suffix == ".json":
            dump_pdb_json(pdb, stream)
        elif path.suffix == ".csv":
            dump_pdb_csv(pdb, stream)
        else:
            raise ReproError(
                f"unknown extension {path.suffix!r}; use .json or .csv"
            )


def load_pdb(path: str | Path) -> ProbabilisticDatabase:
    """Load from a path; format chosen by extension (.json or .csv)."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as stream:
        if path.suffix == ".json":
            return load_pdb_json(stream, source=str(path))
        if path.suffix == ".csv":
            return load_pdb_csv(stream, source=str(path))
        raise ReproError(
            f"unknown extension {path.suffix!r}; use .json or .csv"
        )
