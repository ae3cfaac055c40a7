"""Statistics, run records and the result line.

Every run appends one JSON record to ``.perfbench/ledger.jsonl`` under
the repository root: the metrics, the deterministic work counters and
the environment (git sha, host, nproc, Python and numpy versions, the
kernel backend, the seed and the ``src/`` line count).  A traced run
compares its counters with the last record of the same workload, seed
and source digest, and reports how many differ as
``counters.changed``: the counters are exact, so any difference means
the program did different work on identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from fractions import Fraction
from pathlib import Path

__all__ = [
    "PROBE_REFERENCE_S",
    "ResultBuilder",
    "environment",
    "ledger_compare_and_append",
    "median",
    "peak_rss_mb",
    "probe",
    "quantile",
    "reset_peak_rss",
    "rss_of_pid_mb",
]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """Nearest-rank quantile ``q`` in [0, 1] of ``values`` (0 if empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


# ---------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------

#: The probe's time on the reference host in its fast state.  Probed
#: times are reported at this speed.
PROBE_REFERENCE_S = 0.0016


def probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The benchmark host's speed swings by up to 1.7x, in phases of a
    few seconds and in regimes of minutes (a fixed loop alternates
    between ~0.08 s and ~0.14 s).  Scaling an op's time by
    ``PROBE_REFERENCE_S / probe()`` measured around it cancels that
    swing to first order, because the probe is interpreter-bound work
    of the same kind as the program's: dict updates, Fraction
    arithmetic, a sort.
    """
    started = time.perf_counter()
    table: dict[int, int] = {}
    total = Fraction(0)
    for index in range(9000):
        key = index % 97
        table[key] = table.get(key, 0) + index
        if index % 50 == 0:
            total += Fraction(index + 1, key + 2)
    sorted(table.values())
    return time.perf_counter() - started


# ---------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------

def reset_peak_rss() -> None:
    """Reset this process's peak-RSS mark (Linux ``clear_refs`` 5), so
    the next :func:`peak_rss_mb` covers only what follows.  Where the
    kernel refuses, the mark keeps covering the whole process."""
    try:
        with open("/proc/self/clear_refs", "w") as stream:
            stream.write("5")
    except OSError:
        pass


def _status_kib(path: str, field: str) -> int | None:
    try:
        with open(path) as stream:
            for line in stream:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB."""
    kib = _status_kib("/proc/self/status", "VmHWM")
    if kib is None:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def rss_of_pid_mb(pid: int) -> float | None:
    """Peak resident set of process ``pid`` in MiB (None if unknown)."""
    kib = _status_kib(f"/proc/{pid}/status", "VmHWM")
    return None if kib is None else kib / 1024.0


# ---------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------

def _git_sha(root: Path) -> str:
    """HEAD's sha read from ``.git`` directly (no subprocess); the
    benchmark also runs in checkouts that are not git repositories."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_stats(root: Path) -> tuple[int, str]:
    """(line count, content digest) of every ``src/**/*.py`` file."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(root)).encode())
        digest.update(data)
    return lines, digest.hexdigest()[:16]


def environment(root: Path, backend: str) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    lines, digest = _source_stats(root)
    return {
        "git_sha": _git_sha(root),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": backend,
        "src_lines": lines,
        "src_digest": digest,
    }


# ---------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------

def ledger_compare_and_append(
    root: Path, record: dict, counters: dict | None
) -> int:
    """Append ``record`` to the ledger; return how many deterministic
    counters differ from the previous traced run of the same workload,
    seed, size and source digest (0 when there is none)."""
    ledger = root / ".perfbench" / "ledger.jsonl"
    ledger.parent.mkdir(parents=True, exist_ok=True)
    changed = 0
    if counters is not None and ledger.exists():
        previous = None
        with open(ledger, encoding="utf-8") as stream:
            for line in stream:
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if (
                    entry.get("counters") is not None
                    and all(
                        entry.get(key) == record.get(key)
                        for key in ("workload", "seed", "smoke")
                    )
                    and entry.get("env", {}).get("src_digest")
                    == record["env"]["src_digest"]
                ):
                    previous = entry["counters"]
        if previous is not None:
            names = set(previous) | set(counters)
            changed = sum(
                1 for name in names
                if previous.get(name) != counters.get(name)
            )
    record = dict(record, counters=counters)
    with open(ledger, "a", encoding="utf-8") as stream:
        stream.write(json.dumps(record, sort_keys=True) + "\n")
    return changed


# ---------------------------------------------------------------------
# The result line
# ---------------------------------------------------------------------

class ResultBuilder:
    """Collects metrics in declaration order and renders the result."""

    def __init__(self):
        self.metrics: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str) -> None:
        if name in self.metrics:
            raise ValueError(f"metric {name} recorded twice")
        if isinstance(value, float) and not math.isfinite(value):
            value = 0.0
        self.metrics[name] = {"value": value, "unit": unit}

    def line(self, *, correct: bool, attempted: int, failed: int) -> str:
        return json.dumps({
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": self.metrics,
        })
