"""Lint: one memo store and one durable-write path in ``src/repro/``.

The package has one LRU with in-flight build dedup —
:class:`repro.core.cache.ReductionCache`, of which the kernel stores and
the lifted plan memo are instances — and one fsync'd append path for
its logs, :class:`repro.core.journal.RecordLog` (plus the durable
cache tier's atomic file writes in :mod:`repro.core.diskcache`).  A
hand-copied LRU or log elsewhere drifts from the original: its
counters, its eviction and its crash safety stop being the ones the
tests check.  So this test greps the source tree for the tell-tale
calls outside the modules that own them.
"""

from __future__ import annotations

import pathlib
import re

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

#: pattern → the source files (relative to ``src/repro``) allowed to
#: use it.
_OWNED = {
    # LRU eviction of the oldest entry.
    re.compile(r"\.popitem\(\s*last\s*=\s*False\s*\)"): {"core/cache.py"},
    # Forcing file contents to disk.
    re.compile(r"\bos\.fsync\s*\("): {"core/journal.py", "core/diskcache.py"},
}


def _violations() -> list[str]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            code = line.split("#", 1)[0]
            for pattern, owners in _OWNED.items():
                if name not in owners and pattern.search(code):
                    found.append(f"src/repro/{name}:{number}: {line.strip()}")
    return found


def test_owners_exist():
    for owners in _OWNED.values():
        for name in owners:
            assert (SRC / name).is_file(), name


def test_no_second_lru_or_fsync_path():
    violations = _violations()
    assert not violations, (
        "LRU eviction belongs to repro.core.cache.ReductionCache and "
        "fsync'd appends to repro.core.journal.RecordLog; build on "
        "them instead:\n" + "\n".join(violations)
    )
