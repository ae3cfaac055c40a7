"""Chaos tier (``-m chaos``): kill workers and corrupt durable state.

The acceptance scenarios for the crash-safety layer:

- a 16-item batch whose worker is ``SIGKILL``ed mid-run, then resumed
  from its journal, yields a :class:`BatchResult` bitwise-identical —
  answers, seeds, merged replay-stable deterministic counters — to an
  uninterrupted run, at workers 1 and 4;
- a drain (the CLI's SIGTERM handler) stops admission at workers 1, 2
  and 4, and a resume finishes the batch bitwise;
- a bit-flipped disk-cache record and a torn journal tail are
  quarantined with a warning: never an exception, never a wrong
  probability.

When ``CHAOS_ARTIFACT_DIR`` is set (the CI chaos job), the recovered
journal from the CLI scenario is copied there for artifact upload.
"""

import json
import multiprocessing
import os
import shutil
import warnings

import pytest

from repro.cli import main
from repro.core.cache import ReductionCache
from repro.core.diskcache import DiskCache, DiskCacheWarning
from repro.core.estimator import PQEEngine
from repro.core.journal import JournalWarning, load_journal
from repro.core.parallel import BatchItem
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.testing.faults import (
    FaultSpec,
    flip_bit,
    inject_faults,
    truncate_tail,
)

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="chaos scenarios need fork-based process isolation",
    ),
]

#: The item the fault plan kills the worker on.  Every item owns a
#: distinct database, so each one performs its own ``counting.nfta``
#: build and the scoped crash site reliably fires mid-batch.
CRASH_INDEX = 3


def _sixteen_items(rs_query):
    items = []
    for shift in range(16):
        labels = {}
        for i in range(3):
            labels[Fact("R", (f"a{i + shift}", f"b{i}"))] = "1/2"
            labels[Fact("S", (f"b{i}", f"c{i}"))] = "2/3"
        items.append(
            BatchItem(rs_query, ProbabilisticDatabase(labels),
                      method="fpras")
        )
    return items


def _identity_surface(batch):
    """The parts of a BatchResult covered by the resume-identity
    contract: answers (value/method/exactness/rational), seeds, and the
    merged replay-stable deterministic counters."""
    answers = tuple(
        (
            result.answer.value,
            result.answer.method,
            result.answer.exact,
            result.answer.rational,
        )
        for result in batch.results
    )
    seeds = tuple(result.seed for result in batch.results)
    counters = (
        batch.telemetry.metrics.replay_stable_counters()
        if batch.telemetry is not None
        else None
    )
    return answers, seeds, counters


def _export_artifact(path):
    artifact_dir = os.environ.get("CHAOS_ARTIFACT_DIR")
    if artifact_dir:
        os.makedirs(artifact_dir, exist_ok=True)
        shutil.copy(path, artifact_dir)


class TestSigkillResumeIdentity:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_sigkilled_batch_resumes_bitwise_identical(
        self, rs_query, tmp_path, workers
    ):
        items = _sixteen_items(rs_query)
        engine = PQEEngine(seed=2023)
        journal = tmp_path / f"batch-w{workers}.wal"

        uninterrupted = engine.evaluate_batch(
            items, seed=2023, max_workers=workers, telemetry=True
        )

        with inject_faults(
            FaultSpec("counting.nfta", scope=CRASH_INDEX, crash="sigkill")
        ):
            crashed = engine.evaluate_batch(
                items, seed=2023, max_workers=workers,
                isolation="process", on_error="skip",
                journal=journal, telemetry=True,
            )
        assert not crashed.results[CRASH_INDEX].ok
        assert (
            crashed.results[CRASH_INDEX].error.exception
            == "WorkerCrashError"
        )
        survivors = len(crashed.succeeded)
        assert survivors == len(items) - 1

        resumed = engine.resume_batch(
            items, seed=2023, max_workers=workers, journal=journal,
            telemetry=True,
        )
        assert resumed.ok
        assert sum(r.replayed for r in resumed.results) == survivors
        assert _identity_surface(resumed) == _identity_surface(
            uninterrupted
        )

    def test_resume_identity_across_worker_counts(
        self, rs_query, tmp_path
    ):
        # Crash at workers 4, resume at workers 1: the journal carries
        # no scheduling, so even the backend/width may change between
        # the crash and the resume.
        items = _sixteen_items(rs_query)
        engine = PQEEngine(seed=2023)
        journal = tmp_path / "cross.wal"
        uninterrupted = engine.evaluate_batch(
            items, seed=2023, max_workers=1, telemetry=True
        )
        with inject_faults(
            FaultSpec("counting.nfta", scope=CRASH_INDEX, crash="sigkill")
        ):
            engine.evaluate_batch(
                items, seed=2023, max_workers=4, isolation="process",
                on_error="skip", journal=journal, telemetry=True,
            )
        resumed = engine.resume_batch(
            items, seed=2023, max_workers=1, journal=journal,
            telemetry=True,
        )
        assert _identity_surface(resumed) == _identity_surface(
            uninterrupted
        )


CSV = "relation,probability,constant1,constant2\n" + "".join(
    f"R,1/2,a{i},b{i}\nS,2/3,b{i},c{i}\n" for i in range(3)
)

BATCH = json.dumps(
    [{"query": "Q :- R(x, y), S(y, z)", "method": "fpras"}] * 4
)


class TestCliResume:
    def test_crash_journal_resume_via_cli_flags(self, tmp_path, capsys):
        data = tmp_path / "facts.csv"
        data.write_text(CSV)
        batch = tmp_path / "batch.json"
        batch.write_text(BATCH)
        journal = tmp_path / "cli.wal"

        base_args = [
            "eval", "--data", str(data), "--batch", str(batch),
            "--seed", "7", "--workers", "2",
        ]
        assert main(base_args) == 0
        clean_rows = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[")
        ]

        # All four CLI items share one database, so only the first
        # build reaches the fault site: crash the worker there.
        with inject_faults(
            FaultSpec("counting.nfta", scope=0, crash="sigkill")
        ):
            code = main(
                base_args
                + ["--isolation", "process", "--on-error", "skip",
                   "--journal", str(journal)]
            )
        assert code == 3  # EXIT_PARTIAL: the crashed item failed
        assert "WorkerCrashError" in capsys.readouterr().out

        code = main(base_args + ["--journal", str(journal), "--resume"])
        assert code == 0
        out = capsys.readouterr().out
        resumed_rows = [
            line for line in out.splitlines() if line.startswith("[")
        ]
        assert resumed_rows == clean_rows
        assert "resumed:" in out
        _export_artifact(journal)


CHILD_SCRIPT = """\
import sys

from repro.cli import main
from repro.testing.faults import FaultSpec, inject_faults

# Every item stalls at its first pipeline phase, long enough for the
# parent's SIGTERM to land while the batch is mid-flight.
with inject_faults(
    FaultSpec("decomposition.search", stall=1.5),
    FaultSpec("lineage.build", stall=1.5),
):
    sys.exit(main(sys.argv[1:]))
"""


class TestSigtermBatchDrain:
    """SIGTERM mid-batch drains: every admitted item settles and is
    journalled, the process exits EXIT_DRAINED, and ``--resume``
    finishes the batch bitwise-identically to an uninterrupted run."""

    def test_sigterm_drains_and_resume_is_bitwise_identical(
        self, tmp_path
    ):
        self._sigterm_scenario(tmp_path, workers=1)

    def test_sigterm_drains_at_two_workers(self, tmp_path):
        # Both workers take an item, every item stalls, and the SIGTERM
        # lands inside the first two: the batch stops after them.
        drained_rows = self._sigterm_scenario(tmp_path, workers=2)
        assert len(drained_rows) == 2

    def _sigterm_scenario(self, tmp_path, workers: int) -> list[str]:
        import repro
        import signal
        import subprocess
        import sys as _sys
        import time
        from pathlib import Path

        data = tmp_path / "facts.csv"
        # The non-hierarchical triad: its fpras route runs the full
        # decomposition chain, so the stall sites reliably fire.
        data.write_text(
            "relation,probability,constant1,constant2\n"
            "R,1/2,a\nR,1/3,b\nS,1/2,a,b\nS,2/3,b,c\nT,1/2,b\nT,1/3,c\n"
        )
        batch = tmp_path / "batch.json"
        # Default (auto) method: small instances resolve through the
        # lineage path, so the ``lineage.build`` stall site fires.
        batch.write_text(json.dumps(
            ["Q :- R(x), S(x, y), T(y)"] * 6
        ))
        journal = tmp_path / "drain.wal"
        base_args = [
            "--data", str(data), "--batch", str(batch),
            "--seed", "7", "--workers", str(workers),
        ]

        # Reference: the same batch, uninterrupted and unstalled.
        clean = subprocess.run(
            [_sys.executable, "-m", "repro", "eval", *base_args],
            capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        assert clean.returncode == 0
        clean_rows = [
            line for line in clean.stdout.splitlines()
            if line.startswith("[")
        ]
        assert len(clean_rows) == 6

        # Chaos run: stalled items, SIGTERM mid-batch.
        script = tmp_path / "child.py"
        script.write_text(CHILD_SCRIPT)
        child = subprocess.Popen(
            [_sys.executable, str(script), *base_args,
             "--journal", str(journal)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ,
                 "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        time.sleep(1.0)  # inside the first items' 1.5s stall
        child.send_signal(signal.SIGTERM)
        out, err = child.communicate(timeout=60)
        assert child.returncode == 5, (out, err)  # EXIT_DRAINED
        assert "drained:" in err
        assert "--resume" in out
        drained_rows = [
            line for line in out.splitlines() if line.startswith("[")
        ]
        # At least one item settled, at least one was never admitted.
        assert 1 <= len(drained_rows) < 6
        # Every settled row already matches the uninterrupted run.
        assert drained_rows == clean_rows[:len(drained_rows)]

        # Resume: the drained journal finishes the batch bitwise.
        code = main(base_args + ["--journal", str(journal), "--resume"])
        assert code == 0
        _export_artifact(journal)
        return drained_rows

    @pytest.mark.parametrize(
        "workers, isolation",
        [pytest.param(width, "thread", id=str(width)) for width in (1, 2, 4)]
        + [
            pytest.param(width, "process", id=f"process-{width}")
            for width in (1, 2, 4)
        ],
    )
    def test_drain_stops_admission_at_every_width(
        self, rs_query, tmp_path, workers, isolation
    ):
        import threading

        from repro.core.parallel import (
            BatchDrainedError,
            clear_drain,
            request_drain,
        )

        items = _sixteen_items(rs_query)[:8]
        engine = PQEEngine(seed=2023)
        journal = tmp_path / f"drain-w{workers}.wal"
        clean = engine.evaluate_batch(
            items, seed=2023, max_workers=workers, telemetry=True
        )

        # Every item stalls 0.5 s; the drain lands inside the first
        # ones, so each worker settles the item it took and stops.
        timer = threading.Timer(0.25, request_drain)
        with inject_faults(FaultSpec("counting.nfta", stall=0.5, times=1)):
            timer.start()
            try:
                with pytest.raises(BatchDrainedError) as info:
                    engine.evaluate_batch(
                        items, seed=2023, max_workers=workers,
                        journal=journal, telemetry=True,
                        isolation=isolation,
                    )
            finally:
                timer.cancel()
                clear_drain()
        drained = info.value
        assert drained.remaining == tuple(range(workers, len(items)))
        assert [r.index for r in drained.result.results] == list(
            range(workers)
        )

        resumed = engine.resume_batch(
            items, seed=2023, max_workers=workers, journal=journal,
            telemetry=True, isolation=isolation,
        )
        assert sum(r.replayed for r in resumed.results) == workers
        assert _identity_surface(resumed) == _identity_surface(clean)

    def test_resume_rows_match_clean_run(self, tmp_path, capsys):
        # In-process half of the scenario above: drain via the global
        # drain event (what the SIGTERM handler calls), then resume.
        from repro.core.parallel import clear_drain, request_drain
        import threading

        data = tmp_path / "facts.csv"
        data.write_text(CSV)
        batch = tmp_path / "batch.json"
        batch.write_text(BATCH)
        journal = tmp_path / "inproc.wal"
        base_args = [
            "--data", str(data), "--batch", str(batch),
            "--seed", "7", "--workers", "1",
        ]
        assert main(base_args) == 0
        clean_rows = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[")
        ]

        with inject_faults(
            FaultSpec("counting.nfta", scope=0, stall=1.0)
        ):
            timer = threading.Timer(0.3, request_drain)
            timer.start()
            try:
                code = main(
                    base_args + ["--journal", str(journal)]
                )
            finally:
                timer.cancel()
        assert code == 5  # EXIT_DRAINED
        drained = capsys.readouterr()
        drained_rows = [
            line for line in drained.out.splitlines()
            if line.startswith("[")
        ]
        assert 1 <= len(drained_rows) < 4

        # A real resume runs in a fresh process, which starts with the
        # drain flag clear; mirror that for the in-process resume.
        clear_drain()
        code = main(base_args + ["--journal", str(journal), "--resume"])
        assert code == 0
        resumed_rows = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[")
        ]
        assert resumed_rows == clean_rows


class TestDurableStateCorruption:
    def test_bit_flipped_disk_cache_record_never_wrong(
        self, rs_query, tmp_path
    ):
        items = _sixteen_items(rs_query)[:6]
        engine = PQEEngine(seed=9)
        clean = engine.evaluate_batch(items, seed=9)

        disk = DiskCache(tmp_path / "cache")
        engine.evaluate_batch(
            items, seed=9, cache=ReductionCache(disk=disk)
        )
        records = sorted(disk.path.glob("*.rpdc"))
        assert records
        for record in records:
            flip_bit(record, offset=-1, bit=2)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rerun = engine.evaluate_batch(
                items, seed=9, cache=ReductionCache(disk=disk)
            )
        assert any(
            issubclass(w.category, DiskCacheWarning) for w in caught
        )
        assert rerun.values == clean.values  # rebuilt, never served
        assert disk.quarantined()

    def test_torn_journal_tail_never_wrong(self, rs_query, tmp_path):
        items = _sixteen_items(rs_query)[:6]
        engine = PQEEngine(seed=9)
        journal = tmp_path / "torn.wal"
        clean = engine.evaluate_batch(
            items, seed=9, journal=journal, telemetry=True
        )
        truncate_tail(journal, drop_bytes=40)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resumed = engine.resume_batch(
                items, seed=9, journal=journal, telemetry=True
            )
        assert any(
            issubclass(w.category, JournalWarning) for w in caught
        )
        assert _identity_surface(resumed) == _identity_surface(clean)

    def test_doubly_damaged_journal_still_loads_prefix(
        self, rs_query, tmp_path
    ):
        items = _sixteen_items(rs_query)[:6]
        engine = PQEEngine(seed=9)
        journal = tmp_path / "mangled.wal"
        clean = engine.evaluate_batch(items, seed=9, journal=journal)
        # A torn tail *and* a flipped bit in the middle: the loader
        # keeps whatever verified prefix remains.
        truncate_tail(journal, drop_bytes=20)
        flip_bit(journal, offset=len(journal.read_bytes()) // 2, bit=5)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            loaded = load_journal(journal)
            resumed = engine.resume_batch(items, seed=9, journal=journal)
        assert loaded.quarantined >= 1
        assert resumed.values == clean.values
