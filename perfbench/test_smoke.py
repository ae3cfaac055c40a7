"""Smoke test of the benchmark: every workload at reduced size.

Run from the repository root::

    python -m pytest perfbench/test_smoke.py

Each workload runs with ``--smoke`` (small inputs) for two seconds,
untraced and traced; the test asserts the result line's shape, that
every declared metric is present with its declared unit, and that the
correctness checks ran and passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
# serve-mixed is not declared (its tails are not steady enough to
# gate on) but stays runnable, and its layers ride on exact-cold's
# traced run.
WORKLOADS = [w["name"] for w in DECLARED["workloads"]] + ["serve-mixed"]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 11):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "2",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [spec["name"] for spec in declared]
    for spec in declared:
        cell = result["metrics"][spec["name"]]
        assert cell["unit"] == spec["unit"], spec["name"]
        if not trace:
            assert cell["value"] > 0, spec["name"]


def test_cold_workloads_never_fail_an_op():
    for workload in ("fpras-cold", "exact-cold"):
        result = _result(_run(workload, 0))
        assert result["failed"] == 0, workload


def test_counters_repeat_across_runs_of_one_seed():
    _result(_run("exact-cold", 1, seed=12))
    again = _result(_run("exact-cold", 1, seed=12))
    assert again["metrics"]["counters.changed"]["value"] == 0


def test_checks_catch_a_perturbed_truth():
    sys.path.insert(0, str(ROOT))
    from perfbench.checks import answer_ok, catches_perturbation

    truth = Fraction(3, 7)
    assert answer_ok(float(truth), truth, truth, None)
    assert catches_perturbation(float(truth), truth, truth, None)
    estimate = float(truth) * 1.1
    assert answer_ok(estimate, None, truth, 0.25)
    assert catches_perturbation(estimate, None, truth, 0.25)


def test_fails_without_the_program():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = _run("fpras-cold", 0, cwd=bare)
        assert completed.returncode != 0
        assert '"metrics"' not in completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
