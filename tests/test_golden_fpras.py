"""Golden FPRAS answers: fixed-seed estimates pinned across commits.

``tests/golden/corpus.json`` pins exact rationals, and the differential
tier compares the kernel backends within one commit; neither notices
when a sampler change moves a fixed-seed estimate.
``tests/golden/fpras.json`` pins the fixed-seed answers of the
approximate routes — ``fpras``, ``fpras-weighted``, Karp–Luby,
Monte-Carlo, uniform reliability through CountNFTA, the RPQ CountNFA —
as ``float.hex`` strings, plus one ``sample_accepted_trees`` draw, over
a few inputs of the golden corpus.  Every kernel backend must reproduce
the file bit for bit, and so must an interpreter with another
string-hash seed: an answer may depend on the seed it is given and on
nothing else.

Refreshing after an *intentional* change to the samplers::

    PYTHONPATH=src python -m pytest tests/test_golden_fpras.py \
        --update-golden

rewrites ``fpras.json`` from the current implementation; review the
diff like any other code change.

Run as a script (``python tests/test_golden_fpras.py BACKEND``), the
module prints the answers as JSON; the hash-seed test runs it in two
interpreters.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from repro import PQEEngine
from repro.automata.nfta_counting import sample_accepted_trees
from repro.core.pqe_estimate import build_pqe_reduction
from repro.graphs import ProbabilisticGraph
from repro.workloads import grid_graph

from test_golden_corpus import _corpus_cases

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "fpras.json"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Golden-corpus inputs small enough for three backends, large enough
#: that an exact-set cap of 64 leaves every route sampling.
CASES = ("path3-a", "star2-b", "rs-b", "warehouse-119")
EXACT_SET_CAP = 64
SEED = 5

BACKENDS = ["reference", "optimized", "vectorized"]


def _answers(backend: str) -> dict:
    engine = PQEEngine(
        epsilon=0.3, seed=SEED, exact_set_cap=EXACT_SET_CAP,
        kernel_backend=backend,
    )
    answers: dict = {}
    cases = {name: rest for name, *rest in _corpus_cases()}
    for name in CASES:
        query, pdb, instance = cases[name]
        row = {
            method: engine.probability(query, pdb, method=method).value.hex()
            for method in ("fpras", "fpras-weighted", "karp-luby",
                           "monte-carlo")
        }
        row["ur"] = float(
            engine.uniform_reliability(query, instance, method="fpras").value
        ).hex()
        answers[name] = row

    # 5×5 is the smallest grid whose product automaton outgrows the
    # exact sweep and samples.
    grid = grid_graph(5, 5, seed=SEED)
    graph = ProbabilisticGraph({
        edge: Fraction(1 + index % 7, 8)
        for index, edge in enumerate(sorted(grid.edges, key=str))
    })
    answers["rpq-grid5"] = engine.rpq_probability(
        graph, "(a|b)*", "n0_0", "n4_4", method="fpras"
    ).value.hex()

    query, pdb, _instance = cases[CASES[0]]
    reduction = build_pqe_reduction(query, pdb)
    answers["trees"] = [
        str(tree)
        for tree in sample_accepted_trees(
            reduction.nfta, reduction.tree_size, k=3, seed=SEED,
            exact_set_cap=EXACT_SET_CAP, backend=backend,
        )
    ]
    return answers


def test_golden_file_written(update_golden):
    if update_golden:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(_answers("reference"), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
    assert GOLDEN_PATH.exists(), (
        "tests/golden/fpras.json is missing; generate it with "
        "pytest tests/test_golden_fpras.py --update-golden"
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_fpras_answers_match(backend):
    frozen = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert _answers(backend) == frozen, (
        f"fixed-seed answers on backend {backend!r} drifted from "
        "tests/golden/fpras.json; if the change is intentional, refresh "
        "with --update-golden and review the diff"
    )


def test_answers_do_not_depend_on_the_hash_seed():
    outputs = []
    for hash_seed in ("0", "1"):
        path = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, __file__, "optimized"],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
            capture_output=True, text=True, timeout=600,
        )
        assert completed.returncode == 0, completed.stderr[-3000:]
        outputs.append(json.loads(completed.stdout))
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    print(json.dumps(_answers(sys.argv[1])))
