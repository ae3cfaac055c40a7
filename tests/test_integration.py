"""End-to-end integration tests: the paper's headline claims in small.

These chain every subsystem — query parsing, decomposition, the
Proposition 1 / Theorem 1 reductions, the counting FPRAS, the lineage
baselines, and the engine — on scenarios drawn from the paper.
"""

import pytest

from repro import (
    PQEEngine,
    ProbabilisticDatabase,
    exact_probability,
    exact_uniform_reliability,
    parse_query,
    path_estimate,
    path_query,
    pqe_estimate,
    ur_estimate,
)
from repro.core.ur_reduction import build_ur_reduction
from repro.core.path_estimate import build_path_nfa
from repro.automata.nfta_counting import count_nfta_exact
from repro.lineage.build import lineage_clause_count
from repro.queries.properties import is_hierarchical
from repro.workloads.graphs import (
    complete_layered_path_instance,
    layered_path_instance,
)
from repro.workloads.instances import random_probabilities


class TestCorollary1Story:
    """The 3Path class: #P-hard in data complexity, easy to approximate."""

    def test_members_are_nonhierarchical_hence_sharp_p_hard(self):
        for i in range(3, 8):
            assert not is_hierarchical(path_query(i))

    def test_lineage_grows_with_query_length(self):
        # Θ(|D|^i) clauses on complete layered instances.
        counts = [
            lineage_clause_count(
                path_query(i), complete_layered_path_instance(i, 2)
            )
            for i in (2, 3, 4)
        ]
        assert counts == [8, 16, 32]  # 2^(i+1)

    def test_automaton_stays_polynomial(self):
        transitions = []
        for i in (2, 4, 6, 8):
            query = path_query(i)
            instance = complete_layered_path_instance(i, 2)
            reduction = build_path_nfa(query, instance)
            transitions.append(reduction.nfa.num_transitions)
        # Linear-ish in i here; definitely not doubling each step.
        ratios = [b / a for a, b in zip(transitions, transitions[1:])]
        assert all(r < 3 for r in ratios)

    def test_fpras_approximates_a_3path_member(self):
        query = path_query(3)
        instance = layered_path_instance(3, 2, 0.8, seed=13)
        truth = exact_uniform_reliability(query, instance, method="lineage")
        result = ur_estimate(
            query, instance, epsilon=0.2, seed=0, repetitions=3
        )
        assert abs(result.estimate - truth) / truth < 0.4


class TestWarmupVsGeneralConstruction:
    """Theorem 2's NFA and Proposition 1's NFTA must agree on paths."""

    @pytest.mark.parametrize("seed", range(4))
    def test_nfa_and_nfta_counts_agree(self, seed):
        query = path_query(2)
        instance = layered_path_instance(2, 2, 0.7, seed=seed)
        nfa_reduction = build_path_nfa(query, instance)
        nfa_count = nfa_reduction.nfa.count_exact(
            nfa_reduction.string_length
        )
        nfta_reduction = build_ur_reduction(query, instance)
        nfta_count = count_nfta_exact(
            nfta_reduction.nfta, nfta_reduction.tree_size
        )
        assert nfa_count == nfta_count


class TestFullPipeline:
    def test_quickstart_example(self):
        from repro import Fact

        q = parse_query("Q :- R1(x, y), R2(y, z), R3(z, w)")
        h = ProbabilisticDatabase(
            {
                Fact("R1", ("a", "b")): "1/2",
                Fact("R2", ("b", "c")): "2/3",
                Fact("R3", ("c", "d")): "3/4",
            }
        )
        result = pqe_estimate(q, h, epsilon=0.1, seed=0)
        assert result.estimate == pytest.approx(0.25, rel=0.2)

    def test_three_evaluators_agree_end_to_end(self):
        query = path_query(3)
        instance = layered_path_instance(3, 2, 0.6, seed=21)
        pdb = random_probabilities(instance, seed=22, max_denominator=4)
        truth = float(exact_probability(query, pdb, method="lineage"))
        automaton = pqe_estimate(query, pdb, method="exact-automaton")
        assert automaton.estimate == pytest.approx(truth, rel=1e-9)
        engine = PQEEngine(seed=3, epsilon=0.2, repetitions=3)
        fpras = engine.probability(query, pdb, method="fpras")
        assert fpras.value == pytest.approx(truth, rel=0.4, abs=0.02)

    def test_table1_row_consistency(self):
        """Safe and unsafe SJF rows produce consistent answers across
        their designated methods."""
        engine = PQEEngine(seed=0)

        # Row 1: bounded HW + SJF + safe: FP exactly AND FPRAS.
        from repro.queries.builders import star_query

        safe_q = star_query(2)
        instance = layered_path_instance(2, 2, 0.7, seed=30)
        pdb = random_probabilities(
            instance.project_to_query(safe_q), seed=31
        )
        if len(pdb) >= 2:
            safe_exact = engine.probability(safe_q, pdb, method="lifted")
            brute = engine.probability(safe_q, pdb, method="enumerate")
            assert safe_exact.rational == brute.rational

        # Row 2: bounded HW + SJF + unsafe: the paper's new FPRAS cell.
        unsafe_q = path_query(3)
        instance = layered_path_instance(3, 2, 0.7, seed=32)
        pdb = random_probabilities(instance, seed=33, max_denominator=3)
        truth = float(exact_probability(unsafe_q, pdb, method="lineage"))
        fpras = pqe_estimate(
            unsafe_q, pdb, epsilon=0.2, seed=34, repetitions=3
        )
        assert fpras.estimate == pytest.approx(truth, rel=0.4, abs=0.02)
