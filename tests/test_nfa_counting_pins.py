"""Fixed-seed answers of CountNFA's sampled routes, pinned bit for bit.

The mask of accepting states a word carries decides every Karp–Luby
union's membership test in :func:`repro.automata.nfa_counting.count_nfa`,
so these tests pin each estimate (as ``float.hex``), exact flag, sample
count and draw on inputs where the unions sample:
``tests/golden/fpras.json`` pins one RPQ value, at the default cap.
They read only public entry points.
"""

from fractions import Fraction

import pytest

from repro.automata.nfa_counting import count_nfa, sample_accepted_strings
from repro.core.path_estimate import path_estimate, path_pqe_estimate
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.graphs.product import build_rpq_nfa, make_weight_of
from repro.graphs.rpq import RPQQuery
from repro.queries.builders import path_query
from repro.workloads import complete_layered_path_instance, grid_graph


def _grid_rpq(side: int):
    """The RPQ product NFA of ``(a|b)*`` corner to corner on a
    ``side × side`` grid (labels k/16), with its literal weights."""
    graph = grid_graph(side, side)
    corner = f"n{side - 1}_{side - 1}"
    reduction = build_rpq_nfa(graph, RPQQuery("(a|b)*", "n0_0", corner))
    return reduction, make_weight_of(graph)


#: ``count_nfa`` on the weighted ``(a|b)*`` RPQ corner to corner on a
#: ``side × side`` grid (ε = 0.4): (side, exact_set_cap) → for seeds 0,
#: 1 and 2, the estimate as ``float.hex``, ``exact`` and
#: ``samples_used``.
PINNED_COUNTS = {
    (3, 0): [
        ("0x1.2f9c887710fb8p+35", False, 900),
        ("0x1.3699a33892a5ap+35", False, 900),
        ("0x1.28fa89c58281ep+35", False, 900),
    ],
    (3, 64): [
        ("0x1.2ef39edb20000p+35", True, 0),
        ("0x1.2ef39edb20000p+35", True, 0),
        ("0x1.2ef39edb20000p+35", True, 0),
    ],
    (3, 4096): [
        ("0x1.2ef39edb20000p+35", True, 0),
        ("0x1.2ef39edb20000p+35", True, 0),
        ("0x1.2ef39edb20000p+35", True, 0),
    ],
    (4, 0): [
        ("0x1.dda8a0706cabep+73", False, 2750),
        ("0x1.ea0aa1bcfae52p+73", False, 2750),
        ("0x1.d702ff31d80dep+73", False, 2750),
    ],
    (4, 64): [
        ("0x1.ec59af7225094p+73", True, 0),
        ("0x1.ec59af7225094p+73", True, 0),
        ("0x1.ec59af7225094p+73", True, 0),
    ],
    (4, 4096): [
        ("0x1.ec59af7225094p+73", True, 0),
        ("0x1.ec59af7225094p+73", True, 0),
        ("0x1.ec59af7225094p+73", True, 0),
    ],
    (5, 0): [
        ("0x1.98b82492a7d68p+127", False, 6720),
        ("0x1.96d185d33b04ep+127", False, 6720),
        ("0x1.92d1f7d57da7cp+127", False, 6720),
    ],
    (5, 64): [
        ("0x1.b30a8a3d364adp+127", False, 6400),
        ("0x1.9ad0fd1121b20p+127", False, 6400),
        ("0x1.a8409c9f0fde2p+127", False, 6400),
    ],
    (5, 4096): [
        ("0x1.a907653372201p+127", False, 4800),
        ("0x1.a6831d5340bd2p+127", False, 4800),
        ("0x1.97a19504ed03bp+127", False, 4800),
    ],
}

#: 20 ``sample_accepted_strings`` draws (seed 3) from the weighted
#: RPQ on the 4 × 4 grid, per exact_set_cap: each word as its
#: literals' signs, one per edge in the word's order.
PINNED_DRAWS = {
    0: [
        "+++---++-+--++--+-+-+--+",
        "++-+--+--+--++-++-+++--+",
        "+-+---+++++-++-++-+-++-+",
        "-++-+-+-+++-+--++-+++--+",
        "-+-+-----+-+-+-++-+-++++",
        "-+++--++-+-+++----+-+--+",
        "-++--++--+---+--+-+-+--+",
        "+++---+-++--+++++-+-+--+",
        "-+-+---+-+--++--+-++---+",
        "++----++-+--+++-+-+-+--+",
        "-++--++--+--++-++-+++---",
        "-++--++--++--+--+-+-+--+",
        "-+++--+--+--++-+--+-+--+",
        "-++-+-++-++-++--+-+-+--+",
        "++-+--+---+-+---+-+-++-+",
        "-++--+++-+---++-+-+-+--+",
        "+++-+-+--+-+++-+--+-+---",
        "-+++--+--+--+++-+-+-+-++",
        "+++++-+-----+++-+-+-+-++",
        "-+-+--+--+--+++-+-+-+--+",
    ],
    64: [
        "-++--++------+--+-+-+--+",
        "++----++-++-++-++-+-+-++",
        "+++++-+---+-++-++-+-+-++",
        "++-+--+-+++-+++-+-++---+",
        "-++--++--+--++-++-+-++++",
        "-++-+-+--++-++-++-+-+-+-",
        "-++-+-------++++--+-++-+",
        "-+-+-++--++-+-+-+-+++---",
        "+++---++-+--+++-+-+-+-++",
        "-++-+-++-+--+++-+-+-+--+",
        "++---+-+-++--+-++-++---+",
        "-++--++-++--++-++---+--+",
        "++++--+--+--+++-+-+-+-++",
        "-++-+-++-+-++++-+---+-++",
        "-++-++++----++--+-+-+-++",
        "+--+--++++--++-+--++---+",
        "-++-+-++-+--+++-+-+-+--+",
        "-++-+-+--+--++-++-+-+--+",
        "+-+--+++-+--++--+-+-+--+",
        "++++--++--+-++--+-+-+-++",
    ],
}

#: Theorem 2's PathEstimate (``path_estimate``) and its weighted
#: extension (``path_pqe_estimate``, labels 1/4, 2/4, 3/4 dealt over
#: the sorted facts) for ``path_query(4)`` over the complete layered
#: instance of each width, seed 1, exact_set_cap 0: the estimate as
#: ``float.hex``, ``exact`` and ``samples_used``.
PINNED_PATHS = {
    ("path", 2): ("0x1.309815c75a1ddp+15", False, 11616),
    ("pqe", 2): ("0x1.44f15fc3eeb91p-1", False, 11616),
    ("path", 3): ("0x1.d167775738b2ep+35", False, 40508),
    ("pqe", 3): ("0x1.d27c4fe456026p-1", False, 40508),
}


class TestPinnedAnswers:
    """Each route's answers at fixed seeds, bit for bit."""

    @pytest.mark.parametrize("side", [3, 4, 5])
    @pytest.mark.parametrize("exact_set_cap", [0, 64, 4096])
    def test_rpq_counts(self, side, exact_set_cap):
        reduction, weight_of = _grid_rpq(side)
        answers = []
        for seed in (0, 1, 2):
            result = count_nfa(
                reduction.nfa, reduction.string_length, epsilon=0.4,
                seed=seed, exact_set_cap=exact_set_cap, weight_of=weight_of,
            )
            answers.append(
                (result.estimate.hex(), result.exact, result.samples_used)
            )
        assert answers == PINNED_COUNTS[side, exact_set_cap]

    @pytest.mark.parametrize("exact_set_cap", [0, 64])
    def test_rpq_draws(self, exact_set_cap):
        reduction, weight_of = _grid_rpq(4)
        words = sample_accepted_strings(
            reduction.nfa, reduction.string_length, 20, seed=3,
            exact_set_cap=exact_set_cap, weight_of=weight_of,
        )
        assert [
            "".join("+" if literal.positive else "-" for literal in word)
            for word in words
        ] == PINNED_DRAWS[exact_set_cap]

    @pytest.mark.parametrize("width", [2, 3])
    def test_path_estimates(self, width):
        instance = complete_layered_path_instance(4, width)
        facts = sorted(instance, key=Fact.sort_key)
        pdb = ProbabilisticDatabase({
            fact: Fraction(1 + index % 3, 4)
            for index, fact in enumerate(facts)
        })
        for kind, estimate in (
            ("path", path_estimate(
                path_query(4), instance, seed=1, exact_set_cap=0
            )),
            ("pqe", path_pqe_estimate(
                path_query(4), pdb, seed=1, exact_set_cap=0
            )),
        ):
            assert (
                estimate.estimate.hex(), estimate.exact,
                estimate.count_result.samples_used,
            ) == PINNED_PATHS[kind, width]
