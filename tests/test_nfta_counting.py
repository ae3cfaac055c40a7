"""Tests for exact and approximate NFTA counting."""

import random
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.nfta import LAMBDA, NFTA
from repro.automata.nfa_counting import (
    _ExactConcat,
    _ExactNode,
    _ExactProduct,
    _ProductNode,
    _SumNode,
    weighted_index,
)
from repro.automata.nfta_counting import (
    _sampler,
    _TreeCounter,
    count_nfta,
    count_nfta_exact,
    sample_accepted_trees,
)
from repro.automata.trees import LabeledTree, leaf
from repro.errors import AutomatonError, EstimationError


def _catalan_automaton() -> NFTA:
    """Full binary trees over a single symbol: sizes 1, 3, 5, …

    The number of full binary trees with m internal nodes is the m-th
    Catalan number, giving closed-form ground truth.
    """
    return NFTA(
        [("q", "a", ()), ("q", "a", ("q", "q"))], initial="q"
    )


def _random_nfta(seed: int, states: int = 4) -> NFTA:
    rng = random.Random(seed)
    transitions = []
    names = [f"s{i}" for i in range(states)]
    for source in names:
        for symbol in "ab":
            if rng.random() < 0.6:
                transitions.append((source, symbol, ()))
            for arity in (1, 2):
                for _ in range(rng.randint(0, 2)):
                    children = tuple(
                        rng.choice(names) for _ in range(arity)
                    )
                    transitions.append((source, symbol, children))
    return NFTA(transitions, initial=names[0])


def _enumerate_trees(nfta: NFTA, size: int):
    """Brute-force enumeration of L_size (testing only)."""
    alphabet = sorted(nfta.alphabet, key=str)
    arities = sorted(
        {len(children) for _s, _a, children in nfta.transitions}
    )

    def gen(n):
        if n < 1:
            return
        for symbol in alphabet:
            if n == 1 and 0 in arities:
                yield leaf(symbol)
            for arity in arities:
                if arity == 0 or n - 1 < arity:
                    continue
                for split in _splits(n - 1, arity):
                    for children in _products(split):
                        yield LabeledTree(symbol, children)

    def _splits(total, k):
        if k == 1:
            yield (total,)
            return
        for first in range(1, total - k + 2):
            for rest in _splits(total - first, k - 1):
                yield (first,) + rest

    def _products(split):
        if not split:
            yield ()
            return
        for head in gen(split[0]):
            for tail in _products(split[1:]):
                yield (head,) + tail

    return [t for t in gen(size) if nfta.accepts(t)]


class TestExactCounting:
    def test_catalan_numbers(self):
        nfta = _catalan_automaton()
        catalan = [1, 1, 2, 5, 14, 42]
        for m, expected in enumerate(catalan):
            assert count_nfta_exact(nfta, 2 * m + 1) == expected
            if m >= 1:
                assert count_nfta_exact(nfta, 2 * m) == 0

    def test_zero_size(self):
        assert count_nfta_exact(_catalan_automaton(), 0) == 0

    def test_lambda_rejected(self):
        nfta = NFTA([("s", LAMBDA, ("t",)), ("t", "a", ())], initial="s")
        with pytest.raises(AutomatonError):
            count_nfta_exact(nfta, 1)

    def test_ambiguity_not_overcounted(self):
        # Two distinct run assignments accept the same tree a(a, a).
        nfta = NFTA(
            [
                ("s", "a", ("p", "r")),
                ("s", "a", ("p", "p")),
                ("p", "a", ()),
                ("r", "a", ()),
            ],
            initial="s",
        )
        assert count_nfta_exact(nfta, 3) == 1

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=15, deadline=None)
    def test_matches_enumeration(self, seed):
        nfta = _random_nfta(seed, states=3)
        for size in (1, 2, 3, 4):
            assert count_nfta_exact(nfta, size) == len(
                set(_enumerate_trees(nfta, size))
            )


class TestFPRAS:
    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=12, deadline=None)
    def test_hybrid_exact_on_small(self, seed):
        nfta = _random_nfta(seed, states=3)
        size = 5
        exact = count_nfta_exact(nfta, size)
        result = count_nfta(nfta, size, epsilon=0.5, seed=seed)
        if result.exact:
            assert result.estimate == exact

    @pytest.mark.parametrize("seed", range(6))
    def test_pure_sampling_accuracy(self, seed):
        nfta = _random_nfta(seed, states=3)
        size = 6
        exact = count_nfta_exact(nfta, size)
        result = count_nfta(
            nfta, size, epsilon=0.2, seed=seed, exact_set_cap=0,
            repetitions=3,
        )
        if exact == 0:
            assert result.estimate == 0
        else:
            assert abs(result.estimate - exact) / exact < 0.4

    def test_catalan_sampling(self):
        nfta = _catalan_automaton()
        size = 9  # 14 trees
        result = count_nfta(
            nfta, size, epsilon=0.2, seed=3, exact_set_cap=0
        )
        assert abs(result.estimate - 14) / 14 < 0.35

    def test_empty_language(self):
        nfta = NFTA([("q", "a", ("q",))], initial="q")
        result = count_nfta(nfta, 4, seed=0)
        assert result.estimate == 0

    def test_invalid_epsilon(self):
        with pytest.raises(EstimationError):
            count_nfta(_catalan_automaton(), 3, epsilon=0)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_rejects_sample_counts_below_one(self, samples):
        with pytest.raises(EstimationError, match="samples must be >= 1"):
            count_nfta(
                _catalan_automaton(), 9, seed=3, exact_set_cap=0,
                samples=samples,
            )

    def test_determinism(self):
        nfta = _random_nfta(2, states=3)
        a = count_nfta(nfta, 6, seed=9, exact_set_cap=0)
        b = count_nfta(nfta, 6, seed=9, exact_set_cap=0)
        assert a.estimate == b.estimate


class TestTreeSampling:
    def test_samples_accepted_and_sized(self):
        nfta = _catalan_automaton()
        trees = sample_accepted_trees(nfta, 7, k=15, seed=1)
        assert len(trees) == 15
        for tree in trees:
            assert tree.size == 7
            assert nfta.accepts(tree)

    def test_sampling_coverage(self):
        nfta = _catalan_automaton()
        # 5 full binary trees of size 7 (Catalan 3 = 5).
        trees = sample_accepted_trees(
            nfta, 7, k=200, seed=4, exact_set_cap=0
        )
        assert len(set(trees)) == 5

    def test_empty_language_raises(self):
        nfta = NFTA([("q", "a", ("q",))], initial="q")
        with pytest.raises(EstimationError):
            sample_accepted_trees(nfta, 3, k=5, seed=0)


@pytest.mark.parametrize("backend", ["reference", "optimized"])
@pytest.mark.parametrize("size", [0, -1, -2, -5])
class TestSizesBelowOne:
    """No tree has a size below 1: every such size behaves as 0 does."""

    def test_count_is_an_exact_zero(self, size, backend):
        result = count_nfta(_catalan_automaton(), size, seed=1,
                            backend=backend)
        assert (result.estimate, result.exact, result.samples_used) == (
            0, True, 0
        )

    def test_sampling_raises_an_estimation_error(self, size, backend):
        with pytest.raises(EstimationError):
            sample_accepted_trees(
                _catalan_automaton(), size, k=3, seed=1, backend=backend
            )


class TestWeightedCounting:
    def test_exact_weighted_leaf(self):
        nfta = NFTA([("q", "a", ()), ("q", "b", ())], initial="q")
        weights = {"a": 3, "b": 5}
        assert count_nfta_exact(nfta, 1, weight_of=weights.get) == 8

    def test_exact_weighted_chain_multiplies(self):
        nfta = NFTA(
            [("q", "a", ("r",)), ("r", "b", ())], initial="q"
        )
        weights = {"a": 2, "b": 7}
        assert count_nfta_exact(nfta, 2, weight_of=weights.get) == 14

    def test_zero_weight_prunes(self):
        nfta = NFTA([("q", "a", ()), ("q", "b", ())], initial="q")
        weights = {"a": 0, "b": 5}
        assert count_nfta_exact(nfta, 1, weight_of=weights.get) == 5

    def test_weighted_ambiguity_not_overcounted(self):
        nfta = NFTA(
            [
                ("s", "a", ("p", "r")),
                ("s", "a", ("p", "p")),
                ("p", "a", ()),
                ("r", "a", ()),
            ],
            initial="s",
        )
        # One distinct tree a(a,a) of weight 2^3.
        assert count_nfta_exact(
            nfta, 3, weight_of=lambda _s: 2
        ) == 8

    def test_fpras_weighted_matches_exact(self):
        nfta = _catalan_automaton()
        weights = {"a": 2}
        size = 7
        exact = count_nfta_exact(nfta, size, weight_of=weights.get)
        result = count_nfta(
            nfta, size, epsilon=0.2, seed=4, exact_set_cap=0,
            weight_of=weights.get, repetitions=3,
        )
        assert abs(result.estimate - exact) / exact < 0.35

    def test_fpras_weighted_hybrid_exact(self):
        nfta = _catalan_automaton()
        weights = {"a": 3}
        size = 5
        exact = count_nfta_exact(nfta, size, weight_of=weights.get)
        result = count_nfta(
            nfta, size, epsilon=0.3, seed=1, weight_of=weights.get
        )
        if result.exact:
            assert result.estimate == exact

    def test_weighted_sampling_proportional(self):
        # Two leaves with weights 1 and 9: draws should be ~10%/90%.
        nfta = NFTA([("q", "light", ()), ("q", "heavy", ())], initial="q")
        weights = {"light": 1, "heavy": 9}
        trees = sample_accepted_trees(
            nfta, 1, k=500, seed=2, weight_of=weights.get,
            exact_set_cap=16,
        )
        heavy = sum(1 for t in trees if t.label == "heavy")
        assert 0.8 < heavy / 500 < 0.97


class TestAdversarialAmbiguity:
    def test_m_identical_subtrees(self):
        # m states all deriving the full binary-tree language: groups at
        # the root contain m overlapping components.
        m = 5
        transitions = []
        names = [f"c{i}" for i in range(m)]
        for name in names:
            transitions.append((name, "a", ()))
            for left in names:
                for right in names:
                    transitions.append((name, "a", (left, right)))
        nfta = NFTA(transitions, initial=names[0])
        size = 5
        exact = count_nfta_exact(nfta, size)
        assert exact == 2  # Catalan(2): the two shapes of size 5
        # Identical overlapping components maximise pool correlation;
        # a generous envelope with median-of-5 still pins the ballpark.
        result = count_nfta(
            nfta, size, epsilon=0.1, seed=2, exact_set_cap=0,
            repetitions=5,
        )
        assert abs(result.estimate - exact) / exact < 0.6


def _product_weights(symbol_weight, children):
    """The weight rule of exact products: the symbol's weight times the
    children's weights, left to right."""
    weights = []
    for child_weights in product(*[c.member_weights() for c in children]):
        weight = symbol_weight
        for child_weight in child_weights:
            weight *= child_weight
        weights.append(weight)
    return tuple(weights)


class TestExactProducts:
    """Products held as recipes read like the tuples they replace."""

    @staticmethod
    def _store():
        _plan, new_store = _sampler(_catalan_automaton(), 3, "optimized")
        return new_store()

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize(
        "sizes", [(1,), (4,), (3, 1), (2, 5), (1, 3, 2), (3, 2, 4)]
    )
    def test_product_reads_like_the_materialised_one(self, sizes, weighted):
        rng = random.Random(len(sizes))
        store = self._store()
        children = []
        for at, size in enumerate(sizes):
            leaves = tuple(store.make(10 * at + i, ()) for i in range(size))
            weights = None
            if weighted:
                weights = tuple(rng.random() for _ in leaves)
            children.append(_ExactNode(leaves, weights))
        last = children[-1]
        if last.size > 1:
            # A recipe child: the last one as a concatenation.
            children[-1] = _ExactConcat(
                [
                    _ExactNode(
                        last.members[cut],
                        None if last.weights is None else last.weights[cut],
                    )
                    for cut in (slice(0, 1), slice(1, None))
                ],
                weighted,
            )
        weights = _product_weights(0.5, children) if weighted else None
        recipe = _ExactProduct(store, 3, children, weights)
        eager = _ExactNode(
            tuple(store.make_all(
                3, product(*[child.members for child in children])
            )),
            weights,
        )
        assert [recipe.member(i) for i in range(recipe.size)] == list(
            eager.members
        )
        assert recipe.members == eager.members
        assert recipe.members is recipe.members
        assert recipe.member_weights() == eager.member_weights()
        assert repr(recipe.count) == repr(eager.count)
        if weighted:
            assert recipe.count == list(accumulate(weights))[-1]

    def test_nested_product_resolves_by_index(self):
        store = self._store()
        inner = _ExactProduct(
            store, 1,
            [_ExactNode((store.make(7, ()), store.make(8, ()))),
             _ExactNode((store.make(9, ()),))],
            None,
        )
        outer = _ExactProduct(store, 2, [inner, inner], None)
        resolved = [outer.member(i) for i in range(outer.size)]
        assert resolved == list(store.make_all(
            2, product(inner.members, inner.members)
        ))

    def test_an_exact_product_never_read_interns_no_tree(self):
        # Catalan trees: one rule per group, so no dedup — every exact
        # product is only a recipe until a draw reads one tree.
        size = 9
        plan, new_store = _sampler(_catalan_automaton(), size, "optimized")
        store = new_store()
        counter = _TreeCounter(
            plan, store, size, 0.3, None, 4096, random.Random(1)
        )
        top = counter.top_node()
        assert top.exact and top.count == 14
        assert not store._nodes
        store.labeled(top.draw(random.Random(2)))
        # The drawn tree and its distinct subtrees, nothing else.
        assert 0 < len(store._nodes) <= size


def _recursive_draw(node, rng):
    """One ``draw`` call per link: the order the chain walk keeps."""
    if isinstance(node, _ProductNode):
        return node.store.make(node.symbol, tuple(
            [_recursive_draw(child, rng) for child in node.children]
        ))
    if isinstance(node, _SumNode):
        pick = rng.random() * node.count
        return _recursive_draw(
            node.parts[weighted_index(node.cumulative, pick)], rng
        )
    return node.draw(rng)


def _chain_automaton() -> NFTA:
    """Unary chains (two letters on ``s``, so sums between links) over
    leaves and binary nodes."""
    return NFTA(
        [
            ("s", "u", ("s",)), ("s", "v", ("s",)), ("s", "w", ("t",)),
            ("t", "u", ("t",)), ("t", "a", ()), ("s", "a", ()),
            ("s", "b", ("t", "s")), ("t", "c", ("s", "t")),
        ],
        initial="s",
    )


class TestChainWalk:
    @pytest.mark.parametrize("backend", ["reference", "optimized"])
    @pytest.mark.parametrize("exact_set_cap", [0, 3])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_walk_equals_the_recursion(
        self, backend, exact_set_cap, weighted
    ):
        nfta = _chain_automaton()
        size = 9
        weight_of = None
        if weighted:
            weight_of = {"u": 0.5, "v": 2.0, "w": 1.5, "a": 1.0,
                         "b": 0.25, "c": 3.0}.get
        plan, new_store = _sampler(nfta, size, backend)
        counter = _TreeCounter(
            plan, new_store(), size, 0.5, 30, exact_set_cap,
            random.Random(1), weight_of=weight_of,
        )
        values: list = []
        for cell in plan.cells:
            values.append(counter._compute(cell, values))
        parts = [
            part for v in values
            for part in (v.parts if isinstance(v, _SumNode) else [v])
        ]
        chains = [
            part for part in parts
            if isinstance(part, _ProductNode) and len(part.children) == 1
        ]
        assert chains
        for seed, node in enumerate(chains):
            walked, recursed = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert node.draw(walked) is _recursive_draw(node, recursed)
                assert walked.getstate() == recursed.getstate()

    @pytest.mark.parametrize("backend", ["reference", "optimized"])
    def test_make_chain_interns_like_make(self, backend):
        plan, new_store = _sampler(_chain_automaton(), 9, backend)
        symbols = [0, 1, 0, 2, 2]
        folded_store, chain_store = new_store(), new_store()

        def fold(store, tree):
            for symbol in reversed(symbols):
                tree = store.make(symbol, (tree,))
            return tree

        folded = fold(folded_store, folded_store.make(3, ()))
        chained = chain_store.make_chain(
            symbols, chain_store.make(3, ())
        )
        # The same id (or an equal tree), and as many trees interned.
        assert chained == folded
        assert chain_store.labeled(chained) == folded_store.labeled(folded)
        assert len(_interned(chain_store)) == len(_interned(folded_store))
        # Within one store: the same id or object, nothing new interned.
        count = len(_interned(folded_store))
        leaf = folded_store.make(3, ())
        again = folded_store.make_chain(symbols, leaf)
        assert again == folded
        if backend == "reference":
            assert again is folded
        assert len(_interned(folded_store)) == count
        assert folded_store.make_chain([], leaf) == leaf


def _interned(store):
    """What a tree store has interned."""
    return store._nodes if hasattr(store, "_nodes") else store._intern
