"""Property-based (hypothesis) tests for the parser, the sampler, and
the kernel-optimization layer.

Three invariant families the example-based suites cannot exhaustively
cover:

- **Parser round-trip**: ``parse_query(str(q)) == q`` for arbitrary
  conjunctive queries, so the textual form is a faithful serialisation
  (the CLI batch format depends on this).
- **Tree decoding**: every tree sampled from the Proposition 1 /
  Theorem 1 automata decodes — via ``_decode_tree`` — into a
  subinstance that (a) only contains facts of the input database,
  (b) satisfies the query, and (c) never trips the duplicate-fact
  invariant that guards the reduction.
- **Automaton optimization**: over random NFTAs seeded with dead
  states, unreachable states, and duplicate transitions,
  :func:`repro.automata.optimize.optimize_nfta` must preserve
  ``|L_k(T)|`` for every k ≤ 6, and the dense layer DP — the numpy
  table and, with numpy hidden, the scalar one — must equal the
  reference DP bit for bit (see also ``test_kernel_differential``);
  the worklist fixpoints of :class:`NFTA` (``productive_states``,
  ``trimmed()``, ``possible_sizes``) equal the pass-until-stable loops
  they replaced, kept here as the reference.
- **Sampler membership oracles**: the interned tree store's
  derivability over dense state ids agrees with
  :meth:`NFTA.derivable_states`, whose step :meth:`NFTA.derived` equals
  the rule-scanning definition, and the CountNFA cons-cell acceptance
  masks agree with :meth:`NFA.accepts_from`.
"""

import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.nfa import NFA
from repro.automata.nfa_counting import _WordPlan
from repro.automata.nfta import LAMBDA, NFTA
from repro.automata.nfta_counting import (
    _CounterPlan,
    _InternedTrees,
    count_nfta_exact,
)
from repro.automata.optimize import optimize_nfta
from repro.automata.trees import LabeledTree
from repro.core.sampling import (
    sample_posterior_worlds,
    sample_satisfying_subinstances,
)
from repro.db.fact import Fact
from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.db.semantics import satisfies
from repro.queries.atoms import Atom, Variable
from repro.queries.builders import path_query, star_query
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_query

from test_kernel_vectorized import numpy_hidden

# ---------------------------------------------------------------------
# Parser round-trip
# ---------------------------------------------------------------------

_IDENT_HEAD = "abcdefghXYZ_"
_IDENT_TAIL = _IDENT_HEAD + "0123456789'"


def _random_identifier(rng: random.Random) -> str:
    head = rng.choice(_IDENT_HEAD)
    tail = "".join(
        rng.choice(_IDENT_TAIL) for _ in range(rng.randint(0, 4))
    )
    return head + tail


def _random_query(rng: random.Random) -> ConjunctiveQuery:
    variables = [
        Variable(name)
        for name in {_random_identifier(rng) for _ in range(4)}
    ]
    atoms = []
    for index in range(rng.randint(1, 5)):
        arity = rng.randint(1, 4)
        atoms.append(
            Atom(
                f"{_random_identifier(rng)}_{index}",
                tuple(rng.choice(variables) for _ in range(arity)),
            )
        )
    return ConjunctiveQuery(atoms)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=100, deadline=None)
def test_parser_round_trips_str(seed):
    rng = random.Random(seed)
    query = _random_query(rng)
    assert parse_query(str(query)) == query


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=50, deadline=None)
def test_parser_round_trip_survives_whitespace_and_head(seed):
    rng = random.Random(seed)
    query = _random_query(rng)
    text = str(query)
    # The head prefix is optional and whitespace is free.
    body = text.split(":-", 1)[1]
    assert parse_query(body) == query
    assert parse_query(body.replace(" ", "")) == query
    assert parse_query("  " + text.replace(", ", " ,\n ")) == query


def test_builder_docstring_round_trips():
    for query in (path_query(4), star_query(3)):
        assert parse_query(str(query)) == query


# ---------------------------------------------------------------------
# Sampler / _decode_tree invariants
# ---------------------------------------------------------------------

def _random_shape(rng: random.Random) -> ConjunctiveQuery:
    if rng.random() < 0.5:
        return path_query(rng.randint(1, 3))
    return star_query(rng.randint(1, 3))


def _random_instance_with_witness(
    query: ConjunctiveQuery, rng: random.Random
) -> DatabaseInstance:
    constants = ["a", "b", "c"]
    facts: set[Fact] = set()
    for atom in query.atoms:
        for _ in range(rng.randint(0, 2)):
            facts.add(
                Fact(
                    atom.relation,
                    tuple(rng.choice(constants) for _ in range(atom.arity)),
                )
            )
    # Inject one canonical witness so the sampled language is nonempty.
    assignment = {v: rng.choice(constants) for v in query.variables}
    for atom in query.atoms:
        facts.add(
            Fact(atom.relation, tuple(assignment[v] for v in atom.args))
        )
    return DatabaseInstance(sorted(facts, key=Fact.sort_key))


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=25, deadline=None)
def test_sampled_subinstances_satisfy_the_query(seed):
    rng = random.Random(seed)
    query = _random_shape(rng)
    instance = _random_instance_with_witness(query, rng)

    # _decode_tree raising (duplicate fact in a tree) would fail here.
    worlds = sample_satisfying_subinstances(
        query, instance, k=8, seed=seed
    )
    universe = set(instance)
    for world in worlds:
        assert world <= universe
        assert satisfies(DatabaseInstance(world), query)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=15, deadline=None)
def test_posterior_worlds_satisfy_the_query(seed):
    rng = random.Random(seed)
    query = _random_shape(rng)
    instance = _random_instance_with_witness(query, rng)
    probabilities = ["1/2", "2/3", "3/4", "9/10"]
    pdb = ProbabilisticDatabase(
        {fact: rng.choice(probabilities) for fact in instance}
    )

    worlds = sample_posterior_worlds(query, pdb, k=6, seed=seed)
    universe = set(instance)
    for world in worlds:
        assert world <= universe
        assert satisfies(DatabaseInstance(world), query)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=10, deadline=None)
def test_sampling_is_deterministic_under_a_seed(seed):
    rng = random.Random(seed)
    query = _random_shape(rng)
    instance = _random_instance_with_witness(query, rng)
    first = sample_satisfying_subinstances(query, instance, k=5, seed=seed)
    second = sample_satisfying_subinstances(query, instance, k=5, seed=seed)
    assert first == second


# ---------------------------------------------------------------------
# Automaton optimization invariants
# ---------------------------------------------------------------------

def _messy_random_nfta(rng: random.Random) -> NFTA:
    """A random NFTA deliberately salted with the structures the
    optimizer must handle: duplicate transitions, dead (unproductive)
    states, and unreachable states."""
    num_states = rng.randint(2, 5)
    names = [f"s{i}" for i in range(num_states)]
    transitions = []
    for source in names:
        for symbol in "ab":
            if rng.random() < 0.55:
                transitions.append((source, symbol, ()))
            for arity in (1, 2, 3):
                for _ in range(rng.randint(0, 2 if arity < 3 else 1)):
                    children = tuple(
                        rng.choice(names) for _ in range(arity)
                    )
                    transitions.append((source, symbol, children))
    # Duplicate a few existing transitions verbatim.
    for _ in range(rng.randint(0, 3)):
        if transitions:
            transitions.append(rng.choice(transitions))
    # A dead state: consumes itself, never derives a finite tree.
    transitions.append(("dead", "a", ("dead",)))
    if rng.random() < 0.5:
        transitions.append((names[0], "a", ("dead",)))
    # An unreachable state with a perfectly fine derivation of its own.
    transitions.append(("island", "b", ()))
    transitions.append(("island", "a", ("island",)))
    return NFTA(transitions, initial=names[0])


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=40, deadline=None)
def test_pruning_preserves_language_counts(seed):
    rng = random.Random(seed)
    nfta = _messy_random_nfta(rng)
    pruned = optimize_nfta(nfta).as_nfta()
    for k in range(1, 7):
        assert count_nfta_exact(
            pruned, k, backend="reference"
        ) == count_nfta_exact(nfta, k, backend="reference")


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=40, deadline=None)
def test_dense_dp_equals_reference_dp(seed):
    """Both layer tables — numpy where importable, and the scalar one
    with numpy hidden — equal the reference DP."""
    rng = random.Random(seed)
    nfta = _messy_random_nfta(rng)
    weights = {"a": rng.randint(0, 4), "b": rng.randint(1, 5)}
    for k in range(1, 7):
        for weight_of in (None, weights.get):
            expected = count_nfta_exact(
                nfta, k, weight_of=weight_of, backend="reference"
            )
            assert count_nfta_exact(
                nfta, k, weight_of=weight_of, backend="optimized"
            ) == expected
            with numpy_hidden():
                assert count_nfta_exact(
                    nfta, k, weight_of=weight_of, backend="optimized"
                ) == expected


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=40, deadline=None)
def test_optimization_report_is_consistent(seed):
    rng = random.Random(seed)
    nfta = _messy_random_nfta(rng)
    dense = optimize_nfta(nfta)
    report = dense.report
    assert report.states_after == dense.num_states <= report.states_before
    assert report.transitions_after == len(dense.transitions)
    assert report.states_pruned >= 1      # 'dead' and 'island' exist
    assert report.transitions_pruned >= 2
    assert report.transitions_deduped >= 0
    # The initial state survives (or the automaton is empty) and is
    # always interned as bit 0.
    if dense.num_states:
        assert dense.states[0] == nfta.initial
        assert dense.initial_bit == 1


# The pass-until-stable loops the three NFTA fixpoints replaced, kept
# as the reference the worklists must equal (their per-pass deadline
# checkpoints dropped).


def _productive_by_passes(nfta: NFTA) -> frozenset:
    productive = set()
    changed = True
    while changed:
        changed = False
        for source, symbol, children in nfta.transitions:
            if symbol is LAMBDA:
                continue
            if source not in productive and all(
                c in productive for c in children
            ):
                productive.add(source)
                changed = True
    return frozenset(productive)


def _trimmed_by_passes(nfta: NFTA) -> list:
    productive = _productive_by_passes(nfta)
    if nfta.initial not in productive:
        return []
    reachable = {nfta.initial}
    changed = True
    useful_transitions = []
    while changed:
        changed = False
        for source, symbol, children in nfta.transitions:
            if source in reachable and all(
                c in productive for c in children
            ):
                for child in children:
                    if child not in reachable:
                        reachable.add(child)
                        changed = True
    for source, symbol, children in nfta.transitions:
        if source in reachable and source in productive and all(
            c in productive for c in children
        ):
            useful_transitions.append((source, symbol, children))
    return useful_transitions


def _sizes_by_passes(nfta: NFTA, max_size: int) -> dict:
    limit_mask = (1 << (max_size + 1)) - 1
    masks = {state: 0 for state in nfta.states}
    changed = True
    while changed:
        changed = False
        for source, symbol, children in nfta.transitions:
            combined = 1  # sizes sum starts at {0}
            for child in children:
                child_mask = masks[child]
                if child_mask == 0:
                    combined = 0
                    break
                shifted = 0
                remaining = combined
                offset = 0
                while remaining:
                    if remaining & 1:
                        shifted |= child_mask << offset
                    remaining >>= 1
                    offset += 1
                combined = shifted & limit_mask
            if combined == 0:
                continue
            new_mask = (masks[source] | (combined << 1)) & limit_mask
            if new_mask != masks[source]:
                masks[source] = new_mask
                changed = True
    return masks


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60, deadline=None)
def test_worklist_fixpoints_equal_the_pass_until_stable_loops(seed):
    """``productive_states``, ``trimmed()`` and ``possible_sizes`` are
    worklists; each computes the least fixpoint the old loops did, and
    the trim keeps the surviving transitions in their listed order."""
    rng = random.Random(seed)
    transitions = list(_messy_random_nfta(rng).transitions)
    rng.shuffle(transitions)
    initial = rng.choice(sorted({t[0] for t in transitions}))
    nfta = NFTA(transitions, initial=initial)
    assert nfta.productive_states == _productive_by_passes(nfta)
    assert list(nfta.trimmed().transitions) == _trimmed_by_passes(nfta)
    for max_size in range(9):
        assert nfta.possible_sizes(max_size) == _sizes_by_passes(
            nfta, max_size
        )


# ---------------------------------------------------------------------
# Sampler membership oracles
# ---------------------------------------------------------------------

def _trees_up_to(max_size: int) -> list[LabeledTree]:
    """Every tree over {a, b} with arities 0–3 and at most ``max_size``
    nodes."""
    by_size: dict[int, list[LabeledTree]] = {
        1: [LabeledTree(symbol) for symbol in "ab"]
    }

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for size in range(2, max_size + 1):
        by_size[size] = [
            LabeledTree(symbol, children)
            for symbol in "ab"
            for arity in (1, 2, 3)
            if arity <= size - 1
            for split in compositions(size - 1, arity)
            for children in product(*(by_size[part] for part in split))
        ]
    return [tree for size in sorted(by_size) for tree in by_size[size]]


_SMALL_TREES = _trees_up_to(4)


def _scanned(nfta: NFTA, symbol, child_sets) -> frozenset:
    """The rule-scanning definition of one bottom-up step: the sources
    of every ``symbol`` rule whose i-th child is in ``child_sets[i]``."""
    return frozenset(
        source
        for source, label, children in nfta.transitions
        if label == symbol
        and len(children) == len(child_sets)
        and all(c in found for c, found in zip(children, child_sets))
    )


def _scanned_states(nfta: NFTA, tree: LabeledTree) -> frozenset:
    return _scanned(nfta, tree.label, [
        _scanned_states(nfta, child) for child in tree.children
    ])


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=40, deadline=None)
def test_compiled_derivability_matches_derivable_states(seed):
    """The interned store decides membership top-down over the dense
    automaton; on every tree of up to four nodes it must agree with the
    automaton's own bottom-up ``derivable_states`` for every state that
    survives compilation — dead, unreachable and duplicate structure
    included.  ``derivable_states`` folds :meth:`NFTA.derived`, which
    looks child-state tuples up and must equal the rule-scanning step,
    on those trees and on random child sets."""
    rng = random.Random(seed)
    nfta = _messy_random_nfta(rng)
    states = sorted(nfta.states, key=str)
    for symbol in "abc":
        for arity in range(4):
            child_sets = [
                frozenset(s for s in states if rng.random() < 0.4)
                for _ in range(arity)
            ]
            assert nfta.derived(symbol, child_sets) == _scanned(
                nfta, symbol, child_sets
            )
    plan = _CounterPlan(nfta, optimize_nfta(nfta), 1)
    store = _InternedTrees(plan)
    symbol_ids = {symbol: index for index, symbol in enumerate(plan.symbols)}

    def intern(tree: LabeledTree) -> int:
        return store.make(
            symbol_ids.get(tree.label, -1),
            tuple(intern(child) for child in tree.children),
        )

    for tree in _SMALL_TREES:
        derivable = nfta.derivable_states(tree)
        assert derivable == _scanned_states(nfta, tree)
        tree_id = intern(tree)
        for state_id, state in enumerate(plan.states):
            assert store.derives(state_id, tree_id) == (state in derivable)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=40, deadline=None)
def test_cons_cell_acceptance_matches_accepts_from(seed):
    """The CountNFA sampler reads membership off the bitmask of states
    accepting a cons-cell word, which each cell of the plan's word store
    carries; made cell by cell or as one chain, it must agree with
    :meth:`NFA.accepts_from` for every state and word."""
    rng = random.Random(seed)
    states = list(range(rng.randint(1, 6))) + ["dead", "island"]
    transitions = [
        (source, symbol, target)
        for source in states
        for symbol in "ab"
        for target in states
        if rng.random() < 0.3
    ]
    transitions.append(("island", "a", 0))
    nfa = NFA(
        transitions,
        initial=[0],
        accepting=[s for s in states[:-2] if rng.random() < 0.5],
    )
    plan = _WordPlan(nfa, 0)
    store = plan.words
    symbol_ids = {symbol: index for index, symbol in enumerate(plan.symbols)}
    cells: dict[tuple, tuple] = {(): ()}

    def cons(word: tuple) -> tuple:
        # Words sharing a suffix share its cells, as sampled words do.
        if word not in cells:
            cells[word] = store.make(symbol_ids[word[0]], (cons(word[1:]),))
        return cells[word]

    for _ in range(30):
        length = rng.randint(0, 6) if plan.symbols else 0
        word = tuple(rng.choice(plan.symbols) for _ in range(length))
        cell = cons(word)
        assert store.make_chain([symbol_ids[s] for s in word], ()) == cell
        accepts = store.states(cell)
        for state_id, state in enumerate(plan.states):
            assert bool(accepts >> state_id & 1) == nfa.accepts_from(
                state, word
            )


# ---------------------------------------------------------------------
# Lifted fast path: safe plans against WMC, hierarchy against brute force
# ---------------------------------------------------------------------

def _recursive_hierarchy_check(atoms) -> bool:
    """Independent hierarchy decision via the recursive root-variable
    characterisation: a query is hierarchical iff every connected
    component (atoms linked by shared variables) either is ground or
    has a *root* — a variable in all of the component's atoms — whose
    removal leaves a hierarchical residual.  Exponential-ish and naive
    on purpose: it shares no code with ``is_hierarchical``'s pairwise
    atom-set comparison.
    """
    remaining = list(atoms)
    while remaining:
        component = [remaining.pop()]
        grew = True
        while grew:
            grew = False
            for atom in list(remaining):
                if any(
                    set(atom[1]) & set(member[1])
                    for member in component
                ):
                    component.append(atom)
                    remaining.remove(atom)
                    grew = True
        variables = set().union(*(set(a[1]) for a in component))
        if not variables:
            continue
        roots = [
            v for v in variables
            if all(v in a[1] for a in component)
        ]
        if not any(
            _recursive_hierarchy_check(
                [
                    (rel, tuple(x for x in args if x != root))
                    for rel, args in component
                ]
            )
            for root in roots
        ):
            return False
    return True


def _random_sjf_query(rng: random.Random) -> ConjunctiveQuery:
    variables = [Variable(f"x{i}") for i in range(rng.randint(1, 4))]
    atoms = []
    for index in range(rng.randint(1, 4)):
        arity = rng.randint(1, 3)
        atoms.append(
            Atom(
                f"P{index}",
                tuple(rng.choice(variables) for _ in range(arity)),
            )
        )
    return ConjunctiveQuery(atoms)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=100, deadline=None)
def test_is_hierarchical_agrees_with_brute_force(seed):
    from repro.queries.properties import is_hierarchical

    rng = random.Random(seed)
    query = _random_sjf_query(rng)
    shape = [
        (atom.relation, tuple(v.name for v in atom.args))
        for atom in query.atoms
    ]
    assert is_hierarchical(query) == _recursive_hierarchy_check(shape), (
        str(query)
    )


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=40, deadline=None)
def test_safe_plan_equals_exact_wmc_on_hierarchical_queries(seed):
    from fractions import Fraction

    from repro.core.exact import exact_probability
    from repro.queries.lifted import classify_query, lifted_probability
    from repro.queries.properties import is_hierarchical
    from repro.workloads import (
        random_hierarchical_query,
        random_instance_for_query,
        random_probabilities,
    )

    query = random_hierarchical_query(seed)
    assert query.is_self_join_free and is_hierarchical(query)
    assert classify_query(query).safe
    instance = random_instance_for_query(
        query, domain_size=3, facts_per_relation=3, seed=seed
    )
    pdb = random_probabilities(
        instance, seed=seed, max_denominator=6, include_extremes=True
    )
    via_plan = lifted_probability(query, pdb)
    via_wmc = exact_probability(query, pdb, method="lineage")
    assert isinstance(via_plan, Fraction)
    assert via_plan == via_wmc, str(query)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=40, deadline=None)
def test_lifted_route_equals_safe_plan_on_hierarchical_queries(seed):
    from repro.core.estimator import PQEEngine
    from repro.queries.lifted import lifted_probability
    from repro.workloads import (
        random_hierarchical_query,
        random_instance_for_query,
        random_probabilities,
    )

    query = random_hierarchical_query(seed)
    instance = random_instance_for_query(
        query, domain_size=3, facts_per_relation=3, seed=seed
    )
    pdb = random_probabilities(instance, seed=seed, max_denominator=6)
    answer = PQEEngine(seed=0).probability(query, pdb)
    assert answer.route == "lifted", str(query)
    assert answer.exact
    assert answer.rational == lifted_probability(query, pdb)


# ---------------------------------------------------------------------
# Probabilistic-graph RPQs (repro.graphs)
# ---------------------------------------------------------------------

import re
from fractions import Fraction

from repro.automata.nfa import NFA
from repro.automata.symbols import Literal
from repro.graphs import (
    Edge,
    ProbabilisticGraph,
    RPQQuery,
    build_rpq_nfa,
    rpq_holds,
    rpq_probability_estimate,
)
from repro.graphs.product import relevant_edges
from repro.graphs.rpq import RPQExpression, parse_rpq, rpq_to_nfa

_RPQ_ALPHABET = ("a", "b", "c")


def _random_rpq_text(rng: random.Random, depth: int = 3) -> str:
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return rng.choice(_RPQ_ALPHABET)
    if roll < 0.6:
        left = _random_rpq_text(rng, depth - 1)
        right = _random_rpq_text(rng, depth - 1)
        return f"({left}|{right})"
    if roll < 0.8:
        left = _random_rpq_text(rng, depth - 1)
        right = _random_rpq_text(rng, depth - 1)
        return f"{left} {right}"
    return f"({_random_rpq_text(rng, depth - 1)}){rng.choice('*+?')}"


def _all_words(max_length: int):
    frontier = [()]
    for word in frontier:
        yield word
    for _ in range(max_length):
        frontier = [
            word + (symbol,)
            for word in frontier
            for symbol in _RPQ_ALPHABET
        ]
        yield from frontier


def _random_dag(rng: random.Random) -> ProbabilisticGraph:
    nodes = [f"v{i}" for i in range(rng.randint(3, 5))]
    probabilities = {}
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if rng.random() < 0.5:
                label = rng.choice(_RPQ_ALPHABET)
                probabilities[Edge(nodes[i], label, nodes[j])] = Fraction(
                    rng.randint(1, 5), 6
                )
    return ProbabilisticGraph(probabilities, nodes=nodes)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60, deadline=None)
def test_glushkov_nfa_agrees_with_reference_matcher(seed):
    """L(Glushkov NFA) == L(regex), checked word by word.

    The reference matcher works on span sets straight off the AST — it
    shares no code with the position-automaton construction, so
    agreement over every word up to length 4 is a genuine differential
    check of both.
    """
    rng = random.Random(seed)
    expression = RPQExpression(_random_rpq_text(rng))
    nfa = expression.nfa
    for word in _all_words(4):
        assert nfa.accepts(word) == expression.matches(word), (
            expression.canonical, word
        )


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=40, deadline=None)
def test_product_accepts_exactly_the_satisfying_subsets(seed):
    """Layered-product language soundness: the reduction's NFA accepts
    a literal string iff the corresponding edge subset satisfies the
    RPQ (per the automaton-free product-BFS oracle).  The product is
    built trim: trimming it again changes nothing."""
    rng = random.Random(seed)
    graph = _random_dag(rng)
    nodes = sorted(graph.nodes)
    query = RPQQuery(
        _random_rpq_text(rng), rng.choice(nodes), rng.choice(nodes)
    )
    reduction = build_rpq_nfa(graph, query)
    edges = reduction.edges
    if reduction.trivial is not None:
        world = list(relevant_edges(graph, query))
        assert rpq_holds(world, query) == (reduction.trivial == 1)
        return
    nfa = reduction.nfa
    trimmed = nfa.trimmed()
    if nfa.accepting:
        assert trimmed.states == nfa.states
        assert set(trimmed.transitions()) == set(nfa.transitions())
        assert trimmed.initial == nfa.initial
        assert trimmed.accepting == nfa.accepting
    else:
        # Nothing reaches acceptance: the product is the one-state dead
        # NFA, the same size as the empty NFA ``trimmed()`` returns.
        for dead in (nfa, trimmed):
            assert len(dead.states) == 1 and dead.states == dead.initial
            assert dead.num_transitions == 0 and not dead.accepting
    for mask in range(1 << len(edges)):
        subset = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        word = tuple(
            Literal(edge, bool(mask >> i & 1))
            for i, edge in enumerate(edges)
        )
        assert reduction.nfa.accepts(word) == rpq_holds(subset, query), (
            query, subset
        )


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=40, deadline=None)
def test_rpq_probability_is_invariant_under_label_renaming(seed):
    """Renaming edge labels by a bijection (applied to the graph and
    the regex alike) cannot change the probability — bitwise, since
    both sides take the exact DP route."""
    rng = random.Random(seed)
    graph = _random_dag(rng)
    nodes = sorted(graph.nodes)
    query = RPQQuery(
        _random_rpq_text(rng), rng.choice(nodes), rng.choice(nodes)
    )
    renaming = dict(zip(_RPQ_ALPHABET, ("xx", "yy", "zz")))
    renamed_graph = ProbabilisticGraph(
        {
            Edge(e.source, renaming[e.label], e.target): p
            for e, p in graph.probabilities.items()
        },
        nodes=graph.nodes,
    )
    renamed_text = " ".join(
        renaming.get(token, token)
        for token in re.findall(
            r"[A-Za-z_][A-Za-z0-9_]*|[()|*+?]", query.rpq.canonical
        )
    )
    renamed_query = RPQQuery(renamed_text, query.source, query.target)
    original = rpq_probability_estimate(graph, query, method="exact")
    renamed = rpq_probability_estimate(
        renamed_graph, renamed_query, method="exact"
    )
    assert original.rational == renamed.rational


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=40, deadline=None)
def test_nfa_trimming_preserves_counts_bitwise(seed):
    """Grafting unreachable and dead states onto a Glushkov NFA and
    trimming must give back the original counts exactly, at every
    length — the RPQ reduction relies on ``trimmed()`` being a pure
    optimisation."""
    rng = random.Random(seed)
    nfa = rpq_to_nfa(parse_rpq(_random_rpq_text(rng)))
    transitions = list(nfa.transitions())
    states = list(nfa.states) or [0]
    # Unreachable component: cycles among fresh states, plus an edge
    # into a live state (still unreachable from the initial set).
    for k in range(rng.randint(1, 3)):
        transitions.append((f"junk{k}", rng.choice(_RPQ_ALPHABET),
                            f"junk{k + 1}"))
        transitions.append((f"junk{k}", rng.choice(_RPQ_ALPHABET),
                            rng.choice(states)))
    # Dead component: reachable from a live state but never accepting.
    transitions.append((rng.choice(states), rng.choice(_RPQ_ALPHABET),
                        "dead0"))
    transitions.append(("dead0", rng.choice(_RPQ_ALPHABET), "dead0"))
    bloated = NFA(
        transitions, initial=nfa.initial, accepting=nfa.accepting
    )
    slim = bloated.trimmed()
    assert slim.states <= bloated.states
    for length in range(7):
        assert (
            slim.count_exact(length)
            == nfa.count_exact(length)
            == bloated.count_exact(length)
        )
