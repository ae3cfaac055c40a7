"""Cross-validation property suite: random queries, every evaluator.

Hypothesis generates random self-join-free conjunctive queries (random
shapes, arities 1–3, shared variables, possibly cyclic or disconnected)
and random small instances; every pair of independent evaluation paths
must agree:

  brute-force enumeration == lineage WMC == Prop-1 automaton count
  == safe plan (when hierarchical) == multiplier automaton (for PQE)

This is the strongest correctness net in the repository: a bug in any
of the decomposition, construction, translation, or counting layers
surfaces as a disagreement here.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.nfta_counting import count_nfta_exact
from repro.core.exact import exact_probability, exact_uniform_reliability
from repro.core.pqe_estimate import pqe_estimate
from repro.core.ur_reduction import build_ur_reduction
from repro.db.fact import Fact
from repro.db.instance import DatabaseInstance
from repro.db.probabilistic import ProbabilisticDatabase
from repro.queries.atoms import Atom, Variable
from repro.queries.cq import ConjunctiveQuery
from repro.queries.properties import is_hierarchical
from repro.queries.lifted import lifted_probability

_PROBS = [
    Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3),
    Fraction(2, 3), Fraction(3, 4), Fraction(2, 5),
]


def _random_sjf_query(rng: random.Random) -> ConjunctiveQuery:
    num_atoms = rng.randint(1, 4)
    pool = [Variable(f"v{i}") for i in range(5)]
    atoms = []
    used = [pool[0]]
    for index in range(num_atoms):
        arity = rng.randint(1, 3)
        args = []
        for position in range(arity):
            # Bias toward already-used variables so atoms connect.
            if used and rng.random() < 0.7:
                args.append(rng.choice(used))
            else:
                fresh = rng.choice(pool)
                args.append(fresh)
        for var in args:
            if var not in used:
                used.append(var)
        atoms.append(Atom(f"R{index}", tuple(args)))
    return ConjunctiveQuery(atoms)


def _random_instance(
    query: ConjunctiveQuery, rng: random.Random, max_facts: int
) -> DatabaseInstance:
    constants = ["a", "b", "c"]
    facts: set[Fact] = set()
    for atom in query.atoms:
        for _ in range(rng.randint(1, 3)):
            facts.add(
                Fact(
                    atom.relation,
                    tuple(rng.choice(constants) for _ in range(atom.arity)),
                )
            )
    # Inject one canonical witness half the time so UR > 0 often.
    if rng.random() < 0.5:
        assignment = {v: rng.choice(constants) for v in query.variables}
        for atom in query.atoms:
            facts.add(
                Fact(atom.relation, tuple(assignment[v] for v in atom.args))
            )
    trimmed = sorted(facts, key=Fact.sort_key)[:max_facts]
    return DatabaseInstance(trimmed)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=40, deadline=None)
def test_ur_all_paths_agree(seed):
    rng = random.Random(seed)
    query = _random_sjf_query(rng)
    if len(query.variables) > 5:
        return
    instance = _random_instance(query, rng, max_facts=9)

    brute = exact_uniform_reliability(query, instance, method="enumerate")
    via_lineage = exact_uniform_reliability(query, instance, method="lineage")
    assert brute == via_lineage

    reduction = build_ur_reduction(query, instance)
    via_automaton = (
        count_nfta_exact(reduction.nfta, reduction.tree_size)
        * reduction.scale
    )
    assert via_automaton == brute, str(query)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=30, deadline=None)
def test_pqe_all_paths_agree(seed):
    rng = random.Random(seed)
    query = _random_sjf_query(rng)
    if len(query.variables) > 5:
        return
    instance = _random_instance(query, rng, max_facts=8)
    pdb = ProbabilisticDatabase(
        {fact: rng.choice(_PROBS) for fact in instance}
    )

    brute = exact_probability(query, pdb, method="enumerate")
    via_lineage = exact_probability(query, pdb, method="lineage")
    assert brute == via_lineage

    via_automaton = pqe_estimate(query, pdb, method="exact-automaton")
    assert abs(via_automaton.estimate - float(brute)) <= 1e-9, str(query)

    if is_hierarchical(query):
        assert lifted_probability(query, pdb) == brute, str(query)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=20, deadline=None)
def test_engine_routes_agree_metamorphically(seed):
    """Metamorphic cross-backend check through the PQEEngine facade.

    Changing the evaluation route must not change the answer: every
    exact route agrees to rounding, and the randomized FPRAS lands in a
    loose envelope around them (or exactly on 0/1, which the reduction
    preserves exactly).
    """
    from repro.core.estimator import PQEEngine

    rng = random.Random(seed)
    query = _random_sjf_query(rng)
    if len(query.variables) > 5:
        return
    instance = _random_instance(query, rng, max_facts=8)
    pdb = ProbabilisticDatabase(
        {fact: rng.choice(_PROBS[2:]) for fact in instance}
    )
    engine = PQEEngine(epsilon=0.3, seed=seed, repetitions=3)

    exact_routes = ["enumerate", "lineage-exact"]
    if is_hierarchical(query):
        exact_routes.append("lifted")
    answers = {
        route: engine.probability(query, pdb, method=route)
        for route in exact_routes
    }
    truth = answers["enumerate"].rational
    for route, answer in answers.items():
        assert answer.exact
        assert answer.rational == truth, (route, str(query))

    fpras = engine.probability(query, pdb, method="fpras-weighted")
    if truth == 0:
        assert fpras.value == 0
    else:
        assert abs(fpras.value - float(truth)) / float(truth) < 0.75, (
            str(query)
        )

    auto = engine.probability(query, pdb)
    if auto.exact:
        assert abs(auto.value - float(truth)) <= 1e-9
    elif truth > 0:
        assert abs(auto.value - float(truth)) / float(truth) < 0.75


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=20, deadline=None)
def test_fpras_inside_envelope_or_zero(seed):
    rng = random.Random(seed)
    query = _random_sjf_query(rng)
    if len(query.variables) > 5:
        return
    instance = _random_instance(query, rng, max_facts=8)
    pdb = ProbabilisticDatabase(
        {fact: rng.choice(_PROBS[2:]) for fact in instance}
    )
    truth = float(exact_probability(query, pdb, method="lineage"))
    result = pqe_estimate(
        query, pdb, epsilon=0.3, seed=seed, repetitions=3
    )
    if truth == 0:
        assert result.estimate == 0
    else:
        assert abs(result.estimate - truth) / truth < 0.75, str(query)
