"""Lifted safe-plan routing: the top rung of the evaluation ladder.

The Dalvi–Suciu dichotomy separates queries whose probability is
computable in polynomial time (data complexity) from the #P-hard rest;
Table 1 of the paper reserves its FPRAS for the hard side.  This module
supplies the easy side *as a router*: it classifies a query as

- ``safe`` — a lifted plan exists; evaluation is exact, sampling-free,
  and polynomial in the data;
- ``unsafe`` — hardness is *proved* (a self-join-free CQ that is not
  hierarchical, per the dichotomy);
- ``unknown`` — the implemented rule set cannot lift the query and no
  hardness witness applies (self-join CQs and UCQs beyond the rules);

and, for safe queries, emits a typed :class:`LiftedPlan` built from the
classical lifted-inference rules:

- **independent join** — fact-disjoint subqueries multiply;
- **independent project** — grounding a *separator variable* (one that
  occurs in every atom of a connected component, at the same positions
  in equi-relation atoms) splits the facts into disjoint groups, so
  ``Pr[∃x φ(x)] = 1 − Π_a (1 − Pr[φ(a)])``;
- **shattering** — grounding substitutes constants into self-join
  atoms; the residual query is minimized (its core is taken, with
  constants rigid), which is what breaks self-joins that a plain
  Dalvi–Suciu safe plan must reject;
- **independent union** — relation-disjoint UCQ disjuncts are
  independent events;
- **inclusion–exclusion** — overlapping disjuncts expand into signed
  conjunctions, each Chandra–Merlin-minimized and lifted recursively
  (reusing :mod:`repro.queries.containment` at the UCQ entry point).

Plans depend on the query only — never on the database — so they are
memoized process-wide under the query's ``cache_token`` digest in a
bounded :class:`~repro.core.cache.ReductionCache`, the package's one
process-global memo (:func:`clear_lifted_caches` resets it).  The
minimization search that shatters self-joins is exponential in the
worst case, so it checks the active evaluation budget (phase
``lifted.classify``) once per backtracking step; a classification the
budget cuts off is not memoized.

Every safe answer is certified by the three-oracle differential
harness in ``tests/test_lifted_differential.py``: lifted output equals
the exact-WMC oracle bitwise (as :class:`~fractions.Fraction`), with
the FPRAS landing inside its ε envelope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping

from repro.core.budget import budget_checkpoint, budget_tick
from repro.core.cache import ReductionCache
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import QueryError, UnknownSafetyError, UnsafeQueryError
from repro.obs import metric_inc, span
from repro.queries.cq import ConjunctiveQuery
from repro.queries.properties import is_hierarchical

__all__ = [
    "LiftedClassification",
    "LiftedPlan",
    "FactLookup",
    "IndependentJoin",
    "IndependentProject",
    "IndependentUnion",
    "InclusionExclusion",
    "classify_query",
    "build_lifted_plan",
    "lifted_probability",
    "evaluate_lifted_plan",
    "clear_lifted_caches",
]

#: Inclusion–exclusion expands 2^m − 1 conjunctions for m overlapping
#: disjuncts; beyond this the router reports ``unknown`` rather than
#: build an astronomically wide plan (combined complexity may be
#: exponential in |Q|, but not silently so).
MAX_IE_DISJUNCTS = 8


# ---------------------------------------------------------------------
# Internal grounded-atom representation
# ---------------------------------------------------------------------
# Terms are ("var", name) or ("const", value); grounding a separator
# substitutes ("const", _Bound(name)) placeholders that the evaluator
# resolves through its environment, so one plan serves every constant.

_Term = tuple[str, Hashable]
_GAtom = tuple[str, tuple[_Term, ...]]


@dataclass(frozen=True, slots=True)
class _Bound:
    """Placeholder constant for a separator bound by an enclosing
    :class:`IndependentProject`; resolved via the evaluation env."""

    name: str

    def __str__(self) -> str:
        return f"⟨{self.name}⟩"


class _PlanFailure(Exception):
    """Internal: the rule set cannot lift this (sub)query."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _render_atom(atom: _GAtom) -> str:
    relation, terms = atom
    inner = ", ".join(
        str(value) if kind == "const" else str(value)
        for kind, value in terms
    )
    return f"{relation}({inner})"


# ---------------------------------------------------------------------
# Typed lifted plans
# ---------------------------------------------------------------------

class LiftedPlan:
    """Base class of lifted-plan nodes.  Nodes are immutable, hashable,
    and data-independent: the same plan evaluates any database."""

    __slots__ = ()

    def describe(self) -> str:
        raise NotImplementedError

    @property
    def size(self) -> int:
        """Number of plan nodes (for tests and ``explain`` output)."""
        return 1


@dataclass(frozen=True, slots=True)
class FactLookup(LiftedPlan):
    """Probability of one ground fact (terms all constants or bound
    placeholders)."""

    relation: str
    terms: tuple[_Term, ...]

    def describe(self) -> str:
        return _render_atom((self.relation, self.terms))


@dataclass(frozen=True, slots=True)
class IndependentJoin(LiftedPlan):
    """Product over fact-disjoint children."""

    children: tuple[LiftedPlan, ...]

    def describe(self) -> str:
        inner = " ⊗ ".join(c.describe() for c in self.children)
        return f"join({inner})"

    @property
    def size(self) -> int:
        return 1 + sum(c.size for c in self.children)


@dataclass(frozen=True, slots=True)
class IndependentProject(LiftedPlan):
    """``1 − Π_a (1 − Pr[child@a])`` over the separator's domain.

    ``atoms`` keeps the component's atoms (separator still a variable)
    so the evaluator can read the grounding domain off the facts.
    """

    variable: str
    atoms: tuple[_GAtom, ...]
    child: LiftedPlan

    def describe(self) -> str:
        return f"project[{self.variable}]({self.child.describe()})"

    @property
    def size(self) -> int:
        return 1 + self.child.size


@dataclass(frozen=True, slots=True)
class IndependentUnion(LiftedPlan):
    """``1 − Π (1 − p_i)`` over relation-disjoint disjunct groups."""

    children: tuple[LiftedPlan, ...]

    def describe(self) -> str:
        inner = " ⊕ ".join(c.describe() for c in self.children)
        return f"union({inner})"

    @property
    def size(self) -> int:
        return 1 + sum(c.size for c in self.children)


@dataclass(frozen=True, slots=True)
class InclusionExclusion(LiftedPlan):
    """Signed sum over minimized disjunct conjunctions."""

    terms: tuple[tuple[int, LiftedPlan], ...]

    def describe(self) -> str:
        inner = " ".join(
            f"{'+' if sign > 0 else '-'}{plan.describe()}"
            for sign, plan in self.terms
        )
        return f"ie({inner})"

    @property
    def size(self) -> int:
        return 1 + sum(plan.size for _sign, plan in self.terms)


@dataclass(frozen=True)
class LiftedClassification:
    """The router's verdict for one query.

    ``status`` is ``'safe'`` (``plan`` is set), ``'unsafe'`` (hardness
    proved by the dichotomy) or ``'unknown'`` (rules exhausted without
    a hardness witness); ``reason`` says why in one sentence.
    """

    status: str
    reason: str
    plan: LiftedPlan | None = None

    @property
    def safe(self) -> bool:
        return self.status == "safe"


# ---------------------------------------------------------------------
# Grounded-atom utilities: variables, substitution, containment, core
# ---------------------------------------------------------------------

def _atom_variables(atom: _GAtom) -> set[str]:
    return {v for kind, v in atom[1] if kind == "var"}


def _variables(atoms: tuple[_GAtom, ...]) -> set[str]:
    out: set[str] = set()
    for atom in atoms:
        out |= _atom_variables(atom)
    return out


def _substitute(atom: _GAtom, variable: str, value: Hashable) -> _GAtom:
    relation, terms = atom
    return (
        relation,
        tuple(
            ("const", value) if kind == "var" and name == variable
            else (kind, name)
            for kind, name in terms
        ),
    )


def _dedupe(atoms: tuple[_GAtom, ...]) -> tuple[_GAtom, ...]:
    seen: set[_GAtom] = set()
    out: list[_GAtom] = []
    for atom in atoms:
        if atom not in seen:
            seen.add(atom)
            out.append(atom)
    return tuple(out)


def _ga_contained(
    inner: tuple[_GAtom, ...], outer: tuple[_GAtom, ...]
) -> bool:
    """``inner ⊑ outer`` for grounded CQs (Chandra–Merlin).

    Equivalent to a homomorphism from ``outer`` into the canonical
    database of ``inner`` — which is just ``inner`` itself with its
    variables frozen as rigid values, so the matcher runs directly on
    the atom tuples.  Constants (including :class:`_Bound` tokens) are
    rigid on both sides.
    """
    by_relation: dict[str, list[tuple[_Term, ...]]] = {}
    for relation, terms in inner:
        by_relation.setdefault(relation, []).append(terms)

    def extend(index: int, binding: dict[str, _Term]) -> bool:
        budget_checkpoint("lifted.classify")
        if index == len(outer):
            return True
        relation, terms = outer[index]
        for candidate in by_relation.get(relation, ()):
            trial = dict(binding)
            ok = True
            for term, target in zip(terms, candidate):
                kind, value = term
                if kind == "const":
                    if target != ("const", value):
                        ok = False
                        break
                    continue
                bound = trial.get(value)
                if bound is None:
                    trial[value] = target
                elif bound != target:
                    ok = False
                    break
            if ok and extend(index + 1, trial):
                return True
        return False

    return extend(0, {})


def _core(atoms: tuple[_GAtom, ...]) -> tuple[_GAtom, ...]:
    """The core of a grounded CQ: greedy removal of foldable atoms.

    Removing an atom always weakens the query, so equivalence reduces
    to the single containment ``candidate ⊑ atoms``.
    """
    current = list(_dedupe(atoms))
    changed = True
    while changed and len(current) > 1:
        changed = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1:]
            if _ga_contained(tuple(candidate), tuple(current)):
                current = candidate
                changed = True
                break
    return tuple(current)


# ---------------------------------------------------------------------
# Dependency components and separator variables
# ---------------------------------------------------------------------

def _unifiable(left: _GAtom, right: _GAtom) -> bool:
    """Could the two atoms match a common fact?  (Sound
    over-approximation: repeated-variable constraints are ignored.)"""
    if left[0] != right[0]:
        return False
    for (lk, lv), (rk, rv) in zip(left[1], right[1]):
        if lk == "const" and rk == "const" and lv != rv:
            return False
    return True


def _dependent(left: _GAtom, right: _GAtom) -> bool:
    if _atom_variables(left) & _atom_variables(right):
        return True
    return _unifiable(left, right)


def _components(
    atoms: tuple[_GAtom, ...],
) -> list[tuple[_GAtom, ...]]:
    """Partition atoms into groups that are pairwise fact-disjoint and
    variable-disjoint across groups (so groups are independent)."""
    remaining = list(atoms)
    components: list[tuple[_GAtom, ...]] = []
    while remaining:
        group = [remaining.pop(0)]
        changed = True
        while changed:
            changed = False
            still: list[_GAtom] = []
            for atom in remaining:
                if any(_dependent(atom, member) for member in group):
                    group.append(atom)
                    changed = True
                else:
                    still.append(atom)
            remaining = still
        components.append(tuple(group))
    return components


def _separator(
    atoms: tuple[_GAtom, ...], variables: set[str]
) -> str | None:
    """A variable occurring in every atom, at identical position sets
    within each relation symbol — grounding it splits the facts of each
    relation into disjoint groups, so the groundings are independent
    even across self-joins."""
    for variable in sorted(variables):
        positions_by_relation: dict[str, frozenset[int]] = {}
        ok = True
        for relation, terms in atoms:
            positions = frozenset(
                i for i, (kind, value) in enumerate(terms)
                if kind == "var" and value == variable
            )
            if not positions:
                ok = False
                break
            previous = positions_by_relation.setdefault(relation, positions)
            if previous != positions:
                ok = False
                break
        if ok:
            return variable
    return None


# ---------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------

def _build_cq(atoms: tuple[_GAtom, ...]) -> LiftedPlan:
    atoms = _core(atoms)
    components = _components(atoms)
    if len(components) > 1:
        return IndependentJoin(
            tuple(_build_cq(component) for component in components)
        )

    component = components[0]
    variables = _variables(component)
    if not variables:
        # Fully ground, deduplicated atoms: distinct facts, hence
        # independent — even over a shared relation symbol.
        lookups = tuple(
            FactLookup(relation, terms) for relation, terms in component
        )
        if len(lookups) == 1:
            return lookups[0]
        return IndependentJoin(lookups)

    separator = _separator(component, variables)
    if separator is None:
        rendered = ", ".join(_render_atom(a) for a in component)
        raise _PlanFailure(
            f"no separator variable in connected component [{rendered}]"
        )
    grounded = tuple(
        _substitute(atom, separator, _Bound(separator))
        for atom in component
    )
    return IndependentProject(separator, component, _build_cq(grounded))


def _relation_groups(
    disjuncts: list[tuple[_GAtom, ...]],
) -> list[list[tuple[_GAtom, ...]]]:
    """Group disjuncts transitively by shared relation symbols; groups
    touch disjoint fact sets and are therefore independent events."""
    remaining = list(disjuncts)
    groups: list[list[tuple[_GAtom, ...]]] = []
    while remaining:
        group = [remaining.pop(0)]
        names = {atom[0] for atom in group[0]}
        changed = True
        while changed:
            changed = False
            still: list[tuple[_GAtom, ...]] = []
            for disjunct in remaining:
                mentioned = {atom[0] for atom in disjunct}
                if mentioned & names:
                    group.append(disjunct)
                    names |= mentioned
                    changed = True
                else:
                    still.append(disjunct)
            remaining = still
        groups.append(group)
    return groups


def _build_ucq(disjuncts: list[tuple[_GAtom, ...]]) -> LiftedPlan:
    groups = _relation_groups(disjuncts)
    if len(groups) > 1:
        return IndependentUnion(
            tuple(_build_ucq(group) for group in groups)
        )
    group = groups[0]
    if len(group) == 1:
        return _build_cq(group[0])
    if len(group) > MAX_IE_DISJUNCTS:
        raise _PlanFailure(
            f"{len(group)} overlapping disjuncts exceed the "
            f"inclusion–exclusion cap of {MAX_IE_DISJUNCTS}"
        )
    terms: list[tuple[int, LiftedPlan]] = []
    indices = range(len(group))
    for cardinality in range(1, len(group) + 1):
        sign = 1 if cardinality % 2 else -1
        for subset in itertools.combinations(indices, cardinality):
            conjunction = _dedupe(
                tuple(
                    atom for index in subset for atom in group[index]
                )
            )
            terms.append((sign, _build_cq(conjunction)))
    return InclusionExclusion(tuple(terms))


# ---------------------------------------------------------------------
# Classification (with the process-wide plan memo)
# ---------------------------------------------------------------------

#: Entry bound of the plan memo: a daemon classifies every distinct
#: query it is sent, so the memo evicts least-recently-used plans
#: rather than grow for the life of the process.
PLAN_MEMO_SIZE = 1024

_plan_memo = ReductionCache(PLAN_MEMO_SIZE, name="lifted.plan_cache")


def clear_lifted_caches() -> None:
    """Drop every memoized classification/plan (benchmarks call it to
    measure cold classifications)."""
    _plan_memo.clear()


def _cq_atoms(query: ConjunctiveQuery) -> tuple[_GAtom, ...]:
    return tuple(
        (atom.relation, tuple(("var", v.name) for v in atom.args))
        for atom in query.atoms
    )


def _classify_cq(query: ConjunctiveQuery) -> LiftedClassification:
    if query.is_self_join_free:
        if not is_hierarchical(query):
            return LiftedClassification(
                "unsafe",
                "self-join-free and non-hierarchical: #P-hard exactly "
                "by the Dalvi–Suciu dichotomy",
            )
        # Hierarchical SJF queries always lift (a root variable exists
        # in every connected residual), so _build_cq cannot fail here.
        return LiftedClassification(
            "safe",
            "hierarchical self-join-free CQ",
            _build_cq(_cq_atoms(query)),
        )
    try:
        plan = _build_cq(_cq_atoms(query))
    except _PlanFailure as failure:
        return LiftedClassification(
            "unknown",
            f"self-join CQ the shattering rules cannot lift: "
            f"{failure.reason}",
        )
    return LiftedClassification(
        "safe", "self-join CQ lifted via shattering", plan
    )


def _classify_ucq(ucq) -> LiftedClassification:
    minimized = ucq.minimized()
    if len(minimized) == 1:
        single = _classify_cq(minimized.disjuncts[0])
        reason = f"UCQ minimized to one disjunct; {single.reason}"
        return LiftedClassification(single.status, reason, single.plan)
    # Standardize variables apart so inclusion–exclusion conjunctions
    # never capture variables across disjuncts.
    disjuncts = [
        tuple(
            (
                atom.relation,
                tuple(("var", f"d{i}.{v.name}") for v in atom.args),
            )
            for atom in disjunct.atoms
        )
        for i, disjunct in enumerate(minimized.disjuncts)
    ]
    try:
        plan = _build_ucq(disjuncts)
    except _PlanFailure as failure:
        return LiftedClassification(
            "unknown",
            f"UCQ the union rules cannot lift: {failure.reason}",
        )
    return LiftedClassification(
        "safe",
        "UCQ lifted via independent union / inclusion–exclusion over "
        "minimized disjuncts",
        plan,
    )


def classify_query(query) -> LiftedClassification:
    """Route ``query`` (a :class:`ConjunctiveQuery` or
    :class:`~repro.queries.ucq.UnionQuery`) through the safety
    classifier, memoizing the verdict and plan under its
    ``cache_token``."""
    if isinstance(query, ConjunctiveQuery):
        token, classify = "cq:" + query.cache_token, _classify_cq
    else:
        token, classify = "ucq:" + query.cache_token, _classify_ucq

    def build() -> LiftedClassification:
        with span("lifted.classify"):
            result = classify(query)
        metric_inc(f"lifted.classified.{result.status}")
        return result

    return _plan_memo.get_or_build(token, build)


def build_lifted_plan(query) -> LiftedPlan:
    """The lifted plan for a safe query.

    Raises
    ------
    UnsafeQueryError
        When the dichotomy proves the query #P-hard.
    UnknownSafetyError
        When the rule set cannot lift the query (route it through the
        existing ladder instead).
    """
    classification = classify_query(query)
    if classification.status == "unsafe":
        raise UnsafeQueryError(classification.reason)
    if classification.status == "unknown":
        raise UnknownSafetyError(classification.reason)
    assert classification.plan is not None
    return classification.plan


# ---------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------

def _resolve(term: _Term, env: Mapping[_Bound, Hashable]) -> Hashable:
    kind, value = term
    if kind != "const":
        raise QueryError(
            f"unbound variable {value!r} reached a fact lookup; the "
            "plan was not safe"
        )
    if isinstance(value, _Bound):
        return env[value]
    return value


def _project_domain(
    atoms: tuple[_GAtom, ...],
    variable: str,
    env: Mapping[_Bound, Hashable],
    facts_by_relation: Mapping[str, tuple[Fact, ...]],
) -> set[Hashable]:
    """Constants the separator can take: values at its positions in any
    member atom's relation, consistent with already-ground positions.
    A superset is sound — spurious values contribute a factor of 1."""
    domain: set[Hashable] = set()
    for relation, terms in atoms:
        positions = [
            i for i, (kind, value) in enumerate(terms)
            if kind == "var" and value == variable
        ]
        if not positions:
            continue
        for fact in facts_by_relation.get(relation, ()):
            consistent = all(
                kind != "const"
                or fact.constants[i] == (
                    env[value] if isinstance(value, _Bound) else value
                )
                for i, (kind, value) in enumerate(terms)
            )
            if consistent:
                domain.update(fact.constants[i] for i in positions)
    return domain


def _eval(
    plan: LiftedPlan,
    env: dict[_Bound, Hashable],
    facts_by_relation: Mapping[str, tuple[Fact, ...]],
    probabilities: Mapping[Fact, Fraction],
) -> Fraction:
    if isinstance(plan, FactLookup):
        fact = Fact(
            plan.relation,
            tuple(_resolve(term, env) for term in plan.terms),
        )
        return probabilities.get(fact, Fraction(0))
    if isinstance(plan, IndependentJoin):
        result = Fraction(1)
        for child in plan.children:
            result *= _eval(child, env, facts_by_relation, probabilities)
            if not result:
                return result
        return result
    if isinstance(plan, IndependentUnion):
        none = Fraction(1)
        for child in plan.children:
            none *= 1 - _eval(child, env, facts_by_relation, probabilities)
        return 1 - none
    if isinstance(plan, InclusionExclusion):
        total = Fraction(0)
        for sign, child in plan.terms:
            total += sign * _eval(
                child, env, facts_by_relation, probabilities
            )
        return total
    assert isinstance(plan, IndependentProject)
    domain = _project_domain(
        plan.atoms, plan.variable, env, facts_by_relation
    )
    token = _Bound(plan.variable)
    none = Fraction(1)
    for value in sorted(domain, key=str):
        budget_tick("lifted.project")
        env[token] = value
        none *= 1 - _eval(plan.child, env, facts_by_relation, probabilities)
    env.pop(token, None)
    return 1 - none


def evaluate_lifted_plan(
    plan: LiftedPlan,
    pdb: ProbabilisticDatabase,
    relation_names=None,
) -> Fraction:
    """Evaluate a lifted plan over ``pdb``, exactly.

    ``relation_names`` (the query's relations) restricts the fact index;
    when omitted every relation of the database is indexed, which is
    merely slower, never wrong.
    """
    probabilities = pdb.probabilities
    wanted = (
        set(relation_names)
        if relation_names is not None
        else {fact.relation for fact in probabilities}
    )
    facts_by_relation = {
        relation: pdb.instance.facts_for_relation(relation)
        for relation in wanted
    }
    with span("lifted.eval"):
        return _eval(plan, {}, facts_by_relation, probabilities)


def lifted_probability(query, pdb: ProbabilisticDatabase) -> Fraction:
    """``Pr_H(Q)`` exactly through the lifted fast path.

    ``query`` may be a :class:`ConjunctiveQuery` or a
    :class:`~repro.queries.ucq.UnionQuery`.  Raises
    :class:`~repro.errors.UnsafeQueryError` /
    :class:`~repro.errors.UnknownSafetyError` when no safe plan exists;
    callers fall through to the FPRAS or the intensional evaluators.
    """
    plan = build_lifted_plan(query)
    metric_inc("lifted.evaluations")
    return evaluate_lifted_plan(plan, pdb, query.relation_names)
