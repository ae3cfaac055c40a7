"""The cold workloads: one-shot evaluations from query text to answer.

Each operation does what a fresh ``repro eval`` does: the process-wide
memos are cleared (``clear_kernel_caches``, ``clear_lifted_caches``),
the database is loaded from its CSV text (the *write* side of the op)
and the query text is parsed and evaluated (the *read* side).

The untraced run evaluates through the engine's public entry points
(``PQEEngine.probability`` / ``rpq_probability`` /
``uniform_reliability``, and ``pqe_estimate`` for the exact-weighted
route).  The traced run splits the same evaluation into the public
layer functions — ``parse_query`` → ``classify_query`` → ``decompose``
→ ``build_pqe_reduction`` / ``build_rpq_nfa`` → ``count_nfta_exact`` or
``count_nfta`` → ``build_lineage`` / ``karp_luby_probability`` — with
the engine's arguments and seeds, opens one ``repro.obs`` span around
each call, and must reproduce the untraced answers bitwise.

Inputs are generated with ``repro.workloads``: shapes from fixed
generator seeds, probability labels (a fixed mix of denominators per
item) and sampler seeds from the workload seed.  A new seed moves which
fact gets which label but not the size of the Theorem 1 automaton, so
the work per op stays comparable across seeds.
"""

from __future__ import annotations

import gc
import io
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

from repro import PQEEngine, decompose, parse_query
from repro.automata.nfa_counting import count_nfa
from repro.automata.nfta_counting import count_nfta, count_nfta_exact
from repro.bench.harness import ResultTable, fit_growth_exponent
from repro.core.exact import exact_probability, exact_uniform_reliability
from repro.core.kernels import clear_kernel_caches
from repro.core.parallel import derive_item_seed
from repro.core.pqe_estimate import build_pqe_reduction, pqe_estimate
from repro.core.ur_reduction import build_ur_reduction
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.graphs import Edge, ProbabilisticGraph, RPQQuery
from repro.graphs.product import build_rpq_nfa, make_weight_of
from repro.io import dump_pdb_csv, load_pdb_csv
from repro.lineage.build import build_lineage
from repro.lineage.exact_wmc import dnf_probability
from repro.lineage.karp_luby import karp_luby_probability
from repro.obs import EvaluationTelemetry, span, telemetry_scope
from repro.queries.builders import path_query, star_query
from repro.queries.lifted import (
    classify_query,
    clear_lifted_caches,
    evaluate_lifted_plan,
)
from repro.workloads import (
    complete_layered_path_instance,
    grid_graph,
    layered_path_instance,
    random_hierarchical_query,
    random_instance_for_query,
    random_shatterable_query,
    warehouse_instance,
    warehouse_query,
)

from perfbench.checks import answer_ok, catches_perturbation
from perfbench.record import (
    PROBE_REFERENCE_S,
    ResultBuilder,
    median,
    peak_rss_mb,
    probe,
    quantile,
    reset_peak_rss,
)

__all__ = ["run_cold"]

#: Prefix of the spans the benchmark opens; the program's own spans
#: nest inside them.
LAYER = "bench."

#: Generator seed of every input's *shape* (which facts, edges and
#: queries exist).  The workload seed draws the probability labels and
#: the samplers' seeds, so a new seed is new data on the same shapes
#: and the work per op stays put.
SHAPE_SEED = 0


@dataclass
class Item:
    """One operation of a cold workload."""

    name: str
    kind: str          # pqe, exact-weighted, rpq, reliability, karp-luby,
                       # lineage-exact, lifted
    query: str         # CQ text, or the label regex of an RPQ
    csv: str           # the database in the CLI's CSV format
    method: str
    epsilon: float | None = None    # None: an exact route
    backend: str = "optimized"
    exact_set_cap: int = 4096
    source: str | None = None
    target: str | None = None
    growth: tuple[str, float] | None = None   # (series, x) of a fit
    seed: int = 0
    truth: Fraction | None = None


@dataclass
class Outcome:
    value: float | None
    rational: Fraction | None = None
    ingest: float = 0.0
    evaluate: float = 0.0
    error: str | None = None
    layers: dict = field(default_factory=dict)   # traced: name -> seconds
    work: dict = field(default_factory=dict)     # traced: exact counters
    #: Reference speed over host speed around the op (see ``probe``).
    scale: float = 1.0

    @property
    def seconds(self) -> float:
        return self.ingest + self.evaluate


# ---------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------

def _labelled(instance, rng: random.Random, denominators=(2, 3)):
    """Label every fact ``k / d`` with a seeded k.  The denominators are
    dealt round-robin over a seeded shuffle of the facts, so each one
    labels a fixed share of them and the gadget bits of the Theorem 1
    automaton — hence its tree size — do not depend on the seed."""
    facts = sorted(instance, key=Fact.sort_key)
    rng.shuffle(facts)
    labels = {}
    for index, fact in enumerate(facts):
        denominator = denominators[index % len(denominators)]
        labels[fact] = Fraction(rng.randint(1, denominator - 1),
                                denominator)
    return ProbabilisticDatabase(labels)


def _csv(pdb: ProbabilisticDatabase) -> str:
    stream = io.StringIO()
    dump_pdb_csv(pdb, stream)
    header, *rows = stream.getvalue().splitlines()
    return "\n".join([header, *sorted(rows)]) + "\n"


def _graph_csv(graph: ProbabilisticGraph) -> str:
    """A graph as binary facts ``label(source, target)``."""
    return _csv(ProbabilisticDatabase({
        Fact(edge.label, (edge.source, edge.target)):
            graph.probability(edge)
        for edge in graph.edges
    }))


def _graph_from_pdb(pdb: ProbabilisticDatabase) -> ProbabilisticGraph:
    """The graph view of binary facts, as ``repro eval --rpq`` builds it."""
    return ProbabilisticGraph({
        Edge(str(fact.constants[0]), fact.relation,
             str(fact.constants[1])): probability
        for fact, probability in pdb.probabilities.items()
    })


def _triad(scale: int) -> ProbabilisticDatabase:
    labels = {}
    for i in range(scale):
        labels[Fact("R", (f"a{i}",))] = Fraction(1, 2)
        labels[Fact("S", (f"a{i}", f"b{i}"))] = Fraction(2, 3)
        labels[Fact("S", (f"a{i}", f"b{(i + 1) % scale}"))] = Fraction(1, 3)
        labels[Fact("T", (f"b{i}",))] = Fraction(1, 2)
    return ProbabilisticDatabase(labels)


def _graph_labelled(graph: ProbabilisticGraph, rng: random.Random,
                    denominator: int = 16) -> ProbabilisticGraph:
    """``graph``'s edges with seeded ``k / denominator`` probabilities."""
    return ProbabilisticGraph({
        edge: Fraction(rng.randint(1, denominator - 1), denominator)
        for edge in graph.edges
    })


def fpras_items(seed: int, smoke: bool) -> list[Item]:
    """The paper's route: Q4 on layered instances (also the S1 points
    in |D|), the warehouse, an RPQ on a grid and a 729-clause
    Karp–Luby item, plus the cheap growth points of S2 (1/ε) and C1
    (query length).  Sizes keep one pass near three seconds, so every
    item runs many times in a run and its median is steady."""
    rng = random.Random(seed)
    q4 = str(path_query(4))
    items = []
    # S1: Q4 over layered instances of growing |D| — width 1, width 2
    # with half the edges, width 2 complete.
    for name, width, density in (
        ("w2", 2, 1.0), ("w2-half", 2, 0.5), ("w1", 1, 1.0),
    ):
        instance = layered_path_instance(4, width, density, seed=SHAPE_SEED)
        items.append(Item(
            f"q4-layered-{name}", "pqe", q4,
            _csv(_labelled(instance, rng)), "fpras", 0.3,
            growth=("s1", len(instance)),
        ))
    warehouse = warehouse_instance(4, 4, 6, seed=SHAPE_SEED).instance
    items.append(Item(
        "warehouse-4-4-6", "pqe", str(warehouse_query()),
        _csv(_labelled(warehouse, rng, (4,))), "fpras-weighted", 0.25,
    ))
    side = 3 if smoke else 5
    grid = grid_graph(side, side, seed=SHAPE_SEED)
    items.append(Item(
        f"rpq-grid{side}-any", "rpq", "(a|b)*",
        _graph_csv(_graph_labelled(grid, rng)), "fpras", 0.4,
        source="n0_0", target=f"n{side - 1}_{side - 1}",
    ))
    hops, width = (3, 2) if smoke else (5, 3)
    items.append(Item(
        f"karp-luby-q{hops}-w{width}", "karp-luby", str(path_query(hops)),
        _csv(_labelled(
            complete_layered_path_instance(hops, width), rng, (4,)
        )),
        "karp-luby", 0.4,
    ))
    q3_csv = _csv(_labelled(complete_layered_path_instance(3, 2), rng))
    for epsilon in ((0.8, 0.4) if smoke else (0.8, 0.4, 0.2)):
        items.append(Item(
            f"q3-eps{epsilon}", "pqe", str(path_query(3)), q3_csv,
            "fpras", epsilon, exact_set_cap=0, growth=("s2", 1 / epsilon),
        ))
    for length in ((2, 3) if smoke else (2, 3, 4, 5)):
        instance = complete_layered_path_instance(length, 2)
        items.append(Item(
            f"ur-path{length}-w2", "reliability", str(path_query(length)),
            _csv(ProbabilisticDatabase.uniform(instance)), "fpras", 0.25,
            growth=("c1", length),
        ))
    return items


def exact_items(seed: int, smoke: bool) -> list[Item]:
    """Exact routes: the layer DP over small and large automata on two
    backends, the RPQ product DP, lifted plans and lineage WMC."""
    rng = random.Random(seed)
    items = []
    warehouse = _csv(_labelled(
        warehouse_instance(4, 4, 6, seed=SHAPE_SEED).instance, rng, (4,)
    ))
    q4_w2 = _csv(_labelled(complete_layered_path_instance(4, 2), rng))
    path3 = path_query(3)
    domain, facts = (3, 4) if smoke else (4, 7)
    path3_csv = _csv(_labelled(
        random_instance_for_query(path3, domain, facts, seed=SHAPE_SEED),
        rng, (4,),
    ))
    star4 = star_query(4)
    star4_csv = _csv(_labelled(
        random_instance_for_query(star4, domain, facts, seed=SHAPE_SEED),
        rng, (4,),
    ))
    dp_inputs = [
        ("warehouse-4-4-6", str(warehouse_query()), warehouse),
        ("q4-layered-w2", str(path_query(4)), q4_w2),
        (f"path3-d{domain}-f{facts}", str(path3), path3_csv),
        (f"star4-d{domain}-f{facts}", str(star4), star4_csv),
    ]
    for name, query, csv in dp_inputs:
        for backend in ("optimized", "vectorized"):
            items.append(Item(
                f"{name}-{backend}", "exact-weighted", query, csv,
                "exact-weighted", backend=backend,
            ))
    side = 4 if smoke else 8
    grid = grid_graph(side, side, seed=SHAPE_SEED)
    items.append(Item(
        f"rpq-grid{side}-any", "rpq", "(a|b)*",
        _graph_csv(_graph_labelled(grid, rng)), "exact",
        source="n0_0", target=f"n{side - 1}_{side - 1}",
    ))
    for index, query in enumerate((
        random_hierarchical_query(SHAPE_SEED, max_branches=3),
        random_hierarchical_query(SHAPE_SEED + 1, max_branches=3),
        random_shatterable_query(SHAPE_SEED),
    )):
        instance = random_instance_for_query(
            query, 5, 8, seed=SHAPE_SEED + index
        )
        items.append(Item(
            f"lifted-{index}", "lifted", str(query),
            _csv(_labelled(instance, rng, (4,))), "lifted",
        ))
    items.append(Item(
        "warehouse-4-4-6-lineage", "lineage-exact", str(warehouse_query()),
        warehouse, "lineage-exact",
    ))
    items.append(Item(
        "triad-s3-lineage", "lineage-exact", "Q :- R(x), S(x, y), T(y)",
        _csv(_labelled(_triad(3).instance, rng)), "lineage-exact",
    ))
    return items


WORKLOAD_ITEMS = {"fpras-cold": fpras_items, "exact-cold": exact_items}


def build_items(workload: str, seed: int, smoke: bool) -> list[Item]:
    items = WORKLOAD_ITEMS[workload](seed, smoke)
    for index, item in enumerate(items):
        item.seed = derive_item_seed(seed, index)
    return items


# ---------------------------------------------------------------------
# Truths (set-up, outside timing), each from a route independent of the
# one under test
# ---------------------------------------------------------------------

def _reach_probability(graph: ProbabilisticGraph, source: str,
                       target: str) -> Fraction:
    """``Pr(source reaches target)`` in a DAG with independent edges,
    exactly: the frontier DP of network reliability.  Nodes are taken in
    topological order; a state is the set of reached, not yet expanded
    nodes.  It is the truth for ``(a|b)*`` on graphs labelled only
    ``a``/``b``, where every path matches."""
    out_edges: dict[str, list] = {}
    for edge in graph.edges:
        out_edges.setdefault(edge.source, []).append(edge)
    states = {frozenset([source]): Fraction(1)}
    reached = Fraction(0)
    for node in graph.topological_order:
        expanded: dict[frozenset, Fraction] = {}
        for state, weight in states.items():
            if node not in state:
                expanded[state] = expanded.get(state, 0) + weight
                continue
            if node == target:
                reached += weight
                continue
            branches = {state - {node}: weight}
            for edge in out_edges.get(node, ()):
                p = graph.probability(edge)
                grown: dict[frozenset, Fraction] = {}
                for partial, w in branches.items():
                    present = partial | {edge.target}
                    grown[present] = grown.get(present, 0) + w * p
                    grown[partial] = grown.get(partial, 0) + w * (1 - p)
                branches = grown
            for partial, w in branches.items():
                expanded[partial] = expanded.get(partial, 0) + w
        states = expanded
    return reached


def _truth(item: Item) -> Fraction:
    pdb = load_pdb_csv(io.StringIO(item.csv))
    if item.kind == "rpq":
        if item.query != "(a|b)*":
            raise ValueError(f"no reachability truth for {item.query}")
        return _reach_probability(_graph_from_pdb(pdb), item.source,
                                  item.target)
    query = parse_query(item.query)
    if item.kind == "reliability":
        return Fraction(exact_uniform_reliability(query, pdb.instance))
    if item.kind == "lineage-exact":
        # The reference tree DP over the gadget-free automaton.
        reduction = build_pqe_reduction(query, pdb, weighted=True)
        measure = count_nfta_exact(
            reduction.nfta, reduction.tree_size,
            weight_of=reduction.weight_of, backend="reference",
        )
        return Fraction(measure, reduction.denominator)
    return exact_probability(query, pdb, method="lineage")


# ---------------------------------------------------------------------
# One operation
# ---------------------------------------------------------------------

def _cold_start() -> None:
    """What a fresh process starts without: memos, and the previous
    op's garbage."""
    clear_kernel_caches()
    clear_lifted_caches()
    gc.collect()


def _load(item: Item):
    pdb = load_pdb_csv(io.StringIO(item.csv))
    return _graph_from_pdb(pdb) if item.kind == "rpq" else pdb


def untraced_op(item: Item) -> Outcome:
    """The op through the engine's entry points, telemetry off."""
    _cold_start()
    started = time.perf_counter()
    database = _load(item)
    loaded = time.perf_counter()
    engine = PQEEngine(
        epsilon=item.epsilon or 0.25, seed=item.seed,
        exact_set_cap=item.exact_set_cap, kernel_backend=item.backend,
    )
    rational = None
    if item.kind == "rpq":
        answer = engine.rpq_probability(
            database, item.query, item.source, item.target,
            method=item.method,
        )
        value, rational = answer.value, answer.rational
    elif item.kind == "reliability":
        answer = engine.uniform_reliability(
            parse_query(item.query), database.instance, method=item.method
        )
        value = answer.value
    elif item.kind == "exact-weighted":
        value = pqe_estimate(
            parse_query(item.query), database, method="exact-weighted",
            backend=item.backend,
        ).estimate
    else:
        answer = engine.probability(
            parse_query(item.query), database, method=item.method
        )
        value, rational = answer.value, answer.rational
    done = time.perf_counter()
    return Outcome(value, rational, ingest=loaded - started,
                   evaluate=done - loaded)


def _traced_body(item: Item, database, work: dict):
    """The engine's pipeline for ``item`` as public layer calls; returns
    (value, rational).  Must match :func:`untraced_op` bitwise."""
    if item.kind == "rpq":
        with span(LAYER + "queries.parse"):
            query = RPQQuery(item.query, item.source, item.target)
            query.rpq.nfa
        with span(LAYER + "rpq.product"):
            reduction = build_rpq_nfa(database, query)
        work["nfta_states"] = reduction.nfa_states
        work["nfta_transitions"] = reduction.nfa_transitions
        weight_of = make_weight_of(database)
        with span(LAYER + "rpq.count"):
            if item.method == "exact":
                measure = reduction.nfa.count_exact(
                    reduction.string_length, weight_of=weight_of,
                    max_subsets=None,
                )
            else:
                result = count_nfa(
                    reduction.nfa, reduction.string_length,
                    epsilon=item.epsilon, seed=item.seed,
                    exact_set_cap=item.exact_set_cap, weight_of=weight_of,
                )
        if item.method == "exact":
            rational = Fraction(int(measure), reduction.denominator)
            return float(rational), rational
        work["rpq_samples"] = result.samples_used
        return min(result.estimate / reduction.denominator, 1.0), None

    with span(LAYER + "queries.parse"):
        query = parse_query(item.query)

    if item.kind == "lifted":
        with span(LAYER + "lifted.classify"):
            plan = classify_query(query).plan
        with span(LAYER + "lifted.eval"):
            rational = evaluate_lifted_plan(
                plan, database, query.relation_names
            )
        return float(rational), rational

    if item.kind in ("karp-luby", "lineage-exact"):
        with span(LAYER + "lineage.build"):
            projected = database.project_to_query(query)
            formula = build_lineage(query, projected.instance)
        work["clauses"] = len(formula.clauses)
        if item.kind == "lineage-exact":
            with span(LAYER + "lineage.wmc"):
                rational = dnf_probability(
                    formula, projected.probabilities
                )
            return float(rational), rational
        with span(LAYER + "lineage.karp_luby"):
            result = karp_luby_probability(
                formula, projected.probabilities, epsilon=item.epsilon,
                seed=item.seed, backend=item.backend,
            )
        work["kl_samples"] = result.samples
        work["kl_accepted"] = result.accepted
        return result.estimate, None

    with span(LAYER + "decomposition.decompose"):
        decomposition = decompose(query)
    with span(LAYER + "reduction.build"):
        if item.kind == "reliability":
            reduction = build_ur_reduction(
                query, database.instance, decomposition=decomposition
            )
        else:
            reduction = build_pqe_reduction(
                query, database, decomposition=decomposition,
                weighted=item.method in ("fpras-weighted",
                                         "exact-weighted"),
            )
    work["nfta_states"] = len(reduction.nfta.states)
    work["nfta_transitions"] = reduction.nfta.num_transitions
    work["tree_size"] = reduction.tree_size
    if item.kind == "exact-weighted":
        with span(LAYER + "counting.exact"):
            measure = count_nfta_exact(
                reduction.nfta, reduction.tree_size,
                weight_of=reduction.weight_of, backend=item.backend,
            )
        return (
            min(float(measure) / reduction.denominator, 1.0),
            Fraction(measure, reduction.denominator),
        )
    weight_of = (
        reduction.weight_of if item.method == "fpras-weighted" else None
    )
    with span(LAYER + "sampling.count"):
        result = count_nfta(
            reduction.nfta, reduction.tree_size, epsilon=item.epsilon,
            seed=item.seed, exact_set_cap=item.exact_set_cap,
            weight_of=weight_of, backend=item.backend,
        )
    if item.kind == "reliability":
        return result.estimate * reduction.scale, None
    return min(result.estimate / reduction.denominator, 1.0), None


def traced_op(item: Item) -> Outcome:
    """The op as spans around public layer calls, telemetry on."""
    _cold_start()
    telemetry = EvaluationTelemetry()
    work: dict = {}
    with telemetry_scope(telemetry), span(LAYER + "op", item=item.name):
        with span(LAYER + "db.load"):
            database = _load(item)
        value, rational = _traced_body(item, database, work)
    layers: dict[str, float] = {}
    op_seconds = ingest = 0.0
    for record in telemetry.spans:
        if not record.name.startswith(LAYER):
            continue
        name = record.name[len(LAYER):]
        if name == "op":
            op_seconds = record.duration
        elif name == "db.load":
            ingest = record.duration
            layers[name] = record.duration
        else:
            layers[name] = layers.get(name, 0.0) + record.duration
    counters = telemetry.metrics.deterministic_counters()
    work["dp_cells"] = counters.get("count_nfta.dp_cells", 0)
    work["samples"] = counters.get("count_nfta.samples_drawn", 0)
    work["counters"] = counters
    return Outcome(value, rational, ingest=ingest,
                   evaluate=op_seconds - ingest, layers=layers, work=work)


# ---------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------

def _guarded(op, item: Item) -> Outcome:
    """Run one op; an exception is a failed op, never a dead benchmark."""
    try:
        return op(item)
    except Exception:  # noqa: BLE001 - the loop must keep measuring
        message = traceback.format_exc()
        print(f"op {item.name} failed:\n{message}", file=sys.stderr)
        return Outcome(None, error=message.strip().splitlines()[-1])


def timed_passes(items, op, seconds: float,
                 after_pass=None) -> dict[str, list[Outcome]]:
    """Round-robin passes over ``items`` for ``seconds``, calling
    ``after_pass()`` between passes.  The first pass always completes,
    so every item has at least one sample; after it, an op whose last
    run would end past ``seconds`` is not started."""
    outcomes: dict[str, list[Outcome]] = {item.name: [] for item in items}
    started = time.perf_counter()
    first_pass = True
    before = probe()
    while True:
        for item in items:
            if not first_pass:
                last = outcomes[item.name][-1]
                remaining = seconds - (time.perf_counter() - started)
                if last.seconds >= remaining:
                    return outcomes
            outcome = _guarded(op, item)
            after = probe()
            outcome.scale = 2 * PROBE_REFERENCE_S / (before + after)
            before = after
            outcomes[item.name].append(outcome)
        first_pass = False
        if after_pass is not None:
            after_pass()


def _check_epsilon(item: Item, outcome: Outcome) -> float | None:
    """The tolerance an outcome is checked with: ``None`` (Fraction
    equality) for exact routes that report a rational; float rounding
    for the exact-weighted route, whose public result is a float of the
    exact measure."""
    if item.epsilon is not None:
        return item.epsilon
    return None if outcome.rational is not None else 1e-12


def _judge(item: Item, outcomes: list[Outcome]) -> int:
    """Failed ops among ``outcomes``: errors, wrong answers, and answers
    that differ between repetitions of the same seeded op."""
    failed = 0
    first = outcomes[0]
    for outcome in outcomes:
        if outcome.value is None or not answer_ok(
            outcome.value, outcome.rational, item.truth,
            _check_epsilon(item, outcome),
        ):
            failed += 1
            print(
                f"op {item.name}: answer {outcome.value} "
                f"({outcome.rational}) misses truth {item.truth} "
                f"{outcome.error or ''}",
                file=sys.stderr,
            )
        elif (outcome.value, outcome.rational) != (first.value,
                                                   first.rational):
            failed += 1
            print(f"op {item.name}: repetitions disagree", file=sys.stderr)
    return failed


def _checks_can_fail(items, outcomes) -> bool:
    for item in items:
        first = outcomes[item.name][0]
        if first.value is not None and not catches_perturbation(
            first.value, first.rational, item.truth,
            _check_epsilon(item, first),
        ):
            print(f"check for {item.name} missed a perturbed truth",
                  file=sys.stderr)
            return False
    return True


# ---------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------

def _per_item(outcomes, attribute) -> dict[str, float]:
    """Median ``attribute`` (a time) of every item's successful ops,
    each scaled to the reference speed."""
    return {
        name: median(
            getattr(o, attribute) * o.scale
            for o in runs if o.value is not None
        )
        for name, runs in outcomes.items()
    }


def _end_to_end(result: ResultBuilder, outcomes, *, setup_s, failed,
                attempted, rss) -> float:
    seconds = _per_item(outcomes, "seconds")
    reads = _per_item(outcomes, "evaluate")
    writes = _per_item(outcomes, "ingest")
    wall = sum(seconds.values())
    result.add("setup_s", setup_s, "s")
    result.add("wall_s", wall, "s")
    result.add("ok_share", (attempted - failed) / attempted, "share")
    result.add("peak_rss_mb", rss, "MiB")
    result.add("read_p50_s", median(reads.values()), "s")
    result.add("read_p99_s", max(reads.values()), "s")
    result.add("write_p50_s", median(writes.values()), "s")
    result.add("write_p90_s", quantile(writes.values(), 0.9), "s")
    # Cold ops have no degradation ladder: every answer is rung 0.
    result.add("unshed_share", 1.0, "share")
    return wall


#: Per-layer span → metric (seconds per pass over the item list).
LAYER_METRICS = (
    ("db.load", "db.load_s"),
    ("queries.parse", "queries.parse_s"),
    ("lifted.classify", "lifted.classify_s"),
    ("lifted.eval", "lifted.eval_s"),
    ("decomposition.decompose", "decomposition.decompose_s"),
    ("reduction.build", "reduction.build_s"),
    ("rpq.product", "rpq.product_s"),
    ("counting.exact", "counting.exact_s"),
    ("sampling.count", "sampling.count_s"),
    ("rpq.count", "rpq.count_s"),
    ("lineage.build", "lineage.build_s"),
    ("lineage.wmc", "lineage.wmc_s"),
    ("lineage.karp_luby", "lineage.karp_luby_s"),
)

#: Work counters summed over one pass.
WORK_METRICS = (
    ("samples", "sampling.samples"),
    ("rpq_samples", "rpq.samples"),
    ("dp_cells", "counting.dp_cells"),
    ("clauses", "lineage.clauses"),
    ("kl_samples", "lineage.kl_samples"),
    ("nfta_states", "reduction.nfta_states"),
    ("nfta_transitions", "reduction.nfta_transitions"),
    ("tree_size", "reduction.tree_size"),
)


def _fit(points) -> float:
    """Growth exponent of (x, y) points; 0 when fewer than two points
    are positive."""
    try:
        return fit_growth_exponent([x for x, _ in points],
                                   [y for _, y in points])
    except ValueError:
        return 0.0


def _per_layer(result: ResultBuilder, items, untraced, traced,
               untraced_wall) -> dict:
    """Add the per-layer metrics; return the run's counter record."""
    layer_seconds = {name: 0.0 for _, name in LAYER_METRICS}
    work = {name: 0 for _, name in WORK_METRICS}
    kl_accepted = 0
    covered = traced_wall = 0.0
    counters: dict[str, int] = {}
    for item in items:
        runs = [o for o in traced[item.name] if o.value is not None]
        if not runs:
            continue
        for span_name, metric in LAYER_METRICS:
            layer_seconds[metric] += median(
                o.layers.get(span_name, 0.0) * o.scale for o in runs
            )
        covered += median(sum(o.layers.values()) * o.scale for o in runs)
        traced_wall += median(o.seconds * o.scale for o in runs)
        first = runs[0].work
        for key, metric in WORK_METRICS:
            work[metric] += first.get(key, 0)
        kl_accepted += first.get("kl_accepted", 0)
        for name, value in first["counters"].items():
            counters[f"{item.name}:{name}"] = value
        for key, value in first.items():
            if key != "counters":
                counters[f"{item.name}:{key}"] = value

    for _, metric in LAYER_METRICS:
        result.add(metric, layer_seconds[metric], "s")
    for _, metric in WORK_METRICS:
        result.add(metric, work[metric], "count")
    result.add(
        "sampling.samples_per_s",
        work["sampling.samples"] / layer_seconds["sampling.count_s"]
        if layer_seconds["sampling.count_s"] else 0.0,
        "1/s",
    )
    result.add(
        "lineage.kl_accept_ratio",
        kl_accepted / work["lineage.kl_samples"]
        if work["lineage.kl_samples"] else 0.0,
        "share",
    )
    result.add("trace.coverage", covered / traced_wall, "share")
    result.add("trace.overhead", traced_wall / untraced_wall - 1, "share")

    # Growth exponents: wall time from the untraced run, exact counters
    # from the traced run.
    series: dict[str, list] = {}
    for item in items:
        if item.growth is None or not traced[item.name]:
            continue
        kind, x = item.growth
        seconds = median(o.seconds * o.scale for o in untraced[item.name]
                         if o.value is not None)
        series.setdefault(kind, []).append(
            (x, seconds, traced[item.name][0].work)
        )
    for kind, counter in (("s1", "samples"), ("s2", "samples"),
                          ("c1", "nfta_transitions")):
        points = series.get(kind, [])
        result.add(f"fit.{kind}_time_exp",
                   _fit([(x, s) for x, s, _ in points]), "exponent")
        result.add(f"fit.{kind}_{counter}_exp",
                   _fit([(x, w.get(counter, 0)) for x, _, w in points]),
                   "exponent")
    return counters


# ---------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------

def run_cold(workload: str, seed: int, seconds: float, trace: bool,
             smoke: bool, result: ResultBuilder) -> tuple[bool, int, int,
                                                          dict | None]:
    """Run one cold workload; returns (correct, attempted, failed,
    counters) and fills ``result``."""
    # Set-up: the inputs are built once before timing and again after
    # every pass, so setup_s is a median over builds spread across the
    # run; every build must come out identical — same seed, same inputs.
    setup_times: list[float] = []
    signatures: list[list] = []

    def build() -> list[Item]:
        before = probe()
        started = time.perf_counter()
        built = build_items(workload, seed, smoke)
        elapsed = time.perf_counter() - started
        setup_times.append(
            elapsed * 2 * PROBE_REFERENCE_S / (before + probe())
        )
        signatures.append([(i.name, i.query, i.csv) for i in built])
        return built

    items = build()
    for item in items:
        item.truth = _truth(item)
    # Import the numpy tier before timing: its one-off load is not
    # part of any op.
    import repro.core.vectorized  # noqa: F401

    untraced_seconds = seconds / 2 if trace else seconds
    reset_peak_rss()
    untraced = timed_passes(items, untraced_op, untraced_seconds,
                            after_pass=build)
    rss = peak_rss_mb()
    by_name = {item.name: item for item in items}
    table = ResultTable(
        f"{workload}: per-item medians, untraced (raw, and scaled to "
        f"the reference speed)",
        ["item", "ops", "raw s", "scaled s", "answer"],
    )
    scaled = _per_item(untraced, "seconds")
    for item in items:
        runs = untraced[item.name]
        table.add_row([
            item.name, len(runs), median(o.seconds for o in runs),
            scaled[item.name], runs[0].value,
        ])
    table.print()
    attempted = sum(len(runs) for runs in untraced.values())
    failed = sum(_judge(by_name[n], runs) for n, runs in untraced.items())
    deterministic = all(sig == signatures[0] for sig in signatures)
    correct = deterministic and _checks_can_fail(items, untraced)

    counters = None
    if trace:
        traced = timed_passes(items, traced_op, seconds / 2)
        attempted += sum(len(runs) for runs in traced.values())
        for name, runs in traced.items():
            failed += _judge(by_name[name], runs)
            expected = untraced[name][0]
            done = [o for o in runs if o.value is not None]
            for outcome in done:
                if outcome.value != expected.value or (
                    expected.rational is not None
                    and outcome.rational != expected.rational
                ):
                    failed += 1
                    print(f"op {name}: traced answer differs from "
                          f"untraced", file=sys.stderr)
                elif outcome.work["counters"] != done[0].work["counters"]:
                    failed += 1
                    print(f"op {name}: work counters changed between "
                          f"repetitions of one seed", file=sys.stderr)
        wall = sum(_per_item(untraced, "seconds").values())
        counters = _per_layer(result, items, untraced, traced, wall)
    else:
        _end_to_end(result, untraced, setup_s=median(setup_times),
                    failed=failed, attempted=attempted, rss=rss)
    return correct and failed == 0, attempted, failed, counters
