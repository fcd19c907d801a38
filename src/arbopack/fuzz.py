"""Seeded differential fuzzing.

Each suite draws random instances of the shape its two routes accept and
compares the routes on every draw: a condition against the brute-force
packing oracle, two conditions proved equivalent against each other, the
two orientation routes, polyhedron feasibility against the subpartition
condition, and the two rank formulas.  Reports are deterministic in the
seed; mismatches carry the full instance document so they can be replayed
through the command line.

Instance distribution: vertex count uniform in [1, n_max], each candidate
element included independently, root multiplicities at most 2, matroids
drawn from the free, uniform and partition kinds.
"""
from __future__ import annotations

import random

from .conditions import ConditionId, Instance, evaluate
from .instances import instance_to_doc, set_function_to_doc
from .matroids import (
    ExtendedHypergraphicMatroid,
    FreeMatroid,
    PartitionMatroid,
    UniformMatroid,
)
from .orientation import frank_orient, mixed_orient, reduce_frank_to_new
from .packing import ROUTES
from .setfuncs import SetFunctionOracle, check_intersecting_supermodular
from .structures import (
    Bounds,
    Budget,
    CapExceededError,
    MixedHypergraph,
    RootMultiset,
    Verdict,
    subsets,
)

def default_names(n: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(n))


def _random_arcs(rng: random.Random, n: int, p: float = 0.4) -> tuple:
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                arcs.append((frozenset({u}), v))
    return tuple(arcs)


def _random_mixed_hypergraph(rng: random.Random, n: int,
                             max_elements: int = 5) -> MixedHypergraph:
    hyperedges = []
    for e in subsets(range(n)):
        if len(e) >= 2 and rng.random() < 0.3:
            hyperedges.append(e)
    dyperedges = []
    for head in range(n):
        for tails in subsets(sorted(set(range(n)) - {head}), include_empty=False):
            if rng.random() < 0.2:
                dyperedges.append((tails, head))
    elements = [("E", e) for e in hyperedges] + [("A", a) for a in dyperedges]
    rng.shuffle(elements)
    elements = elements[:max_elements]
    return MixedHypergraph(
        n,
        tuple(e for kind, e in elements if kind == "E"),
        tuple(a for kind, a in elements if kind == "A"),
    )


def _random_roots(rng: random.Random, n: int, max_count: int = 2) -> RootMultiset:
    return RootMultiset(tuple(rng.randint(0, max_count) for _ in range(n)))


def _random_matroid(rng: random.Random, roots: RootMultiset):
    copies = roots.copies()
    kind = rng.choice(("free", "uniform", "partition"))
    if kind == "free" or not copies:
        return FreeMatroid(copies)
    if kind == "uniform":
        return UniformMatroid(copies, rng.randint(0, len(copies)))
    nblocks = rng.randint(1, min(3, len(copies)))
    blocks: list[list] = [[] for _ in range(nblocks)]
    for c in copies:
        blocks[rng.randrange(nblocks)].append(c)
    capacities = [rng.randint(0, 2) for _ in blocks]
    return PartitionMatroid(copies, [frozenset(b) for b in blocks], capacities)


def _random_bounds(rng: random.Random, n: int) -> Bounds:
    k = rng.randint(1, 2)
    f = tuple(rng.randint(0, 1) for _ in range(n))
    g = tuple(min(k, f[v] + rng.randint(0, 2)) for v in range(n))
    g = tuple(max(f[v], g[v]) for v in range(n))
    l = rng.randint(1, 2)
    lprime = l + rng.randint(0, 3)
    return Bounds(f=f, g=g, k=k, l=l, lprime=lprime)


def _random_supermodular(rng: random.Random, n: int) -> SetFunctionOracle:
    """Rejection-sample a small intersecting supermodular table with
    h(empty) = h(V) = 0.  Past n = 3 rejection all but never succeeds, so
    the fallback draws h constructively: a nonnegative sum of rooted
    demands (1 on the nonempty X missing the root r) plus a modular term
    whose weights sum to 0, each intersecting supermodular and 0 on the
    empty set and on V."""
    full = frozenset(range(n))
    for _ in range(200):
        table = {}
        for x in subsets(range(n)):
            if not x or x == full:
                table[x] = 0
            else:
                table[x] = rng.randint(-2, 2)
        h = SetFunctionOracle.from_table(n, table)
        if check_intersecting_supermodular(h) is None:
            return h
    rooted = [rng.randint(0, 2) for _ in range(n)]
    weights = [rng.randint(-2, 2) for _ in range(n - 1)]
    weights.append(-sum(weights))
    return SetFunctionOracle.from_table(n, {
        x: sum(c for r, c in enumerate(rooted) if x and r not in x) + sum(weights[v] for v in x)
        for x in subsets(range(n))})


def _check_edmonds_oracle(rng, n_max, budget, evaluator):
    n = rng.randint(1, n_max)
    graph = MixedHypergraph(n, (), _random_arcs(rng, n))
    roots = _random_roots(rng, n, max_count=1)
    inst = Instance(graph=graph, roots=roots)
    left = evaluator(ConditionId.EDMONDS, inst, budget).holds
    right = ROUTES["spanning"].pack(inst, budget) is not None
    return inst, left, right, {"condition": "edmonds", "oracle": "spanning packing search"}


def _check_main_oracle(rng, n_max, budget, evaluator):
    n = rng.randint(1, n_max)
    graph = _random_mixed_hypergraph(rng, n, max_elements=4)
    bounds = _random_bounds(rng, n)
    inst = Instance(graph=graph, bounds=bounds)
    left = evaluator(ConditionId.MAIN, inst, budget).holds
    right = ROUTES["bounded_regular_limited"].pack(inst, budget) is not None
    return inst, left, right, {"condition": "main", "oracle": "bounded packing search"}


def _check_kiraly_gy(rng, n_max, budget, evaluator):
    n = rng.randint(1, n_max)
    graph = MixedHypergraph(n, (), _random_arcs(rng, n))
    roots = _random_roots(rng, n)
    matroid = _random_matroid(rng, roots)
    inst = Instance(graph=graph, roots=roots, matroid=matroid)
    left = evaluator(ConditionId.KIRALY, inst, budget).holds
    right = evaluator(ConditionId.GY_DIGRAPH, inst, budget).holds
    return inst, left, right, {"conditions": ["kiraly", "gy_digraph"]}


def _check_orient_reduction(rng, n_max, budget, evaluator):
    n = rng.randint(1, n_max)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                edges.append(frozenset({u, v}))
    graph = MixedHypergraph(n, tuple(edges), ())
    h = _random_supermodular(rng, n)
    inst = Instance(graph=graph, h=h)
    left = evaluator(ConditionId.FRANK_ORIENT, inst, budget).holds
    direct = not isinstance(frank_orient(graph, h, budget), Verdict)
    lifted_graph, lifted_h = reduce_frank_to_new(graph, h, budget)
    lifted_inst = Instance(graph=lifted_graph, h=lifted_h)
    right = evaluator(ConditionId.NEW_ORIENT, lifted_inst, budget).holds
    reduced = not isinstance(mixed_orient(lifted_graph, lifted_h, budget), Verdict)
    agree = left == direct == right == reduced
    detail = {
        "h": set_function_to_doc(h, default_names(n)),
        "edge_route": direct,
        "lifted_route": reduced,
        "edge_condition": left,
        "lifted_condition": right,
    }
    return inst, agree, True, detail


def _check_lemma1_main(rng, n_max, budget, evaluator):
    n = rng.randint(1, n_max)
    graph = _random_mixed_hypergraph(rng, n, max_elements=5)
    bounds = _random_bounds(rng, n)
    inst = Instance(graph=graph, bounds=bounds)
    left = evaluator(ConditionId.LEMMA1B, inst, budget).holds
    right = evaluator(ConditionId.MAIN, inst, budget).holds
    return inst, left, right, {"conditions": ["lemma1b", "main"]}


def _check_ksum_rank(rng, n_max, budget, evaluator):
    del evaluator
    n = rng.randint(1, n_max)
    graph = _random_mixed_hypergraph(rng, n, max_elements=4)
    k = rng.randint(1, 2)
    m = ExtendedHypergraphicMatroid(graph, k)
    samples = [frozenset(e for e in m.ground if rng.random() < 0.5) for _ in range(8)]
    for z in samples:
        greedy = m.rank(z)
        formula = m.rank_by_partition_formula(z, budget)
        if greedy != formula:
            detail = {
                "k": k,
                "subset": sorted(map(list, z)),
                "greedy_rank": greedy,
                "partition_formula": formula,
            }
            return Instance(graph=graph), False, True, detail
    return Instance(graph=graph), True, True, {"k": k, "samples": len(samples)}


# suite name -> (check, largest vertex count); the brute-force routes stay
# desk-sized no matter what the caller asks for
_SUITES = {
    "edmonds_oracle": (_check_edmonds_oracle, 3),
    "main_oracle": (_check_main_oracle, 3),
    "kiraly_gy": (_check_kiraly_gy, 4),
    "orient_reduction": (_check_orient_reduction, 3),
    "lemma1_main": (_check_lemma1_main, 3),
    "ksum_rank": (_check_ksum_rank, 3),
}
SUITES = tuple(_SUITES)


def run_suite(name: str, seed: int, count: int = 100, n_max: int = 4,
              cap: int | None = None, evaluator=evaluate) -> dict:
    """Run one differential suite; the report lists every mismatch with a
    replayable instance document."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    for arg, value in (("count", count), ("n_max", n_max)):
        if value < 1:
            raise ValueError(f"{arg} must be at least 1, not {value}")
    rng = random.Random(f"{seed}:{name}")
    check, size_limit = _SUITES[name]
    limit = min(n_max, size_limit)
    checked = 0
    skipped = 0
    mismatches = []
    for i in range(count):
        budget = Budget(cap) if cap is not None else Budget()
        try:
            inst, left, right, detail = check(rng, limit, budget, evaluator)
        except CapExceededError:
            skipped += 1
            continue
        checked += 1
        if left != right:
            names = default_names(inst.graph.n)
            mismatches.append({
                "id": i,
                "instance": instance_to_doc(inst, names),
                "left": left,
                "right": right,
                "detail": detail,
            })
    return {
        "suite": name,
        "seed": seed,
        "count": count,
        "n_max": limit,
        "checked": checked,
        "skipped": skipped,
        "mismatches": mismatches,
        "ok": not mismatches,
    }


def run_fuzz(seed: int, count: int = 100, n_max: int = 4,
             cap: int | None = None, suites=None, evaluator=evaluate) -> dict:
    """Run the requested suites (all by default) and combine their reports."""
    chosen = tuple(suites) if suites else SUITES
    reports = {}
    for name in chosen:
        reports[name] = run_suite(name, seed, count=count, n_max=n_max,
                                  cap=cap, evaluator=evaluator)
    return {
        "seed": seed,
        "count": count,
        "suites": reports,
        "ok": all(r["ok"] for r in reports.values()),
    }
