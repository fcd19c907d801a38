"""Orientation engines.

Two constructive routines: orienting a hypergraph so that every vertex set
receives at least h(X) heads, and orienting the hyperedges of a mixed
hypergraph so that every vertex set receives at least h(X) - h(P^X) heads
counting existing dyperedges, where P^X is the set of vertices reaching X.
The second reduces to the first one strongly connected component at a time
through the lifted function h2.  Both check their feasibility condition
first and return the violating certificate instead of searching when it
fails; both verify h's declared supermodularity eagerly on small vertex
sets and trust the declaration above that.
Inside, vertex sets are bit masks and h is read by mask (``h.at``);
witnesses and the lifted table of ``compute_h2`` carry frozensets.  The
cover checks run ``subset_sweep`` on the oriented graph with the largest
demand over the subsets the budget reaches as its ceiling, so only the
subsets entered by fewer elements are checked.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

from .conditions import ConditionId, Instance, component_masks, evaluate, require_inputs
from .setfuncs import SetFunctionOracle, check_intersecting_supermodular
from .structures import (
    HOLDS,
    Budget,
    MixedHypergraph,
    PropertyViolationError,
    Verdict,
    Witness,
    as_budget,
    in_degree_mask,
    induced_subgraph,
    low_bits,
    mask_vertices,
    orient_all,
    reach_to_mask,
    scc_condense,
    subset_masks,
    subset_sweep,
    vertex_mask,
)

_VERIFY_SUPERMOD_LIMIT = 8
_VERIFY_SWEEP_LIMIT = 12


@dataclass(frozen=True)
class Orientation:
    """One chosen head per hyperedge, in hyperedge index order."""

    heads: tuple[int, ...]


@dataclass
class H2Witness:
    """Lifted demand function of one component.

    table maps every nonempty subset X of the component to (value, Y) where
    Y attains value = max over Y with Y in the closure, Y meeting the
    component exactly in X and nothing entering Y outside the component,
    of h(Y) minus the dyperedge in-degree of Y.
    """

    component: frozenset[int]
    closure: frozenset[int]
    table: dict[frozenset[int], tuple[int, frozenset[int]]]


def orientation_space(f: MixedHypergraph):
    """Every head assignment, lexicographic in per-hyperedge vertex order."""
    return itertools.product(*(sorted(e) for e in f.hyperedges))


def _cover(f: MixedHypergraph, o: Orientation, cap: int | Budget | None, include_empty: bool,
           demand: Callable[[int], int], note: str) -> Verdict:
    """Does the orientation give every vertex mask x (nonempty ones only
    unless include_empty) at least demand(x) entering elements?  The
    ceiling of the sweep is the largest demand over the masks the budget
    reaches, read in sweep order; a mask past the budget is never reported."""
    budget, g, bits = as_budget(cap), orient_all(f, o.heads), low_bits(f.n)
    reached = itertools.islice(subset_masks(bits, include_empty), max(budget.remaining, 0))
    failed = subset_sweep(g, bits, include_empty, budget, max(map(demand, reached), default=0),
                          lambda x: (in_degree_mask(g, x), demand(x)))
    if failed is None:
        return HOLDS
    x, lhs, rhs = failed
    return Verdict(False, Witness("subset", (mask_vertices(x),), lhs, rhs, note))


def check_cover(g: MixedHypergraph, h: SetFunctionOracle, o: Orientation,
                cap: int | Budget | None = None) -> Verdict:
    """Does the orientation give every nonempty vertex set at least h(X)
    entering heads?"""
    return _cover(g, o, cap, False, h.at, "oriented in-degree below demand")


def check_mixed_cover(f: MixedHypergraph, h: SetFunctionOracle, o: Orientation,
                      cap: int | Budget | None = None) -> Verdict:
    """Does the orientation give every vertex set at least h(X) - h(P^X)
    entering elements, dyperedges included?"""
    return _cover(f, o, cap, True, lambda x: h.at(x) - h.at(reach_to_mask(f, x)),
                  "oriented in-degree below relative demand")


def _require_intersecting_supermodular(h: SetFunctionOracle, budget: Budget) -> None:
    if h.n > _VERIFY_SUPERMOD_LIMIT:
        return
    bad = check_intersecting_supermodular(h, budget)
    if bad:
        x, y = bad
        raise PropertyViolationError(
            f"h is not intersecting supermodular at {sorted(x)}, {sorted(y)}")


def frank_orient(g: MixedHypergraph, h: SetFunctionOracle,
                 cap: int | Budget | None = None) -> Orientation | Verdict:
    """Orient every hyperedge of g so that d^-(X) >= h(X) for all X.

    Possible exactly when every subpartition catches enough hyperedges,
    which is checked first; on failure the violating subpartition comes
    back as the verdict.  The search is backtracking over head choices,
    abandoning a partial assignment as soon as a fully decided vertex set
    falls short.
    """
    budget = as_budget(cap)
    require_inputs(Instance(graph=g, h=h), ConditionId.FRANK_ORIENT)
    _require_intersecting_supermodular(h, budget)
    condition = evaluate(ConditionId.FRANK_ORIENT, Instance(graph=g, h=h), budget)
    if not condition:
        return condition

    m = len(g.hyperedges)
    # a set is decided once every hyperedge able to enter it has a head;
    # an oriented hyperedge enters x iff it meets x and its complement and
    # its head lies in x
    buckets: list[list[tuple[int, int, list[int]]]] = [[] for _ in range(m + 1)]
    for x in subset_masks(low_bits(g.n), False):
        entering = [i for i, e in enumerate(g.hyperedge_masks) if e & x and e & ~x]
        buckets[entering[-1] + 1 if entering else 0].append((x, h.at(x), entering))

    heads: list[int] = []

    def search(t: int) -> bool:
        for x, demand, entering in buckets[t]:
            budget.spend()
            if sum(x >> heads[i] & 1 for i in entering) < demand:
                return False
        if t == m:
            return True
        for head in sorted(g.hyperedges[t]):
            budget.spend()
            heads.append(head)
            if search(t + 1):
                return True
            heads.pop()
        return False

    if not search(0):
        raise PropertyViolationError(
            "cover condition holds but no orientation was found; "
            "h breaks its declared properties")
    return Orientation(tuple(heads))


def compute_h2(f: MixedHypergraph, h: SetFunctionOracle, c: frozenset[int],
               cap: int | Budget | None = None) -> H2Witness:
    """Lift h onto a strongly connected component.

    For nonempty X inside the component, the value is the best h(Y) minus
    dyperedge in-degree of Y over all Y inside the component's closure
    whose trace on the component is X and whose part outside the component
    has nothing entering it.  Y = X always qualifies, so the maximum
    exists; the first maximizer in canonical order is recorded.
    """
    budget = as_budget(cap)
    p, inside, outside, quiet = component_masks(f, c)
    steps = 1 << len(outside)
    table: dict[frozenset[int], tuple[int, frozenset[int]]] = {}
    for x in subset_masks(inside, False, budget):
        budget.spend(steps)
        val, y = max(((h.at(y) - in_degree_mask(f, y), y) for y in map(x.__or__, quiet)),
                     key=lambda pair: pair[0])
        table[mask_vertices(x)] = (val, mask_vertices(y))
    return H2Witness(c, mask_vertices(p), table)


def mixed_orient(f: MixedHypergraph, h: SetFunctionOracle,
                 cap: int | Budget | None = None) -> Orientation | Verdict:
    """Orient the hyperedges of f so d^-(X) >= h(X) - h(P^X) for all X.

    Checks the per-component family condition first and returns its verdict
    when it fails.  Otherwise orients one strongly connected component at a
    time, sinks first (scc_condense is topologically ordered), lifting h
    through compute_h2 and orienting the component's hyperedges with
    frank_orient.  Both read only the component and its closure, so the
    order fixes no head.  For small vertex sets the merged orientation is
    swept against the demand afterwards.
    """
    budget = as_budget(cap)
    if h.at(0) != 0:
        raise ValueError("h must vanish on the empty set")
    _require_intersecting_supermodular(h, budget)
    condition = evaluate(ConditionId.NEW_ORIENT, Instance(graph=f, h=h), budget)
    if not condition:
        return condition

    # scc_condense keeps every hyperedge inside one component, so the loop
    # sets every head
    heads: list[int | None] = [None] * len(f.hyperedges)
    for c in reversed(scc_condense(f)):
        w = compute_h2(f, h, c, budget)
        base = h.at(vertex_mask(w.closure))
        if w.table[c][0] - base != 0:
            raise PropertyViolationError(
                "lifted demand of a whole component must vanish; "
                "h breaks its declared properties")
        order = sorted(c)
        # h2 already counts the dyperedges, so only the hyperedges are oriented
        sub, hmap, _ = induced_subgraph(f, c)
        local_graph = MixedHypergraph(sub.n, sub.hyperedges)
        local_h = {frozenset(map(order.index, x)): val - base for x, (val, _) in w.table.items()}
        sub = frank_orient(local_graph, SetFunctionOracle.from_table(len(order), local_h, "h'"),
                           budget)
        if isinstance(sub, Verdict):
            raise PropertyViolationError(
                "component orientation condition failed inside a feasible "
                "instance; h breaks its declared properties")
        for local_idx, local_head in enumerate(sub.heads):
            heads[hmap[local_idx]] = order[local_head]

    result = Orientation(tuple(heads))
    if f.n <= _VERIFY_SWEEP_LIMIT:
        verdict = check_mixed_cover(f, h, result, budget)
        if not verdict:
            raise PropertyViolationError(
                "constructed orientation misses a demand; "
                "h breaks its declared properties")
    return result


def reduce_frank_to_new(g: MixedHypergraph, h: SetFunctionOracle,
                        cap: int | Budget | None = None
                        ) -> tuple[MixedHypergraph, SetFunctionOracle]:
    """Recast an in-degree cover instance as a relative-demand instance.

    Adds a new vertex s (index g.n) joined by m = max(component count,
    largest supermodularity surplus over disjoint pairs) edges: one to the
    smallest vertex of each component, the rest to vertex 0.  The lifted h'
    gives s itself demand m and otherwise ignores s.  Orienting the result
    and deleting s solves the original instance.
    """
    budget = as_budget(cap)
    require_inputs(Instance(graph=g, h=h), ConditionId.FRANK_ORIENT)
    if g.n < 1:
        raise ValueError("need at least one vertex")
    _require_intersecting_supermodular(h, budget)

    comps = scc_condense(g)
    k = len(comps)
    surplus = 0
    bits = low_bits(g.n)
    for x in subset_masks(bits, False, budget):
        for y in subset_masks([b for b in bits if not b & x], False):
            budget.spend()
            surplus = max(surplus, h.at(x) + h.at(y) - h.at(x | y))
    m = max(k, surplus)
    s = g.n
    new_edges = [frozenset({s, min(comp)}) for comp in comps]
    new_edges += [frozenset({s, 0})] * (m - k)
    g2 = MixedHypergraph(g.n + 1, g.hyperedges + tuple(new_edges), ())

    h2 = SetFunctionOracle(g.n + 1, lambda x: m if x == {s} else h(x - {s}), "h'")
    _require_intersecting_supermodular(h2, budget)
    return g2, h2
