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
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .conditions import ConditionId, Instance, closed_extensions, component_masks, evaluate
from .setfuncs import SetFunctionOracle, check_intersecting_supermodular
from .structures import (
    HOLDS,
    Budget,
    MixedHypergraph,
    PropertyViolationError,
    Verdict,
    Witness,
    as_budget,
    entering_count,
    entering_mask,
    in_degree,
    in_degree_mask,
    induced_subgraph,
    mask_vertices,
    orient_all,
    reach_to,
    scc_condense,
    subset_masks,
    subsets,
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


def check_cover(g: MixedHypergraph, h: SetFunctionOracle, o: Orientation,
                cap: int | Budget | None = None) -> Verdict:
    """Does the orientation give every nonempty vertex set at least h(X)
    entering heads?"""
    budget = as_budget(cap)
    d = orient_all(g, o.heads)
    for x in subsets(range(g.n), include_empty=False, budget=budget):
        lhs, rhs = in_degree(d, x), h(x)
        if lhs < rhs:
            return Verdict(False, Witness("subset", (x,), lhs, rhs,
                                          "oriented in-degree below demand"))
    return HOLDS


def check_mixed_cover(f: MixedHypergraph, h: SetFunctionOracle, o: Orientation,
                      cap: int | Budget | None = None) -> Verdict:
    """Does the orientation give every vertex set at least h(X) - h(P^X)
    entering elements, dyperedges included?"""
    budget = as_budget(cap)
    d = orient_all(f, o.heads)
    for x in subsets(range(f.n), budget=budget):
        lhs = in_degree(d, x)
        rhs = h(x) - h(reach_to(f, x))
        if lhs < rhs:
            return Verdict(False, Witness("subset", (x,), lhs, rhs,
                                          "oriented in-degree below relative demand"))
    return HOLDS


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
    if g.dyperedges:
        raise ValueError("orientation cover needs an undirected (hyper)graph")
    if h(range(g.n)) != 0:
        raise PropertyViolationError("h must vanish on the whole vertex set")
    _require_intersecting_supermodular(h, budget)
    condition = evaluate(ConditionId.FRANK_ORIENT, Instance(graph=g, h=h), budget)
    if not condition:
        return condition

    m = len(g.hyperedges)
    # a set is decided once every hyperedge able to enter it has a head;
    # an oriented hyperedge enters x iff it enters x unoriented and its head
    # lies in x
    singles = [MixedHypergraph(g.n, (e,)) for e in g.hyperedges]
    buckets: list[list[tuple[int, int, list[int]]]] = [[] for _ in range(m + 1)]
    for x in subsets(range(g.n), include_empty=False):
        xm = vertex_mask(x)
        entering = [i for i, one in enumerate(singles) if entering_mask(one, (xm,))]
        buckets[entering[-1] + 1 if entering else 0].append((xm, h(x), entering))

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
    p, inside, outside = component_masks(f, c)
    table: dict[frozenset[int], tuple[int, frozenset[int]]] = {}
    closed: list[bool] = []
    for x in subset_masks(inside, False, budget):
        best: int | None = None
        best_y = x
        for y in closed_extensions(f, outside, x, budget, closed):
            val = h(mask_vertices(y)) - in_degree_mask(f, y)
            if best is None or val > best:
                best, best_y = val, y
        table[mask_vertices(x)] = (best, mask_vertices(best_y))
    return H2Witness(c, mask_vertices(p), table)


def mixed_orient(f: MixedHypergraph, h: SetFunctionOracle,
                 cap: int | Budget | None = None) -> Orientation | Verdict:
    """Orient the hyperedges of f so d^-(X) >= h(X) - h(P^X) for all X.

    Checks the per-component family condition first and returns its verdict
    when it fails.  Otherwise peels strongly connected components that
    nothing leaves, lifting h through compute_h2 and orienting each
    component's hyperedges with frank_orient; for small vertex sets the
    merged orientation is swept against the demand afterwards.
    """
    budget = as_budget(cap)
    if h(()) != 0:
        raise ValueError("h must vanish on the empty set")
    _require_intersecting_supermodular(h, budget)
    condition = evaluate(ConditionId.NEW_ORIENT, Instance(graph=f, h=h), budget)
    if not condition:
        return condition

    heads: list[int | None] = [None] * len(f.hyperedges)
    comps = scc_condense(f)
    active = frozenset(range(f.n))
    while active:
        c = next(
            comp for comp in comps
            if comp <= active and entering_count(f, (active - comp,)) == 0
        )
        p = reach_to(f, c)
        if not p <= active:
            raise PropertyViolationError("component closure escaped the active set")
        w = compute_h2(f, h, c, budget)
        base = h(p)
        if w.table[c][0] - base != 0:
            raise PropertyViolationError(
                "lifted demand of a whole component must vanish; "
                "h breaks its declared properties")
        order = sorted(c)
        # h2 already counts the dyperedges, so only the hyperedges are oriented
        sub, hmap, _ = induced_subgraph(f, c)
        local_graph = MixedHypergraph(sub.n, sub.hyperedges)

        def local_h(xl: frozenset[int], _w=w, _base=base, _order=order) -> int:
            if not xl:
                return 0
            xg = frozenset(_order[i] for i in xl)
            return _w.table[xg][0] - _base

        sub = frank_orient(local_graph, SetFunctionOracle(len(order), local_h, "h'"),
                           budget)
        if isinstance(sub, Verdict):
            raise PropertyViolationError(
                "component orientation condition failed inside a feasible "
                "instance; h breaks its declared properties")
        for local_idx, local_head in enumerate(sub.heads):
            heads[hmap[local_idx]] = order[local_head]
        active -= c

    if any(x is None for x in heads):
        raise PropertyViolationError("a hyperedge crosses component boundaries")
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
    if g.dyperedges:
        raise ValueError("the reduction starts from an undirected (hyper)graph")
    if g.n < 1:
        raise ValueError("need at least one vertex")
    if h(range(g.n)) != 0:
        raise PropertyViolationError("h must vanish on the whole vertex set")
    _require_intersecting_supermodular(h, budget)

    comps = scc_condense(g)
    k = len(comps)
    surplus = 0
    for x in subsets(range(g.n), include_empty=False, budget=budget):
        for y in subsets(sorted(frozenset(range(g.n)) - x), include_empty=False):
            budget.spend()
            surplus = max(surplus, h(x) + h(y) - h(x | y))
    m = max(k, surplus)
    s = g.n
    new_edges = [frozenset({s, min(comp)}) for comp in comps]
    new_edges += [frozenset({s, 0})] * (m - k)
    g2 = MixedHypergraph(g.n + 1, g.hyperedges + tuple(new_edges), ())

    def lifted(x: frozenset[int]) -> int:
        if x == frozenset({s}):
            return m
        return h(x - {s})

    h2 = SetFunctionOracle(g.n + 1, lifted, "h'")
    _require_intersecting_supermodular(h2, budget)
    return g2, h2
