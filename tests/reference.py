"""Reference code only the tests read: the generic g-polymatroid toolkit,
the component projection of a vertex set, the condition sweeps as they
were before ``subset_sweep`` and ``part_entering``, the subset walk that
folded every subset's terms from the subset one size smaller, the
recursive partition walk, and
component peeling as it was before ``quiet_extensions`` and the sinks-first
orientation loop.

A g-polymatroid Q(p, b) is the set of vectors x with p(Z) <= x(Z) <= b(Z)
for every subset Z of the ground, where p is supermodular, b is submodular
and the pair satisfies the cross-inequality.  Planks constrain the total
coordinate sum.  The library computes the packing polyhedron T's pieces in
closed form (``TPolyhedron.pair``); the toolkit here is what those pieces
and ``gpoly.check_axioms`` are cross-checked against.
"""
from __future__ import annotations

import collections
import itertools
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

from arbopack.conditions import (_COMPONENT_FAMILIES, ConditionId, Instance, _family_sweep,
                                 component_masks, require_inputs)
from arbopack.orientation import (_VERIFY_SWEEP_LIMIT, H2Witness, Orientation,
                                  _require_intersecting_supermodular, check_mixed_cover,
                                  frank_orient)
from arbopack.setfuncs import SetFunctionOracle
from arbopack.structures import (
    HOLDS,
    Bounds,
    Budget,
    MixedHypergraph,
    PropertyViolationError,
    Verdict,
    Witness,
    as_budget,
    entering_mask,
    in_degree,
    in_degree_mask,
    induced_subgraph,
    low_bits,
    mask_bits,
    mask_sum,
    mask_vertices,
    reach_to,
    reach_to_mask,
    scc_condense,
    subpartition_masks,
    subset_masks,
    subsets,
    vertex_mask,
)


class GPoly:
    """Q(p, b) given by two subset oracles, asked on every evaluation."""

    def __init__(self, ground: Iterable, p: Callable[[frozenset], int],
                 b: Callable[[frozenset], int], label: str = ""):
        self.ground = tuple(ground)
        self.ground_set = frozenset(self.ground)
        self.label = label
        self._p_fn, self._b_fn = p, b

    def _check(self, zs: Iterable) -> frozenset:
        z = frozenset(zs)
        if z - self.ground_set:
            raise ValueError("subset uses elements not in the ground")
        return z

    def p(self, zs: Iterable) -> int:
        return int(self._p_fn(self._check(zs)))

    def b(self, zs: Iterable) -> int:
        return int(self._b_fn(self._check(zs)))


@dataclass(frozen=True)
class Plank:
    """Constraint alpha <= x(ground) <= beta on the coordinate sum."""

    alpha: int
    beta: int


def intersect_plank(q: GPoly, k: Plank, cap: int | Budget | None = None) -> GPoly | None:
    """Intersection of a g-polymatroid with a plank.

    Nonempty iff p <= b pointwise, alpha <= beta, p(S) <= beta and
    alpha <= b(S); then the result is the g-polymatroid with
    p'(Z) = max(p(Z), alpha - b(S-Z)) and b'(Z) = min(b(Z), beta - p(S-Z)).
    Returns None when empty.
    """
    budget = as_budget(cap)
    s = q.ground_set
    for z in subsets(q.ground, budget=budget):
        if q.p(z) > q.b(z):
            return None
    if k.alpha > k.beta or q.p(s) > k.beta or k.alpha > q.b(s):
        return None

    def p2(z: frozenset) -> int:
        return max(q.p(z), k.alpha - q.b(s - z))

    def b2(z: frozenset) -> int:
        return min(q.b(z), k.beta - q.p(s - z))

    return GPoly(q.ground, p2, b2, label=f"{q.label}&plank")


def minkowski_sum(summands: Iterable[GPoly]) -> GPoly:
    """Sum of g-polymatroids: add the functions pointwise on a common
    ground, or blockwise on pairwise disjoint grounds."""
    qs = list(summands)
    if not qs:
        raise ValueError("need at least one summand")
    if any(q is None for q in qs):
        raise ValueError("empty summand")
    grounds = [q.ground_set for q in qs]
    if all(g == grounds[0] for g in grounds):
        ground = qs[0].ground

        def p(z: frozenset) -> int:
            return sum(q.p(z) for q in qs)

        def b(z: frozenset) -> int:
            return sum(q.b(z) for q in qs)

        return GPoly(ground, p, b, label="sum")
    union: set = set()
    for g in grounds:
        if g & union:
            raise ValueError("grounds must be common or pairwise disjoint")
        union |= g
    ground = tuple(e for q in qs for e in q.ground)

    def p(z: frozenset) -> int:
        return sum(q.p(z & g) for q, g in zip(qs, grounds))

    def b(z: frozenset) -> int:
        return sum(q.b(z & g) for q, g in zip(qs, grounds))

    return GPoly(ground, p, b, label="sum")


def gpoly_contains(q: GPoly, x: dict, cap: int | Budget | None = None) -> bool:
    """Membership of an integer vector (element -> value) in Q(p, b)."""
    budget = as_budget(cap)
    for z in subsets(q.ground, budget=budget):
        total = sum(x.get(e, 0) for e in z)
        if not q.p(z) <= total <= q.b(z):
            return False
    return True


def scc_projection(
    f: MixedHypergraph, x: frozenset[int]
) -> tuple[tuple[frozenset[int], frozenset[int]], ...]:
    """Split a vertex set along strongly connected components.

    For every component C meeting x, the projected set keeps x's trace on C
    and absorbs the full closure of every other met component that reaches C.
    Each projected set lies in its component's closure, meets the component,
    and nothing enters the part outside the component.
    """
    comps = scc_condense(f)
    closures = [reach_to(f, c) for c in comps]
    met = [j for j, c in enumerate(comps) if x & c]
    out = []
    for j in met:
        xj = x & comps[j]
        for i in met:
            if i != j and comps[i] <= closures[j]:
                xj |= closures[i]
        if not (xj <= closures[j] and xj & comps[j] and in_degree(f, xj - comps[j]) == 0):
            raise AssertionError("projection postcondition failed")
        out.append((comps[j], xj))
    return tuple(out)


# ---------------------------------------------------------------------------
# the subset and subpartition checks as swept before subset_sweep and
# part_entering: each member's terms computed on their own

def _edmonds(inst):
    f, s, total = inst.graph, inst.roots, inst.roots.size()
    return lambda x: (in_degree_mask(f, x), total - mask_sum(s.counts, x))


def _kkt(inst):
    f, s = inst.graph, inst.roots
    return lambda x: (in_degree_mask(f, x),
                      mask_sum(s.counts, reach_to_mask(f, x)) - mask_sum(s.counts, x))


def _dgns(inst):
    f, rank = inst.graph, inst.roots.ranker(inst.matroid)
    full = rank((1 << f.n) - 1)
    return lambda x: (in_degree_mask(f, x), full - rank(x))


def _kiraly(inst):
    f, rank = inst.graph, inst.roots.ranker(inst.matroid)
    return lambda x: (in_degree_mask(f, x), rank(reach_to_mask(f, x)) - rank(x))


def _fkk(inst):
    f, k = inst.graph, inst.roots.size()
    return lambda x: (in_degree_mask(f, x), k)


def _cor1(inst):
    f, s, k = inst.graph, inst.roots, inst.bounds.k
    return lambda x: (in_degree_mask(f, x), k - mask_sum(s.counts, x))


def _frank_mixed(inst):
    f, s, total = inst.graph, inst.roots, inst.roots.size()
    return lambda parts: (entering_mask(f, parts),
                          total * len(parts) - mask_sum(s.counts, sum(parts)))


def _frank_orient(inst):
    f, h = inst.graph, inst.h.at
    return lambda parts: (entering_mask(f, parts), sum(h(y) for y in parts))


def _bounded(slack, cap):
    """entering(P) >= k|P| - min(slack(V - U), cap(U)), U the union of P."""

    def value_of(inst):
        f, b = inst.graph, inst.bounds
        everything = (1 << f.n) - 1

        def value(parts):
            union = sum(parts)
            return (entering_mask(f, parts),
                    b.k * len(parts) - min(slack(b, everything ^ union), cap(b, union)))

        return value

    return value_of


def _all(inst):
    return range(inst.graph.n)


def _non_roots(inst):
    return sorted(set(range(inst.graph.n)) - inst.roots.support())


_FG = _bounded(lambda b, rest: b.k - b.f_sum(rest), lambda b, union: mask_sum(b.g, union))
# condition -> (pool, include_empty, value) of its subset check
SUBSET_CHECKS = {
    ConditionId.EDMONDS: (_all, False, _edmonds),
    ConditionId.KKT: (_all, True, _kkt),
    ConditionId.DGNS: (_all, False, _dgns),
    ConditionId.KIRALY: (_all, True, _kiraly),
    ConditionId.FKK: (_non_roots, False, _fkk),
    ConditionId.COR1: (_all, False, _cor1),
}
# condition -> value of its subpartition check
SUBPARTITION_CHECKS = {
    ConditionId.FRANK_MIXED: _frank_mixed,
    ConditionId.FRANK_ORIENT: _frank_orient,
    ConditionId.FRANK_CAI: _FG,
    ConditionId.GY_FG: _FG,
    ConditionId.HSZ: _FG,
    ConditionId.BERCZI_FRANK: _bounded(lambda b, rest: b.lprime - b.f_sum(rest),
                                       lambda b, union: mask_sum(b.g, union)),
    ConditionId.MAIN: _bounded(lambda b, rest: b.lprime - b.f_sum(rest), Bounds.g_k_sum),
}


def _first_violation(members, value, kind, out, note) -> Verdict:
    for member in members:
        lhs, rhs = value(member)
        if lhs < rhs:
            return Verdict(False, Witness(kind, (out(member),), lhs, rhs, note))
    return HOLDS


def reference_evaluate(cond: ConditionId | str, inst, cap: int | Budget | None = None) -> Verdict:
    """evaluate() with the subset checks swept over subset_masks() and the
    subpartition checks over subpartition_masks(), through the closures
    above, and the component family checks over iter_component_families
    below; every other check runs as in CONDITIONS."""
    cond = ConditionId(cond)
    budget = as_budget(cap)
    for check in require_inputs(inst, cond).checks:
        if check.over.kind == "subset":
            pool, include_empty, value = SUBSET_CHECKS[cond]
            masks = subset_masks([1 << v for v in pool(inst)], include_empty, budget)
            verdict = _first_violation(masks, value(inst), "subset", mask_vertices, check.note)
        elif check.over.kind == "subpartition":
            verdict = _first_violation(
                subpartition_masks(low_bits(inst.graph.n), budget), SUBPARTITION_CHECKS[cond](inst),
                "subpartition", lambda parts: tuple(map(mask_vertices, parts)), check.note)
        elif check.over is _COMPONENT_FAMILIES:
            verdict = _FAMILIES.sweep(inst, budget, check.value(inst), check.note)
        else:
            verdict = check.over.sweep(inst, budget, check.value(inst), check.note)
        if not verdict:
            return verdict
    return HOLDS


# ---------------------------------------------------------------------------
# the subset walk before the bit-parallel sweep: every mask in order, its
# terms folded from the subset one size smaller

def _incidence(f: MixedHypergraph) -> tuple[tuple[tuple[int, ...], ...],
                                            tuple[tuple[tuple[int, int], ...], ...]]:
    """Per vertex v, the tail masks of the dyperedges into v, and the (tail
    mask, head bit) pairs of the dyperedges with v among their tails."""
    into: list[list[int]] = [[] for _ in range(f.n)]
    leaving: list[list[tuple[int, int]]] = [[] for _ in range(f.n)]
    for tails, head in f.dyperedge_masks:
        into[head.bit_length() - 1].append(tails)
        for y in mask_bits(tails):
            leaving[y].append((tails, head))
    return tuple(map(tuple, into)), tuple(map(tuple, leaving))


def folded_subset_sweep(f: MixedHypergraph, bits, include_empty: bool, budget: Budget,
                        weights=None, spread=None) -> Iterator[tuple[int, int, int, int]]:
    """The masks of subset_masks(bits, include_empty, budget), in its order
    and with its steps, each X as (X, in_degree_mask(f, X), mask_sum(weights,
    X), mask_union(spread, X)); weights and spread default to zeros.

    The walk is breadth first, so it goes one size level at a time.  A
    queue holds (X, the index past X's top bit, X's terms) in sweep order;
    X's children X | bits[j], j from that index on, are visited when X
    leaves the queue and join it in the same order.  A child's terms are
    X's with its new vertex v added inline: in-degree gains the dyperedges
    into v with a tail outside the child and loses those out of v with
    their head and every tail in it, the weight adds weights[v] and the
    spread ORs in spread[v].
    """
    into, leaving = _incidence(f)
    weights, spread = weights or (0,) * f.n, spread or (0,) * f.n
    steps = [(bit, into[v], leaving[v], weights[v], spread[v], j + 1)
             for j, bit in enumerate(bits) for v in (bit.bit_length() - 1,)]
    last = len(steps)
    if include_empty:
        budget.spend()
        yield 0, 0, 0, 0
    queue = collections.deque([(0, 0, 0, 0, 0)])
    while queue:
        parent, start, degree, weight, reach = queue.popleft()
        for bit, tails_in, tails_out, vweight, vreach, after in steps[start:]:
            x = parent | bit
            out = ~x
            d = degree
            for tails in tails_in:
                if tails & out:
                    d += 1
            for tails, head in tails_out:
                if head & x and not tails & out:
                    d -= 1
            w, r = weight + vweight, reach | vreach
            budget.spend()
            yield x, d, w, r
            if after < last:
                queue.append((x, after, d, w, r))


def recursive_partition_masks(bits, budget: Budget | None = None) -> Iterator[tuple[int, ...]]:
    """structures.partition_masks as the recursive walk it was: item i
    joins each open block in turn, then opens a new one."""
    n = len(bits)
    blocks: list[int] = []

    def place(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            if budget is not None:
                budget.spend()
            yield tuple(blocks)
            return
        bit = bits[i]
        for j in range(len(blocks)):
            blocks[j] |= bit
            yield from place(i + 1)
            blocks[j] ^= bit
        blocks.append(bit)
        yield from place(i + 1)
        blocks.pop()

    return place(0)


# ---------------------------------------------------------------------------
# component peeling as it was before quiet_extensions and the sinks-first
# loop: each trace tests the outside subsets through a shared memo, and
# mixed_orient searches every round for a component nothing remaining enters

def closed_extensions(f: MixedHypergraph, outside: list[int], trace: int,
                      budget: Budget, closed: list[bool]) -> Iterator[int]:
    """trace plus each subset of outside that nothing enters, in subset
    order; one budget step per subset.  closed[i] says whether nothing
    enters the i-th subset, filled by the first trace that reaches it."""
    for i, extra in enumerate(subset_masks(outside)):
        budget.spend()
        if i == len(closed):
            closed.append(entering_mask(f, (extra,)) == 0)
        if closed[i]:
            yield trace | extra


def iter_component_families(f: MixedHypergraph, budget: Budget):
    """conditions._iter_component_families over closed_extensions."""
    for c in scc_condense(f):
        p, inside, outside, _ = component_masks(f, c)
        closed: list[bool] = []
        cands = {trace: list(closed_extensions(f, outside, trace, budget, closed))
                 for trace in subset_masks(inside, include_empty=False)}
        for traces in subpartition_masks(inside, budget):
            if not traces:
                continue
            for choice in itertools.product(*(cands[t] for t in traces)):
                budget.spend()
                yield c, p, choice


_FAMILIES = _family_sweep(iter_component_families)


def compute_h2(f: MixedHypergraph, h, c: frozenset[int], cap: int | Budget | None = None):
    """orientation.compute_h2 over closed_extensions."""
    budget = as_budget(cap)
    p, inside, outside, _ = component_masks(f, c)
    table = {}
    closed: list[bool] = []
    for x in subset_masks(inside, False, budget):
        val, y = max(((h.at(y) - in_degree_mask(f, y), y)
                      for y in closed_extensions(f, outside, x, budget, closed)),
                     key=lambda pair: pair[0])
        table[mask_vertices(x)] = (val, mask_vertices(y))
    return H2Witness(c, mask_vertices(p), table)


def mixed_orient(f: MixedHypergraph, h, cap: int | Budget | None = None):
    """orientation.mixed_orient peeling, each round, the first component in
    scc_condense order that nothing in the remaining vertices enters."""
    budget = as_budget(cap)
    if h.at(0) != 0:
        raise ValueError("h must vanish on the empty set")
    _require_intersecting_supermodular(h, budget)
    condition = reference_evaluate(ConditionId.NEW_ORIENT, Instance(graph=f, h=h), budget)
    if not condition:
        return condition

    heads: list[int | None] = [None] * len(f.hyperedges)
    comps = [(comp, vertex_mask(comp)) for comp in scc_condense(f)]
    active = (1 << f.n) - 1
    while active:
        c, inside = next(
            (comp, mask) for comp, mask in comps
            if not mask & ~active and entering_mask(f, (active & ~mask,)) == 0
        )
        p = reach_to_mask(f, inside)
        if p & ~active:
            raise PropertyViolationError("component closure escaped the active set")
        w = compute_h2(f, h, c, budget)
        base = h.at(p)
        if w.table[c][0] - base != 0:
            raise PropertyViolationError(
                "lifted demand of a whole component must vanish; "
                "h breaks its declared properties")
        order = sorted(c)
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
        active &= ~inside

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
