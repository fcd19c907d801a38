"""Checkable packing and orientation conditions.

Each condition id names one characterization: a quantified family of linear
inequalities over a structure, evaluated exhaustively in a deterministic
order.  CONDITIONS holds one record per id and writes each inequality once:
evaluate() sweeps it and returns the first violated instance as a witness,
so repeated runs give identical certificates, and witness_violates()
recomputes the same inequality at a given witness.

The subset and subpartition sweeps run on vertex bit masks (bit v for
vertex v), and their value closures read masks; a witness carries its
member back as frozensets, and witness_violates() reads it forward to
masks, rejecting a payload the sweep could not have produced.  A subset
value states a ceiling its right side never exceeds (``SubsetValue``), and
``subset_sweep`` hands it only the subsets entered by fewer dyperedges,
with their in-degree, root count and reach computed directly, as a
witness's are.  A subpartition value reads entering from one table by
part (``part_entering``) and its union's terms once per union.
"""
from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterator
from enum import Enum
from typing import NamedTuple

from .gpoly import (
    MEMBER_WINDOW,
    ROOT_WINDOW,
    T_BOUNDS,
    T_POSITIVE,
    build_t,
    ground_subset_sides,
    ground_sweep,
    member_window,
    root_window,
)
from .matroids import FreeMatroid
from .structures import (
    HOLDS,
    Bounds,
    Budget,
    Instance,
    MixedHypergraph,
    Verdict,
    Witness,
    as_budget,
    check_inputs,
    entering_mask,
    in_degree_mask,
    is_int,
    low_bits,
    mask_bits,
    mask_sum,
    mask_vertices,
    part_entering,
    reach_to_mask,
    scc_condense,
    subpartition_masks,
    subset_masks,
    subset_sweep,
    vertex_mask,
)


class ConditionId(Enum):
    EDMONDS = "edmonds"
    FRANK_MIXED = "frank_mixed"
    KKT = "kkt"
    MT = "mt"
    DGNS = "dgns"
    KIRALY = "kiraly"
    GY_DIGRAPH = "gy_digraph"
    GY_MIXED = "gy_mixed"
    FRANK_ORIENT = "frank_orient"
    NEW_ORIENT = "new_orient"
    FRANK_CAI = "frank_cai"
    BERCZI_FRANK = "berczi_frank"
    FKK = "fkk"
    COR1 = "cor1"
    GY_FG = "gy_fg"
    HSZ = "hsz"
    MAIN = "main"
    LEMMA1B = "lemma1b"


def require_inputs(inst: Instance, cond: ConditionId) -> Condition:
    """The record of cond, once inst has everything it reads."""
    rec = CONDITIONS[cond]
    check_inputs(inst, cond.value, rec.graph, rec.needs, rec.bounds, rec.requires)
    return rec


# ---------------------------------------------------------------------------
# quantifiers: each sweep walks its ground in a fixed order, calls the value
# closure once per member and returns the first member with lhs < rhs

class Quantifier(NamedTuple):
    """A witness kind, the sweep that produces it, and how a witness payload
    reads back as the arguments of the value closure."""

    kind: str
    sweep: Callable[[Instance, Budget, Callable, str], Verdict]
    args: Callable[[Instance, tuple], tuple] = lambda inst, payload: payload


def _quantifier(kind, ground, out=lambda member: member,
                back=lambda inst, member: member) -> Quantifier:
    """Quantifier over the members ground(inst, budget) yields; a witness
    payload is the violating member alone, as out(member), and
    back(inst, payload member) reads it back."""

    def sweep(inst, budget, value, note) -> Verdict:
        for member in ground(inst, budget):
            lhs, rhs = value(member)
            if lhs < rhs:
                return Verdict(False, Witness(kind, (out(member),), lhs, rhs, note))
        return HOLDS

    def args(inst, payload) -> tuple:
        if len(payload) != 1:
            raise ValueError(f"a {kind} witness carries one member")
        return (back(inst, payload[0]),)

    return Quantifier(kind, sweep, args)


def _read_mask(inst: Instance, x, allowed: int, what: str) -> int:
    """The mask of a witness vertex set, every vertex in the mask allowed."""
    if not isinstance(x, (frozenset, set, tuple, list)):
        raise ValueError(f"witness member {x!r} is not a vertex set")
    mask = 0
    for v in x:
        if not (is_int(v) and 0 <= v < inst.graph.n and allowed >> v & 1):
            raise ValueError(f"witness vertex {v!r} is not {what}")
        mask |= 1 << v
    return mask


def _read_vertex(inst: Instance, v) -> int:
    """A witness vertex, one of 0..n-1."""
    if not (is_int(v) and 0 <= v < inst.graph.n):
        raise ValueError(f"witness member {v!r} is not a vertex")
    return v


class SubsetValue(NamedTuple):
    """A subset inequality: the (lhs, rhs) closure on X, its in-degree, root
    count and reach, and a ceiling no rhs exceeds, so a subset entered by at
    least ceiling dyperedges holds."""

    ceiling: int
    value: Callable[[int, int, int, int], tuple[int, int]]

    def __call__(self, *terms) -> tuple[int, int]:
        return self.value(*terms)


def _subset_quantifier(pool, include_empty: bool, what: str = "a vertex",
                       reach: bool = False) -> Quantifier:
    """Quantifier over the subsets X of pool(inst), a sorted vertex list, as
    masks; nonempty ones only unless include_empty.  The value is a
    SubsetValue; its closure reads X, its in-degree, its root count and, if
    reach is set, the mask of the vertices reaching it (0 if not).
    subset_sweep hands it only the subsets entered by fewer than its
    ceiling dyperedges, and the terms are computed on those alone."""

    def terms(inst, x) -> tuple:
        f = inst.graph
        return (x, in_degree_mask(f, x), mask_sum(inst.roots.counts, x),
                reach_to_mask(f, x) if reach else 0)

    def sweep(inst, budget, value, note) -> Verdict:
        failed = subset_sweep(inst.graph, [1 << v for v in pool(inst)], include_empty, budget,
                              value.ceiling, lambda x: value(*terms(inst, x)))
        if failed is None:
            return HOLDS
        x, lhs, rhs = failed
        return Verdict(False, Witness("subset", (mask_vertices(x),), lhs, rhs, note))

    def args(inst, payload) -> tuple:
        if len(payload) != 1:
            raise ValueError("a subset witness carries one member")
        x = _read_mask(inst, payload[0], vertex_mask(pool(inst)), what)
        if not (x or include_empty):
            raise ValueError("witness subset must be nonempty")
        return terms(inst, x)

    return Quantifier("subset", sweep, args)


def _read_parts(inst: Instance, parts, allowed: int = -1, what: str = "a vertex",
                trace: int = -1) -> tuple[int, ...]:
    """The masks of a tuple of witness vertex sets, each vertex in allowed,
    whose traces on the mask trace are nonempty and pairwise disjoint."""
    if not isinstance(parts, (tuple, list)):
        raise ValueError(f"witness member {parts!r} is not a tuple of parts")
    masks = tuple(_read_mask(inst, y, allowed, what) for y in parts)
    seen = 0
    for y in masks:
        if not y & trace or y & trace & seen:
            raise ValueError("witness parts must have nonempty, pairwise disjoint traces")
        seen |= y & trace
    return masks


def _global_sweep(inst, budget, value, note) -> Verdict:
    lhs, rhs = value()
    if lhs < rhs:
        return Verdict(False, Witness("global", (), lhs, rhs, note))
    return HOLDS


def quiet_extensions(f: MixedHypergraph, outside: list[int]) -> list[int]:
    """The subsets of outside (the bits of a component C's closure minus C,
    increasing) that nothing enters, as masks in subset order: the vertex
    masks Y in the closure meeting C in a trace X and with nothing entering
    Y - C are X plus each of them.  A caller spends one budget step per
    subset of outside and trace."""
    return [extra for extra in subset_masks(outside) if entering_mask(f, (extra,)) == 0]


def component_masks(f: MixedHypergraph, c: frozenset[int]
                    ) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The closure mask of component c, the bits of c and of the closure
    minus c, each increasing, and c's quiet extensions; built once per
    component and memoized on f."""
    memo = f._cache.setdefault("components", {})
    if c not in memo:
        inside = vertex_mask(c)
        closure = reach_to_mask(f, inside)
        outside = [1 << v for v in mask_bits(closure & ~inside)]
        memo[c] = (closure, tuple(1 << v for v in sorted(c)), tuple(outside),
                   tuple(quiet_extensions(f, outside)))
    return memo[c]


def _iter_component_families(
    f: MixedHypergraph, budget: Budget
) -> Iterator[tuple[frozenset[int], int, tuple[int, ...]]]:
    """Per strongly connected component C with closure P: every family of
    vertex masks in P whose members meet C in pairwise disjoint nonempty
    traces and whose parts outside C have nothing entering them: each
    member is its trace plus one of C's quiet extensions."""
    for c in scc_condense(f):
        p, inside, outside, quiet = component_masks(f, c)
        budget.spend(((1 << len(inside)) - 1) << len(outside))
        cands = {trace: [trace | extra for extra in quiet]
                 for trace in subset_masks(inside, include_empty=False)}
        for traces in subpartition_masks(inside, budget):
            if not traces:
                continue
            for choice in itertools.product(*(cands[t] for t in traces)):
                budget.spend()
                yield c, p, choice


def _iter_component_subsets(f: MixedHypergraph, budget: Budget):
    """One-member families: per component C with closure P, every vertex
    mask in P meeting C whose part outside C has nothing entering it."""
    for c in scc_condense(f):
        inside = vertex_mask(c)
        p = reach_to_mask(f, inside)
        for x in subset_masks([1 << v for v in mask_bits(p)], False, budget):
            if x & inside and in_degree_mask(f, x & ~inside) == 0:
                yield c, p, (x,)


def _family_sweep(families) -> Quantifier:
    """Quantifier over component families; the value closure reads the
    closure P and the family as masks, a witness payload is the component
    and the family as frozensets."""

    def sweep(inst, budget, value, note) -> Verdict:
        for c, p, family in families(inst.graph, budget):
            lhs, rhs = value(p, family)
            if lhs < rhs:
                return Verdict(False, Witness(
                    "component_family", (c, tuple(mask_vertices(z) for z in family)),
                    lhs, rhs, note))
        return HOLDS

    def args(inst, payload) -> tuple:
        """The closure and the family of a payload the sweep could produce."""
        c, family = payload
        f = inst.graph
        inside = _read_mask(inst, c, -1, "a vertex")
        if inside not in map(vertex_mask, scc_condense(f)):
            raise ValueError("witness component is not a strongly connected component")
        p = reach_to_mask(f, inside)
        family = _read_parts(inst, family, p, "in the component's closure", inside)
        if any(entering_mask(f, (z & ~inside,)) for z in family):
            raise ValueError("witness member has something entering it outside the component")
        return p, family

    return Quantifier("component_family", sweep, args)


_VERTEX = _quantifier("vertex", lambda inst, budget: range(inst.graph.n), back=_read_vertex)
_GLOBAL = Quantifier("global", _global_sweep)
_REACHED_SUBSETS = _subset_quantifier(lambda inst: range(inst.graph.n), True, reach=True)
_NONEMPTY_SUBSETS = _subset_quantifier(lambda inst: range(inst.graph.n), False)
_NON_ROOT_SUBSETS = _subset_quantifier(
    lambda inst: sorted(set(range(inst.graph.n)) - inst.roots.support()), False,
    "a vertex without roots")
_SUBPARTITIONS = _quantifier(
    "subpartition", lambda inst, budget: subpartition_masks(low_bits(inst.graph.n), budget),
    lambda parts: tuple(mask_vertices(y) for y in parts), _read_parts)
_COMPONENT_FAMILIES = _family_sweep(_iter_component_families)
_COMPONENT_SUBSETS = _family_sweep(_iter_component_subsets)
# the rank sweep of T's emptiness test names its own inequalities and notes
_T_GROUND = Quantifier("ground_subset", lambda inst, budget, value, note: ground_sweep(
    build_t(inst.graph, inst.bounds), budget))


# ---------------------------------------------------------------------------
# the inequalities: value(inst) builds the (lhs, rhs) closure a quantifier
# calls once per member of its ground

class Check(NamedTuple):
    """One quantified family of inequalities lhs >= rhs."""

    over: Quantifier
    value: Callable[[Instance], Callable[..., tuple[int, int]]]
    note: str


class Condition(NamedTuple):
    """What a condition reads and the checks that must all hold, run in
    order: vertex and global pre-checks first, the main sweep last."""

    graph: str  # a graph kind of check_inputs
    needs: tuple[str, ...]  # Instance fields among roots, matroid and h
    checks: tuple[Check, ...]
    bounds: tuple[str, ...] = ()  # Bounds fields that must be set
    requires: tuple[tuple[Callable[[Instance], bool], str], ...] = ()  # (test, what it needs)


# Subset and subpartition values read vertex masks.  A subset value reads
# X's in-degree d, root count and reach, and states the ceiling of its right
# side next to its inequality.  The parts of a subpartition are disjoint:
# their sum is their union, and the values read entering from a table by
# part and their union terms once per union.

def _edmonds(inst):
    total = inst.roots.size()
    return SubsetValue(total, lambda x, d, size, reach: (d, total - size))


def _frank_mixed(inst):
    s, entering = inst.roots, part_entering(inst.graph)
    size, total = functools.cache(functools.partial(mask_sum, s.counts)), s.size()
    return lambda parts: (entering(parts), total * len(parts) - size(sum(parts)))


def _kkt(inst):
    """Király's condition with the free matroid: a rank is a root count."""
    return _kiraly(Instance(inst.graph, inst.roots, FreeMatroid(inst.roots.copies())))


def _dgns(inst):
    rank = inst.roots.ranker(inst.matroid)
    full = rank((1 << inst.graph.n) - 1)
    return SubsetValue(full, lambda x, d, size, reach: (d, full - rank(x)))


def _kiraly(inst):
    rank = inst.roots.ranker(inst.matroid)
    return SubsetValue(rank((1 << inst.graph.n) - 1),
                       lambda x, d, size, reach: (d, rank(reach) - rank(x)))


def _family(f, member):
    """entering(family) against the sum of member(P, Z) over its members Z."""
    return lambda p, family: (entering_mask(f, family), sum(member(p, z) for z in family))


def _mt(inst):
    counts = inst.roots.counts
    return _family(inst.graph, lambda p, z: mask_sum(counts, p) - mask_sum(counts, z))


def _gy(inst):
    rank = inst.roots.ranker(inst.matroid)
    return _family(inst.graph, lambda p, z: rank(p) - rank(z))


def _frank_orient(inst):
    entering, h = part_entering(inst.graph), inst.h.at
    return lambda parts: (entering(parts), sum(h(y) for y in parts))


def _new_orient(inst):
    h = inst.h.at
    return _family(inst.graph, lambda p, z: h(z) - h(p))


def _bounded(slack, cap):
    """entering(P) >= k|P| - min(slack(V - U), cap(U)), U the union of P."""

    def value_of(inst):
        b, everything = inst.bounds, (1 << inst.graph.n) - 1
        entering = part_entering(inst.graph)
        forced = functools.cache(lambda union: min(slack(b, everything ^ union), cap(b, union)))
        return lambda parts: (entering(parts), b.k * len(parts) - forced(sum(parts)))

    return value_of


def _fkk(inst):
    k = inst.roots.size()
    return SubsetValue(k, lambda x, d, size, reach: (d, k))


def _cor1(inst):
    k = inst.bounds.k
    return SubsetValue(k, lambda x, d, size, reach: (d, k - size))


def _lemma1b(inst):
    return lambda *payload: ground_subset_sides(build_t(inst.graph, inst.bounds), payload)


def _g_sum(b, union):
    return mask_sum(b.g, union)


_FORCED = "elements entering vs forced roots"
_FG_BOUNDED = (
    Check(_VERTEX, lambda inst: lambda v: (inst.bounds.g[v], inst.bounds.f[v]),
          "upper root bound below lower"),
    Check(_SUBPARTITIONS, _bounded(lambda b, rest: b.k - b.f_sum(rest), _g_sum), _FORCED),
)
_LIMITED_PRECHECKS = (
    Check(_VERTEX, lambda inst: functools.partial(root_window, inst.bounds), ROOT_WINDOW),
    Check(_GLOBAL, lambda inst: functools.partial(member_window, inst.bounds, inst.graph.n),
          MEMBER_WINDOW),
)


def _limited(cap):
    return Check(_SUBPARTITIONS, _bounded(lambda b, rest: b.lprime - b.f_sum(rest), cap), _FORCED)


CONDITIONS: dict[ConditionId, Condition] = {
    ConditionId.EDMONDS: Condition("digraph", ("roots",), (
        Check(_NONEMPTY_SUBSETS, _edmonds, "arcs entering vs roots missing"),)),
    ConditionId.FRANK_MIXED: Condition("mixed_graph", ("roots",), (
        Check(_SUBPARTITIONS, _frank_mixed, "elements entering vs roots missing"),)),
    ConditionId.KKT: Condition("digraph", ("roots",), (
        Check(_REACHED_SUBSETS, _kkt, "arcs entering vs reaching roots missing"),)),
    ConditionId.MT: Condition("mixed_graph", ("roots",), (
        Check(_COMPONENT_FAMILIES, _mt, "elements entering vs reaching roots missing"),)),
    ConditionId.DGNS: Condition("digraph", ("roots", "matroid"), (
        Check(_NONEMPTY_SUBSETS, _dgns, "arcs entering vs rank deficiency"),)),
    ConditionId.KIRALY: Condition("digraph", ("roots", "matroid"), (
        Check(_REACHED_SUBSETS, _kiraly, "arcs entering vs reaching rank deficiency"),)),
    ConditionId.GY_DIGRAPH: Condition("digraph", ("roots", "matroid"), (
        Check(_COMPONENT_SUBSETS, _gy, "arcs entering vs component rank deficiency"),)),
    ConditionId.GY_MIXED: Condition("mixed_graph", ("roots", "matroid"), (
        Check(_COMPONENT_FAMILIES, _gy, "elements entering vs component rank deficiency"),)),
    ConditionId.FRANK_ORIENT: Condition("graph", ("h",), (
        Check(_SUBPARTITIONS, _frank_orient, "edges entering vs demanded in-degree"),),
        requires=((lambda inst: inst.h(range(inst.graph.n)) == 0, "h(V) = 0"),)),
    ConditionId.NEW_ORIENT: Condition("mixed_hypergraph", ("h",), (
        Check(_COMPONENT_FAMILIES, _new_orient, "elements entering vs demanded in-degree"),)),
    ConditionId.FRANK_CAI: Condition("digraph", (), _FG_BOUNDED, bounds=("f", "g", "k")),
    ConditionId.BERCZI_FRANK: Condition("digraph", (), _LIMITED_PRECHECKS + (
        _limited(_g_sum),), bounds=T_BOUNDS),
    ConditionId.FKK: Condition("dypergraph", ("roots",), (
        Check(_NON_ROOT_SUBSETS, _fkk, "dyperedges entering vs required connectivity"),),
        requires=((lambda inst: len(inst.roots.support()) == 1, "all roots on a single vertex"),)),
    ConditionId.COR1: Condition("dypergraph", ("roots",), (
        Check(_VERTEX, lambda inst: lambda v: (inst.bounds.k, inst.roots.count(v)),
              "more roots at a vertex than members"),
        Check(_NONEMPTY_SUBSETS, _cor1, "dyperedges entering vs roots missing"),
    ), bounds=("k",)),
    ConditionId.GY_FG: Condition("mixed_graph", (), _FG_BOUNDED, bounds=("f", "g", "k")),
    ConditionId.HSZ: Condition("mixed_hypergraph", (), _FG_BOUNDED, bounds=("f", "g", "k")),
    ConditionId.MAIN: Condition("mixed_hypergraph", (), _LIMITED_PRECHECKS + (
        _limited(Bounds.g_k_sum),), bounds=T_BOUNDS, requires=(T_POSITIVE,)),
    ConditionId.LEMMA1B: Condition("mixed_hypergraph", (), _LIMITED_PRECHECKS + (
        Check(_T_GROUND, _lemma1b, ""),),
        bounds=T_BOUNDS, requires=(T_POSITIVE,)),
}


def evaluate(cond: ConditionId | str, inst: Instance, cap: int | Budget | None = None) -> Verdict:
    """Evaluate one condition exhaustively; first violation becomes the witness."""
    cond = ConditionId(cond)
    budget = as_budget(cap)
    for check in require_inputs(inst, cond).checks:
        verdict = check.over.sweep(inst, budget, check.value(inst), check.note)
        if not verdict:
            return verdict
    return HOLDS


def witness_violates(cond: ConditionId | str, inst: Instance, witness: Witness) -> bool:
    """Recompute the inequality named by a witness; True iff it is violated."""
    cond = ConditionId(cond)
    for check in require_inputs(inst, cond).checks:
        if check.over.kind == witness.kind:
            lhs, rhs = check.value(inst)(*check.over.args(inst, witness.payload))
            return lhs < rhs
    raise ValueError(f"no inequality named {witness.kind!r} for {cond.value}")
