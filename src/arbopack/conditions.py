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
masks, rejecting a payload the sweep could not have produced.
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
    in_degree,
    in_degree_mask,
    low_bits,
    mask_bits,
    mask_sum,
    mask_vertices,
    reach_to,
    reach_to_mask,
    scc_condense,
    subpartition_masks,
    subset_masks,
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


def _need(inst: Instance, cond: ConditionId) -> Condition:
    """The record of cond, once inst has everything it reads."""
    rec = CONDITIONS[cond]
    check_inputs(inst, cond.value, rec.graph, rec.needs, rec.bounds, rec.requires)
    return rec


def _root_rank(inst: Instance) -> Callable[[int], int]:
    """The matroid rank of the root copies on a vertex mask, cached for one
    evaluation per trace of the mask on the roots' support: the rank reads
    only those copies, and no matroid rank spends budget."""
    s, m = inst.roots, inst.matroid
    support = vertex_mask(s.support())
    table: dict[int, int] = {}

    def rank(x: int) -> int:
        key = x & support
        got = table.get(key)
        if got is None:
            got = table[key] = m.rank(s.restrict(mask_bits(key)))
        return got

    return rank


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
        if not (isinstance(v, int) and 0 <= v < inst.graph.n and allowed >> v & 1):
            raise ValueError(f"witness vertex {v!r} is not {what}")
        mask |= 1 << v
    return mask


def _subset_quantifier(pool, include_empty: bool, what: str = "a vertex") -> Quantifier:
    """Quantifier over the subsets of pool(inst), a sorted vertex list, as
    masks; nonempty ones only unless include_empty."""

    def back(inst, x) -> int:
        mask = _read_mask(inst, x, vertex_mask(pool(inst)), what)
        if not (mask or include_empty):
            raise ValueError("witness subset must be nonempty")
        return mask

    return _quantifier("subset", lambda inst, budget: subset_masks(
        [1 << v for v in pool(inst)], include_empty, budget), mask_vertices, back)


def _read_subpartition(inst: Instance, parts) -> tuple[int, ...]:
    """The masks of a witness subpartition's parts, nonempty and disjoint."""
    if not isinstance(parts, (tuple, list)):
        raise ValueError(f"witness member {parts!r} is not a tuple of parts")
    masks = tuple(_read_mask(inst, y, -1, "a vertex") for y in parts)
    seen = 0
    for y in masks:
        if not y or y & seen:
            raise ValueError("witness parts must be nonempty and pairwise disjoint")
        seen |= y
    return masks


def _global_sweep(inst, budget, value, note) -> Verdict:
    lhs, rhs = value()
    if lhs < rhs:
        return Verdict(False, Witness("global", (), lhs, rhs, note))
    return HOLDS


def closed_extensions(f: MixedHypergraph, outside: list[int], trace: int,
                      budget: Budget, closed: list[bool]) -> Iterator[int]:
    """The vertex masks Y in a component's closure that meet the component
    C in the mask trace and have nothing entering Y - C: trace plus each
    subset of outside (the bits of the closure minus C, increasing) that
    nothing enters, in subset order; one budget step per subset.
    closed[i] says whether nothing enters the i-th subset; the traces of
    one component share the list, so each subset is tested once, by the
    first trace that reaches it."""
    for i, extra in enumerate(subset_masks(outside)):
        budget.spend()
        if i == len(closed):
            closed.append(entering_mask(f, (extra,)) == 0)
        if closed[i]:
            yield trace | extra


def component_masks(f: MixedHypergraph, c: frozenset[int]) -> tuple[int, list[int], list[int]]:
    """The closure mask of component c, then the bits of c and of the
    closure minus c, each increasing."""
    inside = vertex_mask(c)
    closure = reach_to_mask(f, inside)
    return closure, [1 << v for v in sorted(c)], [1 << v for v in mask_bits(closure & ~inside)]


def _iter_component_families(
    f: MixedHypergraph, budget: Budget
) -> Iterator[tuple[frozenset[int], int, tuple[int, ...]]]:
    """Per strongly connected component C with closure P: every family of
    vertex masks in P whose members meet C in pairwise disjoint nonempty
    traces and whose parts outside C have nothing entering them."""
    for c in scc_condense(f):
        p, inside, outside = component_masks(f, c)
        closed: list[bool] = []
        cands = {trace: list(closed_extensions(f, outside, trace, budget, closed))
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
        c, family = payload
        return (reach_to_mask(inst.graph, vertex_mask(c)),
                tuple(vertex_mask(z) for z in family))

    return Quantifier("component_family", sweep, args)


_VERTEX = _quantifier("vertex", lambda inst, budget: range(inst.graph.n))
_GLOBAL = Quantifier("global", _global_sweep)
_SUBSETS = _subset_quantifier(lambda inst: range(inst.graph.n), True)
_NONEMPTY_SUBSETS = _subset_quantifier(lambda inst: range(inst.graph.n), False)
_NON_ROOT_SUBSETS = _subset_quantifier(
    lambda inst: sorted(set(range(inst.graph.n)) - inst.roots.support()), False,
    "a vertex without roots")
_SUBPARTITIONS = _quantifier(
    "subpartition", lambda inst, budget: subpartition_masks(low_bits(inst.graph.n), budget),
    lambda parts: tuple(mask_vertices(y) for y in parts), _read_subpartition)
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


# Subset and subpartition values read vertex masks; the parts of a
# subpartition are disjoint, so their sum is their union.

def _edmonds(inst):
    f, s, total = inst.graph, inst.roots, inst.roots.size()
    return lambda x: (in_degree_mask(f, x), total - s.size_of(x))


def _frank_mixed(inst):
    f, s, total = inst.graph, inst.roots, inst.roots.size()
    return lambda parts: (entering_mask(f, parts), total * len(parts) - s.size_of(sum(parts)))


def _kkt(inst):
    f, s = inst.graph, inst.roots
    return lambda x: (in_degree_mask(f, x), s.size_of(reach_to_mask(f, x)) - s.size_of(x))


def _dgns(inst):
    f, rank = inst.graph, _root_rank(inst)
    full = rank((1 << f.n) - 1)
    return lambda x: (in_degree_mask(f, x), full - rank(x))


def _kiraly(inst):
    f, rank = inst.graph, _root_rank(inst)
    return lambda x: (in_degree_mask(f, x), rank(reach_to_mask(f, x)) - rank(x))


def _family(f, member):
    """entering(family) against the sum of member(P, Z) over its members Z."""
    return lambda p, family: (entering_mask(f, family), sum(member(p, z) for z in family))


def _mt(inst):
    s = inst.roots
    return _family(inst.graph, lambda p, z: s.size_of(p) - s.size_of(z))


def _gy(inst):
    rank = _root_rank(inst)
    return _family(inst.graph, lambda p, z: rank(p) - rank(z))


def _h_of_mask(inst):
    """inst.h on vertex masks, cached for one evaluation."""
    return functools.cache(lambda y: inst.h(mask_vertices(y)))


def _frank_orient(inst):
    f, h = inst.graph, _h_of_mask(inst)
    return lambda parts: (entering_mask(f, parts), sum(h(y) for y in parts))


def _new_orient(inst):
    h = _h_of_mask(inst)
    return _family(inst.graph, lambda p, z: h(z) - h(p))


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


def _fkk(inst):
    f, k = inst.graph, inst.roots.size()
    return lambda x: (in_degree_mask(f, x), k)


def _cor1(inst):
    f, s, k = inst.graph, inst.roots, inst.bounds.k
    return lambda x: (in_degree_mask(f, x), k - s.size_of(x))


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
        Check(_SUBSETS, _kkt, "arcs entering vs reaching roots missing"),)),
    ConditionId.MT: Condition("mixed_graph", ("roots",), (
        Check(_COMPONENT_FAMILIES, _mt, "elements entering vs reaching roots missing"),)),
    ConditionId.DGNS: Condition("digraph", ("roots", "matroid"), (
        Check(_NONEMPTY_SUBSETS, _dgns, "arcs entering vs rank deficiency"),)),
    ConditionId.KIRALY: Condition("digraph", ("roots", "matroid"), (
        Check(_SUBSETS, _kiraly, "arcs entering vs reaching rank deficiency"),)),
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
    for check in _need(inst, cond).checks:
        verdict = check.over.sweep(inst, budget, check.value(inst), check.note)
        if not verdict:
            return verdict
    return HOLDS


def witness_violates(cond: ConditionId | str, inst: Instance, witness: Witness) -> bool:
    """Recompute the inequality named by a witness; True iff it is violated."""
    cond = ConditionId(cond)
    for check in _need(inst, cond).checks:
        if check.over.kind == witness.kind:
            lhs, rhs = check.value(inst)(*check.over.args(inst, witness.payload))
            return lhs < rhs
    raise ValueError(f"no inequality named {witness.kind!r} for {cond.value}")


# ---------------------------------------------------------------------------
# component projection of a vertex set in a digraph

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
