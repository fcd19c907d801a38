"""Checkable packing and orientation conditions.

Each condition id names one characterization: a quantified family of linear
inequalities over a structure, evaluated exhaustively in a deterministic
order.  CONDITIONS holds one record per id and writes each inequality once:
evaluate() sweeps it and returns the first violated instance as a witness,
so repeated runs give identical certificates, and witness_violates()
recomputes the same inequality at a given witness.
"""
from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .gpoly import build_t, feasible, ground_subset_sides
from .matroids import Matroid
from .setfuncs import SetFunctionOracle
from .structures import (
    HOLDS,
    Bounds,
    Budget,
    MixedHypergraph,
    RootMultiset,
    Verdict,
    Witness,
    as_budget,
    entering_count,
    in_degree,
    reach_to,
    scc_condense,
    subpartitions,
    subsets,
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


@dataclass(frozen=True)
class Instance:
    """Everything a condition may quantify over.  Conditions validate that
    the fields they need are present and of the right shape."""

    graph: MixedHypergraph
    roots: RootMultiset | None = None
    matroid: Matroid | None = None
    bounds: Bounds | None = None
    h: SetFunctionOracle | None = None


_KIND_TESTS = {
    "digraph": (MixedHypergraph.is_digraph, "a digraph (single-tail dyperedges only)"),
    "mixed_graph": (MixedHypergraph.is_mixed_graph, "a mixed graph (size-2 hyperedges, single-tail dyperedges)"),
    "dypergraph": (MixedHypergraph.is_dypergraph, "a dypergraph (no hyperedges)"),
    "graph": (lambda f: not f.dyperedges, "an undirected graph or hypergraph"),
    "mixed_hypergraph": (lambda f: True, ""),
}


def _need(inst: Instance, cond: ConditionId) -> Condition:
    """The record of cond, once inst has everything it reads."""
    rec = CONDITIONS[cond]
    test, desc = _KIND_TESTS[rec.graph]
    if not test(inst.graph):
        raise ValueError(f"{cond.value} needs {desc}")
    if "roots" in rec.needs:
        if inst.roots is None:
            raise ValueError(f"{cond.value} needs a root multiset")
        if len(inst.roots.counts) != inst.graph.n:
            raise ValueError("root multiset does not match the vertex count")
    if "matroid" in rec.needs:
        if inst.matroid is None:
            raise ValueError(f"{cond.value} needs a matroid on the root multiset")
        if frozenset(inst.matroid.ground) != frozenset(inst.roots.copies()):
            raise ValueError("matroid ground must be exactly the root copies")
    if "h" in rec.needs and inst.h is None:
        raise ValueError(f"{cond.value} needs a set function h")
    for name in rec.bounds:
        val = None if inst.bounds is None else getattr(inst.bounds, name)
        if val is None:
            raise ValueError(f"{cond.value} needs bounds.{name}")
        if name in ("f", "g") and len(val) != inst.graph.n:
            raise ValueError(f"bounds.{name} does not match the vertex count")
    for holds, what in rec.requires:
        if not holds(inst):
            raise ValueError(f"{cond.value} needs {what}")
    return rec


def _root_rank(inst: Instance, x) -> int:
    return inst.matroid.rank(inst.roots.restrict(x))


# ---------------------------------------------------------------------------
# quantifiers: each sweep walks its ground in a fixed order, calls the value
# closure once per member and returns the first member with lhs < rhs

class Quantifier(NamedTuple):
    """A witness kind, the sweep that produces it, and how a witness payload
    reads back as the arguments of the value closure."""

    kind: str
    sweep: Callable[[Instance, Budget, Callable, str], Verdict]
    args: Callable[[MixedHypergraph, tuple], tuple] = lambda f, payload: payload


def _quantifier(kind, ground) -> Quantifier:
    """Quantifier over the members ground(inst, budget) yields; a witness
    payload is the violating member alone."""

    def sweep(inst, budget, value, note) -> Verdict:
        for member in ground(inst, budget):
            lhs, rhs = value(member)
            if lhs < rhs:
                return Verdict(False, Witness(kind, (member,), lhs, rhs, note))
        return HOLDS

    return Quantifier(kind, sweep)


def _global_sweep(inst, budget, value, note) -> Verdict:
    lhs, rhs = value()
    if lhs < rhs:
        return Verdict(False, Witness("global", (), lhs, rhs, note))
    return HOLDS


def _iter_component_families(
    f: MixedHypergraph, budget: Budget
) -> Iterator[tuple[frozenset[int], frozenset[int], tuple[frozenset[int], ...]]]:
    """Per strongly connected component C with closure P: every family of
    subsets of P whose members meet C in pairwise disjoint nonempty traces
    and whose parts outside C have nothing entering them."""
    for c in scc_condense(f):
        p = reach_to(f, c)
        outside = sorted(p - c)
        cands: dict[frozenset[int], list[frozenset[int]]] = {}
        for trace in subsets(sorted(c), include_empty=False):
            found = []
            for extra in subsets(outside):
                budget.spend()
                if entering_count(f, (extra,)) == 0:
                    found.append(trace | extra)
            cands[trace] = found
        for traces in subpartitions(sorted(c), budget=budget):
            if not traces:
                continue
            for choice in itertools.product(*(cands[t] for t in traces)):
                budget.spend()
                yield c, p, choice


def _iter_component_subsets(f: MixedHypergraph, budget: Budget):
    """One-member families: per component C with closure P, every subset of
    P meeting C whose part outside C has nothing entering it."""
    for c in scc_condense(f):
        p = reach_to(f, c)
        for x in subsets(sorted(p), include_empty=False, budget=budget):
            if x & c and in_degree(f, x - c) == 0:
                yield c, p, (x,)


def _family_sweep(families) -> Quantifier:
    """Quantifier over component families; the value closure reads the
    closure P and the family, a witness payload is the component and the
    family."""

    def sweep(inst, budget, value, note) -> Verdict:
        for c, p, family in families(inst.graph, budget):
            lhs, rhs = value(p, family)
            if lhs < rhs:
                return Verdict(False, Witness("component_family", (c, family), lhs, rhs, note))
        return HOLDS

    return Quantifier("component_family", sweep,
                      lambda f, payload: (reach_to(f, payload[0]), payload[1]))


_VERTEX = _quantifier("vertex", lambda inst, budget: range(inst.graph.n))
_GLOBAL = Quantifier("global", _global_sweep)
_SUBSETS = _quantifier("subset", lambda inst, budget: subsets(range(inst.graph.n), budget=budget))
_NONEMPTY_SUBSETS = _quantifier("subset", lambda inst, budget: subsets(
    range(inst.graph.n), include_empty=False, budget=budget))
_NON_ROOT_SUBSETS = _quantifier("subset", lambda inst, budget: subsets(
    sorted(set(range(inst.graph.n)) - inst.roots.support()), include_empty=False, budget=budget))
_SUBPARTITIONS = _quantifier("subpartition", lambda inst, budget: subpartitions(
    range(inst.graph.n), budget=budget))
_COMPONENT_FAMILIES = _family_sweep(_iter_component_families)
_COMPONENT_SUBSETS = _family_sweep(_iter_component_subsets)
# the emptiness test of T names its own inequalities and notes
_T_GROUND = Quantifier("ground_subset", lambda inst, budget, value, note: feasible(
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

    graph: str  # a key of _KIND_TESTS
    needs: tuple[str, ...]  # Instance fields among roots, matroid and h
    checks: tuple[Check, ...]
    bounds: tuple[str, ...] = ()  # Bounds fields that must be set
    requires: tuple[tuple[Callable[[Instance], bool], str], ...] = ()  # (test, what it needs)


def _edmonds(inst):
    f, s, total = inst.graph, inst.roots, inst.roots.size()
    return lambda x: (in_degree(f, x), total - s.size_of(x))


def _frank_mixed(inst):
    f, s, total = inst.graph, inst.roots, inst.roots.size()
    return lambda parts: (entering_count(f, parts),
                          total * len(parts) - s.size_of(frozenset().union(*parts)))


def _kkt(inst):
    f, s = inst.graph, inst.roots
    return lambda x: (in_degree(f, x), s.size_of(reach_to(f, x)) - s.size_of(x))


def _dgns(inst):
    f = inst.graph
    full = _root_rank(inst, range(f.n))
    return lambda x: (in_degree(f, x), full - _root_rank(inst, x))


def _kiraly(inst):
    f = inst.graph
    return lambda x: (in_degree(f, x), _root_rank(inst, reach_to(f, x)) - _root_rank(inst, x))


def _family(f, member):
    """entering(family) against the sum of member(P, Z) over its members Z."""
    return lambda p, family: (entering_count(f, family), sum(member(p, z) for z in family))


def _mt(inst):
    s = inst.roots
    return _family(inst.graph, lambda p, z: s.size_of(p) - s.size_of(z))


def _gy(inst):
    closure_rank = functools.cache(lambda p: _root_rank(inst, p))
    return _family(inst.graph, lambda p, z: closure_rank(p) - _root_rank(inst, z))


def _frank_orient(inst):
    f, h = inst.graph, inst.h
    return lambda parts: (entering_count(f, parts), sum(h(x) for x in parts))


def _new_orient(inst):
    h = inst.h
    return _family(inst.graph, lambda p, z: h(z) - h(p))


def _bounded(slack, cap):
    """entering(P) >= k|P| - min(slack(V - U), cap(U)), U the union of P."""

    def value_of(inst):
        f, b = inst.graph, inst.bounds
        everything = frozenset(range(f.n))

        def value(parts):
            union = frozenset().union(*parts)
            return (entering_count(f, parts),
                    b.k * len(parts) - min(slack(b, everything - union), cap(b, union)))

        return value

    return value_of


def _fkk(inst):
    f, k = inst.graph, inst.roots.size()
    return lambda x: (in_degree(f, x), k)


def _cor1(inst):
    f, s, k = inst.graph, inst.roots, inst.bounds.k
    return lambda x: (in_degree(f, x), k - s.size_of(x))


def _lemma1b(inst):
    return lambda *payload: ground_subset_sides(build_t(inst.graph, inst.bounds), payload)


def _g_sum(b, union):
    return sum(b.g[v] for v in union)


_FORCED = "elements entering vs forced roots"
_FG_BOUNDED = (
    Check(_VERTEX, lambda inst: lambda v: (inst.bounds.g[v], inst.bounds.f[v]),
          "upper root bound below lower"),
    Check(_SUBPARTITIONS, _bounded(lambda b, rest: b.k - b.f_sum(rest), _g_sum), _FORCED),
)
_LIMITED_PRECHECKS = (
    Check(_VERTEX, lambda inst: lambda v: (inst.bounds.g_k(v), inst.bounds.f[v]),
          "capped upper root bound below lower"),
    Check(_GLOBAL, lambda inst: lambda: (min(inst.bounds.g_k_sum(range(inst.graph.n)),
                                             inst.bounds.lprime), inst.bounds.l),
          "member minimum unreachable"),
)
_LIMITED_BOUNDS = ("f", "g", "k", "l", "lprime")
_POSITIVE = (lambda inst: min(inst.bounds.k, inst.bounds.l, inst.bounds.lprime) >= 1,
             "positive k, l and lprime")


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
        _limited(_g_sum),), bounds=_LIMITED_BOUNDS),
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
        _limited(Bounds.g_k_sum),), bounds=_LIMITED_BOUNDS, requires=(_POSITIVE,)),
    ConditionId.LEMMA1B: Condition("mixed_hypergraph", (), _LIMITED_PRECHECKS + (
        Check(_T_GROUND, _lemma1b, ""),),
        bounds=_LIMITED_BOUNDS, requires=(_POSITIVE,)),
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
            lhs, rhs = check.value(inst)(*check.over.args(inst.graph, witness.payload))
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
