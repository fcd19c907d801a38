"""Packing species: verification, exhaustive search, and the constructive
pipelines that combine orientation, root decoding and the spanning-packing
step.

A packing is a tuple of members; each member is an arborescence described
by its root (a vertex plus a copy index, so root multisets stay faithful)
and one pick per element it uses: the element id together with the chosen
tail and head.  Members never share an element.  The exhaustive oracle
find_packing grounds every species in brute force and is the reference
the constructive routines are compared against.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .conditions import ConditionId, evaluate
from .gpoly import build_t, find_integer_point
from .matroids import Matroid, check_rank_axioms
from .orientation import mixed_orient, orientation_space
from .setfuncs import SetFunctionOracle
from .structures import (
    HOLDS,
    Bounds,
    Budget,
    Instance,
    MixedHypergraph,
    PropertyViolationError,
    RootMultiset,
    Verdict,
    Witness,
    as_budget,
    check_inputs,
    orient,
    orient_all,
    reach_from,
    reach_to,
    subsets,
)

# each species with the PackingSpec fields it reads and the Bounds fields
# that must be set
SPECIES = {
    "spanning": (("roots",), ()),
    "reachability": (("roots",), ()),
    "matroid_based": (("roots", "matroid"), ()),
    "matroid_reachability_based": (("roots", "matroid"), ()),
    "bounded_regular_limited": (("bounds",), ("f", "g", "k", "l", "lprime")),
}


@dataclass(frozen=True)
class Pick:
    """One element inside a member: which hyperedge ("E") or dyperedge
    ("A") it is, and the trimmed arc tail -> head it contributes."""

    kind: str
    index: int
    tail: int
    head: int


@dataclass(frozen=True)
class Member:
    """An arborescence: a rooted copy plus its element picks."""

    root: int
    copy: int = 0
    picks: tuple[Pick, ...] = ()

    def element_ids(self) -> frozenset[tuple[str, int]]:
        return frozenset((p.kind, p.index) for p in self.picks)

    def vertex_set(self) -> frozenset[int]:
        out = {self.root}
        for p in self.picks:
            out.add(p.tail)
            out.add(p.head)
        return frozenset(out)


@dataclass(frozen=True)
class Packing:
    members: tuple[Member, ...]

    def element_ids(self) -> frozenset[tuple[str, int]]:
        out: frozenset[tuple[str, int]] = frozenset()
        for m in self.members:
            out |= m.element_ids()
        return out


@dataclass(frozen=True)
class PackingSpec:
    species: str
    roots: RootMultiset | None = None
    matroid: Matroid | None = None
    bounds: Bounds | None = None


def _validate_spec(f: MixedHypergraph, spec: PackingSpec) -> None:
    if spec.species not in SPECIES:
        raise ValueError(f"unknown species {spec.species!r}")
    needs, bounds = SPECIES[spec.species]
    check_inputs(Instance(f, spec.roots, spec.matroid, spec.bounds), spec.species,
                 needs=needs, bounds=bounds)


def _check_picks(f: MixedHypergraph, packing: Packing) -> None:
    for m in packing.members:
        if not 0 <= m.root < f.n:
            raise ValueError("member root out of range")
        for p in m.picks:
            if p.kind == "E":
                if not 0 <= p.index < len(f.hyperedges):
                    raise ValueError("hyperedge index out of range")
                e = f.hyperedges[p.index]
                if p.head not in e or p.tail not in e or p.head == p.tail:
                    raise ValueError("hyperedge pick endpoints not on the hyperedge")
            elif p.kind == "A":
                if not 0 <= p.index < len(f.dyperedges):
                    raise ValueError("dyperedge index out of range")
                tails, head = f.dyperedges[p.index]
                if p.head != head or p.tail not in tails:
                    raise ValueError("dyperedge pick does not match the dyperedge")
            else:
                raise ValueError(f"unknown element kind {p.kind!r}")


def _member_is_arborescence(m: Member) -> bool:
    heads = [p.head for p in m.picks]
    if m.root in heads or len(set(heads)) != len(heads):
        return False
    covered = {m.root}
    pending = list(m.picks)
    while pending:
        rest = []
        progressed = False
        for p in pending:
            if p.tail in covered:
                covered.add(p.head)
                progressed = True
            else:
                rest.append(p)
        if not progressed:
            return False
        pending = rest
    return covered == m.vertex_set()


def _copy_pairs(packing: Packing) -> list[tuple[int, int]]:
    return [(m.root, m.copy) for m in packing.members]


def _canonical(picks) -> tuple[Pick, ...]:
    """The picks of one member in canonical order: by kind, then index."""
    return tuple(sorted(picks, key=lambda p: (p.kind, p.index)))


def verify(f: MixedHypergraph, packing: Packing, spec: PackingSpec,
           cap: int | Budget | None = None) -> Verdict:
    """Check a packing against its species.  Structural faults (bad indices,
    picks off their elements) raise; every semantic shortfall becomes a
    verdict with the first failing member, element or vertex."""
    as_budget(cap)
    _validate_spec(f, spec)
    _check_picks(f, packing)

    seen: set[tuple[str, int]] = set()
    for m in packing.members:
        for p in m.picks:
            key = (p.kind, p.index)
            if key in seen:
                return Verdict(False, Witness("global", (key,),
                                              note="element used by two members"))
            seen.add(key)
    for i, m in enumerate(packing.members):
        if not _member_is_arborescence(m):
            return Verdict(False, Witness("global", (i,),
                                          note="member is not an arborescence"))

    species, s = spec.species, spec.roots
    if species in ("spanning", "reachability"):
        if sorted(_copy_pairs(packing)) != sorted(s.copies()):
            return Verdict(False, Witness("global", (),
                                          note="member roots differ from the root multiset"))
        for i, m in enumerate(packing.members):
            want = f.vertices if species == "spanning" else reach_from(f, (m.root,))
            if m.vertex_set() != want:
                return Verdict(False, Witness("global", (i,),
                                              note="member does not span its required vertex set"))
        return HOLDS
    if species in ("matroid_based", "matroid_reachability_based"):
        pairs = _copy_pairs(packing)
        if len(set(pairs)) != len(pairs):
            return Verdict(False, Witness("global", (),
                                          note="a root copy roots two members"))
        if not set(pairs) <= set(s.copies()):
            raise ValueError("member root copies outside the root multiset")
        for v in range(f.n):
            roots_at = tuple(
                (m.root, m.copy) for m in packing.members if v in m.vertex_set()
            )
            if species == "matroid_based":
                want = spec.matroid.full_rank()
            else:
                want = spec.matroid.rank(s.restrict(reach_to(f, (v,))))
            if len(roots_at) != want or not spec.matroid.independent(roots_at):
                return Verdict(False, Witness("vertex", (v,), len(roots_at), want,
                                              "roots of the members at the vertex are not a basis"))
        return HOLDS

    b = spec.bounds
    t = len(packing.members)
    if t < b.l:
        return Verdict(False, Witness("global", (), t, b.l, "fewer members than allowed"))
    if t > b.lprime:
        return Verdict(False, Witness("global", (), b.lprime, t, "more members than allowed"))
    for v in range(f.n):
        rooted = sum(1 for m in packing.members if m.root == v)
        if rooted < b.f[v]:
            return Verdict(False, Witness("vertex", (v,), rooted, b.f[v],
                                          "vertex roots fewer members than required"))
        if rooted > b.g[v]:
            return Verdict(False, Witness("vertex", (v,), b.g[v], rooted,
                                          "vertex roots more members than allowed"))
        containing = sum(1 for m in packing.members if v in m.vertex_set())
        if containing != b.k:
            return Verdict(False, Witness("vertex", (v,), containing, b.k,
                                          "vertex is not in exactly k members"))
    return HOLDS


# ---------------------------------------------------------------------------
# exhaustive search

def _grow_member(root: int, target: frozenset[int], by_head: dict,
                 used: frozenset[tuple[str, int]], budget: Budget
                 ) -> Iterator[tuple[Pick, ...]]:
    """Arborescences rooted at root spanning exactly target, drawn from the
    unused elements.  One canonical tail witness per feasible element
    choice; a reach-growing trim exists iff any acyclic trim does."""
    need = sorted(target - {root})
    cand_lists = []
    for u in need:
        lst = [
            rec for rec in by_head.get(u, ())
            if (rec[0], rec[1]) not in used and rec[2] & target
        ]
        if not lst:
            return
        cand_lists.append(lst)
    for combo in itertools.product(*cand_lists):
        budget.spend()
        chosen = dict(zip(need, combo))
        covered = {root}
        pending = set(need)
        picks = []
        while pending:
            grown = None
            for u in sorted(pending):
                reachable = chosen[u][2] & covered
                if reachable:
                    grown = (u, min(reachable))
                    break
            if grown is None:
                break
            u, tail = grown
            rec = chosen[u]
            picks.append(Pick(rec[0], rec[1], tail, u))
            covered.add(u)
            pending.discard(u)
        if not pending:
            yield _canonical(picks)


def _pack_members(roots, targets, by_head, budget) -> tuple[Member, ...] | None:
    out: list[Member] = []

    def step(i: int, used: frozenset[tuple[str, int]]) -> bool:
        if i == len(roots):
            return True
        rv, rc = roots[i]
        for picks in _grow_member(rv, targets[i], by_head, used, budget):
            ids = frozenset((p.kind, p.index) for p in picks)
            out.append(Member(rv, rc, picks))
            if step(i + 1, used | ids):
                return True
            out.pop()
        return False

    return tuple(out) if step(0, frozenset()) else None


def _assignments(f: MixedHypergraph, spec: PackingSpec, budget: Budget
                 ) -> Iterator[tuple[tuple, tuple]]:
    """Root lists (as copy pairs) with per-member vertex set targets, every
    combination already satisfying the species' counting conditions."""
    n = f.n
    if spec.species == "spanning":
        roots = spec.roots.copies()
        yield roots, tuple(f.vertices for _ in roots)
        return
    if spec.species == "reachability":
        roots = spec.roots.copies()
        yield roots, tuple(reach_from(f, (v,)) for v, _ in roots)
        return

    cand_by_vertex = {
        v: [u for u in subsets(sorted(reach_from(f, (v,)))) if v in u]
        for v in range(n)
    }
    if spec.species in ("matroid_based", "matroid_reachability_based"):
        copies = spec.roots.copies()
        m = spec.matroid
        if spec.species == "matroid_based":
            want = {v: m.full_rank() for v in range(n)}
        else:
            want = {
                v: m.rank(spec.roots.restrict(reach_to(f, (v,))))
                for v in range(n)
            }
        for rset in subsets(copies, budget=budget):
            roots = tuple(cp for cp in copies if cp in rset)
            for targets in itertools.product(*(cand_by_vertex[rv] for rv, _ in roots)):
                budget.spend()
                ok = True
                for v in range(n):
                    at_v = tuple(
                        roots[i] for i in range(len(roots)) if v in targets[i]
                    )
                    if len(at_v) != want[v] or not m.independent(at_v):
                        ok = False
                        break
                if ok:
                    yield roots, targets
        return

    b = spec.bounds
    upper = min(b.lprime, b.k * n)
    for t in range(b.l, upper + 1):
        for vec in itertools.combinations_with_replacement(range(n), t):
            budget.spend()
            counts = [0] * n
            for v in vec:
                counts[v] += 1
            if any(not b.f[v] <= counts[v] <= b.g[v] for v in range(n)):
                continue
            copy_no = [0] * n
            roots = []
            for v in vec:
                roots.append((v, copy_no[v]))
                copy_no[v] += 1
            roots = tuple(roots)

            def targets_rec(i: int, cover: tuple[int, ...]):
                if i == t:
                    if all(c == b.k for c in cover):
                        yield ()
                    return
                left = t - i - 1
                for u in cand_by_vertex[vec[i]]:
                    budget.spend()
                    nxt = list(cover)
                    ok = True
                    for v in u:
                        nxt[v] += 1
                        if nxt[v] > b.k:
                            ok = False
                            break
                    if not ok:
                        continue
                    if any(nxt[v] + left < b.k for v in range(n)):
                        continue
                    for rest in targets_rec(i + 1, tuple(nxt)):
                        yield (u,) + rest

            for targets in targets_rec(0, tuple([0] * n)):
                yield roots, targets


def find_packing(f: MixedHypergraph, spec: PackingSpec,
                 cap: int | Budget | None = None,
                 use_every_element: bool = False) -> Packing | None:
    """Exhaustive existence oracle over orientations, root assignments,
    member vertex sets and element choices, in a fixed canonical order.
    With use_every_element, only packings whose members jointly use every
    element of f qualify."""
    budget = as_budget(cap)
    _validate_spec(f, spec)
    total = len(f.hyperedges) + len(f.dyperedges)
    for heads in orientation_space(f):
        budget.spend()
        by_head: dict[int, list] = {}
        for j, (tails, head) in enumerate(f.dyperedges):
            by_head.setdefault(head, []).append(("A", j, tails, head))
        for i, e in enumerate(f.hyperedges):
            head = heads[i]
            by_head.setdefault(head, []).append(("E", i, e - {head}, head))
        for roots, targets in _assignments(f, spec, budget):
            if use_every_element and sum(len(u) - 1 for u in targets) != total:
                continue
            members = _pack_members(roots, targets, by_head, budget)
            if members is not None:
                return _certified(f, Packing(members), spec, budget)
    return None


# ---------------------------------------------------------------------------
# constructive pipelines

def _certified(f: MixedHypergraph, packing: Packing, spec: PackingSpec,
               budget: Budget) -> Packing:
    """The packing, once verify accepts it; a rejection is a defect."""
    if not verify(f, packing, spec, budget):
        raise PropertyViolationError(f"{spec.species} packing failed verification")
    return packing


def _lift(inner: Packing, origin: Sequence[tuple[str, int]]) -> Packing:
    """Carry a packing of a derived dypergraph back to the graph it came
    from: dyperedge i of the derived graph is element origin[i], a
    (kind, index) pair."""
    return Packing(tuple(
        Member(m.root, m.copy,
               _canonical(Pick(*origin[p.index], p.tail, p.head) for p in m.picks))
        for m in inner.members))


def corollary1_pack(d: MixedHypergraph, s: RootMultiset, k: int,
                    cap: int | Budget | None = None) -> Packing | Verdict:
    """Pack hyperarborescences rooted in the multiset so every vertex lies
    in exactly k of them.

    Feasibility is the root-capacity and in-degree condition; on failure
    its witness is returned.  The construction adds a vertex with one arc
    per root copy, packs k spanning arborescences from it, and splits each
    at the new vertex into one member per used root arc.
    """
    budget = as_budget(cap)
    verdict = evaluate(ConditionId.COR1,
                       Instance(graph=d, roots=s, bounds=Bounds(k=k)), budget)
    if not verdict:
        return verdict
    if k == 0:
        return Packing(())

    hub = d.n
    copies = s.copies()
    aug = MixedHypergraph(
        d.n + 1, (),
        d.dyperedges + tuple((frozenset({hub}), v) for v, _ in copies),
    )
    offset = len(d.dyperedges)
    inner = find_packing(
        aug, PackingSpec("spanning", roots=RootMultiset.from_pairs(d.n + 1, [(hub, k)])),
        budget,
    )
    if inner is None:
        raise PropertyViolationError(
            "spanning packing guaranteed by the in-degree condition was not found")

    members: list[Member] = []
    for big in inner.members:
        parent = {p.head: p for p in big.picks}
        cache: dict[int, int] = {}

        def subtree_root(v: int) -> int:
            seen = []
            while v not in cache:
                p = parent[v]
                if p.tail == hub:
                    cache[v] = v
                    break
                seen.append(v)
                v = p.tail
            r = cache[v]
            for u in seen:
                cache[u] = r
            return r

        groups: dict[int, list[Pick]] = {}
        for p in big.picks:
            if p.index >= offset:
                continue
            groups.setdefault(subtree_root(p.head), []).append(p)
        split = []
        for p in big.picks:
            if p.index >= offset:
                v, copy = copies[p.index - offset]
                split.append(Member(v, copy, _canonical(groups.get(v, ()))))
        members.extend(sorted(split, key=lambda mm: (mm.root, mm.copy)))

    spec = PackingSpec(
        "bounded_regular_limited",
        bounds=Bounds(f=(0,) * d.n, g=s.counts, k=k, l=0, lprime=max(k * d.n, 1)),
    )
    return _certified(d, Packing(tuple(members)), spec, budget)


def mrb_mixed_pack(f: MixedHypergraph, s: RootMultiset, m,
                   cap: int | Budget | None = None) -> Packing | Verdict:
    """Matroid-reachability-based packing of mixed arborescences.

    Orients the edges so in-degrees cover the rank deficiencies, packs in
    the resulting digraph, then swaps oriented arcs back for their edges;
    the verdict of the per-component family condition is returned when the
    orientation is impossible.
    """
    budget = as_budget(cap)
    check_inputs(Instance(f, s, m), "mrb_mixed", "mixed_graph", ("roots", "matroid"))
    axioms = check_rank_axioms(m, budget)
    if not axioms:
        raise PropertyViolationError(f"matroid fails rank axioms: {axioms.witness.note}")

    h = SetFunctionOracle.from_matroid_roots(f.n, s, m)
    oriented = mixed_orient(f, h, budget)
    if isinstance(oriented, Verdict):
        return oriented
    d = orient_all(f, oriented.heads)
    spec = PackingSpec("matroid_reachability_based", roots=s, matroid=m)
    inner = find_packing(d, spec, budget)
    if inner is None:
        raise PropertyViolationError("oriented instance lost its guaranteed packing")

    origin = ([("A", j) for j in range(len(f.dyperedges))]
              + [("E", i) for i in range(len(f.hyperedges))])
    return _certified(f, _lift(inner, origin), spec, budget)


def main_pack(f: MixedHypergraph, bounds: Bounds,
              cap: int | Budget | None = None) -> Packing | Verdict:
    """Bounded regular limited packing of mixed hyperarborescences.

    Feasibility and the working dyperedge set come from an integer point of
    the packing polyhedron; the point fixes the orientation and the root
    multiset (k minus the in-degree at each vertex), and the root-multiset
    pipeline finishes the job.  When the polyhedron is empty the violated
    bound or subpartition is returned.
    """
    budget = as_budget(cap)
    t = build_t(f, bounds)
    point = find_integer_point(t, budget)
    if isinstance(point, Verdict):
        verdict = evaluate(ConditionId.MAIN, Instance(graph=f, bounds=bounds), budget)
        if verdict.holds:
            raise PropertyViolationError(
                "empty polyhedron but the subpartition condition holds")
        return verdict

    root_counts = [bounds.k - c for c in t.head_counts(t.mask(point))]
    if any(c < 0 for c in root_counts):
        raise PropertyViolationError("integer point exceeds the in-degree budget")
    dz = MixedHypergraph(f.n, (), tuple(
        f.dyperedges[e[1]] if e[0] == "A" else orient(f.hyperedges[e[1]], e[2]) for e in point))
    inner = corollary1_pack(dz, RootMultiset(tuple(root_counts)), bounds.k, budget)
    if isinstance(inner, Verdict):
        raise PropertyViolationError("decoded dyperedge set misses the root condition")

    return _certified(f, _lift(inner, [e[:2] for e in point]),
                      PackingSpec("bounded_regular_limited", bounds=bounds), budget)
