"""Packing species: verification, exhaustive search, and the constructive
pipelines that combine orientation, root decoding and the spanning-packing
step.

A packing is a tuple of members; each member is an arborescence described
by its root (a vertex plus a copy index, so root multisets stay faithful)
and one pick per element it uses: the element id together with the chosen
tail and head.  Members never share an element.  The exhaustive oracle
find_packing grounds every species in brute force and is the reference the
constructive routines are compared against.  Each species' counting rule
is written once, on the members' root copies and vertex masks, and read by
both verify and find_packing.  ROUTES maps each name to its packing call
and the spec that packing passes; the pipelines certify against it.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .conditions import ConditionId, evaluate, require_inputs
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
    mask_bits,
    orient,
    orient_all,
    reach_from_mask,
    reach_to_mask,
    subset_masks,
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


def _canonical(picks) -> tuple[Pick, ...]:
    """The picks of one member in canonical order: by kind, then index."""
    return tuple(sorted(picks, key=lambda p: (p.kind, p.index)))


def _spans(f: MixedHypergraph, species: str) -> list[int]:
    """Per root vertex, the vertex mask a spanning or reachability member
    rooted there spans."""
    full = (1 << f.n) - 1
    return [full if species == "spanning" else reach_from_mask(f, 1 << v) for v in range(f.n)]


def _bounded_shortfall(b: Bounds, rooted: Sequence[int], containing: Sequence[int]
                       ) -> Witness | None:
    """The bounded species' rule on the number of members rooted at and
    containing each vertex: the first shortfall, or None."""
    t = sum(rooted)
    if t < b.l:
        return Witness("global", (), t, b.l, "fewer members than allowed")
    if t > b.lprime:
        return Witness("global", (), b.lprime, t, "more members than allowed")
    for v, (r, c) in enumerate(zip(rooted, containing)):
        if r < b.f[v]:
            return Witness("vertex", (v,), r, b.f[v], "vertex roots fewer members than required")
        if r > b.g[v]:
            return Witness("vertex", (v,), b.g[v], r, "vertex roots more members than allowed")
        if c != b.k:
            return Witness("vertex", (v,), c, b.k, "vertex is not in exactly k members")
    return None


def _counting_rule(f: MixedHypergraph, spec: PackingSpec, sizes: list[int] | None
                   ) -> Callable[..., Witness | None]:
    """The species' counting rule, read by verify and find_packing: given
    the members' root copies and vertex masks, the first shortfall as a
    Witness, or None when the members meet it.  sizes are the species'
    _basis_sizes."""
    n, species = f.n, spec.species
    if species == "bounded_regular_limited":
        def rule(pairs, masks):
            return _bounded_shortfall(spec.bounds, [sum(r == v for r, _ in pairs) for v in range(n)],
                                      [sum(m >> v & 1 for m in masks) for v in range(n)])
        return rule

    copies = spec.roots.copies()
    if species in ("spanning", "reachability"):
        spans = _spans(f, species)

        def rule(pairs, masks):
            if tuple(sorted(pairs)) != copies:
                return Witness("global", (), note="member roots differ from the root multiset")
            for i, ((v, _), mask) in enumerate(zip(pairs, masks)):
                if mask != spans[v]:
                    return Witness("global", (i,),
                                   note="member does not span its required vertex set")
            return None
        return rule

    matroid, known = spec.matroid, frozenset(copies)

    def rule(pairs, masks):
        if len(set(pairs)) != len(pairs):
            return Witness("global", (), note="a root copy roots two members")
        if not known.issuperset(pairs):
            raise ValueError("member root copies outside the root multiset")
        for v, want in enumerate(sizes):
            at_v = sum(matroid.bit[pair] for pair, m in zip(pairs, masks) if m >> v & 1)
            if at_v.bit_count() != want or not matroid.independent_mask(at_v):
                return Witness("vertex", (v,), at_v.bit_count(), want,
                               "roots of the members at the vertex are not a basis")
        return None
    return rule


def _basis_sizes(f: MixedHypergraph, spec: PackingSpec) -> list[int] | None:
    """Per vertex, the size of the basis a matroid species wants among the
    roots of the members containing it: the rank of the root copies that
    reach the vertex (of every copy for matroid_based).  None for the
    species without a matroid."""
    if spec.species not in ("matroid_based", "matroid_reachability_based"):
        return None
    rank, full = spec.roots.ranker(spec.matroid), (1 << f.n) - 1
    return [rank(full if spec.species == "matroid_based" else reach_to_mask(f, 1 << v))
            for v in range(f.n)]


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
    masks = []
    for i, m in enumerate(packing.members):
        # an arborescence: distinct heads, none of them the root, and its
        # root grows through every pick
        heads = {p.head for p in m.picks}
        mask, taken = _grow(1 << m.root, [(p.kind, p.index, 1 << p.tail, p.head) for p in m.picks])
        if m.root in heads or len(heads) != len(m.picks) or len(taken) != len(m.picks):
            return Verdict(False, Witness("global", (i,),
                                          note="member is not an arborescence"))
        masks.append(mask)
    rule = _counting_rule(f, spec, _basis_sizes(f, spec))
    witness = rule([(m.root, m.copy) for m in packing.members], masks)
    return HOLDS if witness is None else Verdict(False, witness)


# ---------------------------------------------------------------------------
# exhaustive search

def _grow_member(root: int, target: int, by_head: dict,
                 used: frozenset[tuple[str, int]], budget: Budget
                 ) -> Iterator[tuple[Pick, ...]]:
    """Arborescences rooted at root spanning exactly the vertex mask target,
    drawn from the unused elements, each a (kind, index, tail mask, head)
    record.  The element choices per head are walked depth-first in product
    order, one Budget step per full choice.  A branch whose chosen heads
    hold a nonempty set that none of its elements enters from outside can
    never span, so it is skipped with one spend of every full choice below
    it.  A full choice that survives is an arborescence; its canonical tail
    witness is the lowest covered tail, and a reach-growing trim exists iff
    any acyclic trim does."""
    cand_lists = []
    for u in mask_bits(target & ~(1 << root)):
        lst = [
            rec for rec in by_head.get(u, ())
            if (rec[0], rec[1]) not in used and rec[2] & target
        ]
        if not lst:
            return
        cand_lists.append(lst)
    depth = len(cand_lists)
    # per depth: the root with the heads still to choose, and the number of
    # full choices below one choice there
    sources, below = [0] * depth, [1] * depth
    ahead, size = 1 << root, 1
    for d in range(depth - 1, -1, -1):
        sources[d], below[d] = ahead, size
        ahead |= 1 << cand_lists[d][0][3]
        size *= len(cand_lists[d])
    chosen: list[tuple] = []

    def walk(d: int) -> Iterator[tuple[Pick, ...]]:
        if d == depth:
            budget.spend()
            yield _trimmed(root, chosen)
            return
        reached = None
        for rec in cand_lists[d]:
            # the element's head stays stranded iff none of its tails is
            # reached from the root and the heads still to choose through
            # the elements chosen so far
            if not rec[2] & sources[d]:
                if reached is None:
                    reached = _grow(sources[d], chosen)[0]
                if not rec[2] & reached:
                    budget.spend(below[d])
                    continue
            chosen.append(rec)
            yield from walk(d + 1)
            chosen.pop()

    yield from walk(0)


def _grow(covered: int, records: Sequence[tuple]) -> tuple[int, list[tuple]]:
    """The vertex mask covered grown through the (kind, index, tail mask,
    head) records: each time the first pending record with a covered tail
    is taken and its head covered.  Returns the grown mask and the records
    taken, in the order taken, each with its tail mask cut to the tails
    covered when it was taken."""
    pending, taken = list(records), []
    i = 0
    while i < len(pending):
        kind, index, tails, head = pending[i]
        if tails & covered:
            taken.append((kind, index, tails & covered, head))
            covered |= 1 << head
            del pending[i]
            i = 0
        else:
            i += 1
    return covered, taken


def _trimmed(root: int, chosen: Sequence[tuple]) -> tuple[Pick, ...]:
    """The picks of the records that grow from root: each element is
    trimmed, in the order the records reach it, to its lowest covered
    tail."""
    return _canonical([Pick(kind, index, (tails & -tails).bit_length() - 1, head)
                       for kind, index, tails, head in _grow(1 << root, chosen)[1]])


def _pack_members(roots, targets, by_head, budget) -> tuple[Member, ...] | None:
    out: list[Member] = []

    def step(i: int, used: frozenset[tuple[str, int]]) -> bool:
        if i == len(roots):
            return True
        rv, rc = roots[i]
        for picks in _grow_member(rv, targets[i], by_head, used, budget):
            out.append(Member(rv, rc, picks))
            if step(i + 1, used | out[-1].element_ids()):
                return True
            out.pop()
        return False

    return tuple(out) if step(0, frozenset()) else None


def _assignments(f: MixedHypergraph, spec: PackingSpec, rule: Callable,
                 sizes: list[int] | None, budget: Budget) -> Iterator[tuple[tuple, tuple]]:
    """Root lists (as copy pairs) with per-member vertex mask targets that
    meet the species' counting rule, in canonical order.  Spanning and
    reachability have one root list with fixed targets and spend nothing.
    The matroid species spend one Budget step per root list and per full
    target choice, those of the plain product loops: they walk each root
    list's target product depth-first; a branch is dead when some vertex's
    copies so far are dependent or above its basis size, or can no longer
    reach that size with the members still to choose that may contain it,
    and is skipped with one spend of every full choice below it; a root
    list already dead before its first choice spends its whole product at
    once.  The bounded species spend one step per root vector and one per
    candidate target tried at each depth: a candidate after which some
    vertex lies in more than k members, or can no longer reach k with the
    members still to choose, is cut there without spending the full
    choices below it."""
    n, species = f.n, spec.species
    if species in ("spanning", "reachability"):
        roots = spec.roots.copies()
        spans = _spans(f, species)
        targets = tuple(spans[v] for v, _ in roots)
        if rule(roots, targets) is None:
            yield roots, targets
        return

    reach = [reach_from_mask(f, 1 << v) for v in range(n)]
    # the vertex sets a member rooted at v may span, by size then lexicographic
    cand_by_vertex = [[u for u in subset_masks([1 << w for w in mask_bits(reach[v])]) if u >> v & 1]
                      for v in range(n)]
    if species != "bounded_regular_limited":
        matroid = spec.matroid

        def basis_targets(roots, below, i, at, slack, chosen):
            # at: per vertex, the copies of the members so far that contain
            # it; slack: by how much those copies and the later members that
            # may contain it exceed the vertex's basis size
            if i == len(roots):
                budget.spend()
                if rule(roots, chosen) is None:
                    yield chosen
                return
            rv, bit = roots[i][0], matroid.bit[roots[i]]
            for u in cand_by_vertex[rv]:
                got = [m | bit if u >> v & 1 else m for v, m in enumerate(at)]
                missed = reach[rv] & ~u
                left = [s - (missed >> v & 1) for v, s in enumerate(slack)]
                if min(left, default=0) < 0 or not all(
                        got[v].bit_count() <= sizes[v] and matroid.independent_mask(got[v])
                        for v in mask_bits(u)):
                    budget.spend(below[i + 1])
                    continue
                yield from basis_targets(roots, below, i + 1, got, left, chosen + (u,))

        copies = spec.roots.copies()
        for size in range(len(copies) + 1):
            for roots in itertools.combinations(copies, size):
                # the full target choices from each member on
                below = [1]
                for rv, _ in reversed(roots):
                    below.insert(0, below[0] * len(cand_by_vertex[rv]))
                slack = [sum(reach[rv] >> v & 1 for rv, _ in roots) - want
                         for v, want in enumerate(sizes)]
                if min(slack, default=0) < 0:
                    budget.spend(1 + below[0])
                    continue
                budget.spend()
                for targets in basis_targets(roots, below, 0, [0] * n, slack, ()):
                    yield roots, targets
        return

    b = spec.bounds
    for t in range(b.l, min(b.lprime, b.k * n) + 1):
        for vec in itertools.combinations_with_replacement(range(n), t):
            budget.spend()
            counts = [vec.count(v) for v in range(n)]
            # prune root vectors the rule rejects even with every vertex covered k times
            if _bounded_shortfall(b, counts, [b.k] * n):
                continue
            roots = tuple((v, c) for v in range(n) for c in range(counts[v]))

            def targets_rec(i: int, cover: list[int], chosen: tuple[int, ...]):
                if i == t:
                    if rule(roots, chosen) is None:
                        yield chosen
                    return
                # each vertex must stay within reach of k members, and not pass k
                low = b.k - (t - i - 1)
                for u in cand_by_vertex[vec[i]]:
                    budget.spend()
                    nxt = [c + (u >> v & 1) for v, c in enumerate(cover)]
                    if all(low <= c <= b.k for c in nxt):
                        yield from targets_rec(i + 1, nxt, chosen + (u,))

            for targets in targets_rec(0, [0] * n, ()):
                yield roots, targets


def find_packing(f: MixedHypergraph, spec: PackingSpec,
                 cap: int | Budget | None = None,
                 use_every_element: bool = False) -> Packing | None:
    """Exhaustive existence oracle over orientations, root assignments,
    member vertex sets and element choices, in a fixed canonical order.
    With use_every_element, only packings whose members jointly use every
    element of f qualify.  The element-choice walk and the matroid
    species' target walk skip their dead branches and spend those
    branches' Budget steps at once, so packings, cap errors and the Budget
    left are those of the plain product loops.  The bounded species' target
    walk spends one step per candidate it tries at each depth instead, not
    one per full choice (see _assignments)."""
    budget = as_budget(cap)
    _validate_spec(f, spec)
    sizes = _basis_sizes(f, spec)
    rule = _counting_rule(f, spec, sizes)
    total = len(f.hyperedges) + len(f.dyperedges)
    arcs: dict[int, list] = {}
    for j, (tails, head) in enumerate(f.dyperedge_masks):
        u = head.bit_length() - 1
        arcs.setdefault(u, []).append(("A", j, tails, u))
    for heads in orientation_space(f):
        budget.spend()
        by_head = {u: recs[:] for u, recs in arcs.items()}
        for i, (e, u) in enumerate(zip(f.hyperedge_masks, heads)):
            by_head.setdefault(u, []).append(("E", i, e & ~(1 << u), u))
        for roots, targets in _assignments(f, spec, rule, sizes, budget):
            if use_every_element and sum(u.bit_count() - 1 for u in targets) != total:
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
    inst = Instance(graph=d, roots=s, bounds=Bounds(k=k))
    verdict = evaluate(ConditionId.COR1, inst, budget)
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

    # in a spanning arborescence, what grows from a child of the hub is
    # exactly its subtree
    members: list[Member] = []
    for big in inner.members:
        records = [(p.kind, p.index, 1 << p.tail, p.head) for p in big.picks if p.index < offset]
        members.extend(sorted(
            (Member(*copies[p.index - offset], _trimmed(p.head, records))
             for p in big.picks if p.index >= offset),
            key=lambda mm: (mm.root, mm.copy)))
    return _certified(d, Packing(tuple(members)), ROUTES["cor1"].spec(inst), budget)


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
    spec = ROUTES["mrb_mixed"].spec(Instance(f, s, m))
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

    root_counts = [bounds.k - c for c in t.head_counts(t.matroid.mask(point))]
    if any(c < 0 for c in root_counts):
        raise PropertyViolationError("integer point exceeds the in-degree budget")
    dz = MixedHypergraph(f.n, (), tuple(
        f.dyperedges[e[1]] if e[0] == "A" else orient(f.hyperedges[e[1]], e[2]) for e in point))
    inner = corollary1_pack(dz, RootMultiset(tuple(root_counts)), bounds.k, budget)
    if isinstance(inner, Verdict):
        raise PropertyViolationError("decoded dyperedge set misses the root condition")

    return _certified(f, _lift(inner, [e[:2] for e in point]),
                      ROUTES["main"].spec(Instance(graph=f, bounds=bounds)), budget)


# ---------------------------------------------------------------------------
# routes

class Route(NamedTuple):
    """How a name packs an instance, and the spec that packing must pass."""

    pack: Callable[[Instance, int | Budget | None], Packing | Verdict | None]
    spec: Callable[[Instance], PackingSpec]


def _species_route(species: str) -> Route:
    """find_packing against the species' spec, read off the instance."""

    def spec(inst: Instance) -> PackingSpec:
        return PackingSpec(species, **{name: getattr(inst, name) for name in SPECIES[species][0]})
    return Route(lambda inst, cap: find_packing(inst.graph, spec(inst), cap), spec)


def _cor1_spec(inst: Instance) -> PackingSpec:
    """What a cor1 packing meets: at most roots(v) members rooted at each
    vertex v, each vertex in exactly k members, at most max(kn, 1) members."""
    require_inputs(inst, ConditionId.COR1)
    n, k = inst.graph.n, inst.bounds.k
    return PackingSpec("bounded_regular_limited", bounds=Bounds(
        f=(0,) * n, g=inst.roots.counts, k=k, l=0, lprime=max(k * n, 1)))


ROUTES: dict[str, Route] = {species: _species_route(species) for species in SPECIES}
ROUTES.update(
    main=Route(lambda inst, cap: main_pack(inst.graph, inst.bounds, cap),
               ROUTES["bounded_regular_limited"].spec),
    cor1=Route(lambda inst, cap: corollary1_pack(
        inst.graph, inst.roots, None if inst.bounds is None else inst.bounds.k, cap), _cor1_spec),
    mrb_mixed=Route(lambda inst, cap: mrb_mixed_pack(inst.graph, inst.roots, inst.matroid, cap),
                    ROUTES["matroid_reachability_based"].spec),
)
