"""Core data model for mixed hypergraphs.

A mixed hypergraph has vertices 0..n-1, undirected hyperedges (vertex sets
of size >= 2) and dyperedges (directed hyperedges: a nonempty tail set plus
a head outside it).  Digraphs, mixed graphs, graphs and dypergraphs are the
obvious restrictions.  Traversal semantics: a hyperedge can be walked
between any two of its vertices, a dyperedge only from a tail to its head.

Everything here is immutable and pure.  Inside the core a vertex set is a
bit mask (bit v for vertex v): each structure builds its element masks
once, and the entering rule, reachability and the subset and subpartition
enumerations work on masks.  ``subset_sweep`` counts the in-degree of every
subset of a pool at once, in big-int bitmaps of at most 2**16 subsets, and
evaluates an inequality only on the subsets entered by fewer dyperedges
than the ceiling of its right side; ``part_entering`` reads the entering
count of disjoint parts from one table by part mask.  Frozensets stay at
the boundary: ``Instance`` fields, witness payloads and the frozenset
wrappers ``in_degree``, ``entering_count``, ``reach_from``, ``reach_to``,
``subsets`` and ``subpartitions``.
Derived data (reachability, strongly connected components) is memoized on
the instance; set functions and matroids keep their own tables by mask.
``check_inputs`` validates what an ``Instance`` gives a reader.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .matroids import Matroid
    from .setfuncs import SetFunctionOracle

DEFAULT_CAP = 10_000_000


class CapExceededError(RuntimeError):
    """An enumeration hit its configured work cap before finishing."""


class PropertyViolationError(ValueError):
    """An input broke a property it was declared to satisfy."""


class Budget:
    """Mutable step counter shared by the enumerations of one operation."""

    __slots__ = ("cap", "remaining")

    def __init__(self, cap: int = DEFAULT_CAP):
        if cap < 1:
            raise ValueError("cap must be positive")
        self.cap = cap
        self.remaining = cap

    def spend(self, amount: int = 1) -> None:
        """Take amount steps at once.  Running out stops at the first step
        past the cap and leaves remaining where amount single steps would."""
        if amount > self.remaining:
            self.remaining = min(self.remaining, 0) - 1
            raise CapExceededError(f"enumeration exceeded cap of {self.cap}")
        self.remaining -= amount


def is_int(x) -> bool:
    """An integer, not a bool: JSON true and false parse as bool, which is
    an int too."""
    return isinstance(x, int) and not isinstance(x, bool)


def as_budget(cap: int | Budget | None) -> Budget:
    if isinstance(cap, Budget):
        return cap
    return Budget(DEFAULT_CAP if cap is None else cap)


# ---------------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class Witness:
    """Certificate for a failed check.

    kind says how to read payload:
      "subset"            payload = (frozenset X,)
      "subpartition"      payload = (parts tuple,)
      "component_family"  payload = (component, family tuple)
      "vertex"            payload = (v,)
      "global"            payload = () or scalars, see note
      "ground_subset"     payload = (tuple of ground elements, side "g" or "f")
      "pair"              payload = (X, Y)
    lhs/rhs record the two sides of the violated inequality (lhs < rhs).
    """

    kind: str
    payload: tuple
    lhs: int | None = None
    rhs: int | None = None
    note: str = ""


@dataclass(frozen=True)
class Verdict:
    """Boolean outcome plus certificate."""

    holds: bool
    witness: Witness | None = None

    def __bool__(self) -> bool:
        return self.holds


HOLDS = Verdict(True)


# ---------------------------------------------------------------------------
# the structure

Dyperedge = tuple[frozenset[int], int]


@dataclass(frozen=True)
class MixedHypergraph:
    """Immutable mixed hypergraph on vertices 0..n-1.

    hyperedges: tuple of frozensets, each of size >= 2
    dyperedges: tuple of (tails, head) with head not in tails, tails nonempty

    Parallel elements are allowed and keep distinct indices.  Built once
    from these: hyperedge_masks (a vertex mask per hyperedge),
    dyperedge_masks (a (tail mask, head bit) pair per dyperedge) and
    tails_into (a (head bit, tail masks) pair per vertex that some
    dyperedge enters, by increasing vertex).
    """

    n: int
    hyperedges: tuple[frozenset[int], ...] = ()
    dyperedges: tuple[Dyperedge, ...] = ()
    _cache: dict = field(default_factory=dict, repr=False, compare=False, hash=False)
    hyperedge_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    dyperedge_masks: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    tails_into: tuple[tuple[int, tuple[int, ...]], ...] = field(init=False, repr=False,
                                                               compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        hs = tuple(frozenset(e) for e in self.hyperedges)
        ds = tuple((frozenset(z), int(h)) for z, h in self.dyperedges)
        object.__setattr__(self, "hyperedges", hs)
        object.__setattr__(self, "dyperedges", ds)
        for e in hs:
            if len(e) < 2:
                raise ValueError(f"hyperedge {sorted(e)} has fewer than 2 vertices")
            if not all(0 <= v < self.n for v in e):
                raise ValueError(f"hyperedge {sorted(e)} out of range")
        for tails, head in ds:
            if not tails:
                raise ValueError("dyperedge with empty tail set")
            if head in tails:
                raise ValueError(f"dyperedge head {head} contained in its tails")
            if not all(0 <= v < self.n for v in tails) or not 0 <= head < self.n:
                raise ValueError("dyperedge out of range")
        dmasks = tuple((vertex_mask(tails), 1 << head) for tails, head in ds)
        into: dict[int, list[int]] = {}
        for tails, head in sorted(dmasks, key=lambda d: d[1]):
            into.setdefault(head, []).append(tails)
        object.__setattr__(self, "hyperedge_masks", tuple(vertex_mask(e) for e in hs))
        object.__setattr__(self, "dyperedge_masks", dmasks)
        object.__setattr__(self, "tails_into", tuple((bit, tuple(ts)) for bit, ts in into.items()))

    def is_digraph(self) -> bool:
        return not self.hyperedges and all(len(z) == 1 for z, _ in self.dyperedges)

    def is_mixed_graph(self) -> bool:
        return all(len(e) == 2 for e in self.hyperedges) and all(
            len(z) == 1 for z, _ in self.dyperedges
        )

    def is_dypergraph(self) -> bool:
        return not self.hyperedges


def orient(hyperedge: frozenset[int], head: int) -> Dyperedge:
    """Orient a hyperedge into the dyperedge (hyperedge - head, head)."""
    if head not in hyperedge:
        raise ValueError(f"{head} does not lie on the hyperedge")
    return (hyperedge - {head}, head)


def orient_all(f: MixedHypergraph, heads: Sequence[int]) -> MixedHypergraph:
    """Replace every hyperedge by its orientation with the given head.

    The result's dyperedges list the original dyperedges first, then the
    oriented hyperedges in hyperedge order (index offset len(f.dyperedges)).
    """
    if len(heads) != len(f.hyperedges):
        raise ValueError("need one head per hyperedge")
    oriented = tuple(orient(e, h) for e, h in zip(f.hyperedges, heads))
    return MixedHypergraph(f.n, (), f.dyperedges + oriented)


def induced_subgraph(
    f: MixedHypergraph, keep: frozenset[int]
) -> tuple[MixedHypergraph, list[int], list[int]]:
    """Subgraph induced by a vertex set, with vertices relabeled 0..|keep|-1.

    Returns (sub, hyperedge_map, dyperedge_map) where the maps send local
    element indices back to indices in f.
    """
    order = sorted(keep)
    relabel = {v: i for i, v in enumerate(order)}
    hmap, amap, hs, ds = [], [], [], []
    for i, e in enumerate(f.hyperedges):
        if e <= keep:
            hmap.append(i)
            hs.append(frozenset(relabel[v] for v in e))
    for j, (tails, head) in enumerate(f.dyperedges):
        if tails <= keep and head in keep:
            amap.append(j)
            ds.append((frozenset(relabel[v] for v in tails), relabel[head]))
    return MixedHypergraph(len(order), tuple(hs), tuple(ds)), hmap, amap


# ---------------------------------------------------------------------------
# reachability

def _reach_from_single(f: MixedHypergraph) -> tuple[int, ...]:
    """Per vertex, the mask of the vertices it reaches (itself included),
    memoized."""
    cached = f._cache.get("reach1")
    if cached is not None:
        return cached
    succ = [0] * f.n
    for e in f.hyperedge_masks:
        for u in mask_bits(e):
            succ[u] |= e
    for tails, head in f.dyperedge_masks:
        for y in mask_bits(tails):
            succ[y] |= head
    out = []
    for s in range(f.n):
        seen = frontier = 1 << s
        while frontier:
            grown = 0
            for u in mask_bits(frontier):
                grown |= succ[u]
            frontier = grown & ~seen
            seen |= frontier
        out.append(seen)
    result = tuple(out)
    f._cache["reach1"] = result
    return result


def reach_to_singles(f: MixedHypergraph) -> tuple[int, ...]:
    """Per vertex, the mask of the vertices that reach it, memoized."""
    cached = f._cache.get("reach_to1")
    if cached is not None:
        return cached
    into = [0] * f.n
    for u, reached in enumerate(_reach_from_single(f)):
        for v in mask_bits(reached):
            into[v] |= 1 << u
    result = tuple(into)
    f._cache["reach_to1"] = result
    return result


def reach_from_mask(f: MixedHypergraph, x: int) -> int:
    """Mask of the vertices reachable from some vertex of mask x (x
    included)."""
    return mask_union(_reach_from_single(f), x)


def reach_from(f: MixedHypergraph, x: Iterable[int]) -> frozenset[int]:
    """Vertices reachable from at least one vertex of x (x included)."""
    return mask_vertices(reach_from_mask(f, vertex_mask(x)))


def reach_to_mask(f: MixedHypergraph, x: int) -> int:
    """Mask of the vertices from which some vertex of mask x is reachable
    (x included)."""
    return mask_union(reach_to_singles(f), x)


def reach_to(f: MixedHypergraph, x: Iterable[int]) -> frozenset[int]:
    """Vertices from which at least one vertex of x is reachable (x included)."""
    return mask_vertices(reach_to_mask(f, vertex_mask(x)))


def scc_condense(f: MixedHypergraph) -> tuple[frozenset[int], ...]:
    """Strongly connected components, topologically ordered.

    Any dyperedge running from component i to component j satisfies i < j;
    hyperedges never cross components.  Ties between incomparable
    components break on smallest contained vertex, so the order is
    deterministic.
    """
    cached = f._cache.get("scc")
    if cached is not None:
        return cached
    rf = _reach_from_single(f)
    assigned = [False] * f.n
    comps = []
    for v in range(f.n):
        if assigned[v]:
            continue
        comp = frozenset(u for u in mask_bits(rf[v]) if rf[u] >> v & 1)
        for u in comp:
            assigned[u] = True
        comps.append(comp)
    # u reaches strictly more vertices than anything it reaches but is not
    # reached by, so sorting by closure size descending is a topological order
    comps.sort(key=lambda c: (-rf[min(c)].bit_count(), min(c)))
    result = tuple(comps)
    f._cache["scc"] = result
    return result


# ---------------------------------------------------------------------------
# entering and counting

def in_degree_mask(f: MixedHypergraph, x: int, at: int = -1) -> int:
    """Number of dyperedges entering the vertex mask x, counting only those
    with their head in the mask at when it is given.  A dyperedge enters x
    iff its head is in x and some tail is outside x."""
    at &= x
    out = ~x
    total = 0
    for head, tails in f.tails_into:
        if at & head:
            for t in tails:
                if t & out:
                    total += 1
    return total


def entering_mask(f: MixedHypergraph, parts: Sequence[int]) -> int:
    """Number of elements entering at least one of the vertex masks in
    parts, each element counted once.

    A hyperedge enters y iff it meets both y and its own part outside y.
    A dyperedge enters some part iff it enters the intersection of the
    parts holding its head, so pairwise disjoint parts add their
    in-degrees, and overlapping ones are grouped by that intersection."""
    total = 0
    for e in f.hyperedge_masks:
        for y in parts:
            if e & y and e & ~y:
                total += 1
                break
    union = 0
    overlap = False
    for y in parts:
        overlap = overlap or bool(union & y)
        union |= y
    if not overlap:
        return total + sum(in_degree_mask(f, y) for y in parts)
    heads_by_inside: dict[int, int] = {}
    for v in mask_bits(union):
        inside = -1
        for y in parts:
            if y >> v & 1:
                inside &= y
        heads_by_inside[inside] = heads_by_inside.get(inside, 0) | 1 << v
    return total + sum(in_degree_mask(f, inside, at) for inside, at in heads_by_inside.items())


def part_entering(f: MixedHypergraph) -> Callable[[Sequence[int]], int]:
    """entering_mask(f, parts) for pairwise disjoint parts, read from one
    table by part mask: the bits of the hyperedges entering the part and
    its in-degree.  A hyperedge entering several parts counts once in the
    union of their bits; a dyperedge enters at most the part holding its
    head, so the in-degrees add."""
    table: dict[int, tuple[int, int]] = {}

    def entering(parts: Sequence[int]) -> int:
        crossing = total = 0
        for y in parts:
            term = table.get(y)
            if term is None:
                term = table[y] = (sum(1 << i for i, e in enumerate(f.hyperedge_masks)
                                       if e & y and e & ~y), in_degree_mask(f, y))
            crossing |= term[0]
            total += term[1]
        return total + crossing.bit_count()

    return entering


def in_degree(f: MixedHypergraph, x: Iterable[int]) -> int:
    """Number of dyperedges entering x."""
    return in_degree_mask(f, vertex_mask(x))


def entering_count(f: MixedHypergraph, parts: Iterable[Iterable[int]]) -> int:
    """Number of elements (hyperedges or dyperedges) entering at least one
    of the given sets, each element counted once."""
    return entering_mask(f, [vertex_mask(y) for y in parts])


# ---------------------------------------------------------------------------
# the subset sweep: every subset's in-degree at once

SWEEP_BLOCK = 16  # pool vertices a bitmap of subset_sweep spans: 2**16 masks


@functools.cache
def _holding(width: int) -> tuple[int, ...]:
    """Per position i < width, the bitmap over the masks 0..2**width - 1 (bit
    j for the mask j) of those holding bit i."""
    full = (1 << (1 << width)) - 1
    return tuple(full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
                 for i in range(width))


def _fewer_than(entries: Iterable[int], ceiling: int, full: int) -> int:
    """The bitmap of the masks in full held by fewer than ceiling (at least
    1) of the entry bitmaps.  Each entry is added into binary counter planes
    with a ripple carry, a count past the top plane saturates, and the
    planes are compared with ceiling bit-sliced, top bit first."""
    planes = [0] * ceiling.bit_length()
    over = 0
    for carry in entries:
        for i, plane in enumerate(planes):
            planes[i], carry = plane ^ carry, plane & carry
            if not carry:
                break
        else:
            over |= carry
    below, equal = 0, full & ~over
    for i in reversed(range(len(planes))):
        if ceiling >> i & 1:
            below |= equal & ~planes[i]
            equal &= planes[i]
        else:
            equal &= ~planes[i]
    return below


@functools.lru_cache(maxsize=16)
def _at_most(width: int, size: int) -> int:
    """The bitmap over the masks 0..2**width - 1 of those with at most size
    bits."""
    return _fewer_than(_holding(width), size + 1, (1 << (1 << width)) - 1)


def _set_bits(bitmap: int) -> list[int]:
    """Indices of the bits set in bitmap, increasing, read off its binary
    digits: one pass over a wide bitmap, where mask_bits does big-int work
    per set bit."""
    digits = format(bitmap, "b")[::-1]
    out = []
    j = digits.find("1")
    while j >= 0:
        out.append(j)
        j = digits.find("1", j + 1)
    return out


def _lex_rank(positions: Sequence[int], p: int) -> int:
    """Index of the increasing positions among the combinations of range(p)
    of their size, in lexicographic order."""
    rank, low, r = 0, 0, len(positions)
    for i, c in enumerate(positions):
        for j in range(low, c):
            rank += math.comb(p - 1 - j, r - 1 - i)
        low = c + 1
    return rank


def subset_sweep(f: MixedHypergraph, bits: Sequence[int], include_empty: bool, budget: Budget,
                 ceiling: int, value: Callable[[int], tuple[int, int]]
                 ) -> tuple[int, int, int] | None:
    """The first mask X of subset_masks(bits, include_empty) with value(X) =
    (lhs, rhs) and lhs < rhs, as (X, lhs, rhs), or None; budget pays the
    steps subset_masks would take up to X, or over the whole sweep when no
    mask fails, and runs out where it would.

    value's lhs must be in_degree_mask(f, X) and its rhs at most ceiling, so
    only the masks with in(X) < ceiling can fail, and value runs on those
    candidates alone.  The 2**p masks of the p pool vertices are indexed by
    their compressed mask (bit j for bits[j]), and each pool vertex has the
    bitmap of the masks holding it; a dyperedge (T, h) enters exactly the
    masks holding h and not all of T (a tail outside the pool is held by
    none).  These entry bitmaps go into counter planes (_fewer_than), so
    every in-degree is counted at once.  The candidates are evaluated by
    size, then lexicographically in pool order, which is the sweep order;
    the first failure's sweep position is its rank among the masks of its
    size plus the masks of smaller sizes.

    No bitmap spans more than 2**SWEEP_BLOCK masks: a larger pool is swept
    in blocks, the first SWEEP_BLOCK pool vertices free and the others
    fixed to one subset per block, visited by increasing size.  The walk
    stops once every mask left lies past the budget or is larger than the
    failure found.
    """
    p = len(bits)
    width = min(p, SWEEP_BLOCK)
    inner, outer = bits[:width], bits[width:]
    full = (1 << (1 << width)) - 1
    pool = sum(bits)
    edges = [(head, [1 << t for t in mask_bits(tails)])
             for tails, head in f.dyperedge_masks if head & pool]
    before = list(itertools.accumulate((math.comb(p, r) for r in range(p + 1)), initial=0))
    skipped = 0 if include_empty else 1

    def ahead(size: int) -> int:
        """The number of masks the sweep visits before the first of size."""
        return before[size] - skipped if size else 0

    def first_failure(chosen: tuple[int, ...], top: int):
        """(size, positions, X, lhs, rhs) of the block's first failing mask
        of at most top inner vertices, or None."""
        fixed = sum(outer[i] for i in chosen)
        of = dict(zip(inner, _holding(width)))
        of.update((outer[i], full) for i in chosen)
        entries = []
        for head, tails in edges:
            entry = of.get(head, 0)
            if entry:
                inside = full
                for t in tails:
                    inside &= of.get(t, 0)
                    if not inside:
                        break
                entries.append(entry & ~inside)
        short = _fewer_than(entries, ceiling, full)
        if not (include_empty or fixed):
            short &= ~1
        if top < width:
            short &= _at_most(width, top)
        levels: dict[int, list[int]] = {}
        for j in _set_bits(short):
            levels.setdefault(j.bit_count(), []).append(j)
        for size in sorted(levels):
            for positions, j in sorted((mask_bits(j), j) for j in levels[size]):
                x = mask_union(inner, j) | fixed
                lhs, rhs = value(x)
                if lhs < rhs:
                    return (size + len(chosen), positions + [width + i for i in chosen],
                            x, lhs, rhs)
        return None

    within = max((size for size in range(p + 1) if ahead(size) < budget.remaining), default=-1)
    best = None
    blocks = (chosen for r in range(len(outer) + 1)
              for chosen in itertools.combinations(range(len(outer)), r))
    for chosen in blocks if ceiling > 0 else ():
        top = min(within, best[0] if best else p) - len(chosen)
        if top < 0:
            break
        found = first_failure(chosen, top)
        if found and (best is None or found[:2] < best[:2]):
            best = found
    if best is None:
        budget.spend(before[p + 1] - skipped)
        return None
    size, positions, x, lhs, rhs = best
    budget.spend(ahead(size) + _lex_rank(positions, p) + 1)
    return x, lhs, rhs


# ---------------------------------------------------------------------------
# root multisets and bounds

@dataclass(frozen=True)
class RootMultiset:
    """Multiset of root vertices, stored as a count per vertex.

    Copies of a vertex are addressed as (vertex, copy_index); matroids on
    the multiset take these pairs as ground elements.
    """

    counts: tuple[int, ...]
    _copies: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if any(c < 0 for c in self.counts):
            raise ValueError("root multiplicities must be nonnegative")
        object.__setattr__(self, "_copies", tuple(
            (v, i) for v, c in enumerate(self.counts) for i in range(c)))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "RootMultiset":
        """The multiset on vertices 0..n-1 with the given (vertex, count)
        pairs, every other vertex at count 0; each vertex appears at most
        once."""
        counts = [0] * n
        seen = set()
        for v, c in pairs:
            if not 0 <= v < n:
                raise ValueError(f"root vertex {v} outside 0..{n - 1}")
            if v in seen:
                raise ValueError(f"root vertex {v} given twice")
            seen.add(v)
            counts[v] = c
        return cls(tuple(counts))

    @property
    def n(self) -> int:
        return len(self.counts)

    def size(self) -> int:
        return sum(self.counts)

    def count(self, v: int) -> int:
        return self.counts[v]

    def copies(self) -> tuple[tuple[int, int], ...]:
        return self._copies

    def restrict(self, x: Iterable[int]) -> tuple[tuple[int, int], ...]:
        xs = set(x)
        return tuple(c for c in self._copies if c[0] in xs)

    def ranker(self, matroid: Matroid) -> Callable[[int], int]:
        """matroid's rank of the copies on a vertex mask, asked once per
        trace of the mask on the support (no matroid rank spends budget)."""
        copies = [(1 << v, matroid.mask((v, i) for i in range(c)))
                  for v, c in enumerate(self.counts) if c]
        support = sum(bit for bit, _ in copies)
        rank = functools.cache(lambda x: matroid.rank_mask(sum(z for bit, z in copies if x & bit)))
        return lambda x: rank(x & support)

    def support(self) -> frozenset[int]:
        return frozenset(v for v, c in enumerate(self.counts) if c)


@dataclass(frozen=True)
class Bounds:
    """Numeric packing bounds: per-vertex root bounds f <= g, member count k,
    and total member limits l <= lprime.  Fields not used by a check may be
    left None."""

    f: tuple[int, ...] | None = None
    g: tuple[int, ...] | None = None
    k: int | None = None
    l: int | None = None
    lprime: int | None = None

    def __post_init__(self):
        for name in ("f", "g"):
            val = getattr(self, name)
            if val is not None:
                val = tuple(int(x) for x in val)
                object.__setattr__(self, name, val)
                if any(x < 0 for x in val):
                    raise ValueError(f"{name} must be nonnegative")
        for name in ("k", "l", "lprime"):
            val = getattr(self, name)
            if val is not None and val < 0:
                raise ValueError(f"{name} must be nonnegative")

    def g_k(self, v: int) -> int:
        return min(self.k, self.g[v])

    def g_k_sum(self, x: int) -> int:
        """Sum of min(k, g(v)) over the vertex mask x."""
        return sum(min(self.k, self.g[v]) for v in mask_bits(x))

    def f_sum(self, x: int) -> int:
        """Sum of f(v) over the vertex mask x."""
        return mask_sum(self.f, x)


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


def check_inputs(inst: Instance, what: str, graph: str = "mixed_hypergraph",
                 needs: tuple[str, ...] = (), bounds: tuple[str, ...] = (),
                 requires: tuple = ()) -> None:
    """Raise ValueError unless inst has everything what reads: a graph of
    the kind graph (a key of _KIND_TESTS), the Instance fields in needs
    (roots, matroid and h are checked here, bounds through its fields),
    the Bounds fields in bounds, and every (test, description) in requires."""
    test, desc = _KIND_TESTS[graph]
    if not test(inst.graph):
        raise ValueError(f"{what} needs {desc}")
    if "roots" in needs:
        if inst.roots is None:
            raise ValueError(f"{what} needs a root multiset")
        if len(inst.roots.counts) != inst.graph.n:
            raise ValueError("root multiset does not match the vertex count")
    if "matroid" in needs:
        if inst.matroid is None:
            raise ValueError(f"{what} needs a matroid on the root multiset")
        if inst.matroid.bit.keys() != set(inst.roots.copies()):
            raise ValueError("matroid ground must be exactly the root copies")
    if "h" in needs and inst.h is None:
        raise ValueError(f"{what} needs a set function h")
    for name in bounds:
        val = None if inst.bounds is None else getattr(inst.bounds, name)
        if val is None:
            raise ValueError(f"{what} needs bounds.{name}")
        if name in ("f", "g") and len(val) != inst.graph.n:
            raise ValueError(f"bounds.{name} does not match the vertex count")
    for holds, description in requires:
        if not holds(inst):
            raise ValueError(f"{what} needs {description}")


# ---------------------------------------------------------------------------
# enumeration helpers (canonical orders)

def subsets(
    items: Iterable,
    include_empty: bool = True,
    budget: Budget | None = None,
) -> Iterator[frozenset]:
    """All subsets, by increasing size then lexicographic in item order."""
    pool = list(items)
    for mask in subset_masks(low_bits(len(pool)), include_empty, budget):
        yield mask_items(pool, mask)


def subset_masks(bits: Sequence[int], include_empty: bool = True,
                 budget: Budget | None = None) -> Iterator[int]:
    """The subsets of the items with the given bits, as masks, in the order
    of subsets(): by increasing size, then lexicographic in bits order."""
    for r in range(0 if include_empty else 1, len(bits) + 1):
        for combo in itertools.combinations(bits, r):
            if budget is not None:
                budget.spend()
            yield sum(combo)


def low_bits(n: int) -> list[int]:
    """The bits of items 0..n-1."""
    return [1 << i for i in range(n)]


def vertex_mask(vs: Iterable[int]) -> int:
    """Bit mask of a vertex set (bit v for vertex v)."""
    mask = 0
    for v in vs:
        mask |= 1 << v
    return mask


def mask_bits(mask: int) -> list[int]:
    """Indices of the bits set in mask, increasing."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_vertices(mask: int) -> frozenset[int]:
    """The vertex set of a mask."""
    return frozenset(mask_bits(mask))


def mask_sum(weights: Sequence[int], mask: int) -> int:
    """Sum of weights[v] over the vertices v of mask."""
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def mask_union(masks: Sequence[int], mask: int) -> int:
    """Union of masks[i] over the bits i of mask."""
    union = 0
    while mask:
        low = mask & -mask
        union |= masks[low.bit_length() - 1]
        mask ^= low
    return union


def mask_items(items: Sequence, mask: int) -> frozenset:
    """The items whose bits are set in mask (bit i for items[i]), read off
    the set bits alone."""
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def partition_masks(bits: Sequence[int], budget: Budget | None = None
                    ) -> Iterator[tuple[int, ...]]:
    """All partitions of the items with the given bits into nonempty
    blocks, as tuples of block masks, in restricted growth string order:
    item i joins each open block in turn, then opens a new one.  Blocks
    are ordered by first appearance; one budget step per partition.

    The walk is iterative: the next partition moves the last item that can
    move on to its next block (a new one if it ends the open ones) and puts
    every later item back into the first block."""
    n = len(bits)
    where = [0] * n
    blocks = [sum(bits)] if n else []
    while True:
        if budget is not None:
            budget.spend()
        yield tuple(blocks)
        i = n - 1
        while i > 0:
            j = where[i]
            blocks[j] ^= bits[i]
            if not blocks[j]:
                blocks.pop()
            if j + 1 <= len(blocks):
                break
            i -= 1
        if i <= 0:
            return
        where[i] = j = j + 1
        if j == len(blocks):
            blocks.append(bits[i])
        else:
            blocks[j] |= bits[i]
        for t in range(i + 1, n):
            where[t] = 0
            blocks[0] |= bits[t]


def subpartition_masks(bits: Sequence[int], budget: Budget | None = None
                       ) -> Iterator[tuple[int, ...]]:
    """All subpartitions of the items with the given bits, as tuples of
    block masks: the partitions of each subset in subset_masks() order,
    the empty one first; one budget step per subpartition."""
    for support in subset_masks(bits):
        yield from partition_masks([b for b in bits if support & b], budget)


def set_partitions(
    items: Iterable, budget: Budget | None = None
) -> Iterator[tuple[frozenset, ...]]:
    """All partitions of the items into nonempty blocks, in restricted
    growth string order.  Blocks are ordered by first appearance."""
    pool = list(items)
    for blocks in partition_masks(low_bits(len(pool)), budget):
        yield tuple(mask_items(pool, b) for b in blocks)


def subpartitions(
    items: Iterable, budget: Budget | None = None
) -> Iterator[tuple[frozenset, ...]]:
    """All subpartitions: every partition of every subset, empty one first."""
    pool = list(items)
    for blocks in subpartition_masks(low_bits(len(pool)), budget):
        yield tuple(mask_items(pool, b) for b in blocks)
