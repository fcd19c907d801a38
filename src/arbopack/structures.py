"""Core data model for mixed hypergraphs.

A mixed hypergraph has vertices 0..n-1, undirected hyperedges (vertex sets
of size >= 2) and dyperedges (directed hyperedges: a nonempty tail set plus
a head outside it).  Digraphs, mixed graphs, graphs and dypergraphs are the
obvious restrictions.  Traversal semantics: a hyperedge can be walked
between any two of its vertices, a dyperedge only from a tail to its head.

Everything here is immutable and pure.  Inside the core a vertex set is a
bit mask (bit v for vertex v): each structure builds its element masks
once, and the entering rule, reachability and the subset and subpartition
enumerations work on masks.  ``subset_sweep`` walks the subsets with their
in-degree, weight and reach, each taken inline from the subset one size
smaller, and ``part_entering`` reads the entering count of disjoint parts
from one table by part mask.  Frozensets stay at the boundary:
``Instance`` fields, witness payloads and the frozenset wrappers
``in_degree``, ``entering_count``, ``reach_from``, ``reach_to``,
``subsets`` and ``subpartitions``.
Derived data (reachability, strongly connected components) is memoized on
the instance; set functions and matroids keep their own tables by mask.
``check_inputs`` validates what an ``Instance`` gives a reader.
"""
from __future__ import annotations

import collections
import functools
import itertools
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
# terms folded along a subset sweep

def _incidence(f: MixedHypergraph) -> tuple[tuple[tuple[int, ...], ...],
                                            tuple[tuple[tuple[int, int], ...], ...]]:
    """Per vertex v, the tail masks of the dyperedges into v, and the (tail
    mask, head bit) pairs of the dyperedges with v among their tails;
    memoized."""
    cached = f._cache.get("incidence")
    if cached is not None:
        return cached
    into: list[list[int]] = [[] for _ in range(f.n)]
    leaving: list[list[tuple[int, int]]] = [[] for _ in range(f.n)]
    for tails, head in f.dyperedge_masks:
        into[head.bit_length() - 1].append(tails)
        for y in mask_bits(tails):
            leaving[y].append((tails, head))
    result = (tuple(map(tuple, into)), tuple(map(tuple, leaving)))
    f._cache["incidence"] = result
    return result


def subset_sweep(f: MixedHypergraph, bits: Sequence[int], include_empty: bool, budget: Budget,
                 weights: Sequence[int] | None = None, spread: Sequence[int] | None = None
                 ) -> Iterator[tuple[int, int, int, int]]:
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
    spread ORs in spread[v].  Only entries that have children are queued,
    and the queue spans two size levels at most.
    """
    into, leaving = _incidence(f)
    weights, spread = weights or (0,) * f.n, spread or (0,) * f.n
    steps = [(bit, into[v], leaving[v], weights[v], spread[v], j + 1)
             for j, bit in enumerate(bits) for v in (bit.bit_length() - 1,)]
    last = len(steps)
    spend = budget.spend
    if include_empty:
        spend()
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
            spend()
            yield x, d, w, r
            if after < last:
                queue.append((x, after, d, w, r))


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
    are ordered by first appearance; one budget step per partition."""
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
