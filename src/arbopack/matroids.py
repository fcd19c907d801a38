"""Rank oracles.

All matroids expose a common interface over an ordered ground tuple.
Inside, an element set is a bit mask (bit i for ground[i]): each kind
writes its independence rule once, independent_mask(), and rank_mask() is
the greedy over it (greedy_basis with a fresh table), exact for every kind
here because each is a matroid; the explicit kind's list is checked
against the axioms at construction.  mask() is the one ground check, and
rank() and independent() are the frozenset forms for the boundary.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

from .structures import (
    Budget,
    CapExceededError,
    MixedHypergraph,
    Verdict,
    Witness,
    as_budget,
    entering_mask,
    low_bits,
    mask_items,
    mask_union,
    mask_vertices,
    partition_masks,
    subset_masks,
    vertex_mask,
)


class Matroid:
    """Base rank oracle over a finite ground tuple of distinct elements;
    bit[e] is the bit of element e."""

    kind = "abstract"

    def __init__(self, ground: Iterable):
        self.ground = tuple(ground)
        self.bit = {e: 1 << i for i, e in enumerate(self.ground)}
        if len(self.bit) != len(self.ground):
            raise ValueError("ground elements must be distinct")

    def mask(self, zs: Iterable) -> int:
        """The bit mask of an element set of the ground."""
        try:
            return sum({self.bit[e] for e in zs})
        except KeyError as exc:
            raise ValueError(f"element not in the ground: {exc.args[0]!r}") from None

    def elements(self, z: int) -> frozenset:
        """The element set of the mask z; mask() inverts it."""
        return mask_items(self.ground, z)

    def independent(self, zs: Iterable) -> bool:
        return self.independent_mask(self.mask(zs))

    def rank(self, zs: Iterable) -> int:
        return self.rank_mask(self.mask(zs))

    def full_rank(self) -> int:
        return self.rank_mask((1 << len(self.ground)) - 1)

    def independent_mask(self, z: int) -> bool:
        raise NotImplementedError

    def rank_mask(self, z: int) -> int:
        return self.greedy_basis({0: 0}, z).bit_count()

    def greedy_basis(self, table: dict[int, int], mask: int) -> int:
        """The greedy basis of the elements of mask, taken in ground order,
        as a mask: the basis of mask minus its last element, plus that
        element when the two are independent together.  table maps masks
        to their bases and must hold {0: 0}; it gains mask and each prefix
        of mask it lacks, one independence query each."""
        chain = []
        while mask not in table:
            chain.append(mask)
            mask ^= 1 << (mask.bit_length() - 1)
        basis = table[mask]
        for prefix in reversed(chain):
            top = 1 << (prefix.bit_length() - 1)
            if self.independent_mask(basis | top):
                basis |= top
            table[prefix] = basis
        return basis


class FreeMatroid(Matroid):
    kind = "free"

    def independent_mask(self, z: int) -> bool:
        return True


class UniformMatroid(Matroid):
    kind = "uniform"

    def __init__(self, ground: Iterable, r: int):
        if r < 0:
            raise ValueError("uniform rank must be nonnegative")
        super().__init__(ground)
        self.r = r

    def independent_mask(self, z: int) -> bool:
        return z.bit_count() <= self.r


class PartitionMatroid(Matroid):
    """Ground split into blocks (block_masks), each with a capacity."""

    kind = "partition"

    def __init__(self, ground: Iterable, blocks: Sequence[Iterable], capacities: Sequence[int]):
        super().__init__(ground)
        self.block_masks = tuple(self.mask(b) for b in blocks)
        self.capacities = tuple(int(c) for c in capacities)
        if len(self.block_masks) != len(self.capacities):
            raise ValueError("one capacity per block required")
        if any(c < 0 for c in self.capacities):
            raise ValueError("capacities must be nonnegative")
        union = 0
        for b in self.block_masks:
            if b & union:
                raise ValueError("blocks must be disjoint")
            union |= b
        if union != (1 << len(self.ground)) - 1:
            raise ValueError("blocks must cover the ground exactly")

    def independent_mask(self, z: int) -> bool:
        return all((z & b).bit_count() <= c for b, c in zip(self.block_masks, self.capacities))


class ExplicitMatroid(Matroid):
    """Matroid given by the full list of independent sets.

    The list is checked for nonemptiness, downward closure and the exchange
    property at construction.
    """

    kind = "explicit"

    def __init__(self, ground: Iterable, independent_sets: Iterable[Iterable]):
        super().__init__(ground)
        self.family = frozenset(frozenset(s) for s in independent_sets)
        self.family_masks = frozenset(self.mask(s) for s in self.family)
        problem = self._axiom_problem()
        if problem:
            raise ValueError(f"independence list is not a matroid: {problem}")

    def _axiom_problem(self) -> str | None:
        if frozenset() not in self.family:
            return "the empty set is missing"
        for s in self.family:
            for e in s:
                if s - {e} not in self.family:
                    return f"not downward closed at {sorted(s)} minus {e!r}"
        for a in self.family:
            for b in self.family:
                if len(a) < len(b):
                    if not any(a | {e} in self.family for e in b - a):
                        return f"exchange fails for {sorted(a)} and {sorted(b)}"
        return None

    def independent_mask(self, z: int) -> bool:
        return z in self.family_masks


class HypergraphicMatroid(Matroid):
    """Matroid of a hypergraph on vertices 0..n-1: a set of hyperedges is
    independent iff every nonempty subset spans more vertices than it has
    elements.  vertex_masks[i] is the vertex mask of ground[i]; answers
    holds the rule's answer per ground mask asked."""

    kind = "hypergraphic"

    def __init__(self, ground: Iterable, vertex_sets: dict):
        super().__init__(ground)
        self.vertex_masks = tuple(vertex_mask(vertex_sets[e]) for e in self.ground)
        if any(vs.bit_count() < 2 for vs in self.vertex_masks):
            raise ValueError("hyperedges must span at least 2 vertices")
        self.answers: dict[int, bool] = {}

    def independent_mask(self, z: int) -> bool:
        got = self.answers.get(z)
        if got is None:
            got = self.answers[z] = self._spans_enough(z)
        return got

    def _spans_enough(self, z: int) -> bool:
        """Does every nonempty subset of z span more vertices than it has
        elements?"""
        sub = z
        while sub:
            if mask_union(self.vertex_masks, sub).bit_count() <= sub.bit_count():
                return False
            sub = (sub - 1) & z
        return True


class KSumMatroid(Matroid):
    """Sum of k copies of an inner matroid: independent iff the set splits
    into k sets each independent in the inner matroid.  The ground and its
    bits are the inner matroid's; answers holds the rule's answer per
    ground mask asked."""

    kind = "ksum"

    def __init__(self, inner: Matroid, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        super().__init__(inner.ground)
        self.inner = inner
        self.k = k
        self.answers: dict[int, bool] = {}

    def independent_mask(self, z: int) -> bool:
        got = self.answers.get(z)
        if got is None:
            got = self.answers[z] = self._place(z, [0] * self.k)
        return got

    def _place(self, z: int, bins: list[int]) -> bool:
        """Can the elements of z, lowest first, join the k bins (masks, the
        nonempty ones first; the first empty one stands for all) with every
        bin independent in the inner matroid?  A method: a recursive closure
        is a reference cycle that keeps this matroid alive until the cyclic
        collector runs."""
        if not z:
            return True
        low = z & -z
        for i, b in enumerate(bins):
            if self.inner.independent_mask(b | low):
                bins[i] = b | low
                if self._place(z ^ low, bins):
                    return True  # the bins are dropped on success
                bins[i] = b
            if not b:
                return False
        return False


# ---------------------------------------------------------------------------
# extended ground of a mixed hypergraph

ARC = "A"
COPY = "E"


def extended_ground(f: MixedHypergraph) -> tuple:
    """Dyperedges of f followed by every orientation of every hyperedge.

    Elements are ("A", j) for dyperedge j and ("E", i, head) for the copy of
    hyperedge i oriented toward head.  Copies of one hyperedge are mutually
    parallel in the extended matroid.
    """
    return (tuple((ARC, j) for j in range(len(f.dyperedges)))
            + tuple((COPY, i, head) for i, e in enumerate(f.hyperedges) for head in sorted(e)))


def element_head(f: MixedHypergraph, elem: tuple) -> int:
    if elem[0] == ARC:
        return f.dyperedges[elem[1]][1]
    return elem[2]


class ExtendedHypergraphicMatroid(Matroid):
    """k-hypergraphic matroid of the underlying hypergraph of a mixed
    hypergraph, with every hyperedge replaced by its parallel oriented
    copies.

    origin_bits[i] is the bit, in the underlying matroid, of the dyperedge
    or hyperedge that ground[i] comes from.  rank() answers through the
    independence rule; rank_partition_argmin() and
    rank_by_partition_formula() answer through the partition minimum, for
    cross-checking.
    """

    kind = "extended"

    def __init__(self, f: MixedHypergraph, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        super().__init__(extended_ground(f))
        self.f = f
        self.k = k
        # underlying hypergraph: one element per dyperedge (tails plus head)
        # and one per hyperedge, shared by all of its copies
        vsets = {(ARC, j): tails | {head} for j, (tails, head) in enumerate(f.dyperedges)}
        vsets.update({(COPY, i): e for i, e in enumerate(f.hyperedges)})
        self.underlying = KSumMatroid(HypergraphicMatroid(vsets, vsets), k)
        self.origin_bits = tuple(self.underlying.bit[e[:2]] for e in self.ground)

    def independent_mask(self, z: int) -> bool:
        origins = mask_union(self.origin_bits, z)
        # fewer origins than elements: two copies of one hyperedge, parallel
        return origins.bit_count() == z.bit_count() and self.underlying.independent_mask(origins)

    def rank_partition_argmin(self, zs: Iterable, cap: int | Budget | None = None
                              ) -> tuple[tuple[frozenset[int], ...], int]:
        """First partition of the vertex set minimizing (dyperedges of z
        entering the partition) + (hyperedges with a copy in z entering the
        partition) + k * (n - number of classes), with that minimum: the
        rank of z."""
        f = self.f
        # the elements of f with a copy in z, each once
        used = sorted(self.underlying.elements(mask_union(self.origin_bits, self.mask(zs))))
        z_graph = MixedHypergraph(f.n, tuple(f.hyperedges[i] for kind, i in used if kind == COPY),
                                  tuple(f.dyperedges[j] for kind, j in used if kind == ARC))

        def value(parts: tuple[int, ...]) -> int:
            return self.k * (f.n - len(parts)) + entering_mask(z_graph, parts)

        best = min(partition_masks(low_bits(f.n), as_budget(cap)), key=value)
        return tuple(mask_vertices(y) for y in best), value(best)

    def rank_by_partition_formula(self, zs: Iterable, cap: int | Budget | None = None) -> int:
        """Rank through the partition minimum; at most 10 vertices."""
        if self.f.n > 10:
            raise CapExceededError("partition formula limited to at most 10 vertices")
        return self.rank_partition_argmin(zs, cap)[1]


# ---------------------------------------------------------------------------
# axiom checking

def check_rank_axioms(m: Matroid, cap: int | Budget | None = None) -> Verdict:
    """Exhaustively test rank axioms: zero on empty, unit monotonicity and
    submodularity; the first two give 0 <= r(Z) <= |Z| on every subset.
    Intended for small grounds; raises CapExceededError when the pair
    enumeration would outgrow the budget.

    Subsets are ground masks visited in subsets() order; witnesses carry
    them back as frozensets.  The monotonicity pass asks rank_mask for each
    subset once, at the first (Z, e) pair that reaches it, and the
    submodularity pass reads those ranks from the table.  Budget steps are
    as for a frozenset sweep: one per subset in each pass, one per (Z, e)
    pair and one per (X, Y) pair."""
    budget = as_budget(cap)
    ground = m.ground
    r = {0: m.rank_mask(0)}
    if r[0] != 0:
        return Verdict(False, Witness("subset", (frozenset(),), lhs=r[0], rhs=0,
                                      note="rank of the empty set"))
    order = []
    for z in subset_masks(low_bits(len(ground)), budget=budget):
        order.append(z)
        rz = r[z]  # stored by the pair step of a smaller subset, and checked there
        for i, e in enumerate(ground):
            bit = 1 << i
            if z & bit:
                continue
            budget.spend()
            re = r.get(z | bit)
            if re is None:
                re = r[z | bit] = m.rank_mask(z | bit)
            if not rz <= re <= rz + 1:
                return Verdict(False, Witness("pair", (m.elements(z), frozenset({e})),
                                              lhs=re, rhs=rz, note="unit monotonicity"))
    for x in order:
        budget.spend()
        rx = r[x]
        for y in order:
            budget.spend()
            if rx + r[y] < r[x & y] + r[x | y]:
                return Verdict(False, Witness("pair", (m.elements(x), m.elements(y)),
                                              lhs=rx + r[y], rhs=r[x & y] + r[x | y],
                                              note="submodularity"))
    return Verdict(True)
