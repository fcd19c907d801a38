"""Rank oracles.

All matroids expose a common interface: an ordered ground tuple, rank() on
any subset of the ground, and independent().  Rank is computed by the greedy
algorithm over the independence oracle except where a closed form exists;
the explicit kind, whose input may fail the axioms, always uses exhaustive
search so its rank stays well defined.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from .structures import (
    Budget,
    CapExceededError,
    MixedHypergraph,
    Verdict,
    Witness,
    as_budget,
    dyperedge_enters,
    hyperedge_enters,
    set_partitions,
    subsets,
)


class Matroid:
    """Base rank oracle over a finite ground tuple."""

    ground: tuple = ()
    kind = "abstract"

    def _check(self, zs: Iterable) -> frozenset:
        z = frozenset(zs)
        unknown = z - frozenset(self.ground)
        if unknown:
            raise ValueError(f"elements not in the ground: {sorted(map(repr, unknown))}")
        return z

    def independent(self, zs: Iterable) -> bool:
        z = self._check(zs)
        return self.rank(z) == len(z)

    def rank(self, zs: Iterable) -> int:
        z = self._check(zs)
        # greedy over the independence oracle; valid because this is a matroid
        picked: set = set()
        for e in self.ground:
            if e in z and self._indep(frozenset(picked | {e})):
                picked.add(e)
        return len(picked)

    def _indep(self, z: frozenset) -> bool:
        raise NotImplementedError

    def full_rank(self) -> int:
        return self.rank(self.ground)


class FreeMatroid(Matroid):
    kind = "free"

    def __init__(self, ground: Iterable):
        self.ground = tuple(ground)

    def rank(self, zs: Iterable) -> int:
        return len(self._check(zs))

    def _indep(self, z: frozenset) -> bool:
        return True


class UniformMatroid(Matroid):
    kind = "uniform"

    def __init__(self, ground: Iterable, r: int):
        if r < 0:
            raise ValueError("uniform rank must be nonnegative")
        self.ground = tuple(ground)
        self.r = r

    def rank(self, zs: Iterable) -> int:
        return min(len(self._check(zs)), self.r)

    def _indep(self, z: frozenset) -> bool:
        return len(z) <= self.r


class PartitionMatroid(Matroid):
    """Ground split into blocks, each with a capacity."""

    kind = "partition"

    def __init__(self, ground: Iterable, blocks: Sequence[Iterable], capacities: Sequence[int]):
        self.ground = tuple(ground)
        self.blocks = tuple(frozenset(b) for b in blocks)
        self.capacities = tuple(int(c) for c in capacities)
        if len(self.blocks) != len(self.capacities):
            raise ValueError("one capacity per block required")
        if any(c < 0 for c in self.capacities):
            raise ValueError("capacities must be nonnegative")
        union: set = set()
        for b in self.blocks:
            if b & union:
                raise ValueError("blocks must be disjoint")
            union |= b
        if union != set(self.ground):
            raise ValueError("blocks must cover the ground exactly")

    def rank(self, zs: Iterable) -> int:
        z = self._check(zs)
        return sum(min(len(z & b), c) for b, c in zip(self.blocks, self.capacities))

    def _indep(self, z: frozenset) -> bool:
        return all(len(z & b) <= c for b, c in zip(self.blocks, self.capacities))


class ExplicitMatroid(Matroid):
    """Matroid given by the full list of independent sets.

    The list is checked for nonemptiness, downward closure and the exchange
    property at construction.
    """

    kind = "explicit"

    def __init__(self, ground: Iterable, independent_sets: Iterable[Iterable]):
        self.ground = tuple(ground)
        self.family = frozenset(frozenset(s) for s in independent_sets)
        for s in self.family:
            if s - frozenset(self.ground):
                raise ValueError("independent set uses elements not in the ground")
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

    def rank(self, zs: Iterable) -> int:
        z = self._check(zs)
        return max((len(s) for s in self.family if s <= z), default=0)

    def independent(self, zs: Iterable) -> bool:
        return self._check(zs) in self.family

    def _indep(self, z: frozenset) -> bool:
        return z in self.family


class HypergraphicMatroid(Matroid):
    """Matroid of a hypergraph: a set of hyperedges is independent iff every
    nonempty subset spans more vertices than it has elements."""

    kind = "hypergraphic"

    def __init__(self, ground: Iterable, vertex_sets: dict):
        self.ground = tuple(ground)
        self.vertex_sets = {e: frozenset(vertex_sets[e]) for e in self.ground}
        if any(len(vs) < 2 for vs in self.vertex_sets.values()):
            raise ValueError("hyperedges must span at least 2 vertices")
        self._indep_memo: dict[frozenset, bool] = {}

    @classmethod
    def from_hyperedges(cls, hyperedges: Sequence[Iterable[int]]) -> "HypergraphicMatroid":
        sets = [frozenset(e) for e in hyperedges]
        return cls(range(len(sets)), dict(enumerate(sets)))

    def _indep(self, z: frozenset) -> bool:
        got = self._indep_memo.get(z)
        if got is not None:
            return got
        ok = True
        for r in range(1, len(z) + 1):
            for combo in itertools.combinations(sorted(z, key=repr), r):
                spanned: frozenset[int] = frozenset()
                for e in combo:
                    spanned |= self.vertex_sets[e]
                if len(spanned) <= len(combo):
                    ok = False
                    break
            if not ok:
                break
        self._indep_memo[z] = ok
        return ok

    def independent(self, zs: Iterable) -> bool:
        return self._indep(self._check(zs))


class KSumMatroid(Matroid):
    """Sum of k copies of an inner matroid: independent iff the set splits
    into k sets each independent in the inner matroid."""

    kind = "ksum"

    def __init__(self, inner: Matroid, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.inner = inner
        self.k = k
        self.ground = inner.ground
        self._indep_memo: dict[frozenset, bool] = {}

    def _indep(self, z: frozenset) -> bool:
        got = self._indep_memo.get(z)
        if got is not None:
            return got
        items = sorted(z, key=repr)
        bins: list[set] = []

        def place(i: int) -> bool:
            if i == len(items):
                return True
            for b in bins:
                b.add(items[i])
                if self.inner.independent(b) and place(i + 1):
                    b.discard(items[i])
                    return True
                b.discard(items[i])
            if len(bins) < self.k:
                bins.append({items[i]})
                if self.inner.independent(bins[-1]) and place(i + 1):
                    bins.pop()
                    return True
                bins.pop()
            return False

        ok = place(0)
        self._indep_memo[z] = ok
        return ok

    def independent(self, zs: Iterable) -> bool:
        return self._indep(self._check(zs))


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
    out = [(ARC, j) for j in range(len(f.dyperedges))]
    for i, e in enumerate(f.hyperedges):
        for head in sorted(e):
            out.append((COPY, i, head))
    return tuple(out)


def element_head(f: MixedHypergraph, elem: tuple) -> int:
    if elem[0] == ARC:
        return f.dyperedges[elem[1]][1]
    return elem[2]


def element_tails(f: MixedHypergraph, elem: tuple) -> frozenset[int]:
    if elem[0] == ARC:
        return f.dyperedges[elem[1]][0]
    return f.hyperedges[elem[1]] - {elem[2]}


class ExtendedHypergraphicMatroid(Matroid):
    """k-hypergraphic matroid of the underlying hypergraph of a mixed
    hypergraph, with every hyperedge replaced by its parallel oriented
    copies.

    rank() answers through the independence search; rank_partition_argmin()
    and rank_by_partition_formula() answer through the partition minimum,
    for cross-checking.
    """

    kind = "extended"

    def __init__(self, f: MixedHypergraph, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.f = f
        self.k = k
        self.ground = extended_ground(f)
        # underlying hypergraph: one element per dyperedge (tails plus head)
        # and one per hyperedge, shared by all of its copies
        uids = [(ARC, j) for j in range(len(f.dyperedges))]
        vsets = {(ARC, j): tails | {head} for j, (tails, head) in enumerate(f.dyperedges)}
        for i, e in enumerate(f.hyperedges):
            uids.append((COPY, i))
            vsets[(COPY, i)] = e
        self.underlying = KSumMatroid(HypergraphicMatroid(uids, vsets), k)

    def origin(self, elem: tuple) -> tuple:
        """Underlying-hypergraph element of an extended-ground element."""
        if elem[0] == ARC:
            return (ARC, elem[1])
        return (COPY, elem[1])

    def copies_of(self, i: int) -> tuple:
        return tuple((COPY, i, head) for head in sorted(self.f.hyperedges[i]))

    def _indep(self, z: frozenset) -> bool:
        origins = [self.origin(e) for e in z]
        if len(set(origins)) < len(origins):
            return False  # two copies of one hyperedge are parallel
        return self.underlying.independent(origins)

    def independent(self, zs: Iterable) -> bool:
        return self._indep(self._check(zs))

    def rank_partition_argmin(self, zs: Iterable, cap: int | Budget | None = None
                              ) -> tuple[tuple[frozenset[int], ...], int]:
        """First partition of the vertex set minimizing (dyperedges of z
        entering the partition) + (hyperedges with a copy in z entering the
        partition) + k * (n - number of classes), with that minimum: the
        rank of z."""
        z = self._check(zs)
        f = self.f
        z_arcs = frozenset(e[1] for e in z if e[0] == ARC)
        z_hypers = frozenset(e[1] for e in z if e[0] == COPY)

        def value(parts) -> int:
            return (self.k * (f.n - len(parts))
                    + sum(1 for j in z_arcs
                          if any(dyperedge_enters(f.dyperedges[j], y) for y in parts))
                    + sum(1 for i in z_hypers
                          if any(hyperedge_enters(f.hyperedges[i], y) for y in parts)))

        best = min(set_partitions(range(f.n), budget=as_budget(cap)), key=value)
        return best, value(best)

    def rank_by_partition_formula(self, zs: Iterable, cap: int | Budget | None = None) -> int:
        """Rank through the partition minimum; at most 10 vertices."""
        if self.f.n > 10:
            raise CapExceededError("partition formula limited to at most 10 vertices")
        return self.rank_partition_argmin(zs, cap)[1]


# ---------------------------------------------------------------------------
# axiom checking

def check_rank_axioms(m: Matroid, cap: int | Budget | None = None) -> Verdict:
    """Exhaustively test rank axioms: zero on empty, unit monotonicity and
    submodularity.  Intended for small grounds; raises CapExceededError when
    the pair enumeration would outgrow the budget."""
    budget = as_budget(cap)
    ground = list(m.ground)
    if m.rank(()) != 0:
        return Verdict(False, Witness("subset", (frozenset(),), lhs=m.rank(()), rhs=0,
                                      note="rank of the empty set"))
    for z in subsets(ground, budget=budget):
        rz = m.rank(z)
        if not 0 <= rz <= len(z):
            return Verdict(False, Witness("subset", (z,), lhs=rz, rhs=len(z),
                                          note="rank outside 0..|Z|"))
        for e in ground:
            if e in z:
                continue
            budget.spend()
            re = m.rank(z | {e})
            if not rz <= re <= rz + 1:
                return Verdict(False, Witness("pair", (z, frozenset({e})), lhs=re, rhs=rz,
                                              note="unit monotonicity"))
    for x in subsets(ground, budget=budget):
        rx = m.rank(x)
        for y in subsets(ground):
            budget.spend()
            if rx + m.rank(y) < m.rank(x & y) + m.rank(x | y):
                return Verdict(False, Witness("pair", (x, y),
                                              lhs=rx + m.rank(y),
                                              rhs=m.rank(x & y) + m.rank(x | y),
                                              note="submodularity"))
    return Verdict(True)
