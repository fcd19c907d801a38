"""Generalized polymatroids and the packing polyhedron T.

A g-polymatroid Q(p, b) is the set of vectors x with p(Z) <= x(Z) <= b(Z)
for every subset Z of the ground, where p is supermodular, b is submodular
and the pair satisfies the cross-inequality.  Planks constrain the total
coordinate sum.  T combines per-vertex in-star pieces, a plank on the member
count and the rank bound of the extended hypergraphic matroid; its 0/1
points are exactly the dyperedge sets usable by a bounded regular limited
packing, which is what the feasibility and integer point routines exploit.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .matroids import ExtendedHypergraphicMatroid, element_head
from .setfuncs import check_cross_inequality, check_submodular, check_supermodular
from .structures import (
    HOLDS,
    Bounds,
    Budget,
    MixedHypergraph,
    PropertyViolationError,
    Verdict,
    Witness,
    as_budget,
    subsets,
)


class GPoly:
    """Q(p, b) given by two subset oracles; evaluations are memoized."""

    def __init__(self, ground: Iterable, p: Callable[[frozenset], int],
                 b: Callable[[frozenset], int], label: str = ""):
        self.ground = tuple(ground)
        self.label = label
        self._p_fn, self._b_fn = p, b
        self._p_memo: dict[frozenset, int] = {}
        self._b_memo: dict[frozenset, int] = {}

    def _check(self, zs: Iterable) -> frozenset:
        z = frozenset(zs)
        if z - frozenset(self.ground):
            raise ValueError("subset uses elements not in the ground")
        return z

    def p(self, zs: Iterable) -> int:
        z = self._check(zs)
        got = self._p_memo.get(z)
        if got is None:
            got = int(self._p_fn(z))
            self._p_memo[z] = got
        return got

    def b(self, zs: Iterable) -> int:
        z = self._check(zs)
        got = self._b_memo.get(z)
        if got is None:
            got = int(self._b_fn(z))
            self._b_memo[z] = got
        return got


@dataclass(frozen=True)
class Plank:
    """Constraint alpha <= x(ground) <= beta on the coordinate sum."""

    alpha: int
    beta: int


def check_axioms(q: GPoly, cap: int | Budget | None = None) -> Verdict:
    """Exhaustive check that (p, b) is a strong pair: zero on the empty set,
    p supermodular, b submodular, and b(X)-p(Y) >= b(X-Y)-p(Y-X)."""
    budget = as_budget(cap)
    if q.p(()) != 0:
        return Verdict(False, Witness("subset", (frozenset(),), q.p(()), 0,
                                      "lower function nonzero on the empty set"))
    if q.b(()) != 0:
        return Verdict(False, Witness("subset", (frozenset(),), q.b(()), 0,
                                      "upper function nonzero on the empty set"))
    bad = check_supermodular(q.p, q.ground, budget)
    if bad:
        return Verdict(False, Witness("pair", bad, note="lower function not supermodular"))
    bad = check_submodular(q.b, q.ground, budget)
    if bad:
        return Verdict(False, Witness("pair", bad, note="upper function not submodular"))
    bad = check_cross_inequality(q.p, q.b, q.ground, budget)
    if bad:
        return Verdict(False, Witness("pair", bad, note="cross-inequality fails"))
    return HOLDS


def intersect_plank(q: GPoly, k: Plank, cap: int | Budget | None = None) -> GPoly | None:
    """Intersection of a g-polymatroid with a plank.

    Nonempty iff p <= b pointwise, alpha <= beta, p(S) <= beta and
    alpha <= b(S); then the result is the g-polymatroid with
    p'(Z) = max(p(Z), alpha - b(S-Z)) and b'(Z) = min(b(Z), beta - p(S-Z)).
    Returns None when empty.
    """
    budget = as_budget(cap)
    s = frozenset(q.ground)
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
    grounds = [frozenset(q.ground) for q in qs]
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


# ---------------------------------------------------------------------------
# the polyhedron T

class TPolyhedron:
    """Packing polyhedron of a mixed hypergraph with bounds (f, g, k, l, l').

    Ground: the dyperedges plus every oriented copy of every hyperedge.
    Coordinates count how many heads a packing sends into each vertex, so
    the per-vertex pieces bound in-degrees, the plank bounds the total
    member count and the matroid factor keeps the support independent.
    """

    def __init__(self, f: MixedHypergraph, bounds: Bounds):
        for name in ("f", "g", "k", "l", "lprime"):
            if getattr(bounds, name) is None:
                raise ValueError(f"bounds.{name} is required")
        if len(bounds.f) != f.n or len(bounds.g) != f.n:
            raise ValueError("bounds do not match the vertex count")
        if min(bounds.k, bounds.l, bounds.lprime) < 1:
            raise ValueError("k, l and lprime must be positive")
        self.f = f
        self.bounds = bounds
        self.matroid = ExtendedHypergraphicMatroid(f, bounds.k)
        self.ground = self.matroid.ground
        self.heads = tuple(element_head(f, e) for e in self.ground)
        self.degree = tuple(
            sum(1 for h in self.heads if h == v) for v in range(f.n)
        )
        self._p_memo: dict[frozenset, int] = {}
        self._b_memo: dict[frozenset, int] = {}
        self._rank_memo: dict[frozenset, int] = {}

    def head_counts(self, z: frozenset) -> tuple[int, ...]:
        """In-degree of every vertex in the element set z."""
        counts = [0] * self.f.n
        for e in z:
            counts[element_head(self.f, e)] += 1
        return tuple(counts)

    def p_sum(self, z: frozenset) -> int:
        """Sum of the per-vertex lower pieces at z."""
        b, cnt = self.bounds, self.head_counts(z)
        return sum(
            max(0, b.k - b.g_k(v) - (self.degree[v] - cnt[v]))
            for v in range(self.f.n)
        )

    def b_sum(self, z: frozenset) -> int:
        """Sum of the per-vertex upper pieces at z."""
        b, cnt = self.bounds, self.head_counts(z)
        return sum(min(cnt[v], b.k - b.f[v]) for v in range(self.f.n))

    def p(self, zs: Iterable) -> int:
        """Lower bound after intersecting the summed pieces with the plank."""
        z = frozenset(zs)
        got = self._p_memo.get(z)
        if got is None:
            b = self.bounds
            rest = frozenset(self.ground) - z
            got = max(self.p_sum(z), b.k * self.f.n - b.lprime - self.b_sum(rest))
            self._p_memo[z] = got
        return got

    def b(self, zs: Iterable) -> int:
        """Upper bound after intersecting the summed pieces with the plank."""
        z = frozenset(zs)
        got = self._b_memo.get(z)
        if got is None:
            b = self.bounds
            rest = frozenset(self.ground) - z
            got = min(self.b_sum(z), b.k * self.f.n - b.l - self.p_sum(rest))
            self._b_memo[z] = got
        return got

    def rank(self, zs: Iterable) -> int:
        z = frozenset(zs)
        got = self._rank_memo.get(z)
        if got is None:
            got = self.matroid.rank(z)
            self._rank_memo[z] = got
        return got

    def as_gpoly(self) -> GPoly:
        """The plank-intersected pair as a plain g-polymatroid (without the
        matroid factor)."""
        return GPoly(self.ground, self.p, self.b, label="T-pair")

    def prechecks(self) -> dict[str, bool]:
        """Named emptiness preconditions; all hold on any nonempty T."""
        b, n = self.bounds, self.f.n
        return {
            "lower_at_most_upper": all(b.g_k(v) >= b.f[v] for v in range(n)),
            "degree_covers_demand": all(
                b.k - b.g_k(v) <= self.degree[v] for v in range(n)
            ),
            "member_window": min(b.g_k_sum(range(n)), b.lprime) >= b.l,
            "plank_reachable": self.b_sum(frozenset(self.ground)) >= b.k * n - b.lprime,
        }


def build_t(f: MixedHypergraph, bounds: Bounds) -> TPolyhedron:
    return TPolyhedron(f, bounds)


def _demands(t: TPolyhedron, z: frozenset) -> tuple[int, int]:
    """Left sides of the two emptiness inequalities at an element set z:
    forced root demand and forced member minimum, both compared against the
    rank of the complement."""
    b, cnt = t.bounds, t.head_counts(z)
    g_side = sum(max(0, b.k - b.g_k(v) - cnt[v]) for v in range(t.f.n))
    f_side = b.k * t.f.n - b.lprime - sum(
        min(cnt[v], b.k - b.f[v]) for v in range(t.f.n)
    )
    return g_side, f_side


def feasible(t: TPolyhedron, cap: int | Budget | None = None) -> Verdict:
    """T is nonempty iff the bound prechecks hold and, for every element set
    z, both demand forms stay within the rank of the complement."""
    budget = as_budget(cap)
    b, n = t.bounds, t.f.n
    for v in range(n):
        if b.g_k(v) < b.f[v]:
            return Verdict(False, Witness("vertex", (v,), b.g_k(v), b.f[v],
                                          "capped upper root bound below lower"))
    if min(b.g_k_sum(range(n)), b.lprime) < b.l:
        return Verdict(False, Witness("global", (), min(b.g_k_sum(range(n)), b.lprime),
                                      b.l, "member minimum unreachable"))
    full = frozenset(t.ground)
    for z in subsets(t.ground, budget=budget):
        rank_rest = t.rank(full - z)
        g_side, f_side = _demands(t, z)
        if rank_rest < g_side:
            return Verdict(False, Witness(
                "ground_subset", (tuple(e for e in t.ground if e in z), "g"),
                rank_rest, g_side, "root demand exceeds remaining rank"))
        if rank_rest < f_side:
            return Verdict(False, Witness(
                "ground_subset", (tuple(e for e in t.ground if e in z), "f"),
                rank_rest, f_side, "member minimum exceeds remaining rank"))
    return HOLDS


def ground_subset_sides(t: TPolyhedron, payload: tuple) -> tuple[int, int]:
    """Both sides of one recorded emptiness inequality: the rank of the
    complement and the chosen demand."""
    elems, which = payload
    z = frozenset(elems)
    g_side, f_side = _demands(t, z)
    return t.rank(frozenset(t.ground) - z), (g_side if which == "g" else f_side)


def ground_subset_violates(t: TPolyhedron, payload: tuple) -> bool:
    """Recompute one recorded emptiness inequality."""
    lhs, rhs = ground_subset_sides(t, payload)
    return lhs < rhs


def t_contains(t: TPolyhedron, support: frozenset,
               cap: int | Budget | None = None) -> bool:
    """Membership of the 0/1 vector with the given support: the pair bounds
    on every subset plus independence of the support in the extended
    matroid (the 0/1 view of the rank factor)."""
    budget = as_budget(cap)
    if not t.matroid.independent(support):
        return False
    for z in subsets(t.ground, budget=budget):
        total = len(support & z)
        if not t.p(z) <= total <= t.b(z):
            return False
    return True


def integer_points(t: TPolyhedron, cap: int | Budget | None = None):
    """All 0/1 members of T as supports, smallest first."""
    budget = as_budget(cap)
    for support in subsets(t.ground, budget=budget):
        if t_contains(t, support, budget):
            yield support


def find_integer_point(t: TPolyhedron, cap: int | Budget | None = None
                       ) -> tuple | None:
    """First 0/1 member of T in support order, as a tuple of ground
    elements, or None.  The outcome is cross-checked against feasible();
    disagreement means a defect, not an input problem."""
    budget = as_budget(cap)
    found: tuple | None = None
    for support in integer_points(t, budget):
        found = tuple(e for e in t.ground if e in support)
        break
    verdict = feasible(t, budget)
    if bool(verdict) != (found is not None):
        raise PropertyViolationError(
            "integer point search and emptiness test disagree")
    return found


# ---------------------------------------------------------------------------
# translation of an emptiness witness into a subpartition witness

def rank_partition_argmin(t: TPolyhedron, zs: Iterable,
                          cap: int | Budget | None = None
                          ) -> tuple[tuple[frozenset[int], ...], int]:
    """First partition of the vertex set attaining the partition form of the
    extended matroid rank of z, with the attained value."""
    return t.matroid.rank_partition_argmin(zs, cap)


def violating_subpartition(t: TPolyhedron, elems: Iterable, which: str,
                           cap: int | Budget | None = None
                           ) -> tuple[frozenset[int], ...]:
    """Turn an emptiness witness z into a subpartition: take a partition
    attaining the rank of the complement of z and keep the classes whose
    vertices all have enough in-degree room in z for the chosen bound
    ("g" keeps classes where z's in-degree stays at most k - g_k(v),
    "f" where it stays at most k - f(v))."""
    budget = as_budget(cap)
    z = frozenset(elems)
    parts, _ = rank_partition_argmin(t, frozenset(t.ground) - z, budget)
    b, cnt = t.bounds, t.head_counts(z)
    if which == "g":
        room = [b.k - b.g_k(v) for v in range(t.f.n)]
    elif which == "f":
        room = [b.k - b.f[v] for v in range(t.f.n)]
    else:
        raise ValueError("which must be 'g' or 'f'")
    return tuple(x for x in parts if all(cnt[v] <= room[v] for v in x))
