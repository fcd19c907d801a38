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

import functools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from .matroids import ExtendedHypergraphicMatroid, element_head
from .setfuncs import check_cross_inequality, check_submodular, check_supermodular
from .structures import (
    HOLDS,
    Bounds,
    Budget,
    Instance,
    MixedHypergraph,
    PropertyViolationError,
    Verdict,
    Witness,
    as_budget,
    check_inputs,
    low_bits,
    mask_items,
    memo,
    subset_masks,
    subsets,
)


class GPoly:
    """Q(p, b) given by two subset oracles; evaluations are memoized."""

    def __init__(self, ground: Iterable, p: Callable[[frozenset], int],
                 b: Callable[[frozenset], int], label: str = ""):
        self.ground = tuple(ground)
        self.ground_set = frozenset(self.ground)
        self.label = label
        self._p_fn, self._b_fn = p, b

    def _check(self, z: frozenset) -> frozenset:
        if z - self.ground_set:
            raise ValueError("subset uses elements not in the ground")
        return z

    @memo
    def p(self, z: frozenset) -> int:
        return int(self._p_fn(self._check(z)))

    @memo
    def b(self, z: frozenset) -> int:
        return int(self._b_fn(self._check(z)))


@dataclass(frozen=True)
class Plank:
    """Constraint alpha <= x(ground) <= beta on the coordinate sum."""

    alpha: int
    beta: int


def check_axioms(q: GPoly | TPolyhedron, cap: int | Budget | None = None) -> Verdict:
    """Exhaustive check that (p, b) is a strong pair: zero on the empty set,
    p supermodular, b submodular, and b(X)-p(Y) >= b(X-Y)-p(Y-X), with p
    and b read through tables kept for this check."""
    budget = as_budget(cap)
    p, b = functools.cache(q.p), functools.cache(q.b)
    if p(frozenset()) != 0:
        return Verdict(False, Witness("subset", (frozenset(),), p(frozenset()), 0,
                                      "lower function nonzero on the empty set"))
    if b(frozenset()) != 0:
        return Verdict(False, Witness("subset", (frozenset(),), b(frozenset()), 0,
                                      "upper function nonzero on the empty set"))
    bad = check_supermodular(p, q.ground, budget)
    if bad:
        return Verdict(False, Witness("pair", bad, note="lower function not supermodular"))
    bad = check_submodular(b, q.ground, budget)
    if bad:
        return Verdict(False, Witness("pair", bad, note="upper function not submodular"))
    bad = check_cross_inequality(p, b, q.ground, budget)
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
    s = q.ground_set
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
    grounds = [q.ground_set for q in qs]
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

# The Bounds fields T reads and the positivity it needs, for check_inputs,
# then the two bound pre-checks of the emptiness test, each as (lhs, rhs)
# with lhs >= rhs required; the main and lemma1b records read them all.
T_BOUNDS = ("f", "g", "k", "l", "lprime")
T_POSITIVE = (lambda inst: min(inst.bounds.k, inst.bounds.l, inst.bounds.lprime) >= 1,
              "positive k, l and lprime")
ROOT_WINDOW = "capped upper root bound below lower"
MEMBER_WINDOW = "member minimum unreachable"


def root_window(b: Bounds, v: int) -> tuple[int, int]:
    """The upper root bound at v, capped at k, against the lower one."""
    return b.g_k(v), b.f[v]


def member_window(b: Bounds, n: int) -> tuple[int, int]:
    """The most members the capped upper bounds and lprime allow, against l."""
    return min(b.g_k_sum((1 << n) - 1), b.lprime), b.l


# The sides of the emptiness inequality with their notes, in the order
# TPolyhedron.demands returns them: forced root demand, member demand.
SIDES = {"g": "root demand exceeds remaining rank",
         "f": "member minimum exceeds remaining rank"}


class TPolyhedron:
    """Packing polyhedron of a mixed hypergraph with bounds (f, g, k, l, l').

    Ground: the dyperedges plus every oriented copy of every hyperedge.
    Coordinates count how many heads a packing sends into each vertex, so
    the per-vertex pieces bound in-degrees, the plank bounds the total
    member count and the matroid factor keeps the support independent.

    Element sets are bit masks (bit i for ground[i]).  head_masks[v] holds
    the elements with head v and degree[v] counts them; room["g"][v] is
    k - g_k(v) and room["f"][v] is k - f(v).
    """

    def __init__(self, f: MixedHypergraph, bounds: Bounds):
        check_inputs(Instance(f, bounds=bounds), "the packing polyhedron",
                     bounds=T_BOUNDS, requires=(T_POSITIVE,))
        self.f = f
        self.bounds = bounds
        self.matroid = ExtendedHypergraphicMatroid(f, bounds.k)
        self.ground = self.matroid.ground
        self.ground_set = self.matroid.ground_set
        self.bit = {e: 1 << i for i, e in enumerate(self.ground)}
        self.head_masks = tuple(sum(bit for e, bit in self.bit.items() if element_head(f, e) == v)
                                for v in range(f.n))
        self.degree = tuple(m.bit_count() for m in self.head_masks)
        self.room = {"g": tuple(bounds.k - bounds.g_k(v) for v in range(f.n)),
                     "f": tuple(bounds.k - bounds.f[v] for v in range(f.n))}

    def mask(self, zs: Iterable) -> int:
        """The bit mask of an element set of the ground."""
        z = frozenset(zs)
        if not z <= self.ground_set:
            raise ValueError("element set leaves the ground of T")
        return sum(self.bit[e] for e in z)

    def head_counts(self, z: int) -> tuple[int, ...]:
        """In-degree of every vertex in the element set with mask z."""
        return tuple((z & m).bit_count() for m in self.head_masks)

    def demands(self, cnt: Sequence[int]) -> tuple[int, int]:
        """The two demands of an element set with head counts cnt, each the
        left side of an emptiness inequality against the rank of the
        complement: the forced root demand, sum of max(0, k - g_k(v) - cnt[v]),
        and the member demand, kn - l' - sum of min(cnt[v], k - f(v))."""
        root = sum(max(0, r - c) for r, c in zip(self.room["g"], cnt))
        rest = sum(min(c, r) for r, c in zip(self.room["f"], cnt))
        return root, self.bounds.k * self.f.n - self.bounds.lprime - rest

    def pair(self, z: int) -> tuple[int, int]:
        """p and b at the element set with mask z: the summed per-vertex
        pieces cut by the member plank.  p is the larger demand of the
        complement; b is the member room kn - l' - member demand of z,
        capped at kn - l - root demand of z."""
        cnt = self.head_counts(z)
        root, member = self.demands(cnt)
        b, top = self.bounds, self.bounds.k * self.f.n
        return (max(self.demands([d - c for d, c in zip(self.degree, cnt)])),
                min(top - b.lprime - member, top - b.l - root))

    def p(self, zs: Iterable) -> int:
        """Lower bound of T at an element set of the ground."""
        return self.pair(self.mask(zs))[0]

    def b(self, zs: Iterable) -> int:
        """Upper bound of T at an element set of the ground."""
        return self.pair(self.mask(zs))[1]

    def rank(self, zs: Iterable) -> int:
        """Rank in the extended matroid, uncached; witness checks read it,
        the sweeps read greedy bases by mask."""
        return self.matroid.rank(zs)


def build_t(f: MixedHypergraph, bounds: Bounds) -> TPolyhedron:
    return TPolyhedron(f, bounds)


def feasible(t: TPolyhedron, cap: int | Budget | None = None) -> Verdict:
    """T is nonempty iff the bound pre-checks hold and ground_sweep finds
    no violated rank inequality."""
    budget = as_budget(cap)
    b, n = t.bounds, t.f.n
    for v in range(n):
        lhs, rhs = root_window(b, v)
        if lhs < rhs:
            return Verdict(False, Witness("vertex", (v,), lhs, rhs, ROOT_WINDOW))
    lhs, rhs = member_window(b, n)
    if lhs < rhs:
        return Verdict(False, Witness("global", (), lhs, rhs, MEMBER_WINDOW))
    return ground_sweep(t, budget)


def ground_sweep(t: TPolyhedron, cap: int | Budget | None = None) -> Verdict:
    """For every element set z, both demand forms must stay within the
    rank of the complement; the first violation is the witness.

    z runs over the bit masks of the ground (bit i for t.ground[i]) in
    subsets() order, one budget step each.  The rank of the complement is
    read from a table of greedy bases filled on first use
    (Matroid.greedy_basis): one independence query per new mask, where
    rank() makes one per element."""
    budget = as_budget(cap)
    ground = t.ground
    full = (1 << len(ground)) - 1
    bases = {0: 0}
    for z in subset_masks(low_bits(len(ground)), budget=budget):
        rank_rest = t.matroid.greedy_basis(bases, full ^ z).bit_count()
        for (which, note), demand in zip(SIDES.items(), t.demands(t.head_counts(z))):
            if rank_rest < demand:
                return Verdict(False, Witness(
                    "ground_subset", (tuple(e for e in ground if t.bit[e] & z), which),
                    rank_rest, demand, note))
    return HOLDS


def ground_subset_sides(t: TPolyhedron, payload: tuple) -> tuple[int, int]:
    """Both sides of one recorded emptiness inequality: the rank of the
    complement and the chosen demand."""
    elems, which = payload
    if which not in SIDES:
        raise ValueError("which must be 'g' or 'f'")
    demands = dict(zip(SIDES, t.demands(t.head_counts(t.mask(elems)))))
    return t.rank(t.ground_set - frozenset(elems)), demands[which]


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
    """All 0/1 members of T as supports, smallest first.

    The t_contains test on bit masks of the ground (bit i for t.ground[i]):
    supports and the subsets z checked against each run in subsets()
    order, |support & z| is a bit count, and p(z) and b(z) come from a
    table filled by the first support that reaches z.  Budget steps are
    those of t_contains: one per support and one per z tried."""
    budget = as_budget(cap)
    ground = t.ground
    bits = low_bits(len(ground))
    pb: dict[int, tuple[int, int]] = {}
    for s in subset_masks(bits, budget=budget):
        support = mask_items(ground, s)
        if not t.matroid.independent(support):
            continue
        for z in subset_masks(bits, budget=budget):
            low_high = pb.get(z)
            if low_high is None:
                low_high = pb[z] = t.pair(z)
            if not low_high[0] <= (s & z).bit_count() <= low_high[1]:
                break
        else:
            yield support


def find_integer_point(t: TPolyhedron, cap: int | Budget | None = None
                       ) -> tuple | Verdict:
    """First 0/1 member of T in support order, as a tuple of ground
    elements, or the failing feasible() verdict when T is empty.  The
    outcome is cross-checked against feasible(); disagreement means a
    defect, not an input problem."""
    budget = as_budget(cap)
    found: tuple | None = None
    for support in integer_points(t, budget):
        found = tuple(e for e in t.ground if e in support)
        break
    verdict = feasible(t, budget)
    if bool(verdict) != (found is not None):
        raise PropertyViolationError(
            "integer point search and emptiness test disagree")
    return verdict if found is None else found


# ---------------------------------------------------------------------------
# translation of an emptiness witness into a subpartition witness

def violating_subpartition(t: TPolyhedron, elems: Iterable, which: str,
                           cap: int | Budget | None = None
                           ) -> tuple[frozenset[int], ...]:
    """Turn an emptiness witness z into a subpartition: take a partition
    attaining the rank of the complement of z and keep the classes whose
    vertices all have enough in-degree room in z for the chosen bound
    ("g" keeps classes where z's in-degree stays at most k - g_k(v),
    "f" where it stays at most k - f(v))."""
    if which not in SIDES:
        raise ValueError("which must be 'g' or 'f'")
    cnt, room = t.head_counts(t.mask(elems)), t.room[which]
    parts, _ = t.matroid.rank_partition_argmin(
        t.ground_set - frozenset(elems), as_budget(cap))
    return tuple(x for x in parts if all(cnt[v] <= room[v] for v in x))
