"""The packing polyhedron T.

T is a generalized polymatroid Q(p, b), the vectors x with
p(Z) <= x(Z) <= b(Z) for every subset Z of the ground, cut by the rank of
the extended hypergraphic matroid.  It combines per-vertex in-star pieces,
a plank on the member count and that rank bound; its 0/1 points are
exactly the dyperedge sets usable by a bounded regular limited packing,
which is what the feasibility and integer point routines exploit.
check_axioms tests that a pair (p, b) is a strong pair.
"""
from __future__ import annotations

from collections.abc import Iterable

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
    is_int,
    low_bits,
    subset_masks,
    subsets,
)

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
# TPolyhedron.demand returns them: forced root demand, member demand.
SIDES = {"g": "root demand exceeds remaining rank",
         "f": "member minimum exceeds remaining rank"}


class TPolyhedron:
    """Packing polyhedron of a mixed hypergraph with bounds (f, g, k, l, l').

    Ground: the dyperedges plus every oriented copy of every hyperedge.
    Coordinates count how many heads a packing sends into each vertex, so
    the per-vertex pieces bound in-degrees, the plank bounds the total
    member count and the matroid factor keeps the support independent.

    Element sets are the matroid's ground masks (matroid.bit).  head_masks[v]
    holds the elements with head v; room["g"][v] is k - g_k(v) and
    room["f"][v] is k - f(v).  shares[v][c] is vertex v's part of the two
    demands when c elements of a set have head v: max(0, k - g_k(v) - c)
    and min(c, k - f(v)), one entry per possible count.
    """

    def __init__(self, f: MixedHypergraph, bounds: Bounds):
        check_inputs(Instance(f, bounds=bounds), "the packing polyhedron",
                     bounds=T_BOUNDS, requires=(T_POSITIVE,))
        self.f = f
        self.bounds = bounds
        self.matroid = ExtendedHypergraphicMatroid(f, bounds.k)
        self.ground = self.matroid.ground
        self.ground_set = frozenset(self.ground)
        self.full = (1 << len(self.ground)) - 1
        self.head_masks = tuple(sum(bit for e, bit in self.matroid.bit.items() if element_head(f, e) == v)
                                for v in range(f.n))
        self.room = {"g": tuple(bounds.k - bounds.g_k(v) for v in range(f.n)),
                     "f": tuple(bounds.k - bounds.f[v] for v in range(f.n))}
        self.shares = tuple(tuple((max(0, rg - c), min(c, rf)) for c in range(m.bit_count() + 1))
                            for m, rg, rf in zip(self.head_masks, self.room["g"], self.room["f"]))

    def head_counts(self, z: int) -> tuple[int, ...]:
        """In-degree of every vertex in the element set with mask z."""
        return tuple((z & m).bit_count() for m in self.head_masks)

    def demand(self, z: int) -> tuple[int, int]:
        """The two demands of the element set with mask z, each the left
        side of an emptiness inequality against the rank of the
        complement: the forced root demand, sum of max(0, k - g_k(v) - d(v))
        over the in-degrees d of z, and the member demand,
        kn - l' - sum of min(d(v), k - f(v))."""
        root = rest = 0
        for m, share in zip(self.head_masks, self.shares):
            r, s = share[(z & m).bit_count()]
            root += r
            rest += s
        return root, self.bounds.k * self.f.n - self.bounds.lprime - rest

    def pair(self, z: int) -> tuple[int, int]:
        """p and b at the element set with mask z: the summed per-vertex
        pieces cut by the member plank.  p is the larger demand of the
        complement; b is the member room kn - l' - member demand of z,
        capped at kn - l - root demand of z."""
        root, member = self.demand(z)
        b, top = self.bounds, self.bounds.k * self.f.n
        return (max(self.demand(self.full ^ z)),
                min(top - b.lprime - member, top - b.l - root))

    def p(self, zs: Iterable) -> int:
        """Lower bound of T at an element set of the ground."""
        return self.pair(self.matroid.mask(zs))[0]

    def b(self, zs: Iterable) -> int:
        """Upper bound of T at an element set of the ground."""
        return self.pair(self.matroid.mask(zs))[1]

    def rank(self, zs: Iterable) -> int:
        """Rank in the extended matroid, uncached; witness checks read it,
        the sweeps read greedy bases by mask."""
        return self.matroid.rank(zs)


def build_t(f: MixedHypergraph, bounds: Bounds) -> TPolyhedron:
    return TPolyhedron(f, bounds)


def check_axioms(q, cap: int | Budget | None = None) -> Verdict:
    """Exhaustive check that (p, b) is a strong pair: zero on the empty set,
    p supermodular, b submodular, and b(X)-p(Y) >= b(X-Y)-p(Y-X).  q is T
    or any object with a ground tuple and p and b on its element sets."""
    budget = as_budget(cap)
    for fn, which in ((q.p, "lower"), (q.b, "upper")):
        if fn(frozenset()) != 0:
            return Verdict(False, Witness("subset", (frozenset(),), fn(frozenset()), 0,
                                          f"{which} function nonzero on the empty set"))
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

    z runs over the ground masks in subsets() order, one budget step each,
    and its demands are summed from the per-vertex shares (t.demand).  The
    rank of the complement is read from a table of greedy bases filled on
    first use (Matroid.greedy_basis): one independence query per new mask,
    where a fresh rank_mask() makes one per element."""
    budget = as_budget(cap)
    bases = {0: 0}
    for z in subset_masks(low_bits(len(t.ground)), budget=budget):
        rank_rest = t.matroid.greedy_basis(bases, t.full ^ z).bit_count()
        for (which, note), demand in zip(SIDES.items(), t.demand(z)):
            if rank_rest < demand:
                return Verdict(False, Witness(
                    "ground_subset", (tuple(e for e in t.ground if t.matroid.bit[e] & z), which),
                    rank_rest, demand, note))
    return HOLDS


def ground_subset_sides(t: TPolyhedron, payload: tuple) -> tuple[int, int]:
    """Both sides of one recorded emptiness inequality: the rank of the
    complement and the chosen demand.  An element is read strictly, its
    indices integers and not bools or floats, which equal and hash as
    integers."""
    elems, which = payload
    if which not in SIDES:
        raise ValueError("which must be 'g' or 'f'")
    if not isinstance(elems, (tuple, list)):
        raise ValueError(f"witness elements {elems!r} are not a tuple")
    for e in elems:
        if not (isinstance(e, tuple) and len(e) > 1 and all(map(is_int, e[1:]))):
            raise ValueError(f"element not in the ground: {e!r}")
    demands = dict(zip(SIDES, t.demand(t.matroid.mask(elems))))
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

    The t_contains test on ground masks, with its Budget steps: one per
    support and one per subset z tried against it, both in subsets()
    order.  The rows (z, p(z), b(z)) live in one table for this call,
    built in that order from one subset_masks generator when a support
    first reaches them, one step each; a support scans the built rows and
    spends their steps at once.  Independence is downward closed, so a
    support whose subset without its top element was not independent is
    dependent and the matroid is not asked; that subset came earlier in
    subsets() order."""
    budget = as_budget(cap)
    bits = low_bits(len(t.ground))
    rows: list[tuple[int, int, int]] = []
    unbuilt = subset_masks(bits)
    independent = set()
    for s in subset_masks(bits, budget=budget):
        if s and s ^ (1 << (s.bit_length() - 1)) not in independent:
            continue
        if not t.matroid.independent_mask(s):
            continue
        independent.add(s)
        for i, (z, low, high) in enumerate(rows):
            if not low <= (s & z).bit_count() <= high:
                budget.spend(i + 1)
                break
        else:
            budget.spend(len(rows))
            for z in unbuilt:
                budget.spend()
                low, high = t.pair(z)
                rows.append((z, low, high))
                if not low <= (s & z).bit_count() <= high:
                    break
            else:
                yield t.matroid.elements(s)


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
    cnt, room = t.head_counts(t.matroid.mask(elems)), t.room[which]
    parts, _ = t.matroid.rank_partition_argmin(
        t.ground_set - frozenset(elems), as_budget(cap))
    return tuple(x for x in parts if all(cnt[v] <= room[v] for v in x))
