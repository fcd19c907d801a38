"""Reference code only the tests read: the generic g-polymatroid toolkit
and the component projection of a vertex set.

A g-polymatroid Q(p, b) is the set of vectors x with p(Z) <= x(Z) <= b(Z)
for every subset Z of the ground, where p is supermodular, b is submodular
and the pair satisfies the cross-inequality.  Planks constrain the total
coordinate sum.  The library computes the packing polyhedron T's pieces in
closed form (``TPolyhedron.pair``); the toolkit here is what those pieces
and ``gpoly.check_axioms`` are cross-checked against.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from arbopack.structures import (
    Budget,
    MixedHypergraph,
    as_budget,
    in_degree,
    reach_to,
    scc_condense,
    subsets,
)


class GPoly:
    """Q(p, b) given by two subset oracles, asked on every evaluation."""

    def __init__(self, ground: Iterable, p: Callable[[frozenset], int],
                 b: Callable[[frozenset], int], label: str = ""):
        self.ground = tuple(ground)
        self.ground_set = frozenset(self.ground)
        self.label = label
        self._p_fn, self._b_fn = p, b

    def _check(self, zs: Iterable) -> frozenset:
        z = frozenset(zs)
        if z - self.ground_set:
            raise ValueError("subset uses elements not in the ground")
        return z

    def p(self, zs: Iterable) -> int:
        return int(self._p_fn(self._check(zs)))

    def b(self, zs: Iterable) -> int:
        return int(self._b_fn(self._check(zs)))


@dataclass(frozen=True)
class Plank:
    """Constraint alpha <= x(ground) <= beta on the coordinate sum."""

    alpha: int
    beta: int


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
