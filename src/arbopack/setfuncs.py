"""Set function oracles and modularity checks.

Set functions map frozensets of vertices (or of other ground elements) to
ints.  An oracle asks its function once per vertex set, through one table
by vertex mask; the checks sweep pairs of subsets as masks, read each
function through one mask table and guard themselves with a budget.
"""
from __future__ import annotations

import functools
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from .structures import (
    Budget,
    as_budget,
    low_bits,
    mask_items,
    mask_vertices,
    subset_masks,
    vertex_mask,
)


@dataclass
class SetFunctionOracle:
    """Integer set function on subsets of 0..n-1, asked once per set.

    The declared properties are trusted above the verification size; the
    orientation engines verify them eagerly on small vertex sets.
    """

    n: int
    fn: Callable[[frozenset[int]], int]
    label: str = "h"
    # values by vertex mask; a set that fn rejects by raising is asked again
    _table: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)

    def at(self, x: int) -> int:
        """The value on the vertex mask x."""
        if x not in self._table:
            self._table[x] = int(self.fn(mask_vertices(x)))
        return self._table[x]

    def __call__(self, x: Iterable[int]) -> int:
        return self.at(vertex_mask(x))

    @classmethod
    def from_table(cls, n: int, table: dict[frozenset[int], int], label: str = "h"):
        """Build from an explicit table.  The empty set must map to 0."""
        fixed = {frozenset(k): int(v) for k, v in table.items()}
        if fixed.setdefault(frozenset(), 0) != 0:
            raise ValueError("set function tables must assign 0 to the empty set")

        def fn(x: frozenset[int]) -> int:
            if x not in fixed:
                raise KeyError(f"table does not cover {sorted(x)}")
            return fixed[x]

        return cls(n, fn, label)

    @classmethod
    def from_matroid_roots(cls, n: int, roots, matroid, label: str = "-rank"):
        """h(X) = -rank of the roots lying in X; supermodular, h(empty) = 0."""
        rank = roots.ranker(matroid)
        return cls(n, lambda x: -rank(vertex_mask(x)), label)


def _on_masks(fn: Callable[[frozenset], int], pool: list) -> Callable[[int], int]:
    """fn on masks over pool (bit i for pool[i]), asked once per mask; an
    oracle on exactly these vertices is read through its own table."""
    if isinstance(fn, SetFunctionOracle) and pool == list(range(fn.n)):
        return fn.at
    return functools.cache(lambda x: fn(mask_items(pool, x)))


def _first_pair(ground: Iterable, fns: tuple[Callable[[frozenset], int], ...],
                violated: Callable[..., bool], budget: Budget, include_empty: bool = True
                ) -> tuple[frozenset, frozenset] | None:
    """First pair X, Y of subsets of ground, in subset order, as masks with
    violated(X, Y, *fns read by mask), or None; one budget step per pair."""
    pool = list(ground)
    reads = [_on_masks(fn, pool) for fn in fns]
    bits = low_bits(len(pool))
    for x in subset_masks(bits, include_empty):
        for y in subset_masks(bits, include_empty):
            budget.spend()
            if violated(x, y, *reads):
                return mask_items(pool, x), mask_items(pool, y)
    return None


def check_intersecting_supermodular(
    h: SetFunctionOracle, cap: int | Budget | None = None
) -> tuple[frozenset[int], frozenset[int]] | None:
    """First pair X, Y with X & Y nonempty violating
    h(X) + h(Y) <= h(X & Y) + h(X | Y), or None."""
    return _first_pair(range(h.n), (h,),
                       lambda x, y, f: x & y and f(x) + f(y) > f(x & y) + f(x | y),
                       as_budget(cap), include_empty=False)


def check_supermodular(
    fn: Callable[[frozenset], int], ground: Iterable, cap: int | Budget | None = None
) -> tuple[frozenset, frozenset] | None:
    """First pair violating fn(X) + fn(Y) <= fn(X & Y) + fn(X | Y), or None."""
    return _first_pair(ground, (fn,), lambda x, y, f: f(x) + f(y) > f(x & y) + f(x | y),
                       as_budget(cap))


def check_submodular(
    fn: Callable[[frozenset], int], ground: Iterable, cap: int | Budget | None = None
) -> tuple[frozenset, frozenset] | None:
    """First pair violating fn(X) + fn(Y) >= fn(X & Y) + fn(X | Y), or None."""
    return _first_pair(ground, (fn,), lambda x, y, f: f(x) + f(y) < f(x & y) + f(x | y),
                       as_budget(cap))


def check_cross_inequality(
    p: Callable[[frozenset], int],
    b: Callable[[frozenset], int],
    ground: Iterable,
    cap: int | Budget | None = None,
) -> tuple[frozenset, frozenset] | None:
    """First pair violating b(X) - p(Y) >= b(X - Y) - p(Y - X), or None."""
    return _first_pair(ground, (p, b), lambda x, y, p, b: b(x) - p(y) < b(x & ~y) - p(y & ~x),
                       as_budget(cap))
