"""Set function oracles and modularity checks.

Functions here take and return plain ints on frozensets of vertices (or of
arbitrary hashable ground elements).  Checks enumerate pairs of subsets,
so they are meant for small grounds and guard themselves with a budget.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .structures import Budget, as_budget, memo, subsets


@dataclass
class SetFunctionOracle:
    """Memoized integer set function on subsets of 0..n-1.

    The declared properties are trusted above the verification size; the
    orientation engines verify them eagerly on small vertex sets.
    """

    n: int
    fn: Callable[[frozenset[int]], int]
    label: str = "h"

    @memo
    def __call__(self, x: frozenset[int]) -> int:
        return int(self.fn(x))

    @classmethod
    def from_table(cls, n: int, table: dict[frozenset[int], int], label: str = "h"):
        """Build from an explicit table.  The empty set must map to 0."""
        fixed = {frozenset(k): int(v) for k, v in table.items()}
        if fixed.get(frozenset(), 0) != 0:
            raise ValueError("set function tables must assign 0 to the empty set")
        fixed.setdefault(frozenset(), 0)

        def fn(x: frozenset[int]) -> int:
            if x not in fixed:
                raise KeyError(f"table does not cover {sorted(x)}")
            return fixed[x]

        return cls(n, fn, label)

    @classmethod
    def from_matroid_roots(cls, n: int, roots, matroid, label: str = "-rank"):
        """h(X) = -rank of the roots lying in X; supermodular, h(empty) = 0."""

        def fn(x: frozenset[int]) -> int:
            return -matroid.rank(roots.restrict(x))

        return cls(n, fn, label)


def _first_pair(ground: Iterable, violated: Callable[[frozenset, frozenset], bool],
                budget: Budget, include_empty: bool = True
                ) -> tuple[frozenset, frozenset] | None:
    """First pair X, Y of subsets of ground, in subset order, for which
    violated(X, Y) holds, or None; one budget step per pair."""
    pool = list(ground)
    for x in subsets(pool, include_empty):
        for y in subsets(pool, include_empty):
            budget.spend()
            if violated(x, y):
                return (x, y)
    return None


def check_intersecting_supermodular(
    h: SetFunctionOracle, cap: int | Budget | None = None
) -> tuple[frozenset[int], frozenset[int]] | None:
    """First pair X, Y with X & Y nonempty violating
    h(X) + h(Y) <= h(X & Y) + h(X | Y), or None."""
    return _first_pair(range(h.n), lambda x, y: x & y and h(x) + h(y) > h(x & y) + h(x | y),
                       as_budget(cap), include_empty=False)


def check_supermodular(
    fn: Callable[[frozenset], int], ground: Iterable, cap: int | Budget | None = None
) -> tuple[frozenset, frozenset] | None:
    """First pair violating fn(X) + fn(Y) <= fn(X & Y) + fn(X | Y), or None."""
    return _first_pair(ground, lambda x, y: fn(x) + fn(y) > fn(x & y) + fn(x | y),
                       as_budget(cap))


def check_submodular(
    fn: Callable[[frozenset], int], ground: Iterable, cap: int | Budget | None = None
) -> tuple[frozenset, frozenset] | None:
    """First pair violating fn(X) + fn(Y) >= fn(X & Y) + fn(X | Y), or None."""
    return _first_pair(ground, lambda x, y: fn(x) + fn(y) < fn(x & y) + fn(x | y),
                       as_budget(cap))


def check_cross_inequality(
    p: Callable[[frozenset], int],
    b: Callable[[frozenset], int],
    ground: Iterable,
    cap: int | Budget | None = None,
) -> tuple[frozenset, frozenset] | None:
    """First pair violating b(X) - p(Y) >= b(X - Y) - p(Y - X), or None."""
    return _first_pair(ground, lambda x, y: b(x) - p(y) < b(x - y) - p(y - x), as_budget(cap))
