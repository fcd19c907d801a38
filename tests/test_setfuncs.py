"""Set-function oracles and the modularity checkers."""
import pytest

from arbopack import (
    Budget,
    CapExceededError,
    FreeMatroid,
    RootMultiset,
    SetFunctionOracle,
    UniformMatroid,
    check_cross_inequality,
    check_intersecting_supermodular,
    check_submodular,
    check_supermodular,
)


def table_oracle(n, table):
    return SetFunctionOracle.from_table(n, {frozenset(k): v for k, v in table.items()})


class TestOracle:
    def test_from_table_requires_zero_on_empty(self):
        with pytest.raises(ValueError):
            table_oracle(1, {(): 1, (0,): 0})

    def test_uncovered_set_raises(self):
        h = table_oracle(1, {(): 0, (0,): 2})
        assert h((0,)) == 2
        with pytest.raises(KeyError):
            SetFunctionOracle(1, lambda x: {}[x])(frozenset({0}))

    def test_from_matroid_roots_is_negated_rank(self):
        s = RootMultiset((2, 1))
        m = UniformMatroid(s.copies(), 2)
        h = SetFunctionOracle.from_matroid_roots(2, s, m)
        assert h(()) == 0
        assert h((0,)) == -2
        assert h((1,)) == -1
        assert h((0, 1)) == -2

    def test_matroid_h_is_intersecting_supermodular(self):
        s = RootMultiset((2, 1, 0))
        m = FreeMatroid(s.copies())
        h = SetFunctionOracle.from_matroid_roots(3, s, m)
        assert check_intersecting_supermodular(h) is None


class TestCheckers:
    def test_supermodular_detects_violation(self):
        # cardinality is modular; strictly submodular example violates
        fn = lambda x: min(len(x), 1)
        got = check_supermodular(fn, range(2))
        assert got is not None
        x, y = got
        assert fn(x) + fn(y) > fn(x & y) + fn(x | y)

    def test_submodular_accepts_rank_like(self):
        fn = lambda x: min(len(x), 2)
        assert check_submodular(fn, range(3)) is None

    def test_intersecting_only_looks_at_intersecting_pairs(self):
        # h is supermodular on intersecting pairs but fails for disjoint ones
        table = {(): 0, (0,): 1, (1,): 1, (0, 1): 0}
        h = table_oracle(2, table)
        assert check_intersecting_supermodular(h) is None
        assert check_supermodular(h, range(2)) is not None

    def test_cross_inequality(self):
        p = lambda x: 0
        b = lambda x: len(x)
        assert check_cross_inequality(p, b, range(3)) is None
        # b(X) - p(Y) >= b(X-Y) - p(Y-X) fails when b drops on supersets
        b_bad = lambda x: -len(x)
        got = check_cross_inequality(p, b_bad, range(2))
        assert got is not None

    def test_checker_respects_budget(self):
        fn = lambda x: len(x)
        with pytest.raises(CapExceededError):
            check_supermodular(fn, range(8), Budget(10))


def test_first_violation_is_deterministic():
    # X={0,1}, Y={1,2}: 1 + 1 > h({1}) + h(V) = 0
    table = {(): 0, (0,): 0, (1,): 0, (2,): 0,
             (0, 1): 1, (0, 2): 0, (1, 2): 1, (0, 1, 2): 0}
    h = table_oracle(3, table)
    first = check_intersecting_supermodular(h)
    again = check_intersecting_supermodular(table_oracle(3, table))
    assert first == again
    assert first is not None
    x, y = first
    assert x & y
    assert h(x) + h(y) > h(x & y) + h(x | y)
