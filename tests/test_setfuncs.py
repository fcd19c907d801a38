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
    subsets,
)
from arbopack.structures import vertex_mask


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

    def test_asks_fn_once_per_vertex_set(self):
        runs = []

        def fn(x):
            runs.append(x)
            return len(x)

        keys = list(subsets(range(3)))
        ways = (lambda h, x: h.at(vertex_mask(x)),  # by mask
                lambda h, x: h(sorted(x) * 2),  # by list, repeats included
                lambda h, x: h(frozenset(x)))
        for h in (SetFunctionOracle(3, fn), SetFunctionOracle(3, fn)):
            runs.clear()
            # each set is first asked one way, then the other two
            for shift in range(3):
                got = [ways[(i + shift) % 3](h, x) for i, x in enumerate(keys)]
                assert got == [len(x) for x in keys]
            assert runs == keys

    def test_rejected_set_is_asked_on_every_call(self):
        runs = []

        def fn(x):
            runs.append(x)
            raise KeyError(sorted(x))

        h = SetFunctionOracle(2, fn)
        for ask in (lambda: h.at(0b10), lambda: h([1]), lambda: h(frozenset({1}))):
            with pytest.raises(KeyError):
                ask()
        assert runs == [frozenset({1})] * 3

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


def _square(x):
    return len(x) ** 2


def _cap3(x):
    return min(len(x), 3)


def _low(x):
    return max(0, len(x) - 4)


def _roots_h():
    s = RootMultiset((2, 1, 0, 1, 2, 0))
    return SetFunctionOracle.from_matroid_roots(6, s, UniformMatroid(s.copies(), 4))


def _bumped_roots_h():
    h = _roots_h()
    return SetFunctionOracle(6, lambda x: h(x) + (x == {2, 3, 4}))


# (checker, arguments before the budget, first violating pair or None,
# Budget steps) on six-element grounds, holding and failing
PINNED_PAIRS = [
    ("intersecting_holds", check_intersecting_supermodular, lambda: (_roots_h(),), None, 3969),
    ("intersecting_fails", check_intersecting_supermodular, lambda: (_bumped_roots_h(),),
     ({1, 2}, {2, 3, 4}), 731),
    ("supermodular_holds", check_supermodular, lambda: (_square, range(6)), None, 4096),
    ("supermodular_fails", check_supermodular,
     lambda: (lambda x: _square(x) - 3 * (x == {3, 4, 5}), range(6)), ({3, 4}, {3, 5}), 1237),
    ("submodular_holds", check_submodular, lambda: (_cap3, range(6)), None, 4096),
    ("submodular_fails", check_submodular,
     lambda: (lambda x: _cap3(x) + (x == {0, 5}), range(6)), ({0}, {5}), 71),
    ("cross_holds", check_cross_inequality, lambda: (_low, _cap3, range(6)), None, 4096),
    ("cross_fails", check_cross_inequality,
     lambda: (_low, lambda x: _cap3(x) - (x == {1, 2, 4, 5}), range(6)), ({1, 2, 4, 5}, {1}),
     3459),
]


@pytest.mark.parametrize("checker, args, first, steps",
                         [case[1:] for case in PINNED_PAIRS],
                         ids=[case[0] for case in PINNED_PAIRS])
def test_pinned_first_pair_and_steps(checker, args, first, steps):
    budget = Budget(100_000)
    got = checker(*args(), budget)
    assert got == (None if first is None else tuple(frozenset(z) for z in first))
    assert 100_000 - budget.remaining == steps
