"""Core structures: reachability, condensation, entering counts, budgets,
the canonical enumeration orders everything downstream relies on, and the
oracle tables."""
import gc
import itertools
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbopack import (
    Bounds,
    Budget,
    CapExceededError,
    HypergraphicMatroid,
    KSumMatroid,
    MixedHypergraph,
    RootMultiset,
    build_t,
    entering_count,
    in_degree,
    induced_subgraph,
    orient,
    orient_all,
    reach_from,
    reach_to,
    scc_condense,
    set_partitions,
    subpartitions,
    subsets,
    t_contains,
)
from arbopack import structures
from arbopack.fuzz import _random_mixed_hypergraph
from arbopack.structures import (
    entering_mask,
    in_degree_mask,
    mask_sum,
    mask_vertices,
    part_entering,
    partition_masks,
    reach_to_mask,
    subpartition_masks,
    subset_masks,
    subset_sweep,
    vertex_mask,
)

from conftest import all_mixed_hypergraphs, arc, mh
from reference import GPoly, folded_subset_sweep, recursive_partition_masks


def small_graphs():
    def parts(n):
        arcs = st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=6,
        )
        if n < 2:
            edges = st.just([])
        else:
            edges = st.lists(
                st.sets(st.integers(0, n - 1), min_size=2, max_size=n),
                max_size=3,
            )
        return st.tuples(st.just(n), arcs, edges)

    return st.integers(1, 4).flatmap(parts)


def build(spec):
    n, arcs, edges = spec
    return mh(n, edges, [(frozenset({u}), v) for u, v in arcs])


class TestConstruction:
    def test_hyperedge_needs_two_vertices(self):
        with pytest.raises(ValueError):
            mh(2, [{0}], [])

    def test_head_not_in_tails(self):
        with pytest.raises(ValueError):
            MixedHypergraph(2, (), ((frozenset({0, 1}), 1),))

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            mh(2, [{0, 2}], [])

    def test_kind_predicates(self):
        assert mh(2, [], [({0}, 1)]).is_digraph()
        assert mh(2, [{0, 1}], [({0}, 1)]).is_mixed_graph()
        assert mh(3, [], [({0, 1}, 2)]).is_dypergraph()
        assert not mh(3, [], [({0, 1}, 2)]).is_digraph()

    def test_parallel_elements_stay_distinct(self):
        f = mh(2, [{0, 1}, {0, 1}], [({0}, 1), ({0}, 1)])
        assert len(f.hyperedges) == 2
        assert len(f.dyperedges) == 2


class TestTrimOrient:
    def test_orient_makes_dyperedge(self):
        assert orient(frozenset({0, 1, 2}), 2) == (frozenset({0, 1}), 2)

    def test_orient_all_appends_after_originals(self):
        f = mh(3, [{0, 1}], [({2}, 0)])
        d = orient_all(f, (1,))
        assert d.is_dypergraph()
        assert d.dyperedges[0] == (frozenset({2}), 0)
        assert d.dyperedges[1] == (frozenset({0}), 1)


class TestReachability:
    def test_hyperedge_is_two_way(self):
        f = mh(2, [{0, 1}], [])
        assert reach_from(f, (0,)) == frozenset({0, 1})
        assert reach_from(f, (1,)) == frozenset({0, 1})

    def test_dyperedge_needs_one_tail(self):
        # a dyperedge is traversable from any single tail vertex
        f = mh(3, [], [({0, 1}, 2)])
        assert reach_from(f, (0,)) == frozenset({0, 2})
        assert reach_to(f, (2,)) == frozenset({0, 1, 2})

    def test_mixed_chain(self):
        f = mh(3, [{0, 1}], [({1}, 2)])
        assert reach_from(f, (0,)) == frozenset({0, 1, 2})
        assert reach_to(f, (2,)) == frozenset({0, 1, 2})
        assert reach_to(f, (0,)) == frozenset({0, 1})

    def test_empty_set_conventions(self):
        f = mh(2, [], [({0}, 1)])
        assert reach_to(f, ()) == frozenset()
        assert reach_from(f, ()) == frozenset()
        assert in_degree(f, frozenset()) == 0
        assert entering_count(f, (frozenset(),)) == 0

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.data())
    def test_reach_idempotent_and_monotone(self, spec, data):
        f = build(spec)
        x = frozenset(
            data.draw(st.sets(st.integers(0, f.n - 1), max_size=f.n))
        )
        y = frozenset(
            data.draw(st.sets(st.integers(0, f.n - 1), max_size=f.n))
        )
        fwd = reach_from(f, x)
        assert reach_from(f, fwd) == fwd
        back = reach_to(f, x)
        assert reach_to(f, back) == back
        if x <= y:
            assert reach_from(f, x) <= reach_from(f, y)
            assert reach_to(f, x) <= reach_to(f, y)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.data())
    def test_in_degree_submodular(self, spec, data):
        f = build(spec)
        verts = st.sets(st.integers(0, f.n - 1), max_size=f.n)
        x = frozenset(data.draw(verts))
        y = frozenset(data.draw(verts))
        assert in_degree(f, x) + in_degree(f, y) >= (
            in_degree(f, x & y) + in_degree(f, x | y)
        )


class TestCondensation:
    def test_two_cycle_single_component(self):
        f = mh(2, [], [({0}, 1), ({1}, 0)])
        assert scc_condense(f) == (frozenset({0, 1}),)

    def test_hyperedge_merges_components(self):
        f = mh(2, [{0, 1}], [])
        assert scc_condense(f) == (frozenset({0, 1}),)

    def test_chain_is_topologically_ordered(self):
        f = mh(3, [], [({0}, 1), ({1}, 2)])
        comps = scc_condense(f)
        assert comps == (frozenset({0}), frozenset({1}), frozenset({2}))

    def test_order_is_a_topological_order(self):
        f = mh(4, [], [({0}, 1), ({2}, 1), ({1}, 3)])
        comps = scc_condense(f)
        position = {min(c): i for i, c in enumerate(comps)}
        for tails, head in f.dyperedges:
            for t in tails:
                ct = next(c for c in comps if t in c)
                ch = next(c for c in comps if head in c)
                if ct != ch:
                    assert position[min(ct)] < position[min(ch)]

    def test_components_partition_vertices(self):
        f = mh(4, [{0, 1}], [({1}, 2)])
        comps = scc_condense(f)
        seen = set()
        for c in comps:
            assert not (c & seen)
            seen |= c
        assert seen == set(range(4))


class TestEnteringCounts:
    def test_arc_enters_head_side(self):
        f = mh(2, [], [({0}, 1)])
        assert in_degree(f, frozenset({1})) == 1
        assert in_degree(f, frozenset({0})) == 0
        assert in_degree(f, frozenset({0, 1})) == 0

    def test_dyperedge_with_tail_inside_does_not_enter(self):
        f = mh(3, [], [({0, 1}, 2)])
        assert in_degree(f, frozenset({2})) == 1
        assert in_degree(f, frozenset({1, 2})) == 1
        assert in_degree(f, frozenset({0, 2})) == 1
        assert in_degree(f, frozenset({0, 1, 2})) == 0

    def test_hyperedge_enters_when_it_crosses(self):
        f = mh(3, [{0, 1}], [])
        assert entering_count(f, (frozenset({0}),)) == 1
        assert entering_count(f, (frozenset({2}),)) == 0
        assert entering_count(f, (frozenset({0, 1}),)) == 0

    def test_entering_count_counts_each_element_once(self):
        # one hyperedge crossing both parts is still one element
        f = mh(3, [{0, 1, 2}], [])
        parts = (frozenset({0}), frozenset({1}))
        assert entering_count(f, parts) == 1

    def test_entering_count_sums_distinct_elements(self):
        f = mh(3, [], [({0}, 1), ({0}, 2)])
        parts = (frozenset({1}), frozenset({2}))
        assert entering_count(f, parts) == 2


def enters_ref(element, y):
    """The entering rule on frozensets: a hyperedge enters y when it meets
    y and leaves it, a dyperedge when its head is in y and a tail is not."""
    if isinstance(element, frozenset):
        return bool(element & y) and bool(element - y)
    tails, head = element
    return head in y and bool(tails - y)


def reach_to_ref(f, x):
    """Vertices with a walk into x: hyperedges both ways, dyperedges from
    any tail to the head."""
    back = set(x)
    grown = True
    while grown:
        grown = False
        for u in range(f.n):
            steps = [e - {u} for e in f.hyperedges if u in e]
            steps += [{head} for tails, head in f.dyperedges if u in tails]
            if u not in back and any(s & back for s in steps):
                back.add(u)
                grown = True
    return frozenset(back)


class TestMaskForms:
    def test_match_set_definitions_on_grid(self):
        """On every mixed hypergraph with n <= 3 and at most 3 elements:
        in_degree and reach_to on every subset, entering_count on every
        subpartition and on every pair of (possibly overlapping) subsets,
        each in mask form and through its frozenset wrapper."""
        graphs = 0
        for f in all_mixed_hypergraphs(3, 3):
            graphs += 1
            sets = list(subsets(range(f.n)))
            families = list(subpartitions(range(f.n))) + [(x, y) for x in sets for y in sets]
            for x in sets:
                want = sum(enters_ref(d, x) for d in f.dyperedges)
                assert in_degree_mask(f, vertex_mask(x)) == in_degree(f, x) == want
                want = reach_to_ref(f, x)
                assert mask_vertices(reach_to_mask(f, vertex_mask(x))) == reach_to(f, x) == want
            for parts in families:
                want = sum(any(enters_ref(e, y) for y in parts)
                           for e in f.hyperedges + f.dyperedges)
                masks = [vertex_mask(y) for y in parts]
                assert entering_mask(f, masks) == entering_count(f, parts) == want
        assert graphs == 581

    def test_subpartition_masks_in_subpartitions_order(self):
        for n in range(5):
            got = [tuple(mask_vertices(y) for y in parts)
                   for parts in subpartition_masks([1 << v for v in range(n)])]
            assert got == list(subpartitions(range(n)))
            assert len(got) == [1, 2, 5, 15, 52][n]  # Bell(n + 1)


def _random_dypergraph(rng: random.Random) -> MixedHypergraph:
    """Up to 7 vertices and 12 dyperedges with up to 3 tails each; a
    dyperedge is repeated now and then, so parallels occur."""
    n = rng.randint(2, 7)
    dyps = []
    for _ in range(rng.randint(0, 12)):
        if dyps and rng.random() < 0.2:
            dyps.append(rng.choice(dyps))
            continue
        head = rng.randrange(n)
        others = [v for v in range(n) if v != head]
        dyps.append((frozenset(rng.sample(others, rng.randint(1, min(3, len(others))))), head))
    return MixedHypergraph(n, (), tuple(dyps))


def _first_failure(masks, value, budget):
    """The first (X, lhs, rhs) of masks with lhs < rhs, or None, or "cap"
    if the budget ran out first; with the steps left."""
    try:
        for x in masks:
            lhs, rhs = value(x)
            if lhs < rhs:
                return (x, lhs, rhs), budget.remaining
    except CapExceededError:
        return "cap", budget.remaining
    return None, budget.remaining


def _sweep(f, bits, include_empty, cap, ceiling, value):
    budget = Budget(cap)
    try:
        got = subset_sweep(f, bits, include_empty, budget, ceiling, value)
    except CapExceededError:
        return "cap", budget.remaining
    return got, budget.remaining


def _walked(f, bits, include_empty, cap, value):
    """What the reference walk gives, every mask visited; value's lhs must
    be the in-degree the walk carries."""
    budget = Budget(cap)

    def masks():
        for x, d, _, _ in folded_subset_sweep(f, bits, include_empty, budget):
            assert value(x)[0] == d
            yield x

    return _first_failure(masks(), value, budget)


class TestSubsetSweep:
    """subset_sweep returns the first failing mask of subset_masks() over any
    pool, with its Budget steps and where a cap stops it, as the reference
    walk that visits every mask does, while it evaluates only the masks
    entered by fewer than the ceiling."""

    @staticmethod
    def pools(n):
        return [[v for v in range(n) if keep >> v & 1] for keep in range(1, 1 << n)]

    @staticmethod
    def failing(masks, rng):
        """Sets of failing masks: none, each mask alone (5 sampled past 64
        masks) and 5 random sets of several."""
        alone = masks if len(masks) < 64 else rng.sample(masks, 5)
        return [set()] + [{x} for x in alone] + [
            set(rng.sample(masks, rng.randint(1, len(masks)))) for _ in range(5)]

    def outcomes_match(self, pools, include_empty, rng):
        """On a graph nothing enters, so every mask is a candidate, each set
        of failing masks gives the first failure and the steps left of
        subset_masks() under every cap from 1 to one past the sweep's
        length (12 sampled past 64 masks)."""
        f = MixedHypergraph(9)
        for pool in pools:
            bits = [1 << v for v in pool]
            masks = list(subset_masks(bits, include_empty))
            total = len(masks)
            caps = range(1, total + 2) if total < 64 else sorted(rng.sample(range(1, total + 2), 12))
            for failing in self.failing(masks, rng) if masks else [set()]:
                def value(x, failing=failing):
                    return 0, int(x in failing)

                for cap in [10**6, *caps]:
                    budget = Budget(cap)
                    want = _first_failure(subset_masks(bits, include_empty, budget), value, budget)
                    assert _sweep(f, bits, include_empty, cap, 1, value) == want, (pool, cap)

    @pytest.mark.parametrize("include_empty", [True, False])
    def test_masks_order_and_steps_match_subset_masks(self, include_empty):
        """Every pool of up to 5 vertices, the empty pool and shuffled pools
        of up to 9."""
        rng = random.Random(41)
        pools = [pool for n in range(6) for pool in self.pools(n)] + [[]]
        pools += [rng.sample(range(9), rng.randint(1, 9)) for _ in range(30)]
        self.outcomes_match(pools, include_empty, rng)

    @staticmethod
    def agree(f, pool, include_empty, rng):
        """Edmonds-like and Kiraly-like values with random weights: the sweep
        and the reference walk agree under a few caps."""
        weights = [rng.randint(0, 2) for _ in range(f.n)]
        bits = [1 << v for v in pool]
        ceiling = rng.randint(0, 4)
        values = [
            (ceiling, lambda x: (in_degree_mask(f, x), ceiling - mask_sum(weights, x))),
            (sum(weights), lambda x: (in_degree_mask(f, x), mask_sum(weights, reach_to_mask(f, x))
                                      - mask_sum(weights, x))),
        ]
        total = 2 ** len(pool) - (not include_empty)
        for top, value in values:
            for cap in (1, max(1, total // 3), total, total + 1):
                assert _sweep(f, bits, include_empty, cap, top, value) == \
                    _walked(f, bits, include_empty, cap, value), (f, pool, cap)

    @pytest.mark.parametrize("include_empty", [True, False])
    def test_every_small_mixed_hypergraph(self, include_empty):
        rng = random.Random(3)
        for f in all_mixed_hypergraphs(3, 3):
            for pool in self.pools(f.n):
                self.agree(f, pool, include_empty, rng)

    @pytest.mark.parametrize("include_empty", [True, False])
    def test_seeded_dypergraphs(self, include_empty):
        rng = random.Random(17)
        for _ in range(200):
            f = _random_dypergraph(rng)
            pool = sorted(rng.sample(range(f.n), rng.randint(1, f.n)))
            self.agree(f, pool, include_empty, rng)
            self.agree(f, list(range(f.n)), include_empty, rng)

    def test_evaluates_candidates_only(self, monkeypatch):
        """value runs once on each mask it sees, only on masks entered by
        fewer than the ceiling, and the walk computes no term itself."""
        rng = random.Random(29)
        calls = []
        for name in ("in_degree_mask", "reach_to_mask", "mask_sum", "reach_to_singles"):
            direct = getattr(structures, name)
            monkeypatch.setattr(structures, name,
                                lambda *args, direct=direct: calls.append(args) or direct(*args))
        for _ in range(100):
            f = _random_dypergraph(rng)
            pool = sorted(rng.sample(range(f.n), rng.randint(1, f.n)))
            bits, include_empty, ceiling = [1 << v for v in pool], rng.random() < 0.5, rng.randint(0, 4)
            degree = {x: in_degree_mask(f, x) for x in subset_masks(bits, include_empty)}
            seen = []
            subset_sweep(f, bits, include_empty, Budget(), ceiling,
                         lambda x: seen.append(x) or (degree[x], ceiling * (x % 3 == 2)))
            assert len(seen) == len(set(seen))
            assert all(degree[x] < ceiling for x in seen)
        assert calls == []

    @pytest.mark.parametrize("include_empty", [True, False])
    def test_blocks_of_three(self, include_empty, monkeypatch):
        """Blocks three pool vertices wide: the outcomes of subset_masks() on
        shuffled pools of up to 8 vertices with sets of failing masks, and
        of the reference walk on seeded dypergraphs."""
        monkeypatch.setattr(structures, "SWEEP_BLOCK", 3)
        rng = random.Random(53)
        self.outcomes_match([rng.sample(range(9), rng.randint(1, 8)) for _ in range(25)],
                            include_empty, rng)
        for _ in range(100):
            f = _random_dypergraph(rng)
            self.agree(f, rng.sample(range(f.n), rng.randint(1, f.n)), include_empty, rng)

    def test_memory_bounded_by_block(self):
        # the reference walk's queue of two size levels peaked near 1.1 MB
        # at 16 vertices; the bitmaps here are 8 KB each
        n = 16
        f = MixedHypergraph(n, (), tuple((frozenset({(v + 1) % n}), v) for v in range(n)))
        structures._holding.cache_clear()
        structures._at_most.cache_clear()
        tracemalloc.start()
        try:
            got = subset_sweep(f, [1 << v for v in range(n)], True, Budget(), 3,
                               lambda x: (in_degree_mask(f, x), int(x.bit_count() == n // 2)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is None
        assert peak < 1e6, peak

    def test_thirty_vertex_pool_under_a_cap(self):
        """A 30-vertex pool under a cap of 1000: the reference walk's
        witness where it finds one inside the cap, the cap error with -1
        steps left where it runs out, and under 1 MB traced."""
        n = 30
        f = MixedHypergraph(n, (), tuple((frozenset({v}), v + 1) for v in range(9)))
        bits = [1 << v for v in range(n)]
        outcomes = []
        for target in ({20}, {0, 20}, {0, 17, 29}, {0, 1, 2, 3}, None):
            target = target and vertex_mask(target)

            def value(x, target=target):
                return in_degree_mask(f, x), int(x == target)

            want = _walked(f, bits, False, 1000, value)
            tracemalloc.start()
            try:
                got = _sweep(f, bits, False, 1000, 1, value)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want, target
            assert peak < 1e6, peak
            outcomes.append(got)
        assert [got[0] == "cap" for got in outcomes] == [False, False, False, True, True]
        assert all(got[1] == -1 for got in outcomes[3:])


class TestPartEntering:
    """The per-part table gives entering_mask on every subpartition, one
    table per graph read across all of them."""

    def test_every_small_mixed_hypergraph(self):
        graphs = 0
        for f in all_mixed_hypergraphs(3, 3):
            graphs += 1
            entering = part_entering(f)
            for parts in subpartition_masks([1 << v for v in range(f.n)]):
                assert entering(parts) == entering_mask(f, parts), (f, parts)
        assert graphs == 581

    def test_seeded_mixed_hypergraphs(self):
        rng = random.Random(13)
        for i in range(40):
            n = 6 if i % 4 == 0 else rng.randint(1, 6)
            g = _random_mixed_hypergraph(rng, n, max_elements=10)
            # repeat an element of each kind, so parallels occur
            f = MixedHypergraph(n, g.hyperedges + g.hyperedges[:1], g.dyperedges + g.dyperedges[:1])
            entering = part_entering(f)
            for parts in subpartition_masks([1 << v for v in range(n)]):
                assert entering(parts) == entering_mask(f, parts), (f, parts)


class TestInducedSubgraph:
    def test_keeps_inside_elements_only(self):
        f = mh(3, [{0, 1}, {1, 2}], [({0}, 1), ({2}, 1)])
        sub, hmap, amap = induced_subgraph(f, frozenset({0, 1}))
        assert sub.n == 2
        assert len(sub.hyperedges) == 1
        assert len(sub.dyperedges) == 1
        assert hmap == [0]
        assert amap == [0]

    def test_relabels_to_dense_indices(self):
        f = mh(3, [], [({1}, 2)])
        sub, _, amap = induced_subgraph(f, frozenset({1, 2}))
        assert sub.dyperedges == ((frozenset({0}), 1),)
        assert amap == [0]


class TestBudget:
    def test_budget_raises_at_cap(self):
        b = Budget(3)
        b.spend(3)
        with pytest.raises(CapExceededError):
            b.spend()

    def test_enumeration_respects_budget(self):
        with pytest.raises(CapExceededError):
            list(subsets(range(10), budget=Budget(5)))

    @pytest.mark.parametrize("amount", [1, 4, 5, 6, 9])
    def test_spending_at_once_matches_single_steps(self, amount):
        def left(spend):
            b = Budget(5)
            try:
                spend(b)
            except CapExceededError:
                return "cap", b.remaining
            return "ok", b.remaining

        def single_steps(b):
            for _ in range(amount):
                b.spend()

        assert left(lambda b: b.spend(amount)) == left(single_steps)


class TestEnumerationOrders:
    def test_partition_masks_match_recursive_walk(self):
        """The iterative walk gives the recursive walk's partitions, in its
        order, with its steps and cap errors, on shuffled pools of up to 7
        items under every cap up to one past the partition count."""
        rng = random.Random(61)

        def run(walk, bits, cap):
            budget, seen = Budget(cap), []
            try:
                seen.extend(walk(bits, budget))
            except CapExceededError:
                return seen, "cap", budget.remaining
            return seen, None, budget.remaining

        for n in range(8):
            bits = [1 << v for v in rng.sample(range(10), n)]
            total = len(list(recursive_partition_masks(bits)))
            assert total == [1, 1, 2, 5, 15, 52, 203, 877][n]  # Bell(n)
            caps = range(1, total + 2) if total < 250 else sorted(rng.sample(range(1, total), 30))
            for cap in [10**6, *caps]:
                assert run(partition_masks, bits, cap) == \
                    run(recursive_partition_masks, bits, cap), (n, cap)

    def test_subsets_size_then_lex(self):
        got = list(subsets([0, 1, 2]))
        assert got[0] == frozenset()
        assert got[1:4] == [frozenset({0}), frozenset({1}), frozenset({2})]
        assert got[-1] == frozenset({0, 1, 2})
        assert len(got) == 8

    @pytest.mark.parametrize("include_empty", [True, False])
    def test_subsets_follow_combinations_one_step_each(self, include_empty):
        items = "abcd"
        want = [frozenset(c) for r in range(0 if include_empty else 1, 5)
                for c in itertools.combinations(items, r)]
        budget = Budget(100)
        assert list(subsets(items, include_empty, budget)) == want
        assert budget.remaining == 100 - len(want)

    def test_set_partitions_count(self):
        assert len(list(set_partitions(range(4)))) == 15  # Bell(4)

    def test_set_partitions_blocks_by_first_appearance(self):
        first = next(iter(set_partitions([0, 1, 2])))
        assert first == (frozenset({0, 1, 2}),)

    def test_subpartitions_include_empty_first(self):
        got = list(subpartitions([0, 1]))
        assert got[0] == ()
        # empty, {0}, {1}, {0,1}, {0}{1}
        assert len(got) == 5


class TestRootMultiset:
    def test_copies_enumerate_multiplicity(self):
        s = RootMultiset((2, 0, 1))
        assert s.copies() == ((0, 0), (0, 1), (2, 0))
        assert s.size() == 3
        assert mask_sum(s.counts, 0b011) == 2  # vertices 0 and 1
        assert s.support() == frozenset({0, 2})

    def test_restrict_keeps_copy_identity(self):
        s = RootMultiset((2, 1))
        assert s.restrict({0}) == ((0, 0), (0, 1))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            RootMultiset((-1,))

    def test_from_pairs(self):
        assert RootMultiset.from_pairs(3, [(2, 1), (0, 2)]) == RootMultiset((2, 0, 1))
        assert RootMultiset.from_pairs(2, []) == RootMultiset((0, 0))

    @pytest.mark.parametrize("pairs, message", [
        ([(-1, 2)], "root vertex -1 outside 0..2"),
        ([(5, 1)], "root vertex 5 outside 0..2"),
        ([(1, 1), (1, 2)], "root vertex 1 given twice"),
    ], ids=["negative", "past-n", "repeated"])
    def test_from_pairs_rejects_bad_vertices(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            RootMultiset.from_pairs(3, pairs)


def _polyhedron():
    return build_t(mh(2, [{0, 1}], [({0}, 1)]),
                   Bounds(f=(0, 0), g=(1, 1), k=1, l=1, lprime=2))


def _triangle():
    return HypergraphicMatroid("xyz", {"x": {0, 1}, "y": {1, 2}, "z": {0, 2}})


# the matroid kinds that keep an answer table by ground mask: the method
# holding the rule, a factory, and which calls are the rule's own asks
# (k-sum's _place recurses with a nonempty bin)
TABLED = {
    "hypergraphic": (HypergraphicMatroid, "_spans_enough", _triangle, lambda: True),
    "ksum": (KSumMatroid, "_place", lambda: KSumMatroid(_triangle(), 2),
             lambda bins: not any(bins)),
}


class TestMemo:
    @pytest.mark.parametrize("cls, name, make, asks", TABLED.values(), ids=TABLED.keys())
    def test_matroid_rule_asked_once_per_mask(self, monkeypatch, cls, name, make, asks):
        rule = vars(cls)[name]
        asked = []

        def recording(obj, z, *rest):
            if asks(*rest):
                asked.append((obj, z))
            return rule(obj, z, *rest)

        monkeypatch.setattr(cls, name, recording)
        for obj in (make(), make()):
            masks = range(1 << len(obj.ground))
            answers = [obj.independent_mask(z) for z in masks]
            assert [obj.independent(obj.elements(z)) for z in masks] == answers
            assert [z for owner, z in asked if owner is obj] == list(masks)

    def test_rejected_key_is_checked_on_every_call(self):
        q = GPoly(range(2), len, len)
        for _ in range(2):
            with pytest.raises(ValueError):
                q.p({0, 5})
        assert q.p({0}) == 1

    def test_polyhedron_freed_without_cyclic_gc(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t = _polyhedron()
            t_contains(t, frozenset({t.ground[0]}))
            refs = [weakref.ref(t), weakref.ref(t.matroid.underlying)]
            del t
            assert [ref() for ref in refs] == [None, None]
        finally:
            if was_enabled:
                gc.enable()


def test_arc_helper_matches_manual():
    assert arc(0, 1) == (frozenset({0}), 1)
