"""Core structures: reachability, condensation, entering counts, budgets,
the canonical enumeration orders everything downstream relies on, and the
oracle memo."""
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbopack import (
    Bounds,
    Budget,
    CapExceededError,
    GPoly,
    HypergraphicMatroid,
    KSumMatroid,
    MixedHypergraph,
    RootMultiset,
    SetFunctionOracle,
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
from arbopack.structures import (
    entering_mask,
    in_degree_mask,
    mask_vertices,
    memo,
    reach_to_mask,
    subpartition_masks,
    vertex_mask,
)

from conftest import all_mixed_hypergraphs, arc, mh


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


class TestEnumerationOrders:
    def test_subsets_size_then_lex(self):
        got = list(subsets([0, 1, 2]))
        assert got[0] == frozenset()
        assert got[1:4] == [frozenset({0}), frozenset({1}), frozenset({2})]
        assert got[-1] == frozenset({0, 1, 2})
        assert len(got) == 8

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
        assert s.size_of(0b011) == 2  # vertices 0 and 1
        assert s.support() == frozenset({0, 2})

    def test_restrict_keeps_copy_identity(self):
        s = RootMultiset((2, 1))
        assert s.restrict({0}) == ((0, 0), (0, 1))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            RootMultiset((-1,))


def _polyhedron():
    return build_t(mh(2, [{0, 1}], [({0}, 1)]),
                   Bounds(f=(0, 0), g=(1, 1), k=1, l=1, lprime=2))


def _triangle():
    return HypergraphicMatroid("xyz", {"x": {0, 1}, "y": {1, 2}, "z": {0, 2}})


# every method cached by memo, with a factory for a small instance
MEMOIZED = [
    (SetFunctionOracle, "__call__", lambda: SetFunctionOracle(3, len)),
    (GPoly, "p", lambda: GPoly(range(3), len, lambda z: 2 * len(z))),
    (GPoly, "b", lambda: GPoly(range(3), len, lambda z: 2 * len(z))),
    (HypergraphicMatroid, "_indep", _triangle),
    (KSumMatroid, "_indep", lambda: KSumMatroid(_triangle(), 2)),
]


class TestMemo:
    @pytest.mark.parametrize("cls, name, make", MEMOIZED,
                             ids=[f"{cls.__name__}.{name}" for cls, name, _ in MEMOIZED])
    def test_memoizes_calls(self, monkeypatch, cls, name, make):
        wrapper = vars(cls)[name]
        assert wrapper.__code__ is memo(len).__code__
        runs = []

        def body(obj, key):
            runs.append((obj, key))
            return wrapper.__wrapped__(obj, key)

        monkeypatch.setattr(cls, name, memo(body))
        for obj in (make(), make()):
            ground = obj.ground if hasattr(obj, "ground") else range(obj.n)
            keys = list(subsets(ground))
            values = [getattr(obj, name)(z) for z in keys]
            assert [getattr(obj, name)(sorted(z, key=repr)) for z in keys] == values
            assert [z for owner, z in runs if owner is obj] == keys

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
