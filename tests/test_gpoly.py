"""Generalized polymatroid pairs, plank intersection, the packing polyhedron
and its emptiness/membership routines."""
import itertools
import random
import tracemalloc

import pytest

from arbopack import (
    Bounds,
    Budget,
    CapExceededError,
    ConditionId,
    Instance,
    Member,
    Packing,
    Pick,
    UniformMatroid,
    Verdict,
    Witness,
    build_t,
    check_axioms,
    evaluate,
    feasible,
    find_integer_point,
    integer_points,
    main_pack,
    packing,
    subsets,
    t_contains,
    violating_subpartition,
    witness_violates,
)
from arbopack.fuzz import _random_bounds, _random_mixed_hypergraph
from arbopack.gpoly import (
    MEMBER_WINDOW,
    ROOT_WINDOW,
    SIDES,
    ground_subset_sides,
    member_window,
    root_window,
)
from arbopack.matroids import element_head

from conftest import all_mixed_hypergraphs, mh
from reference import GPoly, Plank, gpoly_contains, intersect_plank, minkowski_sum


def rank_pair(ground, r):
    m = UniformMatroid(ground, r)
    return GPoly(ground, lambda z: 0, m.rank, label="matroid")


class TestGPolyAxioms:
    def test_matroid_pair_is_strong(self):
        assert check_axioms(rank_pair("abc", 2)).holds

    def test_broken_upper_reported(self):
        q = GPoly("ab", lambda z: 0, lambda z: len(z) ** 2)
        verdict = check_axioms(q)
        assert not verdict.holds
        assert verdict.witness.kind == "pair"

    def test_nonzero_empty_set_reported(self):
        q = GPoly("ab", lambda z: -1 if not z else 0, lambda z: len(z))
        verdict = check_axioms(q)
        assert not verdict.holds
        assert verdict.witness.payload[0] == frozenset()

    def test_cross_inequality_caught(self):
        # p, b both modular but crossing fails: b(X)-p(Y) < b(X-Y)-p(Y-X)
        q = GPoly("ab", lambda z: 2 * len(z) - 2 if z else 0, lambda z: len(z))
        verdict = check_axioms(q)
        assert not verdict.holds


class TestPlank:
    def test_absorbing_plank_changes_nothing(self):
        q = rank_pair("abc", 2)
        out = intersect_plank(q, Plank(-5, 99))
        for z in subsets("abc"):
            assert out.p(z) == q.p(z)
            assert out.b(z) == q.b(z)

    def test_empty_when_plank_above_reach(self):
        q = rank_pair("ab", 1)
        assert intersect_plank(q, Plank(2, 3)) is None

    def test_empty_when_alpha_exceeds_beta(self):
        q = rank_pair("ab", 1)
        assert intersect_plank(q, Plank(1, 0)) is None

    def test_tight_plank_raises_lower(self):
        q = rank_pair("ab", 2)
        out = intersect_plank(q, Plank(2, 2))
        assert out.p(frozenset("a")) == 1
        assert out.b(frozenset("a")) == 1
        assert check_axioms(out).holds

    def test_result_still_strong_pair(self):
        q = rank_pair("abc", 2)
        out = intersect_plank(q, Plank(1, 2))
        assert check_axioms(out).holds


class TestMinkowski:
    def test_common_ground_adds_pointwise(self):
        a, b = rank_pair("ab", 1), rank_pair("ab", 2)
        s = minkowski_sum([a, b])
        for z in subsets("ab"):
            assert s.p(z) == 0
            assert s.b(z) == a.b(z) + b.b(z)
        assert check_axioms(s).holds

    def test_disjoint_grounds_blockwise(self):
        a, b = rank_pair("ab", 1), rank_pair("cd", 2)
        s = minkowski_sum([a, b])
        assert set(s.ground) == set("abcd")
        assert s.b(frozenset("ac")) == 1 + 1
        assert s.b(frozenset("abcd")) == 1 + 2
        assert check_axioms(s).holds

    def test_single_summand_identity(self):
        q = rank_pair("ab", 1)
        s = minkowski_sum([q])
        for z in subsets("ab"):
            assert (s.p(z), s.b(z)) == (q.p(z), q.b(z))

    def test_rejects_empty_and_none(self):
        with pytest.raises(ValueError):
            minkowski_sum([])
        with pytest.raises(ValueError):
            minkowski_sum([rank_pair("ab", 1), None])

    def test_rejects_partial_overlap(self):
        with pytest.raises(ValueError):
            minkowski_sum([rank_pair("ab", 1), rank_pair("bc", 1)])


class TestMembership:
    def test_box_membership(self):
        q = rank_pair("ab", 1)
        assert gpoly_contains(q, {"a": 1})
        assert gpoly_contains(q, {})
        assert not gpoly_contains(q, {"a": 1, "b": 1})
        assert not gpoly_contains(q, {"a": -1})


def main_bounds(n, k=1, l=1, lprime=1, f=0, g=1):
    return Bounds(f=(f,) * n, g=(g,) * n, k=k, l=l, lprime=lprime)


class TestTPolyhedron:
    def test_requires_full_bounds(self):
        with pytest.raises(ValueError):
            build_t(mh(1, (), []), Bounds(f=(0,), g=(1,), k=1))

    def test_requires_positive_window(self):
        with pytest.raises(ValueError):
            build_t(mh(1, (), []), main_bounds(1, k=0))

    def test_single_vertex_zero_vector(self):
        t = build_t(mh(1, (), []), main_bounds(1))
        assert feasible(t).holds
        assert find_integer_point(t) == ()
        assert list(integer_points(t)) == [frozenset()]

    def test_ground_lists_arcs_then_copies(self):
        f = mh(2, [{0, 1}], [({0}, 1)])
        t = build_t(f, main_bounds(2, k=2, lprime=4))
        arcs = [e for e in t.ground if e[0] == "A"]
        copies = [e for e in t.ground if e[0] == "E"]
        assert len(arcs) == 1
        # one hyperedge, one element per possible head
        assert copies == [("E", 0, 0), ("E", 0, 1)]

    def test_pair_matches_manual_plank_intersection(self):
        # the per-vertex pieces written out over head counts of element sets
        compared = 0
        for t in TestSweeps.grid():
            f, b = t.f, t.bounds

            def heads(z, v):
                return sum(1 for e in z if element_head(f, e) == v)

            def p_sum(z):
                rest = t.ground_set - z
                return sum(max(0, b.k - b.g_k(v) - heads(rest, v)) for v in range(f.n))

            def b_sum(z):
                return sum(min(heads(z, v), b.k - b.f[v]) for v in range(f.n))

            manual = intersect_plank(GPoly(t.ground, p_sum, b_sum),
                                     Plank(b.k * f.n - b.lprime, b.k * f.n - b.l))
            if manual is None:
                assert any(t.p(z) > t.b(z) for z in subsets(t.ground))
                continue
            for z in subsets(t.ground):
                assert t.p(z) == manual.p(z)
                assert t.b(z) == manual.b(z)
            compared += 1
        assert compared > 200

    def test_bounds_reject_elements_outside_ground(self):
        t = build_t(mh(3, [{0, 1}], []), main_bounds(3))
        for z in ({("E", 0, 2)}, {("A", 0)}, {("E", 1, 0)}):
            with pytest.raises(ValueError):
                t.p(z)
            with pytest.raises(ValueError):
                t.b(z)

    def test_upper_respects_member_minimum(self):
        f = mh(3, [{0, 1}], [({0}, 1), ({1}, 2), ({2}, 0)])
        b = main_bounds(3)
        t = build_t(f, b)
        assert t.b(frozenset(t.ground)) <= b.k * f.n - b.l

    def test_feasible_spec_example(self):
        f = mh(3, [{0, 1}], [({0}, 1), ({1}, 2), ({2}, 0)])
        t = build_t(f, main_bounds(3))
        assert feasible(t).holds
        point = find_integer_point(t)
        assert point is not None
        assert t_contains(t, frozenset(point))

    def test_membership_rejects_dependent_support(self):
        # both orientations of one hyperedge are parallel in the matroid
        f = mh(2, [{0, 1}], [])
        t = build_t(f, main_bounds(2, k=1, l=1, lprime=2))
        both = frozenset({("E", 0, 0), ("E", 0, 1)})
        assert not t_contains(t, both)

    def test_feasibility_matches_main_condition(self):
        rng = random.Random(31)
        agree_holds = agree_fails = 0
        for _ in range(120):
            n = rng.randint(1, 3)
            f = _random_mixed_hypergraph(rng, n, max_elements=3)
            b = _random_bounds(rng, n)
            t = build_t(f, b)
            inst = Instance(graph=f, bounds=b)
            lhs = feasible(t).holds
            rhs = evaluate(ConditionId.MAIN, inst).holds
            assert lhs == rhs
            if lhs:
                agree_holds += 1
            else:
                agree_fails += 1
        assert agree_holds > 10 and agree_fails > 10

    def test_integer_points_smallest_first(self):
        f = mh(2, [], [({0}, 1), ({1}, 0)])
        t = build_t(f, main_bounds(2, k=1, l=1, lprime=2))
        pts = list(integer_points(t))
        sizes = [len(p) for p in pts]
        assert sizes == sorted(sizes)
        assert frozenset() in pts or sizes[0] > 0


SPEC_EXAMPLE = (mh(3, [{0, 1}], [({0}, 1), ({1}, 2), ({2}, 0)]), main_bounds(3))
EMPTY_EXAMPLE = (mh(3, [{1, 2}], [({2}, 1), ({1}, 2), ({1}, 0)]),
                 Bounds(f=(1, 0, 0), g=(1, 0, 1), k=1, l=1, lprime=1))


class TestSweeps:
    """The mask sweeps against the frozenset reference oracles, their pinned
    Budget steps, and tables that grow only as far as the budget pays."""

    @pytest.mark.parametrize("example, verdict, steps", [
        (SPEC_EXAMPLE, Verdict(True), 32),
        (EMPTY_EXAMPLE, Verdict(False, Witness(
            "ground_subset", ((("A", 2),), "f"), 1, 2,
            "member minimum exceeds remaining rank")), 4),
    ], ids=["feasible", "empty"])
    def test_feasible_steps_pinned(self, example, verdict, steps):
        budget = Budget(10_000)
        assert feasible(build_t(*example), budget) == verdict
        assert 10_000 - budget.remaining == steps

    @pytest.mark.parametrize("example, point, steps", [
        (SPEC_EXAMPLE, (("A", 0), ("A", 1)), 204),
        (EMPTY_EXAMPLE, None, 109),
    ], ids=["feasible", "empty"])
    def test_find_integer_point_steps_pinned(self, example, point, steps):
        budget = Budget(10_000)
        found = find_integer_point(build_t(*example), budget)
        if point is None:
            assert found == feasible(build_t(*example))
        else:
            assert found == point
        assert 10_000 - budget.remaining == steps

    @staticmethod
    def grid():
        for f in all_mixed_hypergraphs(3, 2):
            for b in (main_bounds(f.n), main_bounds(f.n, k=2, l=1, lprime=3, g=2),
                      Bounds(f=(1,) + (0,) * (f.n - 1), g=(1,) * f.n, k=1, l=1, lprime=2)):
                yield build_t(f, b)

    def test_integer_points_match_membership_on_grid(self):
        points = 0
        for t in self.grid():
            expected = [z for z in subsets(t.ground) if t_contains(t, z)]
            assert list(integer_points(t)) == expected
            points += len(expected)
        assert points > 50

    def test_greedy_bases_match_rank_on_grid(self):
        for t in self.grid():
            bases = {0: 0}
            for mask in range(1 << len(t.ground)):
                z = frozenset(e for i, e in enumerate(t.ground) if mask >> i & 1)
                basis = t.matroid.greedy_basis(bases, mask)
                assert basis & ~mask == 0
                assert basis.bit_count() == t.rank(z)

    @pytest.mark.parametrize("search", [feasible, find_integer_point])
    def test_small_cap_bounds_table_memory(self, search):
        # 4 edges (8 oriented copies) and 12 arcs: 2^20 subsets, and a list
        # with one slot per subset would take 8 MB
        arcs = [({u}, v) for u in range(4) for v in range(4) if u != v]
        f = mh(4, [{0, 1}, {1, 2}, {2, 3}, {0, 3}], arcs)
        t = build_t(f, main_bounds(4, lprime=4))
        assert len(t.ground) == 20
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                search(t, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("search", [feasible, find_integer_point])
    def test_wide_ground_stays_capped(self, search):
        # the 12 arcs of K4 six times over: ground masks wider than 64 bits
        arcs = [({u}, v) for u in range(4) for v in range(4) if u != v] * 6
        t = build_t(mh(4, [], arcs), main_bounds(4, lprime=4))
        assert len(t.ground) == 72
        with pytest.raises(CapExceededError):
            search(t, 1000)


def reference_feasible(t, budget):
    """feasible() from the frozenset oracles: the two bound pre-checks, then
    one step per element set and ground_subset_sides on both sides."""
    b, n = t.bounds, t.f.n
    for v in range(n):
        lhs, rhs = root_window(b, v)
        if lhs < rhs:
            return Verdict(False, Witness("vertex", (v,), lhs, rhs, ROOT_WINDOW))
    lhs, rhs = member_window(b, n)
    if lhs < rhs:
        return Verdict(False, Witness("global", (), lhs, rhs, MEMBER_WINDOW))
    for z in subsets(t.ground, budget=budget):
        elems = tuple(e for e in t.ground if e in z)
        for which, note in SIDES.items():
            rank_rest, demand = ground_subset_sides(t, (elems, which))
            if rank_rest < demand:
                return Verdict(False, Witness("ground_subset", (elems, which),
                                              rank_rest, demand, note))
    return Verdict(True)


def reference_points(t, budget):
    """integer_points() from the frozenset oracles, lazily: one step per
    support, then t_contains, which spends one per subset it tries."""
    return (z for z in subsets(t.ground, budget=budget) if t_contains(t, z, budget))


def reference_find(t, budget):
    found = next(reference_points(t, budget), None)
    verdict = reference_feasible(t, budget)
    return verdict if found is None else tuple(e for e in t.ground if e in found)


def outcome(search, t, cap):
    """A search's answer or its cap error, with the budget it left."""
    budget = Budget(cap)
    try:
        got = search(t, budget)
        if not isinstance(got, (tuple, Verdict)):
            got = list(got)
    except CapExceededError:
        got = CapExceededError
    return got, budget.remaining


class TestSearchAgainstReference:
    """The mask searches keep the answers, the Budget steps and the cap
    behaviour of the frozenset reference, at caps that stop them at every
    stage: while supports are scanned, rows built or the sweep run."""

    @staticmethod
    def grid():
        rng = random.Random(11)
        while True:
            n = rng.randint(2, 4)
            f = _random_mixed_hypergraph(rng, n, max_elements=rng.randint(2, 6))
            t = build_t(f, _random_bounds(rng, n))
            if 3 <= len(t.ground) <= 11:
                yield t

    def test_same_answers_steps_and_cap_errors(self):
        seen = set()
        for t in itertools.islice(self.grid(), 36):
            for search, reference in ((integer_points, reference_points),
                                      (feasible, reference_feasible),
                                      (find_integer_point, reference_find)):
                # the steps a 4000 cap leaves, then caps one short and exact
                used = 4000 - outcome(search, t, 4000)[1]
                for cap in {1, 7, 60, 500, 4000, max(1, used - 1), min(used, 4000)}:
                    got = outcome(search, t, cap)
                    assert got == outcome(reference, t, cap), (search.__name__, t.f, cap)
                    seen.add((search.__name__, got[0] is CapExceededError))
        assert len(seen) == 6


class TestMainPack:
    # two hyperedges (4 oriented copies) and both directions of a 4-cycle:
    # a 12-element ground, one root forced at vertex 0
    CYCLE = mh(4, [{0, 1}, {2, 3}],
               [({u}, (u + 1) % 4) for u in range(4)] + [({(u + 1) % 4}, u) for u in range(4)])
    BOUNDS = Bounds(f=(1, 0, 0, 0), g=(1, 1, 1, 1), k=1, l=1, lprime=1)

    def test_packing_and_steps_pinned(self):
        assert len(build_t(self.CYCLE, self.BOUNDS).ground) == 12
        budget = Budget(10**6)
        got = main_pack(self.CYCLE, self.BOUNDS, budget)
        assert got == Packing((Member(0, 0, (Pick("A", 0, 0, 1), Pick("A", 1, 1, 2),
                                              Pick("A", 2, 2, 3))),))
        assert 10**6 - budget.remaining == 13818

    def test_support_scan_skips_supports_above_dependent_sets(self):
        # independence is downward closed: a support whose subset without
        # its top element is dependent is dependent too, and is not asked
        t = build_t(self.CYCLE, self.BOUNDS)
        independent = t.matroid.independent_mask
        asked = []

        def record(z):
            asked.append(z)
            return independent(z)

        t.matroid.independent_mask = record
        points = list(integer_points(t))
        assert points and len(asked) == len(set(asked))
        for z in asked:
            assert z == 0 or independent(z ^ (1 << (z.bit_length() - 1)))
        assert len(asked) < 2 ** len(t.ground) // 2

    def test_memory_bounded_and_nothing_cached_on_t(self, monkeypatch):
        built = []

        def build(f, bounds):
            built.append(build_t(f, bounds))
            return built[-1]

        monkeypatch.setattr(packing, "build_t", build)
        tracemalloc.start()
        try:
            assert isinstance(main_pack(self.CYCLE, self.BOUNDS), Packing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert [name for name in vars(built[0]) if name.startswith("_memo_")] == []


class TestWitnessTranslation:
    def test_rank_partition_matches_rank(self):
        f = mh(2, [{0, 1}], [({0}, 1)])
        t = build_t(f, main_bounds(2, k=1, l=1, lprime=2))
        for z in subsets(t.ground):
            parts, val = t.matroid.rank_partition_argmin(z)
            assert val == t.rank(z)

    def test_ground_subset_witness_becomes_subpartition(self):
        rng = random.Random(32)
        translated = 0
        for _ in range(200):
            n = rng.randint(1, 3)
            f = _random_mixed_hypergraph(rng, n, max_elements=3)
            b = _random_bounds(rng, n)
            t = build_t(f, b)
            verdict = feasible(t)
            if verdict.holds or verdict.witness.kind != "ground_subset":
                continue
            inst = Instance(graph=f, bounds=b)
            assert witness_violates(ConditionId.LEMMA1B, inst, verdict.witness)
            elems, which = verdict.witness.payload
            parts = violating_subpartition(t, elems, which)
            w = Witness("subpartition", (tuple(parts),))
            assert witness_violates(ConditionId.MAIN, inst, w), (
                f, b, elems, which, parts)
            translated += 1
        assert translated > 5

    @pytest.mark.parametrize("elems, which", [
        ((("E", 0, 0),), "x"),
        ((("E", 0, 2),), "g"),  # vertex 2 is not on the hyperedge
        ((("A", 9),), "f"),
        ((("E", 0, 7),), "g"),
    ], ids=["side", "head-off-edge", "no-arc", "head-off-graph"])
    def test_malformed_ground_subset_witness_rejected(self, elems, which):
        inst = Instance(graph=mh(3, [{0, 1}], []), bounds=main_bounds(3))
        with pytest.raises(ValueError):
            witness_violates(ConditionId.LEMMA1B, inst, Witness("ground_subset", (elems, which)))

    def test_subpartition_checks_side_before_sweep(self):
        t = build_t(mh(3, [{0, 1}], []), main_bounds(3))
        budget = Budget(10)
        with pytest.raises(ValueError):
            violating_subpartition(t, (), "x", budget)
        assert budget.remaining == 10
        with pytest.raises(ValueError):
            violating_subpartition(t, (("E", 0, 2),), "g", budget)
