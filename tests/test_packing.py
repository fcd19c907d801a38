"""Packing verification, the exhaustive existence search, and the three
constructive pipelines."""
import random

import pytest

from arbopack import (
    Bounds,
    Budget,
    ConditionId,
    FreeMatroid,
    Instance,
    Member,
    MixedHypergraph,
    Packing,
    PackingSpec,
    Pick,
    RootMultiset,
    UniformMatroid,
    Verdict,
    Witness,
    corollary1_pack,
    evaluate,
    find_packing,
    main_pack,
    mrb_mixed_pack,
    verify,
)
from arbopack.fuzz import _random_arcs, _random_bounds, _random_mixed_hypergraph, _random_roots, _random_matroid

from conftest import mh


def _random_mixed_graph(rng, n):
    edges = [frozenset(p) for p in __import__("itertools").combinations(range(n), 2)
             if rng.random() < 0.4]
    arcs = _random_arcs(rng, n)
    return MixedHypergraph(n, tuple(edges), arcs)


def spanning_spec(counts):
    return PackingSpec("spanning", roots=RootMultiset(tuple(counts)))


def A(index, tail, head):
    return Pick("A", index, tail, head)


def E(index, tail, head):
    return Pick("E", index, tail, head)


def roots_spec(species, counts, rank=None):
    """A species on a root multiset; the matroid species get the free
    matroid on the copies, or the uniform one of the given rank."""
    s = RootMultiset(counts)
    if species.startswith("matroid"):
        m = FreeMatroid(s.copies()) if rank is None else UniformMatroid(s.copies(), rank)
        return PackingSpec(species, roots=s, matroid=m)
    return PackingSpec(species, roots=s)


def brl_spec(f, g, k, l, lprime):
    return PackingSpec("bounded_regular_limited", bounds=Bounds(f=f, g=g, k=k, l=l, lprime=lprime))


# one hand-built faulty packing per verdict note: (graph, packing, spec, witness)
VERIFY_WITNESSES = {
    "element-reused": (
        mh(2, (), [({0}, 1)]),
        Packing((Member(0, picks=(A(0, 0, 1),)), Member(0, 1, (A(0, 0, 1),)))),
        spanning_spec((2, 0)),
        Witness("global", (("A", 0),), note="element used by two members")),
    "not-arborescence": (
        mh(2, (), [({0}, 1), ({0}, 1), ({0}, 1)]),
        Packing((Member(0, picks=(A(0, 0, 1),)), Member(0, 1, (A(1, 0, 1), A(2, 0, 1))))),
        spanning_spec((2, 0)),
        Witness("global", (1,), note="member is not an arborescence")),
    "roots-differ": (
        mh(1, (), []), Packing((Member(0, copy=2),)), spanning_spec((1,)),
        Witness("global", (), note="member roots differ from the root multiset")),
    "does-not-span": (
        mh(3, (), [({0}, 1)]), Packing((Member(1), Member(0))),
        roots_spec("reachability", (1, 1, 0)),
        Witness("global", (1,), note="member does not span its required vertex set")),
    "copy-roots-two": (
        mh(2, (), []), Packing((Member(0), Member(0))), roots_spec("matroid_based", (1, 0)),
        Witness("global", (), note="a root copy roots two members")),
    "not-a-basis": (
        mh(2, (), [({0}, 1)]), Packing((Member(0), Member(1))),
        roots_spec("matroid_reachability_based", (1, 1)),
        Witness("vertex", (1,), 1, 2, "roots of the members at the vertex are not a basis")),
    "fewer-members": (
        mh(1, (), []), Packing(()), brl_spec((0,), (1,), 1, 1, 1),
        Witness("global", (), 0, 1, "fewer members than allowed")),
    "more-members": (
        mh(2, (), []), Packing((Member(0), Member(1))), brl_spec((0, 0), (1, 1), 1, 1, 1),
        Witness("global", (), 1, 2, "more members than allowed")),
    "roots-below-f": (
        mh(2, (), [({0}, 1)]), Packing((Member(0, picks=(A(0, 0, 1),)),)),
        brl_spec((0, 1), (1, 1), 1, 1, 2),
        Witness("vertex", (1,), 0, 1, "vertex roots fewer members than required")),
    "roots-above-g": (
        mh(2, (), []), Packing((Member(0), Member(1))), brl_spec((0, 0), (0, 1), 1, 1, 2),
        Witness("vertex", (0,), 0, 1, "vertex roots more members than allowed")),
    "not-k-members": (
        mh(2, (), []), Packing((Member(0),)), brl_spec((0, 0), (1, 1), 1, 1, 2),
        Witness("vertex", (1,), 0, 1, "vertex is not in exactly k members")),
}


class TestVerifyWitnesses:
    @pytest.mark.parametrize("case", VERIFY_WITNESSES.values(), ids=VERIFY_WITNESSES.keys())
    def test_first_witness(self, case):
        f, packing, spec, witness = case
        assert verify(f, packing, spec) == Verdict(False, witness)

    def test_root_copy_outside_the_multiset_raises(self):
        with pytest.raises(ValueError, match="outside the root multiset"):
            verify(mh(2, (), []), Packing((Member(0, copy=1),)), roots_spec("matroid_based", (1, 0)))


class TestVerify:
    def test_trivial_single_vertex(self):
        f = mh(1, (), [])
        p = Packing((Member(0),))
        assert verify(f, p, spanning_spec((1,))).holds

    def test_spanning_two_cycle(self):
        f = mh(2, (), [({0}, 1), ({1}, 0)])
        p = Packing((Member(0, picks=(Pick("A", 0, 0, 1),)),))
        assert verify(f, p, spanning_spec((1, 0))).holds

    def test_spanning_missing_vertex(self):
        f = mh(2, (), [({0}, 1)])
        p = Packing((Member(0),))
        verdict = verify(f, p, spanning_spec((1, 0)))
        assert not verdict.holds

    def test_element_reuse_detected(self):
        f = mh(2, (), [({0}, 1)])
        pick = Pick("A", 0, 0, 1)
        p = Packing((Member(0, picks=(pick,)), Member(0, copy=1, picks=(pick,))))
        verdict = verify(f, p, spanning_spec((2, 0)))
        assert not verdict.holds
        assert "two members" in verdict.witness.note

    def test_non_arborescence_two_heads(self):
        f = mh(2, (), [({0}, 1), ({0}, 1)])
        p = Packing((Member(0, picks=(Pick("A", 0, 0, 1), Pick("A", 1, 0, 1))),))
        verdict = verify(f, p, spanning_spec((1, 0)))
        assert not verdict.holds

    def test_root_with_entering_pick_rejected(self):
        f = mh(2, (), [({0}, 1), ({1}, 0)])
        p = Packing((Member(0, picks=(Pick("A", 0, 0, 1), Pick("A", 1, 1, 0))),))
        verdict = verify(f, p, spanning_spec((1, 0)))
        assert not verdict.holds

    def test_pick_off_its_element_raises(self):
        f = mh(2, (), [({0}, 1)])
        p = Packing((Member(0, picks=(Pick("A", 0, 1, 0),)),))
        with pytest.raises(ValueError):
            verify(f, p, spanning_spec((1, 0)))

    def test_unknown_root_copy_rejected(self):
        f = mh(1, (), [])
        p = Packing((Member(0, copy=2),))
        verdict = verify(f, p, spanning_spec((1,)))
        assert not verdict.holds

    def test_reachability_species(self):
        f = mh(2, (), [])
        spec = PackingSpec("reachability", roots=RootMultiset((1, 0)))
        assert verify(f, Packing((Member(0),)), spec).holds
        # a reachability member must still cover everything it can reach
        f2 = mh(2, (), [({0}, 1)])
        verdict = verify(f2, Packing((Member(0),)),
                         PackingSpec("reachability", roots=RootMultiset((1, 0))))
        assert not verdict.holds

    def test_matroid_based_wants_full_rank_everywhere(self):
        f = mh(2, (), [])
        s = RootMultiset((1, 1))
        spec = PackingSpec("matroid_based", roots=s,
                           matroid=FreeMatroid(s.copies()))
        p = Packing((Member(0), Member(1)))
        verdict = verify(f, p, spec)
        assert not verdict.holds  # neither vertex collects the other root

    def test_matroid_reachability_based_single_vertices(self):
        f = mh(2, (), [])
        s = RootMultiset((1, 1))
        spec = PackingSpec("matroid_reachability_based", roots=s,
                           matroid=FreeMatroid(s.copies()))
        p = Packing((Member(0), Member(1)))
        assert verify(f, p, spec).holds

    def test_brl_counts_and_window(self):
        f = mh(1, (), [])
        b = Bounds(f=(0,), g=(1,), k=1, l=1, lprime=1)
        spec = PackingSpec("bounded_regular_limited", bounds=b)
        assert verify(f, Packing((Member(0),)), spec).holds
        verdict = verify(f, Packing(()), spec)
        assert not verdict.holds  # zero members below l and below membership k

    def test_brl_membership_must_hit_k(self):
        f = mh(2, (), [])
        b = Bounds(f=(0, 0), g=(1, 1), k=1, l=1, lprime=2)
        verdict = verify(f, Packing((Member(0),)),
                         PackingSpec("bounded_regular_limited", bounds=b))
        assert not verdict.holds
        assert verdict.witness.kind == "vertex"

    def test_unknown_species_rejected(self):
        with pytest.raises(ValueError):
            verify(mh(1, (), []), Packing(()), PackingSpec("weird"))
        with pytest.raises(ValueError):
            verify(mh(1, (), []), Packing(()), PackingSpec("spanning"))


class TestFindPacking:
    def test_spanning_two_cycle(self):
        f = mh(2, (), [({0}, 1), ({1}, 0)])
        got = find_packing(f, spanning_spec((1, 0)))
        assert got is not None
        assert verify(f, got, spanning_spec((1, 0))).holds

    def test_infeasible_returns_none(self):
        f = mh(2, (), [])
        assert find_packing(f, spanning_spec((1, 0))) is None

    def test_hyperedge_orientation_explored(self):
        f = mh(2, [{0, 1}], [])
        got = find_packing(f, spanning_spec((1, 0)))
        assert got is not None
        pick = got.members[0].picks[0]
        assert pick.kind == "E" and pick.head == 1

    def test_use_every_element_filters(self):
        f = mh(2, (), [({0}, 1), ({0}, 1)])
        spec = spanning_spec((1, 0))
        assert find_packing(f, spec) is not None
        assert find_packing(f, spec, use_every_element=True) is None

    @pytest.mark.parametrize("f, spec, every, want, steps", [
        (mh(3, [{0, 1}], [({1}, 2), ({2}, 0)]), spanning_spec((1, 0, 0)), False,
         (Member(0, picks=(A(0, 1, 2), E(0, 0, 1))),), 3),
        (mh(3, (), [({0}, 1)]), spanning_spec((1, 0, 0)), False, None, 1),
        (mh(3, (), [({0}, 1), ({0}, 1), ({2}, 1)]), roots_spec("reachability", (2, 0, 1)), False,
         (Member(0, picks=(A(0, 0, 1),)), Member(0, 1, (A(1, 0, 1),)),
          Member(2, picks=(A(2, 2, 1),))), 4),
        (mh(3, (), [({0}, 1), ({2}, 1)]), roots_spec("reachability", (2, 0, 1)), False, None, 2),
        (mh(2, (), [({0}, 1), ({1}, 0)]), roots_spec("matroid_based", (1, 1)), False,
         (Member(0, picks=(A(0, 0, 1),)), Member(1, picks=(A(1, 1, 0),))), 16),
        (mh(2, (), [({0}, 1)]), roots_spec("matroid_based", (1, 1)), False, None, 11),
        (mh(3, [{1, 2}], [({0}, 1), ({0}, 2)]),
         roots_spec("matroid_reachability_based", (2, 1, 0), rank=2), False,
         (Member(0), Member(0, 1, (A(0, 0, 1), A(1, 0, 2))), Member(1, picks=(E(0, 1, 2),))), 165),
        (mh(3, [{1, 2}], [({0}, 1), ({0}, 2)]),
         roots_spec("matroid_reachability_based", (2, 1, 0), rank=2), True,
         (Member(0), Member(0, 1, (A(0, 0, 1), A(1, 0, 2))), Member(1, picks=(E(0, 1, 2),))), 161),
        (mh(2, (), [({0}, 1)]), roots_spec("matroid_reachability_based", (2, 0)), False, None, 15),
        (mh(3, [{0, 1}], [({0}, 1), ({1}, 2), ({2}, 0)]), brl_spec((0, 0, 0), (1, 1, 1), 1, 1, 1),
         False, (Member(0, picks=(A(0, 0, 1), A(1, 1, 2))),), 7),
        (mh(3, (), [({0}, 1)]), brl_spec((1, 0, 0), (1, 0, 0), 1, 1, 1), False, None, 6),
    ])
    def test_pinned_packing_and_steps(self, f, spec, every, want, steps):
        budget = Budget(10_000)
        got = find_packing(f, spec, budget, use_every_element=every)
        assert got == (None if want is None else Packing(want))
        assert budget.remaining == 10_000 - steps

    def test_matches_main_condition(self):
        rng = random.Random(41)
        holds = fails = 0
        for _ in range(50):
            n = rng.randint(1, 3)
            f = _random_mixed_hypergraph(rng, n, max_elements=3)
            b = _random_bounds(rng, n)
            spec = PackingSpec("bounded_regular_limited", bounds=b)
            got = find_packing(f, spec)
            inst = Instance(graph=f, bounds=b)
            want = evaluate(ConditionId.MAIN, inst).holds
            assert (got is not None) == want
            if got is None:
                fails += 1
            else:
                assert verify(f, got, spec).holds
                holds += 1
        assert holds > 5 and fails > 5


class TestCorollary1:
    def test_two_cycle_single(self):
        d = mh(2, (), [({0}, 1), ({1}, 0)])
        got = corollary1_pack(d, RootMultiset((1, 0)), 1)
        assert isinstance(got, Packing)
        assert len(got.members) == 1

    def test_two_cycle_double(self):
        d = mh(2, (), [({0}, 1), ({1}, 0)])
        got = corollary1_pack(d, RootMultiset((1, 1)), 2)
        assert isinstance(got, Packing)
        assert len(got.members) == 2
        # every vertex in exactly two members
        for v in range(2):
            assert sum(v in m.vertex_set() for m in got.members) == 2

    def test_zero_k_empty(self):
        d = mh(2, (), [])
        got = corollary1_pack(d, RootMultiset((0, 0)), 0)
        assert isinstance(got, Packing) and got.members == ()

    def test_infeasible_verdict_passthrough(self):
        d = mh(2, (), [])
        got = corollary1_pack(d, RootMultiset((1, 0)), 1)
        assert isinstance(got, Verdict) and not got.holds

    def test_agrees_with_condition(self):
        rng = random.Random(42)
        packed = refused = 0
        for _ in range(80):
            n = rng.randint(1, 3)
            d = MixedHypergraph(n, (), _random_arcs(rng, n))
            s = _random_roots(rng, n)
            k = rng.randint(max(1, s.size() and 1), 2)
            inst = Instance(graph=d, roots=s, bounds=Bounds(k=k))
            want = evaluate(ConditionId.COR1, inst).holds
            got = corollary1_pack(d, s, k)
            assert isinstance(got, Packing) == want
            if want:
                packed += 1
            else:
                refused += 1
        assert packed > 10 and refused > 10

    def test_dyperedge_tails_accepted(self):
        d = mh(3, (), [({0, 2}, 1), ({1}, 2), ({2}, 0)])
        s = RootMultiset((1, 0, 0))
        got = corollary1_pack(d, s, 1)
        assert isinstance(got, Packing)

    def test_requires_dypergraph(self):
        with pytest.raises(ValueError):
            corollary1_pack(mh(2, [{0, 1}], []), RootMultiset((1, 0)), 1)


class TestMrbMixed:
    def test_single_edge_free(self):
        f = mh(2, [{0, 1}], [])
        s = RootMultiset((1, 0))
        got = mrb_mixed_pack(f, s, FreeMatroid(s.copies()))
        assert isinstance(got, Packing)
        # the packed member uses the edge oriented away from the root
        kinds = {p.kind for m in got.members for p in m.picks}
        assert kinds <= {"E"}

    def test_requires_mixed_graph(self):
        f = mh(3, [{0, 1, 2}], [])
        s = RootMultiset((1, 0, 0))
        with pytest.raises(ValueError):
            mrb_mixed_pack(f, s, FreeMatroid(s.copies()))

    def test_requires_matroid_on_the_root_copies(self):
        f = mh(2, [{0, 1}], [])
        s = RootMultiset((1, 0))
        with pytest.raises(ValueError):
            mrb_mixed_pack(f, s, FreeMatroid(RootMultiset((1, 1)).copies()))

    def test_infeasible_gives_component_witness(self):
        f = mh(2, (), [])
        s = RootMultiset((1, 1))
        got = mrb_mixed_pack(f, s, UniformMatroid(s.copies(), 2))
        assert isinstance(got, Packing)  # isolated vertices pack singletons

    def test_agrees_with_condition(self):
        rng = random.Random(43)
        packed = refused = 0
        for _ in range(60):
            n = rng.randint(1, 3)
            f = _random_mixed_graph(rng, n)
            s = _random_roots(rng, n)
            m = _random_matroid(rng, s)
            want = evaluate(ConditionId.GY_MIXED,
                            Instance(graph=f, roots=s, matroid=m)).holds
            got = mrb_mixed_pack(f, s, m)
            assert isinstance(got, Packing) == want
            if want:
                spec = PackingSpec("matroid_reachability_based", roots=s,
                                   matroid=m)
                assert verify(f, got, spec).holds
                packed += 1
            else:
                refused += 1
        assert packed > 10 and refused > 5


class TestMainPack:
    def test_spec_example(self):
        f = mh(3, [{0, 1}], [({0}, 1), ({1}, 2), ({2}, 0)])
        b = Bounds(f=(0, 0, 0), g=(1, 1, 1), k=1, l=1, lprime=1)
        got = main_pack(f, b)
        assert isinstance(got, Packing)
        spec = PackingSpec("bounded_regular_limited", bounds=b)
        assert verify(f, got, spec).holds

    def test_infeasible_returns_main_witness(self):
        f = mh(2, (), [])
        b = Bounds(f=(1, 1), g=(1, 1), k=1, l=1, lprime=1)
        got = main_pack(f, b)
        assert isinstance(got, Verdict) and not got.holds

    def test_agrees_with_condition(self):
        rng = random.Random(44)
        packed = refused = 0
        for _ in range(50):
            n = rng.randint(1, 3)
            f = _random_mixed_hypergraph(rng, n, max_elements=3)
            b = _random_bounds(rng, n)
            want = evaluate(ConditionId.MAIN, Instance(graph=f, bounds=b)).holds
            got = main_pack(f, b)
            assert isinstance(got, Packing) == want
            if want:
                spec = PackingSpec("bounded_regular_limited", bounds=b)
                assert verify(f, got, spec).holds
                packed += 1
            else:
                refused += 1
        assert packed > 5 and refused > 5
