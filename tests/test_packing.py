"""Packing verification, the exhaustive existence search, and the three
constructive pipelines."""
import dataclasses
import itertools
import random

import pytest

import arbopack.packing as packing
from arbopack import (
    Bounds,
    Budget,
    CapExceededError,
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
from arbopack.structures import mask_bits, reach_from_mask, subset_masks

from conftest import mh


def _random_mixed_graph(rng, n):
    edges = [frozenset(p) for p in itertools.combinations(range(n), 2)
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


def pass_loop_arborescence(m):
    """Whether the member's picks form an arborescence from its root:
    distinct heads, none of them the root, and passes over the picks left,
    each taking every pick whose tail is reached, until all are taken or a
    pass takes none."""
    heads = [p.head for p in m.picks]
    if m.root in heads or len(set(heads)) != len(heads):
        return False
    covered, pending = 1 << m.root, m.picks
    while pending:
        rest = []
        for p in pending:
            if covered >> p.tail & 1:
                covered |= 1 << p.head
            else:
                rest.append(p)
        if len(rest) == len(pending):
            return False
        pending = rest
    return True


def random_picks(rng, f):
    """Picks on a random subset of f's elements, in random order, each
    with a random tail and head its element allows."""
    picks = []
    for i, e in enumerate(f.hyperedges):
        if rng.random() < 0.6:
            head = rng.choice(sorted(e))
            picks.append(E(i, rng.choice(sorted(e - {head})), head))
    for j, (tails, head) in enumerate(f.dyperedges):
        if rng.random() < 0.6:
            picks.append(A(j, rng.choice(sorted(tails)), head))
    rng.shuffle(picks)
    return tuple(picks)


def corrupted(rng, m):
    """The member with one pick dropped, one hyperedge pick reversed, its
    root moved, or its picks shuffled."""
    picks, root = list(m.picks), m.root
    op = rng.randrange(4)
    if op == 0 and picks:
        del picks[rng.randrange(len(picks))]
    elif op == 1 and any(p.kind == "E" for p in picks):
        i = rng.choice([i for i, p in enumerate(picks) if p.kind == "E"])
        picks[i] = E(picks[i].index, picks[i].head, picks[i].tail)
    elif op == 2:
        root = rng.choice(sorted(m.vertex_set()))
    else:
        rng.shuffle(picks)
    return Member(root, m.copy, tuple(picks))


class TestArborescenceVerdicts:
    """verify calls a member not an arborescence exactly when the pass loop
    over its picks does, and names the first such member."""

    @staticmethod
    def check(f, members, spec):
        verdict = verify(f, Packing(members), spec)
        bad = [i for i, m in enumerate(members) if not pass_loop_arborescence(m)]
        if bad:
            assert verdict == Verdict(False, Witness("global", (bad[0],),
                                                     note="member is not an arborescence"))
        else:
            assert verdict.holds or verdict.witness.note != "member is not an arborescence"
        return bool(bad)

    def test_random_picks(self):
        rng = random.Random("arborescence:random")
        rejected = accepted = 0
        for _ in range(400):
            n = rng.randint(1, 5)
            f = _random_mixed_hypergraph(rng, n, max_elements=rng.randint(1, 8))
            member = Member(rng.randrange(n), 0, random_picks(rng, f))
            bad = self.check(f, (member,), spanning_spec([1] + [0] * (n - 1)))
            rejected += bad
            accepted += not bad
        assert rejected > 50 and accepted > 50

    def test_corrupted_packings(self):
        rng = random.Random("arborescence:corrupted")
        rejected = accepted = 0
        for _ in range(150):
            n = rng.randint(2, 4)
            f = _random_mixed_hypergraph(rng, n, max_elements=rng.randint(3, 7))
            spec = PackingSpec("bounded_regular_limited", bounds=_random_bounds(rng, n))
            got = find_packing(f, spec)
            if got is None:
                continue
            for _ in range(4):
                i = rng.randrange(len(got.members))
                members = got.members[:i] + (corrupted(rng, got.members[i]),) + got.members[i + 1:]
                bad = self.check(f, members, spec)
                rejected += bad
                accepted += not bad
        assert rejected > 20 and accepted > 20


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


# The two product searches of find_packing as plain loops over the whole
# product, one Budget step per combination, each checked only when complete.

def plain_grow_member(root, target, by_head, used, budget):
    cand_lists = []
    for u in mask_bits(target & ~(1 << root)):
        lst = [rec for rec in by_head.get(u, ()) if (rec[0], rec[1]) not in used and rec[2] & target]
        if not lst:
            return
        cand_lists.append(lst)
    for combo in itertools.product(*cand_lists):
        budget.spend()
        covered, pending, picks = 1 << root, list(combo), []
        while pending:
            for i, (kind, index, tails, head) in enumerate(pending):
                reached = tails & covered
                if reached:
                    break
            else:
                break
            picks.append(Pick(kind, index, (reached & -reached).bit_length() - 1, head))
            covered |= 1 << head
            del pending[i]
        if not pending:
            yield tuple(sorted(picks, key=lambda p: (p.kind, p.index)))


def plain_assignments(f, spec, rule, sizes, budget, pruned=packing._assignments):
    if not spec.species.startswith("matroid"):
        yield from pruned(f, spec, rule, sizes, budget)
        return
    cand_by_vertex = [
        [u for u in subset_masks([1 << w for w in mask_bits(reach_from_mask(f, 1 << v))])
         if u >> v & 1]
        for v in range(f.n)
    ]
    copies = spec.roots.copies()
    for size in range(len(copies) + 1):
        for roots in itertools.combinations(copies, size):
            budget.spend()
            for targets in itertools.product(*(cand_by_vertex[rv] for rv, _ in roots)):
                budget.spend()
                if rule(roots, targets) is None:
                    yield roots, targets


def search_outcome(f, spec, every, budget):
    """find_packing's packing or cap error, with the Budget left."""
    try:
        got = find_packing(f, spec, budget, use_every_element=every)
    except CapExceededError as exc:
        got = ("cap", str(exc))
    return got, budget.remaining


class CountingBudget(Budget):
    __slots__ = ("calls",)

    def __init__(self, cap):
        super().__init__(cap)
        self.calls = 0

    def spend(self, amount=1):
        self.calls += 1
        super().spend(amount)


class TestPrunedSearch:
    """find_packing walks its element-choice and target products
    depth-first and skips dead branches with one spend: same packings,
    same cap errors, same Budget as the plain product loops."""

    @pytest.mark.parametrize("species", sorted(packing.SPECIES))
    def test_matches_plain_product_loops(self, species, monkeypatch):
        rng = random.Random(f"pruned:{species}")
        probe_cap = 5_000
        capped = done = 0
        for _ in range(40):
            n = rng.randint(1, 4)
            f = _random_mixed_hypergraph(rng, n, max_elements=rng.randint(3, 9))
            s = _random_roots(rng, n)
            spec = PackingSpec(species, roots=s, matroid=_random_matroid(rng, s))
            if species == "bounded_regular_limited":
                spec = PackingSpec(species, bounds=_random_bounds(rng, n))
            for every in (False, True):
                with monkeypatch.context() as plain:
                    plain.setattr(packing, "_grow_member", plain_grow_member)
                    plain.setattr(packing, "_assignments", plain_assignments)
                    steps = probe_cap - search_outcome(f, spec, every, Budget(probe_cap))[1]
                    caps = {7, 30, 300} | ({steps - 1, steps} - {0} if steps <= probe_cap else set())
                    want = {cap: search_outcome(f, spec, every, Budget(cap)) for cap in caps}
                for cap in sorted(caps):
                    assert search_outcome(f, spec, every, Budget(cap)) == want[cap], (f, spec, every, cap)
                    capped += want[cap][1] < 0
                    done += want[cap][1] >= 0
        assert capped and done

    # a cor1 hub: one arc from the new vertex 8 to each root copy of the
    # digraph, and k = 2 spanning members from it
    HUB_ARCS = [(0, 2), (0, 4), (0, 6), (1, 5), (1, 7), (1, 7), (2, 1), (2, 3), (3, 2), (3, 4),
                (3, 4), (3, 7), (4, 3), (4, 5), (5, 0), (5, 1), (5, 6), (6, 3), (6, 5), (6, 5),
                (7, 1), (7, 4), (8, 0), (8, 2)]
    # an oriented mixed graph with roots (2, 1, 1, 0, 2) under the uniform matroid of rank 2
    MRB_ARCS = [(0, 4), (1, 3), (4, 0), (4, 3), (3, 2), (4, 1), (2, 1), (2, 0), (4, 1), (4, 3)]

    @pytest.mark.parametrize("f, spec, steps", [
        (mh(9, (), [({u}, v) for u, v in HUB_ARCS]),
         PackingSpec("spanning", roots=RootMultiset.from_pairs(9, [(8, 2)])), 1028),
        (mh(5, (), [({u}, v) for u, v in MRB_ARCS]),
         roots_spec("matroid_reachability_based", (2, 1, 1, 0, 2), rank=2), 3556),
    ], ids=["cor1-hub", "mrb"])
    def test_dead_branches_spend_at_once(self, f, spec, steps):
        budget = CountingBudget(100_000)
        got = find_packing(f, spec, budget)
        assert got is not None and verify(f, got, spec).holds
        assert budget.cap - budget.remaining == steps
        assert budget.calls < steps / 2, budget.calls


def unpruned_bounded_assignments(f, spec, rule, sizes, budget):
    """The bounded species' search with no pruning: every root vector of
    l..l' members, every product of their target choices, each checked only
    by the counting rule, one step per full choice."""
    b = spec.bounds
    cand_by_vertex = [
        [u for u in subset_masks([1 << w for w in mask_bits(reach_from_mask(f, 1 << v))])
         if u >> v & 1]
        for v in range(f.n)
    ]
    for t in range(b.l, b.lprime + 1):
        for vec in itertools.combinations_with_replacement(range(f.n), t):
            roots = tuple((v, c) for v in range(f.n) for c in range(vec.count(v)))
            for targets in itertools.product(*(cand_by_vertex[v] for v in vec)):
                budget.spend()
                if rule(roots, targets) is None:
                    yield roots, targets


class TestBoundedPruning:
    """The bounded species' target walk cuts a candidate as soon as some
    vertex lies in more than k members or can no longer reach k; it must
    find the packings of the unpruned product."""

    def test_matches_unpruned_product(self, monkeypatch):
        rng = random.Random("bounded-pruning")
        cap = 10_000_000
        found = empty = 0
        for _ in range(40):
            n = rng.randint(1, 3)
            f = _random_mixed_hypergraph(rng, n, max_elements=rng.randint(2, 6))
            spec = PackingSpec("bounded_regular_limited", bounds=_random_bounds(rng, n))
            for every in (False, True):
                with monkeypatch.context() as plain:
                    plain.setattr(packing, "_assignments", unpruned_bounded_assignments)
                    want = find_packing(f, spec, cap, use_every_element=every)
                assert find_packing(f, spec, cap, use_every_element=every) == want, (f, spec, every)
                found += want is not None
                empty += want is None
        assert found > 10 and empty > 10


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

    @staticmethod
    def subtree_split(big, copies, offset, hub):
        """One spanning member from the hub split into one member per hub
        arc: each other pick goes to the hub child above its head."""
        parent = {p.head: p for p in big.picks}

        def subtree_root(v):
            while parent[v].tail != hub:
                v = parent[v].tail
            return v

        groups = {}
        for p in big.picks:
            if p.index < offset:
                groups.setdefault(subtree_root(p.head), []).append(p)
        split = [Member(*copies[p.index - offset],
                        tuple(sorted(groups.get(copies[p.index - offset][0], ()),
                                     key=lambda q: (q.kind, q.index))))
                 for p in big.picks if p.index >= offset]
        return sorted(split, key=lambda m: (m.root, m.copy))

    @pytest.mark.parametrize("k", [1, 2])
    def test_split_matches_subtree_walk(self, k):
        rng = random.Random(f"cor1-split:{k}")
        packed = 0
        for _ in range(60):
            n = rng.randint(1, 5)
            d = MixedHypergraph(n, (), _random_arcs(rng, n, 0.6))
            s = _random_roots(rng, n, max_count=k)
            got = corollary1_pack(d, s, k)
            if not isinstance(got, Packing):
                continue
            copies = s.copies()
            aug = MixedHypergraph(n + 1, (), d.dyperedges + tuple(
                (frozenset({n}), v) for v, _ in copies))
            inner = find_packing(aug, PackingSpec(
                "spanning", roots=RootMultiset.from_pairs(n + 1, [(n, k)])))
            want = tuple(m for big in inner.members
                         for m in self.subtree_split(big, copies, len(d.dyperedges), n))
            assert got.members == want, (d, s)
            packed += 1
        assert packed > 15

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


class TestRoutes:
    def route_instance(self, name):
        """One instance every route packs: a 3-cycle of arcs, an edge
        a-b (dropped for cor1, which packs a dypergraph), one root at a
        under the free matroid, and every vertex in exactly one member."""
        roots = RootMultiset((1, 0, 0))
        return Instance(
            graph=mh(3, [] if name == "cor1" else [{0, 1}], [({0}, 1), ({1}, 2), ({2}, 0)]),
            roots=roots, matroid=FreeMatroid(frozenset(roots.copies())),
            bounds=Bounds(f=(0, 0, 0), g=(1, 1, 1), k=1, l=1, lprime=1))

    def test_names(self):
        assert list(packing.ROUTES) == [*packing.SPECIES, "main", "cor1", "mrb_mixed"]

    @pytest.mark.parametrize("name", list(packing.ROUTES))
    def test_certification_reads_the_route_spec(self, monkeypatch, name):
        """The last certification of a route, the pipelines' own included,
        checks the packing on the instance graph against the spec ROUTES
        builds from the same instance, and verify accepts the packing."""
        seen = []
        original = packing._certified

        def spy(f, got, spec, budget):
            seen.append((f, spec))
            return original(f, got, spec, budget)

        monkeypatch.setattr(packing, "_certified", spy)
        inst = self.route_instance(name)
        route = packing.ROUTES[name]
        got = route.pack(inst, None)
        assert isinstance(got, Packing)
        f, spec = seen[-1]
        assert f is inst.graph and spec == route.spec(inst)
        assert verify(inst.graph, got, spec).holds

    def test_cor1_spec_is_derived_from_roots_and_k(self):
        inst = self.route_instance("cor1")
        spec = packing.ROUTES["cor1"].spec(inst)
        assert spec == PackingSpec("bounded_regular_limited",
                                   bounds=Bounds(f=(0, 0, 0), g=(1, 0, 0), k=1, l=0, lprime=3))

    @pytest.mark.parametrize("field, message", [
        ("roots", "cor1 needs a root multiset"), ("bounds", "cor1 needs bounds.k"),
    ])
    def test_cor1_spec_rejects_missing_input(self, field, message):
        inst = dataclasses.replace(self.route_instance("cor1"), **{field: None}, matroid=None)
        with pytest.raises(ValueError, match=f"^{message}$"):
            packing.ROUTES["cor1"].spec(inst)
