"""Rank oracles: construction validation, hand-checked ranks, the rank
axioms, and the two routes to the extended hypergraphic rank."""
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbopack import (
    Budget,
    CapExceededError,
    ExplicitMatroid,
    ExtendedHypergraphicMatroid,
    FreeMatroid,
    HypergraphicMatroid,
    KSumMatroid,
    PartitionMatroid,
    UniformMatroid,
    Verdict,
    Witness,
    check_rank_axioms,
    extended_ground,
    subsets,
)

from conftest import mh


def forest_rank(vertex_sets, chosen):
    """Independent oracle for hypergraphic rank: the largest subset that can
    pick distinct representative edges forming a forest.  A set of
    hyperedges is independent iff every nonempty subset spans more vertices
    than its size (circuit-free in some choice of spanning subedges)."""
    best = 0
    chosen = list(chosen)
    for r in range(len(chosen), -1, -1):
        for combo in itertools.combinations(chosen, r):
            ok = True
            for size in range(1, len(combo) + 1):
                for sub in itertools.combinations(combo, size):
                    span = set()
                    for e in sub:
                        span |= vertex_sets[e]
                    if len(span) < size + 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return r
    return best


class TestBasicKinds:
    def test_free_rank_is_cardinality(self):
        m = FreeMatroid("abc")
        assert m.rank({"a", "b"}) == 2
        assert m.full_rank() == 3
        assert m.independent({"a", "c"})

    def test_uniform_truncates(self):
        m = UniformMatroid("abcd", 2)
        assert m.rank("abcd") == 2
        assert m.independent({"a", "b"})
        assert not m.independent({"a", "b", "c"})

    def test_uniform_rejects_negative_rank(self):
        with pytest.raises(ValueError):
            UniformMatroid("ab", -1)
        # ranks above the ground size just behave like the free matroid
        assert UniformMatroid("ab", 3).rank("ab") == 2

    def test_partition_caps_per_block(self):
        m = PartitionMatroid("abcd", [{"a", "b"}, {"c", "d"}], [1, 2])
        assert m.rank({"a", "b"}) == 1
        assert m.rank({"a", "c", "d"}) == 3
        assert m.full_rank() == 3

    def test_partition_blocks_must_cover(self):
        with pytest.raises(ValueError):
            PartitionMatroid("abc", [{"a"}], [1])


class TestExplicit:
    def test_validates_downward_closure(self):
        with pytest.raises(ValueError):
            ExplicitMatroid("xy", [frozenset(), frozenset({"x", "y"})])

    def test_validates_exchange(self):
        # {a,b} and {c} maximal of different sizes violates exchange
        with pytest.raises(ValueError):
            ExplicitMatroid(
                "abc",
                [frozenset(), frozenset({"a"}), frozenset({"b"}),
                 frozenset({"c"}), frozenset({"a", "b"})],
            )

    def test_requires_empty_set(self):
        with pytest.raises(ValueError):
            ExplicitMatroid("a", [frozenset({"a"})])

    def test_rank_of_valid_family(self):
        m = ExplicitMatroid(
            "ab",
            [frozenset(), frozenset({"a"}), frozenset({"b"})],
        )
        assert m.rank({"a", "b"}) == 1


class TestHypergraphic:
    def test_triangle_rank_matches_forest_oracle(self):
        vsets = {
            "e1": frozenset({0, 1}),
            "e2": frozenset({1, 2}),
            "e3": frozenset({0, 2}),
        }
        m = HypergraphicMatroid(("e1", "e2", "e3"), vsets)
        for chosen in subsets(("e1", "e2", "e3")):
            assert m.rank(chosen) == forest_rank(vsets, chosen)
        assert m.full_rank() == 2

    def test_big_hyperedge_counts_once_per_span(self):
        vsets = {"e": frozenset({0, 1, 2}), "f": frozenset({0, 1, 2})}
        m = HypergraphicMatroid(("e", "f"), vsets)
        # two hyperedges on three vertices can pick disjoint subtrees
        assert m.rank({"e", "f"}) == 2

    def test_rank_axioms(self):
        vsets = {
            "e1": frozenset({0, 1}),
            "e2": frozenset({1, 2}),
            "e3": frozenset({0, 1, 2}),
        }
        m = HypergraphicMatroid(("e1", "e2", "e3"), vsets)
        assert check_rank_axioms(m).holds


class TestKSum:
    def test_doubles_capacity(self):
        vsets = {"e1": frozenset({0, 1}), "e2": frozenset({0, 1})}
        inner = HypergraphicMatroid(("e1", "e2"), vsets)
        assert inner.rank({"e1", "e2"}) == 1
        m = KSumMatroid(inner, 2)
        assert m.rank({"e1", "e2"}) == 2

    def test_rank_axioms(self):
        inner = UniformMatroid("abc", 1)
        assert check_rank_axioms(KSumMatroid(inner, 2)).holds


class TestExtended:
    def test_ground_lists_arcs_then_copies(self):
        f = mh(2, [{0, 1}], [({0}, 1)])
        ground = extended_ground(f)
        assert ("A", 0) in ground
        assert ("E", 0, 0) in ground
        assert ("E", 0, 1) in ground
        assert len(ground) == 3

    def test_two_copies_of_one_hyperedge_are_parallel(self):
        f = mh(2, [{0, 1}], [])
        m = ExtendedHypergraphicMatroid(f, 1)
        both = frozenset({("E", 0, 0), ("E", 0, 1)})
        assert m.rank(both) == 1
        assert not m.independent(both)

    def test_k2_still_rejects_double_copies(self):
        # even with k = 2, two copies of the same hyperedge stay dependent
        f = mh(2, [{0, 1}], [])
        m = ExtendedHypergraphicMatroid(f, 2)
        both = frozenset({("E", 0, 0), ("E", 0, 1)})
        assert m.rank(both) == 1

    def test_parallel_hyperedges_use_k_budget(self):
        f = mh(2, [{0, 1}, {0, 1}], [])
        one_each = frozenset({("E", 0, 0), ("E", 1, 1)})
        assert ExtendedHypergraphicMatroid(f, 1).rank(one_each) == 1
        assert ExtendedHypergraphicMatroid(f, 2).rank(one_each) == 2

    def test_partition_formula_matches_rank_exhaustively(self):
        f = mh(3, [{0, 1}], [({0}, 1), ({1}, 2)])
        for k in (1, 2):
            m = ExtendedHypergraphicMatroid(f, k)
            for z in subsets(m.ground):
                assert m.rank(z) == m.rank_by_partition_formula(z), (k, z)

    def test_formula_refuses_large_vertex_sets(self):
        f = mh(11, [], [({0}, 1)])
        m = ExtendedHypergraphicMatroid(f, 1)
        with pytest.raises(CapExceededError):
            m.rank_by_partition_formula(frozenset(m.ground))

    def test_rank_axioms(self):
        f = mh(3, [{0, 1, 2}], [({0}, 2)])
        assert check_rank_axioms(ExtendedHypergraphicMatroid(f, 2)).holds


class RankOracle(FreeMatroid):
    """A free matroid's ground with any rank function, valid or not."""

    def __init__(self, ground, fn):
        super().__init__(ground)
        self.fn = fn

    def rank_mask(self, z):
        return self.fn(self.elements(z))


S = frozenset


class TestRankAxiomChecker:
    def test_steps_pinned(self):
        # 2^5 subsets and 5 * 2^4 (Z, e) pairs, then 2^5 subsets and 4^5 pairs
        budget = Budget(10_000)
        assert check_rank_axioms(UniformMatroid(range(5), 2), budget).holds
        assert 10_000 - budget.remaining == 32 + 80 + 32 + 1024

    @pytest.mark.parametrize("fn, witness, steps", [
        (lambda z: len(z) + 1,
         Witness("subset", (S(),), 1, 0, "rank of the empty set"), 0),
        # r({b, c}) = 3 is out of range; the step from {b} reports it
        (lambda z: 3 if z == S("bc") else len(z),
         Witness("pair", (S("b"), S("c")), 3, 1, "unit monotonicity"), 10),
        (lambda z: 0 if z == S("ac") else len(z),
         Witness("pair", (S("a"), S("c")), 0, 1, "unit monotonicity"), 7),
        (lambda z: min(len(z), 1) + (z == S("abc")),
         Witness("pair", (S("ab"), S("ac")), 2, 3, "submodularity"), 63),
    ], ids=["empty", "out_of_range", "monotonicity", "submodularity"])
    def test_first_witness_pinned(self, fn, witness, steps):
        budget = Budget(10_000)
        assert check_rank_axioms(RankOracle("abc", fn), budget) == Verdict(False, witness)
        assert 10_000 - budget.remaining == steps

    def test_oracle_asked_once_per_subset(self):
        asked = []
        m = RankOracle("abcd", lambda z: asked.append(z) or min(len(z), 2))
        assert check_rank_axioms(m).holds
        assert sorted(asked, key=sorted) == sorted(subsets("abcd"), key=sorted)

    def test_small_cap_raises(self):
        with pytest.raises(CapExceededError):
            check_rank_axioms(UniformMatroid(range(5), 2), 1167)

    def test_catches_non_submodular_oracle(self):
        class Broken(FreeMatroid):
            def rank_mask(self, z):
                return z.bit_count() ** 2  # superadditive, not submodular

        verdict = check_rank_axioms(Broken("ab"))
        assert not verdict.holds
        assert verdict.witness is not None

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_partition_matroids_pass(self, data):
        size = data.draw(st.integers(1, 4))
        ground = tuple(range(size))
        nblocks = data.draw(st.integers(1, size))
        assignment = data.draw(
            st.lists(st.integers(0, nblocks - 1), min_size=size, max_size=size)
        )
        blocks = [frozenset(g for g, b in zip(ground, assignment) if b == i)
                  for i in range(nblocks)]
        blocks = [b for b in blocks if b]
        caps = data.draw(
            st.lists(st.integers(0, 3), min_size=len(blocks), max_size=len(blocks))
        )
        m = PartitionMatroid(ground, blocks, caps)
        assert check_rank_axioms(m).holds


# ---------------------------------------------------------------------------
# every kind against a frozenset brute force of its own definition


def ref_hypergraphic(vertex_sets):
    """Independent iff every nonempty subset spans more vertices than it
    has elements."""
    def indep(z):
        return all(len(set().union(*(vertex_sets[e] for e in sub))) > len(sub)
                   for sub in subsets(z, include_empty=False))
    return indep


def ref_ksum(inner, k):
    """Independent iff some split into k sets is independent in inner."""
    def indep(z):
        items = sorted(z, key=repr)
        return any(all(inner(frozenset(e for e, b in zip(items, label) if b == i))
                       for i in range(k))
                   for label in itertools.product(range(k), repeat=len(items)))
    return indep


def ref_extended(f, k):
    """No two copies of one hyperedge, and the elements they come from
    independent in the k-sum of the underlying hypergraph."""
    vsets = {("A", j): tails | {head} for j, (tails, head) in enumerate(f.dyperedges)}
    vsets.update({("E", i): e for i, e in enumerate(f.hyperedges)})
    underlying = ref_ksum(ref_hypergraphic(vsets), k)

    def indep(z):
        origins = {e[:2] for e in z}
        return len(origins) == len(z) and underlying(frozenset(origins))
    return indep


def kinds_grid():
    """(matroid, reference independence) for every kind on grounds of up
    to 5 elements."""
    rng = random.Random(11)
    for size in range(6):
        ground = tuple(f"e{i}" for i in range(size))
        yield FreeMatroid(ground), lambda z: True
        for r in range(size + 2):
            yield UniformMatroid(ground, r), lambda z, r=r: len(z) <= r
        for _ in range(3):
            label = [rng.randrange(3) for _ in ground]
            blocks = [frozenset(e for e, b in zip(ground, label) if b == i) for i in range(3)]
            caps = [rng.randrange(3) for _ in blocks]

            def part(z, blocks=blocks, caps=caps):
                return all(len(z & b) <= c for b, c in zip(blocks, caps))
            yield PartitionMatroid(ground, blocks, caps), part
            yield ExplicitMatroid(ground, [z for z in subsets(ground) if part(z)]), part
        for _ in range(3):
            vsets = {e: frozenset(rng.sample(range(4), rng.randint(2, 3))) for e in ground}
            hyper = ref_hypergraphic(vsets)
            yield HypergraphicMatroid(ground, vsets), hyper
            yield ExplicitMatroid(ground, [z for z in subsets(ground) if hyper(z)]), hyper
            for k in (1, 2):
                yield KSumMatroid(HypergraphicMatroid(ground, vsets), k), ref_ksum(hyper, k)
            yield KSumMatroid(UniformMatroid(ground, 1), 2), lambda z: len(z) <= 2
    for f in (mh(3, [{0, 1}], [({0}, 1), ({1}, 2)]), mh(3, [{0, 1, 2}], [({0}, 2), ({1}, 2)]),
              mh(2, [{0, 1}, {0, 1}], [({0}, 1)]), mh(3, [{0, 1}, {1, 2}], [({2}, 0)])):
        for k in (1, 2):
            yield ExtendedHypergraphicMatroid(f, k), ref_extended(f, k)


class TestKindsAgainstDefinitions:
    def test_every_subset_of_every_kind(self):
        kinds = set()
        for m, indep in kinds_grid():
            kinds.add(m.kind)
            assert len(m.ground) <= 5
            bases = {0: 0}
            for z in range(1 << len(m.ground)):
                zs = frozenset(e for i, e in enumerate(m.ground) if z >> i & 1)
                want = max(len(s) for s in subsets(zs) if indep(s))
                greedy = frozenset()
                for e in m.ground:
                    if e in zs and indep(greedy | {e}):
                        greedy |= {e}
                assert m.independent(zs) == m.independent_mask(z) == indep(zs), (m.kind, zs)
                assert m.rank(zs) == m.rank_mask(z) == want, (m.kind, zs)
                assert m.greedy_basis(bases, z) == m.greedy_basis({0: 0}, z) == m.mask(greedy)
                if m.kind == "extended":
                    assert m.rank_partition_argmin(zs)[1] == want, zs
        assert kinds == {"free", "uniform", "partition", "explicit", "hypergraphic",
                         "ksum", "extended"}
