"""Condition evaluators: hand-checked verdicts, witness re-violation, the
component projection, and its two counting claims."""
import random

import pytest

from arbopack import (
    Bounds,
    Budget,
    CapExceededError,
    ConditionId,
    FreeMatroid,
    Instance,
    MixedHypergraph,
    RootMultiset,
    UniformMatroid,
    Witness,
    evaluate,
    in_degree,
    reach_to,
    scc_projection,
    subsets,
    witness_violates,
)
from arbopack.conditions import CONDITIONS
from arbopack.fuzz import (
    _random_arcs,
    _random_bounds,
    _random_matroid,
    _random_mixed_hypergraph,
    _random_roots,
    _random_supermodular,
)

from conftest import mh


def inst_d(n, arcs, counts, matroid=None):
    graph = mh(n, (), arcs)
    roots = RootMultiset(tuple(counts))
    return Instance(graph=graph, roots=roots, matroid=matroid)


def random_graph(rng, n, kind):
    """A random graph of the kind a condition record names."""
    if kind == "digraph":
        return MixedHypergraph(n, (), _random_arcs(rng, n))
    if kind == "mixed_graph":
        edges = tuple(e for e in subsets(range(n)) if len(e) == 2 and rng.random() < 0.4)
        return MixedHypergraph(n, edges, _random_arcs(rng, n, 0.25))
    mixed = _random_mixed_hypergraph(rng, n, max_elements=4)
    if kind == "dypergraph":
        return MixedHypergraph(n, (), mixed.dyperedges)
    if kind == "graph":
        return MixedHypergraph(n, mixed.hyperedges, ())
    return mixed


class TestEdmonds:
    def test_single_vertex_holds(self):
        assert evaluate(ConditionId.EDMONDS, inst_d(1, [], (1,))).holds

    def test_two_isolated_fails_with_witness(self):
        verdict = evaluate(ConditionId.EDMONDS, inst_d(2, [], (1, 0)))
        assert not verdict.holds
        assert verdict.witness.kind == "subset"
        assert verdict.witness.payload[0] == frozenset({1})

    def test_cycle_with_one_root_holds(self):
        arcs = [({0}, 1), ({1}, 2), ({2}, 0)]
        assert evaluate(ConditionId.EDMONDS, inst_d(3, arcs, (1, 0, 0))).holds

    def test_two_roots_need_two_arcs(self):
        arcs = [({0}, 1)]
        verdict = evaluate(ConditionId.EDMONDS, inst_d(2, arcs, (2, 0)))
        assert not verdict.holds


class TestFrankMixed:
    def test_needs_mixed_graph(self):
        graph = mh(3, [], [({0, 1}, 2)])
        with pytest.raises(ValueError):
            evaluate(ConditionId.FRANK_MIXED,
                     Instance(graph=graph, roots=RootMultiset((1, 0, 0))))

    def test_edge_can_cover_either_direction(self):
        graph = mh(2, [{0, 1}], [])
        inst = Instance(graph=graph, roots=RootMultiset((1, 0)))
        assert evaluate(ConditionId.FRANK_MIXED, inst).holds

    def test_one_edge_cannot_serve_two_parts(self):
        graph = mh(2, [{0, 1}], [])
        inst = Instance(graph=graph, roots=RootMultiset((1, 1)))
        verdict = evaluate(ConditionId.FRANK_MIXED, inst)
        assert not verdict.holds
        assert verdict.witness.kind == "subpartition"


class TestKKT:
    def test_unreachable_vertex_is_fine(self):
        # reachability-based: b only needs arcs from roots that reach it
        assert evaluate(ConditionId.KKT, inst_d(2, [], (1, 0))).holds

    def test_reachable_vertex_needs_capacity(self):
        arcs = [({0}, 1)]
        assert evaluate(ConditionId.KKT, inst_d(2, arcs, (2, 0))).holds is False
        assert evaluate(ConditionId.KKT, inst_d(2, arcs, (1, 0))).holds


class TestMatroidConditions:
    def test_kiraly_free_matches_kkt(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 3)
            graph = MixedHypergraph(n, (), _random_arcs(rng, n))
            roots = _random_roots(rng, n)
            inst = Instance(graph=graph, roots=roots,
                            matroid=FreeMatroid(roots.copies()))
            left = evaluate(ConditionId.KIRALY, inst).holds
            right = evaluate(ConditionId.KKT,
                             Instance(graph=graph, roots=roots)).holds
            assert left == right

    def test_dgns_uniform_example(self):
        # two parallel roots at a, uniform rank 1: spanning needs 1 arborescence
        arcs = [({0}, 1)]
        s = RootMultiset((2, 0))
        m = UniformMatroid(s.copies(), 1)
        inst = Instance(graph=mh(2, (), arcs), roots=s, matroid=m)
        assert evaluate(ConditionId.DGNS, inst).holds

    def test_dgns_fails_when_rank_exceeds_arcs(self):
        arcs = [({0}, 1)]
        s = RootMultiset((2, 0))
        m = FreeMatroid(s.copies())
        inst = Instance(graph=mh(2, (), arcs), roots=s, matroid=m)
        verdict = evaluate(ConditionId.DGNS, inst)
        assert not verdict.holds

    def test_matroid_ground_must_match_copies(self):
        s = RootMultiset((1, 0))
        inst = Instance(graph=mh(2, (), []), roots=s, matroid=FreeMatroid("xy"))
        with pytest.raises(ValueError):
            evaluate(ConditionId.KIRALY, inst)


class TestComponentFamilies:
    def test_gy_mixed_empty_edges_matches_gy_digraph(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(1, 3)
            graph = MixedHypergraph(n, (), _random_arcs(rng, n))
            roots = _random_roots(rng, n)
            matroid = _random_matroid(rng, roots)
            inst = Instance(graph=graph, roots=roots, matroid=matroid)
            assert (evaluate(ConditionId.GY_MIXED, inst).holds
                    == evaluate(ConditionId.GY_DIGRAPH, inst).holds)

    def test_mt_free_matroid_example(self):
        # single edge, root at a: orientable a->b
        graph = mh(2, [{0, 1}], [])
        inst = Instance(graph=graph, roots=RootMultiset((1, 0)))
        assert evaluate(ConditionId.MT, inst).holds

    def test_mt_no_roots_packs_nothing(self):
        graph = mh(2, [{0, 1}], [])
        inst = Instance(graph=graph, roots=RootMultiset((0, 0)))
        assert evaluate(ConditionId.MT, inst).holds

    def test_mt_one_edge_two_spanning_members(self):
        graph = mh(2, [{0, 1}], [])
        inst = Instance(graph=graph, roots=RootMultiset((1, 1)))
        verdict = evaluate(ConditionId.MT, inst)
        assert not verdict.holds
        assert verdict.witness.kind == "component_family"


class TestBoundedConditions:
    def test_frank_cai_g_below_f_fails_fast(self):
        b = Bounds(f=(1,), g=(0,), k=1)
        inst = Instance(graph=mh(1, (), []), bounds=b)
        verdict = evaluate(ConditionId.FRANK_CAI, inst)
        assert not verdict.holds
        assert verdict.witness.kind == "vertex"

    def test_hsz_single_vertex(self):
        b = Bounds(f=(0,), g=(1,), k=1)
        inst = Instance(graph=mh(1, (), []), bounds=b)
        assert evaluate(ConditionId.HSZ, inst).holds

    def test_main_requires_positive_parameters(self):
        b = Bounds(f=(0,), g=(1,), k=0, l=1, lprime=1)
        inst = Instance(graph=mh(1, (), []), bounds=b)
        with pytest.raises(ValueError):
            evaluate(ConditionId.MAIN, inst)

    def test_main_spec_example_holds(self):
        graph = mh(3, [{0, 1}], [({0}, 1), ({1}, 2), ({2}, 0)])
        b = Bounds(f=(0, 0, 0), g=(1, 1, 1), k=1, l=1, lprime=1)
        assert evaluate(ConditionId.MAIN, Instance(graph=graph, bounds=b)).holds

    def test_main_empty_subpartition_enforces_root_surplus(self):
        # f(V) > lprime is only caught by the empty subpartition
        graph = mh(2, [], [({0}, 1), ({1}, 0)])
        b = Bounds(f=(1, 1), g=(1, 1), k=1, l=1, lprime=1)
        verdict = evaluate(ConditionId.MAIN, Instance(graph=graph, bounds=b))
        assert not verdict.holds
        assert verdict.witness.kind == "subpartition"
        assert verdict.witness.payload[0] == ()

    def test_lemma1b_runs_the_member_precheck_once(self):
        calls = []

        class CountingBounds(Bounds):
            def g_k_sum(self, x):
                calls.append(x)
                return super().g_k_sum(x)

        graph = mh(3, [{0, 1}], [({0}, 1), ({1}, 2), ({2}, 0)])
        b = CountingBounds(f=(0, 0, 0), g=(1, 1, 1), k=1, l=1, lprime=1)
        assert evaluate(ConditionId.LEMMA1B, Instance(graph=graph, bounds=b)).holds
        assert calls == [0b111]  # the vertex mask of {0, 1, 2}

    def test_fkk_all_roots_same_vertex(self):
        arcs = [({0}, 1), ({0}, 1)]
        inst = inst_d(2, arcs, (2, 0))
        assert evaluate(ConditionId.FKK, inst).holds
        assert not evaluate(ConditionId.FKK, inst_d(2, arcs[:1], (2, 0))).holds

    def test_fkk_rejects_split_roots(self):
        with pytest.raises(ValueError):
            evaluate(ConditionId.FKK, inst_d(2, [], (1, 1)))

    def test_cor1_root_cap(self):
        inst = Instance(graph=mh(1, (), []), roots=RootMultiset((2,)),
                        bounds=Bounds(k=1))
        verdict = evaluate(ConditionId.COR1, inst)
        assert not verdict.holds
        assert verdict.witness.kind == "vertex"

    def test_cor1_cycle(self):
        graph = mh(2, [], [({0}, 1), ({1}, 0)])
        inst = Instance(graph=graph, roots=RootMultiset((1, 1)),
                        bounds=Bounds(k=2))
        assert evaluate(ConditionId.COR1, inst).holds


class TestWitnessReViolation:
    def test_failing_verdicts_reviolate(self):
        rng = random.Random(9)
        failing = 0
        for _ in range(120):
            n = rng.randint(1, 3)
            graph = _random_mixed_hypergraph(rng, n, max_elements=4)
            roots = _random_roots(rng, n)
            matroid = _random_matroid(rng, roots)
            bounds = _random_bounds(rng, n)
            inst = Instance(graph=graph, roots=roots, matroid=matroid,
                            bounds=bounds)
            for cond in (ConditionId.FRANK_MIXED, ConditionId.MT,
                         ConditionId.GY_MIXED, ConditionId.HSZ,
                         ConditionId.MAIN, ConditionId.LEMMA1B):
                if cond is ConditionId.FRANK_MIXED and not graph.is_mixed_graph():
                    continue
                if cond is ConditionId.MT and not graph.is_mixed_graph():
                    continue
                if cond is ConditionId.GY_MIXED and not graph.is_mixed_graph():
                    continue
                verdict = evaluate(cond, inst)
                if not verdict.holds:
                    failing += 1
                    assert witness_violates(cond, inst, verdict.witness), (
                        cond, verdict.witness)
        assert failing > 10

    def test_digraph_conditions_reviolate(self):
        rng = random.Random(10)
        failing = 0
        for _ in range(120):
            n = rng.randint(1, 3)
            graph = MixedHypergraph(n, (), _random_arcs(rng, n))
            roots = _random_roots(rng, n)
            matroid = _random_matroid(rng, roots)
            inst = Instance(graph=graph, roots=roots, matroid=matroid)
            for cond in (ConditionId.EDMONDS, ConditionId.KKT,
                         ConditionId.KIRALY, ConditionId.GY_DIGRAPH,
                         ConditionId.DGNS):
                verdict = evaluate(cond, inst)
                if not verdict.holds:
                    failing += 1
                    assert witness_violates(cond, inst, verdict.witness)
        assert failing > 10

    def test_every_condition_has_a_record(self):
        assert set(CONDITIONS) == set(ConditionId)

    @pytest.mark.parametrize("cond", list(CONDITIONS), ids=lambda c: c.value)
    def test_every_condition_reviolates(self, cond):
        rng = random.Random(f"reviolate-{cond.value}")
        failing = 0
        for _ in range(80):
            n = rng.randint(1, 3)
            roots = _random_roots(rng, n)
            if rng.random() < 0.5:
                v = rng.randrange(n)
                roots = RootMultiset(tuple(rng.randint(1, 2) if u == v else 0
                                           for u in range(n)))
            inst = Instance(graph=random_graph(rng, n, CONDITIONS[cond].graph),
                            roots=roots, matroid=_random_matroid(rng, roots),
                            bounds=_random_bounds(rng, n),
                            h=_random_supermodular(rng, n))
            try:
                verdict = evaluate(cond, inst, 100_000)
            except (ValueError, CapExceededError):
                continue  # e.g. fkk with roots on two vertices
            if not verdict.holds:
                failing += 1
                assert witness_violates(cond, inst, verdict.witness), verdict.witness
        assert failing >= 5

    def test_missing_field_raises_value_error(self):
        graph = mh(2, (), [])
        with pytest.raises(ValueError):
            witness_violates("edmonds", Instance(graph=graph),
                             Witness("subset", (frozenset({1}),)))

    def test_foreign_witness_kind_raises_value_error(self):
        inst = Instance(graph=mh(1, (), []), bounds=Bounds(f=(1,), g=(0,), k=1))
        with pytest.raises(ValueError):
            witness_violates("frank_cai", inst, Witness("subset", (frozenset({0}),)))


class TestMalformedWitnesses:
    """A subset or subpartition payload its sweep could not have produced
    is rejected, not read as some other set."""

    def path(self, counts=(1, 0, 1)):
        return inst_d(3, [({0}, 1), ({1}, 2)], counts)

    def test_negative_vertex_rejected(self):
        # -1 once read the root count of vertex 2
        with pytest.raises(ValueError):
            witness_violates("edmonds", self.path(), Witness("subset", (frozenset({-1}),)))

    def test_vertex_beyond_range_rejected(self):
        with pytest.raises(ValueError):
            witness_violates("edmonds", self.path(), Witness("subset", (frozenset({5}),)))

    def test_empty_set_rejected_by_nonempty_sweep(self):
        with pytest.raises(ValueError):
            witness_violates("edmonds", self.path(), Witness("subset", (frozenset(),)))
        # kkt sweeps the empty set too, so there it is a valid member
        assert witness_violates("kkt", self.path(), Witness("subset", (frozenset(),))) is False

    def test_root_vertex_rejected_by_non_root_sweep(self):
        inst = self.path((2, 0, 0))
        with pytest.raises(ValueError):
            witness_violates("fkk", inst, Witness("subset", (frozenset({0, 1}),)))
        assert witness_violates("fkk", inst, Witness("subset", (frozenset({1}),)))

    def test_member_must_be_one_vertex_set(self):
        for payload in ((5,), ("ab",), (), (frozenset({1}), frozenset({2}))):
            with pytest.raises(ValueError):
                witness_violates("edmonds", self.path(), Witness("subset", payload))

    def test_overlapping_parts_rejected(self):
        inst = Instance(graph=mh(3, [{0, 1}], []), roots=RootMultiset((1, 0, 1)))
        parts = (frozenset({1}), frozenset({1, 2}))
        with pytest.raises(ValueError):
            witness_violates("frank_mixed", inst, Witness("subpartition", (parts,)))

    def test_empty_part_rejected(self):
        inst = Instance(graph=mh(3, [{0, 1}], []), roots=RootMultiset((1, 0, 1)))
        with pytest.raises(ValueError):
            witness_violates("frank_mixed", inst,
                             Witness("subpartition", ((frozenset({1}), frozenset()),)))
        assert witness_violates("frank_mixed", inst, Witness("subpartition", ((),))) is False


class TestSccProjection:
    def test_empty_set(self):
        f = mh(2, [], [({0}, 1)])
        assert scc_projection(f, frozenset()) == ()

    def test_inside_one_component(self):
        f = mh(2, [], [({0}, 1), ({1}, 0)])
        got = scc_projection(f, frozenset({0}))
        assert got == ((frozenset({0, 1}), frozenset({0})),)

    def test_chain_accumulates_closures(self):
        f = mh(2, [], [({0}, 1)])
        got = scc_projection(f, frozenset({0, 1}))
        assert got == (
            (frozenset({0}), frozenset({0})),
            (frozenset({1}), frozenset({0, 1})),
        )

    def test_projection_postconditions(self):
        rng = random.Random(11)
        for _ in range(80):
            n = rng.randint(1, 4)
            f = MixedHypergraph(n, (), _random_arcs(rng, n))
            x = frozenset(v for v in range(n) if rng.random() < 0.5)
            for comp, xj in scc_projection(f, x):
                closure = reach_to(f, comp)
                assert xj <= closure
                assert xj & comp
                assert in_degree(f, xj - comp) == 0

    def test_claim_one_in_degree_split(self):
        rng = random.Random(12)
        for _ in range(100):
            n = rng.randint(1, 4)
            f = MixedHypergraph(n, (), _random_arcs(rng, n))
            x = frozenset(v for v in range(n) if rng.random() < 0.5)
            pieces = scc_projection(f, x)
            assert in_degree(f, x) >= sum(in_degree(f, xj) for _, xj in pieces)

    def test_claim_two_rank_split(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 4)
            f = MixedHypergraph(n, (), _random_arcs(rng, n))
            roots = _random_roots(rng, n)
            m = _random_matroid(rng, roots)
            x = frozenset(v for v in range(n) if rng.random() < 0.5)
            if not x:
                continue
            lhs = sum(
                m.rank(roots.restrict(reach_to(f, comp)))
                - m.rank(roots.restrict(xj))
                for comp, xj in scc_projection(f, x)
            )
            rhs = m.rank(roots.restrict(reach_to(f, x))) - m.rank(roots.restrict(x))
            assert lhs >= rhs


def circulant(vs, reach, tails=1):
    """Each vs[i] is entered from the reach vertices before it (cyclically),
    by dyperedges with tails consecutive tails each."""
    k = len(vs)
    return [(frozenset(vs[(i - s - t) % k] for t in range(tails)), vs[i])
            for i in range(k) for s in range(1, reach + 1)]


def two_blocks(n, tails=1):
    """Two circulants on the lower and upper halves, the upper half entered
    by one arc only, so it is the only set entered fewer than twice."""
    w, x = list(range(n // 2)), list(range(n // 2, n))
    return (circulant(w, 2, tails) + circulant(x, 2, tails)
            + [(frozenset({w[0]}), x[0])] + [(frozenset({x[i]}), w[i]) for i in range(2)])


def pinned_instance(cond, holds):
    """A holding or failing instance of a benchmarked condition: 12
    vertices for the subset sweeps, 7 for the subpartition sweeps."""
    if cond in ("edmonds", "cor1", "fkk", "dgns", "kiraly"):
        n, tails = 12, 2 if cond in ("cor1", "fkk") else 1
        graph = MixedHypergraph(n, (), circulant(range(n), 2, tails) if holds
                                else two_blocks(n, tails))
        if cond in ("dgns", "kiraly"):
            roots = RootMultiset((2, 0, 0, 1) + (0,) * (n - 4))
            return Instance(graph=graph, roots=roots,
                            matroid=UniformMatroid(roots.copies(), 2))
        return Instance(graph=graph, roots=RootMultiset((2,) + (0,) * (n - 1)),
                        bounds=Bounds(k=2))
    n = 7
    if cond == "frank_mixed":
        edges = [frozenset({u, v}) for u in range(n) for v in range(u + 1, n)
                 if (u < 3) == (v < 3)] * 2 + [frozenset({1, 4})]
        graph = MixedHypergraph(n, edges, [(frozenset({2}), 5)] if holds else [])
        return Instance(graph=graph, roots=RootMultiset((2,) + (0,) * (n - 1)))
    graph = MixedHypergraph(n, [frozenset({v, (v + 1) % n, (v + 3) % n}) for v in range(n)],
                            circulant(range(n), 1))
    bounds = Bounds(f=(0,) * n, g=(1,) * n, k=2 if holds else 3, l=1, lprime=3)
    return Instance(graph=graph, bounds=bounds)


UPPER = (frozenset(range(6, 12)),)
# (condition, holds) -> Budget steps, then the witness payload, lhs and rhs
PINNED_SWEEPS = {
    ("edmonds", True): (4095, None),
    ("edmonds", False): (2509, (UPPER, 1, 2)),
    ("cor1", True): (4095, None),
    ("cor1", False): (2509, (UPPER, 1, 2)),
    ("fkk", True): (2047, None),
    ("fkk", False): (1485, (UPPER, 1, 2)),
    ("dgns", True): (4095, None),
    ("dgns", False): (2509, (UPPER, 1, 2)),
    ("kiraly", True): (4096, None),
    ("kiraly", False): (2510, (UPPER, 1, 2)),
    ("frank_mixed", True): (4140, None),
    ("frank_mixed", False): (736, (((frozenset({3, 4, 5, 6}),),), 1, 2)),
    ("main", True): (4140, None),
    ("main", False): (2045, ((tuple(frozenset({v}) for v in range(6)),), 13, 15)),
}


class TestPinnedSweeps:
    """Budget steps and first witnesses of the benchmarked sweeps: the
    visiting order is part of the contract, so a faster sweep must spend
    the same steps and stop at the same member."""

    @pytest.mark.parametrize("cond,holds", sorted(PINNED_SWEEPS),
                             ids=lambda v: str(v).lower())
    def test_steps_and_first_witness(self, cond, holds):
        inst = pinned_instance(cond, holds)
        budget = Budget(10**6)
        verdict = evaluate(cond, inst, budget)
        steps, witness = PINNED_SWEEPS[cond, holds]
        assert verdict.holds is holds
        assert 10**6 - budget.remaining == steps
        if witness is None:
            assert verdict.witness is None
        else:
            got = verdict.witness
            assert (got.payload, got.lhs, got.rhs) == witness
            assert witness_violates(cond, inst, got)


class TestInputValidation:
    def test_missing_roots(self):
        with pytest.raises(ValueError):
            evaluate(ConditionId.EDMONDS, Instance(graph=mh(1, (), [])))

    def test_missing_bounds(self):
        with pytest.raises(ValueError):
            evaluate(ConditionId.MAIN, Instance(graph=mh(1, (), [])))

    def test_string_condition_ids_accepted(self):
        inst = inst_d(1, [], (1,))
        assert evaluate("edmonds", inst).holds
