"""Orientation engines: the edge cover search, the component lift, the mixed
sweep, and the star reduction between the two demand styles."""
import random

import pytest

from arbopack import (
    Budget,
    ConditionId,
    FreeMatroid,
    Instance,
    MixedHypergraph,
    PropertyViolationError,
    RootMultiset,
    SetFunctionOracle,
    check_cover,
    check_intersecting_supermodular,
    check_mixed_cover,
    compute_h2,
    evaluate,
    frank_orient,
    mixed_orient,
    orientation_space,
    reach_to,
    reduce_frank_to_new,
    subsets,
    Orientation,
    Verdict,
    Witness,
)
from arbopack import conditions, orientation
from arbopack.structures import (DEFAULT_CAP, CapExceededError, entering_mask, scc_condense,
                                 vertex_mask)
from arbopack.fuzz import (_random_arcs, _random_matroid, _random_mixed_hypergraph, _random_roots,
                           _random_supermodular)

import reference
from conftest import all_mixed_graphs, mh
from test_acceptance import _root_demand_oracles


def table_h(n, values):
    table = {x: 0 for x in subsets(range(n))}
    for k, v in values.items():
        table[frozenset(k)] = v
    return SetFunctionOracle.from_table(n, table)


class TestFrankOrient:
    def test_zero_demand_orients_anything(self):
        g = mh(3, [{0, 1}, {1, 2}], [])
        h = table_h(3, {})
        got = frank_orient(g, h)
        assert isinstance(got, Orientation)
        assert len(got.heads) == 2
        assert check_cover(g, h, got).holds

    def test_single_edge_forced_head(self):
        g = mh(2, [{0, 1}], [])
        h = table_h(2, {(1,): 1})
        got = frank_orient(g, h)
        assert got.heads == (1,)
        assert check_cover(g, h, got).holds

    def test_negative_demand_is_slack(self):
        g = mh(2, [{0, 1}], [])
        h = table_h(2, {(0,): 1, (1,): -5})
        got = frank_orient(g, h)
        assert got.heads == (0,)

    def test_two_demands_one_edge_infeasible(self):
        g = mh(2, [{0, 1}], [])
        h = table_h(2, {(0,): 1, (1,): 1})
        got = frank_orient(g, h)
        assert isinstance(got, Verdict) and not got.holds
        assert got.witness.kind == "subpartition"
        assert got.witness.payload[0] == (frozenset({0}), frozenset({1}))
        assert got.witness.lhs == 1 and got.witness.rhs == 2

    def test_requires_positive_whole_set_rejected(self):
        g = mh(2, [{0, 1}], [])
        h = table_h(2, {(0, 1): 1})
        with pytest.raises(ValueError, match=r"^frank_orient needs h\(V\) = 0$") as err:
            frank_orient(g, h)
        assert not isinstance(err.value, PropertyViolationError)

    def test_requires_supermodular(self):
        g = mh(3, [{0, 1}, {1, 2}], [])
        h = table_h(3, {(0, 1): 1, (1, 2): 1, (1,): 0})
        with pytest.raises(PropertyViolationError):
            frank_orient(g, h)

    def test_matches_condition_and_brute_force(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(1, 3)
            edges = []
            for pair in subsets(range(n), include_empty=False):
                if len(pair) == 2 and rng.random() < 0.6:
                    edges.append(pair)
            g = MixedHypergraph(n, tuple(edges), ())
            h = _random_supermod(rng, n)
            if h is None:
                continue
            inst = Instance(graph=g, h=h)
            verdict = evaluate(ConditionId.FRANK_ORIENT, inst)
            got = frank_orient(g, h)
            brute = any(
                check_cover(g, h, Orientation(o)).holds for o in orientation_space(g)
            )
            assert verdict.holds == isinstance(got, Orientation) == brute
            if verdict.holds:
                assert check_cover(g, h, got).holds


def _random_supermod(rng, n):
    from arbopack.fuzz import _random_supermodular

    return _random_supermodular(rng, n)


class TestComputeH2:
    def test_strongly_connected_trace_is_itself(self):
        f = mh(2, [], [({0}, 1), ({1}, 0)])
        h = table_h(2, {(0,): 3, (1,): 1})
        w = compute_h2(f, h, frozenset({0, 1}))
        assert w.closure == frozenset({0, 1})
        assert w.table[frozenset({0})] == (3 - 1, frozenset({0}))
        assert w.table[frozenset({0, 1})][0] == 0

    def test_chain_prefers_bigger_y(self):
        # a -> b; component {b} with closure {a, b}; h({a,b}) large wins
        f = mh(2, [], [({0}, 1)])
        h = table_h(2, {(0, 1): 4, (1,): 1})
        w = compute_h2(f, h, frozenset({1}))
        val, y = w.table[frozenset({1})]
        assert y == frozenset({0, 1})
        assert val == 4  # the arc a->b lies inside y, so nothing is subtracted

    def test_trace_requires_quiet_outside(self):
        # c -> a -> b: Y = {a, b} has c->a entering the part outside {b}? no,
        # outside part {a} has an entering dyperedge, so it is skipped
        f = mh(3, [], [({2}, 0), ({0}, 1)])
        h = table_h(3, {(0, 1): 9, (1,): 1})
        w = compute_h2(f, h, frozenset({1}))
        val, y = w.table[frozenset({1})]
        assert y == frozenset({1}) and val == 1 - 1

    def test_each_outside_subset_tested_once(self, monkeypatch):
        # 3-cycle {0, 1, 2} fed by the path 3 -> 4 -> 5 -> 0: 7 traces, and
        # 2^3 subsets of the closure outside the component
        f = mh(6, [], [({0}, 1), ({1}, 2), ({2}, 0), ({3}, 4), ({4}, 5), ({5}, 0)])
        asked = []

        def counting(graph, parts):
            parts = tuple(parts)
            asked.append(parts)
            return entering_mask(graph, parts)

        monkeypatch.setattr(conditions, "entering_mask", counting)
        budget = Budget(1_000)
        w = compute_h2(f, table_h(6, {}), frozenset({0, 1, 2}), budget)
        assert len(asked) == 8
        assert set(asked) == {(vertex_mask(x),) for x in subsets([3, 4, 5])}
        assert 1_000 - budget.remaining == 7 + 7 * 8
        assert w.table[frozenset({0, 1, 2})] == (0, frozenset(range(6)))
        assert w.table[frozenset({0})] == (-1, frozenset({0, 3, 4, 5}))

    def test_lifted_table_intersecting_supermodular(self):
        rng = random.Random(22)
        from arbopack.fuzz import _random_arcs, _random_supermodular
        checked = 0
        for _ in range(80):
            n = rng.randint(2, 3)
            f = MixedHypergraph(n, (), _random_arcs(rng, n))
            h = _random_supermodular(rng, n)
            if h is None:
                continue
            from arbopack import scc_condense
            comp = scc_condense(f)[-1]
            w = compute_h2(f, h, comp)
            if len(comp) < 2:
                continue
            hp = h(w.closure)
            rel = SetFunctionOracle(
                0, lambda x: 0, "unused")  # placeholder, replaced below
            vals = {x: w.table[x][0] - hp for x in w.table}
            order = sorted(comp)
            idx = {v: i for i, v in enumerate(order)}

            def local(xl, vals=vals, order=order):
                if not xl:
                    return 0
                xx = frozenset(order[i] for i in xl)
                return vals[xx]

            rel = SetFunctionOracle(len(order), local, "h'")
            assert check_intersecting_supermodular(rel) is None
            assert rel(frozenset(range(len(order)))) == 0
            checked += 1
        assert checked > 5


class TestMixedOrient:
    def test_digraph_needs_no_choices(self):
        f = mh(2, [], [({0}, 1)])
        h = table_h(2, {(1,): 1})
        got = mixed_orient(f, h)
        assert isinstance(got, Orientation) and got.heads == ()

    def test_single_edge_matroid_demand(self):
        f = mh(2, [{0, 1}], [])
        s = RootMultiset((1, 0))
        h = SetFunctionOracle.from_matroid_roots(2, s, FreeMatroid(s.copies()))
        got = mixed_orient(f, h)
        assert got.heads == (1,)
        assert check_mixed_cover(f, h, got).holds

    def test_infeasible_reports_new_orient_witness(self):
        f = mh(2, [{0, 1}], [])
        h = table_h(2, {(0,): 1, (1,): 1})
        got = mixed_orient(f, h)
        assert isinstance(got, Verdict) and not got.holds
        assert got.witness.kind == "component_family"

    def test_agrees_with_exhaustive_search(self):
        rng = random.Random(23)
        from arbopack.fuzz import _random_mixed_hypergraph, _random_supermodular
        seen_feasible = seen_infeasible = 0
        for _ in range(120):
            n = rng.randint(1, 3)
            f = _random_mixed_hypergraph(rng, n, max_elements=4)
            h = _random_supermodular(rng, n)
            if h is None:
                continue
            got = mixed_orient(f, h)
            brute = any(
                check_mixed_cover(f, h, Orientation(o)).holds
                for o in orientation_space(f)
            )
            assert isinstance(got, Orientation) == brute
            if brute:
                assert check_mixed_cover(f, h, got).holds
                seen_feasible += 1
            else:
                assert not got.holds
                inst = Instance(graph=f, h=h)
                assert evaluate(ConditionId.NEW_ORIENT, inst).holds is False
                seen_infeasible += 1
        assert seen_feasible > 10 and seen_infeasible > 10

    def test_every_head_set_on_criterion_4_grid(self):
        # scc_condense keeps every hyperedge inside one component, so the
        # sinks-first loop sets every head
        oriented = 0
        for f in all_mixed_graphs(3, 4):
            for h in _root_demand_oracles(f.n):
                got = mixed_orient(f, h)
                if isinstance(got, Orientation):
                    assert len(got.heads) == len(f.hyperedges)
                    assert all(head in e for head, e in zip(got.heads, f.hyperedges))
                    oriented += 1
        assert oriented > 100

    def test_component_terms_built_once(self, monkeypatch):
        """A 3-cycle with an edge, fed by a 3-vertex path: 4 components, and
        one quiet_extensions call each, though both the family sweep and
        compute_h2 read them."""
        f = mh(6, [{3, 4}], [({0}, 1), ({1}, 2), ({2}, 3), ({3}, 4), ({4}, 5), ({5}, 3)])
        s = RootMultiset((1, 0, 0, 0, 0, 0))
        h = SetFunctionOracle.from_matroid_roots(6, s, FreeMatroid(s.copies()))
        calls = []
        quiet = conditions.quiet_extensions
        for module in (conditions, orientation):
            monkeypatch.setattr(module, "quiet_extensions",
                                lambda *args: calls.append(args) or quiet(*args), raising=False)
        assert len(scc_condense(f)) == 4
        assert isinstance(mixed_orient(f, h), Orientation)
        assert len(calls) == 4

    def test_matroid_rank_plateau(self):
        # after orienting, every vertex keeps the rank of its closure
        rng = random.Random(24)
        from arbopack import orient_all
        from arbopack.fuzz import _random_mixed_hypergraph
        checked = 0
        for _ in range(80):
            n = rng.randint(1, 3)
            f = _random_mixed_hypergraph(rng, n, max_elements=4)
            roots = _random_roots(rng, n)
            m = _random_matroid(rng, roots)
            h = SetFunctionOracle.from_matroid_roots(n, roots, m)
            got = mixed_orient(f, h)
            if not isinstance(got, Orientation):
                continue
            d = orient_all(f, got.heads)
            for v in range(n):
                before = m.rank(roots.restrict(reach_to(f, frozenset({v}))))
                after = m.rank(roots.restrict(reach_to(d, frozenset({v}))))
                assert before == after
            checked += 1
        assert checked > 10


class TestReduction:
    def test_isolated_vertices_star(self):
        g = mh(2, [], [])
        h = table_h(2, {})
        g2, h2 = reduce_frank_to_new(g, h)
        assert g2.n == 3
        assert sorted(g2.hyperedges) == [frozenset({0, 2}), frozenset({1, 2})]
        assert h2(frozenset({2})) == 2
        assert h2(frozenset({0, 2})) == 0

    def test_surplus_drives_extra_edges(self):
        g = mh(2, [{0, 1}], [])
        h = table_h(2, {(0,): 2, (1,): 2})
        g2, h2 = reduce_frank_to_new(g, h)
        # one component, surplus h({a})+h({b})-h(V) = 4
        s = 2
        star = [e for e in g2.hyperedges if s in e]
        assert len(star) == 4
        assert h2(frozenset({s})) == 4

    def test_round_trip_preserves_feasibility(self):
        rng = random.Random(25)
        from arbopack.fuzz import _random_supermodular
        agree = 0
        for _ in range(60):
            n = rng.randint(1, 3)
            edges = [p for p in subsets(range(n), include_empty=False)
                     if len(p) == 2 and rng.random() < 0.6]
            g = MixedHypergraph(n, tuple(edges), ())
            h = _random_supermodular(rng, n)
            if h is None:
                continue
            direct = frank_orient(g, h)
            g2, h2 = reduce_frank_to_new(g, h)
            lifted = mixed_orient(g2, h2)
            assert isinstance(direct, Orientation) == isinstance(lifted, Orientation)
            if isinstance(lifted, Orientation):
                # restricting to the original edges covers the original demand
                restricted = Orientation(lifted.heads[:len(g.hyperedges)])
                assert check_cover(g, h, restricted).holds
                agree += 1
        assert agree > 5

    def test_rejects_directed_input(self):
        f = mh(2, [], [({0}, 1)])
        with pytest.raises(ValueError):
            reduce_frank_to_new(f, table_h(2, {}))

    def test_rejects_nonzero_whole_set(self):
        g = mh(2, [{0, 1}], [])
        with pytest.raises(ValueError, match=r"^frank_orient needs h\(V\) = 0$") as err:
            reduce_frank_to_new(g, table_h(2, {(0, 1): 1}))
        assert not isinstance(err.value, PropertyViolationError)


class TestCoverCheckers:
    def test_check_cover_reports_short_set(self):
        g = mh(2, [{0, 1}], [])
        h = table_h(2, {(1,): 1})
        bad = check_cover(g, h, Orientation((0,)))
        assert not bad.holds
        assert bad.witness.payload[0] == frozenset({1})

    def test_check_mixed_cover_relative_demand(self):
        # demand h({b}) = 1 but b's closure already provides it
        f = mh(2, [{0, 1}], [({0}, 1)])
        h = table_h(2, {(1,): 1})
        assert check_mixed_cover(f, h, Orientation((0,))).holds


class TestPinned:
    """Budget steps and first results of the engines and cover checks on
    fixed six-vertex inputs, holding and failing."""

    CYCLE = MixedHypergraph(6, tuple(frozenset({i, (i + 1) % 6}) for i in range(6))
                            + (frozenset({0, 3}),))
    # two hyperedge clusters joined by dyperedges from {0, 1, 2} to {3, 4, 5}
    CLUSTERS = MixedHypergraph(6, (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}),
                                   frozenset({3, 4, 5}), frozenset({3, 4})),
                               ((frozenset({2}), 3), (frozenset({0, 1}), 4)))

    @staticmethod
    def rooted(k):
        """k entering heads for every nonempty set avoiding vertex 0."""
        return SetFunctionOracle(6, lambda x: k * (bool(x) and 0 not in x))

    @staticmethod
    def roots_at_zero(count):
        s = RootMultiset((count, 0, 0, 0, 0, 0))
        return SetFunctionOracle.from_matroid_roots(6, s, FreeMatroid(s.copies()))

    @staticmethod
    def run(call, *args):
        budget = Budget(100_000)
        return call(*args, budget), 100_000 - budget.remaining

    def test_frank_orient(self):
        assert self.run(frank_orient, self.CYCLE, self.rooted(1)) == (
            Orientation((0, 1, 2, 3, 4, 5, 0)), 4918)
        got, steps = self.run(frank_orient, self.CYCLE, self.rooted(2))
        assert steps == 3988
        assert got.witness.payload == ((frozenset({1}), frozenset({2})),)
        assert (got.witness.lhs, got.witness.rhs) == (3, 4)

    def test_check_cover(self):
        h = self.rooted(1)
        assert self.run(check_cover, self.CYCLE, h, Orientation((0, 1, 2, 3, 4, 5, 0))) == (
            Verdict(True), 63)
        got, steps = self.run(check_cover, self.CYCLE, h, Orientation((0, 1, 2, 3, 4, 0, 0)))
        assert steps == 6
        assert got.witness == Witness("subset", (frozenset({5}),), 0, 1,
                                      "oriented in-degree below demand")

    def test_mixed_orient(self):
        assert self.run(mixed_orient, self.CLUSTERS, self.roots_at_zero(1)) == (
            Orientation((0, 1, 2, 5, 3)), 4417)
        got, steps = self.run(mixed_orient, self.CLUSTERS, self.roots_at_zero(2))
        assert steps == 3995
        assert got.witness.payload == (frozenset({0, 1, 2}), (frozenset({1}), frozenset({2})))
        assert (got.witness.lhs, got.witness.rhs) == (3, 4)

    def test_check_mixed_cover(self):
        assert self.run(check_mixed_cover, self.CLUSTERS, self.roots_at_zero(1),
                        Orientation((0, 1, 2, 5, 3))) == (Verdict(True), 64)
        got, steps = self.run(check_mixed_cover, self.CLUSTERS, self.roots_at_zero(2),
                              Orientation((1, 2, 0, 3, 4)))
        assert steps == 3
        assert got.witness == Witness("subset", (frozenset({1}),), 1, 2,
                                      "oriented in-degree below relative demand")

    def test_reduce_frank_to_new(self):
        (g2, h2), steps = self.run(reduce_frank_to_new, self.CYCLE, self.rooted(1))
        assert steps == 20763
        assert g2.hyperedges == self.CYCLE.hyperedges + (frozenset({0, 6}),)
        assert h2(frozenset({6})) == 1
        h = self.rooted(1)
        bent = SetFunctionOracle(6, lambda x: h(x) - (x == {1, 2}))
        budget = Budget(100_000)
        with pytest.raises(PropertyViolationError, match=r"at \[0, 1, 2\], \[1, 2, 3\]"):
            reduce_frank_to_new(self.CYCLE, bent, budget)
        assert 100_000 - budget.remaining == 1355


def _outcome(fn, *args, cap):
    """What fn(*args, budget) gives under a Budget of cap steps, or the type
    of the error it raised, with the steps it left."""
    budget = Budget(cap)
    try:
        got = fn(*args, budget)
    except (CapExceededError, PropertyViolationError) as exc:
        got = type(exc)
    return got, budget.remaining


class TestPeelingMatchesPreviousLoops:
    """mixed_orient's sinks-first loop, compute_h2 and the component family
    sweeps over quiet_extensions give the heads, witnesses, lifted tables,
    errors and Budget steps of the previous loops (reference.mixed_orient,
    reference.compute_h2 and reference.iter_component_families)."""

    @staticmethod
    def _compare(f, h, caps, inst=None, conds=()):
        """Compare mixed_orient, compute_h2 on every component and conds on
        inst under each cap; the outcomes of mixed_orient."""
        outcomes = []
        for cap in caps:
            got = _outcome(mixed_orient, f, h, cap=cap)
            assert got == _outcome(reference.mixed_orient, f, h, cap=cap), (f, cap)
            outcomes.append(got)
            for c in scc_condense(f):
                assert _outcome(compute_h2, f, h, c, cap=cap) == \
                    _outcome(reference.compute_h2, f, h, c, cap=cap), (f, c, cap)
            for cond in conds:
                assert _outcome(evaluate, cond, inst, cap=cap) == \
                    _outcome(reference.reference_evaluate, cond, inst, cap=cap), (inst, cond, cap)
        return outcomes

    def test_exhaustive_mixed_graphs(self):
        # every mixed_orient run here takes under 200 steps (asserted below)
        # and every compute_h2 run at most 7 * (1 + 1), so cap 200 would
        # repeat the default cap's outcome with fewer steps left
        kinds, most = set(), 0
        for f in all_mixed_graphs(3, 3):
            for h in _root_demand_oracles(f.n):
                outcomes = self._compare(f, h, (30, DEFAULT_CAP))
                kinds |= {type(got) for got, _ in outcomes}
                most = max(most, DEFAULT_CAP - outcomes[-1][1])
        assert most < 200
        assert kinds == {Orientation, Verdict, type}

    def test_seeded_mixed_hypergraphs(self):
        rng = random.Random("sinks-first")
        kinds, capped = set(), 0
        for _ in range(150):
            n = rng.randint(1, 5)
            if rng.random() < 0.5:
                edges = tuple(e for e in subsets(range(n)) if len(e) == 2 and rng.random() < 0.3)
                f = MixedHypergraph(n, edges, _random_arcs(rng, n, 0.25))
            else:
                f = _random_mixed_hypergraph(rng, n, max_elements=5)
            roots = _random_roots(rng, n)
            matroid = _random_matroid(rng, roots)
            h = (SetFunctionOracle.from_matroid_roots(n, roots, matroid) if rng.random() < 0.5
                 else _random_supermodular(rng, n))
            inst = Instance(graph=f, roots=roots, matroid=matroid, h=h)
            conds = (ConditionId.MT, ConditionId.GY_MIXED) if f.is_mixed_graph() else ()
            outcomes = self._compare(f, h, (30, 200, DEFAULT_CAP), inst,
                                     conds + (ConditionId.NEW_ORIENT,))
            kinds |= {type(got) for got, _ in outcomes}
            capped += outcomes[1][0] is CapExceededError
        assert kinds == {Orientation, Verdict, type} and capped > 10
