"""End-to-end acceptance sweep.

Ten go/no-go checks: exhaustive small-grid equivalences between the
closed-form feasibility conditions, the constructive solvers and the
polyhedral route, plus seeded random sweeps for the reduction identities
and structural invariants.  Each test prints a single PASS/FAIL line;
run `pytest tests/test_acceptance.py -s` to see them as they complete.
"""

import itertools
import random
import time
from functools import lru_cache

from conftest import (
    all_digraphs,
    all_mixed_graphs,
    all_mixed_hypergraphs,
    all_root_multisets,
    small_matroid_family,
)
from reference import GPoly, Plank, intersect_plank, minkowski_sum, scc_projection

from arbopack import (
    Bounds,
    ConditionId,
    ExtendedHypergraphicMatroid,
    FreeMatroid,
    Instance,
    MixedHypergraph,
    Orientation,
    Packing,
    PackingSpec,
    SetFunctionOracle,
    build_t,
    check_axioms,
    check_mixed_cover,
    compute_h2,
    evaluate,
    find_packing,
    in_degree,
    main_pack,
    mixed_orient,
    mrb_mixed_pack,
    orientation_space,
    reach_to,
    verify,
)
from arbopack.gpoly import feasible, integer_points
from arbopack.matroids import extended_ground
from arbopack.structures import entering_count, scc_condense
from arbopack.fuzz import (
    _random_arcs,
    _random_matroid,
    _random_mixed_hypergraph,
    _random_roots,
    _random_supermodular,
)


def _report(num, label, mismatches, checked, t0):
    ok = not mismatches
    line = (
        f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} "
        f"[{checked} checks, {time.perf_counter() - t0:.1f}s]"
    )
    print(line)
    assert ok, f"{line}; first mismatch: {mismatches[0]!r}"


@lru_cache(maxsize=None)
def _root_matroid_pairs(n):
    pairs = []
    for s in all_root_multisets(n, 2):
        for m in small_matroid_family(s):
            pairs.append((s, m))
    return tuple(pairs)


@lru_cache(maxsize=None)
def _root_demand_oracles(n):
    """Oracles h(X) = -rank(roots inside X), deduplicated by value table."""
    seen, out = set(), []
    for s, m in _root_matroid_pairs(n):
        h = SetFunctionOracle.from_matroid_roots(n, s, m)
        sig = tuple(
            h(frozenset(c))
            for r in range(n + 1)
            for c in itertools.combinations(range(n), r)
        )
        if sig not in seen:
            seen.add(sig)
            out.append(h)
    return tuple(out)


def test_criterion_01_spanning_equivalence():
    t0 = time.perf_counter()
    mismatches, checked = [], 0
    for d in all_digraphs(3, 4):
        for s in all_root_multisets(d.n, 2):
            cond = evaluate(ConditionId.EDMONDS, Instance(graph=d, roots=s)).holds
            built = find_packing(d, PackingSpec("spanning", roots=s)) is not None
            checked += 1
            if cond != built:
                mismatches.append((d, s.counts, cond, built))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _report(1, "spanning condition vs search", mismatches, checked, t0)


def test_criterion_02_reachability_equivalence():
    t0 = time.perf_counter()
    mismatches, checked = [], 0
    for d in all_digraphs(3, 4):
        for s in all_root_multisets(d.n, 2):
            cond = evaluate(ConditionId.KKT, Instance(graph=d, roots=s)).holds
            built = find_packing(d, PackingSpec("reachability", roots=s)) is not None
            checked += 1
            if cond != built:
                mismatches.append((d, s.counts, cond, built))
    _report(2, "reachability condition vs search", mismatches, checked, t0)


def test_criterion_03_matroid_equivalences():
    t0 = time.perf_counter()
    mismatches, checked = [], 0
    for d in all_digraphs(3, 4):
        for s, m in _root_matroid_pairs(d.n):
            inst = Instance(graph=d, roots=s, matroid=m)
            a = evaluate(ConditionId.KIRALY, inst).holds
            b = evaluate(ConditionId.GY_DIGRAPH, inst).holds
            spec = PackingSpec("matroid_reachability_based", roots=s, matroid=m)
            pk = find_packing(d, spec)
            checked += 1
            if not (a == b == (pk is not None)):
                mismatches.append((d, s.counts, m, a, b, pk is not None))
            elif pk is not None and not verify(d, pk, spec).holds:
                mismatches.append((d, s.counts, m, "packing failed verify"))
    _report(3, "matroid reachability routes", mismatches, checked, t0)


def test_criterion_04_orientation_sound_complete():
    t0 = time.perf_counter()
    mismatches, checked = [], 0
    for f in all_mixed_graphs(3, 4):
        for h in _root_demand_oracles(f.n):
            got = mixed_orient(f, h)
            brute = any(
                check_mixed_cover(f, h, Orientation(o)).holds
                for o in orientation_space(f)
            )
            checked += 1
            if isinstance(got, Orientation) != brute:
                mismatches.append((f, h.label, brute))
            elif brute and not check_mixed_cover(f, h, got).holds:
                mismatches.append((f, h.label, "returned orientation fails sweep"))
    _report(4, "orientation vs exhaustive search", mismatches, checked, t0)


def test_criterion_05_mixed_matroid_pipeline():
    t0 = time.perf_counter()
    mismatches, checked = [], 0
    for f in all_mixed_graphs(3, 4):
        for s, m in _root_matroid_pairs(f.n):
            inst = Instance(graph=f, roots=s, matroid=m)
            cond = evaluate(ConditionId.GY_MIXED, inst).holds
            got = mrb_mixed_pack(f, s, m)
            checked += 1
            if isinstance(got, Packing) != cond:
                mismatches.append((f, s.counts, m, cond))
            elif cond and not verify(
                f, got, PackingSpec("matroid_reachability_based", roots=s, matroid=m)
            ).holds:
                mismatches.append((f, s.counts, m, "packing failed verify"))
    _report(5, "mixed matroid packing pipeline", mismatches, checked, t0)


def _rank_mismatches(f, k, subsets):
    m = ExtendedHypergraphicMatroid(f, k)
    bad = []
    for zs in subsets:
        if m.rank(zs) != m.rank_by_partition_formula(zs):
            bad.append((f, k, zs))
    return bad


def test_criterion_06_rank_formula():
    t0 = time.perf_counter()
    mismatches, checked = [], 0
    for f in all_mixed_hypergraphs(3, 3):
        ground = sorted(extended_ground(f))
        subs = [
            frozenset(c)
            for r in range(len(ground) + 1)
            for c in itertools.combinations(ground, r)
        ]
        for k in (1, 2):
            mismatches += _rank_mismatches(f, k, subs)
            checked += len(subs)
    # seeded sample of the larger grid: up to 4 vertices and 4 elements,
    # subsets exhausted while the ground stays small, sampled beyond that
    rng = random.Random(606)
    for _ in range(600):
        n = rng.randint(1, 4)
        kinds = [
            frozenset(e)
            for size in range(2, n + 1)
            for e in itertools.combinations(range(n), size)
        ]
        akinds = [
            (frozenset(ts), z)
            for z in range(n)
            for tsize in range(1, n)
            for ts in itertools.combinations([v for v in range(n) if v != z], tsize)
        ]
        edges, arcs = [], []
        for _ in range(rng.randint(0, 4)):
            if akinds and (not kinds or rng.random() < 0.5):
                arcs.append(rng.choice(akinds))
            elif kinds:
                edges.append(rng.choice(kinds))
        f = MixedHypergraph(n, tuple(edges), tuple(arcs))
        ground = sorted(extended_ground(f))
        if len(ground) <= 8:
            subs = [
                frozenset(c)
                for r in range(len(ground) + 1)
                for c in itertools.combinations(ground, r)
            ]
        else:
            subs = [frozenset(), frozenset(ground)] + [
                frozenset(e for e in ground if rng.random() < 0.5) for _ in range(160)
            ]
        k = rng.randint(1, 2)
        mismatches += _rank_mismatches(f, k, subs)
        checked += len(subs)
    _report(6, "partition rank formula vs independence", mismatches, checked, t0)


def _bounds_grid(n):
    for k in (1, 2):
        for l in (1, 2):
            for lp in range(l, 3):
                for fv in range(3):
                    for gv in range(fv, 3):
                        yield Bounds(f=(fv,) * n, g=(gv,) * n, k=k, l=l, lprime=lp)


def _random_window_bounds(rng, n):
    fv = tuple(rng.randint(0, 2) for _ in range(n))
    gv = tuple(rng.randint(fv[v], 2) for v in range(n))
    l = rng.randint(1, 2)
    return Bounds(f=fv, g=gv, k=rng.randint(1, 2), l=l, lprime=rng.randint(l, 2))


def _packing_supports(f, bounds):
    """Characteristic vectors of valid packings: for every way of keeping a
    subset of the elements with one head per kept hyperedge, ask the packing
    search to use every kept element."""
    spec = PackingSpec("bounded_regular_limited", bounds=bounds)
    arcs = [("A", j) for j in range(len(f.dyperedges))]
    per_edge = [
        [None] + [("E", i, h) for h in sorted(e)] for i, e in enumerate(f.hyperedges)
    ]
    out = set()
    for heads in itertools.product(*per_edge):
        base = frozenset(x for x in heads if x)
        for r in range(len(arcs) + 1):
            for chosen in itertools.combinations(arcs, r):
                z = frozenset(chosen) | base
                dyp = []
                for el in sorted(z):
                    if el[0] == "A":
                        dyp.append(f.dyperedges[el[1]])
                    else:
                        e, h = f.hyperedges[el[1]], el[2]
                        dyp.append((e - {h}, h))
                fz = MixedHypergraph(f.n, (), tuple(dyp))
                if find_packing(fz, spec, use_every_element=True) is not None:
                    out.add(z)
    return out


def _criterion7_stream():
    for f in all_mixed_hypergraphs(2, 2):
        for b in _bounds_grid(f.n):
            yield f, b
    rng = random.Random(707)
    for _ in range(600):
        n = rng.randint(1, 3)
        yield _random_mixed_hypergraph(rng, n, max_elements=3), _random_window_bounds(rng, n)


def test_criterion_07_polyhedron_points_are_packings():
    t0 = time.perf_counter()
    mismatches, checked = [], 0
    for f, b in _criterion7_stream():
        pts = set(integer_points(build_t(f, b)))
        sup = _packing_supports(f, b)
        checked += 1
        if pts != sup:
            mismatches.append((f, b, pts ^ sup))
    _report(7, "lattice points vs packing supports", mismatches, checked, t0)


def test_criterion_08_bounded_packing_end_to_end():
    t0 = time.perf_counter()
    mismatches, checked = [], 0
    for f, b in _criterion7_stream():
        cond = evaluate(ConditionId.MAIN, Instance(graph=f, bounds=b)).holds
        poly = feasible(build_t(f, b)).holds
        got = main_pack(f, b)
        checked += 1
        if not (cond == poly == isinstance(got, Packing)):
            mismatches.append((f, b, cond, poly, isinstance(got, Packing)))
        elif cond and not verify(
            f, got, PackingSpec("bounded_regular_limited", bounds=b)
        ).holds:
            mismatches.append((f, b, "packing failed verify"))
    _report(8, "bounded regular limited end to end", mismatches, checked, t0)


def test_criterion_09_reduction_identities():
    t0 = time.perf_counter()
    mismatches, checked = [], 0

    def run(name, seed, builder):
        nonlocal checked
        rng = random.Random(seed)
        for _ in range(1000):
            left, right, inst = builder(rng)
            checked += 1
            if left != right:
                mismatches.append((name, inst))

    def window_equals_exact(rng):
        n = rng.randint(1, 4)
        f = _random_mixed_hypergraph(rng, n, max_elements=5)
        fv = tuple(rng.randint(0, 2) for _ in range(n))
        gv = tuple(rng.randint(fv[v], 2) for v in range(n))
        k = rng.randint(1, 2)
        a = evaluate(
            ConditionId.MAIN,
            Instance(graph=f, bounds=Bounds(f=fv, g=gv, k=k, l=k, lprime=k)),
        ).holds
        b = evaluate(
            ConditionId.HSZ, Instance(graph=f, bounds=Bounds(f=fv, g=gv, k=k))
        ).holds
        return a, b, (f, fv, gv, k)

    def arcs_only_window(rng):
        n = rng.randint(1, 4)
        d = MixedHypergraph(n, (), _random_arcs(rng, n))
        b = _random_window_bounds(rng, n)
        left = evaluate(ConditionId.MAIN, Instance(graph=d, bounds=b)).holds
        right = evaluate(ConditionId.BERCZI_FRANK, Instance(graph=d, bounds=b)).holds
        return left, right, (d, b)

    def free_matroid_is_reachability(rng):
        n = rng.randint(1, 4)
        d = MixedHypergraph(n, (), _random_arcs(rng, n))
        s = _random_roots(rng, n)
        left = evaluate(
            ConditionId.KIRALY,
            Instance(graph=d, roots=s, matroid=FreeMatroid(s.copies())),
        ).holds
        right = evaluate(ConditionId.KKT, Instance(graph=d, roots=s)).holds
        return left, right, (d, s.counts)

    def edgeless_mixed_is_directed(rng):
        n = rng.randint(1, 4)
        d = MixedHypergraph(n, (), _random_arcs(rng, n))
        s = _random_roots(rng, n)
        m = _random_matroid(rng, s)
        left = evaluate(ConditionId.GY_MIXED, Instance(graph=d, roots=s, matroid=m)).holds
        right = evaluate(
            ConditionId.GY_DIGRAPH, Instance(graph=d, roots=s, matroid=m)
        ).holds
        return left, right, (d, s.counts, m)

    def pinned_bounds_are_spanning(rng):
        n = rng.randint(1, 4)
        d = MixedHypergraph(n, (), _random_arcs(rng, n))
        s = _random_roots(rng, n)
        counts = tuple(s.counts)
        left = evaluate(
            ConditionId.FRANK_CAI,
            Instance(graph=d, bounds=Bounds(f=counts, g=counts, k=s.size())),
        ).holds
        right = evaluate(ConditionId.EDMONDS, Instance(graph=d, roots=s)).holds
        return left, right, (d, counts)

    run("window=exact", 901, window_equals_exact)
    run("arcs-only window", 902, arcs_only_window)
    run("free matroid", 903, free_matroid_is_reachability)
    run("edgeless mixed", 904, edgeless_mixed_is_directed)
    run("pinned bounds", 905, pinned_bounds_are_spanning)
    _report(9, "reduction identities", mismatches, checked, t0)


def test_criterion_10_structural_invariants():
    t0 = time.perf_counter()
    mismatches, checked = [], 0
    rng = random.Random(1001)
    for i in range(1000):
        n = rng.randint(1, 3)
        d = MixedHypergraph(n, (), _random_arcs(rng, n))
        x = frozenset(v for v in range(n) if rng.random() < 0.5)
        proj = scc_projection(d, x)
        if in_degree(d, x) < sum(in_degree(d, xj) for _, xj in proj):
            mismatches.append(("in-degree split", i, d, x))
        s = _random_roots(rng, n)
        m = _random_matroid(rng, s)

        def r(y, _m=m, _s=s):
            return _m.rank(_s.restrict(y))

        gain = sum(r(reach_to(d, cj)) - r(xj) for cj, xj in proj)
        if gain < r(reach_to(d, x)) - r(x):
            mismatches.append(("rank split", i, d, x, s.counts))

        f = _random_mixed_hypergraph(rng, n, max_elements=4)
        h = _random_supermodular(rng, n)
        comps = scc_condense(f)
        whole = frozenset(range(n))
        c = next(cc for cc in comps if entering_count(f, (whole - cc,)) == 0)
        table = compute_h2(f, h, c).table
        for a in table:
            for b in table:
                if a & b and (
                    table[a | b][0] + table[a & b][0] < table[a][0] + table[b][0]
                ):
                    mismatches.append(("lifted demand pair", i, f, a, b))

        ground = s.copies()
        if ground:
            q1 = GPoly(ground, lambda z: 0, lambda z, _m=m: _m.rank(z))
            if not check_axioms(q1).holds:
                mismatches.append(("matroid pair axioms", i, s.counts))
            full = m.rank(ground)
            alpha = rng.randint(0, full)
            q2 = intersect_plank(q1, Plank(alpha, rng.randint(alpha, full)))
            if q2 is None or not check_axioms(q2).holds:
                mismatches.append(("plank axioms", i, s.counts))
            m2 = _random_matroid(rng, s)
            q3 = minkowski_sum(
                [q1, GPoly(ground, lambda z: 0, lambda z, _m=m2: _m.rank(z))]
            )
            if not check_axioms(q3).holds:
                mismatches.append(("sum axioms", i, s.counts))

        b = _random_window_bounds(rng, n)
        t = build_t(f, b)
        if len(t.ground) <= 5 and feasible(t).holds:
            if not check_axioms(t).holds:
                mismatches.append(("nonempty polyhedron axioms", i, f, b))
        checked += 1
    _report(10, "structural invariants", mismatches, checked, t0)
