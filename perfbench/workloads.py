"""Seeded instance generators for the benchmark workloads.

Every instance carries a planted label that holds by construction, not by
running the library:

* A yes-instance is the union of an explicit packing and extra elements.
  Spanning conditions (edmonds, fkk, frank_mixed, dgns, kiraly, mrb_mixed)
  plant one spanning arborescence per basis root copy; rooted-forest
  conditions (cor1, main) plant k layers of rooted spanning forests, so every
  vertex lies in exactly k members.  Unused extra elements never destroy a
  packing, and they keep every root of the basis reaching every vertex.
* A no-instance plants a cut.  A set X of about n/2 vertices holds no roots
  and is entered by one element fewer than the members that must reach it,
  while the rest W = V - X is a yes-instance.  Inside X, every proper subset
  is entered often enough from within X, so X is the first violated set in
  the sweeps' order and a refusal sweeps a real share of the candidates.

Instances are drawn in rounds.  A round holds one instance per stratum
(condition or pipeline, vertex count, label) and is seeded by its index
alone, so any number of rounds can be drawn and the first r rounds of a
seed never change.  Draws outside a stratum's stated size range are
rejected here, never while timing.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# digraph and dypergraph conditions quantified over vertex subsets
SUBSET_CONDITIONS = ("edmonds", "cor1", "fkk", "dgns", "kiraly")
SUBSET_N = (12, 13, 14, 15)
# mixed (hyper)graph conditions quantified over subpartitions
SUBPARTITION_CONDITIONS = ("frank_mixed", "main")
SUBPARTITION_N = (6, 7, 8)

MRB_N = (4, 5)
MRB_COPIES = (5, 6, 7)
COR1_K = 2
MAIN_N = (4, 5)
MAIN_K = (1, 2)
MAIN_GROUND = (9, 12)
# Instances per stratum in one round.  mrb_mixed and main ops are 10-100x
# slower than cor1 ops, and each cor1 size n has its own latency band.
# These counts put p50 inside the n=8 band of cor1, and p90 among the 6-copy
# mrb_mixed and 9-element main ops on pack_yes and among the n=4 mrb_mixed
# refusals on pack_no, not on the edge between two bands, where the
# percentile would jump between seeds.
MRB_QUOTA = 3
COR1_QUOTA = {  # n -> instances
    "pack_yes": {7: 50, 8: 45, 9: 35},
    "pack_no": {7: 75, 8: 65, 9: 55},
}

WORKLOADS = ("check_sweep", "pack_yes", "pack_no")


@dataclass(frozen=True)
class Case:
    """One generated op input: a CLI-shaped instance document and what the
    op must do with it."""

    kind: str      # "check" or "pack"
    target: str    # condition id or pipeline name
    n: int
    label: bool    # planted answer: the condition holds / a packing exists
    doc: dict


# ---------------------------------------------------------------------------
# drafts: instances under construction, on vertices 0..n-1

class Draft:
    def __init__(self, n: int):
        self.n = n
        self.arcs: list[tuple[frozenset, int]] = []
        self.edges: list[frozenset] = []
        self.roots = [0] * n
        self.matroid: dict | None = None
        self.bounds: dict | None = None

    def ground_size(self) -> int:
        """Size of the extended ground: dyperedges plus one oriented copy
        per hyperedge vertex."""
        return len(self.arcs) + sum(len(e) for e in self.edges)

    def doc(self) -> dict:
        names = [f"v{i}" for i in range(self.n)]
        doc: dict = {"schema_version": 1, "vertices": names}
        if self.edges:
            doc["hyperedges"] = [sorted(names[v] for v in e) for e in self.edges]
        if self.arcs:
            doc["dyperedges"] = [
                {"tails": sorted(names[v] for v in tails), "head": names[head]}
                for tails, head in self.arcs
            ]
        if any(self.roots):
            doc["roots"] = {names[v]: c for v, c in enumerate(self.roots) if c}
        if self.matroid is not None:
            doc["matroid"] = _name_refs(self.matroid, names)
        if self.bounds is not None:
            doc["bounds"] = {
                key: ({names[v]: x for v, x in enumerate(val)}
                      if isinstance(val, list) else val)
                for key, val in self.bounds.items()
            }
        return doc


def _name_refs(mdoc: dict, names: list[str]) -> dict:
    if mdoc["kind"] != "partition":
        return dict(mdoc)
    return {
        "kind": "partition",
        "blocks": [[[names[v], c] for v, c in block] for block in mdoc["blocks"]],
        "capacities": list(mdoc["capacities"]),
    }


# element shapes a stratum may use
DIGRAPH = "digraph"            # single-tail dyperedges
DYPERGRAPH = "dypergraph"      # dyperedges with extra tails
MIXED = "mixed"                # arcs and size-2 edges
MIXED_HYPER = "mixed_hyper"    # dyperedges and hyperedges of size 2-3


def _realize(rng: random.Random, d: Draft, u: int, v: int, shape: str,
             side: list[int]) -> None:
    """Add one element that a member can use as the arc u -> v.  Extra
    vertices are drawn from side, the part of the cut that holds u and v."""
    others = [w for w in side if w not in (u, v)]
    if shape == DIGRAPH:
        d.arcs.append((frozenset({u}), v))
    elif shape == DYPERGRAPH:
        extra = {w for w in others if rng.random() < 0.15}
        d.arcs.append((frozenset({u} | extra), v))
    elif shape == MIXED:
        if rng.random() < 0.5:
            d.edges.append(frozenset({u, v}))
        else:
            d.arcs.append((frozenset({u}), v))
    else:
        pick = rng.random()
        if pick < 0.35:
            d.edges.append(frozenset({u, v}))
        elif pick < 0.5 and others:
            d.edges.append(frozenset({u, v, rng.choice(others)}))
        elif pick < 0.75 and others:
            d.arcs.append((frozenset({u, rng.choice(others)}), v))
        else:
            d.arcs.append((frozenset({u}), v))


def _forest(rng: random.Random, side: list[int], tree_roots: list[int]
            ) -> list[tuple[int, int]]:
    """Arcs of a random spanning forest of side, one tree per given root."""
    placed = list(tree_roots)
    rest = [v for v in side if v not in tree_roots]
    rng.shuffle(rest)
    arcs = []
    for v in rest:
        arcs.append((rng.choice(placed), v))
        placed.append(v)
    return arcs


def _plant_spanning(rng, d: Draft, side: list[int], root_vertices: list[int],
                    shape: str) -> None:
    """One element-disjoint spanning arborescence of side per root."""
    for r in root_vertices:
        for u, v in _forest(rng, side, [r]):
            _realize(rng, d, u, v, shape, side)


def _plant_layers(rng, d: Draft, side: list[int], k: int, shape: str,
                  max_trees: int) -> int:
    """k layers of rooted spanning forests of side; each tree root is one
    root copy.  Returns the number of trees (members)."""
    members = 0
    for _ in range(k):
        t = rng.randint(1, min(max_trees, len(side)))
        roots = rng.sample(side, t)
        for r in roots:
            d.roots[r] += 1
        members += t
        for u, v in _forest(rng, side, roots):
            _realize(rng, d, u, v, shape, side)
    return members


def _add_extras(rng, d: Draft, count: int, shape: str, x: list[int], w: list[int]
                ) -> None:
    """Random extra elements that enter no vertex of the cut x: inside x,
    inside w, or arcs from x to w.  With x empty they land anywhere."""
    for _ in range(count):
        pick = rng.random()
        if x and pick < 0.25:
            u, v = rng.sample(x, 2)
            _realize(rng, d, u, v, shape, x)
        elif x and pick < 0.4:
            d.arcs.append((frozenset({rng.choice(x)}), rng.choice(w)))
        else:
            u, v = rng.sample(w, 2)
            _realize(rng, d, u, v, shape, w)


def _plant_cut_interior(rng, d: Draft, x: list[int], need: int, shape: str) -> None:
    """Make every proper nonempty subset of x entered by at least need
    elements from inside x: need arcs each way on a pair, otherwise
    bidirected Hamiltonian cycles, each entering a proper subset twice."""
    if len(x) == 2:
        pairs = [(x[0], x[1]), (x[1], x[0])] * need
    else:
        pairs = []
        for _ in range(-(-need // 2)):
            order = list(x)
            rng.shuffle(order)
            for u, v in zip(order, order[1:] + order[:1]):
                pairs += [(u, v), (v, u)]
    for a, b in pairs:
        tails = {a}
        if shape in (DYPERGRAPH, MIXED_HYPER):
            tails |= {t for t in x if t not in (a, b) and rng.random() < 0.15}
        d.arcs.append((frozenset(tails), b))


def _plant_cut_crossing(rng, d: Draft, x: list[int], w: list[int], count: int,
                        shape: str) -> None:
    """Exactly count elements entering x, all from w."""
    for _ in range(count):
        u, v = rng.choice(w), rng.choice(x)
        if shape == MIXED and rng.random() < 0.5:
            d.edges.append(frozenset({u, v}))
        else:
            d.arcs.append((frozenset({u}), v))


def _split(n: int, label: bool) -> tuple[list[int], list[int]]:
    """(x, w): the planted cut (empty on a yes-instance) and the rest.  The
    cut takes the highest-numbered vertices, the last set of its size in
    the sweeps' order, so a refusal sweeps every smaller set and every set
    of its size: the same share at every seed."""
    verts = list(range(n))
    if label:
        return [], verts
    return verts[n - n // 2:], verts[:n - n // 2]


# ---------------------------------------------------------------------------
# root matroids

def _root_matroid(rng, d: Draft, copies: list[tuple[int, int]], max_rank: int
                  ) -> list[tuple[int, int]]:
    """Attach a free, uniform or partition matroid on the root copies with
    rank between 1 and max_rank, and return one basis."""
    kinds = ["uniform", "partition"] + (["free"] if len(copies) <= max_rank else [])
    kind = rng.choice(kinds)
    if kind == "free":
        d.matroid = {"kind": "free"}
        return list(copies)
    if kind == "uniform":
        r = rng.randint(1, min(max_rank, len(copies)))
        d.matroid = {"kind": "uniform", "r": r}
        return rng.sample(copies, r)
    while True:
        nblocks = rng.randint(1, min(3, len(copies)))
        blocks: list[list] = [[] for _ in range(nblocks)]
        shuffled = list(copies)
        rng.shuffle(shuffled)
        for i, c in enumerate(shuffled):
            blocks[i % nblocks].append(c)
        caps = [rng.randint(0, 2) for _ in blocks]
        basis = [c for b, cap in zip(blocks, caps) for c in b[:cap]]
        if 1 <= len(basis) <= max_rank:
            d.matroid = {"kind": "partition", "blocks": blocks, "capacities": caps}
            return basis


def _place_copies(rng, d: Draft, w: list[int], count: int, per_vertex: int
                  ) -> list[tuple[int, int]]:
    """Put count root copies on vertices of w, at most per_vertex each."""
    slots = [v for v in w for _ in range(per_vertex)]
    for v in rng.sample(slots, min(count, len(slots))):
        d.roots[v] += 1
    return [(v, i) for v in range(d.n) for i in range(d.roots[v])]


# ---------------------------------------------------------------------------
# condition instances (check_sweep)

def _check_subset(rng, cond: str, n: int, label: bool) -> Draft:
    d = Draft(n)
    x, w = _split(n, label)
    shape = DYPERGRAPH if cond in ("cor1", "fkk") else DIGRAPH
    if cond == "edmonds":
        total = rng.randint(2, 3)
        _place_copies(rng, d, w, total, 2)
        need = total
        _plant_spanning(rng, d, w, [v for v in range(n) for _ in range(d.roots[v])], shape)
    elif cond == "fkk":
        need = rng.randint(2, 3)
        s = rng.choice(w)
        d.roots[s] = need
        _plant_spanning(rng, d, w, [s] * need, shape)
    elif cond == "cor1":
        need = COR1_K
        _plant_layers(rng, d, w, need, shape, max_trees=3)
        d.bounds = {"k": need}
    else:  # dgns, kiraly
        copies = _place_copies(rng, d, w, rng.randint(3, 5), 2)
        basis = _root_matroid(rng, d, copies, max_rank=3)
        while len(basis) < 2 and not label:
            basis = _root_matroid(rng, d, copies, max_rank=3)
        need = len(basis)
        _plant_spanning(rng, d, w, [v for v, _ in basis], shape)
    if x:
        _plant_cut_interior(rng, d, x, need, shape)
        _plant_cut_crossing(rng, d, x, w, need - 1, shape)
    _add_extras(rng, d, n, shape, x, w)
    return d


def _check_subpartition(rng, cond: str, n: int, label: bool) -> Draft:
    d = Draft(n)
    x, w = _split(n, label)
    if cond == "frank_mixed":
        shape = MIXED
        need = rng.randint(1, 2) if label else 2
        _place_copies(rng, d, w, need, 2)
        _plant_spanning(rng, d, w, [v for v in range(n) for _ in range(d.roots[v])], shape)
    else:
        shape = MIXED_HYPER
        need = rng.randint(1, 2)
        _plant_main_bounds(rng, d, w, need, shape)
    if x:
        _plant_cut_interior(rng, d, x, need, shape)
        _plant_cut_crossing(rng, d, x, w, need - 1, shape)
    _add_extras(rng, d, n // 2, shape, x, w)
    return d


def _plant_main_bounds(rng, d: Draft, w: list[int], k: int, shape: str) -> None:
    """k layers of forests on w with bounds (f, g, k, l, l') they satisfy;
    vertices outside w may root nothing."""
    members = _plant_layers(rng, d, w, k, shape, max_trees=2)
    planted = list(d.roots)
    d.roots = [0] * d.n
    f = [rng.randint(0, c) for c in planted]
    g = [min(k, c + rng.randint(0, 1)) if v in w else 0 for v, c in enumerate(planted)]
    low = max(1, members - rng.randint(0, 1))
    d.bounds = {"f": f, "g": g, "k": k, "l": low,
                "lprime": members + rng.randint(0, 2)}


# ---------------------------------------------------------------------------
# pipeline instances (pack_yes, pack_no)

def _pack_mrb(rng, n: int, label: bool, copies: int) -> Draft:
    d = Draft(n)
    x, w = _split(n, label)
    placed = _place_copies(rng, d, w, copies, 2)
    basis = _root_matroid(rng, d, placed, max_rank=2)
    while not label and len(basis) < 2:
        basis = _root_matroid(rng, d, placed, max_rank=2)
    _plant_spanning(rng, d, w, [v for v, _ in basis], MIXED)
    if x:
        _plant_cut_interior(rng, d, x, len(basis), MIXED)
        _plant_cut_crossing(rng, d, x, w, len(basis) - 1, MIXED)
    _add_extras(rng, d, 2, MIXED, x, w)
    return d


def _pack_cor1(rng, n: int, label: bool) -> Draft:
    d = Draft(n)
    x, w = _split(n, label)
    _plant_layers(rng, d, w, COR1_K, DIGRAPH, max_trees=3)
    d.bounds = {"k": COR1_K}
    if x:
        _plant_cut_interior(rng, d, x, COR1_K, DIGRAPH)
        _plant_cut_crossing(rng, d, x, w, COR1_K - 1, DIGRAPH)
    _add_extras(rng, d, n, DIGRAPH, x, w)
    return d


def _pack_main(rng, n: int, label: bool, k: int, ground: int) -> Draft:
    """Extra elements are added one at a time until the extended ground
    has exactly the stratum's size; a draw that overshoots is redrawn."""
    while True:
        d = Draft(n)
        x, w = _split(n, label)
        _plant_main_bounds(rng, d, w, k, MIXED_HYPER)
        if x:
            _plant_cut_interior(rng, d, x, k, MIXED_HYPER)
            _plant_cut_crossing(rng, d, x, w, k - 1, MIXED_HYPER)
        while d.ground_size() < ground:
            _add_extras(rng, d, 1, MIXED_HYPER, x, w)
        if d.ground_size() == ground:
            return d


# ---------------------------------------------------------------------------
# rounds

def strata(workload: str) -> list[tuple[str, str, int, bool, tuple]]:
    """(kind, target, n, label, size parameters) of every instance in one
    round.  Parameters that drive an op's cost most (the root copies of
    mrb_mixed, the ground size and k of main) are fixed per stratum, so
    every round has the same cost profile."""
    if workload == "check_sweep":
        out = []
        for label in (True, False):
            out += [("check", c, n, label, ())
                    for n in SUBSET_N for c in SUBSET_CONDITIONS]
            out += [("check", c, n, label, ())
                    for n in SUBPARTITION_N for c in SUBPARTITION_CONDITIONS]
        return out
    if workload in ("pack_yes", "pack_no"):
        label = workload == "pack_yes"
        out = [("pack", "mrb_mixed", n, label, (("copies", c),))
               for n in MRB_N for c in MRB_COPIES for _ in range(MRB_QUOTA)]
        out += [("pack", "cor1", n, label, ())
                for n, count in COR1_QUOTA[workload].items() for _ in range(count)]
        out += [("pack", "main", MAIN_N[(g + k) % 2], label, (("k", k), ("ground", g)))
                for g in range(MAIN_GROUND[0], MAIN_GROUND[1] + 1) for k in MAIN_K]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def _draft(rng, kind: str, target: str, n: int, label: bool, params: tuple) -> Draft:
    if kind == "check":
        if target in SUBSET_CONDITIONS:
            return _check_subset(rng, target, n, label)
        return _check_subpartition(rng, target, n, label)
    build = {"mrb_mixed": _pack_mrb, "cor1": _pack_cor1, "main": _pack_main}[target]
    return build(rng, n, label, **dict(params))


def generate_round(workload: str, seed: int, index: int) -> list[Case]:
    """The index-th round of a workload for a seed."""
    out = []
    for j, (kind, target, n, label, params) in enumerate(strata(workload)):
        rng = random.Random(f"{seed}/{workload}/{index}/{j}")
        d = _draft(rng, kind, target, n, label, params)
        out.append(Case(kind, target, n, label, d.doc()))
    # interleave the strata so a slow spell of the machine hits all of them
    random.Random(f"{seed}/{workload}/{index}/order").shuffle(out)
    return out


def generate(workload: str, seed: int, rounds: int) -> list[list[Case]]:
    return [generate_round(workload, seed, i) for i in range(rounds)]
