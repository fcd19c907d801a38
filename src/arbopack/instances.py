"""JSON documents for instances, packings and set-function tables.

Documents name vertices with strings; in memory vertices are dense
indices in document order.  Matroid elements are root copies written as
[name, copy] pairs (a bare name is copy 0).  parse and serialize are
inverses: serializing a parsed document reproduces it up to canonical
formatting, and parsing a serialized object reproduces the object.
"""
from __future__ import annotations

from .matroids import (
    ExplicitMatroid,
    ExtendedHypergraphicMatroid,
    FreeMatroid,
    HypergraphicMatroid,
    KSumMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
)
from .packing import Member, Packing, Pick
from .setfuncs import SetFunctionOracle
from .structures import Bounds, Instance, MixedHypergraph, RootMultiset, is_int, mask_bits

SCHEMA_VERSION = 1

# the keys of each matroid kind's object besides "kind"
_MATROID_KEYS = {"extended": ("k",), "ksum": ("k", "inner"), "free": (), "uniform": ("r",),
                 "partition": ("blocks", "capacities"), "explicit": ("independent_sets",),
                 "hypergraphic": ("vertex_sets",)}


class SchemaError(ValueError):
    """The document does not match the published schema."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _known_keys(doc: dict, keys: tuple[str, ...], what: str) -> None:
    """Reject the keys of the object doc outside keys."""
    bad = doc.keys() - keys
    if bad:
        raise SchemaError(f"unknown {what} fields {sorted(bad)}")


def _check_version(doc: dict) -> None:
    version = doc.get("schema_version", SCHEMA_VERSION)
    _require(version == SCHEMA_VERSION, f"unsupported schema_version {version!r}")


def _names(doc: dict) -> tuple[tuple[str, ...], dict[str, int]]:
    vs = doc.get("vertices")
    _require(isinstance(vs, list), "vertices must be a list of names")
    _require(all(isinstance(v, str) for v in vs), "vertex names must be strings")
    _require(len(set(vs)) == len(vs), "vertex names must be distinct")
    return tuple(vs), {v: i for i, v in enumerate(vs)}


def _vertex(name, idx: dict[str, int], what: str) -> int:
    _require(isinstance(name, str) and name in idx, f"unknown vertex {name!r} in {what}")
    return idx[name]


def _copy_ref(ref, idx: dict[str, int], roots: RootMultiset) -> tuple[int, int]:
    if isinstance(ref, str):
        ref = [ref, 0]
    _require(
        isinstance(ref, list) and len(ref) == 2 and is_int(ref[1]),
        f"root copy reference must be [name, copy], got {ref!r}",
    )
    v = _vertex(ref[0], idx, "matroid element")
    _require(0 <= ref[1] < roots.count(v), f"no copy {ref[1]} of root {ref[0]!r}")
    return (v, ref[1])


def parse_matroid(doc, graph: MixedHypergraph, roots: RootMultiset | None,
                  idx: dict[str, int]) -> Matroid:
    _require(isinstance(doc, dict) and "kind" in doc, "matroid must be an object with a kind")
    kind = doc["kind"]
    _require(isinstance(kind, str) and kind in _MATROID_KEYS, f"unknown matroid kind {kind!r}")
    _known_keys(doc, ("kind", *_MATROID_KEYS[kind]), f"{kind} matroid")
    if kind in ("extended", "ksum"):
        _require(is_int(doc.get("k")) and doc["k"] >= 1, f"{kind} matroid needs k >= 1")
        if kind == "extended":
            return ExtendedHypergraphicMatroid(graph, doc["k"])
        return KSumMatroid(parse_matroid(doc.get("inner"), graph, roots, idx), doc["k"])
    _require(roots is not None, f"matroid kind {kind!r} is grounded on root copies")
    ground = roots.copies()
    if kind == "free":
        return FreeMatroid(ground)
    if kind == "uniform":
        _require(is_int(doc.get("r")) and doc["r"] >= 0, "uniform matroid needs r")
        return UniformMatroid(ground, doc["r"])
    if kind == "partition":
        blocks = doc.get("blocks")
        caps = doc.get("capacities")
        _require(isinstance(blocks, list) and isinstance(caps, list) and len(blocks) == len(caps)
                 and all(is_int(c) and c >= 0 for c in caps),
                 "partition matroid needs blocks and capacities, integers at least 0")
        _require(all(isinstance(b, list) for b in blocks), "each partition block must be a list")
        parsed = [frozenset(_copy_ref(r, idx, roots) for r in b) for b in blocks]
        return PartitionMatroid(ground, parsed, caps)
    if kind == "explicit":
        fam = doc.get("independent_sets")
        _require(isinstance(fam, list) and all(isinstance(s, list) for s in fam),
                 "explicit matroid needs independent_sets, a list of lists")
        parsed = [frozenset(_copy_ref(r, idx, roots) for r in s) for s in fam]
        return ExplicitMatroid(ground, parsed)
    # the one kind left: hypergraphic
    vsets = doc.get("vertex_sets")
    _require(isinstance(vsets, list), "hypergraphic matroid needs vertex_sets")
    table = {}
    for entry in vsets:
        _require(isinstance(entry, dict) and "element" in entry and "vertices" in entry,
                 "each vertex_sets entry needs element and vertices")
        _known_keys(entry, ("element", "vertices"), "vertex_sets entry")
        _require(isinstance(entry["vertices"], list),
                 "vertex_sets vertices must be a list of names")
        e = _copy_ref(entry["element"], idx, roots)
        table[e] = frozenset(_vertex(v, idx, "vertex_sets") for v in entry["vertices"])
    _require(set(table) == set(ground), "vertex_sets must cover every root copy once")
    return HypergraphicMatroid(ground, table)


def _vec(val, n: int, idx: dict[str, int], what: str) -> tuple[int, ...]:
    if is_int(val):
        return (val,) * n
    _require(isinstance(val, dict), f"{what} must be an integer or a name map")
    out = [0] * n
    for name, x in val.items():
        _require(is_int(x), f"{what} values must be integers")
        out[_vertex(name, idx, what)] = x
    return tuple(out)


def parse_bounds(doc, n: int, idx: dict[str, int]) -> Bounds:
    _require(isinstance(doc, dict), "bounds must be an object")
    _known_keys(doc, ("f", "g", "k", "l", "lprime"), "bounds")
    kw = {}
    for name in ("f", "g"):
        if name in doc:
            kw[name] = _vec(doc[name], n, idx, f"bounds.{name}")
    for name in ("k", "l", "lprime"):
        if name in doc:
            _require(is_int(doc[name]), f"bounds.{name} must be an integer")
            kw[name] = doc[name]
    try:
        return Bounds(**kw)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def parse_instance(doc) -> tuple[Instance, tuple[str, ...]]:
    _require(isinstance(doc, dict), "instance document must be an object")
    _check_version(doc)
    _known_keys(doc, ("schema_version", "vertices", "hyperedges", "dyperedges",
                      "roots", "matroid", "bounds"), "instance")
    names, idx = _names(doc)
    n = len(names)

    for key in ("hyperedges", "dyperedges"):
        _require(isinstance(doc.get(key, []), list), f"{key} must be a list")
    hyperedges = []
    for e in doc.get("hyperedges", []):
        _require(isinstance(e, list), "each hyperedge must be a list of names")
        hyperedges.append(frozenset(_vertex(v, idx, "hyperedge") for v in e))
    dyperedges = []
    for a in doc.get("dyperedges", []):
        _require(isinstance(a, dict) and "tails" in a and "head" in a,
                 "each dyperedge must be {tails, head}")
        _known_keys(a, ("tails", "head"), "dyperedge")
        _require(isinstance(a["tails"], list), "dyperedge tails must be a list of names")
        tails = frozenset(_vertex(v, idx, "dyperedge tails") for v in a["tails"])
        dyperedges.append((tails, _vertex(a["head"], idx, "dyperedge head")))
    try:
        graph = MixedHypergraph(n, tuple(hyperedges), tuple(dyperedges))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None

    roots = None
    if "roots" in doc:
        rdoc = doc["roots"]
        _require(isinstance(rdoc, dict), "roots must be a name -> count map")
        counts = [0] * n
        for name, c in rdoc.items():
            _require(is_int(c) and c >= 0, "root counts must be nonnegative integers")
            counts[_vertex(name, idx, "roots")] = c
        roots = RootMultiset(tuple(counts))

    matroid = None
    if "matroid" in doc:
        matroid = parse_matroid(doc["matroid"], graph, roots, idx)
    bounds = None
    if "bounds" in doc:
        bounds = parse_bounds(doc["bounds"], n, idx)
    return Instance(graph=graph, roots=roots, matroid=matroid, bounds=bounds), names


def _ref_doc(copy: tuple[int, int], names: tuple[str, ...]) -> list:
    return [names[copy[0]], copy[1]]


def matroid_to_doc(m: Matroid, names: tuple[str, ...]) -> dict:
    if isinstance(m, ExtendedHypergraphicMatroid):
        return {"kind": "extended", "k": m.k}
    if isinstance(m, KSumMatroid):
        return {"kind": "ksum", "k": m.k, "inner": matroid_to_doc(m.inner, names)}
    if isinstance(m, FreeMatroid):
        return {"kind": "free"}
    if isinstance(m, UniformMatroid):
        return {"kind": "uniform", "r": m.r}
    if isinstance(m, PartitionMatroid):
        return {
            "kind": "partition",
            "blocks": [sorted(_ref_doc(c, names) for c in m.elements(b)) for b in m.block_masks],
            "capacities": list(m.capacities),
        }
    if isinstance(m, ExplicitMatroid):
        fam = sorted(sorted(_ref_doc(c, names) for c in s) for s in m.family)
        fam.sort(key=len)
        return {"kind": "explicit", "independent_sets": fam}
    if isinstance(m, HypergraphicMatroid):
        return {
            "kind": "hypergraphic",
            "vertex_sets": [
                {"element": _ref_doc(e, names),
                 "vertices": sorted(names[v] for v in mask_bits(vs))}
                for e, vs in zip(m.ground, m.vertex_masks)
            ],
        }
    raise ValueError(f"cannot serialize matroid of type {type(m).__name__}")


def instance_to_doc(inst: Instance, names: tuple[str, ...]) -> dict:
    f = inst.graph
    doc: dict = {"schema_version": SCHEMA_VERSION, "vertices": list(names)}
    if f.hyperedges:
        doc["hyperedges"] = [sorted(names[v] for v in e) for e in f.hyperedges]
    if f.dyperedges:
        doc["dyperedges"] = [
            {"tails": sorted(names[v] for v in tails), "head": names[head]}
            for tails, head in f.dyperedges
        ]
    if inst.roots is not None:
        doc["roots"] = {
            names[v]: c for v, c in enumerate(inst.roots.counts) if c
        }
    if inst.matroid is not None:
        doc["matroid"] = matroid_to_doc(inst.matroid, names)
    if inst.bounds is not None:
        b = inst.bounds
        bdoc: dict = {}
        for name in ("f", "g"):
            val = getattr(b, name)
            if val is not None:
                bdoc[name] = {names[v]: x for v, x in enumerate(val)}
        for name in ("k", "l", "lprime"):
            val = getattr(b, name)
            if val is not None:
                bdoc[name] = val
        doc["bounds"] = bdoc
    return doc


def parse_packing(doc, names: tuple[str, ...]) -> Packing:
    _require(isinstance(doc, dict), "packing document must be an object")
    _check_version(doc)
    # species is the label `arbopack pack` writes beside the members
    _known_keys(doc, ("schema_version", "members", "species"), "packing")
    idx = {v: i for i, v in enumerate(names)}
    members = []
    _require(isinstance(doc.get("members"), list), "packing needs a members list")
    for mdoc in doc["members"]:
        _require(isinstance(mdoc, dict) and "root" in mdoc, "each member needs a root")
        _known_keys(mdoc, ("root", "copy", "picks"), "member")
        root = _vertex(mdoc["root"], idx, "member root")
        copy = mdoc.get("copy", 0)
        _require(is_int(copy) and copy >= 0, "member copy must be a nonnegative integer")
        _require(isinstance(mdoc.get("picks", []), list), "member picks must be a list")
        picks = []
        for pdoc in mdoc.get("picks", []):
            _require(
                isinstance(pdoc, dict)
                and pdoc.get("kind") in ("E", "A")
                and is_int(pdoc.get("index")),
                "each pick needs kind E|A and an index",
            )
            _known_keys(pdoc, ("kind", "index", "tail", "head"), "pick")
            picks.append(Pick(
                pdoc["kind"], pdoc["index"],
                _vertex(pdoc.get("tail"), idx, "pick tail"),
                _vertex(pdoc.get("head"), idx, "pick head"),
            ))
        members.append(Member(root, copy, tuple(picks)))
    return Packing(tuple(members))


def packing_to_doc(packing: Packing, names: tuple[str, ...]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "members": [
            {
                "root": names[m.root],
                "copy": m.copy,
                "picks": [
                    {"kind": p.kind, "index": p.index,
                     "tail": names[p.tail], "head": names[p.head]}
                    for p in m.picks
                ],
            }
            for m in packing.members
        ],
    }


def set_function_to_doc(fn: SetFunctionOracle, names: tuple[str, ...]) -> dict:
    """Tabulate a set function over every subset of the vertices."""
    from .structures import subsets

    values = [
        {"set": sorted(names[v] for v in x), "value": fn(x)}
        for x in subsets(range(len(names)))
    ]
    return {"values": values}


def _element_list(doc) -> list:
    _require(isinstance(doc, dict) and isinstance(doc.get("elements"), list),
             "elements file needs an elements list")
    _known_keys(doc, ("elements",), "elements file")
    return doc["elements"]


def parse_root_copies(doc, names: tuple[str, ...],
                      roots: RootMultiset | None) -> frozenset[tuple[int, int]]:
    """The root copies listed in {"elements": [...]}, each [name, copy] or a
    bare name for copy 0."""
    _require(roots is not None, "root copy references need roots in the instance")
    idx = {v: i for i, v in enumerate(names)}
    return frozenset(_copy_ref(ref, idx, roots) for ref in _element_list(doc))


def parse_extended_elements(doc, names: tuple[str, ...]) -> frozenset[tuple]:
    """The extended-ground elements listed in {"elements": [...]}: ["A", j]
    for dyperedge j, ["E", i, head-name] for hyperedge i oriented to head."""
    idx = {v: i for i, v in enumerate(names)}
    out = []
    for e in _element_list(doc):
        _require(isinstance(e, list) and e[:1] in (["A"], ["E"])
                 and len(e) == (2 if e[0] == "A" else 3) and is_int(e[1]),
                 f"bad extended element {e!r}")
        if e[0] == "A":
            out.append(("A", e[1]))
        else:
            out.append(("E", e[1], _vertex(e[2], idx, "extended element")))
    return frozenset(out)


def parse_set_function(doc, names: tuple[str, ...]) -> SetFunctionOracle:
    """A table-backed set function: {"values": [{"set": [names], "value": int}, ...]}
    covering every subset of the vertices."""
    _require(isinstance(doc, dict) and isinstance(doc.get("values"), list),
             "set function document needs a values list")
    _known_keys(doc, ("values",), "set function")
    idx = {v: i for i, v in enumerate(names)}
    table: dict[frozenset[int], int] = {}
    for entry in doc["values"]:
        _require(isinstance(entry, dict) and "set" in entry and "value" in entry,
                 "each value entry needs set and value")
        _known_keys(entry, ("set", "value"), "value entry")
        _require(is_int(entry["value"]), "set function values must be integers")
        _require(isinstance(entry["set"], list), "set function sets must be lists of names")
        key = frozenset(_vertex(v, idx, "set function") for v in entry["set"])
        _require(key not in table, "duplicate set in set function table")
        table[key] = entry["value"]
    n = len(names)
    _require(len(table) == 1 << n, "set function table must cover every subset")
    try:
        return SetFunctionOracle.from_table(n, table)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
