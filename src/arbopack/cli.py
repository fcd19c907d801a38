"""Command line interface.

Exit codes: 0 the check holds / the object was found, 1 it fails or is
infeasible (the witness is in the report), 2 usage or parse error, 3 the
enumeration cap was exceeded, 4 an input broke a property it must have
(e.g. a set function that is not intersecting supermodular).  ARBOPACK_CAP
sets the default cap.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .conditions import CONDITIONS, ConditionId, Instance, evaluate
from .fuzz import SUITES, run_fuzz
from .gpoly import build_t, feasible, find_integer_point
from .instances import (
    SchemaError,
    packing_to_doc,
    parse_instance,
    parse_packing,
    parse_set_function,
)
from .matroids import ExtendedHypergraphicMatroid
from .orientation import frank_orient, mixed_orient
from .packing import (
    SPECIES,
    PackingSpec,
    corollary1_pack,
    find_packing,
    main_pack,
    mrb_mixed_pack,
)
from .packing import verify as verify_packing
from .setfuncs import SetFunctionOracle
from .structures import CapExceededError, PropertyViolationError, Verdict, Witness

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_PROPERTY = 4

_PIPELINES = ("main", "cor1", "mrb_mixed")


def _encode(value, names):
    if isinstance(value, frozenset):
        if all(isinstance(v, int) for v in value):
            return sorted(names[v] for v in value)
        return sorted((_encode(v, names) for v in value), key=repr)
    if isinstance(value, (tuple, list)):
        return [_encode(v, names) for v in value]
    return value


def _elem_doc(elem, names):
    if elem[0] == "A":
        return ["A", elem[1]]
    return ["E", elem[1], names[elem[2]]]


def witness_to_doc(w: Witness, names) -> dict:
    doc: dict = {"kind": w.kind}
    if w.kind == "subset":
        doc["X"] = sorted(names[v] for v in w.payload[0])
    elif w.kind == "subpartition":
        doc["P"] = [sorted(names[v] for v in part) for part in w.payload[0]]
    elif w.kind == "component_family":
        doc["C"] = sorted(names[v] for v in w.payload[0])
        doc["family"] = [sorted(names[v] for v in part) for part in w.payload[1]]
    elif w.kind == "vertex":
        doc["v"] = names[w.payload[0]]
    elif w.kind == "ground_subset":
        doc["Z"] = [_elem_doc(e, names) for e in w.payload[0]]
        doc["side"] = w.payload[1]
    elif w.kind == "pair":
        doc["X"] = _encode(w.payload[0], names)
        doc["Y"] = _encode(w.payload[1], names)
    elif w.payload:
        doc["data"] = _encode(w.payload, names)
    if w.lhs is not None:
        doc["lhs"] = w.lhs
    if w.rhs is not None:
        doc["rhs"] = w.rhs
    if w.note:
        doc["note"] = w.note
    return doc


def _emit(doc: dict, args) -> None:
    if args.output == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
        return
    for key, value in sorted(doc.items()):
        print(f"{key}: {json.dumps(value, sort_keys=True)}")


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None


def _load_instance(path: str):
    return parse_instance(_load_json(path))


def _resolve_h(args, inst: Instance, names) -> SetFunctionOracle:
    if args.h == "table":
        if not args.h_table:
            raise SchemaError("--h table needs --h-table FILE")
        return parse_set_function(_load_json(args.h_table), names)
    if inst.roots is None or inst.matroid is None:
        raise SchemaError("--h matroid needs roots and a matroid in the instance")
    return SetFunctionOracle.from_matroid_roots(inst.graph.n, inst.roots, inst.matroid)


def _cmd_check(args) -> int:
    inst, names = _load_instance(args.instance)
    cond = ConditionId(args.theorem)
    if "h" in CONDITIONS[cond].needs:
        inst = dataclasses.replace(inst, h=_resolve_h(args, inst, names))
    verdict = evaluate(cond, inst, args.cap)
    if verdict.holds:
        _emit({"theorem": cond.value, "holds": True}, args)
        return EXIT_OK
    _emit({"theorem": cond.value, "holds": False,
           "witness": witness_to_doc(verdict.witness, names)}, args)
    return EXIT_FAIL


def _cmd_orient(args) -> int:
    inst, names = _load_instance(args.instance)
    h = _resolve_h(args, inst, names)
    f = inst.graph
    if args.engine == "edge":
        result = frank_orient(f, h, args.cap)
    else:
        result = mixed_orient(f, h, args.cap)
    if isinstance(result, Verdict):
        _emit({"oriented": False,
               "witness": witness_to_doc(result.witness, names)}, args)
        return EXIT_FAIL
    _emit({"oriented": True,
           "heads": [names[v] for v in result.heads]}, args)
    return EXIT_OK


def _packing_spec(name: str, inst: Instance) -> PackingSpec:
    if name in ("spanning", "reachability"):
        return PackingSpec(name, roots=inst.roots)
    if name in ("matroid_based", "matroid_reachability_based"):
        return PackingSpec(name, roots=inst.roots, matroid=inst.matroid)
    return PackingSpec("bounded_regular_limited", bounds=inst.bounds)


def _cmd_pack(args) -> int:
    inst, names = _load_instance(args.instance)
    if args.spec == "main":
        if inst.bounds is None:
            raise SchemaError("main needs bounds in the instance")
        result = main_pack(inst.graph, inst.bounds, args.cap)
    elif args.spec == "cor1":
        if inst.roots is None or inst.bounds is None or inst.bounds.k is None:
            raise SchemaError("cor1 needs roots and bounds.k in the instance")
        result = corollary1_pack(inst.graph, inst.roots, inst.bounds.k, args.cap)
    elif args.spec == "mrb_mixed":
        if inst.roots is None or inst.matroid is None:
            raise SchemaError("mrb_mixed needs roots and a matroid in the instance")
        result = mrb_mixed_pack(inst.graph, inst.roots, inst.matroid, args.cap)
    else:
        result = find_packing(inst.graph, _packing_spec(args.spec, inst), args.cap)
    if result is None:
        _emit({"feasible": False, "species": args.spec}, args)
        return EXIT_FAIL
    if isinstance(result, Verdict):
        _emit({"feasible": False, "species": args.spec,
               "witness": witness_to_doc(result.witness, names)}, args)
        return EXIT_FAIL
    doc = packing_to_doc(result, names)
    doc["species"] = args.spec
    _emit(doc, args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst, names = _load_instance(args.instance)
    packing = parse_packing(_load_json(args.packing), names)
    species = "bounded_regular_limited" if args.spec == "main" else args.spec
    try:
        verdict = verify_packing(inst.graph, packing,
                                 _packing_spec(species, inst), args.cap)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    if verdict.holds:
        _emit({"valid": True, "species": species}, args)
        return EXIT_OK
    _emit({"valid": False, "species": species,
           "witness": witness_to_doc(verdict.witness, names)}, args)
    return EXIT_FAIL


def _cmd_rank(args) -> int:
    inst, names = _load_instance(args.instance)
    idx = {v: i for i, v in enumerate(names)}
    if args.extended_k is not None:
        m = ExtendedHypergraphicMatroid(inst.graph, args.extended_k)
        if args.elements_file:
            doc = _load_json(args.elements_file)
            if not isinstance(doc, dict) or not isinstance(doc.get("elements"), list):
                raise SchemaError("elements file needs an elements list")
            elems = []
            for e in doc["elements"]:
                if not isinstance(e, list) or e[0] not in ("A", "E"):
                    raise SchemaError(f"bad extended element {e!r}")
                if e[0] == "A":
                    elems.append(("A", e[1]))
                else:
                    if e[2] not in idx:
                        raise SchemaError(f"unknown vertex {e[2]!r}")
                    elems.append(("E", e[1], idx[e[2]]))
            subset = frozenset(elems)
        else:
            subset = frozenset(m.ground)
        if not subset <= frozenset(m.ground):
            raise SchemaError("elements outside the extended ground")
        if args.formula:
            value = m.rank_by_partition_formula(subset, args.cap)
        else:
            value = m.rank(subset)
        _emit({"rank": value, "elements": len(subset)}, args)
        return EXIT_OK
    if inst.matroid is None:
        raise SchemaError("instance has no matroid; use --extended-k for the extended one")
    if args.elements_file:
        doc = _load_json(args.elements_file)
        if not isinstance(doc, dict) or not isinstance(doc.get("elements"), list):
            raise SchemaError("elements file needs an elements list")
        elems = []
        for e in doc["elements"]:
            if isinstance(e, str):
                e = [e, 0]
            if not isinstance(e, list) or len(e) != 2 or e[0] not in idx:
                raise SchemaError(f"bad root copy reference {e!r}")
            elems.append((idx[e[0]], e[1]))
        subset = frozenset(elems)
    else:
        subset = frozenset(inst.matroid.ground)
    if not subset <= frozenset(inst.matroid.ground):
        raise SchemaError("elements outside the matroid ground")
    _emit({"rank": inst.matroid.rank(subset), "elements": len(subset)}, args)
    return EXIT_OK


def _cmd_tpoly(args) -> int:
    inst, names = _load_instance(args.instance)
    t = build_t(inst.graph, inst.bounds)
    if args.point:
        point = find_integer_point(t, args.cap)
        if point is not None:
            _emit({"feasible": True,
                   "point": [_elem_doc(e, names) for e in sorted(point, key=repr)]},
                  args)
            return EXIT_OK
        verdict = feasible(t, args.cap)
        doc = {"feasible": False}
        if verdict.witness is not None:
            doc["witness"] = witness_to_doc(verdict.witness, names)
        _emit(doc, args)
        return EXIT_FAIL
    verdict = feasible(t, args.cap)
    if verdict.holds:
        _emit({"feasible": True}, args)
        return EXIT_OK
    _emit({"feasible": False,
           "witness": witness_to_doc(verdict.witness, names)}, args)
    return EXIT_FAIL


def _cmd_fuzz(args) -> int:
    suites = args.suite if args.suite else None
    report = run_fuzz(args.seed, count=args.count, n_max=args.n_max,
                      cap=args.cap, suites=suites)
    if args.counterexamples:
        os.makedirs(args.counterexamples, exist_ok=True)
        for name, suite_report in report["suites"].items():
            for ce in suite_report["mismatches"]:
                path = os.path.join(args.counterexamples, f"ce_{name}_{ce['id']}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(ce["instance"], handle, sort_keys=True, indent=2)
    if args.output == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for name, suite_report in sorted(report["suites"].items()):
            print(f"{name}: checked={suite_report['checked']} "
                  f"skipped={suite_report['skipped']} "
                  f"mismatches={len(suite_report['mismatches'])}")
        print("ok" if report["ok"] else "MISMATCH")
    return EXIT_OK if report["ok"] else EXIT_FAIL


def _build_parser(default_cap: int | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arbopack",
        description="Packings of arborescences and hyperarborescences: "
                    "conditions, orientations, polyhedra and brute-force search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True):
        if instance:
            p.add_argument("--instance", required=True, help="instance JSON file")
        p.add_argument("--cap", type=int, default=default_cap,
                       help="enumeration cap (default from ARBOPACK_CAP)")
        p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="evaluate a packing/orientation condition")
    p.add_argument("--theorem", required=True,
                   choices=[c.value for c in CONDITIONS])
    p.add_argument("--h", choices=("matroid", "table"), default="matroid",
                   help="where orientation demands come from")
    p.add_argument("--h-table", help="set function JSON file for --h table")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("orient", help="orient the undirected elements")
    p.add_argument("--h", choices=("matroid", "table"), default="matroid")
    p.add_argument("--h-table", help="set function JSON file for --h table")
    p.add_argument("--engine", choices=("mixed", "edge"), default="mixed")
    common(p)
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("pack", help="find a packing")
    p.add_argument("--spec", required=True,
                   choices=SPECIES + _PIPELINES)
    common(p)
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("verify", help="verify a packing file")
    p.add_argument("--packing", required=True, help="packing JSON file")
    p.add_argument("--spec", required=True,
                   choices=SPECIES + ("main",))
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rank", help="matroid rank of an element set")
    p.add_argument("--elements-file", help="JSON file with an elements list")
    p.add_argument("--extended-k", type=int,
                   help="rank in the k-th extended hypergraphic matroid of the instance graph")
    p.add_argument("--formula", action="store_true",
                   help="use the partition minimum instead of the independence search")
    common(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("tpoly", help="feasibility or an integer point of the packing polyhedron")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--point", action="store_true")
    group.add_argument("--feasible", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_tpoly)

    p = sub.add_parser("fuzz", help="run the differential suites")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--suite", action="append", choices=SUITES,
                   help="repeatable; default all suites")
    p.add_argument("--counterexamples", help="directory for replayable instance files")
    common(p, instance=False)
    p.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv=None) -> int:
    env_cap = os.environ.get("ARBOPACK_CAP")
    try:
        default_cap = int(env_cap) if env_cap else None
    except ValueError:
        print(f"error: ARBOPACK_CAP must be an integer, not {env_cap!r}", file=sys.stderr)
        return EXIT_USAGE
    parser = _build_parser(default_cap)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if args.cap is not None and args.cap < 1:
        print("cap must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError:
        print("error: enumeration cap exceeded", file=sys.stderr)
        return EXIT_CAP
    except PropertyViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
