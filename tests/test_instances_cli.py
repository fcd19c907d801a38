"""JSON schema round-trips and the command line front end."""
import json

import pytest

import arbopack.cli
import arbopack.gpoly
from arbopack import (
    SCHEMA_VERSION,
    SchemaError,
    instance_to_doc,
    packing_to_doc,
    parse_instance,
    parse_extended_elements,
    parse_packing,
    parse_root_copies,
    parse_set_function,
    set_function_to_doc,
)
from arbopack.cli import EXIT_CAP, EXIT_FAIL, EXIT_OK, EXIT_PROPERTY, EXIT_USAGE, main
from arbopack.packing import ROUTES


def base_doc(**extra):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "vertices": ["a", "b", "c"],
        "hyperedges": [["a", "b"]],
        "dyperedges": [{"tails": ["a"], "head": "b"},
                       {"tails": ["b", "c"], "head": "a"}],
    }
    doc.update(extra)
    return doc


class TestInstanceRoundTrip:
    def test_plain_graph(self):
        doc = base_doc()
        inst, names = parse_instance(doc)
        assert names == ("a", "b", "c")
        assert inst.graph.n == 3
        again = instance_to_doc(inst, names)
        inst2, names2 = parse_instance(again)
        assert inst2.graph == inst.graph and names2 == names

    def test_roots_and_bounds(self):
        doc = base_doc(
            roots={"a": 2, "c": 1},
            bounds={"f": 0, "g": {"a": 2, "b": 1, "c": 1},
                    "k": 2, "l": 1, "lprime": 3},
        )
        inst, names = parse_instance(doc)
        assert inst.roots.counts == (2, 0, 1)
        assert inst.bounds.f == (0, 0, 0)
        assert inst.bounds.g == (2, 1, 1)
        doc2 = instance_to_doc(inst, names)
        inst2, _ = parse_instance(doc2)
        assert inst2 == inst

    def test_matroid_kinds_round_trip(self):
        kinds = [
            {"kind": "free"},
            {"kind": "uniform", "r": 1},
            {"kind": "partition", "blocks": [[["a", 0], ["a", 1]], [["c", 0]]],
             "capacities": [1, 1]},
            {"kind": "explicit", "independent_sets": [[], [["a", 0]], [["c", 0]]]},
        ]
        for mdoc in kinds:
            doc = base_doc(roots={"a": 2, "c": 1}, matroid=mdoc)
            inst, names = parse_instance(doc)
            doc2 = instance_to_doc(inst, names)
            inst2, _ = parse_instance(doc2)
            assert inst2.matroid.rank(inst.roots.copies()) == \
                inst.matroid.rank(inst2.roots.copies())

    def test_hypergraphic_matroid(self):
        doc = base_doc(
            roots={"a": 1, "b": 1},
            matroid={"kind": "hypergraphic",
                     "vertex_sets": [
                         {"element": "a", "vertices": ["a", "b"]},
                         {"element": "b", "vertices": ["b", "c"]},
                     ]},
        )
        inst, names = parse_instance(doc)
        assert inst.matroid.rank(inst.roots.copies()) == 2
        doc2 = instance_to_doc(inst, names)
        inst2, _ = parse_instance(doc2)
        assert inst2.matroid.rank(inst2.roots.copies()) == 2

    def test_ksum_and_extended(self):
        doc = base_doc(
            roots={"a": 1},
            matroid={"kind": "ksum", "k": 2,
                     "inner": {"kind": "uniform", "r": 1}},
        )
        inst, _ = parse_instance(doc)
        assert inst.matroid.rank(inst.roots.copies()) == 1
        doc = base_doc(matroid={"kind": "extended", "k": 1}, roots={"a": 1})
        inst, names = parse_instance(doc)
        ground = inst.matroid.ground
        assert ("A", 0) in ground and ("E", 0, 0) in ground
        doc2 = instance_to_doc(inst, names)
        inst2, _ = parse_instance(doc2)
        assert inst2.matroid.ground == ground


class TestSchemaErrors:
    def test_unknown_top_key(self):
        with pytest.raises(SchemaError):
            parse_instance(base_doc(surprise=1))

    def test_wrong_version(self):
        with pytest.raises(SchemaError):
            parse_instance(base_doc(schema_version=99))

    def test_duplicate_vertex(self):
        doc = base_doc()
        doc["vertices"] = ["a", "a", "b"]
        with pytest.raises(SchemaError):
            parse_instance(doc)

    def test_unknown_vertex_in_edge(self):
        doc = base_doc()
        doc["hyperedges"] = [["a", "zz"]]
        with pytest.raises(SchemaError):
            parse_instance(doc)

    def test_head_among_tails(self):
        doc = base_doc()
        doc["dyperedges"] = [{"tails": ["a", "b"], "head": "a"}]
        with pytest.raises(SchemaError):
            parse_instance(doc)

    def test_negative_root_count(self):
        with pytest.raises(SchemaError):
            parse_instance(base_doc(roots={"a": -1}))

    def test_bad_copy_ref(self):
        doc = base_doc(roots={"a": 1},
                       matroid={"kind": "partition",
                                "blocks": [[["a", 5]]], "capacities": [1]})
        with pytest.raises(SchemaError):
            parse_instance(doc)

    def test_unknown_bounds_field(self):
        with pytest.raises(SchemaError):
            parse_instance(base_doc(bounds={"f": 0, "g": 1, "k": 1, "zz": 2}))

    def test_extended_k_zero(self):
        with pytest.raises(SchemaError):
            parse_instance(base_doc(matroid={"kind": "extended", "k": 0},
                                    roots={"a": 1}))


MALFORMED = {
    "hyperedges-not-list": {"hyperedges": 5},
    "dyperedges-not-list": {"dyperedges": {"tails": ["a"], "head": "b"}},
    "tails-not-list": {"dyperedges": [{"tails": 5, "head": "b"}]},
    "tails-string": {"dyperedges": [{"tails": "ac", "head": "b"}]},
    "root-count-true": {"roots": {"a": True}},
    "bound-k-true": {"bounds": {"f": 0, "g": 1, "k": True}},
    "bound-scalar-false": {"bounds": {"f": False, "g": 1, "k": 1}},
    "bound-map-true": {"bounds": {"f": 0, "g": {"a": True}, "k": 1}},
    "partition-block-not-list": {"matroid": {"kind": "partition", "blocks": [5],
                                             "capacities": [1]}},
    "hypergraphic-vertices-not-list": {"matroid": {"kind": "hypergraphic", "vertex_sets": [
        {"element": "a", "vertices": 5}]}},
    "explicit-set-not-list": {"matroid": {"kind": "explicit", "independent_sets": [5]}},
}
# a member's picks that are not a list
MALFORMED_PICKS = (5, None)


class TestMalformedDocuments:
    """Wrongly typed fields are schema errors: exit 2 with an error line,
    never a traceback, and never read as some other value."""

    @staticmethod
    def doc(extra):
        """A digraph edmonds accepts, with one field replaced."""
        return {"schema_version": SCHEMA_VERSION, "vertices": ["a", "b", "c"],
                "dyperedges": [{"tails": ["a"], "head": "b"}], "roots": {"a": 1}, **extra}

    @pytest.mark.parametrize("extra", MALFORMED.values(), ids=MALFORMED.keys())
    def test_schema_error(self, extra):
        with pytest.raises(SchemaError):
            parse_instance(self.doc(extra))

    @pytest.mark.parametrize("extra", MALFORMED.values(), ids=MALFORMED.keys())
    def test_cli_exits_2(self, extra, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(json.dumps(self.doc(extra)))
        assert main(["check", "--theorem", "edmonds", "--instance", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_set_function_set_not_list(self, tmp_path, capsys):
        table = {"values": [{"set": 5, "value": 0}]}
        with pytest.raises(SchemaError, match="sets must be lists"):
            parse_set_function(table, ("a", "b", "c"))
        inst, h = tmp_path / "i.json", tmp_path / "h.json"
        inst.write_text(json.dumps(self.doc({})))
        h.write_text(json.dumps(table))
        argv = ["orient", "--h", "table", "--h-table", str(h), "--instance", str(inst)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @staticmethod
    def packing_doc(picks):
        return {"schema_version": SCHEMA_VERSION, "members": [{"root": "a", "picks": picks}]}

    @pytest.mark.parametrize("picks", MALFORMED_PICKS, ids=[str(p) for p in MALFORMED_PICKS])
    def test_packing_picks_schema_error(self, picks):
        with pytest.raises(SchemaError):
            parse_packing(self.packing_doc(picks), ("a", "b", "c"))

    @pytest.mark.parametrize("picks", MALFORMED_PICKS, ids=[str(p) for p in MALFORMED_PICKS])
    def test_verify_picks_exits_2(self, picks, tmp_path, capsys):
        inst, pack = tmp_path / "i.json", tmp_path / "p.json"
        inst.write_text(json.dumps(self.doc({})))
        pack.write_text(json.dumps(self.packing_doc(picks)))
        argv = ["verify", "--spec", "spanning", "--instance", str(inst), "--packing", str(pack)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


NAMES = ("a", "b", "c")


def packing_doc(top=(), member=(), pick=()):
    """A one-member, one-pick packing document with extra keys."""
    return {"schema_version": SCHEMA_VERSION, **dict(top), "members": [
        {"root": "a", **dict(member),
         "picks": [{"kind": "A", "index": 0, "tail": "a", "head": "b", **dict(pick)}]}]}


def hypergraphic_doc(**extra):
    return base_doc(roots={"a": 1}, matroid={"kind": "hypergraphic", "vertex_sets": [
        {"element": "a", "vertices": ["a", "b"], **extra}]})


def _value_table(**extra):
    return {"values": [{"set": [], "value": 0, **extra}, {"set": ["a"], "value": 1}]}


# one object with an unknown key per JSON object reader
UNKNOWN_KEYS = {
    "instance": lambda: parse_instance(base_doc(surprise=1)),
    "bounds": lambda: parse_instance(base_doc(bounds={"f": 0, "g": 1, "k": 1, "zz": 2})),
    "dyperedge": lambda: parse_instance(base_doc(
        dyperedges=[{"tails": ["a"], "head": "b", "weight": 3}])),
    "matroid": lambda: parse_instance(base_doc(
        roots={"a": 1}, matroid={"kind": "uniform", "r": 1, "rank": 1})),
    "inner-matroid": lambda: parse_instance(base_doc(
        roots={"a": 1}, matroid={"kind": "ksum", "k": 2, "inner": {"kind": "free", "r": 1}})),
    "extended-matroid": lambda: parse_instance(base_doc(matroid={"kind": "extended", "k": 1,
                                                                 "r": 1})),
    "vertex-sets-entry": lambda: parse_instance(hypergraphic_doc(weight=1)),
    "packing": lambda: parse_packing(packing_doc(top={"extra": 1}), NAMES),
    "member": lambda: parse_packing(packing_doc(member={"pics": []}), NAMES),
    "pick": lambda: parse_packing(packing_doc(pick={"weight": 1}), NAMES),
    "root-copies": lambda: parse_root_copies({"elements": [], "extra": 1}, NAMES,
                                             parse_instance(base_doc(roots={"a": 1}))[0].roots),
    "extended-elements": lambda: parse_extended_elements({"elements": [], "extra": 1}, NAMES),
    "set-function": lambda: parse_set_function({**_value_table(), "label": "h"}, ("a",)),
    "value-entry": lambda: parse_set_function(_value_table(weight=1), ("a",)),
}


class TestUnknownKeys:
    """Every JSON object reader rejects keys it does not know, instead of
    dropping them: a misspelled key is an input error, not a default."""

    @pytest.mark.parametrize("parse", UNKNOWN_KEYS.values(), ids=UNKNOWN_KEYS.keys())
    def test_schema_error(self, parse):
        with pytest.raises(SchemaError, match="unknown .* fields"):
            parse()

    def test_known_keys_still_parse(self):
        assert parse_instance(hypergraphic_doc())[0].matroid.kind == "hypergraphic"
        assert len(parse_packing(packing_doc(member={"copy": 0}), NAMES).members) == 1
        assert parse_set_function(_value_table(), ("a",))(frozenset({0})) == 1

    def test_misspelled_picks_exits_2(self, tmp_path, capsys):
        inst, pack = tmp_path / "i.json", tmp_path / "p.json"
        inst.write_text(json.dumps(base_doc(roots={"a": 1})))
        pack.write_text(json.dumps({"members": [{"root": "a", "pics": []}], "extra": 1}))
        argv = ["verify", "--spec", "spanning", "--instance", str(inst), "--packing", str(pack)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: unknown packing fields ['extra']")


@pytest.mark.parametrize("caps", [[1.5], ["1"], [True], [-1]], ids=["float", "string", "bool", "negative"])
def test_partition_capacities_are_nonnegative_integers(caps):
    doc = base_doc(roots={"a": 1}, matroid={"kind": "partition", "blocks": [["a"]],
                                            "capacities": caps})
    with pytest.raises(SchemaError, match="capacities, integers at least 0"):
        parse_instance(doc)


class TestPackingDocs:
    def test_round_trip(self):
        doc = base_doc(roots={"a": 1})
        inst, names = parse_instance(doc)
        pdoc = {
            "schema_version": SCHEMA_VERSION,
            "members": [
                {"root": "a", "copy": 0,
                 "picks": [{"kind": "E", "index": 0,
                            "tail": "a", "head": "b"}]},
            ]
        }
        packing = parse_packing(pdoc, names)
        assert packing.members[0].picks[0].kind == "E"
        again = packing_to_doc(packing, names)
        packing2 = parse_packing(again, names)
        assert packing2 == packing

    def test_out_of_range_index_caught_at_verify(self):
        from arbopack import PackingSpec, RootMultiset, verify

        inst, names = parse_instance(base_doc(roots={"a": 1}))
        pdoc = {"schema_version": SCHEMA_VERSION,
                "members": [{"root": "a",
                             "picks": [{"kind": "E", "index": 9,
                                        "tail": "a", "head": "b"}]}]}
        packing = parse_packing(pdoc, names)
        with pytest.raises(ValueError):
            verify(inst.graph, packing,
                   PackingSpec("spanning", roots=RootMultiset((1, 0, 0))))

    def test_wrong_version_rejected(self):
        with pytest.raises(SchemaError):
            parse_packing({"schema_version": 9, "members": []}, ("a",))
        # omitted version means the current one
        assert parse_packing({"members": []}, ("a",)).members == ()


class TestSetFunctionDocs:
    def test_round_trip(self):
        from arbopack import SetFunctionOracle, subsets

        h = SetFunctionOracle.from_table(
            2, {x: len(x) for x in subsets(range(2))} | {frozenset(): 0})
        doc = set_function_to_doc(h, ("a", "b"))
        h2 = parse_set_function(doc, ("a", "b"))
        for x in subsets(range(2)):
            assert h(x) == h2(x)

    def test_requires_full_coverage(self):
        with pytest.raises(SchemaError):
            parse_set_function({"values": [{"set": [], "value": 0}]}, ("a", "b"))


@pytest.fixture
def write_json(tmp_path):
    def go(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return go


def two_isolated():
    return {
        "schema_version": SCHEMA_VERSION,
        "vertices": ["a", "b"],
        "roots": {"a": 1},
    }


def feasible_main():
    return {
        "schema_version": SCHEMA_VERSION,
        "vertices": ["a", "b", "c"],
        "hyperedges": [["a", "b"]],
        "dyperedges": [{"tails": ["a"], "head": "b"},
                       {"tails": ["b"], "head": "c"},
                       {"tails": ["c"], "head": "a"}],
        "bounds": {"f": 0, "g": 1, "k": 1, "l": 1, "lprime": 1},
    }


class TestCli:
    def test_check_edmonds_witness(self, write_json, capsys):
        path = write_json("i.json", two_isolated())
        code = main(["check", "--theorem", "edmonds", "--instance", path,
                     "--output", "json"])
        assert code == EXIT_FAIL
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is False
        assert report["witness"]["X"] == ["b"]

    def test_check_main_holds(self, write_json, capsys):
        path = write_json("i.json", feasible_main())
        code = main(["check", "--theorem", "main", "--instance", path])
        assert code == EXIT_OK
        assert "holds" in capsys.readouterr().out

    def test_pack_verify_round_trip(self, write_json, capsys, tmp_path):
        """Every name pack takes, verify takes too, and it accepts the
        document pack wrote under that name."""
        verified = {"main": "bounded_regular_limited", "cor1": "bounded_regular_limited",
                    "mrb_mixed": "matroid_reachability_based"}
        for spec in ROUTES:
            doc = feasible_main()
            doc["roots"] = {"a": 1}
            doc["matroid"] = {"kind": "free"}
            if spec == "cor1":
                doc["hyperedges"] = []  # cor1 packs a dypergraph
            path = write_json(f"{spec}.json", doc)
            code = main(["pack", "--spec", spec, "--instance", path,
                         "--output", "json"])
            assert code == EXIT_OK, spec
            packing_doc = json.loads(capsys.readouterr().out)
            assert packing_doc["species"] == spec
            ppath = tmp_path / f"{spec}.packing.json"
            ppath.write_text(json.dumps(packing_doc))
            code = main(["verify", "--spec", spec, "--instance", path,
                         "--packing", str(ppath), "--output", "json"])
            assert code == EXIT_OK, spec
            report = json.loads(capsys.readouterr().out)
            assert report == {"valid": True, "species": spec,
                              "checked_species": verified.get(spec, spec)}

    def test_pack_infeasible_reports_witness(self, write_json, capsys):
        doc = feasible_main()
        doc["bounds"]["f"] = 1
        doc["dyperedges"] = []
        doc["hyperedges"] = []
        path = write_json("i.json", doc)
        code = main(["pack", "--spec", "main", "--instance", path,
                     "--output", "json"])
        assert code == EXIT_FAIL
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is False and "witness" in report

    def test_orient_mixed(self, write_json, capsys):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "vertices": ["a", "b"],
            "hyperedges": [["a", "b"]],
            "roots": {"a": 1},
            "matroid": {"kind": "free"},
        }
        path = write_json("i.json", doc)
        code = main(["orient", "--instance", path, "--output", "json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report == {"oriented": True, "heads": ["b"]}

    def test_orient_edge_engine_table(self, write_json, capsys):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "vertices": ["a", "b"],
            "hyperedges": [["a", "b"]],
        }
        hdoc = {"values": [
            {"set": [], "value": 0},
            {"set": ["a"], "value": 1},
            {"set": ["b"], "value": -5},
            {"set": ["a", "b"], "value": 0},
        ]}
        path = write_json("i.json", doc)
        hpath = write_json("h.json", hdoc)
        code = main(["orient", "--engine", "edge", "--h", "table",
                     "--h-table", hpath, "--instance", path,
                     "--output", "json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report == {"oriented": True, "heads": ["a"]}

    def test_rank_command(self, write_json, capsys):
        doc = two_isolated()
        doc["roots"] = {"a": 2, "b": 1}
        doc["matroid"] = {"kind": "uniform", "r": 2}
        path = write_json("i.json", doc)
        elems = write_json("e.json", {"elements": [["a", 0], ["a", 1], ["b", 0]]})
        code = main(["rank", "--instance", path, "--elements-file", elems,
                     "--output", "json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rank"] == 2

    def test_rank_extended_formula(self, write_json, capsys):
        path = write_json("i.json", feasible_main())
        code = main(["rank", "--instance", path, "--extended-k", "1",
                     "--formula", "--output", "json"])
        assert code == EXIT_OK
        by_formula = json.loads(capsys.readouterr().out)["rank"]
        code = main(["rank", "--instance", path, "--extended-k", "1",
                     "--output", "json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rank"] == by_formula

    def test_rank_formula_needs_extended_k(self, write_json, capsys):
        doc = two_isolated()
        doc["matroid"] = {"kind": "uniform", "r": 1}
        path = write_json("i.json", doc)
        assert main(["rank", "--instance", path, "--formula"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --formula needs --extended-k\n"

    @pytest.mark.parametrize("element", [["E", 0], [], ["A", [1]]])
    def test_rank_extended_malformed_element(self, write_json, capsys, element):
        path = write_json("i.json", feasible_main())
        elems = write_json("e.json", {"elements": [element]})
        code = main(["rank", "--instance", path, "--extended-k", "1",
                     "--elements-file", elems])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: bad extended element")

    @pytest.mark.parametrize("spec, drop", [
        ("main", "bounds"), ("cor1", "bounds"), ("cor1", "roots"),
        ("mrb_mixed", "matroid"), ("mrb_mixed", "roots"),
    ])
    def test_pack_pipeline_missing_input(self, write_json, capsys, spec, drop):
        doc = feasible_main()
        doc["hyperedges"] = [] if spec == "cor1" else doc["hyperedges"]
        doc["roots"] = {"a": 1}
        doc["matroid"] = {"kind": "free"}
        del doc[drop]
        if drop == "roots":
            del doc["matroid"]  # a matroid on root copies needs the roots
        path = write_json("i.json", doc)
        ppath = write_json("p.json", {"schema_version": SCHEMA_VERSION, "members": []})
        for argv in (["pack"], ["verify", "--packing", ppath]):
            assert main([*argv, "--spec", spec, "--instance", path]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")

    def test_tpoly_point(self, write_json, capsys):
        path = write_json("i.json", feasible_main())
        code = main(["tpoly", "--point", "--instance", path,
                     "--output", "json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is True and "point" in report

    @pytest.mark.parametrize("flags", [["--point"], []], ids=["point", "plain"])
    def test_tpoly_empty_reports_witness(self, write_json, capsys, monkeypatch, flags):
        calls = []
        original = arbopack.gpoly.feasible

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(arbopack.gpoly, "feasible", counted)
        monkeypatch.setattr(arbopack.cli, "feasible", counted)
        # two vertices and no elements, but k * n - lprime = 1 vertex must
        # be entered by an element: T is empty
        doc = {"schema_version": SCHEMA_VERSION, "vertices": ["a", "b"],
               "bounds": {"f": 1, "g": 1, "k": 1, "l": 1, "lprime": 1}}
        path = write_json("i.json", doc)
        code = main(["tpoly", *flags, "--instance", path, "--output", "json"])
        assert code == EXIT_FAIL
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is False
        assert report["witness"]["kind"] == "ground_subset"
        assert len(calls) == 1

    def test_tpoly_feasible_flag_is_gone(self, write_json, capsys):
        # tpoly without --point already runs the emptiness test
        path = write_json("i.json", feasible_main())
        assert main(["tpoly", "--feasible", "--instance", path]) == EXIT_USAGE
        assert "--feasible" in capsys.readouterr().err

    def test_malformed_json_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["check", "--theorem", "edmonds",
                     "--instance", str(path)]) == EXIT_USAGE

    def test_missing_required_field_usage_error(self, write_json):
        path = write_json("i.json", {"schema_version": SCHEMA_VERSION,
                                     "vertices": ["a"]})
        assert main(["check", "--theorem", "edmonds",
                     "--instance", path]) == EXIT_USAGE

    def test_unknown_theorem_usage_error(self, write_json):
        path = write_json("i.json", two_isolated())
        assert main(["check", "--theorem", "nonsense",
                     "--instance", path]) == EXIT_USAGE

    def test_cap_exceeded(self, write_json):
        path = write_json("i.json", feasible_main())
        assert main(["check", "--theorem", "main", "--instance", path,
                     "--cap", "1"]) == EXIT_CAP

    def test_cap_zero_rejected(self, write_json, capsys):
        path = write_json("i.json", feasible_main())
        assert main(["check", "--theorem", "main", "--instance", path,
                     "--cap", "0"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: cap must be at least 1\n"

    def test_env_cap(self, write_json, monkeypatch):
        monkeypatch.setenv("ARBOPACK_CAP", "1")
        path = write_json("i.json", feasible_main())
        assert main(["check", "--theorem", "main",
                     "--instance", path]) == EXIT_CAP

    def test_bad_env_cap_is_a_usage_error(self, write_json, monkeypatch, capsys):
        monkeypatch.setenv("ARBOPACK_CAP", "abc")
        path = write_json("i.json", feasible_main())
        assert main(["check", "--theorem", "main",
                     "--instance", path]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ARBOPACK_CAP")

    def test_broken_property_has_its_own_exit_code(self, write_json, capsys):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "vertices": ["a", "b", "c"],
            "hyperedges": [["a", "b"], ["b", "c"]],
        }
        # h(ab) + h(bc) = 2 > h(b) + h(abc) = 0: not intersecting supermodular
        values = {"ab": 1, "bc": 1}
        hdoc = {"values": [{"set": list(x), "value": values.get("".join(x), 0)}
                           for x in ("", "a", "b", "c", "ab", "ac", "bc", "abc")]}
        path = write_json("i.json", doc)
        hpath = write_json("h.json", hdoc)
        code = main(["orient", "--engine", "edge", "--h", "table",
                     "--h-table", hpath, "--instance", path])
        assert code == EXIT_PROPERTY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: h is not intersecting supermodular")

    def test_nonzero_whole_set_demand_is_a_usage_error(self, write_json, capsys):
        """frank_orient's input rules hold for the condition and the edge
        engine alike: h(V) = 1 on one edge is bad input, not a broken
        property."""
        doc = {"schema_version": SCHEMA_VERSION, "vertices": ["a", "b"],
               "hyperedges": [["a", "b"]]}
        hdoc = {"values": [{"set": [], "value": 0}, {"set": ["a"], "value": 0},
                           {"set": ["b"], "value": 0}, {"set": ["a", "b"], "value": 1}]}
        path = write_json("i.json", doc)
        hpath = write_json("h.json", hdoc)
        for argv in (["check", "--theorem", "frank_orient"], ["orient", "--engine", "edge"]):
            code = main([*argv, "--h", "table", "--h-table", hpath, "--instance", path])
            assert code == EXIT_USAGE, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: frank_orient needs h(V) = 0\n"

    def test_fuzz_small_run(self, capsys):
        code = main(["fuzz", "--seed", "1", "--count", "5", "--n-max", "3",
                     "--suite", "kiraly_gy", "--output", "json"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["suites"]["kiraly_gy"]["mismatches"] == []

    def test_fuzz_writes_counterexamples_dir(self, tmp_path, capsys):
        out = tmp_path / "ce"
        code = main(["fuzz", "--seed", "2", "--count", "3", "--n-max", "3",
                     "--suite", "edmonds_oracle",
                     "--counterexamples", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("flag, value, name", [
        ("--count", "-3", "count"), ("--count", "0", "count"), ("--n-max", "0", "n_max"),
    ])
    def test_fuzz_rejects_empty_runs(self, capsys, flag, value, name):
        assert main(["fuzz", "--seed", "1", flag, value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} must be at least 1, not {value}\n"

    def test_verify_rejects_wrong_packing(self, write_json, capsys):
        path = write_json("i.json", feasible_main())
        ppath = write_json("p.json", {"schema_version": SCHEMA_VERSION,
                                      "members": []})
        code = main(["verify", "--spec", "main", "--instance", path,
                     "--packing", ppath, "--output", "json"])
        assert code == EXIT_FAIL
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
