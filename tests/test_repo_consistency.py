"""The README's name lists and the benchmark's trace hooks follow the
library, the README's CLI examples print what it shows, and no module
imports a name it does not use."""
import ast
import importlib
import importlib.util
import inspect
import json
import re
import shlex
import textwrap
from pathlib import Path

from arbopack import SetFunctionOracle, TPolyhedron, cli
from arbopack.conditions import CONDITIONS
from arbopack.fuzz import SUITES
from arbopack.packing import ROUTES, SPECIES

ROOT = Path(__file__).resolve().parent.parent


def _readme_names(pattern: str) -> list[str]:
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    found = re.search(pattern, text)
    assert found, pattern
    return re.findall(r"`(\w+)`", found.group(1))


def test_readme_lists_every_condition():
    names = _readme_names(r"Check a feasibility condition \(names: (.*?)\):")
    assert names == [c.value for c in CONDITIONS]


def test_readme_lists_every_species():
    names = _readme_names(r"`--spec` takes a species \((.*?)\)")
    assert names == list(SPECIES)


def test_readme_lists_every_route():
    """pack and verify take the names of packing.ROUTES, and the README
    lists them in that order and says verify takes the same."""
    names = _readme_names(r"`--spec` takes a species \((.*?\) or a pipeline shorthand \(.*?)\)\.")
    assert names == list(ROUTES)
    assert _readme_names(r"`verify --spec` takes the same names as (`pack`)") == ["pack"]


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    """Every documented command on the demo instance exits 0 and prints
    the documented JSON."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    demo = re.search(r"An instance file:\n\n```json\n(.*?)```", text, re.S)
    (tmp_path / "demo.json").write_text(demo.group(1), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    ran = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        command, *shown = block.replace("\\\n", " ").splitlines()
        argv = shlex.split(command)
        if "demo.json" not in argv:
            continue
        redirect = argv.index(">") if ">" in argv else len(argv)
        assert cli.main(argv[1:redirect]) == cli.EXIT_OK, command
        printed = capsys.readouterr().out
        if redirect < len(argv):
            (tmp_path / argv[redirect + 1]).write_text(printed, encoding="utf-8")
        documented = "\n".join(line for line in shown if not line.startswith("cat "))
        assert json.loads(printed) == json.loads(documented), command
        ran.append(argv[1])
    assert ran == ["check", "orient", "pack", "verify", "rank", "tpoly"]


def test_readme_lists_every_fuzz_suite():
    names = _readme_names(r"Run the differential fuzz suites \((.*?)\)")
    assert names == list(SUITES)


def test_readme_lists_every_module():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    found = re.search(r"^## Library layout\n(.*?)^## ", text, re.M | re.S)
    assert found
    names = re.findall(r"^- `arbopack\.(\w+)`", found.group(1), re.M)
    modules = [p.stem for p in (ROOT / "src" / "arbopack").glob("*.py") if p.stem != "__init__"]
    assert sorted(names) == sorted(modules)


def test_traced_names_resolve():
    """Everything perfbench/spans.py wraps for `perfbench/run.py --trace 1`
    still exists under the module and name it looks up."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, modname, attr, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
    for _, modname, attr in spans.GENERATORS:
        fn = getattr(importlib.import_module(modname), attr, None)
        assert inspect.isgeneratorfunction(fn), (modname, attr)
    assert callable(vars(TPolyhedron).get("rank"))
    assert callable(vars(SetFunctionOracle).get("__call__"))


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.partition(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported if name not in used]


def test_every_import_is_used():
    paths = [p for p in sorted((ROOT / "src" / "arbopack").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    assert [bad for p in paths for bad in _unused_imports(p)] == []


def test_mask_layers_stay_on_masks():
    """The set-function checks, the orientation engines, the packing rules
    and search, and the matroid oracles work on vertex or ground masks;
    the frozenset enumerators and counters and RootMultiset.restrict are
    for the boundary."""
    frozenset_helpers = {"subsets", "subpartitions", "set_partitions", "in_degree",
                         "entering_count", "reach_to", "reach_from", "restrict"}
    called = []
    for name in ("setfuncs.py", "orientation.py", "packing.py", "matroids.py"):
        tree = ast.parse((ROOT / "src" / "arbopack" / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if callee in frozenset_helpers:
                    called.append(f"{name}:{node.lineno} {callee}")
    assert called == []


def _calls(fn) -> list[str]:
    """The names fn's source calls, as plain names or attributes."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return [node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))]


def test_subpartition_values_read_part_entering():
    """The subpartition values on disjoint parts read entering from
    structures.part_entering's table, not entering_mask."""
    subpartition_values = {check.value for rec in CONDITIONS.values() for check in rec.checks
                           if check.over.kind == "subpartition"}
    assert len(subpartition_values) == 5  # frank_mixed, frank_orient and three _bounded
    for fn in subpartition_values:
        calls = _calls(fn)
        assert "entering_mask" not in calls and "part_entering" in calls, fn.__name__
