"""The README's name lists and the benchmark's trace hooks follow the
library, and no module imports a name it does not use."""
import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

from arbopack import SetFunctionOracle, TPolyhedron
from arbopack.conditions import CONDITIONS
from arbopack.fuzz import SUITES
from arbopack.packing import SPECIES

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


def test_readme_lists_every_fuzz_suite():
    names = _readme_names(r"Run the differential fuzz suites \((.*?)\)")
    assert names == list(SUITES)


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
