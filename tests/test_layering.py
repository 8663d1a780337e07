"""The package's import structure: the verifier stays a small trusted core.

`verifier` rechecks decompositions from their wire form, so it must not rest
on the engine that produced them, the Lyndon code or the writer.  The
structural checks read the import statements of every module in the package
with `ast`, without importing anything; one more runs the verifier in a
process where only its modules can load.  Two more keep every command's cold
start cheap: no module imports `dataclasses` or `inspect`, and a fresh
`import freenil.cli` loads neither.  Three checks pin the public
surface: `__all__` names exactly what the package imports, every other
public definition is used by the library, and the README's
`from freenil import *` example runs.
"""

import ast
import hashlib
import json
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import freenil
from freenil.jsonio import dumps, report_payload
from freenil.records import VerifyReport

from test_wire_fixtures import DATA, FIXTURES, REPORTS, fixture_path

PACKAGE = Path(freenil.__file__).parent
TREES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in PACKAGE.glob("*.py")
}


def _sibling_imports(tree: ast.Module) -> set[str]:
    """Modules of this package named by `from .x import ...` or `from . import x`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_no_imports_inside_functions():
    found = []
    for name, tree in TREES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{name}.{fn.name} line {node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not found, found


def _closure(start: str) -> set[str]:
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_sibling_imports(TREES[name]))
    return seen


# the verifier's trusted core: every module it reaches by import
CORE = {"verifier", "records", "kernel", "reader", "ring", "intmat", "context", "errors"}


def test_verifier_does_not_reach_the_engine():
    # an exact set, so the core reaches none of decompose, lie, rng, endo,
    # jsonio or cli
    assert _closure("verifier") == CORE
    assert "decompose" not in CORE


def test_jsonio_does_not_import_the_engine():
    # the writer adds only itself and lie to the core
    assert _closure("jsonio") == CORE | {"jsonio", "lie"}


# costly to import, and the records need neither
COLD_START_FREE = {"dataclasses", "inspect"}


def _outside_imports(tree: ast.Module) -> set[str]:
    """Top-level packages named by `import x` or `from x import ...`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_no_module_imports_dataclasses_or_inspect():
    found = {
        name: sorted(_outside_imports(tree) & COLD_START_FREE)
        for name, tree in TREES.items()
    }
    assert not any(found.values()), found


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # measured against a bare interpreter, so a module that `site` already
    # loads here is not blamed on the package
    def loaded(statement: str) -> set[str]:
        code = (
            f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
            f"{statement}; print(' '.join(sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    added = loaded("import freenil.cli") - loaded("pass")
    assert "freenil.cli" in added
    assert not added & COLD_START_FREE, sorted(added & COLD_START_FREE)


def test_verifier_runs_on_the_core_alone():
    # a stub package stands in for freenil, so __init__ (which imports
    # everything) never runs; verifying every committed payload must load
    # exactly the core and give each fixture its pinned report, the version
    # 5 goldens included, whose collected images the core rebuilds itself,
    # and the version 6 ones, whose lifted pieces it builds from their terms
    code = (
        "import json, sys, types\n"
        "from pathlib import Path\n"
        "pkg = types.ModuleType('freenil')\n"
        f"pkg.__path__ = [{str(PACKAGE)!r}]\n"
        "sys.modules['freenil'] = pkg\n"
        "from freenil.verifier import verify_payload\n"
        "reports = {}\n"
        f"for path in Path({str(DATA)!r}).glob('v*/*.json'):\n"
        "    rep = verify_payload(json.loads(path.read_text(encoding='utf-8')))\n"
        "    reports[f'{path.parent.name}/{path.name}'] = {\n"
        "        'ok': rep.ok, 'factors': rep.factors,\n"
        "        'min_fixed_block': rep.min_fixed_block,\n"
        "        'max_coefficient': rep.max_coefficient, 'failures': rep.failures,\n"
        "    }\n"
        "loaded = [k[len('freenil.'):] for k in sys.modules if k.startswith('freenil.')]\n"
        "print(json.dumps({'loaded': loaded, 'reports': reports}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert set(out["loaded"]) == CORE
    assert len(out["reports"]) == len(FIXTURES) == 29
    assert sum(version == "v5" for version, _ in FIXTURES) == 5
    assert sum(version == "v6" for version, _ in FIXTURES) == 5
    for version, cell in FIXTURES:
        path = fixture_path(version, cell)
        fields = out["reports"][f"{version}/{path.name}"]
        report = VerifyReport(**{**fields, "failures": tuple(fields["failures"])})
        assert report.ok
        text = dumps(report_payload(report))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORTS[cell]


def test_all_lists_the_imported_names_and_no_modules():
    imported = {
        alias.asname or alias.name
        for node in TREES["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(freenil.__all__) == sorted(imported)
    for name in freenil.__all__:
        assert not isinstance(getattr(freenil, name), types.ModuleType), name


def test_readme_library_tour_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    assert example.startswith("from freenil import *\n")
    exec(compile(example, "README.md", "exec"), {})


def test_every_public_definition_is_called_or_exported():
    # a public module-level function or class earns its place by being named
    # in library code outside its own body, by being exported, or by being
    # the console entry point; helpers that only tests call live in tests
    def names(node):
        return {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }

    # top-level statements of the package that name each identifier
    naming = Counter(
        name for tree in TREES.values() for node in tree.body for name in names(node)
    )
    unused = [
        f"{module}.{node.name}"
        for module, tree in sorted(TREES.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in freenil.__all__
        and (module, node.name) != ("cli", "main")
        and naming[node.name] == (node.name in names(node))
    ]
    assert not unused, unused
