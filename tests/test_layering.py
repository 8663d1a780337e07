"""The package's import structure: the verifier stays a small trusted core.

`verifier` rechecks decompositions from their wire form, so it must not rest
on the engine that produced them.  These checks read the import statements
of every module in the package with `ast`, without importing anything.  Three
more checks pin the public surface: `__all__` names exactly what the package
imports, every other public definition is used by the library, and the
README's `from freenil import *` example runs.
"""

import ast
import types
from collections import Counter
from pathlib import Path

import freenil

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


def test_verifier_does_not_reach_the_engine():
    seen, todo = set(), ["verifier"]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(_sibling_imports(TREES[name]))
    assert "decompose" not in seen, sorted(seen)


def test_jsonio_does_not_import_the_engine():
    assert "decompose" not in _sibling_imports(TREES["jsonio"])


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
