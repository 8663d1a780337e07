"""The package's import structure: the verifier stays a small trusted core.

`verifier` rechecks decompositions from their wire form, so it must not rest
on the engine that produced them.  These checks read the import statements
of every module in the package with `ast`, without importing anything.
"""

import ast
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
