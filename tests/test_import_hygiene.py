"""Every name a package module imports is referenced in that module, and
every private module-level name is referenced somewhere in the package.

No linter ships with the project, so these are the checks that keep a
deletion from leaving an import or a private helper behind.  The
package's __init__.py is exempt from the first (its imports are the
re-exports), and so is an import statement marked `# noqa: F401`: a name
bound for an outside reader on purpose.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "overcong"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name the source never references."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A quoted annotation names its types inside a string.
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            notes = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_a_stranded_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "from math import gcd, lcm\n"
              "from sys import argv  # noqa: F401\n"
              "def f(x: 'np.ndarray') -> int:\n"
              "    return gcd(x, 2)\n")
    assert unused_imports(source) == [(2, "os"), (4, "lcm")]
    assert MODULES  # the package scan below must not come up empty


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_references(path):
    assert unused_imports(path.read_text()) == [], path.name


def private_definitions(tree: ast.Module) -> dict[str, tuple[int, int]]:
    """Each private (single-underscore) name a module defines at its top
    level: function, class or assignment, with the lines it spans."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = (node.lineno, node.end_lineno)
    return found


def stranded_helpers(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) for each private module-level name that no code in
    `sources` (module name -> source) reads outside its own definition:
    as a name, an attribute or an imported name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            reads.setdefault(name, []).append((module, node.lineno))
    return sorted((module, name) for module, tree in trees.items()
                  for name, (first, last) in private_definitions(tree).items()
                  if all(where == module and first <= line <= last
                         for where, line in reads.get(name, ())))


def test_the_check_finds_a_stranded_helper():
    sources = {
        "a": ("_LIMIT = 3\n"
              "_dead = 1\n"
              "def _used(x):\n"
              "    return x + _LIMIT\n"
              "def _recursive(n):\n"
              "    return _recursive(n - 1) if n else 0\n"
              "def public(x):\n"
              "    return _used(x)\n"
              "def _imported():\n"
              "    pass\n"
              "def _reached():\n"
              "    pass\n"),
        "b": ("from .a import _imported\n"
              "import a\n"
              "def g():\n"
              "    return a._reached\n"),
    }
    assert stranded_helpers(sources) == [("a", "_dead"), ("a", "_recursive")]


def test_no_private_helper_is_left_unreferenced():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    found = {name for tree in map(ast.parse, sources.values())
             for name in private_definitions(tree)}
    assert found  # the package scan must not come up empty
    assert stranded_helpers(sources) == []
