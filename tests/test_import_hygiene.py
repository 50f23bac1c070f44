"""Every name a package module imports is referenced in that module.

No linter ships with the project, so this is the check that keeps a
deletion from leaving an import behind.  The package's __init__.py is
exempt (its imports are the re-exports), and so is an import statement
marked `# noqa: F401`: a name bound for an outside reader on purpose.
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
