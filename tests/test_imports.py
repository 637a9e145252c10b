"""No module imports a name it never uses.

No linter runs on this repository, so this AST scan stands in for one on
src/, tests/ and scripts/: every name an import statement binds must be
read somewhere in the same file, or be listed in its `__all__`.
`from __future__ import ...` binds nothing and is skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path
    for folder in ("src", "tests", "scripts")
    for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value for elt in getattr(node.value, "elts", [])
                if isinstance(elt, ast.Constant)
            )
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from x import a, b as c\n"
        "from y import d\n"
        "__all__ = ['d']\n"
        "np.zeros(a)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "c")]
