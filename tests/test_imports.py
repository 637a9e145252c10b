"""What the program imports.

No module imports a name it never uses: no linter runs on this
repository, so an AST scan stands in for one on src/, tests/ and
scripts/: every name an import statement binds must be read somewhere in
the same file, or be listed in its `__all__`.
`from __future__ import ...` binds nothing and is skipped.

The runtime needs numpy alone: sympy is a test oracle, and neither
importing the program nor decomposing a module may load it.
"""

import ast
import os
import subprocess
import sys
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


def _run(code: str) -> str:
    """Run code in a fresh interpreter that finds src/ and tests/."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", ["arquiver", "arquiver.cli"])
def test_importing_the_program_leaves_sympy_out(module):
    out = _run(f"import sys, {module}; print('sympy' in sys.modules)")
    assert out.strip() == "False"


def test_decompose_runs_where_sympy_cannot_be_imported():
    # P(1)^2 + P(2) over the Kronecker algebra at p = 32003, its blocks
    # hidden by a change of basis, so that decompose must factor over F_p
    code = (
        "import random, sys\n"
        "sys.modules['sympy'] = None\n"
        "from arquiver import corpus\n"
        "from arquiver.homological import proj\n"
        "from arquiver.rep import decompose, iso\n"
        "from test_end_algebra import hidden_sum\n"
        "alg = corpus.kronecker(32003)\n"
        "p1, p2 = proj(alg, 1), proj(alg, 2)\n"
        "m = hidden_sum([p1, p1, p2], random.Random(3))\n"
        "for s in decompose(m):\n"
        "    which = [v for v, q in ((1, p1), (2, p2)) if iso(s.rep, q) is not None]\n"
        "    print(s.multiplicity, which)\n"
    )
    assert sorted(_run(code).splitlines()) == ["1 [2]", "2 [1]"]
