"""No module imports a name it never uses.

No linter ships with the project, so this walks the syntax tree of every
module in src/, tests/ and demos/.  A renamed or deleted export can hide
behind a dead import line; the package __init__ is exempt, since its
imports are its exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py")
                 if p != ROOT / "src" / "hilbert_mfg" / "__init__.py")


def unused_imports(source):
    """Names an import binds in source that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_scan_sees_used_and_unused_names():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d\nimport x.y\n"
              "np.zeros(c)\nx.y.z()\n")
    assert unused_imports(source) == [(1, "os"), (3, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []
