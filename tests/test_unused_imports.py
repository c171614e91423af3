"""No module imports a name it never uses, and no private helper is orphaned.

No linter ships with the project, so this walks the syntax tree of every
module in src/, tests/ and demos/.  A renamed or deleted export can hide
behind a dead import line; the package __init__ is exempt, since its
imports are its exports.  A module-level private function or class of src/
(a leading underscore, dunders exempt) must be read somewhere in src/, so
a helper that a refactor leaves without callers shows here.
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


def private_definitions(source):
    """(line, name) of each module-level private function and class."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def read_names(source):
    """Every name an expression reads, bare or as an attribute."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_the_scan_sees_read_and_orphaned_helpers():
    source = ("def _used():\n    pass\ndef _orphan():\n    pass\nclass _Cls:\n    pass\n"
              "def __dunder__():\n    pass\ndef public():\n    return _used() + m._Cls\n")
    read = read_names(source)
    assert [d for d in private_definitions(source) if d[1] not in read] == [(3, "_orphan")]


def test_every_private_helper_in_src_is_read():
    sources = {p: p.read_text() for p in (ROOT / "src").rglob("*.py")}
    read = set().union(*(read_names(text) for text in sources.values()))
    orphans = [(str(p.relative_to(ROOT)), line, name) for p, text in sorted(sources.items())
               for line, name in private_definitions(text) if name not in read]
    assert orphans == []
