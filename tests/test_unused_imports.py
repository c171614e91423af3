"""No module imports a name it never uses, no private helper or public
method is orphaned, no defaulted parameter is a knob that no caller sets,
and no parameter goes unread.

No linter ships with the project, so this walks the syntax tree of every
module in src/, tests/ and demos/.  A renamed or deleted export can hide
behind a dead import line; the package __init__ is exempt, since its
imports are its exports.  A module-level private function, class or
constant of src/ (a leading underscore, dunders exempt), and each private
method of a module-level class, must be read somewhere in src/, so a
helper, a constant or a method that a refactor leaves without readers
shows here.  Each public method of a module-level class of src/ must be
read somewhere in src/, tests/, demos/ or perfbench/, as an attribute, a
name or a string (the bench wraps methods it names by string), so a
method that a redesign replaces does not linger beside its successor.
A parameter with a default in a src/ function must be given, by keyword
or by position, by some call in src/, tests/ or demos/; calls are
matched by the called name alone, so a parameter that only a same-named
function's caller sets passes too.  Each parameter of a src/ function or
method must be read by its body (self, cls and lambdas exempt), unless a
same-named method of another src/ class reads it: a parameter that an
interface fixes need not be used by every implementation.  No module of
src/ imports scipy when it is imported: only a function body may, so that
the one caller that needs it (exact W1 on N >= 2 modes) pays for it.
cli.py owns no seed rule: it never imports rng and never calls
derive_seed, so every seed a command runs under is derived in the library.
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
    """(line, name) of each module-level private function, class and
    assigned name, and of each private method of a module-level class."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend((f.lineno, f.name) for f in node.body if isinstance(f, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((node.lineno, t.id) for t in targets if isinstance(t, ast.Name))
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def read_names(source):
    """Every name an expression reads, bare or as an attribute; a bare name
    that is only assigned is not read."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_the_scan_sees_read_and_orphaned_helpers():
    source = ("def _used():\n    pass\ndef _orphan():\n    pass\nclass _Cls:\n    pass\n"
              "def __dunder__():\n    pass\ndef public():\n    return _used() + m._Cls + _READ\n"
              "_READ = 1\n_ORPHAN: int = 2\n__all__ = []\n")
    read = read_names(source)
    assert [d for d in private_definitions(source) if d[1] not in read] == [
        (3, "_orphan"), (12, "_ORPHAN")]


def test_the_scan_sees_read_and_orphaned_methods():
    source = ("class K:\n    def _used(self):\n        pass\n"
              "    def _orphan(self):\n        pass\n"
              "    def __post_init__(self):\n        self._used()\n"
              "    def public(self):\n        pass\n")
    read = read_names(source)
    assert [d for d in private_definitions(source) if d[1] not in read] == [(4, "_orphan")]


def test_every_private_helper_in_src_is_read():
    sources = {p: p.read_text() for p in (ROOT / "src").rglob("*.py")}
    read = set().union(*(read_names(text) for text in sources.values()))
    orphans = [(str(p.relative_to(ROOT)), line, name) for p, text in sorted(sources.items())
               for line, name in private_definitions(text) if name not in read]
    assert orphans == []


def public_methods(source):
    """(line, name) of each public method of a module-level class."""
    return [(f.lineno, f.name) for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
            for f in node.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]


def read_strings(source):
    """Every string constant in source."""
    return {node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_the_scan_sees_read_and_orphaned_public_methods():
    source = ("class K:\n    def used(self):\n        pass\n"
              "    def named(self):\n        pass\n"
              "    def orphan(self):\n        pass\n"
              "    def _private(self):\n        pass\n"
              "def public():\n    return K().used, getattr(K, 'named')\n")
    read = read_names(source) | read_strings(source)
    assert [d for d in public_methods(source) if d[1] not in read] == [(6, "orphan")]


def test_every_public_method_in_src_is_read():
    readers = [p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")]
    read = set().union(*(read_names(text) | read_strings(text)
                         for text in (p.read_text() for p in readers)))
    orphans = [(str(p.relative_to(ROOT)), line, name) for p in sorted((ROOT / "src").rglob("*.py"))
               for line, name in public_methods(p.read_text()) if name not in read]
    assert orphans == []


def defaulted_parameters(source):
    """(line, function, parameter, position) of each parameter with a default
    of every function in source.  A method's position leaves out its first
    parameter, a class's __init__ goes by the class name, and a keyword-only
    parameter has position None."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                args = child.args
                positional = (args.posonlyargs + args.args)[cls is not None:]
                name = cls.name if cls is not None and child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                found.extend((child.lineno, name, arg.arg, i)
                             for i, arg in enumerate(positional) if i >= first)
                found.extend((child.lineno, name, arg.arg, None)
                             for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                             if default is not None)
            visit(child, child if isinstance(child, ast.ClassDef) else
                  None if isinstance(child, ast.FunctionDef) else cls)

    visit(ast.parse(source), None)
    return found


def given_arguments(source, given=None):
    """Called name -> [most positional arguments of one call, keywords of any
    call]; a *starred argument gives every position and a ** every keyword."""
    given = {} if given is None else given
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            seen = given.setdefault(name, [0, set()])
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            seen[0] = max(seen[0], float("inf") if starred else len(node.args))
            seen[1] |= {"**" if k.arg is None else k.arg for k in node.keywords}
    return given


def never_given(definitions, given):
    out = []
    for line, name, param, position in definitions:
        count, keywords = given.get(name, (0, set()))
        if not (param in keywords or "**" in keywords
                or (position is not None and count > position)):
            out.append((line, name, param))
    return out


def test_the_scan_sees_set_and_unset_knobs():
    source = ("def f(a, b=1, c=2, *, d=3):\n    pass\n"
              "class K:\n    def __init__(self, x=0):\n        pass\n"
              "    def m(self, y=0, z=1):\n        pass\n"
              "def g(p=0):\n    pass\n"
              "f(0, 5)\nK()\nobj.m(1)\ng(**opts)\n")
    assert never_given(defaulted_parameters(source), given_arguments(source)) == [
        (1, "f", "c"), (1, "f", "d"), (4, "K", "x"), (6, "m", "z")]


def test_every_defaulted_parameter_in_src_is_given_by_some_call():
    given = {}
    for path in (p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py")):
        given_arguments(path.read_text(), given)
    unset = [(str(p.relative_to(ROOT)),) + knob for p in sorted((ROOT / "src").rglob("*.py"))
             for knob in never_given(defaulted_parameters(p.read_text()), given)]
    assert unset == []


def parameters(source):
    """(line, class, function, parameter, read) of each parameter of every
    function and method in source, self and cls left out; class is None
    outside a class body, and read says whether the body reads it (a
    nested function or lambda that reads it counts)."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend((child.lineno, cls, child.name, a.arg, a.arg in read)
                             for a in args.posonlyargs + args.args + args.kwonlyargs
                             + [a for a in (args.vararg, args.kwarg) if a is not None]
                             if a.arg not in ("self", "cls"))
            visit(child, child.name if isinstance(child, ast.ClassDef) else
                  None if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else cls)

    visit(ast.parse(source), None)
    return found


def unread_parameters(found):
    """(where, function, parameter) of each unread parameter in found, whose
    entries lead with where they are (a line, or a file and a line); a
    method's is exempt when a same-named method of another class reads it."""
    readers = {}
    for _, cls, name, param, read in found:
        if read and cls is not None:
            readers.setdefault((name, param), set()).add(cls)
    return [(where, name, param) for where, cls, name, param, read in found
            if not read and (cls is None or not readers.get((name, param), set()) - {cls})]


def test_the_scan_sees_read_and_unread_parameters():
    source = ("def f(a, b, *args, c, **kw):\n    g = lambda x, y: x\n    return a + g(c, 0)\n"
              "def outer(d):\n    def inner(e):\n        return d\n    return inner\n"
              "class A:\n    def grad(self, x, mu):\n        return x\n"
              "    @classmethod\n    def make(cls, n):\n        return cls()\n"
              "class B:\n    def grad(self, x, mu, z):\n        return mu\n")
    assert unread_parameters(parameters(source)) == [
        (1, "f", "b"), (1, "f", "args"), (1, "f", "kw"), (5, "inner", "e"), (12, "make", "n"),
        (15, "grad", "z")]


def test_every_parameter_in_src_is_read():
    found = [((str(p.relative_to(ROOT)), line), *rest) for p in sorted((ROOT / "src").rglob("*.py"))
             for line, *rest in parameters(p.read_text())]
    assert unread_parameters(found) == []


def import_time_imports(source):
    """(line, module) of each absolute import that runs when source is
    imported: every import outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((child.lineno, child.module))
            visit(child)

    visit(ast.parse(source))
    return found


def test_the_scan_sees_import_time_imports():
    source = ("import numpy as np\nfrom scipy.special import ndtri\nfrom . import rng\n"
              "try:\n    import scipy.optimize\nexcept ImportError:\n    pass\n"
              "class K:\n    import scipy\n    def m(self):\n        import scipy.linalg\n"
              "def f():\n    from scipy.optimize import linear_sum_assignment\n")
    assert import_time_imports(source) == [
        (1, "numpy"), (2, "scipy.special"), (5, "scipy.optimize"), (9, "scipy")]


def test_no_src_module_imports_scipy_at_import_time():
    found = [(str(p.relative_to(ROOT)), line, name) for p in sorted((ROOT / "src").rglob("*.py"))
             for line, name in import_time_imports(p.read_text())
             if name.split(".")[0] == "scipy"]
    assert found == []


def seed_rules(source):
    """(line, name) of each import of the rng module and each derive_seed
    call in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "rng":
            found.append((node.lineno, node.module))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name.split(".")[-1] == "rng")
        elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            if name == "derive_seed":
                found.append((node.lineno, name))
    return found


def test_the_scan_sees_seed_rules():
    source = ("from . import rng\nimport hilbert_mfg.rng as r\nfrom .rng import generator\n"
              "from .mfg import uniqueness_experiment\n"
              "def f(seed):\n    return rng.derive_seed(seed, 1) + derive_seed(seed)\n")
    assert seed_rules(source) == [(1, "rng"), (2, "hilbert_mfg.rng"), (3, "rng"),
                                  (6, "derive_seed"), (6, "derive_seed")]


def test_the_cli_owns_no_seed_rule():
    assert seed_rules((ROOT / "src" / "hilbert_mfg" / "cli.py").read_text()) == []
