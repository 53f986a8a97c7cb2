"""Every module-level import and private definition in src/tubecat is used.

A stdlib stand-in for a linter's unused-import rule: each module is parsed
with ast, and a name bound by a module-level import must be read somewhere
in that module (string annotations included), be listed in its __all__, or
be re-exported by the package __init__.  The package __init__ re-exports
everything it imports.

Likewise for dead code: a module-level private function or class (a name
with a leading underscore) must be read somewhere in the package, as a
name or an attribute, outside its own body; one that only tests read has
no place in src.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tubecat"
MODULES = sorted(PACKAGE.glob("*.py"))


def _bound(node):
    """(name, line) for each name a module-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]


def _read_names(tree):
    """Every name read in tree, also inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= _read_names(ast.parse(note.value, mode="eval"))
    return names


def _all(tree):
    """The strings listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts}
    return set()


def _module_names(tree):
    """The names a module binds at its top level: its definitions, the
    targets of its assignments and the names of its imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(name for name, _line in _bound(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def stale_exports(path):
    """The strings in path's __all__ that the module does not bind at its
    top level, sorted."""
    tree = ast.parse(path.read_text())
    return sorted(_all(tree) - _module_names(tree))


def _reexported():
    """module stem -> names the package __init__ imports from it."""
    out = {}
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


def unused_imports(path):
    """(name, line) of each module-level import in path that nothing uses."""
    tree = ast.parse(path.read_text())
    if path.name == "__init__.py":
        return []
    used = _read_names(tree) | _all(tree) | _reexported().get(path.stem, set())
    return [(name, line) for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name, line in _bound(node) if name not in used]


def unused_privates(paths):
    """(file name, name, line) of each module-level private function or
    class in paths that no code in paths reads outside its own body."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    reads: dict = {}  # name -> the nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
    out = []
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                own = set(map(id, ast.walk(node)))
                if all(id(n) in own for n in reads.get(node.name, [])):
                    out.append((path.name, node.name, node.lineno))
    return out


def test_no_unused_private_definitions():
    assert unused_privates(MODULES) == []


def test_the_check_sees_an_unused_private_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n"
        "def _only_itself(n):\n    return _only_itself(n - 1) if n else 0\n\n"
        "def _unused():\n    return _used()\n\n"
        "class _Kept:\n    pass\n\n"
        "class _Dropped:\n    def _method(self):\n        return 0\n")
    (tmp_path / "b.py").write_text("import a\n\nX = a._Kept\n")
    assert unused_privates(sorted(tmp_path.glob("*.py"))) == [
        ("a.py", "_only_itself", 4), ("a.py", "_unused", 7), ("a.py", "_Dropped", 13)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from __future__ import annotations\n"
                   "import math\nimport numpy as np\nfrom os import path, sep\n"
                   "__all__ = ['sep']\n\n"
                   "def f(x: 'np.ndarray') -> int:\n    return 1\n")
    assert unused_imports(src) == [("math", 2), ("path", 4)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_stale_exports(path):
    assert stale_exports(path) == []


def test_the_check_sees_a_stale_export(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from os import sep\nimport os.path\n"
                   "__all__ = ['sep', 'os', 'f', 'K', 'N', 'M', 'P', 'gone', 'g']\n\n"
                   "def f():\n    g = 1\n    return g\n\n"
                   "class K:\n    pass\n\n"
                   "N: int = 1\nM, P = 1, 2\n")
    assert stale_exports(src) == ["g", "gone"]
