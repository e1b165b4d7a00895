"""Every module under src/ and tests/ references each name it imports and
imports each name from its home, every private definition in src/ is
referenced from src/, and every public definition in src/ is named by src/,
the traced benchmark or the acceptance tests.

The project ships no linter, so this stdlib ``ast`` scan stands in for
one.  ``from __future__`` imports are exempt because they change how the
compiler reads the module, and names listed in a literal ``__all__`` are
exempt because the module imports them to re-export them.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names ``source`` binds by an import but never references, sorted."""
    tree = ast.parse(source)
    imported: set[str] = set()
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - referenced - exported)


def test_scan_flags_only_unreferenced_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json, xml.dom\n"
        "from a.b import c, d as e, f\n"
        "__all__ = ['f']\n"
        "print(json.dumps(c), xml.dom)\n"
    )
    assert unused_imports(source) == ["e", "os", "osp"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_module_references_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# -- dead private definitions ---------------------------------------------------------

SRC_MODULES = [path for path in MODULES if path.is_relative_to(ROOT / "src")]


def private_definitions(tree: ast.Module) -> list[str]:
    """The ``_name`` functions and classes at the top of ``tree`` and the
    ``_name`` methods of its classes; dunders are not private."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nodes = [node for node in tree.body if isinstance(node, defs)]
    nodes += [item for node in tree.body if isinstance(node, ast.ClassDef)
              for item in node.body if isinstance(item, defs[:2])]
    return [node.name for node in nodes
            if node.name.startswith("_") and not node.name.endswith("__")]


def unreferenced_definitions(sources: dict[str, str], definitions=private_definitions,
                             named=frozenset()) -> list[str]:
    """``module:name`` of every one of ``definitions(tree)`` in ``sources``
    (module name -> text) that no module reads, as a name, an attribute or
    an import, and that is not in ``named``, sorted."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    referenced: set[str] = set(named)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in definitions(tree) if name not in referenced)


def test_dead_code_scan_flags_only_unreferenced_private_definitions():
    sources = {
        "a": ("def _called(): pass\n"
              "def _orphan(): pass\n"
              "def public(): return _called()\n"
              "class _Imported:\n"
              "    def __init__(self): pass\n"
              "    def _method(self): pass\n"
              "    def _read(self): return self._field\n"
              "    def _field(self): pass\n"
              "    def _dead(self): pass\n"),
        "b": "from a import _Imported\n_Imported()._method()\n",
    }
    assert unreferenced_definitions(sources) == ["a:_dead", "a:_orphan", "a:_read"]


def test_every_private_definition_in_src_is_referenced():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in SRC_MODULES}
    assert sum(len(private_definitions(ast.parse(text))) for text in sources.values()) > 0
    assert unreferenced_definitions(sources) == []


# -- public definitions no one names ----------------------------------------------

CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def public_definitions(tree: ast.Module) -> list[str]:
    """The public functions, classes and UPPER_CASE constants at the top of
    ``tree`` and the public classmethods of its classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names += [t.id for t in targets
                  if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)
                      and any(isinstance(d, ast.Name) and d.id == "classmethod"
                              for d in item.decorator_list)]
    return [name for name in names if not name.startswith("_")]


def test_public_scan_flags_only_unnamed_definitions():
    sources = {
        "a": ("LIMIT = 3\n"
              "UNUSED: int = 4\n"
              "lower = 5\n"
              "def used(): return LIMIT\n"
              "def orphan(): pass\n"
              "def traced(): pass\n"
              "class Kept:\n"
              "    @classmethod\n"
              "    def build(cls): return cls()\n"
              "    @classmethod\n"
              "    def spare(cls): pass\n"
              "    def method(self): pass\n"),
        "b": "from a import Kept, used\nKept.build()\n",
    }
    assert unreferenced_definitions(sources, public_definitions, {"traced"}) == [
        "a:UNUSED", "a:orphan", "a:spare"]


def test_every_public_definition_in_src_is_named(monkeypatch):
    # traced targets and the acceptance tests' imports name what the
    # benchmark and the user-facing checks reach from outside src/
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import layers

    named = {part for target in layers.TARGETS for part in target.qualname.split(".")}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    named |= {alias.name for node in ast.walk(acceptance)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    sources = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in SRC_MODULES}
    assert unreferenced_definitions(sources, public_definitions, named) == []


# -- names imported from their home -------------------------------------------------

def module_name(path: str) -> tuple[str, bool]:
    """The dotted name of the module at ``path`` (relative to an import
    root), and whether it is a package."""
    parts = path.removesuffix(".py").split("/")
    package = parts[-1] == "__init__"
    return ".".join(parts[:-1] if package else parts), package


def homes(tree: ast.Module, package: bool) -> set[str]:
    """The names ``tree`` defines at its top, and for a package the entries
    of its literal ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            names.update(t.id for t in ast.walk(target) if isinstance(t, ast.Name))
            if package and isinstance(target, ast.Name) and target.id == "__all__":
                names.update(ast.literal_eval(node.value))
    return names


def misplaced_imports(sources: dict[str, str]) -> list[str]:
    """``module: from X import name`` for every import in ``sources`` (path
    relative to an import root -> text) whose ``X`` is one of them but has
    ``name`` neither as a definition, nor as a submodule, nor as an entry
    in a package's ``__all__``; sorted."""
    trees, names, packages = {}, {}, set()
    for path, text in sources.items():
        module, package = module_name(path)
        trees[module] = tree = ast.parse(text)
        names[module] = homes(tree, package)
        if package:
            packages.add(module)
    for module in trees:
        parent, _, leaf = module.rpartition(".")
        if parent in names:
            names[parent].add(leaf)
    faults = []
    for module, tree in trees.items():
        here = module if module in packages else module.rpartition(".")[0]
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            target = node.module
            if node.level:
                parts = here.split(".")[: len(here.split(".")) - node.level + 1]
                target = ".".join(parts + ([node.module] if node.module else []))
            faults += [f"{module}: from {target} import {alias.name}" for alias in node.names
                       if target in names and alias.name not in names[target]]
    return sorted(faults)


def test_home_scan_flags_only_names_imported_through_another_module():
    sources = {
        "pkg/__init__.py": "from .a import A\nfrom .b import B\n__all__ = ['A']\n",
        "pkg/a.py": "from .b import B\nA = 1\ndef f(): pass\n",
        "pkg/b.py": "class B: pass\n",
        "c.py": ("from pkg import A, B, a\n"
                 "from pkg.a import B as Bee, f\n"
                 "from pkg.b import B\n"
                 "from os import path\n"),
        "pkg/sub/__init__.py": "from .. import A\nfrom ..a import A, B\nfrom . import d\n",
        "pkg/sub/d.py": "",
    }
    assert misplaced_imports(sources) == [
        "c: from pkg import B", "c: from pkg.a import B", "pkg.sub: from pkg.a import B"]


def test_every_name_is_imported_from_its_home():
    sources = {path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
               for root in (ROOT / "src", ROOT / "tests") for path in root.rglob("*.py")}
    assert misplaced_imports(sources) == []
