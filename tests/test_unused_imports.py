"""Every module under src/ and tests/ references each name it imports.

The project ships no linter, so this stdlib ``ast`` scan stands in for
one.  ``from __future__`` imports are exempt because they change how the
compiler reads the module, and names listed in a literal ``__all__`` are
exempt because the module imports them to re-export them.
"""

import ast
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
