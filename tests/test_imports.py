"""Every module of the package reads each name it imports at module level."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import phaseprop

PACKAGE = Path(phaseprop.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The module-level imported names that ``source`` never reads; a name
    listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in read)


def test_the_check_flags_an_unused_import_and_passes_a_read_one():
    source = "import json\nfrom os import path, sep\nprint(path)\n__all__ = ['sep']\n"
    assert unused_imports(source) == ["json"]


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_name_it_imports(module):
    assert unused_imports(module.read_text()) == []
