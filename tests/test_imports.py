"""Every module of the package reads each name it imports at module level, and
the package republishes each module's ``__all__``."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import phaseprop

PACKAGE = Path(phaseprop.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The module-level imported names that ``source`` never reads; a name
    listed in ``__all__`` counts as read, and a star import republishes."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {item.value for item in node.value.elts
                     if isinstance(item, ast.Constant)}
    return sorted(name for name in imported if name not in read)


def test_the_check_flags_an_unused_import_and_passes_a_read_one():
    source = ("import json\nfrom os import path, sep\nfrom glob import *\nprint(path)\n"
              "__all__ = ['sep']\n")
    assert unused_imports(source) == ["json"]


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_name_it_imports(module):
    assert unused_imports(module.read_text()) == []


def test_the_package_republishes_each_module_all_once():
    published = ["__version__"]
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"phaseprop.{path.stem}")
        for name in getattr(module, "__all__", ()):
            published.append(name)
            assert getattr(phaseprop, name) is getattr(module, name), name
    assert sorted(phaseprop.__all__) == sorted(published)
    namespace: dict = {}
    exec("from phaseprop import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(phaseprop.__all__)
