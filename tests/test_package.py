"""Every exported name resolves, so a deleted function leaves no stale entry."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import twistlines

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(twistlines.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"twistlines.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(twistlines.__file__).read_text(encoding="utf-8"))
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"twistlines.{module_name}")
        assert getattr(twistlines, name) is getattr(module, name), name
        assert name in getattr(module, "__all__", [name]), name
