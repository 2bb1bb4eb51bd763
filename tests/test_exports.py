"""Every name a module exports resolves, and the package re-exports only
names its modules export."""

import ast
import importlib
import pkgutil

import pytest

import qns

MODULES = [m.name for m in pkgutil.iter_modules(qns.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qns.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    with open(qns.__file__) as fh:
        tree = ast.parse(fh.read())
    stray = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in importlib.import_module(f"qns.{node.module}").__all__
    ]
    assert stray == []
