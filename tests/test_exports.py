"""Every name a module exports resolves, the package re-exports only names
its modules export, every ``qns`` name a demo imports resolves, and the
package depends on numpy and the standard library alone."""

import ast
import importlib
import importlib.util
from pathlib import Path
import pkgutil
import re
import sys

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


def test_package_depends_on_numpy_alone():
    # every import, also those inside functions, is stdlib, numpy or relative
    root = Path(__file__).resolve().parents[1]
    allowed = sys.stdlib_module_names | {"numpy"}
    foreign = []
    for path in sorted((root / "src" / "qns").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert foreign == []
    tomllib = pytest.importorskip("tomllib")
    with open(root / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps] == ["numpy"]


def test_demo_imports_resolve():
    # the demos are not run here: each name they import from qns must exist
    root = Path(__file__).resolve().parents[1]
    demos = sorted((root / "demos").glob("*.py"))
    missing = []
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "qns":
                if importlib.util.find_spec(node.module) is None:
                    missing.append(f"{path.name}: {node.module}")
                    continue
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                            if not hasattr(module, alias.name)]
    assert demos and missing == []
