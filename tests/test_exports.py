"""Every name a module exports resolves, every ``qns`` name a demo imports
resolves, the package depends on numpy and the standard library alone, and
each command loads only the modules it runs."""

import ast
import importlib
import importlib.util
import json
import os
from pathlib import Path
import pkgutil
import re
import subprocess
import sys

import pytest

import qns

MODULES = [m.name for m in pkgutil.iter_modules(qns.__path__)]
SRC = os.path.dirname(os.path.dirname(os.path.abspath(qns.__file__)))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qns.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def loaded_after(code):
    """The ``qns.*`` and ``concurrent.futures`` modules a fresh interpreter has
    loaded after running ``code``."""
    probe = (f"import sys\n{code}\nprint(sorted(m for m in sys.modules "
             "if m.startswith('qns.') or m == 'concurrent.futures'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.strip().splitlines()[-1]))


def test_package_import_loads_no_module():
    assert loaded_after("import qns") == set()


def test_run_loads_only_the_run_layer(tmp_path):
    cfg = {"kind": "gd-population", "d": 16, "r": 4, "r_s": 2, "alpha": 1.0, "steps": 20,
           "out_dir": str(tmp_path / "runs")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    loaded = loaded_after(f"import qns.cli\nassert qns.cli.main(['run', {str(path)!r}]) == 0")
    assert "qns.runs" in loaded
    assert loaded.isdisjoint({"qns.verify", "qns.riccati", "qns.finetune", "qns.analysis",
                              "qns.svgplot", "concurrent.futures"})


def test_verify_loads_no_plot_or_fit_module():
    loaded = loaded_after("import qns.cli\n"
                          "assert qns.cli.main(['verify', 'riccati', '--trials', '2']) == 0")
    assert "qns.verify" in loaded
    assert loaded.isdisjoint({"qns.svgplot", "qns.analysis", "concurrent.futures"})


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
