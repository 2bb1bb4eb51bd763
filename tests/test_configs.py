"""Every config the demos, the slow test and the benchmark workloads hand to
``qns run`` is a valid ``RunConfig``, so that removing or narrowing a field
cannot break them.

The benchmark's workload classes write their configs when built; they are
built here into a temporary directory, and no run is started.
"""

import json
from pathlib import Path

import pytest

from qns.runs import RunConfig

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", sorted((ROOT / "demos" / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_demo_config_is_valid(path):
    RunConfig.from_dict(json.loads(path.read_text()))


def test_slow_test_config_is_valid():
    # the largest SGD run of the tests: 2.1e10 normals, within runs.MAX_SGD_NORMALS
    from test_slow_reproduction import batch_d_config

    RunConfig.from_dict(batch_d_config())


def run_configs(ops):
    """The config of each ``qns run`` among ``ops``, its ``-O`` overrides applied
    as ``qns run`` applies them."""
    for label, argv in ops:
        if argv[0] != "run":
            continue
        raw = json.loads(Path(argv[1]).read_text())
        for key, value in (o.split("=", 1) for o in argv[3::2]):
            try:
                raw[key] = json.loads(value)
            except json.JSONDecodeError:
                raw[key] = value
        yield label, raw


def test_benchmark_workload_configs_are_valid(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    import workloads

    checked = {}
    for name, cls in workloads.WORKLOADS.items():
        out = tmp_path / name
        out.mkdir()
        wl = cls(1, str(out), str(ROOT))
        for label, raw in run_configs(wl.ops + wl.warm_ops):
            RunConfig.from_dict(raw)
            checked[name] = checked.get(name, 0) + 1
    # every workload but verify_suites runs qns run, warm-up included
    assert checked == {"sgd_online": 2, "gd_sweep": 4, "gf_closed": 8}
