"""The run layer in other processes: every error a seed can raise survives
pickling, and a seed run in a spawned process writes the same CSV bytes as
``qns run`` in-process."""

import json
import multiprocessing
import os
import pickle

from qns.cli import EXIT_OK, main
from qns.flow import FlowNumericsError
from qns.linalg import RankDeficientError
from qns.runs import ConfigError, NonFiniteRunError, RunConfig, run_seed
from qns.trainer import DivergenceError, ManifoldError


def test_run_errors_survive_pickling():
    errors = [
        DivergenceError(1000, 3.5e6),
        ManifoldError(2.5e-9, 1000),
        ManifoldError(2.5e-9),
        RankDeficientError(1e-13),  # used to fail to unpickle: min_eig got the message
        FlowNumericsError("closed form: t * rate = 1.26e+03 overflows float64"),
        NonFiniteRunError("seed 1: non-finite record at step 8 (risk inf); no CSV written"),
        ConfigError("config field 'd': must be int, got 16.5"),
    ]
    for exc in errors:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and str(back) == str(exc), exc


def test_run_seed_in_a_spawned_process(tmp_path):
    configs = {
        "sgd-stiefel": {"d": 16, "r": 4, "r_s": 2, "alpha": 1.0, "eta": 0.01, "steps": 300,
                        "record_every": 50},
        "gf-rk4": {"d": 32, "r": 4, "r_s": 2, "alpha": 1.0, "horizon": 20.0, "steps": 10},
    }
    jobs = []
    for kind, fields in configs.items():
        raw = {**fields, "kind": kind, "seeds": [3]}
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({**raw, "out_dir": str(tmp_path / "in_process")}))
        assert main(["run", str(path)]) == EXIT_OK
        jobs.append((RunConfig.from_dict({**raw, "out_dir": str(tmp_path / "spawned")}), 3))
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        paths = pool.starmap_async(run_seed, jobs).get(timeout=60)
    assert [os.path.basename(p) for p in paths] == ["sgd-stiefel_seed3.csv", "gf-rk4_seed3.csv"]
    for p in paths:
        with open(p, "rb") as fh:
            assert fh.read() == (tmp_path / "in_process" / os.path.basename(p)).read_bytes()
