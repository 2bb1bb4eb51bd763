"""The run layer: every kind's time, compute and risk columns, and seeds in
other processes: every error a seed can raise survives pickling, and a seed
run in a spawned process writes the same CSV bytes as ``qns run``
in-process."""

import json
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from qns.cli import EXIT_OK, main
from qns.flow import FlowNumericsError
from qns.linalg import RankDeficientError
from qns.runs import GF_KINDS, KINDS, ConfigError, NonFiniteRunError, RunConfig, run_seed
from qns.trainer import DivergenceError, ManifoldError
from qns.trajectory import read_trajectory


@pytest.mark.parametrize("kind", KINDS)
def test_time_compute_and_risk_columns(tmp_path, kind):
    # a flow records at its grid times t, numbered from 1, with compute
    # t d r_s; a stepped run after its record steps, at time step eta with
    # compute step batch d r_s
    d, r_s = 32, 2
    fields = ({"horizon": 20.0, "steps": 10} if kind in GF_KINDS
              else {"eta": 0.01, "steps": 30, "record_every": 7})
    cfg = RunConfig.from_dict({"kind": kind, "d": d, "r": 4, "r_s": r_s, "alpha": 1.0,
                               "seeds": [3], "out_dir": str(tmp_path), **fields})
    data = read_trajectory(run_seed(cfg, 3))
    if kind in GF_KINDS:
        np.testing.assert_array_equal(data.steps, range(1, 11))
        work = data.time_raw
    else:
        np.testing.assert_array_equal(data.steps, [0, 7, 14, 21, 28, 30])
        np.testing.assert_array_equal(data.time_raw, data.steps * 0.01)
        work = data.steps * float(cfg.resolved_batch())
    np.testing.assert_array_equal(data.compute, work * d * r_s)
    np.testing.assert_array_equal(data.risk, data.risk_normalized / 8.0)


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
