import json
import math
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from xml.dom import minidom

import numpy as np
import pytest

import qns
import qns.runs as runs
import qns.trainer as trainer
import qns.trajectory as trajectory
import qns.verify as verify
from qns.cli import EXIT_DIVERGED, EXIT_INTERRUPTED, EXIT_OK, EXIT_USAGE, main
from qns.svgplot import line_chart
from qns.trajectory import config_hash, read_trajectory


def base_config(tmp_path, **overrides):
    cfg = {
        "kind": "gf-closed",
        "d": 128,
        "r": 4,
        "r_s": 4,
        "alpha": 1.0,
        "horizon": 40.0,
        "steps": 40,
        "seeds": [1],
        "out_dir": str(tmp_path / "runs"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


SMALL_SGD = {"kind": "sgd-stiefel", "d": 16, "r": 4, "r_s": 2, "steps": 200, "horizon": None}


class TestRun:
    def test_gf_closed_row_count(self, tmp_path):
        path, cfg = base_config(tmp_path)
        assert main(["run", path]) == EXIT_OK
        data = read_trajectory(str(tmp_path / "runs" / "gf-closed_seed1.csv"))
        assert len(data.steps) == 40
        assert np.all(np.diff(data.steps) > 0)

    def test_byte_identical_reruns(self, tmp_path):
        path, _ = base_config(tmp_path)
        assert main(["run", path]) == EXIT_OK
        csv_path = tmp_path / "runs" / "gf-closed_seed1.csv"
        first = csv_path.read_bytes()
        assert main(["run", path]) == EXIT_OK
        assert csv_path.read_bytes() == first

    def test_one_file_per_seed(self, tmp_path):
        path, _ = base_config(tmp_path, seeds=[3, 4, 5])
        assert main(["run", path]) == EXIT_OK
        for s in (3, 4, 5):
            assert (tmp_path / "runs" / f"gf-closed_seed{s}.csv").exists()

    def test_sidecar_hash_matches_config(self, tmp_path):
        path, _ = base_config(tmp_path)
        main(["run", path])
        sidecar = json.loads((tmp_path / "runs" / "gf-closed_seed1.csv.json").read_text())
        assert sidecar["config_hash"] == config_hash(sidecar["config"])
        assert sidecar["seed"] == 1

    def test_invalid_config_exits_2_with_field(self, tmp_path, capsys):
        path, _ = base_config(tmp_path, alpha=0.5)
        assert main(["run", path]) == EXIT_USAGE
        assert "alpha" in capsys.readouterr().err

    def test_r_exceeding_d_rejected(self, tmp_path, capsys):
        path, _ = base_config(tmp_path, r=300)
        assert main(["run", path]) == EXIT_USAGE
        assert "'r'" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["under_a_file", "a_file"])
    def test_out_dir_that_cannot_be_created_exits_2(self, tmp_path, capsys, monkeypatch, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out_dir = str(blocker / "runs") if where == "under_a_file" else str(blocker)
        path, _ = base_config(tmp_path, out_dir=out_dir, seeds=[1, 2])

        def must_not_run(cfg, seed):
            raise AssertionError("a seed ran before out_dir was checked")

        monkeypatch.setitem(runs._RUNNERS, "gf-closed", must_not_run)
        assert main(["run", path]) == EXIT_USAGE
        out = capsys.readouterr()
        lines = out.err.strip().splitlines()
        assert out.out == "" and len(lines) == 1 and out_dir in lines[0], out.err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        path, _ = base_config(tmp_path, bogus_field=1)
        assert main(["run", path]) == EXIT_USAGE
        assert "bogus_field" in capsys.readouterr().err

    def test_override_flag(self, tmp_path):
        path, _ = base_config(tmp_path)
        assert main(["run", path, "-O", "steps=17"]) == EXIT_OK
        data = read_trajectory(str(tmp_path / "runs" / "gf-closed_seed1.csv"))
        assert len(data.steps) == 17

    def test_env_seed_override(self, tmp_path):
        # the seed list is set by -O; no environment variable overrides it
        path, _ = base_config(tmp_path, seeds=[1, 2, 3])
        assert main(["run", path, "-O", "seeds=[9]"]) == EXIT_OK
        files = sorted(os.listdir(tmp_path / "runs"))
        assert files == ["gf-closed_seed9.csv", "gf-closed_seed9.csv.json"]

    def test_divergence_exits_3(self, tmp_path):
        path, _ = base_config(
            tmp_path, kind="gd-population", eta=2000.0, steps=500, d=16, r=4, r_s=2,
            horizon=None,
        )
        assert main(["run", path]) == EXIT_DIVERGED

    @pytest.mark.parametrize(
        "overrides, code, needle",
        [
            # t lambda_tilde_1 / T_w reaches ~1260 > 709.8: expm1 overflows,
            # and an inf reaching the SVD used to hang
            ({"horizon": 3000.0, "steps": 3}, EXIT_DIVERGED, "overflows float64"),
            # t*rate = 709.4 passes, but expm1(t*rate) / lambda_tilde_1 overflows
            ({"d": 1000, "r": 600, "r_s": 1, "alpha": 0.0, "horizon": 17380.0, "steps": 1},
             EXIT_DIVERGED, "non-finite input to the QR"),
            ({"kind": "sgd-stiefel", "d": 8, "r": 4, "r_s": 12, "steps": 5,
              "horizon": None}, EXIT_USAGE, "config field 'r_s'"),
            # no guard used to stop plain online SGD: it wrote NaN risk columns
            ({"kind": "sgd-euclidean", "d": 16, "r": 4, "r_s": 2, "eta": 50.0, "batch": 1,
              "steps": 200, "horizon": None}, EXIT_DIVERGED, "divergence at step"),
            # r_s > d used to end in a RankDeficientError traceback from the alignments
            ({"d": 16, "r": 4, "r_s": 40}, EXIT_USAGE, "config field 'r_s'"),
            ({"kind": "gf-rk4", "d": 16, "r": 4, "r_s": 40}, EXIT_USAGE, "config field 'r_s'"),
            ({"kind": "gd-population", "d": 16, "r": 4, "r_s": 40, "horizon": None},
             EXIT_USAGE, "config field 'r_s'"),
            ({"kind": "sgd-euclidean", "d": 16, "r": 4, "r_s": 40, "horizon": None},
             EXIT_USAGE, "config field 'r_s'"),
            # used to end in a ValueError traceback from the training loop
            ({"kind": "gd-population", "d": 16, "r": 4, "r_s": 2, "horizon": None,
              "record_every": 0}, EXIT_USAGE, "config field 'record_every'"),
            # about 1e9 RK4 sub-steps: the run used to hang
            ({"kind": "gf-rk4", "d": 16, "r": 4, "r_s": 2, "horizon": 1e7},
             EXIT_USAGE, "config field 'horizon'"),
            # badly typed fields used to end in tracebacks
            ({"seeds": 5}, EXIT_USAGE, "config field 'seeds'"),
            ({"seeds": ["a"]}, EXIT_USAGE, "config field 'seeds'"),
            ({"d": 16.5}, EXIT_USAGE, "config field 'd'"),
            ({"steps": 2.5}, EXIT_USAGE, "config field 'steps'"),
            ({"tracked_j": [1.5]}, EXIT_USAGE, "config field 'tracked_j'"),
            # the QNS_SEED environment variable is gone (-O "seeds=[N]" sets
            # the seeds), and its name is no config field either
            ({"QNS_SEED": "abc"}, EXIT_USAGE, "QNS_SEED"),
            ({"seeds": [-1]}, EXIT_USAGE, "config field 'seeds'"),
            # 4**-1000 rounds to 0.0: the coefficients used to underflow
            ({"alpha": 1000}, EXIT_USAGE, "config field 'alpha'"),
            # each of these used to end in a traceback, in exit 2 with Python's
            # comparison TypeError, in a NaN CSV with exit 0, or in a QR error
            ({**SMALL_SGD, "batch": 2.5}, EXIT_USAGE, "config field 'batch'"),
            ({"out_dir": 5}, EXIT_USAGE, "config field 'out_dir'"),
            # eta_c and c_alpha, the schedule's constants, are gone: unknown fields
            ({**SMALL_SGD, "kind": "gd-population", "eta_c": -1}, EXIT_USAGE, "config field 'eta_c'"),
            ({**SMALL_SGD, "eta": "x"}, EXIT_USAGE, "config field 'eta'"),
            ({"horizon": "x"}, EXIT_USAGE, "config field 'horizon'"),
            ({"alpha": "x"}, EXIT_USAGE, "config field 'alpha'"),
            ({**SMALL_SGD, "eta": float("nan")}, EXIT_USAGE, "config field 'eta'"),
            ({"horizon": float("nan")}, EXIT_USAGE, "config field 'horizon'"),
            ({"alpha": float("nan")}, EXIT_USAGE, "config field 'alpha'"),
            # used to exit 0 with RuntimeWarnings on stderr and a NaN risk column
            ({**SMALL_SGD, "eta": 1e300}, EXIT_DIVERGED, "non-finite record"),
            # r_s = d makes log(d / r_s) = 0: each used to exit 3 with a
            # divide-by-zero RuntimeWarning line before the error
            ({**SMALL_SGD, "r_s": 16}, EXIT_USAGE, "config field 'r_s'"),
            ({**SMALL_SGD, "kind": "gd-population", "r_s": 16}, EXIT_USAGE, "config field 'r_s'"),
            ({"d": 2, "r": 2, "r_s": 2}, EXIT_USAGE, "config field 'r_s'"),
            # horizon / steps underflows to 0: a geomspace traceback
            ({"horizon": 5e-324, "steps": 5}, EXIT_USAGE, "config field 'horizon'"),
            # the scheduled eta overflowed or divided by zero: tracebacks; its
            # polylog exponent c_alpha is gone, and refused as an unknown field
            ({**SMALL_SGD, "c_alpha": 1e308}, EXIT_USAGE, "config field 'c_alpha'"),
            ({**SMALL_SGD, "c_alpha": -1e308}, EXIT_USAGE, "config field 'c_alpha'"),
            # a numeric tag used to name 5_seed1.csv; repeated seeds wrote
            # one CSV twice
            ({"tag": 5}, EXIT_USAGE, "config field 'tag'"),
            ({"seeds": [0, 0]}, EXIT_USAGE, "config field 'seeds'"),
            # the Stiefel loop used to finish every step of a run that left
            # float64 at step 8 before its records were refused
            ({**SMALL_SGD, "eta": 1e300, "steps": 2000}, EXIT_DIVERGED, "divergence at step 1000"),
            # this Stiefel student leaves the manifold: its 1000-step cleanup
            # used to end in a RankDeficientError traceback
            ({**SMALL_SGD, "d": 5, "r": 1, "r_s": 4, "alpha": 0.0, "seeds": [0], "eta": 1.0,
              "steps": 1000}, EXIT_DIVERGED, "W is not orthonormal at step 1000"),
            # -O on a config that is not an object used to end in a TypeError traceback
            ({"CONFIG": [1], "-O": "steps=3"}, EXIT_USAGE, "must be a JSON object"),
            # an initial W of 2**40 floats (8 TiB) fails to allocate: the
            # 16 GiB address-space limit makes it fail whatever the host's
            # overcommit policy (a 2**40-point time grid, which used to end in
            # a MemoryError traceback, is now past the steps cap)
            ({"RLIMIT_AS": 2**34, "d": 2**40, "r_s": 1}, EXIT_USAGE, "more memory"),
            # batch only relabelled the compute column of a population run
            ({**SMALL_SGD, "kind": "gd-population", "batch": 5}, EXIT_USAGE, "config field 'batch'"),
            # arrays of more than sys.maxsize bytes, which numpy cannot describe:
            # each used to end in a "ValueError: array is too big" traceback
            ({"d": 2**63 - 1}, EXIT_USAGE, "config field 'd'"),
            ({"steps": 2**62}, EXIT_USAGE, "config field 'steps'"),
            ({**SMALL_SGD, "kind": "gd-population", "steps": 2**62, "record_every": 1},
             EXIT_USAGE, "config field 'steps'"),
            ({**SMALL_SGD, "kind": "gd-population", "steps": 2**62, "record_points": 2**62},
             EXIT_USAGE, "config field 'steps'"),
            ({**SMALL_SGD, "kind": "sgd-euclidean", "batch": 2**62}, EXIT_USAGE,
             "config field 'batch'"),
            # the trainer takes the validated config: no zero-step run and no
            # kind of its own reaches it
            ({**SMALL_SGD, "steps": 0}, EXIT_USAGE, "config field 'steps'"),
            ({**SMALL_SGD, "kind": "online"}, EXIT_USAGE, "config field 'kind'"),
            # record_points beside an integer record_every was never read
            ({**SMALL_SGD, "record_every": 5, "record_points": 3}, EXIT_USAGE,
             "config field 'record_points'"),
            # the sub-step count used to read horizon / dt = 100 alone, and
            # the run, at one sub-step per grid point, was still going after 10 s
            ({"kind": "gf-rk4", "d": 16, "r": 4, "r_s": 2, "horizon": 1.0, "steps": 10**6},
             EXIT_USAGE, "config field 'steps'"),
            # each was still running after 8 s (2**31 steps) or 10 s (a
            # gf-closed grid of 2**24 points); 2**62 used to be refused only
            # where an array of steps floats was too big for numpy
            *[({**SMALL_SGD, "kind": kind, "steps": steps,
                **({"horizon": 40.0} if kind in runs.GF_KINDS else {})},
               EXIT_USAGE, "config field 'steps'")
              for kind in runs.KINDS for steps in (runs.MAX_RUN_STEPS + 1, 2**62)],
            # step 4's polar retraction leaves the manifold, and step 5's
            # gradient used to refuse its W without naming a step
            ({**SMALL_SGD, "r_s": 4, "batch": 3, "eta": 1e4, "seeds": [0]}, EXIT_DIVERGED,
             "W is not orthonormal at step 4"),
            # 1.6e13 normals at about 38 ms a step: 4-5 days of sample draws
            ({"kind": "sgd-euclidean", "d": 16, "r": 4, "r_s": 2, "alpha": 1.0, "batch": 100000,
              "steps": 10**7, "horizon": None}, EXIT_USAGE, "config field 'batch'"),
        ],
    )
    def test_failure_exit_code_and_one_line(self, tmp_path, overrides, code, needle):
        # CONFIG replaces the whole config, -O passes one override, RLIMIT_AS
        # caps the run's address space; the rest are config fields
        special = {k: overrides[k] for k in ("CONFIG", "-O", "RLIMIT_AS") if k in overrides}
        path, _ = base_config(tmp_path, **{k: v for k, v in overrides.items() if k not in special})
        if "CONFIG" in special:
            (tmp_path / "config.json").write_text(json.dumps(special["CONFIG"]))
        argv = ["-O", special["-O"]] if "-O" in special else []
        limit = special.get("RLIMIT_AS")
        src = os.path.dirname(os.path.dirname(os.path.abspath(qns.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "qns.cli", "run", path, *argv],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=None if limit is None else lambda: resource.setrlimit(
                resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == code
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and needle in lines[0], proc.stderr
        assert not list(tmp_path.glob("runs/*.csv"))

    @staticmethod
    def interrupt_run(tmp_path, seeds):
        """SIGINT a ``qns run`` of ``seeds`` that never finish, 0.5 s into
        training: ``(stdout, stderr, seconds from the signal to the exit)``."""
        path, _ = base_config(tmp_path, **{**SMALL_SGD, "d": 64, "steps": runs.MAX_RUN_STEPS,
                                           "seeds": seeds})
        src = os.path.dirname(os.path.dirname(os.path.abspath(qns.__file__)))
        proc = subprocess.Popen([sys.executable, "-m", "qns.cli", "run", path], text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=src))
        try:
            # out_dir is made inside the command, just before the first seed starts
            deadline = time.monotonic() + 60
            while not (tmp_path / "runs").exists() and proc.poll() is None:
                assert time.monotonic() < deadline, "the run never started"
                time.sleep(0.01)
            time.sleep(0.5)  # into the training loop
            proc.send_signal(signal.SIGINT)
            sent = time.monotonic()
            out, err = proc.communicate(timeout=30)
            elapsed = time.monotonic() - sent
        finally:
            proc.kill()
        assert proc.returncode == EXIT_INTERRUPTED, err
        return out, err, elapsed

    def test_ctrl_c_exits_130_with_one_line(self, tmp_path):
        # a single-seed run used to end in a 29-line KeyboardInterrupt traceback
        out, err, _ = self.interrupt_run(tmp_path, [1])
        assert out == "" and err.strip().splitlines() == ["error: interrupted"], err
        assert not list((tmp_path / "runs").iterdir())

    def test_ctrl_c_stops_a_multi_seed_run_at_once(self, tmp_path):
        # seeds on a thread pool used to run to their end after Ctrl-C, and
        # write their CSVs, before the command exited 130
        out, err, elapsed = self.interrupt_run(tmp_path, [1, 2])
        assert elapsed < 2.0, f"exited {elapsed:.1f} s after the signal"
        assert out == "" and err.strip().splitlines() == ["error: interrupted"], err
        assert not list((tmp_path / "runs").iterdir())

    @pytest.mark.parametrize("alpha", [60, 200, 537])
    def test_tiny_modes_closed_form_matches_rk4(self, tmp_path, alpha):
        # lambda_j = j**-alpha: the closed form used to read alignments off by
        # 3.6e-2 at alpha = 60, 1e28 at alpha = 200 and inf from 520 on, and
        # the risk as nan at 537 (4**-537 is the smallest positive double)
        data = {}
        for kind in ("gf-closed", "gf-rk4"):
            path, _ = base_config(tmp_path, kind=kind, alpha=alpha)
            assert main(["run", path]) == EXIT_OK
            data[kind] = read_trajectory(str(tmp_path / "runs" / f"{kind}_seed1.csv"))
        closed, rk4 = data["gf-closed"], data["gf-rk4"]
        assert np.all((closed.alignments >= 0.0) & (closed.alignments <= 1.0))
        np.testing.assert_allclose(closed.alignments, rk4.alignments, rtol=0, atol=1e-12)
        np.testing.assert_allclose(closed.risk_normalized, rk4.risk_normalized, rtol=0, atol=1e-12)

    def test_sgd_seeds_byte_identical_to_single_seed_runs(self, tmp_path):
        # a seed's CSV is the same whether it runs alone or after another seed
        path, _ = base_config(
            tmp_path, kind="sgd-stiefel", eta=0.01, steps=6000, d=64, r=4, r_s=4,
            horizon=None, record_every=500, seeds=[1, 2],
        )
        assert main(["run", path, "-O", f"out_dir={tmp_path / 'both'}"]) == EXIT_OK
        for seed in (1, 2):
            argv = ["-O", f"seeds=[{seed}]", "-O", f"out_dir={tmp_path / 'alone'}"]
            assert main(["run", path, *argv]) == EXIT_OK
            name = f"sgd-stiefel_seed{seed}.csv"
            assert (tmp_path / "alone" / name).read_bytes() == (tmp_path / "both" / name).read_bytes()

    def test_sgd_kind_runs(self, tmp_path):
        path, _ = base_config(
            tmp_path, kind="sgd-stiefel", eta=0.01, steps=200, d=32, r=4, r_s=4,
            horizon=None, record_every=50, tracked_j=[1, 2],
        )
        assert main(["run", path]) == EXIT_OK
        data = read_trajectory(str(tmp_path / "runs" / "sgd-stiefel_seed1.csv"))
        assert data.tracked_js == [1, 2]
        assert data.meta["samples_used"] == 200

    def test_sgd_stiefel_sidecar_records_ortho_drift(self, tmp_path):
        # max|W.T W - I| before each 1000-step cleanup and at the last step;
        # an edge of the run, kept out of the config and its hash
        path, _ = base_config(
            tmp_path, kind="sgd-stiefel", eta=0.01, steps=2500, d=64, r=4, r_s=4,
            horizon=None, record_every=500,
        )
        assert main(["run", path]) == EXIT_OK
        sidecar = json.loads((tmp_path / "runs" / "sgd-stiefel_seed1.csv.json").read_text())
        assert 0.0 < sidecar["edges"]["ortho_drift"] < 1e-12
        assert "edges" not in sidecar["config"]
        assert sidecar["config_hash"] == config_hash(sidecar["config"])

    def test_sgd_stiefel_sidecar_records_timing(self, tmp_path):
        # wall seconds of the run and of its waits on the sample producer:
        # they differ from run to run, so they stay out of the CSV and the hash
        path, _ = base_config(
            tmp_path, kind="sgd-stiefel", eta=0.01, steps=2500, d=64, r=4, r_s=4,
            horizon=None, record_every=500,
        )
        csv_path = tmp_path / "runs" / "sgd-stiefel_seed1.csv"
        csvs, timings = [], []
        for _ in range(2):
            assert main(["run", path]) == EXIT_OK
            sidecar = json.loads((tmp_path / "runs" / "sgd-stiefel_seed1.csv.json").read_text())
            csvs.append(csv_path.read_bytes())
            timings.append(sidecar["timing"])
            assert sidecar["config_hash"] == config_hash(sidecar["config"])
        assert csvs[0] == csvs[1]
        for timing in timings:
            assert sorted(timing) == ["run_s", "sample_wait_s"]
            assert all(np.isfinite(v) and v >= 0.0 for v in timing.values())
            assert timing["sample_wait_s"] <= timing["run_s"]

    @pytest.mark.parametrize("kind", runs.KINDS)
    def test_sidecar_timing_and_resolved_step(self, tmp_path, kind):
        # every kind records its wall seconds, and an SGD kind its waits on
        # the sample producer; only a stepped kind resolves the step size and
        # batch it runs with
        fields = {"kind": kind} if kind in runs.GF_KINDS else {**SMALL_SGD, "kind": kind, "steps": 20}
        path, _ = base_config(tmp_path, **fields)
        assert main(["run", path]) == EXIT_OK
        sidecar = json.loads((tmp_path / "runs" / f"{kind}_seed1.csv.json").read_text())
        timing = sidecar["timing"]
        assert sorted(timing) == ["run_s", "sample_wait_s"][: 2 if kind in runs.SGD_KINDS else 1]
        assert all(np.isfinite(v) and v >= 0.0 for v in timing.values())
        resolved = {"eta_resolved", "batch_resolved"} & set(sidecar["config"])
        assert resolved == (set() if kind in runs.GF_KINDS else {"eta_resolved", "batch_resolved"})
        assert sidecar["config_hash"] == config_hash(sidecar["config"])

    def test_sample_draw_memory_error_exits_2(self, tmp_path, capsys, monkeypatch):
        # the third block draw fails on the producer thread; `qns run` sees
        # the MemoryError itself and refuses the run in one line
        draw, calls = trainer.draw_samples, []

        def fails_on_third_draw(*args):
            calls.append(None)
            if len(calls) == 3:
                raise MemoryError
            return draw(*args)

        monkeypatch.setattr(trainer, "draw_samples", fails_on_third_draw)
        path, _ = base_config(
            tmp_path, kind="sgd-stiefel", eta=0.01, steps=500, d=64, r=4, r_s=4,
            horizon=None, record_every=100,
        )
        before = threading.active_count()
        assert main(["run", path]) == EXIT_USAGE
        assert threading.active_count() == before
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "memory" in err
        assert not (tmp_path / "runs" / "sgd-stiefel_seed1.csv").exists()

    def test_one_git_describe_per_process(self, tmp_path, monkeypatch):
        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        trajectory._git_describe.cache_clear()
        path, _ = base_config(tmp_path, seeds=[1, 2, 3])
        assert main(["run", path]) == EXIT_OK
        assert len(calls) == 1

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        # used to end in a UnicodeDecodeError traceback and exit 1
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["run", str(path)]) == EXIT_USAGE
        out = capsys.readouterr()
        lines = out.err.strip().splitlines()
        assert out.out == "" and len(lines) == 1 and "cannot read config" in lines[0], out.err

    def test_output_files_get_the_umask_mode(self, tmp_path):
        # each file used to keep its temporary's mkstemp mode, 0600
        path, _ = base_config(tmp_path)
        csv, svg = tmp_path / "runs" / "gf-closed_seed1.csv", tmp_path / "runs" / "risk.svg"
        old = os.umask(0o022)
        try:
            assert main(["run", path]) == EXIT_OK
            assert main(["plot", str(csv), "-o", str(svg)]) == EXIT_OK
        finally:
            os.umask(old)
        for f in (csv, csv.with_name(csv.name + ".json"), svg):
            assert f.stat().st_mode & 0o777 == 0o644, f

    def test_rk4_matches_closed_form_run(self, tmp_path):
        common = dict(d=48, r=4, r_s=3, alpha=1.0, horizon=20.0, steps=10, seeds=[2])
        p1, _ = base_config(tmp_path, kind="gf-closed", tag="cf", **common)
        main(["run", p1])
        p2, _ = base_config(tmp_path, kind="gf-rk4", tag="rk", **common)
        main(["run", p2])
        cf = read_trajectory(str(tmp_path / "runs" / "cf_seed2.csv"))
        rk = read_trajectory(str(tmp_path / "runs" / "rk_seed2.csv"))
        np.testing.assert_allclose(rk.risk_normalized, cf.risk_normalized, atol=1e-6)
        np.testing.assert_allclose(rk.alignments, cf.alignments, atol=1e-6)

    def test_rk4_reduced_factor_matches_dense_w(self, tmp_path):
        # the run integrates the (r + k) x r_s factor S; RK4 on the dense
        # d x r_s W with the same sub-steps must give the same records
        from qns.flow import FlowParams, _rk4_dt, integrate_rk4
        from qns.linalg import rng_stream, sample_gaussian_mat
        from conftest import alignment_gram
        from qns.model import PowerLawSpectrum, StudentState, TeacherModel, population_risk

        d, r, r_s, seed = 40, 5, 3, 4
        path, _ = base_config(tmp_path, kind="gf-rk4", d=d, r=r, r_s=r_s,
                              horizon=15.0, steps=8, seeds=[seed], tracked_j=[1, 2, 5])
        assert main(["run", path]) == EXIT_OK
        data = read_trajectory(str(tmp_path / "runs" / f"gf-rk4_seed{seed}.csv"))
        spec = PowerLawSpectrum(r=r, alpha=1.0)
        teacher = TeacherModel(d=d, spectrum=spec)
        lam, frob = spec.lambdas, spec.frob

        def w_rhs(w):
            mw = np.zeros_like(w)
            mw[:r] = lam[:, None] * w[:r]
            return (mw - (frob / np.sqrt(r_s)) * (w @ (w.T @ w))) / (2.0 * np.sqrt(r_s) * frob)

        w0 = sample_gaussian_mat(d, r_s, 1.0 / d, rng_stream(seed, 1))
        dt = _rk4_dt(FlowParams.from_spectrum(spec, d, r_s))
        risk, aligns = [], []
        for w in integrate_rk4(w_rhs, w0, data.time_raw, dt):
            student = StudentState(w)
            risk.append(population_risk(teacher, student, normalized=True))
            aligns.append(np.diag(alignment_gram(teacher, student))[[0, 1, 4]])
        np.testing.assert_allclose(data.risk_normalized, risk, rtol=1e-12, atol=0)
        np.testing.assert_allclose(data.alignments, aligns, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("kind, name", [(kind, name) for name, (kinds, _) in runs._READ_BY.items()
                                            for kind in runs.KINDS if kind not in kinds])
    def test_field_the_kind_does_not_read_exits_2(self, tmp_path, capsys, kind, name):
        # each used to run, and exit 0, as if the field were not there
        value = {"eta": 0.01, "horizon": 40.0, "grid": "linear", "batch": 2,
                 "record_every": 50, "record_points": 10}[name]
        fields = {"kind": kind, **({} if kind in runs.GF_KINDS else {"horizon": None})}
        path, cfg = base_config(tmp_path, **{**fields, name: value})
        assert main(["run", path]) == EXIT_USAGE
        out = capsys.readouterr()
        lines = out.err.strip().splitlines()
        assert out.out == "" and len(lines) == 1 and f"config field '{name}'" in lines[0], out.err
        assert f"{kind} kind does not read it" in lines[0]
        # the field's default is what the kind would use anyway: accepted
        runs.RunConfig.from_dict({**cfg, name: runs._READ_BY[name][1]})

    @pytest.mark.parametrize("d, alpha", [
        (2, math.nextafter(0.5, 0.0)),
        (sys.maxsize, 0.0),
        (sys.maxsize, math.nextafter(0.5, 0.0)),
        (sys.maxsize, math.nextafter(0.5, 1.0)),
        (sys.maxsize, sys.float_info.max),
    ])
    def test_scheduled_eta_is_finite_and_positive(self, d, alpha):
        # 0.5 / (d r^alpha) below the boundary, where r^alpha <= d^0.5, and
        # 0.5 / d above it: no r = d <= sys.maxsize leaves float64's range
        eta = runs.RunConfig(kind="sgd-stiefel", d=d, r=d, r_s=1, alpha=alpha).resolved_eta()
        assert 0.0 < eta < math.inf


class TestFitCommand:
    def test_fit_exact_power_law(self, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        x = np.geomspace(10, 1e4, 40)
        rows = ["step,time_raw,time_rescaled,compute,risk,risk_normalized"]
        for i, xi in enumerate(x):
            rows.append(f"{i},{xi},{xi},{xi},{xi**-1.5/8},{xi**-1.5}")
        csv.write_text("\n".join(rows) + "\n")
        assert main(["fit", str(csv)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["median_exponent"] == pytest.approx(-1.5, abs=1e-9)

    def test_missing_file_exits_2(self, capsys):
        assert main(["fit", "/nonexistent/file.csv"]) == EXIT_USAGE

    def test_empty_window_errors(self, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        x = np.geomspace(10, 1e4, 40)
        rows = ["step,time_raw,time_rescaled,compute,risk,risk_normalized"]
        for i, xi in enumerate(x):
            rows.append(f"{i},{xi},{xi},{xi},{xi**-1.0/8},{xi**-1.0}")
        csv.write_text("\n".join(rows) + "\n")
        assert main(["fit", str(csv), "--window", "1e9", "1e10"]) == EXIT_USAGE


POWER_LAW = "step,time_raw,time_rescaled,compute,risk,risk_normalized\n" + "".join(
    f"{i},{x},{x},{x},{x**-1.5 / 8},{x**-1.5}\n" for i, x in enumerate(np.geomspace(10, 1e4, 40), 1))
HOSTILE_CSVS = {
    "empty": "",
    "header_only": "step,time_raw,time_rescaled,compute,risk,risk_normalized,align_1\n",
    "no_trajectory_header": "a,b,c\n1,2,3\n",
    "non_numeric_cell": "step,time_raw,time_rescaled,compute,risk,risk_normalized\n1,2,3,4,5,x\n",
    "short_row": "step,time_raw,time_rescaled,compute,risk,risk_normalized\n1,2,3,4,5\n",
    # after 40 rows of a power law: fit used to exit 0, after two
    # RuntimeWarnings for the inf, and plot to draw an SVG
    "inf_cell": POWER_LAW + "41,1e4,1e4,inf,1e-7,8e-7\n",
    "nan_cell": POWER_LAW + "41,1e4,1e4,1e4,nan,nan\n",
}


@pytest.mark.parametrize("command", ["fit", "plot"])
@pytest.mark.parametrize("case", sorted(HOSTILE_CSVS))
def test_hostile_csv_exits_2_naming_the_file(tmp_path, capsys, command, case):
    csv = tmp_path / f"{case}.csv"
    csv.write_text(HOSTILE_CSVS[case])
    svg = tmp_path / "out.svg"
    argv = [command, str(csv)] + (["-o", str(svg)] if command == "plot" else [])
    assert main(argv) == EXIT_USAGE
    out = capsys.readouterr()
    lines = out.err.strip().splitlines()
    assert out.out == "" and len(lines) == 1 and str(csv) in lines[0], out.err
    assert not svg.exists()


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["riccati", "monotone", "retraction", "finetune", "bounds"])
    def test_passing_suite_exit_zero(self, suite, capsys):
        # every suite at its default sizes
        assert main(["verify", suite]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert all("residual" in c for c in report["checks"])

    def test_monotone_report_exhibits_euler_violation(self, capsys):
        assert main(["verify", "monotone", "--trials", "150"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        euler = {c["name"]: c for c in report["checks"]}["euler_counterexample_found"]["detail"]
        assert euler["violations"] >= 1
        assert euler["witness"]["slack"] < -1e-10 and 0 <= euler["witness"]["trial"] < 150
        # the report has no second mode: the --euler flag is gone
        with pytest.raises(SystemExit) as exc:
            main(["verify", "monotone", "--euler"])
        assert exc.value.code == EXIT_USAGE

    def test_monotone_default_pass(self, capsys):
        assert main(["verify", "monotone", "--trials", "100"]) == EXIT_OK

    def test_bounds_suite_small(self, capsys):
        assert main(["verify", "bounds", "--steps", "500"]) == EXIT_OK

    @pytest.mark.parametrize("dim", ["20", "54"])
    def test_bounds_largest_dims_pass(self, dim, capsys):
        assert main(["verify", "bounds", "--dim", dim, "--steps", "300"]) == EXIT_OK

    @pytest.mark.parametrize(
        "argv, needle",
        [
            # negative sizes used to check nothing and report "passed": true
            (["riccati", "--trials", "-3"], "--trials"),
            (["bounds", "--steps", "-1"], "--steps"),
            (["finetune", "--dim", "-2"], "--dim"),
            # too small to check: these used to end in tracebacks
            (["monotone", "--dim", "1"], "--dim must be >= 2"),
            (["retraction", "--dim", "2"], "--dim must be >= 4"),
            (["finetune", "--dim", "2"], "--dim must be >= 3"),
            # bounds fixes d = 1000, eta = 1e-4: at 55 its floor check fails,
            # and larger sizes used to end in tracebacks
            (["bounds", "--dim", "55"], "--dim must be <= 54"),
            (["bounds", "--dim", "100"], "--dim must be <= 54"),
            (["bounds", "--dim", "1001"], "--dim must be <= 54"),
            # flags a suite does not read used to run its defaults and exit 0
            (["monotone", "--steps", "3"], "--steps"),
            (["riccati", "--steps", "3"], "--steps"),
            (["retraction", "--steps", "3"], "--steps"),
            (["finetune", "--steps", "3"], "--steps"),
            (["bounds", "--trials", "5"], "--trials"),
            # one past each --dim cap, placed here so the ids of the rows below stay
            (["riccati", "--dim", "257"], "--dim must be <= 256"),
            (["monotone", "--dim", "65"], "--dim must be <= 64"),
            (["retraction", "--dim", "10001"], "--dim must be <= 10000"),
            (["finetune", "--dim", "2001"], "--dim must be <= 2000"),
            # arrays numpy cannot describe used to end in an "array is too
            # big" traceback with exit 1
            (["riccati", "--trials", str(2**62)], "--trials"),
            (["riccati", "--dim", str(2**62)], "--dim"),
            (["monotone", "--dim", str(2**62)], "--dim"),
            (["retraction", "--dim", str(2**62)], "--dim"),
            (["finetune", "--dim", str(2**62)], "--dim"),
            # sizes that used to run without bound
            (["monotone", "--trials", str(2**62)], "--trials must be <= 100000"),
            (["monotone", "--trials", str(10**11)], "--trials must be <= 100000"),
            (["finetune", "--trials", str(2**62)], "--trials must be <= 100000"),
            (["retraction", "--trials", str(2**62)], "--trials must be <= 100000"),
            (["bounds", "--steps", str(2**62)], "--steps must be <= 100000"),
            # a negative seed used to end in a SeedSequence traceback
            (["riccati", "--seed", "-1"], "--seed must be >= 0"),
            # with argparse's choices this printed the usage and a second line
            (["nosuch"], "choose from bounds, finetune, monotone, retraction, riccati"),
        ],
    )
    def test_refuses_sizes_it_cannot_check(self, argv, needle, capsys):
        assert main(["verify", *argv]) == EXIT_USAGE
        out = capsys.readouterr()
        lines = out.err.strip().splitlines()
        assert out.out == "" and len(lines) == 1 and needle in lines[0], out.err

    def test_retraction_many_trials_stays_on_the_manifold(self, capsys):
        # without a 1000-trial cleanup the fast W drifted off the manifold,
        # and this ended in a ManifoldError traceback; each trial compares one
        # step from the same W, so the gap stays at rounding however long
        assert main(["verify", "retraction", "--trials", "10000", "--seed", "0"]) == EXIT_OK
        out = capsys.readouterr()
        checks = {c["name"]: c for c in json.loads(out.out)["checks"]}
        assert out.err == "" and checks["orthonormal_after_steps"]["residual"] <= 1e-12
        assert checks["rank1_equals_dense"]["residual"] <= 1e-13

    def test_suite_off_the_manifold_exits_3(self, monkeypatch, capsys):
        def off_manifold(dim=64, trials=50, seed=0):
            raise trainer.ManifoldError(1e-3, 7)

        monkeypatch.setitem(verify.SUITES, "retraction", off_manifold)
        assert main(["verify", "retraction"]) == EXIT_DIVERGED
        out = capsys.readouterr()
        lines = out.err.strip().splitlines()
        assert out.out == "" and len(lines) == 1 and "not orthonormal at step 7" in lines[0]


class TestPlotCommand:
    def test_deterministic_svg(self, tmp_path):
        path, _ = base_config(tmp_path)
        main(["run", path])
        csv = str(tmp_path / "runs" / "gf-closed_seed1.csv")
        out1, out2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        assert main(["plot", csv, "-o", out1, "--loglog"]) == EXIT_OK
        assert main(["plot", csv, "-o", out2, "--loglog"]) == EXIT_OK
        assert open(out1, "rb").read() == open(out2, "rb").read()
        assert b"polyline" in open(out1, "rb").read()

    def test_theory_overlay_adds_dashed_series(self, tmp_path):
        path, _ = base_config(tmp_path)
        main(["run", path])
        csv = str(tmp_path / "runs" / "gf-closed_seed1.csv")
        out = str(tmp_path / "t.svg")
        assert main(["plot", csv, "-o", out, "--theory", "--x", "time"]) == EXIT_OK
        body = open(out).read()
        assert "stroke-dasharray" in body

    def test_missing_output_directory_exits_2(self, tmp_path, capsys):
        path, _ = base_config(tmp_path)
        main(["run", path])
        capsys.readouterr()
        csv = str(tmp_path / "runs" / "gf-closed_seed1.csv")
        svg = tmp_path / "missing_dir" / "x.svg"
        assert main(["plot", csv, "-o", str(svg)]) == EXIT_USAGE
        out = capsys.readouterr()
        lines = out.err.strip().splitlines()
        assert out.out == "" and len(lines) == 1 and str(svg) in lines[0], out.err
        assert not svg.parent.exists()

    @pytest.mark.parametrize(
        "sidecar",
        [[1, 2],                                  # no JSON object: AttributeError before
         {"config": {"d": 128, "r": 4, "r_s": 4}},  # no alpha: KeyError before
         {"config": "gf-closed"}],                # a config that is no object
    )
    def test_theory_from_hostile_sidecar_exits_2(self, tmp_path, capsys, sidecar):
        path, _ = base_config(tmp_path)
        main(["run", path])
        capsys.readouterr()
        csv = str(tmp_path / "runs" / "gf-closed_seed1.csv")
        with open(csv + ".json", "w") as fh:
            json.dump(sidecar, fh)
        svg = tmp_path / "t.svg"
        assert main(["plot", csv, "-o", str(svg), "--theory"]) == EXIT_USAGE
        out = capsys.readouterr()
        lines = out.err.strip().splitlines()
        assert out.out == "" and len(lines) == 1 and csv + ".json" in lines[0], out.err
        assert not svg.exists()

    def test_markup_in_a_label_round_trips(self, tmp_path):
        # a file name with markup in it used to give an SVG no XML parser read
        path, _ = base_config(tmp_path)
        main(["run", path])
        csv = tmp_path / "a&b<c>]]>'\".csv"
        os.rename(tmp_path / "runs" / "gf-closed_seed1.csv", csv)
        svg = str(tmp_path / "t.svg")
        assert main(["plot", str(csv), "-o", svg]) == EXIT_OK
        texts = [t.firstChild.data for t in minidom.parse(svg).getElementsByTagName("text")]
        assert csv.name in texts and "normalized risk" in texts

    def test_unwritable_characters_become_replacement_marks(self, tmp_path):
        # XML has no reference for a control character or a lone surrogate
        svg = str(tmp_path / "t.svg")
        line_chart([{"x": [1, 2], "y": [3, 4], "label": "a\x01b\udcff"}], svg,
                   title="<&>", xlabel="x\x7f", ylabel="\U0001f600")
        texts = [t.firstChild.data for t in minidom.parse(svg).getElementsByTagName("text")]
        assert {"a\ufffdb\ufffd", "<&>", "x\x7f", "\U0001f600"} <= set(texts)

    def test_failed_write_keeps_the_old_svg_and_no_temporary(self, tmp_path, capsys, monkeypatch):
        path, _ = base_config(tmp_path)
        main(["run", path])
        capsys.readouterr()
        svg = tmp_path / "t.svg"
        svg.write_text("old")

        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", no_space)
        assert main(["plot", str(tmp_path / "runs" / "gf-closed_seed1.csv"), "-o", str(svg)]) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: cannot write {svg}: No space left on device"]
        assert svg.read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "runs", "t.svg"]

    def test_roundtrip_17_digits(self, tmp_path):
        path, _ = base_config(tmp_path)
        main(["run", path])
        csv = str(tmp_path / "runs" / "gf-closed_seed1.csv")
        data = read_trajectory(csv)
        # rewrite from parsed values and compare bytes: lossless round trip
        from qns.trajectory import write_trajectory

        out2 = str(tmp_path / "rt.csv")
        write_trajectory(out2, data, json.loads(open(csv + ".json").read())["config"], 1)
        a = open(csv).read()
        b = open(out2).read()
        assert a == b
