"""Benchmark of the qns command-line program.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in fresh worker processes (see ``worker.py``) with one
BLAS thread each, one process at a time, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (set-up time, round time, work rate, peak
memory); with ``--trace 1`` they are the per-layer ones from a traced run.
Exits non-zero without a result when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sgd_online", "gd_sweep", "gf_closed", "verify_suites")
SETUP_SAMPLES = 5      # processes whose set-up time is measured; the median is reported
DEADLINE_S = 170.0     # the whole benchmark ends within this


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QNS_SEED", None)  # would override the generated configs' seeds
    env.pop("PYTHONPATH", None)
    # the run sidecars record `git describe`; never look above the checkout
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QNS_THREADS"):
        env[var] = "1"
    return env


def spawn(args, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.time()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)] + extra, cwd=ROOT, env=worker_env(),
        stdout=subprocess.PIPE, text=True, timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(extra) or 'run'} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "qns", "cli.py")):
        print(f"error: no qns sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    try:
        main_run = spawn(args, [], deadline)
        setups = [main_run["setup_s"]]
        if not args.trace:
            setups += [spawn(args, ["--setup-only"], deadline)["setup_s"]
                       for _ in range(SETUP_SAMPLES - 1)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for msg in main_run["failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in main_run["per_layer"].items()}
        metrics["trajectory.csv_bytes"] = {"value": main_run.get("csv_bytes", 0), "unit": "bytes"}
        for name, share in sorted(main_run["shares"].items(), key=lambda kv: -kv[1]):
            print(f"share of round: {name:40s} {share:7.3f}", file=sys.stderr)
    else:
        run_s = statistics.median(main_run["round_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "work_per_s": {"value": main_run["work_units"] / run_s, "unit": "1/s"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not main_run["failures"],
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
