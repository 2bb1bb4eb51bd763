"""One workload in a fresh process: set up, run timed rounds, check outputs.

Started by ``run.py``; prints one JSON line.  With ``--setup-only`` the
process stops after the warm-up and reports only its set-up time.  With
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics and the tracing overhead instead of end-to-end timings.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

from workloads import WORKLOADS, call_cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_round(wl):
    """Time one round; returns (seconds, exit codes, stdouts, signature)."""
    codes, outputs = {}, {}
    t0 = time.perf_counter()
    for label, argv in wl.ops:
        codes[label], outputs[label] = call_cli(argv)
    dt = time.perf_counter() - t0
    return dt, codes, outputs, signature(outputs)


def signature(outputs: dict[str, str]) -> dict[str, bytes]:
    """What a round produced: each stdout and the bytes of each file it names."""
    sig = {}
    for label, out in outputs.items():
        sig[label] = out.encode()
        for line in out.splitlines():
            if line.endswith(".csv") and os.path.isfile(line):
                with open(line, "rb") as fh:
                    sig[line] = fh.read()
    return sig


def trace_targets():
    import qns.analysis as analysis
    import qns.cli as cli
    import qns.flow as flow
    import qns.linalg as linalg
    import qns.model as model
    import qns.riccati as riccati
    import qns.trainer as trainer
    import qns.trajectory as trajectory
    import qns.verify as verify

    def points(args, kwargs):
        return float(len(args[1]))

    def gemm_flops(args, kwargs):
        d, r_s = args[0].w.shape
        return 4.0 * d * r_s * r_s

    return [
        (trainer, "sgd_step", "trainer.sgd_step", None),
        (trainer, "population_gd_step", "trainer.population_gd_step", gemm_flops),
        (trainer, "run_training", "trainer.run_training", None),
        (model, "draw_samples", "model.draw_samples", None),
        (model, "student_output", "model.student_output", None),
        (model, "population_risk", "model.population_risk", None),
        (linalg, "inv_sqrt_gram", "linalg.inv_sqrt_gram", None),
        (linalg, "loewner_slack", "linalg.loewner_slack", None),
        (flow, "weight_risk_curve", "flow.weight_risk_curve", points),
        (flow, "align_curves", "flow.align_curves", points),
        (riccati, "bounding_step", "riccati.bounding_step", None),
        (riccati, "monotone_update", "riccati.monotone_update", None),
        (riccati, "riccati_blocks", "riccati.riccati_blocks", None),
        (riccati, "v_update", "riccati.v_update", None),
        (riccati, "closed_form_discrete_gram", "riccati.closed_form_discrete_gram", None),
        (verify, "suite_riccati", "verify.riccati", None),
        (verify, "suite_monotone", "verify.monotone", None),
        (verify, "suite_bounds", "verify.bounds", None),
        (analysis, "fit_power_law", "analysis.fit_power_law", None),
        (trajectory, "read_trajectory", "trajectory.read_trajectory", None),
        (trajectory, "write_trajectory", "trajectory.write_trajectory", None),
        (cli, "_run_gf_rk4", "cli.gf_rk4", None),
        (cli, "main", "cli.main", None),
    ]


def layer_metrics(totals: dict, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced round; 0 for a function the workload never calls."""

    def per_call(name, scale):
        t = totals[name]
        return t["s"] / t["calls"] * scale if t["calls"] else 0.0

    def self_per_call(name, scale):
        t = totals[name]
        return t["self_s"] / t["calls"] * scale if t["calls"] else 0.0

    def per_unit(name, scale):
        t = totals[name]
        return t["s"] / t["units"] * scale if t["units"] else 0.0

    gd = totals["trainer.population_gd_step"]
    m = {
        "trainer.sgd_step.calls": (totals["trainer.sgd_step"]["calls"] / rounds, "count"),
        "trainer.sgd_step.us_per_call": (per_call("trainer.sgd_step", 1e6), "us"),
        "trainer.sgd_step.self_us_per_call": (self_per_call("trainer.sgd_step", 1e6), "us"),
        "model.draw_samples.us_per_call": (per_call("model.draw_samples", 1e6), "us"),
        "model.student_output.us_per_call": (per_call("model.student_output", 1e6), "us"),
        "linalg.inv_sqrt_gram.calls": (totals["linalg.inv_sqrt_gram"]["calls"] / rounds, "count"),
        "linalg.inv_sqrt_gram.us_per_call": (per_call("linalg.inv_sqrt_gram", 1e6), "us"),
        "model.population_risk.us_per_call": (per_call("model.population_risk", 1e6), "us"),
        "trainer.run_training.self_s": (totals["trainer.run_training"]["self_s"] / rounds, "s"),
        "trainer.population_gd_step.ms_per_call": (per_call("trainer.population_gd_step", 1e3), "ms"),
        "trainer.population_gd_step.gflop_per_s_computed": (
            gd["units"] / gd["s"] * 1e-9 if gd["s"] else 0.0, "GFLOP/s"),
        "analysis.fit_power_law.ms_per_call": (per_call("analysis.fit_power_law", 1e3), "ms"),
        "trajectory.read_trajectory.ms_per_call": (per_call("trajectory.read_trajectory", 1e3), "ms"),
        "flow.weight_risk_curve.ms_per_point": (per_unit("flow.weight_risk_curve", 1e3), "ms"),
        "flow.align_curves.ms_per_point": (per_unit("flow.align_curves", 1e3), "ms"),
        "cli.gf_rk4.s": (totals["cli.gf_rk4"]["s"] / rounds, "s"),
        "verify.riccati.s": (totals["verify.riccati"]["s"] / rounds, "s"),
        "verify.monotone.s": (totals["verify.monotone"]["s"] / rounds, "s"),
        "verify.bounds.s": (totals["verify.bounds"]["s"] / rounds, "s"),
        "trajectory.write_trajectory.ms_per_call": (per_call("trajectory.write_trajectory", 1e3), "ms"),
        "cli.main.self_s": (totals["cli.main"]["self_s"] / rounds, "s"),
    }
    for name in ("riccati.bounding_step", "riccati.monotone_update", "riccati.riccati_blocks",
                 "riccati.v_update", "riccati.closed_form_discrete_gram", "linalg.loewner_slack"):
        m[f"{name}.us_per_call"] = (per_call(name, 1e6), "us")
    return m


def timed_rounds(wl, budget: float, tracer=None) -> tuple[list[tuple], list[bool]]:
    """Whole rounds until the next would not fit in ``budget`` seconds.

    At least one round runs.  With a tracer, rounds alternate untraced and
    traced, at least one of each, so both sample the same stretch of time.
    Returns the rounds and, for each, whether it was traced.
    """
    rounds, traced = [], []
    start = time.perf_counter()
    while True:
        on = tracer is not None and len(rounds) % 2 == 1
        if on:
            tracer.install()
        try:
            rounds.append(run_round(wl))
        finally:
            if on:
                tracer.uninstall()
        traced.append(on)
        median = statistics.median(r[0] for r in rounds)
        if len(rounds) >= (2 if tracer else 1) and time.perf_counter() - start + median > budget:
            return rounds, traced


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--t0", type=float, required=True, help="wall clock when the process was spawned")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import qns.cli  # noqa: F401  (the import is part of the set-up time)

    if not os.path.abspath(qns.cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"error: imported qns from {qns.cli.__file__}, not from this checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out", args.workload + ("_setup" if args.setup_only else ""))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    wl = WORKLOADS[args.workload](args.seed, os.path.relpath(out_dir, ROOT), ROOT)
    for label, argv_ in wl.warm_ops:
        rc, _ = call_cli(argv_)
        if rc != 0:
            print(f"error: warm-up {label} exited {rc}", file=sys.stderr)
            return 1
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s, "work_units": wl.work_units}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(trace_targets())
        rounds, traced = timed_rounds(wl, args.seconds, tracer)
        tracer.write(os.path.join(out_dir, "spans.npz"))
        totals = tracer.totals()
        on = [r[0] for r, t in zip(rounds, traced) if t]
        off = [r[0] for r, t in zip(rounds, traced) if not t]
        metrics = layer_metrics(totals, len(on))
        metrics["trace.overhead_s"] = (statistics.median(on) - statistics.median(off), "s")
        shares = {name: t["s"] / sum(on) for name, t in totals.items() if t["calls"]}
        result.update(per_layer=metrics, shares=shares)
        with open(os.path.join(out_dir, "trace_summary.json"), "w") as fh:
            json.dump({"traced_round_s": on, "untraced_round_s": off, "totals": totals,
                       "shares": shares}, fh, indent=1, sort_keys=True)
    else:
        rounds, _ = timed_rounds(wl, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["round_s"] = [r[0] for r in rounds]
    result["attempted"] = sum(len(r[1]) for r in rounds)
    result["failed"] = sum(1 for r in rounds for rc in r[1].values() if rc != 0)

    # outputs are checked once, on the first round whose operations all
    # succeeded; every later such round must reproduce them byte for byte
    clean = [r for r in rounds if all(rc == 0 for rc in r[1].values())]
    failures = []
    if clean:
        failures += wl.check(clean[0][2])
        failures += [f"round {k}: outputs differ from the first round's for the same seed"
                     for k, r in enumerate(clean[1:], 1) if r[3] != clean[0][3]]
        result["csv_bytes"] = sum(len(v) for key, v in clean[0][3].items() if key.endswith(".csv"))
    result["failures"] = failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
