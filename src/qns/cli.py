"""Command-line entry points: ``run``, ``fit``, ``verify``, ``plot``.

Run configs are JSON files (runs have too many knobs for positional flags);
``-O key=value`` overrides individual fields, ``-O "seeds=[N]"`` the seed list.
Each seed runs through :func:`qns.runs.run_seed`.  Exit codes: 0 success,
1 verification failure, 2 usage/config error (among them a config that is
not a UTF-8 JSON object, sets a field its kind does not read, or sizes an
array larger than numpy can describe, an unknown ``verify`` suite, a
negative ``verify`` seed or size, a ``verify`` size past its cap, a command
that needs more memory than is available, an ``out_dir`` that cannot be
created, checked before any seed runs, a ``fit`` or ``plot`` input that is
no trajectory CSV of finite cells, a ``plot --theory`` sidecar whose
config gives no theory curve, and a ``plot -o`` path that cannot be
written), 3 numeric failure (divergence, a
Stiefel student that left the manifold, in a run or a ``verify`` suite, a
rank-deficient student, a closed-form horizon past float64's exp range, or
non-finite records), 130 interrupted (Ctrl-C: one stderr line and no CSV for
an unfinished seed).  :func:`main` maps the typed numeric errors
(:class:`qns.linalg.NumericError`) and ``MemoryError`` of every command to
exit 3 and 2 with one stderr line.  Each command imports only the modules it
runs.  Seeds run one after another (each SGD run adds its own sample
producer thread).  No environment variable is read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .linalg import NumericError

EXIT_OK, EXIT_VERIFY, EXIT_USAGE, EXIT_DIVERGED, EXIT_INTERRUPTED = 0, 1, 2, 3, 130


def cmd_run(args) -> int:
    from .runs import ConfigError, RunConfig, run_seed

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if type(raw) is not dict:
        print(f"error: the config must be a JSON object, got {type(raw).__name__}", file=sys.stderr)
        return EXIT_USAGE
    for override in args.override or []:
        if "=" not in override:
            print(f"error: override {override!r} is not key=value", file=sys.stderr)
            return EXIT_USAGE
        key, value = override.split("=", 1)
        try:
            raw[key] = json.loads(value)
        except json.JSONDecodeError:
            raw[key] = value
    try:
        cfg = RunConfig.from_dict(raw)
    except (ConfigError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:  # before any seed runs, not after all of them have
        os.makedirs(os.path.abspath(cfg.out_dir), exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create out_dir {cfg.out_dir!r}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    paths = [run_seed(cfg, seed) for seed in cfg.seeds]
    for p in paths:
        print(p)
    return EXIT_OK


def _read_trajectories(paths: list[str]) -> list | None:
    """Each CSV's trajectory, or None after one stderr line on the first bad one."""
    from .trajectory import read_trajectory

    try:
        return [read_trajectory(path) for path in paths]
    except (OSError, ValueError) as exc:  # each message names the file
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_fit(args) -> int:
    from .analysis import fit_power_law

    datas = _read_trajectories(args.csv)
    if datas is None:
        return EXIT_USAGE
    results = []
    for path, data in zip(args.csv, datas):
        mask = (data.compute > 0) & (data.risk_normalized > 0)
        try:
            window = (args.window[0], args.window[1]) if args.window else None
            fit = fit_power_law(data.compute[mask], data.risk_normalized[mask], window=window)
        except ValueError as exc:
            print(f"error: fit failed for {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        results.append(
            {
                "path": path,
                "exponent": fit.exponent,
                "intercept": fit.intercept,
                "r2": fit.r2,
                "window": list(fit.window),
                "n_points": fit.n_points,
            }
        )
    report = {
        "files": results,
        "median_exponent": float(np.median([r["exponent"] for r in results])),
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    import inspect

    from .verify import MAX_DIM, MAX_STEPS, MAX_TRIALS, MIN_DIM, SUITES, run_suite

    if args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r}; choose from {', '.join(sorted(SUITES))}",
              file=sys.stderr)
        return EXIT_USAGE
    for name in ("dim", "trials", "steps"):
        value = getattr(args, name)
        if value < 0:
            print(f"error: --{name} must be >= 0 (0 is the suite default), got {value}", file=sys.stderr)
            return EXIT_USAGE
    if args.seed < 0:  # a negative entropy ends in a SeedSequence traceback
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    # each suite's signature is the one list of the sizes it reads
    reads = inspect.signature(SUITES[args.suite]).parameters
    for name in ("trials", "steps"):
        if getattr(args, name) and name not in reads:
            print(f"error: the {args.suite} suite does not read --{name}", file=sys.stderr)
            return EXIT_USAGE
    if args.dim and args.dim < MIN_DIM[args.suite]:
        print(f"error: --dim must be >= {MIN_DIM[args.suite]} for the {args.suite} suite, "
              f"got {args.dim}", file=sys.stderr)
        return EXIT_USAGE
    for name, cap in (("dim", MAX_DIM[args.suite]), ("trials", MAX_TRIALS), ("steps", MAX_STEPS)):
        if (value := getattr(args, name)) > cap:
            print(f"error: --{name} must be <= {cap} for the {args.suite} suite, got {value}",
                  file=sys.stderr)
            return EXIT_USAGE
    # a size of 0 leaves the suite's default
    kwargs = {name: getattr(args, name) for name in ("dim", "trials", "steps") if getattr(args, name)}
    report = run_suite(args.suite, seed=args.seed, **kwargs)
    print(json.dumps(report, indent=1, sort_keys=True))
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def cmd_plot(args) -> int:
    from .svgplot import line_chart

    datas = _read_trajectories(args.csv)
    if datas is None:
        return EXIT_USAGE
    series = []
    # the theory curve comes from the first CSV whose sidecar holds a config
    theory_at = next((i for i, data in enumerate(datas) if "config" in data.meta), 0)
    for i, (path, data) in enumerate(zip(args.csv, datas)):
        x = data.time_rescaled if args.x == "time" else data.compute
        series.append({"x": x, "y": data.risk_normalized, "label": os.path.basename(path)})
        if args.theory and i == theory_at:
            from dataclasses import fields

            from .flow import effective_scales, theory_risk_curve
            from .model import PowerLawSpectrum
            from .runs import ConfigError, RunConfig

            c = data.meta.get("config")
            try:  # a config qns run accepts, the keys it does not know (eta_resolved) aside
                if type(c) is not dict:
                    raise ConfigError("no run config" if c is None else f"a {type(c).__name__}")
                names = {f.name for f in fields(RunConfig)}
                cfg = RunConfig.from_dict({k: v for k, v in c.items() if k in names})
                spectrum = PowerLawSpectrum(r=cfg.r, alpha=cfg.alpha)
                sc = effective_scales(cfg.d, cfg.r_s, cfg.r, cfg.alpha)
            except (TypeError, ValueError, MemoryError) as exc:
                print(f"error: {path}.json: its config gives no theory curve: {exc}", file=sys.stderr)
                return EXIT_USAGE
            theo = np.array([theory_risk_curve(t, sc, spectrum) for t in data.time_rescaled])
            series.append({"x": x, "y": theo, "label": "theory", "dashed": True})
    try:
        warnings = line_chart(series, args.out, loglog=args.loglog, ylabel="normalized risk",
                              xlabel="rescaled time" if args.x == "time" else "compute")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qns",
        description="Quadratic-network scaling-law simulator and verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run config (one CSV per seed)")
    p_run.add_argument("config", help="JSON config path")
    p_run.add_argument("-O", "--override", action="append", metavar="KEY=VALUE",
                       help="override a config field (value parsed as JSON)")
    p_run.set_defaults(func=cmd_run)

    p_fit = sub.add_parser("fit", help="fit power-law exponents to trajectories")
    p_fit.add_argument("csv", nargs="+")
    p_fit.add_argument("--window", nargs=2, type=float, metavar=("LO", "HI"),
                       help="explicit compute window (default: chosen automatically)")
    p_fit.set_defaults(func=cmd_fit)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", help="the suite to run (an unknown name lists them)")
    p_ver.add_argument("--dim", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=0)
    p_ver.add_argument("--steps", type=int, default=0)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)

    p_plot = sub.add_parser("plot", help="render trajectories to SVG")
    p_plot.add_argument("csv", nargs="+")
    p_plot.add_argument("-o", "--out", required=True)
    p_plot.add_argument("--loglog", action="store_true")
    p_plot.add_argument("--theory", action="store_true",
                        help="overlay the staircase limit curve (dashed)")
    p_plot.add_argument("--x", choices=("compute", "time"), default="compute")
    p_plot.set_defaults(func=cmd_plot)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except MemoryError:
        print("error: the command needs more memory than is available", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
