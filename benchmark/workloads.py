"""The four workloads: inputs made from a seed, a warm-up, the timed
operations of one round, and the checks on a round's outputs.

Each operation is one call of the user-facing entry point ``qns.cli.main``
(``qns run``, ``qns fit`` or ``qns verify``) on a config the workload wrote.
The program sees only those configs; the seed sets the run seed (student
initialisation and sample stream) or the ``--seed`` of a verify suite, never
a problem size, so every seed does the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import numpy as np

import checks

# exp(x) overflows float64 past ~709.8; a closed-form horizon must keep the
# fastest mode's exponent t * lambda_tilde_1 / T_w below this
EXP_LIMIT = 700.0


def lambdas(r: int, alpha: float) -> np.ndarray:
    return np.arange(1, r + 1, dtype=float) ** (-alpha)


def t_eff(d: int, r: int, r_s: int, alpha: float) -> float:
    """Staircase timescale ``sqrt(r_s) ||lambda|| log(d / r_s)``."""
    return math.sqrt(r_s) * float(np.linalg.norm(lambdas(r, alpha))) * math.log(d / r_s)


def kappa_eff(r: int, alpha: float) -> float:
    return float(r**alpha) if alpha < 0.5 else 1.0


def call_cli(argv: list[str]) -> tuple[int | None, str]:
    """Run ``qns <argv>`` in this process; returns (exit code, stdout).

    The exit code is None when the program raised instead of returning one.
    """
    import qns.cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = qns.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed operation, not a crash
        print(f"qns {' '.join(argv)}: {exc!r}", file=sys.stderr)
        rc = None
    return rc, buf.getvalue()


class Workload:
    """One workload; subclasses fill ``ops``, ``warm_ops`` and ``work_units``."""

    name = ""

    def __init__(self, seed: int, out_dir: str, root: str):
        self.seed = seed
        self.out = out_dir
        self.ops: list[tuple[str, list[str]]] = []
        self.warm_ops: list[tuple[str, list[str]]] = []
        self.work_units = 0

    def write_config(self, name: str, cfg: dict) -> str:
        path = os.path.join(self.out, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1)
        return path

    def csv_path(self, cfg: dict) -> str:
        """Where ``qns run`` writes the trajectory of the config's one seed."""
        return os.path.join(cfg["out_dir"], f"{cfg['tag']}_seed{cfg['seeds'][0]}.csv")

    def check(self, outputs: dict[str, str]) -> list[str]:
        raise NotImplementedError


class SgdOnline(Workload):
    """Online Stiefel SGD at criterion 8's shape, past the first transition."""

    name = "sgd_online"
    d, r, r_s, alpha = 512, 8, 16, 1.0
    tau_end = 1.25

    def __init__(self, seed, out_dir, root):
        super().__init__(seed, out_dir, root)
        self.eta = 0.1 / self.d
        self.t_eff = t_eff(self.d, self.r, self.r_s, self.alpha)
        steps = math.ceil(self.tau_end * self.t_eff / self.eta)
        self.cfg = {
            "kind": "sgd-stiefel", "d": self.d, "r": self.r, "r_s": self.r_s,
            "alpha": self.alpha, "eta": self.eta, "steps": steps, "batch": 1,
            "seeds": [seed], "record_every": steps // 250,
            "tracked_j": list(range(1, self.r + 1)), "out_dir": out_dir, "tag": "sgd",
        }
        path = self.write_config("sgd", self.cfg)
        self.ops = [("run", ["run", path])]
        self.warm_ops = [("warm", ["run", path, "-O", "steps=300", "-O", "record_every=100",
                                   "-O", "tag=warm"])]
        self.work_units = steps

    def check(self, outputs):
        from qns.flow import FlowParams, align_curves
        from qns.linalg import rng_stream
        from qns.model import StudentState

        cols = checks.read_csv(self.csv_path(self.cfg))
        js, aligns = checks.align_columns(cols)
        t = cols["time_raw"]
        taus = t / (kappa_eff(self.r, self.alpha) * self.t_eff)
        lam = lambdas(self.r, self.alpha)
        w0 = StudentState.stiefel_init(self.d, self.r_s, rng_stream(self.seed, 1)).w
        flow = align_curves(w0[: self.r] @ w0[: self.r].T, t,
                            FlowParams(lambdas=lam, d=self.d, r_s=self.r_s))
        failures = checks.unit_interval("sgd", aligns)
        if not taus[-1] > 1.1:
            failures.append(f"sgd: run ends at tau={taus[-1]:.3f}, before the first transition")
        # the limit statement's 0.05 band is exceeded by 3 of 16 seeds at this
        # finite d (worst 0.056, median 0.03), so the band is 0.1 here
        failures += checks.shadows_flow(
            "sgd vs flow", taus, aligns, flow[:, [j - 1 for j in js]],
            [1.0 / (lam[j - 1] * kappa_eff(self.r, self.alpha)) for j in js], tol=0.1,
        )
        return failures


class GdSweep(Workload):
    """Population GD at criterion 7's extensive width for two student widths,
    then ``qns fit`` on the two trajectories."""

    name = "gd_sweep"
    d, r, alpha = 1000, 600, 1.0
    widths = (32, 128)
    steps = 1000

    def __init__(self, seed, out_dir, root):
        super().__init__(seed, out_dir, root)
        self.eta = 0.5 / math.sqrt(self.r)
        self.cfgs = {}
        warm_csvs, csvs = [], []
        for r_s in self.widths:
            cfg = {
                "kind": "gd-population", "d": self.d, "r": self.r, "r_s": r_s,
                "alpha": self.alpha, "eta": self.eta, "steps": self.steps,
                "seeds": [seed], "record_every": "log", "record_points": 60,
                "tracked_j": [], "out_dir": out_dir, "tag": f"gd_rs{r_s}",
            }
            self.cfgs[r_s] = cfg
            path = self.write_config(cfg["tag"], cfg)
            self.ops.append((f"run_rs{r_s}", ["run", path]))
            csvs.append(self.csv_path(cfg))
            warm = dict(cfg, steps=40, record_points=20, tag=f"warm_rs{r_s}")
            self.warm_ops.append((f"warm_rs{r_s}", ["run", self.write_config(warm["tag"], warm)]))
            warm_csvs.append(self.csv_path(warm))
        self.ops.append(("fit", ["fit", *csvs]))
        self.warm_ops.append(("warm_fit", ["fit", *warm_csvs]))
        self.work_units = self.steps * len(self.widths)

    def check(self, outputs):
        from qns.flow import FlowParams, weight_risk_curve
        from qns.linalg import rng_stream, sample_gaussian_mat

        failures = []
        lam = lambdas(self.r, self.alpha)
        fits = {f["path"]: f for f in json.loads(outputs["fit"])["files"]}
        for r_s, cfg in self.cfgs.items():
            path = self.csv_path(cfg)
            cols = checks.read_csv(path)
            risk = cols["risk_normalized"]
            w0 = sample_gaussian_mat(self.d, r_s, 1.0 / self.d, rng_stream(self.seed, 1))
            flow = weight_risk_curve(w0, cols["time_raw"], FlowParams(lambdas=lam, d=self.d, r_s=r_s))
            failures += checks.nonincreasing(f"gd r_s={r_s}", risk)
            failures += checks.close(f"gd r_s={r_s} vs flow", risk, flow, 1e-2)
            fit = fits.get(path)
            if fit is None:
                failures.append(f"fit: no result for {path}")
                continue
            failures += checks.fit_matches_lstsq(
                f"fit r_s={r_s}", cols["compute"], risk, fit["exponent"],
                tuple(fit["window"]), fit["n_points"],
            )
        return failures


class GfClosed(Workload):
    """Closed-form gradient flow: the staircase demo config (d >> r) and
    criterion 10's heavy tail (r extensive), plus a small RK4 reference."""

    name = "gf_closed"

    def __init__(self, seed, out_dir, root):
        super().__init__(seed, out_dir, root)
        # the staircase demo keeps its own seed: at d=4000, r_s=r=8 the 20%
        # crossing band of criterion 6 holds for that draw, but over 200 seeds
        # the worst relative error of directions 1..5 is 24% to 64%
        with open(os.path.join(root, "demos", "configs", "gf_staircase.json")) as fh:
            stair = json.load(fh)
        stair.update(out_dir=out_dir, tag="staircase")
        d, r, r_s, a = 2000, 200, 100, 0.25
        heavy = {
            "kind": "gf-closed", "d": d, "r": r, "r_s": r_s, "alpha": a,
            "horizon": 8.0 * kappa_eff(r, a) * t_eff(d, r, r_s, a), "steps": 100,
            "grid": "log", "seeds": [seed], "out_dir": out_dir, "tag": "heavy",
        }
        small = {
            "kind": "gf-closed", "d": 128, "r": 8, "r_s": 8, "alpha": 1.0,
            "horizon": 3.0 * t_eff(128, 8, 8, 1.0), "steps": 40, "grid": "log",
            "seeds": [seed], "tracked_j": list(range(1, 9)), "out_dir": out_dir,
            "tag": "small_closed",
        }
        self.cfgs = {
            "staircase": stair, "heavy": heavy, "small_closed": small,
            "small_rk4": dict(small, kind="gf-rk4", tag="small_rk4"),
        }
        for label, cfg in self.cfgs.items():
            lam = lambdas(cfg["r"], cfg["alpha"])
            fastest = math.sqrt(cfg["r_s"]) / np.linalg.norm(lam) * lam[0] / cfg["r_s"]
            if not cfg["horizon"] * fastest < EXP_LIMIT:
                raise ValueError(f"{label}: horizon {cfg['horizon']} overflows exp")
            path = self.write_config(label, cfg)
            self.ops.append((label, ["run", path]))
            self.warm_ops.append((f"warm_{label}", ["run", path, "-O", "steps=3",
                                                    "-O", f"tag=warm_{label}"]))
            self.work_units += cfg["steps"]

    def check(self, outputs):
        cols = {label: checks.read_csv(self.csv_path(cfg)) for label, cfg in self.cfgs.items()}
        failures = []
        for label, c in cols.items():
            failures += checks.nonincreasing(label, c["risk_normalized"])
            failures += checks.unit_interval(label, checks.align_columns(c)[1])
        closed, rk4 = cols["small_closed"], cols["small_rk4"]
        failures += checks.close("closed vs rk4 risk", closed["risk_normalized"],
                                 rk4["risk_normalized"], 1e-6)
        failures += checks.close("closed vs rk4 alignments", checks.align_columns(closed)[1],
                                 checks.align_columns(rk4)[1], 1e-6)

        def taus(label):
            cfg = self.cfgs[label]
            scale = kappa_eff(cfg["r"], cfg["alpha"]) * t_eff(cfg["d"], cfg["r"], cfg["r_s"], cfg["alpha"])
            return cols[label]["time_raw"] / scale

        stair = self.cfgs["staircase"]
        lam = lambdas(stair["r"], stair["alpha"])
        kap = kappa_eff(stair["r"], stair["alpha"])
        js, aligns = checks.align_columns(cols["staircase"])
        failures += checks.staircase(
            "staircase", taus("staircase"), aligns, js,
            {j: 1.0 / (lam[j - 1] * kap) for j in range(1, 6)},
        )
        heavy = self.cfgs["heavy"]
        phi = heavy["r_s"] / heavy["r"]
        failures += checks.plateau(
            "heavy tail", taus("heavy"), cols["heavy"]["risk_normalized"], 5.0,
            max(1.0 - phi ** (1.0 - 2.0 * heavy["alpha"]), 0.0), 0.05,
        )
        return failures


class VerifySuites(Workload):
    """``qns verify`` of the riccati, monotone and bounds suites, scaled up."""

    name = "verify_suites"
    sizes = {"riccati": ("--trials", 2000), "monotone": ("--trials", 3000),
             "bounds": ("--steps", 10000)}
    warm_sizes = {"riccati": 2, "monotone": 20, "bounds": 50}

    def __init__(self, seed, out_dir, root):
        super().__init__(seed, out_dir, root)
        for suite, (flag, n) in self.sizes.items():
            self.ops.append((suite, ["verify", suite, flag, str(n), "--seed", str(seed)]))
            self.warm_ops.append((f"warm_{suite}", ["verify", suite, flag,
                                                    str(self.warm_sizes[suite]), "--seed", str(seed)]))
            self.work_units += n

    def check(self, outputs):
        from qns.riccati import antisym_blocks, riccati_blocks

        failures = []
        for suite in self.sizes:
            failures += checks.verify_report(suite, json.loads(outputs[suite]))
        # companion powers against numpy's matrix_power of the 2x2 companion
        rng = np.random.default_rng([self.seed, 2])
        for _ in range(6):
            lam = np.sort(rng.uniform(0.2, 1.0, 4))[::-1]
            eta = float(rng.uniform(0.01, 0.25))
            t = int(rng.integers(1, 201))
            b = riccati_blocks(lam, eta, t)
            a = antisym_blocks(lam, eta, t)
            for i, l in enumerate(lam):
                p = np.linalg.matrix_power(np.array([[1.0, eta], [eta * l**2, 1.0 + (eta * l) ** 2]]), t)
                q = np.linalg.matrix_power(np.array([[1.0, eta], [eta * l**2, 1.0]]), t)
                label = f"companion lambda={l:.4f} eta={eta:.4f} t={t}"
                failures += checks.rel_close(f"riccati_blocks {label}",
                                             [b.a11[i], b.a12[i] / l, b.a22[i]],
                                             [p[0, 0], p[0, 1], p[1, 1]], 1e-12)
                failures += checks.rel_close(f"antisym_blocks {label}",
                                             [a.a11[i], a.a12[i] / l, a.a22[i]],
                                             [q[0, 0], q[0, 1], q[1, 1]], 1e-12)
        return failures


WORKLOADS = {w.name: w for w in (SgdOnline, GdSweep, GfClosed, VerifySuites)}
