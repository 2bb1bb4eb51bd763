"""The run layer: :class:`RunConfig`, one validated experiment family (all
seeds), and :func:`run_seed`, which runs one of its seeds and writes that
seed's trajectory CSV and sidecar.  The flow kinds run here; the stepped
kinds run through :func:`qns.trainer.run_training`, which takes the same
``RunConfig`` and returns its records as columns.  Every kind's time,
compute and ``risk`` columns are worked out in one place, from those
records.  The command line and the tests run every seed through
:func:`run_seed`; each error it raises survives pickling, so a seed may also
run in another process.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from types import UnionType
from typing import Annotated, Literal, Union, get_args, get_origin, get_type_hints

import numpy as np

from .flow import (FlowParams, _reduce, _rk4_dt, align_curves, effective_scales, integrate_rk4,
                   weight_risk_curve)
from .linalg import NumericError, inv_sqrt_gram, rng_stream, sample_gaussian_mat
from .model import PowerLawSpectrum, _factor_risk
from .trainer import default_tracked_js, run_training, schedule_eta
from .trajectory import TrajectoryData, write_trajectory

# gf-rk4 configs needing more RK4 sub-steps than this are refused: at the
# default step dt <= 0.01, a horizon of 1e7 would take about 1e9 of them
MAX_RK4_SUBSTEPS = 1_000_000
# configs of more steps (grid points of a flow) than this are refused: 23x
# criterion 8's 438k SGD steps, and minutes of work at desk scale
MAX_RUN_STEPS = 10_000_000


class ConfigError(ValueError):
    pass


class NonFiniteRunError(NumericError, ArithmeticError):
    pass


GF_KINDS = ("gf-closed", "gf-rk4")
STEPPED_KINDS = ("gd-population", "sgd-stiefel", "sgd-euclidean")
SGD_KINDS = ("sgd-stiefel", "sgd-euclidean")


@dataclass
class RunConfig:
    """Validated description of one experiment family (all seeds).  The
    annotations are the one declaration of each field's type and allowed
    strings, and ``Annotated[type, kinds]`` names the only kinds that read a
    field; :meth:`validate` checks every field against them."""

    kind: Literal[GF_KINDS + STEPPED_KINDS]
    d: int
    r: int
    r_s: int
    alpha: float
    seeds: list[int] = field(default_factory=lambda: [0])
    eta: Annotated[float | None, STEPPED_KINDS] = None
    steps: int = 1000
    horizon: Annotated[float | None, GF_KINDS] = None              # max raw time
    grid: Annotated[Literal["log", "linear"], GF_KINDS] = "log"    # t-grid spacing
    batch: Annotated[int | None, SGD_KINDS] = None
    record_every: Annotated[int | Literal["log"], STEPPED_KINDS] = "log"
    record_points: Annotated[int, STEPPED_KINDS] = 200
    tracked_j: list[int] | Literal["auto"] = "auto"
    out_dir: str = "runs"
    tag: str = ""

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        unknown = set(raw) - _HINTS.keys()
        if unknown:
            raise ConfigError("; ".join(f"config field {n!r}: unknown" for n in sorted(unknown)))
        cfg = RunConfig(**raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        def fail(fieldname, msg):
            raise ConfigError(f"config field '{fieldname}': {msg}")

        for name, hint in _HINTS.items():
            value = getattr(self, name)
            if not _matches(value, hint):
                text = hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")
                fail(name, f"must be {text}{' (finite)' if 'float' in text else ''}, got {value!r}")
        for name, (kinds, default) in _READ_BY.items():
            if self.kind not in kinds and getattr(self, name) != default:
                fail(name, f"the {self.kind} kind does not read it (only {', '.join(kinds)})")
        if self.record_every != "log" and self.record_points != _READ_BY["record_points"][1]:
            fail("record_points", f"record_every {self.record_every} does not read it, only \"log\" does")
        for name, lo in _LOWER.items():
            values = getattr(self, name)
            for value in values if type(values) is list else [values]:
                if type(value) in (int, float) and (value <= lo if name in _STRICT else value < lo):
                    fail(name, f"must be {'>' if name in _STRICT else '>='} {lo}, got {value!r}")
        if self.steps > MAX_RUN_STEPS:
            fail("steps", f"must be <= {MAX_RUN_STEPS:,}, the cap on a run's work, got {self.steps}")
        if self.r > self.d:
            fail("r", f"must satisfy r <= d, got r={self.r}, d={self.d}")
        if self.r_s >= self.d:
            fail("r_s", f"must satisfy r_s < d (T_eff has a factor log(d / r_s)), "
                        f"got r_s={self.r_s}, d={self.d}")
        if self.alpha == 0.5:
            fail("alpha", "0.5 sits on the regime boundary and is excluded")
        if float(self.r) ** -self.alpha == 0.0:
            fail("alpha", f"the coefficient r**-alpha = {self.r}**-{self.alpha:g} underflows to 0")
        if not self.seeds or len(set(self.seeds)) < len(self.seeds):
            fail("seeds", f"need a non-empty list of distinct seeds, got {self.seeds}")
        if isinstance(self.tracked_j, list) and not all(1 <= j <= self.r for j in self.tracked_j):
            fail("tracked_j", f"indices must lie in 1..r = 1..{self.r}, got {self.tracked_j}")
        if self.kind in GF_KINDS and (self.horizon is None or self.horizon / self.steps <= 0):
            fail("horizon", "gf kinds need a time horizon with horizon / steps > 0")
        # numpy cannot describe a float64 array of more than sys.maxsize bytes
        # and raises a ValueError for one; these are the arrays a run sizes
        # that the steps cap leaves unbounded
        sizes = [("d", "the initial W (d * r_s)", self.d * self.r_s)]
        if self.kind in SGD_KINDS:
            sizes.append(("batch", "a sample block (batch * d)", self.resolved_batch() * self.d))
        for name, what, n in sizes:
            if n > sys.maxsize // 8:
                fail(name, f"{what} would hold {n} floats, more than the "
                           f"{sys.maxsize // 8} numpy can describe")
        if self.kind == "gf-rk4":
            spectrum = PowerLawSpectrum(r=self.r, alpha=self.alpha)
            # each grid gap takes max(ceil(gap / dt), 1) sub-steps
            span = self.horizon / _rk4_dt(FlowParams.from_spectrum(spectrum, self.d, self.r_s))
            if span + self.steps > MAX_RK4_SUBSTEPS:
                fail("horizon" if span >= self.steps else "steps",
                     f"gf-rk4 would take up to horizon / dt + steps = {span + self.steps:,.0f} "
                     f"RK4 sub-steps, past the cap of {MAX_RK4_SUBSTEPS:,}")

    def resolved_eta(self) -> float:
        if self.eta is not None:
            return self.eta
        return schedule_eta(self.d, self.r, self.alpha)

    def resolved_batch(self) -> int:
        if self.batch is not None:
            return self.batch
        return self.d if self.kind in ("gd-population", "sgd-euclidean") else 1

    def resolved_tracked(self) -> list[int]:
        if self.tracked_j == "auto":
            sc = effective_scales(self.d, self.r_s, self.r, self.alpha)
            return list(default_tracked_js(self.r, min(sc.r_eff, self.r)))
        return list(self.tracked_j)

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        if self.kind in STEPPED_KINDS:  # a gf run takes no step
            d["eta_resolved"] = self.resolved_eta()
            d["batch_resolved"] = self.resolved_batch()
        d["tracked_resolved"] = self.resolved_tracked()
        return d


# resolved once: get_type_hints costs about 0.35 ms a call
_EXTRAS = get_type_hints(RunConfig, include_extras=True)
_HINTS = {name: get_args(h)[0] if get_origin(h) is Annotated else h for name, h in _EXTRAS.items()}
KINDS = get_args(_HINTS["kind"])
# the kinds that read each Annotated field, and the default the others must keep
_READ_BY = {name: (get_args(h)[1], getattr(RunConfig, name)) for name, h in _EXTRAS.items()
            if get_origin(h) is Annotated}

# lower bounds of the numeric fields (each seed's too); eta and the horizon
# must lie strictly above theirs
_LOWER = {"d": 2, "r": 1, "r_s": 1, "alpha": 0, "seeds": 0, "eta": 0, "steps": 1,
          "horizon": 0, "batch": 1, "record_every": 1, "record_points": 1}
_STRICT = ("eta", "horizon")


def _matches(value, hint) -> bool:
    """Whether ``value`` has the annotated type ``hint``: ``int`` takes int64
    values but no ``bool``, and ``float`` ints and floats of finite float64 size."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        return any(_matches(value, a) for a in args)
    if origin is Literal:
        return type(value) is str and value in args
    if origin is list:
        return type(value) is list and all(_matches(v, args[0]) for v in value)
    if hint is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    if hint is int:
        return type(value) is int and abs(value) <= sys.maxsize
    return type(value) is hint


def _time_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.grid == "log":
        return np.geomspace(cfg.horizon / cfg.steps, cfg.horizon, cfg.steps)
    return np.linspace(cfg.horizon / cfg.steps, cfg.horizon, cfg.steps)


def _flow_start(cfg: RunConfig, seed: int):
    """``(spectrum, params, w0)`` of a flow run, in the teacher eigenbasis."""
    spectrum = PowerLawSpectrum(r=cfg.r, alpha=cfg.alpha)
    params = FlowParams.from_spectrum(spectrum, cfg.d, cfg.r_s)
    w0 = sample_gaussian_mat(cfg.d, cfg.r_s, 1.0 / cfg.d, rng_stream(seed, 1))
    return spectrum, params, w0


def _trajectory(cfg: RunConfig, points, risk_n, aligns, meta) -> TrajectoryData:
    """One seed's trajectory, the one place its time, compute and ``risk =
    risk_n / 8`` are worked out.  A flow records at the times ``points`` of
    its grid, numbered from 1, with compute ``t d r_s``; a stepped run after
    the steps ``points``, at time ``step eta`` with compute ``step batch d
    r_s``."""
    if cfg.kind in GF_KINDS:
        steps, time_raw, work = np.arange(1, len(points) + 1), points, points
    else:
        steps, time_raw = points, points * cfg.resolved_eta()
        work = points.astype(float) * cfg.resolved_batch()
    sc = effective_scales(cfg.d, cfg.r_s, cfg.r, cfg.alpha)
    return TrajectoryData(
        steps=steps, time_raw=time_raw, time_rescaled=time_raw / (sc.kappa_eff * sc.t_eff),
        compute=work * cfg.d * cfg.r_s, risk=risk_n / 8.0, risk_normalized=risk_n,
        alignments=aligns, tracked_js=cfg.resolved_tracked(), meta=meta,
    )


def _run_gf_closed(cfg: RunConfig, seed: int) -> TrajectoryData:
    _, params, w0 = _flow_start(cfg, seed)
    ts = _time_grid(cfg)
    # the teacher rows of the polar factor alone: no d x r_s array of it
    # stays alive while the curves run
    f0 = inv_sqrt_gram(w0)[: cfg.r].copy()
    aligns = align_curves(f0 @ f0.T, ts, params)[:, [j - 1 for j in cfg.resolved_tracked()]]
    return _trajectory(cfg, ts, weight_risk_curve(w0, ts, params), aligns, {"kind": cfg.kind})


def _run_gf_rk4(cfg: RunConfig, seed: int) -> TrajectoryData:
    spectrum, params, w0 = _flow_start(cfg, seed)
    # dW/dt = P dS/dt for w0 = P S with orthonormal P = diag(I_r, Q_b): the
    # flow never leaves span P, so RK4 integrates the (r + k) x r_s factor S
    s = _reduce(w0, cfg.r)
    lin = np.zeros((len(s), 1))
    lin[: cfg.r, 0] = spectrum.lambdas / (2.0 * np.sqrt(cfg.r_s) * spectrum.frob)
    cubic = -1.0 / (2.0 * cfg.r_s)

    def s_rhs(s_now):  # [L S_top; 0] / (2 sqrt(r_s) ||lam||) - S S.T S / (2 r_s)
        return lin * s_now + s_now @ ((s_now.T @ s_now) * cubic)

    ts = _time_grid(cfg)
    tracked = [j - 1 for j in cfg.resolved_tracked()]
    risk_n, aligns = np.empty(len(ts)), np.empty((len(ts), len(tracked)))
    for i, s in enumerate(integrate_rk4(s_rhs, s, ts, _rk4_dt(params))):
        risk_n[i] = _factor_risk(spectrum.lambdas, s)
        aligns[i] = np.sum(inv_sqrt_gram(s)[tracked] ** 2, axis=1)
    return _trajectory(cfg, ts, risk_n, aligns, {"kind": cfg.kind})


def _run_stepped(cfg: RunConfig, seed: int) -> TrajectoryData:
    result = run_training(cfg, seed)
    meta = {"kind": cfg.kind, "samples_used": result.samples_used}
    # sidecar only: no CSV byte, no config_hash
    if result.ortho_drift is not None:
        meta["edges"] = {"ortho_drift": result.ortho_drift}
    if result.sample_wait_s is not None:
        meta["timing"] = {"sample_wait_s": result.sample_wait_s}
    return _trajectory(cfg, result.steps, result.risk_normalized, result.alignments, meta)


_RUNNERS = {"gf-closed": _run_gf_closed, "gf-rk4": _run_gf_rk4,
            **dict.fromkeys(STEPPED_KINDS, _run_stepped)}


def _check_finite(data: TrajectoryData, seed: int) -> None:
    """Raise :class:`NonFiniteRunError` naming the first record with a
    non-finite time, compute, risk or alignment."""
    columns = (data.time_raw, data.time_rescaled, data.compute, data.risk,
               data.risk_normalized, data.alignments)
    bad = ~np.isfinite(np.column_stack(columns)).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise NonFiniteRunError(f"seed {seed}: non-finite record at step {data.steps[row]} "
                                f"(risk {data.risk[row]:.3g}); no CSV written")


def run_seed(cfg: RunConfig, seed: int) -> str:
    """Run ``seed`` of ``cfg`` and write its CSV and sidecar; returns the CSV
    path.  A run that diverged, left the manifold, lost rank or left float64
    raises its typed error, and writes no CSV."""
    t0 = time.perf_counter()
    # a run that left float64 is refused below, on its finished records;
    # the overflow warnings on the way there would bury that one line
    with np.errstate(over="ignore", invalid="ignore"):
        data = _RUNNERS[cfg.kind](cfg, seed)
    # sidecar only, like the edges: no CSV byte, no config_hash
    data.meta.setdefault("timing", {})["run_s"] = time.perf_counter() - t0
    _check_finite(data, seed)
    path = os.path.join(cfg.out_dir, f"{cfg.tag or cfg.kind}_seed{seed}.csv")
    write_trajectory(path, data, cfg.to_dict(), seed)
    return path
