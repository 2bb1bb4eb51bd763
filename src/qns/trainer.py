"""Online SGD on the Stiefel manifold and population gradient descent.

:func:`run_training` runs one seed of a stepped-kind ``RunConfig`` and returns
its records as columns.  One-pass training: every step consumes fresh samples
from the teacher.  The ``sgd-stiefel`` kind keeps ``W.T W = I`` via the polar
retraction ``W <- Wt (Wt.T Wt)^{-1/2}``.  For a single-sample step the gradient
is the rank-1 matrix ``c0 (I - W W.T) x (W.T x).T`` and the Gram perturbation
is rank one too, so the gradient step and its exact retraction fuse into one
rank-1 update ``W += u v.T``.  Over a segment of consecutive samples ``X``
these updates keep ``W = [W0, X.T] C``, so the segment kernel steps the small
matrix ``C`` against the sample rows of the Gram of ``[W0, X.T]`` and forms
``W`` once, at the segment's end: no step touches a d-sized array.  The kernel
works on the manifold: it reads ``|W v| = |v|`` and ``||W||_F^2 = r_s``, so
every Stiefel entry point refuses a ``W`` with ``max|W.T W - I|`` past 1e-8,
and a run whose ``W`` drifts that far stops with :class:`ManifoldError`: at
batch 1 at its next 1000-step cleanup or its end, at a larger batch at its
next step.  Every SGD kind runs one loop: a producer thread alone reads the
sample stream, in order, in blocks of about 128 rows (``batch`` rows a step)
drawn one block ahead, and one update takes up to 32 single-sample Stiefel
steps through the kernel, or one step of another SGD kind.  The
``gd-population`` kind is plain constant-step gradient descent on the
population risk; it acts on the rows of ``W`` off the teacher span only through
the right factor ``I - c2 W.T W``, so it runs on the (r + min(d - r, r_s)) x
r_s reduction ``S = [W[:r]; R]`` (``S.T S = W.T W``), which the records and the
divergence guard read.  Both Euclidean kinds stop on divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import time
from typing import TYPE_CHECKING

import numpy as np

from .flow import _expand, _reduce
from .linalg import NumericError, inv_sqrt_gram, rng_stream
from .model import (
    PowerLawSpectrum,
    StudentState,
    TeacherModel,
    _batch,
    _factor_alignments,
    _factor_risk,
    _predict,
    draw_samples,
)

if TYPE_CHECKING:  # runs imports this module: no import of it at run time
    from .runs import RunConfig

__all__ = [
    "TrainResult",
    "DivergenceError",
    "ManifoldError",
    "euclidean_grad",
    "stiefel_grad",
    "schedule_eta",
    "default_tracked_js",
    "run_training",
]

DIVERGENCE_NORM = 1e3
ORTHO_TOL = 1e-8  # the most max|W.T W - I| a Stiefel W may carry

# rows per sample draw of the SGD loop (one batch, when a batch holds more):
# each block is one hand-off between the producer thread and the steps, so
# fewer blocks mean fewer interpreter-lock switches; at d = 512 a block holds
# 0.5 MB, and two are alive at once (1000 rows would add about 8 MB of peak memory)
_SAMPLE_BLOCK = 128
_SEGMENT = 32  # most rows per segment-kernel call: 64 ran no faster, with more memory
# below this share of |x|^2, |px|^2 = |x|^2 - |v|^2 cancels (x almost in
# span W), so the kernel reads |px|^2 from the whole Gram instead
_NEAR_SPAN = 1e-3


class DivergenceError(NumericError, RuntimeError):
    """Weight norm blew past the guard; carries the offending step."""

    def __init__(self, step: int, norm: float):
        self.step = step
        self.norm = norm
        super().__init__(f"divergence at step {step}: ||W||_F = {norm:.3e} > {DIVERGENCE_NORM:g}")

    def __reduce__(self):
        # rebuild from (step, norm), not from the message: errors cross processes
        return type(self), (self.step, self.norm)


class ManifoldError(NumericError, ValueError):
    """A Stiefel ``W`` off the manifold: ``max|W.T W - I|`` past ``ORTHO_TOL``,
    either given so or drifted there by the run's ``step``."""

    def __init__(self, err: float, step: int | None = None):
        self.err = err
        self.step = step
        where = "" if step is None else f" at step {step}"
        super().__init__(f"W is not orthonormal{where}: max|W.T W - I| = {err:.2e} > {ORTHO_TOL:g}")

    def __reduce__(self):
        return type(self), (self.err, self.step)


@dataclass(frozen=True)
class TrainResult:
    """One seed's records as columns, row 0 the initialization."""

    steps: np.ndarray
    risk_normalized: np.ndarray  # the population risk, normalized
    alignments: np.ndarray       # (records, tracked j): the alignment Gram's diagonal
    student: StudentState
    samples_used: int
    ortho_drift: float | None = None  # sgd-stiefel: worst max|W.T W - I| seen
    sample_wait_s: float | None = None  # SGD kinds: seconds blocked on the producer


def euclidean_grad(student: StudentState, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the (1/16)-squared loss: ``-(y-yhat)(x x.T - I) W / (4 sqrt(r_s))``,
    averaged over the rows of a batch ``x`` of shape (n, d) with labels ``y``
    of shape (n,).

    This is the exact derivative of the instantaneous loss (checked against
    central finite differences).  The ``-I`` part is radial -- the Stiefel
    projection annihilates it -- but it matters for the Euclidean kinds.
    """
    x, w = _batch(x, student.d), student.w
    y = np.asarray(y, dtype=float)
    if y.shape != (len(x),):
        raise ValueError(f"y must hold one label per row of x, shape ({len(x)},), got {y.shape}")
    xw = x @ w  # (n, r_s)
    resid = y - _predict(w, xw)
    grad = x.T @ (resid[:, None] * xw) - resid.sum() * w
    return -grad / (4.0 * np.sqrt(student.r_s) * len(y))


def _on_manifold(w: np.ndarray, step: int | None = None) -> float:
    """``max|W.T W - I|``; raises :class:`ManifoldError` past ``ORTHO_TOL``.
    A non-finite error (a ``W`` that left float64) passes, for the divergence
    guard and the records check to report."""
    err = float(np.abs(w.T @ w - np.eye(w.shape[1])).max())
    if ORTHO_TOL < err < math.inf:
        raise ManifoldError(err, step)
    return err


def stiefel_grad(student: StudentState, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Riemannian gradient ``g - W sym(W.T g)`` for orthonormal ``W``.

    The tangency residual ``W.T G + G.T W`` vanishes to rounding.  Raises
    :class:`ManifoldError` if ``W`` is not orthonormal to ``ORTHO_TOL``.
    """
    w = student.w
    _on_manifold(w)
    g = euclidean_grad(student, x, y)
    wg = w.T @ g
    return g - 0.5 * w @ (wg + wg.T)


def _stiefel_segment(
    w: np.ndarray, xs: np.ndarray, ys: list[float], eta: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Single-sample Stiefel steps with their exact polar retraction, one per
    row of ``xs``, from an orthonormal ``W``; returns the new ``W``, written
    into ``out`` when given (``w`` itself is not written, so ``out`` must not
    be ``w``).

    With ``v = W.T x``, ``px = x - W v`` and ``c = eta c0`` the Stiefel
    gradient step is ``Wt = W - c px v.T``, and for orthonormal ``W`` its Gram
    is ``I + a v v.T`` with ``a = c^2 |px|^2``.  Applying the exact
    ``(I + a v v.T)^{-1/2}`` on the right makes the whole step the rank-1
    update ``W += u v.T``, ``u = alpha px + coef W v``, with ``alpha = -c (1 +
    coef |v|^2)`` and ``coef = ((1 + a |v|^2)^{-1/2} - 1) / |v|^2``.

    So ``W = [W0, X.T] C`` throughout, from ``C = [I; 0]``, and a step reads
    only ``C`` and row ``j`` of the Gram ``K`` of ``[W0, X.T]``: ``v = C.T K
    e_j``, ``cv = C v`` and ``C += ((coef - alpha) cv + alpha e_j) v.T``.
    Each step keeps ``W`` orthonormal, so the label residual reads
    ``||W||_F^2 = r_s`` and ``|px|^2 = |x|^2 - |v|^2``.  Where that difference
    cancels (``|px|^2 < 1e-3 |x|^2``) the step reads ``|px|^2 = |x|^2 - 2
    |v|^2 + cv.T K cv`` from the whole ``K``, whose top rows are built then;
    otherwise only the sample rows of ``K`` and the final ``W`` are d-sized
    work.
    """
    n, r_s = xs.shape[0], w.shape[1]
    k = np.empty((r_s + n, r_s + n))  # slices: 7 us at 48 x 48, np.block took 21
    rows = k[r_s:]
    rows[:, :r_s] = xs @ w
    rows[:, r_s:] = xs @ xs.T
    xsq = rows[:, r_s:].diagonal().tolist()
    c, buf = np.zeros((r_s + n, r_s)), np.empty((r_s + n, r_s))
    c[:r_s].flat[:: r_s + 1] = 1.0
    root = math.sqrt(r_s)
    h, top = eta / (4.0 * root), False
    for j, (kj, y, x2) in enumerate(zip(rows, ys, xsq), r_s):
        # ndarray.dot: the small products cost about half of ``@`` here
        v = kj.dot(c)  # K is symmetric: its row j is its column j
        vsq = float(v.dot(v))
        if vsq == 0.0:
            continue  # x is orthogonal to span(W): the gradient vanishes
        cv = c.dot(v)
        cg = h * ((vsq - r_s) / root - y)
        px2 = x2 - vsq
        if px2 < _NEAR_SPAN * x2:
            if not top:
                k[:r_s, :r_s] = w.T @ w
                k[:r_s, r_s:] = rows[:, :r_s].T
                top = True
            px2 = x2 - 2.0 * vsq + float(cv.dot(k.dot(cv)))
        a = cg * cg * px2
        coef = (1.0 / math.sqrt(1.0 + a * vsq) - 1.0) / vsq
        alpha = -cg * (1.0 + coef * vsq)
        cv *= coef - alpha
        cv[j] += alpha
        np.dot(cv[:, None], v[None, :], out=buf)
        c += buf
    out = np.matmul(w, c[:r_s], out=out)
    out += xs.T @ c[r_s:]
    return out


def _sgd_update(student: StudentState, xs: np.ndarray, ys: list[float], eta: float,
                kind: str, batch: int, out: np.ndarray | None = None) -> None:
    """The SGD steps of ``kind`` on the rows of ``xs``, ``batch`` rows a step:
    the segment kernel at batch-1 ``sgd-stiefel`` (writing into ``out``),
    else one Riemannian or plain gradient step."""
    if kind == "sgd-euclidean":
        student.w = student.w - eta * euclidean_grad(student, xs, ys)
    elif batch == 1:
        student.w = _stiefel_segment(student.w, xs, ys, eta, out)
    else:
        student.w = inv_sqrt_gram(student.w - eta * stiefel_grad(student, xs, ys))


def _check_norm(norm: float, step: int) -> None:
    if not np.isfinite(norm) or norm > DIVERGENCE_NORM:
        raise DivergenceError(step=step, norm=norm)


def _population_gd_reduced(
    s: np.ndarray, lam: np.ndarray, frob: float, eta: float, step: int = -1
) -> np.ndarray:
    """One population-GD step on the reduced factor ``S = [W[:r]; R]``.

    ``S <- S (I - c2 S.T S) + c1 [L S_top; 0]`` with ``c1 = eta / (2 sqrt(r_s)
    ||L||_F)`` and ``c2 = eta / (2 r_s)``: one Gram and one GEMM.  Raises
    :class:`DivergenceError` when ``||S||_F = ||W||_F`` exceeds the guard.
    """
    r, r_s = lam.size, s.shape[1]
    m = s.T @ s
    m *= -eta / (2.0 * r_s)
    m.flat[:: r_s + 1] += 1.0
    new = s @ m
    new[:r] += (eta / (2.0 * math.sqrt(r_s) * frob) * lam)[:, None] * s[:r]
    _check_norm(float(np.linalg.norm(new)), step)
    return new


def schedule_eta(d: int, r: int, alpha: float) -> float:
    """Step-size schedule: ``0.5 / (d r^alpha)`` below the 1/2 boundary and
    ``0.5 / d`` above it.

    The theory's polylog factors are impractically small at desk scale and
    only the power-law skeleton matters for the measured exponents, so they
    are left out.  For ``2 <= d <= sys.maxsize`` and ``r <= d`` the value lies
    in ``(0, inf)``: below the boundary ``r^alpha <= d^0.5``.
    """
    if alpha == 0.5:
        raise ValueError("alpha = 0.5 sits on the regime boundary; not supported")
    if alpha < 0.5:
        return 0.5 / (d * r**alpha)
    return 0.5 / d


def default_tracked_js(r: int, r_eff: int | None = None) -> tuple[int, ...]:
    """Powers of two up to r, plus the effective width when given."""
    js = [1]
    while js[-1] * 2 <= r:
        js.append(js[-1] * 2)
    if r_eff is not None and 1 <= r_eff <= r:
        js.append(r_eff)
    return tuple(sorted(set(js)))


def _record_steps(cfg: RunConfig) -> list[int]:
    """The steps a run records after: ``record_points`` log-spaced ones, or
    every ``record_every``-th and the last."""
    if cfg.record_every == "log":
        pts = np.geomspace(1, cfg.steps, num=min(cfg.record_points, cfg.steps))
        pts = np.unique(np.round(pts).astype(int))
    else:
        pts = np.arange(cfg.record_every, cfg.steps + 1, cfg.record_every)
        if len(pts) == 0 or pts[-1] != cfg.steps:
            pts = np.append(pts, cfg.steps)
    return [int(s) for s in pts]


def _snapshot(lam: np.ndarray, w: np.ndarray, tracked: list[int],
              polar: bool = True) -> tuple[float, np.ndarray]:
    """Normalized risk and tracked alignments of ``w``, d x r_s or its
    reduction ``S`` (the top r rows of ``W`` and rows of the same Gram: all
    that the factor kernels of :mod:`model` read).  Without ``polar``, ``w``
    is orthonormal and its own polar factor."""
    return float(_factor_risk(lam, w)), _factor_alignments(w, tracked, polar)


def run_training(cfg: RunConfig, seed: int, w0: np.ndarray | None = None) -> TrainResult:
    """Run seed ``seed`` of ``cfg``, a validated ``RunConfig`` of a stepped
    kind, from a fresh student or from ``w0`` (d x r_s), and record it.

    Deterministic given the seed: initialization and the sample stream are
    drawn from separate substreams of it.  An SGD kind takes its samples in
    blocks of ``max(128 // batch, 1)`` steps, each drawn one block ahead on
    one producer thread, which alone reads the sample stream once it starts:
    the blocks, and so every record, are those of a step-by-step loop.  Each
    update call takes one step, or up to 32 single-sample Stiefel steps
    through the segment kernel, which writes each new ``W`` into one of two
    buffers in turn; a call ends early at the block's end, at each record
    step and at each 1000-step cleanup.  An error in a draw reaches the
    caller unchanged, and the thread is shut down on every exit (a pending
    draw cancelled, a running one waited for).  A Stiefel run refuses a
    ``w0`` off the manifold, and raises :class:`ManifoldError` naming the
    step whose ``W`` drifted past ``ORTHO_TOL``, read at each 1000-step
    cleanup and at the end, and at a batch above 1 by each step's gradient.
    """
    stiefel = cfg.kind == "sgd-stiefel"
    teacher = TeacherModel(d=cfg.d, spectrum=PowerLawSpectrum(r=cfg.r, alpha=cfg.alpha))
    lam, eta, batch = teacher.spectrum.lambdas, cfg.resolved_eta(), cfg.resolved_batch()
    tracked = cfg.resolved_tracked()
    if w0 is not None:
        if w0.shape != (cfg.d, cfg.r_s):
            raise ValueError(f"w0 must be d x r_s = {cfg.d} x {cfg.r_s}, got {w0.shape}")
        student = StudentState(w0)
        if stiefel:
            _on_manifold(student.w)
    elif stiefel:
        student = StudentState.stiefel_init(cfg.d, cfg.r_s, rng_stream(seed, 1))
    else:
        student = StudentState.gaussian_init(cfg.d, cfg.r_s, rng_stream(seed, 1))
    record_at = _record_steps(cfg)
    steps = np.array([0, *record_at])
    if cfg.kind == "gd-population":
        s, q = _reduce(student.w, cfg.r, with_q=True)  # W is rebuilt once, at the end
        records, at = [_snapshot(lam, s, tracked)], set(record_at)
        for step in range(1, cfg.steps + 1):
            s = _population_gd_reduced(s, lam, teacher.spectrum.frob, eta, step)
            if step in at:
                records.append(_snapshot(lam, s, tracked))
        student.w = _expand(s, q, cfg.r)
        return TrainResult(steps, *map(np.array, zip(*records)), student, 0)
    from concurrent.futures import ThreadPoolExecutor  # only the SGD kinds start a thread

    records = [_snapshot(lam, student.w, tracked, not stiefel)]
    per_block = max(_SAMPLE_BLOCK // batch, 1)  # steps per sample block
    per_call = _SEGMENT if stiefel and batch == 1 else 1  # most steps per update call
    stops = record_at + [cfg.steps + 1]
    step, k, drift, wait = 0, 0, 0.0, 0.0
    bufs = (np.empty_like(student.w), np.empty_like(student.w))
    rng, pool = rng_stream(seed, 2), ThreadPoolExecutor(1, thread_name_prefix="qns-draw")
    # submitted lazily, in stream order, to the one producer thread
    blocks = (pool.submit(draw_samples, teacher, min(per_block, cfg.steps - s) * batch, rng)
              for s in range(0, cfg.steps, per_block))
    try:
        pending = next(blocks)
        while step < cfg.steps:
            # a block of n steps is the same stream as n one-step draws; a
            # call ends at the block's end, a cleanup or a record step
            i = step % per_block
            if i == 0:
                t = time.perf_counter()
                xs, ys = pending.result()
                wait += time.perf_counter() - t
                ys = ys.tolist()
                pending = next(blocks, None)  # the next block, drawn while this one runs
            n = min(per_call, len(ys) // batch - i, 1000 - step % 1000, stops[k] - step)
            out = bufs[1] if student.w is bufs[0] else bufs[0]
            rows = slice(i * batch, (i + n) * batch)
            try:
                _sgd_update(student, xs[rows], ys[rows], eta, cfg.kind, batch, out)
            except ManifoldError as err:  # stiefel_grad refused the W that step `step` left
                raise ManifoldError(err.err, step) from None
            step += n
            if not stiefel:
                _check_norm(float(np.linalg.norm(student.w)), step)
            elif step % 1000 == 0:
                # the rank-1 step is exact, but rounding in the orthonormality
                # error compounds exponentially along the unstable radial
                # directions; a periodic dense cleanup keeps it at 1e-14, and a
                # run that left float64, or the manifold, stops here rather
                # than at its last step
                _check_norm(float(np.linalg.norm(student.w)), step)
                drift = max(drift, _on_manifold(student.w, step))
                student.w = inv_sqrt_gram(student.w)
            if step == stops[k]:
                records.append(_snapshot(lam, student.w, tracked, not stiefel))
                k += 1
    finally:
        pool.shutdown(cancel_futures=True)
    drift = max(drift, _on_manifold(student.w, step)) if stiefel else None
    return TrainResult(steps, *map(np.array, zip(*records)), student, cfg.steps * batch, drift, wait)
