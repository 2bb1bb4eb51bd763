"""Closed-form fine-tuning of the learned features.

After feature learning returns an orthonormal ``W``, the remaining freedom is
an r_s x r_s factor ``Omega``.  Minimizing the empirical loss over
``S = Omega Omega.T`` is least squares against the covariates
``A_j = W.T (x_j x_j.T - I) W``; the estimator used in production is

    Omega_hat = (Pi . L(S_glob))^{1/2},

where ``L(S_glob) = (sqrt(r_s)/2N) sum_j y_j A_j`` comes from first-order
optimality, ``L`` is the empirical second-moment operator of the covariates
(close to the identity once N >> r_s^2 polylog), and ``Pi`` projects onto the
PSD cone.  A small projected-gradient ERM solver is kept as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .linalg import check_symmetric, psd_project, psd_sqrt
from .model import StudentState, TeacherModel, draw_samples
from .trainer import _on_manifold

__all__ = [
    "FineTuneBatch",
    "FineTuneResult",
    "collect_batch",
    "l_operator_apply",
    "s_glob_estimate",
    "l_operator_gap",
    "finetune",
    "erm_minimize",
    "risk_decomposition",
    "default_n_ft",
]


@dataclass(frozen=True)
class FineTuneBatch:
    """Quadratic covariates ``A_j`` (n, r_s, r_s) with their labels."""

    a_mats: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        if self.a_mats.ndim != 3 or self.a_mats.shape[1] != self.a_mats.shape[2]:
            raise ValueError("a_mats must be (n, r_s, r_s)")
        if len(self.ys) != len(self.a_mats):
            raise ValueError("labels and covariates disagree in length")

    @property
    def n_ft(self) -> int:
        return len(self.ys)

    @property
    def r_s(self) -> int:
        return self.a_mats.shape[1]


@dataclass(frozen=True)
class FineTuneResult:
    s_hat: np.ndarray        # Pi . L(S_glob), PSD
    omega_hat: np.ndarray    # its PSD square root
    op_gap: float            # estimated ||L - Id|| over symmetric matrices


def default_n_ft(d: int, r_s: int) -> int:
    """Default fine-tuning sample size ``r_s^2 ceil(log^5 d)``."""
    return r_s**2 * math.ceil(math.log(d) ** 5)


def collect_batch(
    teacher: TeacherModel, student: StudentState, n_ft: int, rng: np.random.Generator
) -> FineTuneBatch:
    """Draw ``n_ft`` fresh samples and form ``A_j = W.T(x x.T - I)W``.

    For orthonormal ``W`` this is ``v v.T - I`` with ``v = W.T x`` standard
    normal, so the whole batch is O(n d r_s).
    """
    w = student.w
    r_s = student.r_s
    if n_ft == 0:
        return FineTuneBatch(a_mats=np.empty((0, r_s, r_s)), ys=np.empty(0))
    x, y = draw_samples(teacher, n_ft, rng)
    v = x @ w
    wtw = w.T @ w
    a = v[:, :, None] * v[:, None, :] - wtw[None, :, :]
    return FineTuneBatch(a_mats=a, ys=np.asarray(y))


def l_operator_apply(batch: FineTuneBatch, s_in: np.ndarray) -> np.ndarray:
    """Second-moment operator ``L(S) = (1/2N) sum_j Tr(S A_j) A_j``.

    Self-adjoint and PSD on symmetric matrices; converges to the identity as
    the batch grows.
    """
    if batch.n_ft == 0:
        raise ValueError("empty fine-tuning batch")
    s_in = check_symmetric(s_in)
    coeff = np.einsum("nij,ij->n", batch.a_mats, s_in)
    out = np.einsum("n,nij->ij", coeff, batch.a_mats) / (2.0 * batch.n_ft)
    return 0.5 * (out + out.T)


def s_glob_estimate(batch: FineTuneBatch) -> np.ndarray:
    """First-order-optimality image ``L(S_glob) = (sqrt(r_s)/2N) sum_j y_j A_j``."""
    if batch.n_ft == 0:
        raise ValueError("empty fine-tuning batch")
    out = np.einsum("n,nij->ij", batch.ys, batch.a_mats)
    out *= np.sqrt(batch.r_s) / (2.0 * batch.n_ft)
    return 0.5 * (out + out.T)


def l_operator_gap(batch: FineTuneBatch) -> float:
    """Power-iteration estimate of ``||L - Id||_2`` over symmetric matrices.

    The operator is self-adjoint for the trace inner product, so 60 steps of
    power iteration on ``S -> L(S) - S``, from a symmetric Gaussian start of
    seed 0, converge to the extreme deviation.
    """
    rng = np.random.default_rng(0)
    r = batch.r_s
    s = rng.standard_normal((r, r))
    s = 0.5 * (s + s.T)
    s /= np.linalg.norm(s)
    val = 0.0
    for _ in range(60):
        t = l_operator_apply(batch, s) - s
        nrm = float(np.linalg.norm(t))
        if nrm == 0.0:
            return 0.0
        val = nrm
        s = t / nrm
    return val


def finetune(
    teacher: TeacherModel,
    student: StudentState,
    n_ft: int | None = None,
    rng: np.random.Generator | None = None,
    batch: FineTuneBatch | None = None,
) -> FineTuneResult:
    """Closed-form fine-tuning: ``Omega_hat = (Pi . L(S_glob))^{1/2}``.

    ``W`` must be orthonormal (post feature-learning), or a
    :class:`~qns.trainer.ManifoldError` is raised.  Supply either a
    pre-collected batch or ``(n_ft, rng)``.  The mixing is invariant to the
    sample order (it enters through sums only).
    """
    _on_manifold(student.w)
    if batch is None:
        if rng is None:
            raise ValueError("need a batch or an rng to draw one")
        if n_ft is None:
            n_ft = default_n_ft(teacher.d, student.r_s)
        batch = collect_batch(teacher, student, n_ft, rng)
    s_hat = psd_project(s_glob_estimate(batch))
    omega = psd_sqrt(s_hat)
    return FineTuneResult(s_hat=s_hat, omega_hat=omega, op_gap=l_operator_gap(batch))


def erm_minimize(batch: FineTuneBatch, iters: int) -> np.ndarray:
    """Projected-gradient minimizer of the empirical objective over PSD S.

    Test oracle for the closed-form path: minimizes
    ``(1/2N) sum_j (sqrt(r_s) y_j - Tr(S A_j))^2`` from ``S = 0`` by ``iters``
    gradient steps of size 0.4, each followed by PSD projection.  Intended
    for small r_s only.
    """
    r = batch.r_s
    s = np.zeros((r, r))
    target = s_glob_estimate(batch)
    for _ in range(iters):
        grad = 2.0 * (l_operator_apply(batch, s) - target)
        s = psd_project(s - 0.4 * grad)
    return s


def risk_decomposition(
    teacher: TeacherModel, student: StudentState, omega: np.ndarray
) -> tuple[float, float, float]:
    """Two-term normalized risk of ``W Omega`` for orthonormal ``W``.

    Returns ``(total, fit_term, subspace_term)`` with
    ``fit = (1/r_s) || Omega Omega.T - (sqrt(r_s)/||L||) W.T M W ||_F^2`` and
    ``subspace = 1 - ||L^{1/2} G L^{1/2}||_F^2 / ||L||_F^2`` where
    ``G = W[:r] W[:r].T``.  Total equals the normalized population risk
    of the rescaled student exactly.
    """
    w = student.w
    r_s = student.r_s
    lam = teacher.spectrum.lambdas
    frob = teacher.spectrum.frob
    tw = w[: teacher.r]
    wmw = tw.T * lam @ tw  # W[:r].T L W[:r]
    wmw = 0.5 * (wmw + wmw.T)
    fit = float(np.linalg.norm(omega @ omega.T - (np.sqrt(r_s) / frob) * wmw) ** 2) / r_s
    g = tw @ tw.T
    half = np.sqrt(lam)
    core = half[:, None] * g * half[None, :]
    subspace = 1.0 - float(np.sum(core**2)) / teacher.spectrum.frob_sq
    return fit + subspace, fit, subspace
