"""Teacher/student quadratic networks, sampling, losses, and alignment metrics.

The teacher is a width-``r`` quadratic network on the first ``r`` coordinate
axes with power-law second-layer coefficients; the student is a width-``r_s``
quadratic network parameterized by its first-layer matrix ``W``.  Population
risk and subspace alignment are the two observables everything downstream
records.  Every risk, of a student, a stepped record or a flow, comes from
one kernel on a factor ``[T; B]`` of ``W W.T`` (``T`` its teacher rows) as a
sum of three non-negative terms, so nothing cancels as the risk falls over
decades.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .linalg import inv_sqrt_gram, sample_gaussian_mat

__all__ = [
    "PowerLawSpectrum",
    "TeacherModel",
    "StudentState",
    "teacher_output",
    "student_output",
    "draw_samples",
    "instantaneous_loss",
    "population_risk",
    "alignment_gram",
    "opt_risk",
]


@dataclass(frozen=True)
class PowerLawSpectrum:
    """Second-layer coefficients ``lambda_j = j**-alpha`` and derived norms."""

    r: int
    alpha: float
    lambdas: np.ndarray = field(init=False, repr=False)
    frob: float = field(init=False)
    frob_sq: float = field(init=False)

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("teacher width r must be >= 1")
        if self.alpha < 0:
            raise ValueError("decay exponent alpha must be >= 0")
        lam = np.arange(1, self.r + 1, dtype=float) ** (-self.alpha)
        frob_sq = float(np.sum(lam**2))
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "frob", float(np.sqrt(frob_sq)))
        object.__setattr__(self, "frob_sq", frob_sq)


@dataclass(frozen=True)
class TeacherModel:
    """A coefficient spectrum on the first ``r`` coordinate axes of R^d.

    The data ``x ~ N(0, I_d)`` and both student inits are rotation invariant,
    so these directions run the same process in distribution as any other
    orthonormal ones; the teacher projection of a d x n matrix ``m`` is its
    top r rows ``m[:r]``, and no d x r array is materialized.
    """

    d: int
    spectrum: PowerLawSpectrum

    def __post_init__(self):
        if self.spectrum.r > self.d:
            raise ValueError(f"teacher width r={self.spectrum.r} exceeds dimension d={self.d}")

    @property
    def r(self) -> int:
        return self.spectrum.r


class StudentState:
    """Student weight matrix ``W`` (d x r_s), updated in place or reassigned
    by the training loops."""

    def __init__(self, w: np.ndarray):
        self.w = np.array(w, dtype=float)
        if self.w.ndim != 2:
            raise ValueError("W must be a matrix")

    @property
    def d(self) -> int:
        return self.w.shape[0]

    @property
    def r_s(self) -> int:
        return self.w.shape[1]

    @staticmethod
    def gaussian_init(d: int, r_s: int, rng: np.random.Generator) -> "StudentState":
        """Entries iid N(0, 1/d) -- the gradient-flow initialization."""
        return StudentState(sample_gaussian_mat(d, r_s, 1.0 / d, rng))

    @staticmethod
    def stiefel_init(d: int, r_s: int, rng: np.random.Generator) -> "StudentState":
        z = sample_gaussian_mat(d, r_s, 1.0, rng)
        return StudentState(inv_sqrt_gram(z))


def _batch(x: np.ndarray, d: int) -> np.ndarray:
    """``x`` as a float batch of shape (n, d); raises ``ValueError`` otherwise."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"x must be an (n, d) batch with d = {d}, got shape {x.shape}")
    return x


def teacher_output(teacher: TeacherModel, x: np.ndarray) -> np.ndarray:
    """Teacher labels ``y = (1/||L||_F) sum_j lambda_j (x_j^2 - 1)``, j = 1..r,
    of a batch ``x`` of shape (n, d): shape (n,)."""
    proj = _batch(x, teacher.d)[:, : teacher.r]
    lam = teacher.spectrum.lambdas
    return ((proj**2 - 1.0) @ lam) / teacher.spectrum.frob


def _predict(w: np.ndarray, xw: np.ndarray) -> np.ndarray:
    """Student predictions from the product ``xw = x @ W`` of a batch."""
    norms = np.sum(w**2, axis=0)
    return (np.sum(xw**2, axis=1) - norms.sum()) / np.sqrt(w.shape[1])


def student_output(student: StudentState, x: np.ndarray) -> np.ndarray:
    """Student predictions ``(1/sqrt(r_s)) sum_j (<w_j, x>^2 - ||w_j||^2)`` of
    a batch ``x`` of shape (n, d): shape (n,)."""
    return _predict(student.w, _batch(x, student.d) @ student.w)


def draw_samples(
    teacher: TeacherModel, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Fresh labeled batch: ``X`` of shape (n, d), labels of shape (n,)."""
    x = rng.standard_normal((n, teacher.d))
    return x, teacher_output(teacher, x)


def instantaneous_loss(
    student: StudentState, x: np.ndarray, y: np.ndarray | float
) -> np.ndarray:
    """Squared loss ``(y - yhat)^2 / 16`` of each row of a batch ``x``; the
    prefactor keeps gradients tidy."""
    yhat = student_output(student, x)
    return (np.asarray(y) - yhat) ** 2 / 16.0


def population_risk(
    teacher: TeacherModel, student: StudentState, normalized: bool = False
) -> float:
    """Population risk ``(1/8) || W W.T / sqrt(r_s) - diag(L, 0) / ||L||_F ||_F^2``,
    by :func:`_factor_risk`; the normalized variant drops the 1/8, so risk
    starts at 1 for ``W = 0``."""
    risk = float(_factor_risk(teacher.spectrum.lambdas, student.w))
    return risk if normalized else risk / 8.0


# teacher rows per block of W W.T: the block stays in cache, where the whole
# r x r product T T.T (2.9 MB at r = 600) cost twice as much per record
_RISK_ROWS = 128


def _factor_risk(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Normalized risk of each factor ``W = [T; B]`` of a stack ``w`` of shape
    ``(..., m, r_s)``, with ``T`` the ``r = lam.size`` teacher rows: the
    squared blocks of ``diag(L, 0) - c W W.T``, ``c = ||L|| / sqrt(r_s)``,

        (||L - c T T.T||^2 + 2 c^2 ||T B.T||^2 + c^2 ||B.T B||^2) / ||L||^2.

    Each term is a sum of squares, so nothing of size 1 cancels and the risk
    is never negative.  The teacher rows of ``c W W.T - diag(L, 0)`` are
    summed from the diagonal on, the entries right of it counted twice; each
    matrix of the stack gets the floats of its own call."""
    r, frob_sq = lam.size, float(np.sum(lam**2))
    c = math.sqrt(frob_sq / w.shape[-1])
    bb = np.swapaxes(w[..., r:, :], -1, -2) @ w[..., r:, :]  # ||B B.T|| = ||B.T B||
    risk = c * c * np.square(bb, out=bb).sum(axis=(-2, -1))
    for i in range(0, r, _RISK_ROWS):
        m = w[..., i : min(i + _RISK_ROWS, r), :] @ np.swapaxes(w[..., i:, :], -1, -2)
        m *= c
        n = m.shape[-2]
        m.reshape(*m.shape[:-2], -1)[..., :: m.shape[-1] + 1] -= lam[i : i + n]
        np.square(m, out=m)
        risk = risk + (m[..., :n].sum(axis=(-2, -1)) + 2.0 * m[..., n:].sum(axis=(-2, -1)))
    return risk / frob_sq


def alignment_gram(teacher: TeacherModel, student: StudentState) -> np.ndarray:
    """Alignment Gram ``U[:r] U[:r].T`` (r x r) of the polar factor
    ``U = W (W.T W)^{-1/2}``: its diagonal entry j is the squared projection
    of teacher direction j onto the student span."""
    f = inv_sqrt_gram(student.w)[: teacher.r]
    return f @ f.T


def opt_risk(spectrum: PowerLawSpectrum, r_s: int) -> float:
    """Best normalized risk at width ``r_s``: the spectral tail past r_s."""
    if r_s < 1:
        raise ValueError("student width must be >= 1")
    k = min(r_s, spectrum.r)
    tail = spectrum.lambdas[k:]
    return float(np.sum(tail**2) / spectrum.frob_sq)
