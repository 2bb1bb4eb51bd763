"""Teacher/student quadratic networks, sampling, losses, and alignment metrics.

The teacher is a width-``r`` quadratic network with orthonormal directions and
power-law second-layer coefficients; the student is a width-``r_s`` quadratic
network parameterized by its first-layer matrix ``W``.  Population risk and
subspace alignment are the two observables everything downstream records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import inv_sqrt_gram, rng_stream, sample_gaussian_mat

__all__ = [
    "PowerLawSpectrum",
    "TeacherModel",
    "project",
    "StudentState",
    "teacher_output",
    "student_output",
    "draw_samples",
    "instantaneous_loss",
    "population_risk",
    "risk_from_gram",
    "alignment",
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
    """Orthonormal directions ``theta`` (d x r) plus a coefficient spectrum.

    ``theta=None`` is the standard basis (the first r coordinate axes); no
    d x r identity is materialized, and :func:`project` reads its top rows.
    """

    d: int
    spectrum: PowerLawSpectrum
    theta: np.ndarray | None = None

    def __post_init__(self):
        r = self.spectrum.r
        if r > self.d:
            raise ValueError(f"teacher width r={r} exceeds dimension d={self.d}")
        if self.theta is not None:
            theta = np.asarray(self.theta, dtype=float)
            if theta.shape != (self.d, r):
                raise ValueError(f"theta must be {(self.d, r)}, got {theta.shape}")
            err = np.abs(theta.T @ theta - np.eye(r)).max()
            if err > 1e-10:
                raise ValueError(f"teacher directions not orthonormal: residual {err:.2e}")
            object.__setattr__(self, "theta", theta)

    @staticmethod
    def haar(d: int, spectrum: PowerLawSpectrum, seed: int = 0) -> "TeacherModel":
        """Teacher with Haar-random orthonormal directions (rotation tests).

        The polar factor of a Gaussian d x r draw, taken twice: one pass
        leaves an orthonormality error of about cond(Z)^2 * 1e-16, which at
        r = d reached 7e-10; the second pass brings it to rounding."""
        z = sample_gaussian_mat(d, spectrum.r, 1.0, rng_stream(seed, 7))
        return TeacherModel(d=d, spectrum=spectrum, theta=inv_sqrt_gram(inv_sqrt_gram(z)))

    @property
    def r(self) -> int:
        return self.spectrum.r


def project(m: np.ndarray, r: int, theta: np.ndarray | None) -> np.ndarray:
    """``Theta.T m``: the teacher-direction rows of ``m``; the top ``r`` rows
    when ``theta`` is None (the standard basis)."""
    return m[:r] if theta is None else theta.T @ m


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


def teacher_output(teacher: TeacherModel, x: np.ndarray) -> np.ndarray | float:
    """Teacher labels ``y = (1/||L||_F) sum_j lambda_j (<theta_j, x>^2 - 1)``.

    Accepts a single input of shape (d,) or a batch of shape (n, d).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    if xb.shape[1] != teacher.d:
        raise ValueError(f"input dimension {xb.shape[1]} != d={teacher.d}")
    proj = project(xb.T, teacher.r, teacher.theta).T
    lam = teacher.spectrum.lambdas
    y = ((proj**2 - 1.0) @ lam) / teacher.spectrum.frob
    return float(y[0]) if single else y


def student_output(student: StudentState, x: np.ndarray) -> np.ndarray | float:
    """Student predictions ``(1/sqrt(r_s)) sum_j (<w_j, x>^2 - ||w_j||^2)``."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    if xb.shape[1] != student.d:
        raise ValueError(f"input dimension {xb.shape[1]} != d={student.d}")
    w = student.w
    proj = xb @ w
    norms = np.sum(w**2, axis=0)
    out = (np.sum(proj**2, axis=1) - norms.sum()) / np.sqrt(student.r_s)
    return float(out[0]) if single else out


def draw_samples(
    teacher: TeacherModel, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Fresh labeled batch: ``X`` of shape (n, d), labels of shape (n,)."""
    x = rng.standard_normal((n, teacher.d))
    return x, teacher_output(teacher, x)


def instantaneous_loss(
    student: StudentState, x: np.ndarray, y: np.ndarray | float
) -> np.ndarray | float:
    """Squared loss ``(y - yhat)^2 / 16``; the prefactor keeps gradients tidy."""
    yhat = student_output(student, x)
    return (np.asarray(y) - yhat) ** 2 / 16.0


def population_risk(
    teacher: TeacherModel, student: StudentState, normalized: bool = False
) -> float:
    """Population risk ``(1/8) || W W.T / sqrt(r_s) - Q L Q.T / ||L||_F ||_F^2``.

    The normalized variant drops the 1/8 and rescales so risk starts at 1 for
    ``W = 0``.  Computed from r_s x r_s Grams; the d x d matrices are never
    materialized.
    """
    w = student.w
    tw = project(w, teacher.r, teacher.theta)
    return risk_from_gram(teacher.spectrum, w.T @ w, tw, normalized)


def risk_from_gram(
    spectrum: PowerLawSpectrum, gram: np.ndarray, tw: np.ndarray, normalized: bool = False
) -> float:
    """:func:`population_risk` from ``gram = W.T W`` and ``tw = Theta.T W`` alone."""
    r_s = gram.shape[0]
    lam = spectrum.lambdas
    frob = spectrum.frob
    # ||A - B||_F^2 = ||A||^2 - 2 <A, B> + ||B||^2 with A = WW^T/sqrt(rs), B = target
    wwt_sq = float(np.sum(gram**2))
    cross = float(np.sum(lam[:, None] * tw**2))
    sq = wwt_sq / r_s - 2.0 * cross / (np.sqrt(r_s) * frob) + 1.0
    return max(sq, 0.0) if normalized else max(sq, 0.0) / 8.0


def alignment_gram(teacher: TeacherModel, student: StudentState) -> np.ndarray:
    """Alignment Gram ``Theta.T U U.T Theta`` (r x r) from the polar factor
    ``U = W (W.T W)^{-1/2}``."""
    f = project(inv_sqrt_gram(student.w), teacher.r, teacher.theta)
    return f @ f.T


def alignment(teacher: TeacherModel, student: StudentState, j: int) -> float:
    """Squared projection of teacher direction ``j`` onto the student span.

    For a flat spectrum (alpha = 0) the per-direction projection is not
    identifiable, so the j-th largest eigenvalue of the alignment Gram is
    returned instead (principal-angle version).
    """
    if not 1 <= j <= teacher.r:
        raise ValueError(f"direction index j={j} outside 1..{teacher.r}")
    if teacher.spectrum.alpha == 0.0:
        g = alignment_gram(teacher, student)
        eigs = np.linalg.eigvalsh(g)[::-1]
        return float(np.clip(eigs[j - 1], 0.0, 1.0))
    th_j = project(inv_sqrt_gram(student.w), teacher.r, teacher.theta)[j - 1]
    return float(np.clip(np.sum(th_j**2), 0.0, 1.0))


def opt_risk(spectrum: PowerLawSpectrum, r_s: int) -> float:
    """Best normalized risk at width ``r_s``: the spectral tail past r_s."""
    if r_s < 1:
        raise ValueError("student width must be >= 1")
    k = min(r_s, spectrum.r)
    tail = spectrum.lambdas[k:]
    return float(np.sum(tail**2) / spectrum.frob_sq)
