import numpy as np
import pytest

from qns.linalg import inv_sqrt_gram, rng_stream
from qns.model import student_output


@pytest.fixture
def rng():
    return rng_stream(20240817, 0)


def rand_psd(rng: np.random.Generator, n: int, scale: float = 1.0, rank: int | None = None):
    b = rng.standard_normal((n, rank or n))
    return scale * (b @ b.T) / n


# x87 extended precision has a 64-bit mantissa; where longdouble is only a
# double, a reference in it checks nothing
needs_extended = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                                    reason="np.longdouble is no wider than float64")


def dense_risk_longdouble(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``||diag(L, 0) / ||L|| - W W.T / sqrt(r_s)||_F^2`` of each factor of a
    stack ``w`` (..., m, r_s), formed densely in ``np.longdouble``."""
    lam, w = lam.astype(np.longdouble), w.astype(np.longdouble)
    m, r_s = w.shape[-2:]
    target = np.zeros((m, m), dtype=np.longdouble)
    target[range(lam.size), range(lam.size)] = lam / np.sqrt(np.sum(lam**2))
    err = target - w @ np.swapaxes(w, -1, -2) / np.sqrt(np.longdouble(r_s))
    return (err**2).sum(axis=(-2, -1))


def instantaneous_loss(student, x: np.ndarray, y) -> np.ndarray:
    """Squared loss ``(y - yhat)^2 / 16`` of each row of a batch ``x``, the
    loss whose gradient the trainer's steps take."""
    return (np.asarray(y) - student_output(student, x)) ** 2 / 16.0


def alignment_gram(teacher, student) -> np.ndarray:
    """Alignment Gram ``U[:r] U[:r].T`` (r x r) of the polar factor
    ``U = W (W.T W)^{-1/2}``: its diagonal entry j is the squared projection
    of teacher direction j onto the student span."""
    f = inv_sqrt_gram(student.w)[: teacher.r]
    return f @ f.T
