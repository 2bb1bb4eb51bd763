"""Dense symmetric/rectangular matrix kernel.

Eigendecomposition with a descending-order convention, PSD matrix functions,
Loewner-order predicates, polar-type orthonormalization, and seeded random
matrix sampling.  Everything operates on plain float64 ndarrays; validation
helpers enforce the symmetry/orthonormality contracts at API boundaries.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "NumericError",
    "RankDeficientError",
    "EigenPair",
    "check_symmetric",
    "sym_eigen",
    "psd_sqrt",
    "psd_project",
    "inv_sqrt_gram",
    "loewner_slack",
    "rng_stream",
    "sample_gaussian_mat",
    "sample_stiefel",
]

SYM_TOL = 1e-12


class NumericError(Exception):
    """Base of the typed numeric failures: divergence, a Stiefel ``W`` off the
    manifold, rank deficiency, a flow past float64's range and non-finite
    records.  The command line maps each to exit 3."""


class RankDeficientError(NumericError, np.linalg.LinAlgError):
    """Gram matrix is numerically singular; carries the offending eigenvalue."""

    def __init__(self, min_eig: float):
        self.min_eig = float(min_eig)
        super().__init__(
            f"Gram matrix is rank deficient: smallest eigenvalue {min_eig:.3e} <= 1e-12"
        )

    def __reduce__(self):  # rebuild from min_eig, not from the message
        return type(self), (self.min_eig,)


class EigenPair(NamedTuple):
    """Spectral decomposition with eigenvalues sorted in descending order."""

    values: np.ndarray   # (n,), descending
    vectors: np.ndarray  # (n, n), columns are orthonormal eigenvectors


def check_symmetric(m: np.ndarray) -> np.ndarray:
    """Validate that ``m`` is square and symmetric; return its symmetric part.

    The asymmetry ``max|m - m.T|`` must not exceed ``SYM_TOL * max|m|``.  A stack
    of shape ``(..., r, r)`` is checked matrix by matrix (each against its own
    scale) and the error names the first offending one's asymmetry; each
    matrix of the result equals what a 2-D call would return.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    mt = m.swapaxes(-1, -2)
    asyms = np.abs(m - mt).max(axis=(-2, -1))
    flags = asyms > SYM_TOL * np.maximum(np.abs(m).max(axis=(-2, -1)), 1e-300)
    if flags.any():
        raise ValueError(f"matrix is not symmetric: max|M - M.T| = {asyms[flags][0]:.3e}")
    return 0.5 * (m + mt)


def sym_eigen(m: np.ndarray) -> EigenPair:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Satisfies ``V diag(w) V.T ~= M`` and ``V.T V ~= I`` to ~1e-10 relative.
    """
    m = check_symmetric(m)
    w, v = np.linalg.eigh(m)
    return EigenPair(values=w[::-1].copy(), vectors=v[:, ::-1].copy())


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root with eigenvalue clipping.

    Negative eigenvalues are treated as exactly zero, so slightly indefinite
    inputs (rounding noise) are absorbed instead of raising.
    """
    w, v = sym_eigen(m)
    w = np.maximum(w, 0.0)
    root = (v * np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T)


def psd_project(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix: clip negative eigenvalues at zero."""
    w, v = sym_eigen(m)
    w = np.maximum(w, 0.0)
    proj = (v * w) @ v.T
    return 0.5 * (proj + proj.T)


def inv_sqrt_gram(w: np.ndarray) -> np.ndarray:
    """Map ``W -> W (W.T W)^{-1/2}``; the result has orthonormal columns.

    Raises :class:`RankDeficientError` when ``W.T W`` has an eigenvalue at or
    below 1e-12.
    """
    w = np.asarray(w, dtype=float)
    gram = w.T @ w
    vals, vecs = np.linalg.eigh(gram)
    if vals[0] <= 1e-12:
        raise RankDeficientError(vals[0])
    inv_root = (vecs / np.sqrt(vals)) @ vecs.T
    return w @ inv_root


def loewner_slack(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Smallest eigenvalue of ``a - b`` (negative when the order fails).

    For stacks of shape ``(..., r, r)`` it returns the ``(...)`` array of
    per-pair slacks from one ``eigvalsh`` call, each equal to the float a
    2-D call on that pair gives.
    """
    a = check_symmetric(a)
    b = check_symmetric(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    slack = np.linalg.eigvalsh(a - b)[..., 0]
    return float(slack) if slack.ndim == 0 else slack


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for substream ``(seed, stream)``.

    Uses Philox keyed by ``SeedSequence(seed).spawn``-style keys, so distinct
    streams of the same seed are statistically independent and every stream
    is reproducible in isolation (no sequential draw ordering between them).
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


def sample_gaussian_mat(
    rows: int,
    cols: int,
    variance: float = 1.0,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """IID N(0, variance) matrix, deterministic given ``seed``."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    rng = seed if isinstance(seed, np.random.Generator) else rng_stream(seed)
    z = rng.standard_normal((rows, cols))
    z *= np.sqrt(variance)  # in place: the same floats, one d-sized temporary fewer
    return z


def sample_stiefel(
    rows: int,
    cols: int,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Haar-uniform matrix with orthonormal columns (rows >= cols): the polar
    factor ``Z (Z.T Z)^{-1/2}`` of a Gaussian ``Z``, taken as ``U Vt`` of its
    thin SVD, so orthonormal to rounding at any condition number of ``Z``
    (the Gram route of :func:`inv_sqrt_gram` loses accuracy like cond(Z)^2)."""
    if rows < cols:
        raise ValueError(f"Stiefel sampling needs rows >= cols, got {rows} < {cols}")
    z = sample_gaussian_mat(rows, cols, 1.0, seed)
    u, _, vt = np.linalg.svd(z, full_matrices=False)
    return u @ vt
