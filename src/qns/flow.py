"""Population gradient-flow dynamics of the Gram matrices.

The weight Gram ``G_W = W W.T`` and the alignment Gram
``G_U = U[:r] U[:r].T`` each solve a matrix Riccati ODE

    dG/dt = (0.5 / T) (S G + G S - 2 G M G)

whose solution is available in closed form.  Both closed forms share the
algebraic shape ``G(t) = A - B (G0 + C)^{-1} B`` with diagonal A, B, C
satisfying ``B^2 = A C``; for a factored initialization ``G0 = F F.T`` this
collapses (push-through identity) to

    G(t) = sqrt(A) . X (I + X.T X)^{-1} X.T . sqrt(A),   X = C^{-1/2} F,

which needs no singular values: the thin QR ``[X; I] = Q R`` gives
``I + X.T X = R.T R``, so ``X (I + X.T X)^{-1} X.T = Y Y.T`` with
``Y = Q[:n]`` and ``G(t) = (sqrt(A) Y) (sqrt(A) Y).T``.  That route stays
numerically stable for singular initializations and late times, where the
naive inverse is hopeless.  The d - r zero modes of the weight target share
one scaling, so one thin QR of the rows of ``w0`` off the teacher span
reduces the weight closed form to the (r + min(d - r, r_s)) x r_s factor
``S = [w0[:r]; R]`` with the same singular values; grids run as chunks of
stacked QRs whose ``[X; I]`` fit a fixed budget of 256 KiB (``_CHUNK_BYTES``,
at least one matrix a chunk), and every per-point result is independent of
the chunking; ``closed_form_weight_gram(w0, t, params)`` takes that factor,
never the d x d Gram.  ``weight_risk_curve`` reads each grid point's risk
off its factor ``DY`` with the model's one risk kernel.  The RK4 integrator
is an independent oracle: ``integrate_rk4(rhs, y0, ts, dt)`` yields the
state at each time of ``ts``, and integrates the ODE on the Gram or, from
the command line, on the reduced factor ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .linalg import check_symmetric
from .model import PowerLawSpectrum, _factor_risk

__all__ = [
    "FlowNumericsError",
    "FlowParams",
    "EffectiveScales",
    "gram_rhs_weight",
    "gram_rhs_align",
    "closed_form_align_gram",
    "closed_form_weight_gram",
    "align_curves",
    "weight_risk_curve",
    "integrate_rk4",
    "effective_scales",
    "theory_risk_curve",
    "theory_limit_risk",
]


class FlowNumericsError(RuntimeError):
    """A flow left float64: exp overflow in a closed form or a non-finite RK4 state."""


@dataclass(frozen=True)
class FlowParams:
    """Spectrum and dimensions of one flow, with the two natural timescales.

    ``t_w = r_s`` governs the weight Gram and ``t_u = sqrt(r_s) ||lam||_2``
    the alignment Gram.  ``lambdas`` may be any positive decreasing vector;
    use :meth:`from_spectrum` for the power-law teacher.
    """

    lambdas: np.ndarray
    d: int
    r_s: int
    t_w: float = field(init=False)
    t_u: float = field(init=False)

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size < 1 or np.any(lam <= 0):
            raise ValueError("lambdas must be a positive vector")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "t_w", float(self.r_s))
        object.__setattr__(self, "t_u", float(np.sqrt(self.r_s) * np.linalg.norm(lam)))

    @staticmethod
    def from_spectrum(spectrum: PowerLawSpectrum, d: int, r_s: int) -> "FlowParams":
        return FlowParams(lambdas=spectrum.lambdas, d=d, r_s=r_s)

    @property
    def r(self) -> int:
        return self.lambdas.size

    @property
    def frob(self) -> float:
        return float(np.linalg.norm(self.lambdas))


@dataclass(frozen=True)
class EffectiveScales:
    """Effective learning-rate multiplier, timescale, and student width."""

    kappa_eff: float
    t_eff: float
    r_eff: int


# ---------------------------------------------------------------------------
# Riccati right-hand sides


def gram_rhs_align(g: np.ndarray, params: FlowParams) -> np.ndarray:
    """dG = (0.5/T_U) (L G + G L - 2 G L G) for the r x r alignment Gram."""
    g = check_symmetric(g)
    lam = params.lambdas
    if g.shape[0] != lam.size:
        raise ValueError(f"alignment Gram must be {lam.size} x {lam.size}")
    lg = lam[:, None] * g
    glg = g @ lg
    rhs = lg + lg.T - (glg + glg.T)
    return (0.5 / params.t_u) * rhs


def gram_rhs_weight(g: np.ndarray, params: FlowParams) -> np.ndarray:
    """dG = (0.5/(||L|| sqrt(r_s))) (M G + G M - (2||L||/sqrt(r_s)) G^2).

    ``M`` is the teacher target in its eigenbasis, i.e. ``diag(lambdas, 0)``
    of size d x d.
    """
    g = check_symmetric(g)
    if g.shape[0] != params.d:
        raise ValueError(f"weight Gram must be {params.d} x {params.d}")
    lam_e = np.zeros(params.d)
    lam_e[: params.r] = params.lambdas
    frob = params.frob
    mg = lam_e[:, None] * g
    g2 = g @ g
    g2 = 0.5 * (g2 + g2.T)
    rhs = mg + mg.T - (2.0 * frob / np.sqrt(params.r_s)) * g2
    return (0.5 / (frob * np.sqrt(params.r_s))) * rhs


# ---------------------------------------------------------------------------
# Closed forms


def _factor_psd(g0: np.ndarray) -> np.ndarray:
    """Factor ``g0 = F F.T``, keeping the eigenvalues above 1e-12 of the
    largest (columns may be fewer than n for low rank)."""
    g0 = check_symmetric(g0)
    w, v = np.linalg.eigh(g0)
    scale = max(abs(w[-1]), 1.0)
    if w[0] < -1e-10 * scale:
        raise ValueError(f"initialization is not PSD: min eigenvalue {w[0]:.3e}")
    w = np.maximum(w, 0.0)
    keep = w > 1e-12 * scale
    if not np.any(keep):
        return np.zeros((g0.shape[0], 1))
    return v[:, keep] * np.sqrt(w[keep])


# expm1(x) overflows float64 past x = log(max float) ~ 709.78; a time grid
# reaching past it is refused rather than pushing inf into LAPACK's QR
_EXP_LIMIT = math.log(np.finfo(float).max)

# bytes of the stacked [X; I] of one chunk: a working set the heap reuses
# chunk after chunk, where chunks of one d x r_s matrix (1-2 MB temporaries)
# took a heavy-tail run through 19k page faults
_CHUNK_BYTES = 256 * 1024

# rows of X below this size take DY from R^{-1} rather than from their own
# rows of Q, whose absolute error of about 1e-16 is a relative error of
# 1e-16 / size: every row keeps a relative 2e-13 or better
_SMALL_ROW = 1e-3


def _exponents(t: float, rates: np.ndarray) -> np.ndarray:
    """Per-mode exponents ``t * rates``; raises when one overflows expm1."""
    tx = t * rates
    if tx.max() > _EXP_LIMIT:
        raise FlowNumericsError(
            f"closed form at t={t:g}: exponent t*rate = {tx.max():.6g} overflows "
            f"float64 past {_EXP_LIMIT:.2f}"
        )
    return tx


def _push_through(x: np.ndarray, ts: np.ndarray, z: np.ndarray):
    """``(Y, R^{-1})`` from the stacked thin QR ``[x[i]; I] = Q R`` at time
    ``ts[i]``: ``Y = Q[:n]``, so that ``x (I + x.T x)^{-1} x.T = Y Y.T``, and
    ``R^{-1} = Q[n:]``.  Non-finite input is refused before it reaches LAPACK.
    ``z`` is scratch of shape ``(c, n + k, k)`` for the stacked matrices (the
    QR copies it)."""
    c, n, k = x.shape
    # Householder QR is accurate row by row when the rows come in falling
    # size; unsorted rows of scales 1e-3..1e6 lost up to 3e-11 absolute
    size = np.abs(x).max(axis=2)
    bad = ~np.isfinite(size).all(axis=1)
    if bad.any():
        raise FlowNumericsError(f"closed form at t={ts[bad.argmax()]:g}: non-finite input to the QR")
    rows = np.arange(c)[:, None], np.argsort(-size, axis=1, kind="stable")
    z[:, :n] = x[rows]
    z[:, n:] = np.eye(k)
    q = np.linalg.qr(z)[0]
    y = np.empty_like(x)
    y[rows] = q[:, :n]
    return y, q[:, n:]


def _reduce(w0: np.ndarray, r: int, with_q: bool = False):
    """``S = [w0[:r]; R]``, (r + k) x r_s with ``k = min(d - r, r_s)``, where
    ``Q_b R`` is the thin QR of ``w0[r:]``, so that ``w0 = [S_top; Q_b S_bot]``.
    Returns ``(S, Q_b)`` with ``with_q``."""
    w0 = np.asarray(w0, dtype=float)
    if not np.all(np.isfinite(w0)):
        raise FlowNumericsError("non-finite entries in the weight factor")
    k = min(w0.shape[0] - r, w0.shape[1])
    if not with_q:
        return np.vstack([w0[:r], np.linalg.qr(w0[r:], mode="r")[:k]])
    q, rf = np.linalg.qr(w0[r:])
    return np.vstack([w0[:r], rf[:k]]), q[:, :k]


def _expand(s: np.ndarray, q: np.ndarray, r: int) -> np.ndarray:
    """Inverse of :func:`_reduce`: ``[S_top; Q_b S_bot]``."""
    return np.vstack([s[:r], q @ s[r:]])


def _core(f: np.ndarray, ts: np.ndarray, rates, kappa, t_zero: float):
    """Factored closed form ``G(t) = DY DY.T`` from ``G0 = f f.T``, yielded as
    ``(idx, DY)`` for the grid points t > 0 in chunks of as many points as
    fit their stacked ``[X; I]`` into ``_CHUNK_BYTES``, and at least one; each
    point's ``DY`` is the same whatever the chunk.  ``DY = sqrt(A) Y`` with
    ``Y`` the push-through factor of ``X = C^{-1/2} f``.  Mode i has
    ``sqrt(A) = sqrt(kappa_i / (1 - exp(-t rate_i)))`` and
    ``C^{-1/2} = sqrt(expm1(t rate_i) / kappa_i)``; rows of ``f`` past the
    modes are zero modes, with analytic limits ``A = T/t``, ``C^{-1} = t/T``
    (T = t_zero).  Rows of ``X`` below ``_SMALL_ROW`` take ``DY`` from
    ``R^{-1}`` instead of from their rows of ``Y``."""
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0):
        raise ValueError("t must be >= 0")
    pos = np.flatnonzero(ts > 0)
    m, k = f.shape
    zero = np.ones(m - len(rates))
    size = max(_CHUNK_BYTES // ((m + k) * k * 8), 1)
    z = np.empty((min(size, pos.size), m + k, k))  # one scratch [X; I] for all chunks
    f_size = np.abs(f).max(axis=1)  # row sizes of X are inv_sqrt_c * f_size
    for idx in (pos[i : i + size] for i in range(0, pos.size, size)):
        t = ts[idx, None]
        tx = np.array([_exponents(ti, rates) for ti in ts[idx]])
        # kappa < 1 can still overflow C^{-1/2}, which _push_through reports;
        # sqrt(A) overflows for rates near 1e-308, in rows replaced below
        with np.errstate(over="ignore", divide="ignore"):
            inv_sqrt_c = np.hstack([np.sqrt(np.expm1(tx) / kappa), np.sqrt(t / t_zero) * zero])
            sqrt_a = np.hstack([np.sqrt(kappa / -np.expm1(-tx)), np.sqrt(t_zero / t) * zero])
        dy, r_inv = _push_through(inv_sqrt_c[:, :, None] * f, ts[idx], z[: len(idx)])
        with np.errstate(invalid="ignore"):  # inf * 0 in those rows
            dy *= sqrt_a[:, :, None]
        # a row of X far below the identity rows keeps only the QR's absolute
        # error of about 1e-16, which sqrt(A) ~ (t rate)^{-1/2} of a tiny rate
        # blew up into alignments of 1e27; there DY = sqrt(A) X R^{-1} is
        # computed as e^{t rate / 2} f R^{-1}
        b, i = np.nonzero(inv_sqrt_c * f_size < _SMALL_ROW)
        exp_half = np.hstack([np.exp(tx / 2.0), np.ones((len(idx), zero.size))])
        dy[b, i] = exp_half[b, i, None] * np.einsum("nk,nkl->nl", f[i], r_inv[b])
        yield idx, dy


def _align_core(f: np.ndarray, ts, params: FlowParams):
    return _core(f, ts, params.lambdas / params.t_u, 1.0, params.t_u)


def _weight_core(s: np.ndarray, ts, params: FlowParams):
    lam_tilde = np.sqrt(params.r_s) / params.frob * params.lambdas
    # a subnormal lambda_tilde has too few bits for expm1(t rate) / kappa:
    # those modes, the last ones, are zero modes to within 1e-300
    lam_tilde = lam_tilde[lam_tilde >= np.finfo(float).tiny]
    return _core(s, ts, lam_tilde / params.t_w, lam_tilde, params.t_w)


def _sym_outer(m: np.ndarray, t: float, what: str) -> np.ndarray:
    out = m @ m.T
    if not np.all(np.isfinite(out)):
        raise FlowNumericsError(f"{what} closed form overflowed at t={t}")
    return 0.5 * (out + out.T)


def closed_form_align_gram(g0: np.ndarray, t: float, params: FlowParams) -> np.ndarray:
    """Alignment-Gram flow solution at time ``t`` from PSD init ``g0``.

    Equals the limit of the RK4-integrated ODE; evaluated through the stable
    factored form, so rank-deficient ``g0`` (r_s < r) is fine at any horizon.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    g0 = check_symmetric(g0)
    if g0.shape[0] != params.r:
        raise ValueError(f"alignment Gram must be {params.r} x {params.r}")
    if t == 0.0:
        return g0.copy()
    [(_, dy)] = _align_core(_factor_psd(g0), [t], params)
    return _sym_outer(dy[0], t, "alignment")


def align_curves(g0: np.ndarray, ts: np.ndarray, params: FlowParams) -> np.ndarray:
    """Diagonal of the alignment Gram on a time grid; shape (len(ts), r)."""
    g0 = check_symmetric(g0)
    return _gram_diag(_align_core(_factor_psd(g0), ts, params), ts, np.diag(g0))


def _gram_diag(cores, ts, diag0: np.ndarray) -> np.ndarray:
    """The first ``len(diag0)`` diagonal entries of the closed form on a grid,
    ``diag0`` at t = 0."""
    ts = np.asarray(ts, dtype=float)
    out = np.empty((len(ts), len(diag0)))
    out[ts == 0] = diag0
    for idx, dy in cores:
        out[idx] = (dy[:, : len(diag0)] ** 2).sum(axis=2)
    return out


def closed_form_weight_gram(w0: np.ndarray, t: float, params: FlowParams) -> np.ndarray:
    """Weight-Gram flow solution ``G_W(t)`` (teacher eigenbasis) from the
    d x r_s factor ``w0`` of ``G_W(0) = w0 w0.T``; costs O(d r_s^2)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    f = np.asarray(w0, dtype=float)
    if f.shape[0] != params.d:
        raise ValueError(f"weight factor must have {params.d} rows")
    if t == 0.0:
        return f @ f.T
    s, q = _reduce(f, params.r, with_q=True)
    [(_, dy)] = _weight_core(s, [t], params)
    return _sym_outer(_expand(dy[0], q, params.r), t, "weight")


def weight_gram_diag(
    w0: np.ndarray, ts: np.ndarray, params: FlowParams, idx: np.ndarray | list[int]
) -> np.ndarray:
    """Weight-Gram flow entries ``G_W[j, j]`` of teacher directions ``j`` in
    ``idx`` (0-based, below r); shape (len(ts), len(idx)).

    Used to attribute risk decrements to individual teacher directions.
    """
    s = _reduce(w0, params.r)
    diag0 = np.sum(s[: params.r] ** 2, axis=1)
    return _gram_diag(_weight_core(s, ts, params), ts, diag0)[:, np.asarray(idx, dtype=int)]


def weight_risk_curve(w0: np.ndarray, ts: np.ndarray, params: FlowParams) -> np.ndarray:
    """Normalized population risk ``|| diag(lam,0) - (||lam||/sqrt(r_s)) G_W(t)
    ||_F^2 / ||lam||^2`` along the flow from ``W(0) = w0``: with ``G_W = P DY
    DY.T P.T`` for an orthonormal ``P``, :func:`model._factor_risk` of each
    chunk's stack of ``DY`` (``S`` at t = 0), O((r + r_s) r_s^2 + r^2 r_s) a
    grid point after one O(d r_s^2) reduction."""
    ts = np.asarray(ts, dtype=float)
    s = _reduce(w0, params.r)
    out = np.empty(len(ts))
    out[ts == 0] = _factor_risk(params.lambdas, s)
    for idx, dy in _weight_core(s, ts, params):
        out[idx] = _factor_risk(params.lambdas, dy)
    return out


# ---------------------------------------------------------------------------
# RK4 oracle


def _rk4_dt(params: FlowParams) -> float:
    """The RK4 step of gf-rk4 runs, stable for the stiffest mode."""
    return min(0.01, 0.1 * params.t_u / float(params.lambdas[0]))


def integrate_rk4(rhs, y0: np.ndarray, ts, dt: float):
    """Classical RK4 on ``dy/dt = rhs(y)`` from ``y(0) = y0``: yields ``y(t)``
    at each time of the non-decreasing grid ``ts``.

    Each gap between grid times is cut into ``max(ceil(gap / dt), 1)`` equal
    sub-steps.  A non-finite state aborts with the index of its sub-step,
    counted over the whole run.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    y, t_now, step = y0, 0.0, 0
    for t in ts:
        n_sub = max(int(np.ceil((t - t_now) / dt)), 1)
        h = (t - t_now) / n_sub
        for _ in range(n_sub):
            step += 1
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(y).all():
                raise FlowNumericsError(f"RK4 state became non-finite at step {step}")
        t_now = t
        yield y


# ---------------------------------------------------------------------------
# Theory curves


def effective_scales(d: int, r_s: int, r: int, alpha: float) -> EffectiveScales:
    """Effective width/timescale of the staircase limit.

    kappa_eff = r^alpha below the 1/2 boundary and 1 above it;
    T_eff = sqrt(r_s) ||lam||_F log(d/r_s);
    r_eff = floor(r_s (1 - log^{-1/8} d)) ^ r below, r_s above.
    """
    if alpha == 0.5:
        raise ValueError("alpha = 0.5 sits on the regime boundary; not supported")
    if r_s < 1 or r < 1 or d < 2:
        raise ValueError("need d >= 2, r >= 1, r_s >= 1")
    spectrum = PowerLawSpectrum(r=r, alpha=alpha)
    t_eff = float(np.sqrt(r_s) * spectrum.frob * np.log(d / r_s))
    if alpha < 0.5:
        kappa = float(r**alpha)
        r_eff = int(min(math.floor(r_s * (1.0 - math.log(d) ** (-1.0 / 8.0))), r))
        r_eff = max(r_eff, 1)
    else:
        kappa = 1.0
        r_eff = r_s
    return EffectiveScales(kappa_eff=kappa, t_eff=t_eff, r_eff=r_eff)


def theory_risk_curve(
    t: float, scales: EffectiveScales, spectrum: PowerLawSpectrum
) -> float:
    """Limit staircase risk: 1 - sum of lambda_j^2 already past transition."""
    k = min(scales.r_eff, spectrum.r)
    lam = spectrum.lambdas[:k]
    learned = t * scales.kappa_eff >= 1.0 / lam
    return float(1.0 - np.sum(lam[learned] ** 2) / spectrum.frob_sq)


def theory_limit_risk(t: float, alpha: float, phi: float) -> float:
    """Width-limited risk of the heavy regime (0 <= alpha < 0.5) at time ``t``.

    ``max((1 - t^{(1-2a)/a})_+, (1 - phi^{1-2a})_+)`` with ``phi = r_s / r``:
    the moving front meets the plateau the student's width leaves unlearned.
    alpha = 0 degenerates to ``1 - min(t, phi, 1)``. For alpha > 0.5 the
    limit is the staircase of :func:`theory_risk_curve`.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if not 0 <= alpha < 0.5:
        raise ValueError("heavy regime needs alpha in [0, 0.5)")
    phi = float(phi)
    plateau = max(1.0 - phi ** (1.0 - 2.0 * alpha), 0.0)
    if alpha == 0.0:
        return 1.0 - min(t, phi, 1.0)
    moving = max(1.0 - t ** ((1.0 - 2.0 * alpha) / alpha), 0.0)
    return max(moving, plateau)
