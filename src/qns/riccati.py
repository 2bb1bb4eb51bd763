"""Order-preserving discrete Riccati map and its matrix-power closed form.

The plain Euler step of the alignment-Gram ODE loses the Loewner-order
monotonicity that the continuous flow enjoys.  The resolvent-regularized map

    G' = G - (eta/2) (2G - I) L (2G - I) (I + eta L (2G - I))^{-1} + eta L

agrees with Euler to second order in eta but is order preserving.  Its
change of variables ``V = 2 L^{1/2} G L^{1/2} - L`` turns it into

    V' = V - eta V^2 (I + eta V)^{-1} + eta Lhat^2,

which is linearized by a 2 x 2 block companion matrix.  Per mode that matrix
has determinant 1, so its powers have an exact eigen closed form, evaluated
in a scaled representation that cannot overflow;
``closed_form_discrete_gram(g0, lam, eta, t)`` maps t steps of the V
recursion of the one spectrum ``lam`` back to G.  Spectra are vectors
throughout, one per matrix of a stack.

The maps take stacks of matrices ``(..., r, r)`` and solve them with one
LAPACK call, giving each matrix the floats of a 2-D call.
``riccati_blocks`` broadcasts array-valued ``eta`` and ``t`` against a
stack of spectra, so many trials are one call, and
``closed_form_discrete_gram`` takes an array of ``t`` and returns the stack.

The sandwich harness is one generator, ``bounding_run``.  It computes the
harness's constants once (the floor constant, the widened spectra, the
effective step and the starting brackets) and then yields plain arrays at
the requested steps: the reference sequence's diagonal, the lower and upper
bounding iterates in Gram coordinates, and the exact Gram iterate.  Only
the reference sequence and the exact iterate are stepped.  Each bracket's
recursion is a Moebius map whose per-mode companion has determinant 1, like
the V recursion's, so at a requested step both brackets come from their
start through that companion's power, as one ``(2, r, r)`` solve, whether
its modes are hyperbolic, parabolic or elliptic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .linalg import check_symmetric
from .model import PowerLawSpectrum

__all__ = [
    "RiccatiBlocks",
    "BoundingConfig",
    "monotone_update",
    "euler_update",
    "v_update",
    "riccati_blocks",
    "antisym_blocks",
    "closed_form_discrete_gram",
    "default_kappa_d",
    "bounding_run",
]


def _checked_stack(g, lam, eta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate G (one matrix or a stack) once; check ``lam`` against it.

    ``lam`` holds one spectrum per matrix, shape ``g.shape[:-1]``.  An array
    ``eta`` comes back with two trailing unit axes so it scales each matrix
    of the stack; a scalar stays a scalar.
    """
    g = check_symmetric(g)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != g.shape[:-1]:
        raise ValueError("dimension mismatch between G and the spectrum")
    if np.ndim(eta):
        eta = np.asarray(eta, dtype=float)[..., None, None]
    return g, lam, eta


def _solve_right(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``b a^{-1}`` for each matrix of a stack, by one LAPACK gesv loop."""
    return np.linalg.solve(a.swapaxes(-1, -2), b.swapaxes(-1, -2)).swapaxes(-1, -2)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.swapaxes(-1, -2))


def _monotone_system(g: np.ndarray, lam: np.ndarray, eta, eye: np.ndarray):
    """Resolvent ``I + eta L (2G - I)`` and middle term ``(2G - I) L (2G - I)``."""
    two_g_minus_i = 2.0 * g - eye
    l_two_g = lam[..., :, None] * two_g_minus_i
    return eye + eta * l_two_g, two_g_minus_i @ l_two_g


def _monotone_drift(lam: np.ndarray, eta, eye: np.ndarray):
    """``eta/2`` and the additive constant ``(eta/2) L`` of the monotone map.

    The constant is forced by the change of variables to the V recursion
    (V' = V - eta V^2 (I+eta V)^{-1} + eta Lhat^2) and by the requirement
    that the map agree with Euler to second order.
    """
    half_eta = 0.5 * eta
    return half_eta, half_eta * (eye * lam[..., None, :])


def _monotone_finish(g: np.ndarray, corr: np.ndarray, half_eta, drift) -> np.ndarray:
    return _sym(g - half_eta * corr + drift)


def monotone_update(g: np.ndarray, lam, eta) -> np.ndarray:
    """One step of the order-preserving discrete Riccati map.

    Preserves ``G+ >= G- >= 0`` for any eta with an invertible resolvent;
    ``eta < 1/||L||_2`` suffices for PSD inputs.  ``g`` may be a stack of
    shape ``(..., r, r)`` with ``lam`` of shape ``(..., r)`` and ``eta`` a
    scalar or of shape ``(...)``: the stack is validated once and solved by
    one ``np.linalg.solve`` call, and each matrix gets the same floats as a
    2-D call.
    """
    g, lam, eta = _checked_stack(g, lam, eta)
    eye = np.eye(g.shape[-1])
    resolvent, mid = _monotone_system(g, lam, eta, eye)
    try:
        corr = _solve_right(resolvent, mid)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"singular resolvent in monotone update: {exc}")
    return _monotone_finish(g, corr, *_monotone_drift(lam, eta, eye))


def euler_update(g: np.ndarray, lam, eta) -> np.ndarray:
    """Plain Euler step ``G + eta (L G + G L - 2 G L G)``.

    Matches :func:`monotone_update` to O(eta^2) but does NOT preserve the
    Loewner order; kept as the counterexample generator.  Takes stacks the
    way :func:`monotone_update` does.
    """
    g, lam, eta = _checked_stack(g, lam, eta)
    lg = lam[..., :, None] * g
    glg = g @ lg
    out = g + eta * (lg + lg.swapaxes(-1, -2) - (glg + glg.swapaxes(-1, -2)))
    return _sym(out)


def v_update(v: np.ndarray, lam_hat, eta: float) -> np.ndarray:
    """Shifted-variable step ``V - eta V^2 (I + eta V)^{-1} + eta Lhat^2``."""
    v = check_symmetric(v)
    lam_hat = np.asarray(lam_hat, dtype=float)
    r = v.shape[0]
    if lam_hat.shape != (r,):
        raise ValueError("dimension mismatch between V and the spectrum")
    resolvent = np.eye(r) + eta * v
    try:
        corr = _solve_right(resolvent, v @ v)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"singular resolvent in V update: {exc}")
    out = v - eta * corr + eta * np.diag(lam_hat**2)
    return _sym(out)


# ---------------------------------------------------------------------------
# Matrix-power closed forms


@dataclass(frozen=True)
class RiccatiBlocks:
    """Diagonal blocks of the t-th power of the companion matrix.

    The power is stored in a scaled representation (``blocks * exp(log_scale)``
    per mode) so t up to ~1e6 never overflows; the ``a11/a12/a22`` properties
    materialize unscaled values and may return inf once t*eta*lambda is large.
    Identities: ``a11 + eta lhat a12 = a22`` and ``a22 a11 - a12^2 = 1``.
    Every array has the broadcast shape of the spectrum, eta and t it was
    built from.
    """

    scaled_a11: np.ndarray
    scaled_a12: np.ndarray
    scaled_a22: np.ndarray
    log_scale: np.ndarray

    def _unscale(self, v: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return v * np.exp(self.log_scale)

    @property
    def a11(self) -> np.ndarray:
        return self._unscale(self.scaled_a11)

    @property
    def a12(self) -> np.ndarray:
        return self._unscale(self.scaled_a12)

    @property
    def a22(self) -> np.ndarray:
        return self._unscale(self.scaled_a22)

    def ratio_11_12(self) -> np.ndarray:
        return self.scaled_a11 / self.scaled_a12

    def ratio_22_12(self) -> np.ndarray:
        return self.scaled_a22 / self.scaled_a12

    def inv_a12(self) -> np.ndarray:
        with np.errstate(under="ignore"):
            return np.exp(-self.log_scale) / self.scaled_a12


def riccati_blocks(lam_hat, eta, t) -> RiccatiBlocks:
    """Blocks of ``[[I, eta I], [eta Lhat^2, I + eta^2 Lhat^2]]^t``.

    This is the companion matrix of the full V recursion (second-order term
    included).  Per mode it has determinant 1 and trace ``2 + eta^2 lhat^2``,
    so its eigenvalues are ``exp(+-theta)`` with ``theta = 2 asinh(eta lhat / 2)``
    and ``M^t = (e^{t theta} (M - e^{-theta}) - e^{-t theta} (M - e^{theta})) /
    (2 sinh theta)``: O(1) per t, evaluated with ``e^{t theta}`` pulled out as
    ``log_scale``.  Each block comes from its own formula, so the sum and
    determinant identities checked below are independent tests.

    ``eta`` and ``t`` may be arrays that broadcast against the vector (or
    stack of vectors) ``lam_hat``, e.g. ``(trials, 1)`` against ``(trials, r)``:
    one call then evaluates every trial, each element to the floats of a
    scalar call.  Any ``t < 0`` raises, and the identities are checked per
    element wherever ``t > 0``.
    """
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be >= 0")
    lam_hat = np.asarray(lam_hat, dtype=float)
    if np.any(lam_hat <= 0):
        raise ValueError("lambda_hat must be strictly positive")
    theta = 2.0 * np.arcsinh(0.5 * eta * lam_hat)
    log_scale = t * theta
    decay = np.exp(-2.0 * log_scale)  # e^{-2 t theta}, may underflow to 0
    two_sinh = 2.0 * np.sinh(theta)
    up, down = np.expm1(theta), np.expm1(-theta)
    # off-diagonal convention: power = [[a11, a12/lhat], [lhat a12, a22]]
    a11 = (decay * up - down) / two_sinh
    a12 = eta * lam_hat * -np.expm1(-2.0 * log_scale) / two_sinh
    a22 = (up - decay * down) / two_sinh
    # construction-time contract: a11 + eta lhat a12 = a22 and
    # a22 a11 - a12^2 = 1 (checked relative to the block magnitudes)
    rel_sum = np.abs(a11 + eta * lam_hat * a12 - a22)
    rel_det = np.abs(a22 * a11 - a12**2 - decay)
    lost = (rel_sum > 1e-10 * a22) | (rel_det > 1e-10 * a11 * a22)
    if np.any(lost & (np.asarray(t) > 0)):
        raise FloatingPointError("companion power lost its invariants (overflow?)")
    return RiccatiBlocks(
        scaled_a11=a11, scaled_a12=a12, scaled_a22=a22, log_scale=log_scale
    )


def antisym_blocks(lam_hat, eta: float, t: int) -> RiccatiBlocks:
    """Closed form for the zero-diagonal companion ``[[I, eta I], [eta Lhat^2, I]]^t``.

    ``a11 = a22 = ((1+eta lhat)^t + (1-eta lhat)^t)/2`` and
    ``a12 = ((1+eta lhat)^t - (1-eta lhat)^t)/2``, evaluated in the same
    scaled representation (factor ``(1+eta lhat)^t`` pulled out).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    lam_hat = np.asarray(lam_hat, dtype=float)
    if np.any(np.abs(eta * lam_hat) >= 1.0):
        raise ValueError("closed form requires |eta lambda| < 1")
    log_plus = t * np.log1p(eta * lam_hat)
    rho = (1.0 - eta * lam_hat) / (1.0 + eta * lam_hat)
    rho_t = rho**t
    return RiccatiBlocks(
        scaled_a11=(1.0 + rho_t) / 2.0,
        scaled_a12=(1.0 - rho_t) / 2.0,
        scaled_a22=(1.0 + rho_t) / 2.0,
        log_scale=log_plus,
    )


def _diag_stack(v: np.ndarray) -> np.ndarray:
    """Matrices with the vectors of ``v`` on their diagonals: ``np.diag`` of each."""
    out = np.zeros(v.shape + v.shape[-1:])
    out[..., range(v.shape[-1]), range(v.shape[-1])] = v
    return out


def closed_form_discrete_gram(g0: np.ndarray, lam, eta: float, t) -> np.ndarray:
    """Closed form for t steps of the V recursion, mapped back to G.

    Equivalent to iterating :func:`v_update` with spectrum ``lam`` from
    ``V0 = 2 L^{1/2} G0 L^{1/2} - L`` and mapping back through the same
    change of variables: ``G(t) = (I + A22 A12^{-1}) / 2 - A12^{-1}
    (G0 + (A11 A12^{-1} - I) / 2)^{-1} A12^{-1} / 4`` with the blocks of
    :func:`riccati_blocks`.  ``t`` may be an array of steps: the result is
    then the stack of one matrix per ``t``, each the floats of a scalar call,
    solved by one LAPACK call, and a singular inner matrix names the first
    ``t`` that has one.
    """
    g0 = check_symmetric(g0)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != g0.shape[:1]:
        raise ValueError("dimension mismatch")
    ts = np.asarray(t).reshape(-1)
    moved = ts != 0
    steps = ts[moved]
    blocks = riccati_blocks(lam, eta, steps[:, None])
    b = blocks.inv_a12()
    inner = g0 + _diag_stack((blocks.ratio_11_12() - 1.0) / 2.0)
    try:
        solved = np.linalg.solve(inner, _diag_stack(b))
    except np.linalg.LinAlgError:
        # gesv's and slogdet's LU meet the same exact zero pivot
        bad = steps[np.linalg.slogdet(inner)[0] == 0][0]
        raise np.linalg.LinAlgError(
            f"inner matrix singular in discrete closed form at step t={bad}"
        )
    g = _diag_stack((1.0 + blocks.ratio_22_12()) / 2.0) - 0.25 * (b[..., :, None] * solved)
    g = 0.5 * (g + g.swapaxes(-1, -2))
    if not moved.all():
        out = np.empty(ts.shape + g0.shape)
        out[~moved], out[moved] = g0, g
        g = out
    return g.reshape(np.shape(t) + g0.shape)


# ---------------------------------------------------------------------------
# Reference/bounding recursion harness


def default_kappa_d(d: int, r: int, alpha: float) -> float:
    """Reference-sequence floor constant: 1/log^3.5 d below the boundary,
    1/(r_u log^2.5 d) with r_u = ceil(log^2.5 d) ^ r above it."""
    ld = np.log(d)
    if alpha < 0.5:
        return float(1.0 / ld**3.5)
    r_u = min(int(np.ceil(ld**2.5)), r)
    return float(1.0 / (r_u * ld**2.5))


# constants of the sandwich: C > 1 multiplying the spectrum widening, and
# the order-one constant of the second-order term
_C_DRIFT = 2.0
_C_TILDE = 2.0


@dataclass(frozen=True)
class BoundingConfig:
    """Dimensions and raw SGD step size of the deterministic sandwich harness;
    the floor constant is :func:`default_kappa_d` of its regime."""

    d: int
    r_s: int
    eta: float


def _mobius_power(v0: np.ndarray, a: np.ndarray, add: np.ndarray, k: int) -> np.ndarray:
    """k steps of ``V' = V (I + a V)^{-1} + diag(add)`` from each ``V0`` of a stack.

    ``v0`` is ``(n, r, r)``; ``a`` holds one scalar and ``add`` one vector per
    matrix.  Written as ``V = X Y^{-1}``, the step is linear in ``(X, Y)``: per
    mode it is the companion ``M = [[1 + c, add_i], [a, 1]]`` with
    ``c = a add_i``, of determinant 1 and trace ``2 + c``.  Its k-th power
    ``[[P, Q], [R, S]] = s_k M - s_{k-1} I`` has ``s_k = sinh(k theta) /
    sinh(theta)`` and ``S = cosh((k - 1/2) theta) / cosh(theta / 2)`` for a
    hyperbolic mode (``c = 4 sinh^2(theta / 2) > 0``), the same with ``sin``
    and ``cos`` for an elliptic one (``c = -4 sin^2(theta / 2)``, ``-4 < c <
    0``), and ``s_k = k``, ``S = 1`` for a parabolic one (``c = 0``); ``S`` has
    its own product formula, so no cancellation grows with k.  Then
    ``V_k = (P V0 + Q)(R V0 + S)^{-1}``.  An elliptic power stays bounded, and
    its rows take that fraction as it is.  A hyperbolic power grows like
    ``e^{k theta}``; by ``P S - Q R = 1`` its rows are
    ``Q/S + S^{-1} V0 (R V0 + S)^{-1}``, and with those rows of the
    denominator divided by ``S`` only the ratios ``Q/S`` and ``R/S`` and the
    decaying ``1/S`` remain, so nothing overflows.  One stacked solve serves
    every row.
    """
    if not k:
        return v0
    c = a[:, None] * add
    ell = c < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        root = 0.5 * np.sqrt(np.abs(c))
        half = np.where(ell, np.arcsin(root), np.arcsinh(root))
        theta = 2.0 * half
        # hyperbolic rows: s_k / S and 1 / S, with e^{k theta} divided out
        odd = 1.0 + np.exp((1 - 2 * k) * theta)
        s_hyp = np.exp(half) * -np.expm1(-2.0 * k * theta) / (2.0 * np.sinh(half) * odd)
        s_hyp[theta == 0] = k
        inv_s = 2.0 * np.cosh(half) * np.exp((0.5 - k) * theta) / odd
        # elliptic rows: s_k and S themselves
        s = np.where(ell, np.sin(k * theta) / np.sin(theta), s_hyp)
        diag = np.where(ell, np.cos((k - 0.5) * theta) / np.cos(half), 1.0)
    eye = np.eye(v0.shape[-1])
    p, q = np.where(ell, diag + c * s, 1.0), np.where(ell, add * s, 0.0)
    num = p[..., :, None] * v0 + eye * q[..., None, :]
    den = (a[:, None] * s)[..., :, None] * v0 + eye * diag[..., None, :]
    scale = np.where(ell, 1.0, inv_s)
    w = scale[..., :, None] * _solve_right(den, num) * scale[..., None, :]
    return _sym(eye * np.where(ell, 0.0, add * s)[..., None, :] + w)


def bounding_run(
    g0: np.ndarray,
    spectrum: PowerLawSpectrum,
    cfg: BoundingConfig,
    steps: int,
    at,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Noise-free sandwich run: yield ``(k, t_ref, lower, upper, g)`` at each
    step k in ``at`` (``k = 0`` is the start).

    ``t_ref`` is the diagonal of the reference sequence, which starts at
    ``T0 = (kappa_d r_s / d) I`` with ``kappa_d`` of :func:`default_kappa_d`
    and stays diagonal.  ``lower`` and ``upper`` are the bounding iterates in
    Gram coordinates.  They start from the tightest admissible brackets
    ``G0 -/+ T0`` and evolve as V iterates with the widened and narrowed
    spectra ``lambda -/+ shift``, by ``V' = V (I + a V)^{-1} + diag(add)``.
    ``g`` takes the :func:`monotone_update` arithmetic with the spectrum and
    ``eta_eff = eta / (2 sqrt(r_s) ||lambda||)``, so it is ``g0`` after k
    calls of :func:`monotone_update`, to the last bit.  A step size whose
    widened lower spectrum is not positive raises ``ValueError``.  The
    constants are computed once.  Only ``t_ref`` and ``g`` are stepped; at
    each step in ``at`` the brackets come from their start through the
    companion power of their recursion, as one ``(2, r, r)`` solve.
    """
    g0 = check_symmetric(g0)
    lam = spectrum.lambdas
    r = lam.size
    if g0.shape[0] != r:
        raise ValueError(f"Gram must be {r} x {r}")
    kappa = default_kappa_d(cfg.d, r, spectrum.alpha)
    shift = _C_DRIFT * spectrum.frob * cfg.eta * cfg.d / np.sqrt(cfg.r_s)
    lam_lo, lam_up = lam - shift, lam + shift
    if np.any(lam_lo <= 0):
        raise ValueError(
            "step size too large: widened lower spectrum is not positive "
            f"(shift {shift:.3e} >= lambda_r {lam[-1]:.3e})"
        )
    ue = float(cfg.eta / (2.0 * np.sqrt(cfg.r_s) * spectrum.frob))
    # reference sequence, per mode: t' = t + coef (lam_lo t - quad t^2)
    t_ref = np.full(r, kappa * cfg.r_s / cfg.d)
    coef = 2.0 * (1.0 - 2.0 * kappa) * ue
    quad = (3.0 * kappa + 1.0) / (kappa * (1.0 - 2.0 * kappa)) * lam
    # lower and upper V iterates: Gram offsets, resolvent weights and drifts
    offset = np.stack([np.diag(lam_lo / (1.0 + 2.0 * kappa)),
                       np.diag(lam_up / (1.0 - 2.0 * kappa))])
    a_lo = ue * (1.0 + 2.0 * kappa) / (1.0 - 1.2 * ue)
    a_up = ue * (1.0 - 2.0 * kappa) / (1.0 + 1.2 * ue)
    second = _C_TILDE * ue * spectrum.frob_sq * cfg.r_s
    add = np.stack([a_lo * (lam_lo**2 / (1.0 + 2.0 * kappa) ** 2 - second * lam_lo),
                    a_up * (lam_up**2 / (1.0 - 2.0 * kappa) ** 2 + second * lam_up)])
    a = np.array([a_lo, a_up])
    sq = np.sqrt(lam)
    inv_sq = 1.0 / sq
    eye = np.eye(r)
    half_eta, drift = _monotone_drift(lam, ue, eye)
    t0 = np.diag(t_ref)
    v0 = _sym(2.0 * (sq[:, None] * np.stack([g0 - t0, g0 + t0]) * sq[None, :]) - offset)
    at = frozenset(at)
    g = g0
    for k in range(steps + 1):
        if k:
            t_ref = t_ref + coef * (lam_lo * t_ref - quad * (t_ref * t_ref))
            resolvent, mid = _monotone_system(g, lam, ue, eye)
            g = _monotone_finish(g, _solve_right(resolvent, mid), half_eta, drift)
        if k in at:
            v = _mobius_power(v0, a, add, k)
            lower, upper = inv_sq[:, None] * ((v + offset) * 0.5) * inv_sq[None, :]
            yield k, t_ref, lower, upper, g
