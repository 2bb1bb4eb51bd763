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
throughout, one per matrix of a stack.  A deterministic reference/bounding
recursion harness built on the same map sandwiches iterates between
decoupled systems.

The maps take stacks of matrices ``(..., r, r)`` and solve them with one
LAPACK call, giving each matrix the floats of a 2-D call.  ``bounding_run``
runs the noise-free sandwich as one loop: the step's constants are computed
once, and each step solves the lower and upper iterates and the exact Gram
iterate as one ``(3, r, r)`` stack.  ``riccati_blocks`` broadcasts
array-valued ``eta`` and ``t`` against a stack of spectra, so many trials
are one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .linalg import check_symmetric
from .model import PowerLawSpectrum

__all__ = [
    "RiccatiBlocks",
    "BoundingConfig",
    "BoundingState",
    "monotone_update",
    "euler_update",
    "v_update",
    "riccati_blocks",
    "antisym_blocks",
    "closed_form_discrete_gram",
    "default_kappa_d",
    "init_bounding",
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


def closed_form_discrete_gram(g0: np.ndarray, lam, eta: float, t: int) -> np.ndarray:
    """Closed form for t steps of the V recursion, mapped back to G.

    Equivalent to iterating :func:`v_update` with spectrum ``lam`` from
    ``V0 = 2 L^{1/2} G0 L^{1/2} - L`` and mapping back through the same
    change of variables: ``G(t) = (I + A22 A12^{-1}) / 2 - A12^{-1}
    (G0 + (A11 A12^{-1} - I) / 2)^{-1} A12^{-1} / 4`` with the blocks of
    :func:`riccati_blocks`.
    """
    g0 = check_symmetric(g0)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != g0.shape[:1]:
        raise ValueError("dimension mismatch")
    if t == 0:
        return g0.copy()
    blocks = riccati_blocks(lam, eta, t)
    b = blocks.inv_a12()
    inner = g0 + np.diag((blocks.ratio_11_12() - 1.0) / 2.0)
    try:
        solved = np.linalg.solve(inner, np.diag(b))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            f"inner matrix singular in discrete closed form at step t={t}"
        )
    out = np.diag((1.0 + blocks.ratio_22_12()) / 2.0) - 0.25 * (b[:, None] * solved)
    return 0.5 * (out + out.T)


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


@dataclass(frozen=True)
class BoundingState:
    """Reference sequence plus lower/upper bounding iterates.

    ``t_ref`` starts at ``(kappa_d r_s / d) I`` and never drops below it;
    ``lower``/``upper`` evolve by resolvent steps with widened/narrowed
    spectra so that noisy Gram iterates stay sandwiched between them.
    """

    t_ref: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    kappa_d: float
    eta_eff: float
    lam_lo: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    lam_up: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    lam: np.ndarray = field(repr=False, default=None)     # type: ignore[assignment]
    r_s: int = 1
    step: int = 0

    def _gram_of(self, v: np.ndarray, offset: np.ndarray) -> np.ndarray:
        inv_sq = 1.0 / np.sqrt(self.lam)
        g = (v + np.diag(offset)) * 0.5
        return inv_sq[:, None] * g * inv_sq[None, :]

    def lower_gram(self) -> np.ndarray:
        """Lower bounding iterate mapped back to Gram coordinates."""
        return self._gram_of(self.lower, self.lam_lo / (1.0 + 2.0 * self.kappa_d))

    def upper_gram(self) -> np.ndarray:
        """Upper bounding iterate mapped back to Gram coordinates."""
        return self._gram_of(self.upper, self.lam_up / (1.0 - 2.0 * self.kappa_d))

    def order_slack(self) -> float:
        """Smallest eigenvalue of upper - lower, in Gram coordinates.

        The raw V iterates live in different affine coordinates (their
        offsets differ), so the bracket is only meaningful on the Grams.
        """
        return float(np.linalg.eigvalsh(self.upper_gram() - self.lower_gram())[0])

    def sandwich_slack(self, g: np.ndarray) -> float:
        """Margin of ``lower + T <= G <= upper - T`` for an exact iterate."""
        lo = float(np.linalg.eigvalsh(g - self.lower_gram() - self.t_ref)[0])
        hi = float(np.linalg.eigvalsh(self.upper_gram() - self.t_ref - g)[0])
        return min(lo, hi)

    def floor_ok(self, d: int) -> bool:
        floor = self.kappa_d * self.r_s / d
        return float(np.linalg.eigvalsh(self.t_ref)[0]) >= floor - 1e-12


def _widened_spectra(spectrum: PowerLawSpectrum, cfg: BoundingConfig):
    lam = spectrum.lambdas
    shift = _C_DRIFT * spectrum.frob * cfg.eta * cfg.d / np.sqrt(cfg.r_s)
    lam_lo = lam - shift
    lam_up = lam + shift
    if np.any(lam_lo <= 0):
        raise ValueError(
            "step size too large: widened lower spectrum is not positive "
            f"(shift {shift:.3e} >= lambda_r {lam[-1]:.3e})"
        )
    return lam_lo, lam_up


def init_bounding(
    g0: np.ndarray, spectrum: PowerLawSpectrum, cfg: BoundingConfig
) -> BoundingState:
    """Build the harness state from an initial alignment Gram ``g0``.

    The bounding iterates start from the tightest admissible brackets
    ``G0 -/+ T0`` with ``T0 = (kappa_d r_s / d) I``.
    """
    g0 = check_symmetric(g0)
    r = spectrum.r
    if g0.shape[0] != r:
        raise ValueError(f"Gram must be {r} x {r}")
    kappa = default_kappa_d(cfg.d, r, spectrum.alpha)
    lam_lo, lam_up = _widened_spectra(spectrum, cfg)
    eta_eff = cfg.eta / (2.0 * np.sqrt(cfg.r_s) * spectrum.frob)
    t0 = (kappa * cfg.r_s / cfg.d) * np.eye(r)
    lam = spectrum.lambdas
    g_lo = g0 - t0
    g_up = g0 + t0
    sq = np.sqrt(lam)
    v_lo = 2.0 * (sq[:, None] * g_lo * sq[None, :]) - np.diag(lam_lo / (1.0 + 2.0 * kappa))
    v_up = 2.0 * (sq[:, None] * g_up * sq[None, :]) - np.diag(lam_up / (1.0 - 2.0 * kappa))
    return BoundingState(
        t_ref=t0,
        lower=0.5 * (v_lo + v_lo.T),
        upper=0.5 * (v_up + v_up.T),
        kappa_d=kappa,
        eta_eff=float(eta_eff),
        lam_lo=lam_lo,
        lam_up=lam_up,
        lam=lam.copy(),
        r_s=cfg.r_s,
        step=0,
    )


def bounding_run(
    g0: np.ndarray,
    spectrum: PowerLawSpectrum,
    cfg: BoundingConfig,
    steps: int,
    at,
) -> Iterator[tuple[int, BoundingState, np.ndarray]]:
    """Noise-free sandwich run: yield ``(k, state, g)`` at each step k in ``at``.

    Starts from :func:`init_bounding` of ``g0`` and takes ``steps`` steps.  A
    step takes the reference sequence through a logistic-type recursion (it
    stays diagonal from ``T0``), the lower and upper V iterates through
    ``V' = V (I + a V)^{-1} + diag(add)``, and ``g`` through the
    :func:`monotone_update` arithmetic with the harness's spectrum and
    ``eta_eff``, so ``g`` is ``g0`` after k calls of :func:`monotone_update`,
    to the last bit.  The constants are computed once, each step solves
    lower, upper and ``g`` as one ``(3, r, r)`` stack, and nothing is
    validated or built inside the loop except the yielded states.
    """
    state = init_bounding(g0, spectrum, cfg)
    kappa, ue, lam = state.kappa_d, state.eta_eff, state.lam
    lam_lo, lam_up = state.lam_lo, state.lam_up
    # reference sequence: t' = t + coef (lam_lo t - quad lam t^2)
    coef = 2.0 * (1.0 - 2.0 * kappa) * ue
    lo_col = lam_lo[:, None]
    quad_lam = (3.0 * kappa + 1.0) / (kappa * (1.0 - 2.0 * kappa)) * lam[:, None]
    # resolvent weights and diagonal drifts of lower and upper
    a_lo = ue * (1.0 + 2.0 * kappa) / (1.0 - 1.2 * ue)
    a_up = ue * (1.0 - 2.0 * kappa) / (1.0 + 1.2 * ue)
    second = _C_TILDE * ue * float(np.sum(lam**2)) * state.r_s
    add = np.stack([np.diag(a_lo * (lam_lo**2 / (1.0 + 2.0 * kappa) ** 2 - second * lam_lo)),
                    np.diag(a_up * (lam_up**2 / (1.0 - 2.0 * kappa) ** 2 + second * lam_up))])
    a = np.array([a_lo, a_up])[:, None, None]
    eye = np.eye(lam.size)
    half_eta, drift = _monotone_drift(lam, ue, eye)
    at = frozenset(at)
    t_ref, bounds, g = state.t_ref, np.stack([state.lower, state.upper]), check_symmetric(g0)
    for k in range(1, steps + 1):
        t_ref = _sym(t_ref + coef * (lo_col * t_ref - quad_lam * (t_ref @ t_ref)))
        resolvent, mid = _monotone_system(g, lam, ue, eye)
        solved = _solve_right(np.concatenate([eye + a * bounds, resolvent[None]]),
                              np.concatenate([bounds, mid[None]]))
        bounds = _sym(solved[:2] + add)
        g = _monotone_finish(g, solved[2], half_eta, drift)
        if k in at:
            yield k, replace(state, t_ref=t_ref, lower=bounds[0], upper=bounds[1], step=k), g
