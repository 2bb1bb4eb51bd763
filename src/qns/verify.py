"""Machine-checkable verification suites behind ``qns verify``.

Each suite returns a list of check dicts ``{name, passed, residual,
tolerance, detail}``; residuals are the measured quantities so failures are
diagnosable from the JSON alone.  Suites are deterministic given the seed.

The arithmetic of each check lives once, in a kernel that takes
already-drawn inputs: :func:`block_identity_residuals`,
:func:`closed_form_residual`, :func:`power_residual`,
:func:`monotone_slacks`, :func:`decomposition_residual`, :func:`erm_gap` and
:func:`bounding_slacks`.  The suites and the acceptance criteria draw their
own trials and call the same kernels.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .linalg import inv_sqrt_gram, loewner_slack, psd_project, rng_stream, sample_stiefel
from .model import PowerLawSpectrum, StudentState, TeacherModel, draw_samples, population_risk
from .riccati import (
    BoundingConfig,
    antisym_blocks,
    bounding_run,
    closed_form_discrete_gram,
    default_kappa_d,
    euler_update,
    monotone_update,
    riccati_blocks,
    v_update,
)
from .trainer import _sgd_update, stiefel_grad
from .finetune import (
    collect_batch,
    erm_minimize,
    l_operator_apply,
    l_operator_gap,
    risk_decomposition,
    s_glob_estimate,
)

__all__ = ["run_suite", "SUITES", "MIN_DIM", "MAX_DIM", "MAX_TRIALS", "MAX_STEPS",
           "block_identity_residuals", "closed_form_residual",
           "power_residual", "monotone_slacks", "decomposition_residual", "erm_gap",
           "bounding_slacks"]


# trials evaluated together by the stacked kernels: enough to amortise the
# per-call overhead, few enough to keep memory flat
TRIAL_CHUNK = 256
# bytes of one matrix stack of a stacked closed-form call: 200 steps fit at
# dim 8, and at the riccati suite's largest dim (256, 512 KiB a matrix) one
# step a call keeps the peak memory of scalar calls
_STACK_BYTES = 256 * 1024


def _check(name: str, residual: float, tol: float, **detail) -> dict:
    return {
        "name": name,
        "passed": bool(residual <= tol),
        "residual": float(residual),
        "tolerance": float(tol),
        "detail": detail,
    }


def _rand_psd(rng, dim: int, scale: float) -> np.ndarray:
    b = rng.standard_normal((dim, dim))
    return scale * (b @ b.T) / dim


def block_identity_residuals(lam, eta, t) -> tuple[float, float]:
    """Worst relative residuals of the sum identity ``a11 + eta lhat a12 = a22``
    and the determinant identity ``a22 a11 - a12^2 = 1`` of the companion power.

    ``lam`` is a ``(trials, r)`` stack of spectra and ``eta`` and ``t`` hold one
    value per trial; each :data:`TRIAL_CHUNK` trials go through one
    :func:`riccati_blocks` call.
    """
    eta = np.asarray(eta, dtype=float)[:, None]
    t = np.asarray(t)[:, None]
    worst_sum = worst_det = 0.0
    for k in range(0, len(t), TRIAL_CHUNK):
        part = slice(k, k + TRIAL_CHUNK)
        lp, ep = lam[part], eta[part]
        b = riccati_blocks(lp, ep, t[part])
        rel_sum = np.abs(b.scaled_a11 + ep * lp * b.scaled_a12 - b.scaled_a22) / b.scaled_a22
        det = b.scaled_a22 * b.scaled_a11 - b.scaled_a12**2
        rel_det = np.abs(det - np.exp(-2.0 * b.log_scale)) / (b.scaled_a22 * b.scaled_a11)
        worst_sum = max(worst_sum, float(rel_sum.max()))
        worst_det = max(worst_det, float(rel_det.max()))
    return worst_sum, worst_det


def closed_form_residual(g0: np.ndarray, lam: np.ndarray, eta: float, t_max: int) -> float:
    """Worst entry gap, over t = 1..t_max, between :func:`closed_form_discrete_gram`
    and ``g0`` pushed t times through :func:`v_update` and mapped back to Gram
    coordinates.  The closed form takes as many steps per call as fit
    :data:`_STACK_BYTES`, and at least one."""
    sq = np.sqrt(lam)
    v = 2.0 * (sq[:, None] * g0 * sq[None, :]) - np.diag(lam)
    chunk = max(_STACK_BYTES // (8 * g0.size), 1)
    worst = 0.0
    for start in range(1, t_max + 1, chunk):
        ts = np.arange(start, min(start + chunk, t_max + 1))
        for g_cf in closed_form_discrete_gram(g0, lam, eta, ts):
            v = v_update(v, lam, eta)
            g_it = (v + np.diag(lam)) / (2.0 * np.outer(sq, sq))
            worst = max(worst, float(np.abs(g_cf - g_it).max()))
    return worst


def power_residual(lam: np.ndarray, eta: float, ts) -> float:
    """Worst relative gap between :func:`antisym_blocks` and the zero-diagonal
    companion ``[[1, eta], [eta l^2, 1]]`` raised by ``np.linalg.matrix_power``,
    over every mode of ``lam`` and every power in ``ts``."""
    worst = 0.0
    for t in ts:
        blocks = antisym_blocks(lam, eta, t)
        for i, l in enumerate(lam):
            p = np.linalg.matrix_power(np.array([[1.0, eta], [eta * l**2, 1.0]]), t)
            worst = max(
                worst,
                abs(p[0, 0] - blocks.a11[i]) / abs(p[0, 0]),
                abs(p[0, 1] - blocks.a12[i] / l) / abs(p[0, 1]),
                abs(p[1, 1] - blocks.a22[i]) / abs(p[1, 1]),
            )
    return worst


def suite_riccati(dim: int = 8, trials: int = 20, seed: int = 0) -> list[dict]:
    """Block identities, closed forms vs iteration, ratio bounds."""
    rng = rng_stream(seed, 31)
    lam, eta, t = np.empty((trials, dim)), np.empty(trials), np.empty(trials, dtype=int)
    for k in range(trials):
        lam[k] = np.sort(rng.uniform(0.2, 1.0, dim))[::-1]
        eta[k] = rng.uniform(0.01, 0.25)
        t[k] = rng.integers(1, 101)
    worst_r2a, worst_r2b = block_identity_residuals(lam, eta, t)
    checks = [
        _check("block_identity_sum", worst_r2a, 1e-12, trials=trials),
        _check("block_identity_det", worst_r2b, 1e-12, trials=trials),
    ]

    # closed-form discrete Gram vs iterated V update, t = 200
    lam = np.sort(rng.uniform(0.3, 1.0, dim))[::-1]
    g0 = np.diag(rng.uniform(0.01, 0.9, dim))
    checks.append(_check("closed_form_vs_iteration", closed_form_residual(g0, lam, 0.05, 200),
                         1e-10, t_max=200))
    # zero-diagonal companion closed form vs repeated multiplication
    checks.append(_check("power_closed_form_vs_product",
                         power_residual(lam, 0.15, (1, 2, 7, 37, 64)), 1e-12))

    # ratio bounds: a11/a12 lower bound and the a22/a12 two-sided chain
    lam = np.sort(rng.uniform(0.2, 0.9, dim))[::-1]
    eta = 0.5
    worst_lb = worst_chain = 0.0
    for t in range(1, 51):
        b = riccati_blocks(lam, eta, t)
        lb = np.sqrt(1.0 + eta**2 * lam**2 / 4.0) - eta * lam / 2.0
        viol = np.maximum(lb - b.ratio_11_12(), 0.0)
        worst_lb = max(worst_lb, float(viol.max()))
        mid = ((1 + eta * lam) ** t + (1 - eta * lam) ** t) / (
            (1 + eta * lam) ** t - (1 - eta * lam) ** t
        )
        chain = np.maximum(mid - b.ratio_22_12(), 0.0).max()
        chain = max(chain, float(np.maximum(b.ratio_11_12() - mid, 0.0).max()))
        worst_chain = max(worst_chain, float(chain))
    checks.append(_check("ratio_lower_bound", worst_lb, 1e-12))
    checks.append(_check("ratio_two_sided_chain", worst_chain, 1e-10))

    # block-ratio recurrence reproduces the V update (diagonal case, where the
    # scale factor of the blocks cancels exactly)
    eta = 0.08
    v0 = rng.uniform(-0.5, 0.5, dim)
    worst = 0.0
    v = np.diag(v0)
    for t in range(1, 30):
        v = v_update(v, lam, eta)
        b = riccati_blocks(lam, eta, t)
        vt = lam * (lam * b.scaled_a12 + b.scaled_a22 * v0) / (
            lam * b.scaled_a11 + b.scaled_a12 * v0
        )
        worst = max(worst, float(np.abs(vt - np.diag(v)).max()))
    checks.append(_check("block_ratio_recurrence", worst, 1e-10))
    return checks




def monotone_slacks(draws, updates) -> tuple[np.ndarray, np.ndarray]:
    """Loewner slacks ``lambda_min(F(G+) - F(G-))`` of each map F in ``updates``
    over drawn trials, and each trial's eta.

    ``draws`` yields ``(lam, eta, g_plus, g_minus)`` trials.  They are taken
    :data:`TRIAL_CHUNK` at a time, so a generator draws a chunk before any
    of it is evaluated; within a chunk the trials of each size go through
    every map as one stack.  Returns a ``(len(updates), trials)`` array of
    slacks and the ``(trials,)`` etas.
    """
    draws = iter(draws)
    slacks, etas = [np.empty((len(updates), 0))], [np.empty(0)]
    while chunk := list(islice(draws, TRIAL_CHUNK)):
        eta = np.array([trial[1] for trial in chunk])
        out = np.empty((len(updates), len(chunk)))
        by_size: dict[int, list[int]] = {}
        for k, trial in enumerate(chunk):
            by_size.setdefault(trial[0].size, []).append(k)
        for ks in by_size.values():
            lam, g_plus, g_minus = (np.array([chunk[k][col] for k in ks]) for col in (0, 2, 3))
            for i, update in enumerate(updates):
                out[i, ks] = loewner_slack(
                    update(g_plus, lam, eta[ks]), update(g_minus, lam, eta[ks])
                )
        slacks.append(out)
        etas.append(eta)
    return np.concatenate(slacks, axis=1), np.concatenate(etas)


def _monotone_draws(dim: int, trials: int, seed: int):
    """The monotone suite's trials: size n, spectrum, eta, then the PSD pair."""
    rng = rng_stream(seed, 32)
    for _ in range(trials):
        n = int(rng.integers(2, dim + 1))
        lam = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
        eta = rng.uniform(0.05, 0.45) / lam[0]
        g_minus = _rand_psd(rng, n, scale=rng.uniform(0.5, 2.0))
        g_plus = g_minus + _rand_psd(rng, n, scale=rng.uniform(0.1, 2.0))
        yield lam, eta, g_plus, g_minus


def suite_monotone(dim: int = 8, trials: int = 1000, seed: int = 0) -> list[dict]:
    """Order preservation of the resolvent map; Euler counterexample search.

    Both maps run on the same trials: the resolvent map must keep every pair
    ordered, and plain Euler must break the order somewhere.  The Euler
    check's ``witness`` is the trial, slack and eta of its first violation.
    """
    slacks, etas = monotone_slacks(_monotone_draws(dim, trials, seed),
                                   (monotone_update, euler_update))
    # 0.0 - worst: a run without negative slacks reports 0.0, not -0.0
    worst = float(slacks[0].min(initial=0.0))
    violated, euler_viol = (np.flatnonzero(row < -1e-10) for row in slacks)
    k = int(euler_viol[0]) if euler_viol.size else None
    witness = None if k is None else {"trial": k, "slack": float(slacks[1, k]), "eta": float(etas[k])}
    return [
        _check("order_preserved", 0.0 - worst, 1e-10, trials=trials, violations=violated.size),
        # the same trial distribution must expose Euler as non-monotone
        {
            "name": "euler_counterexample_found",
            "passed": euler_viol.size > 0,
            "residual": float(euler_viol.size),
            "tolerance": 1.0,
            "detail": {"violations": euler_viol.size, "trials": trials, "witness": witness},
        },
    ]


def suite_retraction(dim: int = 64, trials: int = 50, seed: int = 0) -> list[dict]:
    """Rank-1 fast retraction vs dense orthonormalization; tangency.

    The fast path is the training loop's own update, ``trainer._sgd_update``
    at batch-1 ``sgd-stiefel``, which runs the segment kernel.  Each trial
    compares one step: the dense ``W`` starts from a copy of the fast one,
    and both take the same sample.  Two trajectories compared step after
    step would measure how their rounding grows apart instead.
    """
    rng = rng_stream(seed, 33)
    spec = PowerLawSpectrum(r=min(8, dim), alpha=1.0)
    teacher = TeacherModel(d=dim, spectrum=spec)
    r_s = 4
    s_fast = StudentState(sample_stiefel(dim, r_s, rng_stream(seed, 34)))
    r1 = rng_stream(seed, 35)
    worst_diff = worst_ortho = worst_tan = 0.0
    for k in range(1, trials + 1):
        s_dense = StudentState(s_fast.w.copy())
        x, y = draw_samples(teacher, 1, r1)
        _sgd_update(s_fast, x, y.tolist(), 0.05, "sgd-stiefel", 1)
        if k % 1000 == 0:  # run_training's dense cleanup: the rank-1 steps' rounding compounds
            s_fast.w = inv_sqrt_gram(s_fast.w)
        g = stiefel_grad(s_dense, x, y)
        tan = np.abs(s_dense.w.T @ g + g.T @ s_dense.w).max()
        worst_tan = max(worst_tan, float(tan))
        s_dense.w = inv_sqrt_gram(s_dense.w - 0.05 * g)
        worst_diff = max(worst_diff, float(np.abs(s_fast.w - s_dense.w).max()))
        ortho = np.abs(s_fast.w.T @ s_fast.w - np.eye(r_s)).max()
        worst_ortho = max(worst_ortho, float(ortho))
    return [
        _check("rank1_equals_dense", worst_diff, 1e-10, steps=trials),
        _check("orthonormal_after_steps", worst_ortho, 1e-9),
        _check("tangency_residual", worst_tan, 1e-9),
    ]


def decomposition_residual(teacher: TeacherModel, pairs) -> float:
    """Worst gap between the total of :func:`risk_decomposition` and the
    direct normalized risk of ``W Omega``, over the ``(W, Omega)`` pairs that
    ``pairs`` yields in draw order."""
    worst = 0.0
    for w, om in pairs:
        total, _, _ = risk_decomposition(teacher, StudentState(w), om)
        direct = population_risk(teacher, StudentState(w @ om), normalized=True)
        worst = max(worst, abs(total - direct))
    return worst


def erm_gap(batch, iters: int) -> tuple[float, float, float]:
    """Generalized-Pythagoras bound on the ERM oracle: ``(lhs, rhs, gap)`` with
    ``lhs = ||S* - S_hat||`` between :func:`erm_minimize` after ``iters``
    iterations and the projected estimate ``S_hat``, the operator gap ``gap``
    of :func:`l_operator_gap`, and ``rhs = 2 gap / (1 - gap) ||S_hat||``; the
    bound holds when ``lhs <= rhs``."""
    s_star = erm_minimize(batch, iters)
    s_hat = psd_project(s_glob_estimate(batch))
    gap = l_operator_gap(batch)
    lhs = float(np.linalg.norm(s_star - s_hat))
    rhs = 2.0 * gap / max(1.0 - gap, 1e-9) * float(np.linalg.norm(s_hat))
    return lhs, rhs, gap


def suite_finetune(dim: int = 64, trials: int = 10, seed: int = 0) -> list[dict]:
    """Risk decomposition identity, operator self-adjointness, ERM gap."""
    rng = rng_stream(seed, 36)
    spec = PowerLawSpectrum(r=min(8, dim), alpha=1.0)
    teacher = TeacherModel(d=dim, spectrum=spec)
    r_s = 3
    pairs = ((sample_stiefel(dim, r_s, rng), rng.standard_normal((r_s, r_s)))
             for _ in range(trials))
    checks = [_check("risk_decomposition_identity", decomposition_residual(teacher, pairs), 1e-10,
                     trials=trials)]

    w = sample_stiefel(dim, r_s, rng)
    student = StudentState(w)
    batch = collect_batch(teacher, student, 3000, rng)
    worst_sa = 0.0
    for _ in range(5):
        a = rng.standard_normal((r_s, r_s))
        a = 0.5 * (a + a.T)
        b = rng.standard_normal((r_s, r_s))
        b = 0.5 * (b + b.T)
        lhs = float(np.sum(b * l_operator_apply(batch, a)))
        rhs = float(np.sum(a * l_operator_apply(batch, b)))
        worst_sa = max(worst_sa, abs(lhs - rhs))
    checks.append(_check("operator_self_adjoint", worst_sa, 1e-10))

    lhs, rhs, gap = erm_gap(batch, 600)
    checks.append(
        _check("erm_pythagoras_bound", max(lhs - rhs, 0.0), 1e-12, lhs=lhs, rhs=rhs, gap=gap)
    )
    return checks


def bounding_slacks(
    g0: np.ndarray, spectrum: PowerLawSpectrum, cfg: BoundingConfig, steps: int, at
) -> tuple[float, float, bool]:
    """``(worst_order, worst_sandwich, floor_ok)`` over the steps in ``at`` of
    :func:`bounding_run`: the smallest eigenvalue of ``upper - lower``, the
    smallest margin of ``lower + T <= g <= upper - T``, and whether the
    reference ``T`` stayed at or above its floor ``kappa_d r_s / d``."""
    floor = default_kappa_d(cfg.d, spectrum.r, spectrum.alpha) * cfg.r_s / cfg.d
    worst_order = worst_sand = lowest_ref = np.inf
    for _, t_ref, lower, upper, g in bounding_run(g0, spectrum, cfg, steps, at):
        t = np.diag(t_ref)
        order, *sand = np.linalg.eigvalsh(np.stack([upper - lower, g - lower - t, upper - t - g]))[:, 0]
        worst_order, worst_sand = min(worst_order, order), min(worst_sand, *sand)
        lowest_ref = min(lowest_ref, t_ref.min())
    return float(worst_order), float(worst_sand), bool(lowest_ref >= floor - 1e-12)


def suite_bounds(dim: int = 8, steps: int = 10000, seed: int = 0) -> list[dict]:
    """Noise-free sandwich and reference-sequence floor over many steps, for
    the heavy-tailed teacher ``alpha = 0.25``."""
    d, r_s = 1000, 4
    spec = PowerLawSpectrum(r=dim, alpha=0.25)
    cfg = BoundingConfig(d=d, r_s=r_s, eta=1e-4)
    rng = rng_stream(seed, 37)
    z = rng.standard_normal((d, r_s)) / np.sqrt(d)
    g0 = z[:dim] @ z[:dim].T
    check_at = np.unique(np.geomspace(1, steps, 60).astype(int))
    worst_order, worst_sand, floor_ok = bounding_slacks(g0, spec, cfg, steps, check_at)
    return [
        _check("gram_order_lower_vs_upper", max(-worst_order, 0.0), 1e-8, steps=steps),
        _check("exact_iterate_sandwiched", max(-worst_sand, 0.0), 1e-8, steps=steps),
        {
            "name": "reference_floor",
            "passed": bool(floor_ok),
            "residual": 0.0 if floor_ok else 1.0,
            "tolerance": 0.0,
            "detail": {"floor": default_kappa_d(d, dim, spec.alpha) * r_s / d},
        },
    ]


# smallest --dim each suite can check: monotone draws sizes from 2..dim, and
# retraction and finetune need dim >= their student widths (4 and 3)
MIN_DIM = {"riccati": 1, "monotone": 2, "retraction": 4, "finetune": 3, "bounds": 1}
# largest size each suite accepts: every cap bounds the suite's arrays to a
# few hundred MB, and at every flag's cap a suite finishes in minutes on one
# core (about 3 minutes for retraction at 10,000 x 100,000, the slowest).
# bounds fixes d = 1000 and eta = 1e-4, and for a teacher rank above 54 its
# widened lower spectrum falls below the reference floor's quadratic term,
# so the floor no longer holds (from 56 it is not positive).  At 55 the
# lower bracket's last drift add / a turns negative (-7.8e-8), an elliptic
# mode of its companion power, which bounding_run handles like the others
MAX_DIM = {"riccati": 256, "monotone": 64, "retraction": 10_000, "finetune": 2_000, "bounds": 54}
MAX_TRIALS = 100_000
MAX_STEPS = 100_000

SUITES = {
    "riccati": suite_riccati,
    "monotone": suite_monotone,
    "retraction": suite_retraction,
    "finetune": suite_finetune,
    "bounds": suite_bounds,
}


def run_suite(name: str, **kwargs) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    checks = SUITES[name](**kwargs)
    return {
        "suite": name,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
