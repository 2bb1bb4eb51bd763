"""Trajectory post-processing: exponent fits and transition times.

``fit_power_law(xs, ys, window=None)`` is ordinary least squares on
(log x, log y); without a window, the automatic search replaces eyeballing
the linear range with a fixed, reproducible rule: from each starting point
take the shortest contiguous window spanning at least one decade of the x
axis with at least eight points, and of those windows keep the one
maximizing r^2.  ``extract_transitions(times_rescaled, alignments, js,
lambdas, kappa_eff)`` locates the 0.5-crossings of alignment curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FitResult",
    "Transition",
    "fit_power_law",
    "extract_transitions",
]


@dataclass(frozen=True)
class FitResult:
    exponent: float
    intercept: float     # log-space intercept: log y = intercept + exponent log x
    r2: float
    window: tuple[float, float]
    n_points: int


@dataclass(frozen=True)
class Transition:
    j: int
    predicted: float        # 1 / (lambda_j kappa_eff) in rescaled time
    measured: float | None  # None when censored (no crossing in horizon)
    relative_error: float | None

    @property
    def censored(self) -> bool:
        return self.measured is None


def _ols_loglog(lx: np.ndarray, ly: np.ndarray) -> tuple[float, float, float]:
    n = len(lx)
    mx, my = lx.mean(), ly.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    sxy = float(np.sum((lx - mx) * (ly - my)))
    syy = float(np.sum((ly - my) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate window: all x identical")
    slope = sxy / sxx
    intercept = my - slope * mx
    if syy == 0.0:
        return slope, intercept, 1.0
    resid = ly - (intercept + slope * lx)
    r2 = 1.0 - float(np.sum(resid**2)) / syy
    return slope, intercept, r2


# the automatic window spans at least one decade of x with at least this
# many points
_MIN_POINTS = 8


def fit_power_law(
    xs: np.ndarray, ys: np.ndarray, window: tuple[float, float] | None = None
) -> FitResult:
    """Least-squares power-law fit ``y ~ x^e`` on log-log axes.

    With an explicit ``window = (lo, hi)`` only points with lo <= x <= hi are
    used (at least 5 required).  Otherwise, for each starting point only the
    shortest contiguous window spanning one decade of x with at least eight
    points is scored, and the highest r^2 among those wins
    (ties: wider, then earlier).  The reported window is the first and last
    x of the chosen points, so refitting with it selects the same points.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-D arrays of equal length")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit needs strictly positive xs and ys")
    order = np.argsort(xs)
    xs_sorted = xs[order]
    lx, ly = np.log(xs_sorted), np.log(ys[order])
    if window is not None:
        lo, hi = float(window[0]), float(window[1])
        mask = (xs_sorted >= lo) & (xs_sorted <= hi)
        if int(mask.sum()) < 5:
            raise ValueError(f"window [{lo:g}, {hi:g}] holds {int(mask.sum())} points; need >= 5")
        slope, intercept, r2 = _ols_loglog(lx[mask], ly[mask])
        return FitResult(slope, intercept, r2, (lo, hi), int(mask.sum()))

    n = len(lx)
    span = np.log(10.0)
    best = None
    # prefix sums make each candidate window O(1)
    c1 = np.concatenate([[0.0], np.cumsum(lx)])
    c2 = np.concatenate([[0.0], np.cumsum(ly)])
    cxx = np.concatenate([[0.0], np.cumsum(lx * lx)])
    cxy = np.concatenate([[0.0], np.cumsum(lx * ly)])
    cyy = np.concatenate([[0.0], np.cumsum(ly * ly)])
    for i in range(n):
        for j in range(i + _MIN_POINTS - 1, n):
            if lx[j] - lx[i] < span:
                continue
            m = j - i + 1
            sx = c1[j + 1] - c1[i]
            sy = c2[j + 1] - c2[i]
            sxx = cxx[j + 1] - cxx[i] - sx * sx / m
            sxy = cxy[j + 1] - cxy[i] - sx * sy / m
            syy = cyy[j + 1] - cyy[i] - sy * sy / m
            if sxx <= 0:
                continue
            slope = sxy / sxx
            r2 = 1.0 if syy <= 1e-300 else 1.0 - max(syy - sxy * sxy / sxx, 0.0) / syy
            key = (round(r2, 12), lx[j] - lx[i], -lx[i])
            if best is None or key > best[0]:
                best = (key, i, j, slope, sy / m - slope * sx / m, r2)
            break  # windows starting at i: the shortest admissible is scored
    if best is None:
        raise ValueError(f"no window with {_MIN_POINTS} points spanning one decade")
    _, i, j, slope, intercept, r2 = best
    return FitResult(
        exponent=slope,
        intercept=intercept,
        r2=r2,
        window=(float(xs_sorted[i]), float(xs_sorted[j])),
        n_points=j - i + 1,
    )


def extract_transitions(
    times_rescaled: np.ndarray,
    alignments: np.ndarray,
    js: list[int],
    lambdas: np.ndarray,
    kappa_eff: float,
) -> list[Transition]:
    """Locate the 0.5-crossings of recorded alignment curves, one
    :class:`Transition` per direction of ``js``.

    ``times_rescaled`` is the trajectory clock divided by kappa_eff * T_eff,
    so the predicted crossing of direction j sits at ``1/(lambda_j kappa_eff)``.
    Crossings are linearly interpolated; directions that never reach 0.5
    inside the horizon are reported censored, never extrapolated.
    """
    t = np.asarray(times_rescaled, dtype=float)
    a = np.asarray(alignments, dtype=float)
    if a.shape != (len(t), len(js)):
        raise ValueError(f"alignments must be {(len(t), len(js))}, got {a.shape}")
    out = []
    for col, j in enumerate(js):
        lam_j = float(lambdas[j - 1])
        pred = 1.0 / (lam_j * kappa_eff)
        series = a[:, col]
        above = np.nonzero(series >= 0.5)[0]
        if len(above) == 0 or above[0] == 0:
            measured = t[0] if len(above) and above[0] == 0 else None
        else:
            k = above[0]
            t0, t1 = t[k - 1], t[k]
            y0, y1 = series[k - 1], series[k]
            measured = t0 + (0.5 - y0) * (t1 - t0) / (y1 - y0)
        rel = None if measured is None else (measured - pred) / pred
        out.append(Transition(j=j, predicted=pred, measured=measured, relative_error=rel))
    return out

