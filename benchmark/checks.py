"""Correctness checks the benchmark applies to the program's outputs.

Every check is a pure function of arrays or parsed JSON and returns a list
of failure messages; an empty list means the check passed.  The references
the checks compare against are properties of the method (monotone risk along
a gradient flow, the SGD/flow shadowing, the staircase timing, the heavy-tail
plateau) or computations the benchmark makes itself (least-squares slopes,
matrix powers); none is a stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np


def read_csv(path: str) -> dict[str, np.ndarray]:
    """Parse a trajectory CSV into named columns, without the program's reader."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: rows[:, k] for k, name in enumerate(header)}


def align_columns(cols: dict[str, np.ndarray]) -> tuple[list[int], np.ndarray]:
    """The tracked directions and their alignment columns, in header order."""
    js = [int(name.split("_", 1)[1]) for name in cols if name.startswith("align_")]
    if not js:
        return [], np.empty((len(cols["step"]), 0))
    return js, np.column_stack([cols[f"align_{j}"] for j in js])


def unit_interval(label: str, values: np.ndarray, slack: float = 1e-12) -> list[str]:
    """Alignments are squared projections, so they lie in [0, 1]."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    lo, hi = float(values.min()), float(values.max())
    if not np.all(np.isfinite(values)) or lo < -slack or hi > 1.0 + slack:
        return [f"{label}: alignments outside [0, 1] (min {lo:.3e}, max {hi:.3e})"]
    return []


def shadows_flow(
    label: str,
    taus: np.ndarray,
    measured: np.ndarray,
    reference: np.ndarray,
    transitions: list[float],
    tol: float = 0.05,
    delta: float = 0.1,
) -> list[str]:
    """Each alignment column stays within ``tol`` of its flow reference.

    Column k is compared only where the rescaled time is at least ``delta``
    away from its own transition ``transitions[k]``: the limit statement
    excludes the jumps.
    """
    taus = np.asarray(taus, dtype=float)
    measured = np.asarray(measured, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if measured.shape != reference.shape or measured.shape[0] != taus.size:
        return [f"{label}: shape mismatch {measured.shape} vs {reference.shape}"]
    failures = []
    for k, tau_k in enumerate(transitions):
        mask = np.abs(taus - tau_k) >= delta
        if not np.any(mask):
            continue
        gap = np.abs(measured[mask, k] - reference[mask, k])
        worst = int(np.argmax(gap))
        if not gap[worst] <= tol:
            failures.append(
                f"{label}: column {k} departs from the flow by {gap[worst]:.4f} > {tol} "
                f"at tau={taus[mask][worst]:.4f}"
            )
    return failures


def nonincreasing(label: str, risk: np.ndarray, slack: float = 1e-12) -> list[str]:
    """Risk along a gradient flow (or a small-step descent) never rises."""
    risk = np.asarray(risk, dtype=float)
    if not np.all(np.isfinite(risk)):
        return [f"{label}: non-finite risk"]
    rise = np.diff(risk)
    k = int(np.argmax(rise)) if rise.size else 0
    if rise.size and rise[k] > slack * max(1.0, abs(float(risk[k]))):
        return [f"{label}: risk rises by {rise[k]:.3e} between records {k} and {k + 1}"]
    return []


def close(label: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    """Largest absolute difference within ``tol``."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape mismatch {got.shape} vs {want.shape}"]
    gap = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not gap <= tol:
        return [f"{label}: largest difference {gap:.3e} > {tol:g}"]
    return []


def rel_close(label: str, got: np.ndarray, want: np.ndarray, tol: float) -> list[str]:
    """Largest relative difference within ``tol``."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    rel = np.abs(got - want) / np.maximum(np.abs(want), np.finfo(float).tiny)
    worst = float(rel.max()) if rel.size else 0.0
    if not worst <= tol:
        return [f"{label}: largest relative difference {worst:.3e} > {tol:g}"]
    return []


def fit_matches_lstsq(
    label: str,
    compute: np.ndarray,
    risk: np.ndarray,
    exponent: float,
    window: tuple[float, float],
    n_points: int,
    rel_tol: float = 5e-11,
) -> list[str]:
    """A reported fit exponent equals an ordinary least-squares slope.

    The fitted points are located from the window's lower end by the
    nearest log-compute, and from ``n_points``; the endpoints as printed
    may round past the true data points, so they are never compared with
    ``<=``.  ``rel_tol`` is below one unit in the 10th significant digit.
    """
    compute = np.asarray(compute, dtype=float)
    risk = np.asarray(risk, dtype=float)
    keep = (compute > 0) & (risk > 0)
    order = np.argsort(compute[keep], kind="stable")
    lx = np.log(compute[keep][order])
    ly = np.log(risk[keep][order])
    lo, hi = np.log(window[0]), np.log(window[1])
    i = int(np.argmin(np.abs(lx - lo)))
    j = i + int(n_points) - 1
    if n_points < 2 or j >= lx.size:
        return [f"{label}: {n_points} points from index {i} overrun the {lx.size} records"]
    if abs(lx[i] - lo) > 1e-9 or abs(lx[j] - hi) > 1e-9:
        return [f"{label}: window {window} does not bracket {n_points} recorded points"]
    slope = float(np.polyfit(lx[i : j + 1], ly[i : j + 1], 1)[0])
    if not abs(exponent - slope) <= rel_tol * max(abs(slope), 1e-300):
        return [f"{label}: exponent {exponent!r} differs from least squares {slope!r}"]
    return []


def crossing_time(taus: np.ndarray, curve: np.ndarray, level: float = 0.5) -> float | None:
    """First time a curve reaches ``level``, linearly interpolated; None if never."""
    above = np.nonzero(np.asarray(curve) >= level)[0]
    if above.size == 0:
        return None
    k = int(above[0])
    if k == 0:
        return float(taus[0])
    t0, t1, y0, y1 = taus[k - 1], taus[k], curve[k - 1], curve[k]
    return float(t0 + (level - y0) * (t1 - t0) / (y1 - y0))


def staircase(
    label: str,
    taus: np.ndarray,
    aligns: np.ndarray,
    js: list[int],
    predicted: dict[int, float],
    rel_tol: float = 0.2,
) -> list[str]:
    """Direction j crosses alignment 1/2 within ``rel_tol`` of ``predicted[j]``."""
    failures = []
    for k, j in enumerate(js):
        if j not in predicted:
            continue
        got = crossing_time(np.asarray(taus), np.asarray(aligns)[:, k])
        want = predicted[j]
        if got is None or not abs(got - want) <= rel_tol * want:
            failures.append(f"{label}: direction {j} crosses at {got} vs predicted {want:.4g}")
    return failures


def plateau(
    label: str, taus: np.ndarray, risk: np.ndarray, tau_from: float, target: float, tol: float
) -> list[str]:
    """Every risk from rescaled time ``tau_from`` on lies within ``tol`` of ``target``."""
    late = np.asarray(taus) >= tau_from
    if not np.any(late):
        return [f"{label}: no record at rescaled time >= {tau_from}"]
    gap = float(np.max(np.abs(np.asarray(risk)[late] - target)))
    if not gap <= tol:
        return [f"{label}: late risk is {gap:.4f} from the plateau {target:.4f} > {tol}"]
    return []


def verify_report(label: str, report: dict) -> list[str]:
    """A ``qns verify`` report passed, and so did every check in it."""
    checks = report.get("checks") or []
    failed = [c.get("name", "?") for c in checks if c.get("passed") is not True]
    if report.get("passed") is not True or failed or not checks:
        return [f"{label}: verify report not passed (failed checks: {failed})"]
    return []
