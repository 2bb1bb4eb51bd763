"""Opt-in long reproductions (pytest -m slow)."""

import numpy as np
import pytest

from qns.analysis import fit_power_law
from qns.runs import RunConfig
from qns.trainer import run_training


@pytest.mark.slow
def test_euclidean_sgd_batch_d_power_law():
    """Reduced version of the batch-d Euclidean SGD risk curve.

    Original recipe: d=3200, r=2400, alpha=1, batch=d Euclidean SGD; here at
    d=800, r=600 the power-law segment is already visible and the fitted
    exponent lands in [-1.3, -0.7].
    """
    d, r, r_s, alpha = 800, 600, 32, 1.0
    eta = float(0.5 / np.sqrt(r))
    from qns.flow import effective_scales

    sc = effective_scales(d, r_s, r, alpha)
    steps = int(sc.t_eff * 24 * 1.2 / eta)
    cfg = RunConfig.from_dict({
        "kind": "sgd-euclidean", "d": d, "r": r, "r_s": r_s, "alpha": alpha, "eta": eta,
        "steps": steps, "batch": d, "record_every": "log", "record_points": 200,
        "tracked_j": [],
    })
    res = run_training(cfg, 1)
    comp = res.steps[1:] * float(d * d * r_s)  # samples seen times d r_s
    fit = fit_power_law(comp, res.risk_normalized[1:])
    print(f"euclidean batch-d SGD exponent: {fit.exponent:.3f} (r2={fit.r2:.4f})")
    assert -1.3 <= fit.exponent <= -0.7
