"""Online Stiefel SGD shadows the population flow at matching time eta * t.

A single pass of stochastic steps with the polar retraction stays close to
the deterministic Gram flow started from the same initialization -- the
discretization plus noise only smears the transitions slightly.  Desk-size
version of the tracking experiment (a minute or so).
"""

import numpy as np

from qns import FlowParams, PowerLawSpectrum, align_curves, effective_scales
from qns.linalg import rng_stream
from qns.model import StudentState
from qns.runs import RunConfig
from qns.trainer import run_training

d, r, r_s, alpha = 256, 4, 4, 1.0
spec = PowerLawSpectrum(r=r, alpha=alpha)
eta = 0.1 / d
sc = effective_scales(d, r_s, r, alpha)
steps = int(3.0 * sc.t_eff / eta)

cfg = RunConfig.from_dict(dict(kind="sgd-stiefel", d=d, r=r, r_s=r_s, alpha=alpha, eta=eta,
                               steps=steps, batch=1, record_every=max(steps // 12, 1),
                               tracked_j=[1, 2, 4]))
print(f"running {steps} one-sample steps at eta = 0.1/d ...")
res = run_training(cfg, 4)

w0 = StudentState.stiefel_init(d, r_s, rng_stream(4, 1)).w
params = FlowParams.from_spectrum(spec, d, r_s)
ts = res.steps * eta
gf = align_curves(w0[:r] @ w0[:r].T, ts, params)[:, [0, 1, 3]]

print(f"{'step':>8} {'eta*t':>7}   SGD (j=1,2,4)          flow (j=1,2,4)")
for step, t, sgd, flow in zip(res.steps, ts, res.alignments, gf):
    print(f"{step:8d} {t:7.2f}   {np.round(sgd, 3)}   {np.round(flow, 3)}")
gap = np.abs(res.alignments - gf).max()
print(f"\nlargest pointwise gap: {gap:.3f}")
