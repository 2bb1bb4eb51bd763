"""Closed-form Gram flow vs numerical integration, and what monotonicity means.

The alignment Gram G(t) solves a matrix Riccati ODE with an explicit
solution.  Three things are worth seeing side by side:

 1. the closed form agrees with an RK4 integration to near machine precision,
 2. a larger initialization yields a trajectory that dominates a smaller one
    in the Loewner order at every time (monotonicity in the initial value),
 3. the same trajectory need NOT be monotone in time: an entry of G can rise
    and fall, and G(t2) - G(t1) can be indefinite.
"""

import numpy as np

from qns import FlowParams, align_curves, closed_form_align_gram, gram_rhs_align, integrate_rk4
from qns.linalg import inv_sqrt_gram, loewner_slack, rng_stream, sample_gaussian_mat

rng = rng_stream(0, 0)

# --- 1. closed form vs RK4 oracle ------------------------------------------
lam = np.array([1.0, 0.6, 0.35, 0.2])
params = FlowParams(lambdas=lam, d=64, r_s=3)
f = rng.standard_normal((4, 3)) * 0.2
g0 = f @ f.T
ts = np.array([2.0, 4.0, 6.0, 8.0])
worst = max(
    np.abs(closed_form_align_gram(g0, float(t), params) - gm).max()
    for t, gm in zip(ts, integrate_rk4(lambda g: gram_rhs_align(g, params), g0, ts, 1e-3))
)
print(f"closed form vs RK4 (dt=1e-3), max abs deviation: {worst:.2e}")

# --- 2. monotone in the initialization -------------------------------------
g_big = 1.25 * g0
# G0 has rank 3 < 4, so the difference keeps a null direction: its smallest
# eigenvalue is 0, printed as +-1e-17 rounding
print("\nLoewner slack of G(t; 1.25 G0) - G(t; G0):")
for t in (0.5, 2.0, 8.0, 30.0):
    slack = loewner_slack(
        closed_form_align_gram(g_big, t, params), closed_form_align_gram(g0, t, params)
    )
    print(f"  t={t:5.1f}: min eigenvalue {slack:+.3e}   (>= 0 up to rounding means ordered)")

# --- 3. but not monotone in time --------------------------------------------
d = 1024
p2 = FlowParams(lambdas=np.array([2.0, 1.0]), d=d, r_s=2)
z = sample_gaussian_mat(d, 2, 1.0 / d, rng_stream(6, 1))
f0 = inv_sqrt_gram(z)[:2]
ts = np.linspace(0.0, 40.0, 400)
g22 = align_curves(f0 @ f0.T, ts, p2)[:, 1]
k = int(np.argmax(g22[: len(g22) // 2]))
print("\nsecond diagonal entry along the flow (watch it overshoot and dip):")
for i in range(0, 400, 50):
    print(f"  t={ts[i]:5.1f}: G22 = {g22[i]:.4f}")
print(f"interior local maximum near t={ts[k]:.1f} with G22={g22[k]:.4f}")
