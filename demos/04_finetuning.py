"""Two-phase training: subspace first, radial component by least squares.

The Stiefel phase can only recover the span of the teacher directions (the
constraint fixes all singular values at 1).  The remaining r_s x r_s factor
is fit in closed form from a fresh batch: project the label-weighted
covariate average onto the PSD cone and take its matrix square root.
"""

import numpy as np

from qns import PowerLawSpectrum, TeacherModel, opt_risk, population_risk
from qns.finetune import default_n_ft, finetune, risk_decomposition
from qns.linalg import rng_stream
from qns.model import StudentState
from qns.runs import RunConfig
from qns.trainer import run_training

d, r, r_s, alpha = 128, 8, 4, 1.0
spec = PowerLawSpectrum(r=r, alpha=alpha)
teacher = TeacherModel(d=d, spectrum=spec)

eta = 0.1 / d
steps = 120_000
print(f"feature learning: {steps} Stiefel steps ...")
cfg = RunConfig.from_dict(dict(kind="sgd-stiefel", d=d, r=r, r_s=r_s, alpha=alpha, eta=eta,
                               steps=steps, batch=1, record_every=steps, tracked_j=[1, 2, 4]))
res = run_training(cfg, 1)
student = res.student
print(f"  final alignments (j=1,2,4): {np.round(res.alignments[-1], 3)}")
print(f"  risk before fine-tuning:    {population_risk(teacher, student, normalized=True):.4f}")
print("  (the Stiefel student cannot express the lambda_j amplitudes)")

n_ft = default_n_ft(d, r_s)
ft = finetune(teacher, student, n_ft=n_ft, rng=rng_stream(1, 9))
final = StudentState(student.w @ ft.omega_hat)
risk = population_risk(teacher, final, normalized=True)
_, fit_term, subspace_term = risk_decomposition(teacher, student, ft.omega_hat)
print(f"\nfine-tuning on {n_ft} fresh samples:")
print(f"  ||L - Id|| estimate:   {ft.op_gap:.4f}")
print(f"  risk(W Omega_hat):     {risk:.4f}")
print(f"    amplitude-fit term:  {fit_term:.4f}")
print(f"    subspace-miss term:  {subspace_term:.4f}")
print(f"  best possible at r_s={r_s}: {opt_risk(spec, r_s):.4f}")
