"""Each benchmark check passes on an analytic case and fails on a corrupted one.

    python3 -m pytest benchmark/test_checks.py -q
"""

import copy
import os
import sys

import numpy as np

import checks

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

TAUS = np.linspace(0.0, 3.0, 301)
TRANSITIONS = [1.0, 2.0]


def logistic_alignments(taus, transitions, width=0.02):
    return np.column_stack([1.0 / (1.0 + np.exp(-(taus - c) / width)) for c in transitions])


def test_shadows_flow_passes_within_noise():
    flow = logistic_alignments(TAUS, TRANSITIONS)
    sgd = np.clip(flow + 0.01 * np.sin(37.0 * TAUS)[:, None], 0.0, 1.0)
    assert checks.shadows_flow("sgd", TAUS, sgd, flow, TRANSITIONS) == []
    assert checks.unit_interval("sgd", sgd) == []


def test_shadows_flow_fails_on_perturbed_column():
    flow = logistic_alignments(TAUS, TRANSITIONS)
    sgd = flow.copy()
    sgd[TAUS > 2.5, 0] -= 0.1
    assert checks.shadows_flow("sgd", TAUS, sgd, flow, TRANSITIONS)


def test_shadows_flow_ignores_gap_inside_transition_zone():
    flow = logistic_alignments(TAUS, TRANSITIONS)
    sgd = logistic_alignments(TAUS, [1.03, 2.0])
    assert checks.shadows_flow("sgd", TAUS, sgd, flow, TRANSITIONS) == []


def test_unit_interval_fails_above_one():
    aligns = logistic_alignments(TAUS, TRANSITIONS)
    aligns[-1, 1] = 1.001
    assert checks.unit_interval("sgd", aligns)


def test_risk_checks_pass_on_euler_of_exponential_decay():
    h = 0.01
    flow = np.exp(-h * np.arange(400))
    euler = (1.0 - h) ** np.arange(400)
    assert checks.nonincreasing("gd", euler) == []
    assert checks.close("gd vs flow", euler, flow, 1e-2) == []


def test_nonincreasing_fails_on_raised_risk():
    risk = np.exp(-TAUS)
    risk[150] += 1e-2
    assert checks.nonincreasing("gd", risk)


def test_close_fails_beyond_tolerance():
    risk = np.exp(-TAUS)
    assert checks.close("rk4", risk + 2e-6, risk, 1e-6)


def power_law_points(exponent=-1.0552734315):
    x = np.geomspace(1e3, 1e9, 60)
    return x, 2.0 * x**exponent, exponent


def test_fit_matches_lstsq_on_exact_power_law():
    x, y, e = power_law_points()
    # a window endpoint printed as exp(log x) may round past the point
    window = (float(np.exp(np.log(x[10]))) * (1 + 1e-15), float(x[40]) * (1 - 1e-15))
    assert checks.fit_matches_lstsq("fit", x, y, e, window, 31) == []


def test_fit_fails_on_exponent_altered_in_tenth_digit():
    x, y, e = power_law_points()
    assert e == -1.0552734315
    assert checks.fit_matches_lstsq("fit", x, y, -1.0552734325, (x[10], x[40]), 31)
    assert checks.fit_matches_lstsq("fit", x, y, e, (x[10], x[40]), 30)


def test_fit_matches_the_programs_auto_window():
    from qns.analysis import fit_power_law

    x = np.geomspace(1e3, 1e11, 120)
    y = 3.0 * x**-1.1 * (1.0 + 0.05 * np.sin(np.log(x)))
    fit = fit_power_law(x, y)
    assert checks.fit_matches_lstsq("fit", x, y, fit.exponent, fit.window, fit.n_points) == []


def test_staircase_and_plateau():
    lam = 1.0 / np.arange(1, 3)
    aligns = logistic_alignments(TAUS, [1.0 / lam[0], 1.0 / lam[1]])
    predicted = {1: 1.0, 2: 2.0}
    assert checks.staircase("stair", TAUS, aligns, [1, 2], predicted) == []
    late = logistic_alignments(TAUS, [1.0, 2.6])
    assert checks.staircase("stair", TAUS, late, [1, 2], predicted)
    risk = 0.3 + 0.7 * np.exp(-3.0 * TAUS)
    assert checks.plateau("heavy", TAUS, risk, 2.0, 0.3, 0.05) == []
    assert checks.plateau("heavy", TAUS, risk, 2.0, 0.2, 0.05)


def test_rel_close():
    want = np.array([1.0, 2.0e10, 3.0e-5])
    assert checks.rel_close("power", want * (1 + 1e-14), want, 1e-12) == []
    assert checks.rel_close("power", want * (1 + 1e-11), want, 1e-12)


REPORT = {
    "suite": "riccati",
    "passed": True,
    "checks": [
        {"name": "block_identity_sum", "passed": True, "residual": 1e-15, "tolerance": 1e-12},
        {"name": "closed_form_vs_iteration", "passed": True, "residual": 1e-13, "tolerance": 1e-10},
    ],
}


def test_verify_report_passes():
    assert checks.verify_report("riccati", REPORT) == []


def test_verify_report_fails_with_one_check_failed():
    bad = copy.deepcopy(REPORT)
    bad["checks"][1]["passed"] = False
    assert checks.verify_report("riccati", bad)
    bad["passed"] = False
    assert checks.verify_report("riccati", bad)
