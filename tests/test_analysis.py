import numpy as np
import pytest

from qns.analysis import extract_transitions, fit_power_law
from qns.flow import effective_scales
from qns.model import PowerLawSpectrum


class TestFitPowerLaw:
    def test_exact_power_law(self):
        x = np.geomspace(1.0, 1e4, 60)
        fit = fit_power_law(x, 3.0 * x**-1.5)
        assert fit.exponent == pytest.approx(-1.5, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0)
        assert np.exp(fit.intercept) == pytest.approx(3.0, rel=1e-10)

    def test_constant_series(self):
        x = np.geomspace(1.0, 1e3, 30)
        fit = fit_power_law(x, np.full(30, 7.0))
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0)

    def test_scale_equivariance(self):
        x = np.geomspace(2.0, 5e3, 40)
        y = 0.8 * x**-1.1 * np.exp(0.01 * np.sin(np.arange(40)))
        f1 = fit_power_law(x, y)
        f2 = fit_power_law(1e6 * x, y)
        assert f1.exponent == pytest.approx(f2.exponent, abs=1e-12)

    def test_explicit_window(self):
        x = np.geomspace(1.0, 1e4, 80)
        y = np.where(x < 100, 1.0, x**-1.0 * 100)
        fit = fit_power_law(x, y, window=(200.0, 1e4))
        assert fit.exponent == pytest.approx(-1.0, abs=1e-6)

    def test_auto_window_finds_linear_range(self):
        # plateau followed by a clean power law: the window must land on the
        # decaying segment
        x = np.geomspace(1.0, 1e5, 120)
        rng = np.random.default_rng(0)
        y = np.where(x < 50, 1.0 + 0.01 * rng.standard_normal(120), (x / 50.0) ** -2.0)
        y = np.abs(y)
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(-2.0, rel=0.05)

    def test_reported_window_refits_same_points(self):
        # the reported auto window must select exactly the fitted points again
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(20, 80))
            x = np.geomspace(rng.uniform(0.1, 10.0), 10.0 ** rng.uniform(2.0, 6.0), n)
            y = 2.0 * x ** rng.uniform(-2.0, -0.2) * np.exp(0.05 * rng.standard_normal(n))
            auto = fit_power_law(x, y)
            refit = fit_power_law(x, y, window=auto.window)
            assert refit.n_points == auto.n_points
            assert refit.exponent == pytest.approx(auto.exponent, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            fit_power_law(np.array([1.0, 2.0, 0.0, 3, 4, 5, 6, 7]), np.ones(8))

    def test_window_too_small(self):
        with pytest.raises(ValueError, match="points"):
            fit_power_law(np.geomspace(1, 100, 20), np.ones(20), window=(1e6, 1e7))


def step_curves(taus, js, scales, spectrum):
    """Limit alignments: direction j steps from 0 to 1 at tau kappa_eff = 1/lambda_j."""
    lam = spectrum.lambdas[np.asarray(js) - 1]
    return (taus[:, None] * scales.kappa_eff >= 1.0 / lam).astype(float)


class TestExtractTransitions:
    def test_theory_curves_zero_error(self):
        spec = PowerLawSpectrum(r=4, alpha=1.0)
        sc = effective_scales(100_000, 4, 4, 1.0)
        taus = np.linspace(0.01, 8.0, 4000)
        js = [1, 2, 3, 4]
        curves = step_curves(taus, js, sc, spec)
        transitions = extract_transitions(taus, curves, js, spec.lambdas, sc.kappa_eff)
        for tr in transitions:
            assert tr.measured is not None
            assert abs(tr.relative_error) <= 2e-3  # grid resolution only

    def test_predicted_time_is_inverse_lambda(self):
        spec = PowerLawSpectrum(r=4, alpha=1.0)
        taus = np.linspace(0.0, 5.0, 10)
        curves = np.zeros((10, 1))
        transitions = extract_transitions(taus, curves, [2], spec.lambdas, 1.0)
        assert transitions[0].predicted == pytest.approx(2.0)

    def test_censored_reported_not_extrapolated(self):
        spec = PowerLawSpectrum(r=2, alpha=1.0)
        taus = np.linspace(0.0, 1.0, 20)
        curves = np.column_stack([np.linspace(0, 0.4, 20)])  # never crosses 0.5
        transitions = extract_transitions(taus, curves, [1], spec.lambdas, 1.0)
        assert transitions[0].censored
        assert transitions[0].measured is None

    def test_ordering_matches_spectrum(self):
        spec = PowerLawSpectrum(r=3, alpha=0.8)
        sc = effective_scales(10_000, 3, 3, 0.8)
        taus = np.linspace(0.01, 6.0, 2000)
        js = [1, 2, 3]
        curves = step_curves(taus, js, sc, spec)
        transitions = extract_transitions(taus, curves, js, spec.lambdas, sc.kappa_eff)
        times = [t.measured for t in transitions if t.measured is not None]
        assert times == sorted(times)

    def test_linear_interpolation(self):
        taus = np.array([0.0, 1.0, 2.0])
        curves = np.array([[0.0], [0.25], [0.75]])
        transitions = extract_transitions(taus, curves, [1], np.array([1.0]), 1.0)
        assert transitions[0].measured == pytest.approx(1.5)


class TestCompareToLimit:
    def test_heavy_tail_gap_shrinks_with_dimension(self):
        # smoothed flow vs the heavy-tail limit at alpha = 0.25: the sup gap
        # decreases monotonically through d in {500, 1000, 2000}
        from qns.flow import FlowParams, effective_scales, theory_limit_risk, weight_risk_curve
        from qns.linalg import rng_stream, sample_gaussian_mat

        alpha, phi = 0.25, 0.5
        taus = np.linspace(0.15, 3.0, 80)
        lim = np.array([theory_limit_risk(t, alpha, phi) for t in taus])
        gaps = []
        for d in (500, 1000, 2000):
            r = d // 10
            r_s = r // 2
            spec = PowerLawSpectrum(r=r, alpha=alpha)
            sc = effective_scales(d, r_s, r, alpha)
            params = FlowParams.from_spectrum(spec, d, r_s)
            w0 = sample_gaussian_mat(d, r_s, 1.0 / d, rng_stream(1, 1))
            risk = weight_risk_curve(w0, taus * sc.kappa_eff * sc.t_eff, params)
            gaps.append(np.abs(risk - lim).max())  # both curves on the taus grid
        assert gaps[0] > gaps[1] > gaps[2]
