import numpy as np
import pytest
from conftest import rand_psd
from hypothesis import given, settings
from hypothesis import strategies as st

from qns.linalg import loewner_slack, rng_stream
from qns.model import PowerLawSpectrum
from qns.riccati import (
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
from qns.verify import (
    block_identity_residuals,
    bounding_slacks,
    closed_form_residual,
    power_residual,
)


class TestMonotoneUpdate:
    def test_half_identity_center(self):
        # 2G - I = 0 kills the middle term; only the (eta/2) L drift remains
        lam = np.array([1.0, 0.4])
        out = monotone_update(0.5 * np.eye(2), lam, 0.2)
        np.testing.assert_allclose(out, 0.5 * np.eye(2) + 0.1 * np.diag(lam), atol=1e-15)

    def test_scalar_hand_value(self):
        # g' = 1 - (0.1/2)*1/(1.1) + 0.05
        out = monotone_update(np.array([[1.0]]), [1.0], 0.1)
        assert out[0, 0] == pytest.approx(1.0 - 0.05 / 1.1 + 0.05, abs=1e-15)

    def test_eta_zero_identity(self, rng):
        g = rand_psd(rng, 3)
        np.testing.assert_allclose(monotone_update(g, [1.0, 0.5, 0.2], 0.0), g, atol=1e-15)

    def test_matches_euler_to_second_order(self, rng):
        lam = np.array([1.0, 0.6, 0.3])
        g = rand_psd(rng, 3, scale=0.5)
        errs = []
        for eta in (0.02, 0.01):
            errs.append(np.abs(monotone_update(g, lam, eta) - euler_update(g, lam, eta)).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_change_of_variables_consistency(self, rng):
        # V = 2 L^{1/2} G L^{1/2} - L conjugates the G map into the V map
        lam = np.sort(rng.uniform(0.3, 1.0, 4))[::-1]
        g0 = np.diag(rng.uniform(0.05, 0.95, 4))
        eta = 0.2
        sq = np.sqrt(lam)
        v0 = 2.0 * (sq[:, None] * g0 * sq[None, :]) - np.diag(lam)
        v1 = v_update(v0, lam, eta)
        g1v = (v1 + np.diag(lam)) / (2.0 * np.outer(sq, sq))
        np.testing.assert_allclose(monotone_update(g0, lam, eta), g1v, atol=1e-12)

    def test_fixed_points_preserved(self):
        lam = np.array([1.0, 0.5])
        eta = 0.1
        # G = I and G = 0 are fixed up to O(eta^2) (exact Riccati equilibria)
        drift_i = np.abs(monotone_update(np.eye(2), lam, eta) - np.eye(2)).max()
        drift_0 = np.abs(monotone_update(np.zeros((2, 2)), lam, eta)).max()
        assert drift_i <= eta**2 * lam.max() ** 2
        assert drift_0 <= eta**2 * lam.max() ** 2

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_order_preserved_property(self, trial):
        rng = rng_stream(trial, 77)
        n = int(rng.integers(2, 9))
        lam = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
        eta = rng.uniform(0.01, 0.45) / lam[0]
        g_minus = rand_psd(rng, n, scale=rng.uniform(0.3, 2.0))
        g_plus = g_minus + rand_psd(rng, n, scale=rng.uniform(0.1, 2.0))
        slack = loewner_slack(monotone_update(g_plus, lam, eta), monotone_update(g_minus, lam, eta))
        assert slack >= -1e-10


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


class TestStackedMaps:
    """A stack of G gives each matrix the floats of a 2-D call, to the bit."""

    def _stack(self, seed, m, n):
        rng = rng_stream(seed, 79)
        lam = np.sort(rng.uniform(0.1, 1.0, (m, n)), axis=1)[:, ::-1]
        eta = rng.uniform(0.05, 0.45, m) / lam[:, 0]
        g = np.stack([rand_psd(rng, n, scale=rng.uniform(0.5, 2.0)) for _ in range(m)])
        return g, lam, eta

    @pytest.mark.parametrize("update", [monotone_update, euler_update])
    @pytest.mark.parametrize("seed, m, n", [(0, 1, 2), (1, 7, 3), (2, 40, 8), (3, 5, 16)])
    def test_stack_equals_2d_calls(self, update, seed, m, n):
        g, lam, eta = self._stack(seed, m, n)
        stacked = update(g, lam, eta)
        assert stacked.shape == (m, n, n)
        for i in range(m):
            assert _bits(stacked[i]) == _bits(update(g[i], lam[i], eta[i]))

    @pytest.mark.parametrize("update", [monotone_update, euler_update])
    def test_scalar_eta_and_deeper_stacks(self, update):
        g, lam, eta = self._stack(4, 6, 4)
        flat = update(g, lam, 0.3)
        deep = update(g.reshape(2, 3, 4, 4), lam.reshape(2, 3, 4), eta.reshape(2, 3))
        for i in range(6):
            assert _bits(flat[i]) == _bits(update(g[i], lam[i], 0.3))
            assert _bits(deep.reshape(6, 4, 4)[i]) == _bits(update(g[i], lam[i], eta[i]))

    @pytest.mark.parametrize("update", [monotone_update, euler_update])
    def test_spectrum_size_mismatch(self, update):
        g, lam, eta = self._stack(6, 3, 4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            update(g, lam[:, :3], eta)
        with pytest.raises(ValueError, match="dimension mismatch"):
            update(g[0], lam[0, :3], eta[0])
        # a spectrum is a vector: a diagonal matrix is refused, not broadcast
        with pytest.raises(ValueError, match="dimension mismatch"):
            update(g[0], np.diag(lam[0]), eta[0])

    def test_matrix_spectrum_refused_by_v_maps(self):
        g, lam, eta = self._stack(6, 1, 4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            v_update(g[0], np.diag(lam[0]), eta[0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            closed_form_discrete_gram(g[0], np.diag(lam[0]), eta[0], 3)

    @pytest.mark.parametrize("update", [monotone_update, euler_update])
    @pytest.mark.parametrize("poison", ["asym", "nan"])
    def test_bad_matrix_in_stack_raises_the_2d_message(self, update, poison):
        g, lam, eta = self._stack(7, 4, 3)
        if poison == "asym":
            g[2, 0, 1] += 1e-3
        else:
            g[2, 1, 1] = np.inf
        with pytest.raises(ValueError) as one:
            update(g[2], lam[2], eta[2])
        with pytest.raises(ValueError) as stack:
            update(g, lam, eta)
        assert str(stack.value) == str(one.value)


class TestEulerCounterexample:
    def test_euler_violates_order_somewhere(self):
        rng = rng_stream(42, 78)
        lam = np.array([1.0, 0.7, 0.5])
        eta = 0.45 / lam[0]
        found = False
        for _ in range(200):
            g_minus = rand_psd(rng, 3)
            g_plus = g_minus + rand_psd(rng, 3)
            if loewner_slack(euler_update(g_plus, lam, eta), euler_update(g_minus, lam, eta)) < -1e-10:
                found = True
                break
        assert found, "plain Euler is expected to break the Loewner order"


class TestVUpdate:
    def test_zero_state(self):
        lam = np.array([1.0, 0.5])
        np.testing.assert_allclose(v_update(np.zeros((2, 2)), lam, 0.3), 0.3 * np.diag(lam**2))

    def test_lambda_hat_is_subfixed_point(self):
        # V = Lhat is not fixed; the iterate stays above it
        lam = np.array([0.8, 0.5, 0.3])
        v = np.diag(lam)
        for _ in range(50):
            v = v_update(v, lam, 0.2)
            assert loewner_slack(v, np.diag(lam)) >= -1e-12


class TestBlocks:
    def test_one_step_blocks(self):
        lam = np.array([1.0, 0.5])
        eta = 0.2
        b = riccati_blocks(lam, eta, 1)
        np.testing.assert_allclose(b.a11, np.ones(2))
        np.testing.assert_allclose(b.a12, eta * lam)
        np.testing.assert_allclose(b.a22, 1 + eta**2 * lam**2)

    def test_zero_steps_identity(self):
        b = riccati_blocks(np.array([0.7]), 0.3, 0)
        assert b.a11[0] == pytest.approx(1.0)
        assert b.a12[0] == pytest.approx(0.0)
        assert b.a22[0] == pytest.approx(1.0)

    def test_identities_to_t100(self, rng):
        # both identities hold to 1e-12 relative for random (eta, lambda)
        trials = [(np.sort(rng.uniform(0.2, 1.0, 6))[::-1], rng.uniform(0.01, 0.25),
                   int(rng.integers(1, 101))) for _ in range(25)]
        sum_rel, det_rel = block_identity_residuals(*(np.array(col) for col in zip(*trials)))
        assert sum_rel <= 1e-12 and det_rel <= 1e-12

    def test_two_step_zero_diagonal_squaring(self):
        # [[1, eta],[eta l^2, 1]]^2 = [[1+eta^2 l^2, 2 eta],[2 eta l^2, 1+eta^2 l^2]]
        lam = np.array([0.8])
        eta = 0.3
        b = antisym_blocks(lam, eta, 2)
        assert b.a11[0] == pytest.approx(1 + eta**2 * lam[0] ** 2, rel=1e-14)
        assert b.a12[0] / lam[0] == pytest.approx(2 * eta, rel=1e-14)

    def test_closed_form_vs_matrix_power(self):
        assert power_residual(np.array([0.9, 0.4]), 0.15, (1, 3, 17, 64)) <= 1e-12

    def test_stack_equals_scalar_calls(self):
        # (trials, 1) eta and t against (trials, r) spectra, t = 0 included
        rng = rng_stream(8, 80)
        lam = rng.uniform(0.01, 1.0, (40, 5))
        eta = rng.uniform(1e-4, 0.5, (40, 1))
        t = rng.integers(0, 2000, (40, 1))
        t[3] = 0
        stack = riccati_blocks(lam, eta, t)
        for i in range(40):
            one = riccati_blocks(lam[i], float(eta[i, 0]), int(t[i, 0]))
            for name in ("scaled_a11", "scaled_a12", "scaled_a22", "log_scale"):
                assert _bits(getattr(stack, name)[i]) == _bits(getattr(one, name))

    def test_negative_t_in_stack_raises(self):
        t = np.array([[3], [-1], [5]])
        with pytest.raises(ValueError, match="t must be >= 0"):
            riccati_blocks(np.full((3, 2), 0.5), 0.1, t)

    def test_large_t_no_overflow(self):
        lams = np.array([1.0, 0.3, 1e-3])
        for eta_i in (1e-5, 0.01, 0.5):
            b = riccati_blocks(lams, eta_i, 1_000_000)
            for v in (b.scaled_a11, b.scaled_a12, b.scaled_a22, b.log_scale):
                assert np.isfinite(v).all()
            sum_res = b.scaled_a11 + eta_i * lams * b.scaled_a12 - b.scaled_a22
            det_res = b.scaled_a22 * b.scaled_a11 - b.scaled_a12**2 - np.exp(-2 * b.log_scale)
            assert np.all(np.abs(sum_res) <= 1e-12 * b.scaled_a22)
            assert np.all(np.abs(det_res) <= 1e-12 * b.scaled_a11 * b.scaled_a22)
        eta, lam = 0.1, 1.0
        b = riccati_blocks(np.array([lam]), eta, 1_000_000)
        assert np.isfinite(b.scaled_a11).all() and np.isfinite(b.log_scale).all()
        # t -> inf limit of a22/a12 is the top-eigenvector slope of the
        # companion matrix: eta lam / 2 + sqrt(1 + eta^2 lam^2 / 4)
        limit = eta * lam / 2 + np.sqrt(1 + eta**2 * lam**2 / 4)
        assert b.ratio_22_12()[0] == pytest.approx(limit, rel=1e-9)

    @pytest.mark.parametrize("t", [1, 2, 50, 200, 1000])
    def test_blocks_match_mpmath(self, t):
        # the eigen closed form against the 2 x 2 power at 60 digits; the
        # log-domain error is the relative error of blocks * exp(log_scale)
        mpmath = pytest.importorskip("mpmath")
        lam = np.array([1.0, 0.37, 0.05])
        worst = 0.0
        for eta in (1e-5, 3e-4, 0.01, 0.12, 0.5):
            b = riccati_blocks(lam, eta, t)
            with mpmath.workdps(60):
                for i, l in enumerate(lam):
                    e, lm = mpmath.mpf(eta), mpmath.mpf(l)
                    p = mpmath.matrix([[1, e], [e * lm**2, 1 + e**2 * lm**2]]) ** t
                    scale = mpmath.mpf(b.log_scale[i])
                    for got, ref in ((b.scaled_a11[i], p[0, 0]), (b.scaled_a12[i], lm * p[0, 1]),
                                     (b.scaled_a22[i], p[1, 1])):
                        err = mpmath.log(mpmath.mpf(got)) + scale - mpmath.log(ref)
                        worst = max(worst, abs(float(err)))
        assert worst <= 1e-13

    def test_ratio_bounds(self):
        # a11/a12 > sqrt(I + eta^2 L^2/4) - eta L / 2 and the two-sided chain
        lam = np.array([0.9, 0.5, 0.2])
        eta = 0.5
        for t in (1, 5, 20, 80):
            b = riccati_blocks(lam, eta, t)
            lb = np.sqrt(1 + eta**2 * lam**2 / 4) - eta * lam / 2
            assert np.all(b.ratio_11_12() > lb - 1e-12)
            mid = ((1 + eta * lam) ** t + (1 - eta * lam) ** t) / (
                (1 + eta * lam) ** t - (1 - eta * lam) ** t
            )
            assert np.all(b.ratio_22_12() > mid - 1e-10)
            assert np.all(mid >= b.ratio_11_12() - 1e-10)


class TestClosedFormDiscreteGram:
    def test_t_zero(self, rng):
        g0 = rand_psd(rng, 3)
        lam = np.array([1.0, 0.6, 0.3])
        np.testing.assert_array_equal(closed_form_discrete_gram(g0, lam, 0.1, 0), g0)

    def test_matches_iteration_t200(self, rng):
        lam = np.sort(rng.uniform(0.3, 1.0, 5))[::-1]
        g0 = np.diag(rng.uniform(0.01, 0.9, 5))
        assert closed_form_residual(g0, lam, 0.05, 200) <= 1e-10

    def test_matches_iteration_full_psd_init(self, rng):
        lam = np.sort(rng.uniform(0.4, 1.0, 4))[::-1]
        g0 = rand_psd(rng, 4, scale=0.5)
        assert closed_form_residual(g0, lam, 0.08, 60) <= 1e-10

    def test_euler_limit_recovers_continuous_flow(self):
        # eta -> 0 with t*eta = tau fixed converges to the continuous closed
        # form at the matching time, at rate O(eta)
        from qns.flow import FlowParams, closed_form_align_gram

        lam = np.array([1.0, 0.5])
        g0 = np.diag([0.3, 0.1])
        p = FlowParams(lambdas=lam, d=8, r_s=2)
        tau = 2.0
        # discrete effective rate: one step of size eta corresponds to
        # continuous time eta * T_U (the V recursions absorb the prefactor)
        errs = []
        for eta in (0.02, 0.01):
            t = int(round(tau / eta))
            g_disc = closed_form_discrete_gram(g0, lam, eta, t)
            g_cont = closed_form_align_gram(g0, tau * p.t_u / 0.5, p)
            errs.append(np.abs(g_disc - g_cont).max())
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)

    def test_singular_inner_matrix_raises(self):
        # engineer g0 to cancel the inner diagonal exactly at t = 1
        lam = np.array([1.0, 1.0])
        eta = 0.05
        b = riccati_blocks(lam, eta, 1)
        inner = (b.ratio_11_12() - 1.0) / 2.0
        g_bad = np.diag(-inner)
        with pytest.raises(np.linalg.LinAlgError, match="step"):
            closed_form_discrete_gram(g_bad, lam, eta, 1)


class TestBoundingHarness:
    def setup_method(self):
        self.spec = PowerLawSpectrum(r=6, alpha=0.25)
        self.cfg = BoundingConfig(d=1000, r_s=4, eta=1e-4)
        rng = rng_stream(5, 40)
        z = rng.standard_normal((1000, 4)) / np.sqrt(1000)
        self.g0 = z[:6] @ z[:6].T
        # the harness's constants, from their definitions: kappa_d, the
        # effective step eta / (2 sqrt(r_s) ||lambda||) and the widened lower
        # spectrum lambda - 2 ||lambda|| eta d / sqrt(r_s)
        self.kappa = default_kappa_d(1000, 6, 0.25)
        self.eta_eff = self.cfg.eta / (2.0 * np.sqrt(self.cfg.r_s) * self.spec.frob)
        shift = 2.0 * self.spec.frob * self.cfg.eta * self.cfg.d / np.sqrt(self.cfg.r_s)
        self.lam_lo = self.spec.lambdas - shift
        self.floor = self.kappa * self.cfg.r_s / self.cfg.d

    def run(self, steps, at):
        return bounding_run(self.g0, self.spec, self.cfg, steps, at)

    def test_initial_reference_floor(self):
        [(k, t_ref, lower, upper, g)] = self.run(0, (0,))
        assert k == 0
        np.testing.assert_allclose(t_ref, np.full(6, self.floor))
        np.testing.assert_array_equal(g, self.g0)
        # the brackets start at G0 -/+ T0
        np.testing.assert_allclose(lower, self.g0 - np.diag(t_ref), atol=1e-15)
        np.testing.assert_allclose(upper, self.g0 + np.diag(t_ref), atol=1e-15)
        assert bounding_slacks(self.g0, self.spec, self.cfg, 0, (0,))[2]

    def test_reference_nondecreasing_and_floored(self):
        prev = np.full(6, self.floor)
        for _, t_ref, _, _, _ in self.run(2000, range(1, 2001)):
            assert np.all(t_ref >= prev - 1e-15)
            prev = t_ref
        assert bounding_slacks(self.g0, self.spec, self.cfg, 2000, range(1, 2001))[2]

    def test_reference_matches_scalar_logistic_bound(self):
        # per mode the reference recursion is the logistic
        # u' = u + a u (1 - u / u_star); it stays in [u_0, u_star (1 + a^2/4)]
        kappa = self.kappa
        quad = (3 * kappa + 1) / (kappa * (1 - 2 * kappa))
        a = 2 * (1 - 2 * kappa) * self.eta_eff * self.lam_lo
        u_star = self.lam_lo / (quad * self.spec.lambdas)
        u0 = np.full(6, self.floor)
        for _, t_ref, _, _, _ in self.run(5000, range(1, 5001)):
            assert np.all(t_ref >= u0 - 1e-18)
            assert np.all(t_ref <= u_star * (1 + np.max(a) ** 2 / 4) + 1e-15)

    def test_noise_free_sandwich(self):
        for _, t_ref, lower, upper, g in self.run(2000, range(1, 2000, 100)):
            t = np.diag(t_ref)
            assert loewner_slack(upper, lower) >= -1e-8
            assert loewner_slack(g, lower + t) >= -1e-8
            assert loewner_slack(upper - t, g) >= -1e-8
        order, sandwich, _ = bounding_slacks(self.g0, self.spec, self.cfg, 2000, range(1, 2000, 100))
        assert order >= -1e-8 and sandwich >= -1e-8

    def test_run_matches_step_loop(self):
        # bounding_run's exact iterate against a loop of monotone_update calls
        g = self.g0.copy()
        hand = {}
        for k in range(1, 2001):
            g = monotone_update(g, self.spec.lambdas, self.eta_eff)
            if k in (1, 777, 2000):
                hand[k] = g
        run = list(self.run(2000, (1, 777, 2000)))
        assert [k for k, *_ in run] == [1, 777, 2000]
        for k, *_, g_fused in run:
            assert _bits(g_fused) == _bits(hand[k]), k

    def test_step_size_guard(self):
        with pytest.raises(ValueError, match="step size too large"):
            next(bounding_run(self.g0, self.spec, BoundingConfig(d=1000, r_s=4, eta=2e-3), 1, (1,)))

    def test_kappa_defaults(self):
        ld = np.log(1000)
        assert default_kappa_d(1000, 6, 0.25) == pytest.approx(1 / ld**3.5)
        r_u = min(int(np.ceil(ld**2.5)), 6)
        assert default_kappa_d(1000, 6, 1.0) == pytest.approx(1 / (r_u * ld**2.5))
