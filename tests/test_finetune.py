import numpy as np
import pytest

from qns.finetune import (
    FineTuneBatch,
    collect_batch,
    default_n_ft,
    erm_minimize,
    finetune,
    l_operator_apply,
    l_operator_gap,
    risk_decomposition,
    s_glob_estimate,
)
from qns.linalg import psd_project, rng_stream, sample_stiefel
from qns.model import PowerLawSpectrum, StudentState, TeacherModel, opt_risk, population_risk


def teacher(d=32, r=6, alpha=1.0):
    return TeacherModel(d=d, spectrum=PowerLawSpectrum(r=r, alpha=alpha))


def stiefel_student(d=32, r_s=3, seed=2):
    return StudentState(sample_stiefel(d, r_s, seed))


class TestCollectBatch:
    def test_empty(self):
        b = collect_batch(teacher(), stiefel_student(), 0, rng_stream(0, 0))
        assert b.n_ft == 0

    def test_covariates_zero_mean(self):
        t, s = teacher(), stiefel_student()
        b = collect_batch(t, s, 100_000, rng_stream(1, 0))
        mean = b.a_mats.mean(axis=0)
        se = b.a_mats.std(axis=0, ddof=1) / np.sqrt(b.n_ft)
        assert np.all(np.abs(mean) <= 3 * se + 1e-12)

    def test_trace_identity(self):
        t, s = teacher(), stiefel_student()
        rng = rng_stream(2, 0)
        x = rng.standard_normal((20, 32))
        from qns.model import teacher_output

        b = FineTuneBatch(
            a_mats=np.array([np.outer(s.w.T @ xi, s.w.T @ xi) - s.w.T @ s.w for xi in x]),
            ys=teacher_output(t, x),
        )
        for i, xi in enumerate(x):
            expected = np.linalg.norm(s.w.T @ xi) ** 2 - s.r_s
            assert np.trace(b.a_mats[i]) == pytest.approx(expected, rel=1e-12)


class TestOperator:
    def test_zero_input(self):
        b = collect_batch(teacher(), stiefel_student(), 50, rng_stream(3, 0))
        np.testing.assert_array_equal(l_operator_apply(b, np.zeros((3, 3))), np.zeros((3, 3)))

    def test_self_adjoint(self, rng):
        b = collect_batch(teacher(), stiefel_student(), 200, rng_stream(4, 0))
        for _ in range(5):
            a = rng.standard_normal((3, 3))
            a = a + a.T
            c = rng.standard_normal((3, 3))
            c = c + c.T
            lhs = np.sum(c * l_operator_apply(b, a))
            rhs = np.sum(a * l_operator_apply(b, c))
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(abs(lhs), 1.0))

    def test_population_limit_is_identity(self, rng):
        t, s = teacher(), stiefel_student()
        n = default_n_ft(t.d, s.r_s)
        b = collect_batch(t, s, n, rng_stream(5, 0))
        a = rng.standard_normal((3, 3))
        a = a + a.T
        out = l_operator_apply(b, a)
        # O(N^{-1/2}) deviation at the prescribed sample size
        assert np.abs(out - a).max() <= 10 / np.sqrt(n) * np.linalg.norm(a) * s.r_s
        assert l_operator_gap(b) <= 0.2

    def test_empty_batch_raises(self):
        b = FineTuneBatch(a_mats=np.empty((0, 3, 3)), ys=np.empty(0))
        with pytest.raises(ValueError, match="empty"):
            l_operator_apply(b, np.eye(3))


class TestSGlob:
    def test_zero_labels(self):
        t, s = teacher(), stiefel_student()
        b = collect_batch(t, s, 64, rng_stream(6, 0))
        zeroed = FineTuneBatch(a_mats=b.a_mats, ys=np.zeros(b.n_ft))
        np.testing.assert_array_equal(s_glob_estimate(zeroed), np.zeros((3, 3)))

    def test_single_sample_formula(self):
        t, s = teacher(), stiefel_student()
        b = collect_batch(t, s, 1, rng_stream(7, 0))
        expected = np.sqrt(s.r_s) / 2.0 * b.ys[0] * b.a_mats[0]
        np.testing.assert_allclose(s_glob_estimate(b), 0.5 * (expected + expected.T), atol=1e-14)

    def test_population_mean(self):
        # E s_glob = (sqrt(r_s)/||L||) W^T Q L Q^T W
        t, s = teacher(), stiefel_student()
        lam = t.spectrum.lambdas
        tw = s.w[: t.r]
        target = np.sqrt(s.r_s) / t.spectrum.frob * (tw.T * lam) @ tw
        rng = rng_stream(8, 0)
        draws = [s_glob_estimate(collect_batch(t, s, 2000, rng)) for _ in range(40)]
        mean = np.mean(draws, axis=0)
        band = 3 * np.linalg.norm(np.std(draws, axis=0, ddof=1)) / np.sqrt(len(draws))
        assert np.linalg.norm(mean - target) <= band


class TestPsdProject:
    def test_diagonal_clip(self):
        np.testing.assert_allclose(psd_project(np.diag([2.0, -1.0])), np.diag([2.0, 0.0]))

    def test_psd_unchanged(self, rng):
        from conftest import rand_psd

        m = rand_psd(rng, 4)
        np.testing.assert_allclose(psd_project(m), m, atol=1e-12)

    def test_hand_offdiagonal(self):
        # eigenvalues +-1; keeping the + one gives the all-half matrix
        out = psd_project(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(out, np.full((2, 2), 0.5), atol=1e-14)

    def test_idempotent(self, rng):
        m = rng.standard_normal((5, 5))
        m = m + m.T
        once = psd_project(m)
        np.testing.assert_allclose(psd_project(once), once, atol=1e-12)


class TestFinetune:
    def test_aligned_w_reaches_opt_risk(self):
        d, r, r_s = 256, 16, 4
        spec = PowerLawSpectrum(r=r, alpha=1.0)
        t = TeacherModel(d=d, spectrum=spec)
        q = sample_stiefel(r_s, r_s, seed=5)
        w = np.eye(d, r_s) @ q
        s = StudentState(w)
        res = finetune(s, collect_batch(t, s, default_n_ft(d, r_s), rng_stream(5, 4)))
        risk = population_risk(t, StudentState(w @ res.omega_hat), normalized=True)
        assert abs(risk - opt_risk(spec, r_s)) <= 0.05

    def test_risk_bound_partially_trained(self):
        d, r, r_s = 128, 8, 3
        spec = PowerLawSpectrum(r=r, alpha=1.0)
        t = TeacherModel(d=d, spectrum=spec)
        w = sample_stiefel(d, r_s, seed=9)  # un-adapted subspace
        s = StudentState(w)
        res = finetune(s, collect_batch(t, s, default_n_ft(d, r_s), rng_stream(9, 4)))
        risk = population_risk(t, StudentState(w @ res.omega_hat), normalized=True)
        _, _, subspace = risk_decomposition(t, StudentState(w), res.omega_hat)
        assert risk <= subspace + 0.1

    def test_omega_invariant_under_permutation(self):
        t, s = teacher(), stiefel_student()
        b = collect_batch(t, s, 500, rng_stream(10, 0))
        perm = rng_stream(10, 1).permutation(b.n_ft)
        shuffled = FineTuneBatch(a_mats=b.a_mats[perm], ys=b.ys[perm])
        r1 = finetune(s, b)
        r2 = finetune(s, shuffled)
        np.testing.assert_allclose(r1.omega_hat, r2.omega_hat, atol=1e-12)

    def test_omega_factorization(self):
        t, s = teacher(), stiefel_student()
        res = finetune(s, collect_batch(t, s, 2000, rng_stream(11, 0)))
        np.testing.assert_allclose(
            res.omega_hat @ res.omega_hat.T, res.s_hat, atol=1e-9
        )
        assert np.linalg.eigvalsh(res.s_hat)[0] >= -1e-12

    def test_rejects_non_orthonormal(self, rng):
        s = StudentState(rng.standard_normal((32, 3)))
        with pytest.raises(ValueError, match="orthonormal"):
            finetune(s, collect_batch(teacher(), s, 10, rng_stream(0, 0)))

    def test_rejects_batch_of_another_width(self):
        batch = collect_batch(teacher(), stiefel_student(r_s=4), 50, rng_stream(13, 0))
        with pytest.raises(ValueError, match=r"batch.r_s = 4 .* student.r_s = 3"):
            finetune(stiefel_student(r_s=3), batch)


class TestIdentityAndOracle:
    def test_risk_decomposition_identity(self, rng):
        t = teacher()
        for _ in range(5):
            w = sample_stiefel(32, 3, rng)
            om = rng.standard_normal((3, 3))
            total, _, _ = risk_decomposition(t, StudentState(w), om)
            direct = population_risk(t, StudentState(w @ om), normalized=True)
            assert abs(total - direct) <= 1e-10

    def test_erm_pythagoras_bound(self):
        t, s = teacher(), stiefel_student()
        b = collect_batch(t, s, 3000, rng_stream(12, 0))
        s_star = erm_minimize(b, 800)
        s_hat = psd_project(s_glob_estimate(b))
        gap = l_operator_gap(b)
        assert gap < 1.0
        lhs = np.linalg.norm(s_star - s_hat)
        rhs = 2 * gap / (1 - gap) * np.linalg.norm(s_hat)
        assert lhs <= rhs

    def test_erm_agrees_with_closed_form_at_large_n(self):
        t, s = teacher(), stiefel_student()
        b = collect_batch(t, s, 40_000, rng_stream(13, 0))
        s_star = erm_minimize(b, 400)
        s_hat = psd_project(s_glob_estimate(b))
        assert np.abs(s_star - s_hat).max() <= 0.1
