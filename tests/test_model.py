import numpy as np
import pytest

from qns.linalg import rng_stream, sample_stiefel
from qns.model import (
    PowerLawSpectrum,
    StudentState,
    TeacherModel,
    alignment,
    alignment_gram,
    draw_samples,
    instantaneous_loss,
    opt_risk,
    population_risk,
    project,
    student_output,
    teacher_output,
)


class TestSpectrum:
    def test_power_law_values(self):
        s = PowerLawSpectrum(r=4, alpha=1.0)
        np.testing.assert_allclose(s.lambdas, [1, 0.5, 1 / 3, 0.25])
        assert s.frob_sq == pytest.approx(1 + 0.25 + 1 / 9 + 1 / 16)
        assert s.frob == pytest.approx(np.sqrt(s.frob_sq))

    def test_monotone_or_flat(self):
        assert np.all(np.diff(PowerLawSpectrum(r=10, alpha=0.7).lambdas) < 0)
        np.testing.assert_array_equal(PowerLawSpectrum(r=10, alpha=0.0).lambdas, np.ones(10))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            PowerLawSpectrum(r=0, alpha=1.0)
        with pytest.raises(ValueError):
            PowerLawSpectrum(r=3, alpha=-0.1)


class TestTeacherOutput:
    def test_single_direction(self):
        t = TeacherModel(d=6, spectrum=PowerLawSpectrum(r=1, alpha=0.0))
        x = np.zeros(6)
        x[0] = 2.0
        assert teacher_output(t, x) == pytest.approx(3.0)

    def test_orthogonal_input(self):
        s = PowerLawSpectrum(r=3, alpha=1.0)
        t = TeacherModel(d=8, spectrum=s)
        x = np.zeros(8)
        x[5] = 1.7
        assert teacher_output(t, x) == pytest.approx(-s.lambdas.sum() / s.frob)

    def test_hand_two_directions(self):
        # r=2, alpha=1: y = (1*(1-1) + 0.5*(1-1)) / sqrt(1.25) = 0
        t = TeacherModel(d=5, spectrum=PowerLawSpectrum(r=2, alpha=1.0))
        x = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        assert teacher_output(t, x) == pytest.approx(0.0, abs=1e-14)

    def test_moments_match_normalization(self):
        # E y = 0 and E y^2 = 2 under the Hermite-2 normalization
        t = TeacherModel(d=48, spectrum=PowerLawSpectrum(r=12, alpha=0.75))
        x = rng_stream(4, 0).standard_normal((100_000, 48))
        y = teacher_output(t, x)
        assert abs(y.mean()) <= 3 * y.std() / np.sqrt(len(y))
        m2 = y**2
        assert abs(m2.mean() - 2.0) <= 3 * m2.std() / np.sqrt(len(y))


class TestStudentOutput:
    def test_zero_weights(self):
        s = StudentState(np.zeros((5, 2)))
        assert student_output(s, np.ones(5)) == 0.0

    def test_single_neuron(self):
        w = np.zeros((6, 1))
        w[0, 0] = 1.0
        x = np.zeros(6)
        x[0] = 2.0
        assert student_output(StudentState(w), x) == pytest.approx(3.0)

    def test_zero_mean_monte_carlo(self):
        w = sample_stiefel(32, 4, seed=5)
        s = StudentState(w)
        x = rng_stream(6, 0).standard_normal((100_000, 32))
        out = student_output(s, x)
        assert abs(out.mean()) <= 3 * out.std() / np.sqrt(len(out))


class TestLossAndRisk:
    def test_zero_residual(self):
        s = StudentState(np.zeros((4, 1)))
        assert instantaneous_loss(s, np.ones(4), 0.0) == 0.0

    def test_residual_four_gives_one(self):
        s = StudentState(np.zeros((4, 1)))
        assert instantaneous_loss(s, np.ones(4), 4.0) == pytest.approx(1.0)

    def test_batch_mean_matches_population_risk(self):
        spec = PowerLawSpectrum(r=6, alpha=1.0)
        t = TeacherModel(d=48, spectrum=spec)
        s = StudentState(rng_stream(7, 1).standard_normal((48, 3)) * 0.1)
        x, y = draw_samples(t, 100_000, rng_stream(7, 2))
        losses = instantaneous_loss(s, x, y)
        pop = population_risk(t, s)
        assert abs(losses.mean() - pop) <= 3 * losses.std() / np.sqrt(len(losses))

    def test_zero_weights_normalized_risk_is_one(self):
        t = TeacherModel(d=10, spectrum=PowerLawSpectrum(r=4, alpha=0.7))
        assert population_risk(t, StudentState(np.zeros((10, 2))), normalized=True) == pytest.approx(1.0)

    def test_top_block_fit_reaches_opt_risk(self):
        spec = PowerLawSpectrum(r=6, alpha=1.0)
        t = TeacherModel(d=20, spectrum=spec)
        r_s = 3
        scale = np.sqrt(np.sqrt(r_s) * spec.lambdas[:r_s] / spec.frob)
        w = np.eye(20, r_s) * scale[None, :]
        risk = population_risk(t, StudentState(w), normalized=True)
        assert risk == pytest.approx(opt_risk(spec, r_s), abs=1e-12)

    def test_exact_fit_zero_risk(self):
        spec = PowerLawSpectrum(r=3, alpha=1.0)
        t = TeacherModel(d=12, spectrum=spec)
        scale = np.sqrt(np.sqrt(3) * spec.lambdas / spec.frob)
        w = np.eye(12, 3) * scale[None, :]
        assert population_risk(t, StudentState(w), normalized=True) == pytest.approx(0.0, abs=1e-12)

    def test_rotation_invariance(self, rng):
        spec = PowerLawSpectrum(r=5, alpha=0.8)
        t = TeacherModel(d=16, spectrum=spec)
        w = rng.standard_normal((16, 4)) * 0.3
        o = sample_stiefel(4, 4, rng)
        r1 = population_risk(t, StudentState(w))
        r2 = population_risk(t, StudentState(w @ o))
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_haar_teacher_matches_basis_teacher_risk(self, rng):
        # rotating both teacher and student leaves the risk invariant
        spec = PowerLawSpectrum(r=4, alpha=1.0)
        basis = TeacherModel(d=12, spectrum=spec)
        haar = TeacherModel.haar(12, spec, seed=3)
        w = rng.standard_normal((12, 3)) * 0.2
        q, _ = np.linalg.qr(np.hstack([haar.theta, np.eye(12)]))
        assert population_risk(haar, StudentState(q[:, :12] @ w)) == pytest.approx(
            population_risk(basis, StudentState(w)), rel=1e-10
        )

    def test_haar_teacher_square_draw_orthonormal(self):
        # at r = d the Gaussian draw of seed 1 has cond(Z)^2 near 9e6: one
        # polar pass left an error of 7e-10 and the teacher was refused
        t = TeacherModel.haar(9, PowerLawSpectrum(r=9, alpha=0.0), seed=1)
        assert np.abs(t.theta.T @ t.theta - np.eye(9)).max() < 1e-14


class TestProject:
    def test_basis_teacher_materializes_nothing(self):
        t = TeacherModel(d=12, spectrum=PowerLawSpectrum(r=4, alpha=1.0))
        assert t.theta is None

    def test_matches_explicit_theta(self, rng):
        d, r = 15, 4
        spec = PowerLawSpectrum(r=r, alpha=1.0)
        m = rng.standard_normal((d, 3))
        basis, haar = TeacherModel(d=d, spectrum=spec), TeacherModel.haar(d, spec, seed=2)
        np.testing.assert_array_equal(project(m, r, basis.theta), np.eye(d, r).T @ m)
        np.testing.assert_allclose(project(m, r, haar.theta), haar.theta.T @ m, rtol=0, atol=1e-15)

    def test_reduced_factor_top_rows(self, rng):
        # S = [Theta.T W; R] carries the teacher projection in its top rows
        from qns.flow import _reduce

        d, r = 15, 4
        haar = TeacherModel.haar(d, PowerLawSpectrum(r=r, alpha=1.0), seed=5)
        w = rng.standard_normal((d, 3))
        s = _reduce(w, r, haar.theta)
        np.testing.assert_allclose(project(s, r, None), haar.theta.T @ w, rtol=0, atol=1e-15)


class TestAlignment:
    def test_columns_equal_teacher_directions(self):
        spec = PowerLawSpectrum(r=4, alpha=1.0)
        t = TeacherModel(d=10, spectrum=spec)
        s = StudentState(np.eye(10, 2))
        assert alignment(t, s, 1) == pytest.approx(1.0)
        assert alignment(t, s, 2) == pytest.approx(1.0)
        assert alignment(t, s, 3) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_span(self):
        spec = PowerLawSpectrum(r=2, alpha=1.0)
        t = TeacherModel(d=8, spectrum=spec)
        w = np.zeros((8, 2))
        w[5, 0] = 1.0
        w[6, 1] = 2.0
        assert alignment(t, StudentState(w), 1) == pytest.approx(0.0, abs=1e-12)

    def test_hand_projection_half(self):
        # single column (theta1 + theta2)/sqrt2: projection 0.5 on each
        spec = PowerLawSpectrum(r=2, alpha=1.0)
        t = TeacherModel(d=3, spectrum=spec)
        w = np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2)
        s = StudentState(w)
        assert alignment(t, s, 1) == pytest.approx(0.5)
        assert alignment(t, s, 2) == pytest.approx(0.5)

    def test_flat_spectrum_uses_eigenvalues(self):
        # alpha = 0: any rotation of the teacher block must give alignment 1
        spec = PowerLawSpectrum(r=3, alpha=0.0)
        t = TeacherModel(d=9, spectrum=spec)
        q = sample_stiefel(3, 3, seed=12)
        w = np.eye(9, 3) @ q
        for j in (1, 2, 3):
            assert alignment(t, StudentState(w), j) == pytest.approx(1.0, abs=1e-10)

    def test_range_and_trace_bound(self, rng):
        spec = PowerLawSpectrum(r=6, alpha=0.9)
        t = TeacherModel(d=14, spectrum=spec)
        s = StudentState(rng.standard_normal((14, 3)))
        vals = [alignment(t, s, j) for j in range(1, 7)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert sum(vals) <= 3 + 1e-9
        assert np.trace(alignment_gram(t, s)) <= 3 + 1e-9

    def test_rank_deficient_raises(self):
        spec = PowerLawSpectrum(r=2, alpha=1.0)
        t = TeacherModel(d=6, spectrum=spec)
        w = np.zeros((6, 2))
        w[0, 0] = 1.0
        with pytest.raises(Exception, match="rank deficient"):
            alignment(t, StudentState(w), 1)


class TestOptRisk:
    def test_full_width_zero(self):
        assert opt_risk(PowerLawSpectrum(r=5, alpha=1.0), 5) == 0.0
        assert opt_risk(PowerLawSpectrum(r=5, alpha=1.0), 9) == 0.0

    def test_flat_spectrum(self):
        assert opt_risk(PowerLawSpectrum(r=10, alpha=0.0), 4) == pytest.approx(0.6)

    def test_hand_sum(self):
        # alpha=1, r=4, r_s=2: (1/9 + 1/16) / (1 + 1/4 + 1/9 + 1/16) = 5/41
        assert opt_risk(PowerLawSpectrum(r=4, alpha=1.0), 2) == pytest.approx(5 / 41)
