import dataclasses

import numpy as np
import pytest
from conftest import alignment_gram, dense_risk_longdouble, instantaneous_loss, needs_extended

from qns.flow import _reduce
from qns.linalg import rng_stream, sample_stiefel
from qns.model import (
    PowerLawSpectrum,
    StudentState,
    TeacherModel,
    _factor_risk,
    draw_samples,
    opt_risk,
    population_risk,
    student_output,
    teacher_output,
)
from qns.trainer import _snapshot


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
        assert teacher_output(t, x[None, :])[0] == pytest.approx(3.0)

    def test_orthogonal_input(self):
        s = PowerLawSpectrum(r=3, alpha=1.0)
        t = TeacherModel(d=8, spectrum=s)
        x = np.zeros(8)
        x[5] = 1.7
        assert teacher_output(t, x[None, :])[0] == pytest.approx(-s.lambdas.sum() / s.frob)

    def test_hand_two_directions(self):
        # r=2, alpha=1: y = (1*(1-1) + 0.5*(1-1)) / sqrt(1.25) = 0
        t = TeacherModel(d=5, spectrum=PowerLawSpectrum(r=2, alpha=1.0))
        x = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        assert teacher_output(t, x[None, :])[0] == pytest.approx(0.0, abs=1e-14)

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
        assert student_output(s, np.ones(5)[None, :])[0] == 0.0

    def test_single_neuron(self):
        w = np.zeros((6, 1))
        w[0, 0] = 1.0
        x = np.zeros(6)
        x[0] = 2.0
        assert student_output(StudentState(w), x[None, :])[0] == pytest.approx(3.0)

    def test_zero_mean_monte_carlo(self):
        w = sample_stiefel(32, 4, seed=5)
        s = StudentState(w)
        x = rng_stream(6, 0).standard_normal((100_000, 32))
        out = student_output(s, x)
        assert abs(out.mean()) <= 3 * out.std() / np.sqrt(len(out))


class TestLossAndRisk:
    def test_zero_residual(self):
        s = StudentState(np.zeros((4, 1)))
        assert instantaneous_loss(s, np.ones(4)[None, :], 0.0)[0] == 0.0

    def test_residual_four_gives_one(self):
        s = StudentState(np.zeros((4, 1)))
        assert instantaneous_loss(s, np.ones(4)[None, :], 4.0)[0] == pytest.approx(1.0)

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


class TestRiskKernel:
    # (d, r, r_s): r_s below, at and above r, d = r, where B has no row, and
    # r past two blocks of model._RISK_ROWS teacher rows
    @pytest.mark.parametrize("d, r, r_s", [(20, 6, 3), (20, 6, 6), (20, 6, 9), (6, 6, 4),
                                           (300, 260, 7)])
    def test_matches_dense_evaluation(self, rng, d, r, r_s):
        lam = PowerLawSpectrum(r=r, alpha=rng.uniform(0.0, 2.0)).lambdas
        w = rng.standard_normal((5, d, r_s)) * rng.uniform(0.1, 2.0, (5, 1, 1))
        risk = _factor_risk(lam, w)
        ref = dense_risk_longdouble(lam, w)
        assert risk.shape == (5,) and np.all(risk >= 0)
        np.testing.assert_allclose(risk, ref.astype(float), rtol=1e-12, atol=0)
        # each matrix of the stack gets the floats of its own call
        assert [_factor_risk(lam, wi) for wi in w] == risk.tolist()

    def test_exact_optimum_is_zero_not_negative(self):
        # a student that holds the teacher exactly: every term is a sum of squares
        spec = PowerLawSpectrum(r=4, alpha=0.0)  # ||L|| = sqrt(r_s) = 2: c = 1
        w = np.vstack([np.eye(4), np.zeros((3, 4))])
        assert _factor_risk(spec.lambdas, w) == 0.0

    @needs_extended
    def test_near_optimum_records_match_longdouble(self, rng):
        # the late state of a run with r_s >= r: the teacher block learned to
        # rounding, and rows of 3e-7 left off the teacher span, so W W.T /
        # sqrt(r_s) is the target plus off-diagonal noise of about 1e-6 and
        # the risk is about 1e-12; the trace form lost it in the cancellation
        # of unit-size terms (an absolute error of about 1e-16)
        d, r, r_s = 9, 4, 6
        spec = PowerLawSpectrum(r=r, alpha=1.0)
        teacher = TeacherModel(d=d, spectrum=spec)
        top = np.zeros((r, r_s))
        top[:, :r] = np.diag(np.sqrt(np.sqrt(r_s) / spec.frob * spec.lambdas))
        rot = np.linalg.qr(rng.standard_normal((r_s, r_s)))[0]  # orthogonal to rounding
        w = np.vstack([top, 3e-7 * rng.standard_normal((d - r, r_s))]) @ rot
        ref = float(dense_risk_longdouble(spec.lambdas, w))
        assert 1e-13 < ref < 1e-11
        risks = [
            population_risk(teacher, StudentState(w), normalized=True),
            8.0 * population_risk(teacher, StudentState(w)),
            _snapshot(spec.lambdas, _reduce(w, r), [])[0],  # the gd-population record
            _snapshot(spec.lambdas, w, [])[0],
        ]
        np.testing.assert_allclose(risks, ref, rtol=1e-14, atol=0)


class TestProject:
    # the teacher directions are the first r coordinate axes: the teacher
    # projection of a matrix is its top r rows
    def test_basis_teacher_materializes_nothing(self):
        t = TeacherModel(d=12, spectrum=PowerLawSpectrum(r=4, alpha=1.0))
        assert [f.name for f in dataclasses.fields(t)] == ["d", "spectrum"]

    def test_reduced_factor_top_rows(self, rng):
        # S = [W[:r]; R] carries the teacher projection in its top rows and
        # has the Gram of W
        from qns.flow import _reduce

        d, r = 15, 4
        w = rng.standard_normal((d, 3))
        s = _reduce(w, r)
        np.testing.assert_array_equal(s[:r], w[:r])
        np.testing.assert_allclose(s.T @ s, w.T @ w, rtol=0, atol=1e-13)


def alignments(t, s):
    """Squared projections of the teacher directions onto the student span."""
    return np.diag(alignment_gram(t, s))


class TestAlignment:
    def test_columns_equal_teacher_directions(self):
        spec = PowerLawSpectrum(r=4, alpha=1.0)
        t = TeacherModel(d=10, spectrum=spec)
        np.testing.assert_allclose(alignments(t, StudentState(np.eye(10, 2))), [1, 1, 0, 0],
                                   rtol=0, atol=1e-12)

    def test_orthogonal_span(self):
        spec = PowerLawSpectrum(r=2, alpha=1.0)
        t = TeacherModel(d=8, spectrum=spec)
        w = np.zeros((8, 2))
        w[5, 0] = 1.0
        w[6, 1] = 2.0
        np.testing.assert_allclose(alignments(t, StudentState(w)), [0, 0], rtol=0, atol=1e-12)

    def test_hand_projection_half(self):
        # single column (e1 + e2)/sqrt2: projection 0.5 on each
        spec = PowerLawSpectrum(r=2, alpha=1.0)
        t = TeacherModel(d=3, spectrum=spec)
        w = np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2)
        np.testing.assert_allclose(alignments(t, StudentState(w)), [0.5, 0.5], rtol=1e-12)

    def test_range_and_trace_bound(self, rng):
        spec = PowerLawSpectrum(r=6, alpha=0.9)
        t = TeacherModel(d=14, spectrum=spec)
        s = StudentState(rng.standard_normal((14, 3)))
        vals = alignments(t, s)
        assert np.all((vals >= 0.0) & (vals <= 1.0 + 1e-12))
        assert vals.sum() <= 3 + 1e-9

    def test_rank_deficient_raises(self):
        spec = PowerLawSpectrum(r=2, alpha=1.0)
        t = TeacherModel(d=6, spectrum=spec)
        w = np.zeros((6, 2))
        w[0, 0] = 1.0
        with pytest.raises(Exception, match="rank deficient"):
            alignment_gram(t, StudentState(w))


class TestOptRisk:
    def test_full_width_zero(self):
        assert opt_risk(PowerLawSpectrum(r=5, alpha=1.0), 5) == 0.0
        assert opt_risk(PowerLawSpectrum(r=5, alpha=1.0), 9) == 0.0

    def test_flat_spectrum(self):
        assert opt_risk(PowerLawSpectrum(r=10, alpha=0.0), 4) == pytest.approx(0.6)

    def test_hand_sum(self):
        # alpha=1, r=4, r_s=2: (1/9 + 1/16) / (1 + 1/4 + 1/9 + 1/16) = 5/41
        assert opt_risk(PowerLawSpectrum(r=4, alpha=1.0), 2) == pytest.approx(5 / 41)
