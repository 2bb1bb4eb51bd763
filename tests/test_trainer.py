import json
import math
import pickle
import sys
import threading

import numpy as np
import pytest

import qns.trainer as trainer
from qns.cli import EXIT_OK, main
from qns.flow import FlowParams, align_curves
from qns.linalg import inv_sqrt_gram, rng_stream, sample_stiefel
from qns.model import (
    PowerLawSpectrum,
    StudentState,
    TeacherModel,
    alignment_gram,
    draw_samples,
    instantaneous_loss,
    population_risk,
    student_output,
    teacher_output,
)
from qns.runs import RunConfig
from qns.trainer import (
    _SAMPLE_BLOCK,
    _SEGMENT,
    _snapshot,
    _stiefel_segment,
    DivergenceError,
    ManifoldError,
    default_tracked_js,
    euclidean_grad,
    run_training,
    schedule_eta,
    stiefel_grad,
)
from qns.trajectory import read_trajectory


def small_teacher(d=24, r=4, alpha=1.0):
    return TeacherModel(d=d, spectrum=PowerLawSpectrum(r=r, alpha=alpha))


def stepped(kind="sgd-stiefel", **fields):
    """A validated config of a stepped kind, by default on ``small_teacher()``
    with a width-2 student, tracking direction 1."""
    return RunConfig.from_dict({"kind": kind, "d": 24, "r": 4, "r_s": 2, "alpha": 1.0,
                                "tracked_j": [1], **fields})


def stiefel_step(s, t, eta, rng, batch=1):
    """One ``sgd-stiefel`` step of ``run_training``'s update on ``batch``
    fresh rows of ``rng``'s sample stream."""
    x, y = draw_samples(t, batch, rng)
    trainer._sgd_update(s, x, y.tolist(), eta, "sgd-stiefel", batch)


class TestEuclideanGrad:
    def test_zero_residual(self):
        t = small_teacher()
        s = StudentState(np.zeros((24, 2)))
        x = np.ones((1, 24))
        g = euclidean_grad(s, x, np.zeros(1))  # yhat = 0 too
        np.testing.assert_array_equal(g, np.zeros((24, 2)))

    def test_scalar_hand_value(self):
        # d=1, r_s=1, w=1, x=2, y - yhat = 1: -(1/4)(x^2 - 1)w = -3/4
        s = StudentState(np.array([[1.0]]))
        yhat = float(2.0**2 - 1.0)  # student output at x=2
        g = euclidean_grad(s, np.array([[2.0]]), np.array([yhat + 1.0]))
        assert g[0, 0] == pytest.approx(-(4.0 - 1.0) / 4.0)

    def test_matches_finite_differences(self, rng):
        s = StudentState(rng.standard_normal((10, 2)) * 0.3)
        x = rng.standard_normal((1, 10))
        y = np.array([0.7])
        g = euclidean_grad(s, x, y)
        w0 = s.w.copy()
        h = 1e-5 * np.linalg.norm(w0)
        fd = np.zeros_like(w0)
        for i in range(10):
            for j in range(2):
                wp, wm = w0.copy(), w0.copy()
                wp[i, j] += h
                wm[i, j] -= h
                fd[i, j] = (
                    instantaneous_loss(StudentState(wp), x, y)
                    - instantaneous_loss(StudentState(wm), x, y)
                )[0] / (2 * h)
        assert np.abs(g - fd).max() / np.abs(fd).max() <= 1e-5

    def test_batch_averages(self, rng):
        s = StudentState(rng.standard_normal((8, 2)) * 0.4)
        t = small_teacher(d=8, r=2)
        x, y = draw_samples(t, 5, rng)
        g_batch = euclidean_grad(s, x, y)
        g_mean = np.mean([euclidean_grad(s, x[i : i + 1], y[i : i + 1]) for i in range(5)], axis=0)
        np.testing.assert_allclose(g_batch, g_mean, atol=1e-14)

    @pytest.mark.parametrize("grad", [euclidean_grad, stiefel_grad])
    @pytest.mark.parametrize("y", [0.5, np.full((4, 1), 0.5), np.full(3, 0.5)])
    def test_labels_not_one_per_row_refused(self, grad, y):
        # a scalar label used to count as a batch of one: 4 times the mean
        s = StudentState(sample_stiefel(8, 2, seed=1))
        x = rng_stream(2, 0).standard_normal((4, 8))
        with pytest.raises(ValueError, match=r"one label per row of x, shape \(4,\)"):
            grad(s, x, y)


class TestStiefelGrad:
    def test_zero_gradient(self):
        w = sample_stiefel(12, 3, seed=1)
        s = StudentState(w)
        x = np.zeros((1, 12))
        g = stiefel_grad(s, x, np.zeros(1))
        np.testing.assert_allclose(g, 0.0, atol=1e-14)

    def test_radial_direction_annihilated(self, rng):
        # gradient of the form W S (symmetric S) projects to zero
        w = sample_stiefel(12, 3, rng)
        s = StudentState(w)
        sym = rng.standard_normal((3, 3))
        sym = sym + sym.T
        g = w @ sym
        proj = g - 0.5 * w @ (w.T @ g + g.T @ w)
        np.testing.assert_allclose(proj, 0.0, atol=1e-12)

    def test_tangency_residual(self, rng):
        t = small_teacher()
        s = StudentState(sample_stiefel(24, 3, rng))
        x, y = draw_samples(t, 1, rng)
        g = stiefel_grad(s, x, y)
        assert np.abs(s.w.T @ g + g.T @ s.w).max() <= 1e-10

    def test_rejects_non_orthonormal(self, rng):
        s = StudentState(rng.standard_normal((10, 2)))
        with pytest.raises(ValueError, match="orthonormal"):
            stiefel_grad(s, np.ones((1, 10)), np.ones(1))


@pytest.mark.parametrize("call", [
    lambda t, s, x: teacher_output(t, x),
    lambda t, s, x: student_output(s, x),
    lambda t, s, x: instantaneous_loss(s, x, np.zeros(1)),
    lambda t, s, x: euclidean_grad(s, x, np.zeros(1)),
    lambda t, s, x: stiefel_grad(s, x, np.zeros(1)),
], ids=["teacher_output", "student_output", "instantaneous_loss", "euclidean_grad",
        "stiefel_grad"])
@pytest.mark.parametrize("shape", [(24,), (1, 23), (1, 1, 24)])
def test_input_not_a_batch_refused(call, shape):
    # every model and gradient path takes an (n, d) batch alone
    t, s = small_teacher(), StudentState(sample_stiefel(24, 2, seed=1))
    with pytest.raises(ValueError, match=r"x must be an \(n, d\) batch with d = 24, got shape"):
        call(t, s, np.ones(shape))


class TestSgdStep:
    def test_eta_zero_keeps_weights(self, rng):
        t = small_teacher()
        w = sample_stiefel(24, 3, rng)
        s = StudentState(w.copy())
        stiefel_step(s, t, 0.0, rng)
        np.testing.assert_allclose(s.w, w, atol=1e-12)
        assert np.abs(s.w.T @ s.w - np.eye(3)).max() <= 1e-9

    def test_rank1_retraction_equals_dense(self):
        t = small_teacher(d=32)
        s_fast = StudentState(sample_stiefel(32, 3, seed=11))
        s_dense = StudentState(s_fast.w.copy())
        r1, r2 = rng_stream(99, 0), rng_stream(99, 0)
        for _ in range(40):
            stiefel_step(s_fast, t, 0.05, r1)
            x, y = draw_samples(t, 1, r2)
            g = stiefel_grad(s_dense, x, y)
            s_dense.w = inv_sqrt_gram(s_dense.w - 0.05 * g)
        assert np.abs(s_fast.w - s_dense.w).max() <= 1e-10

    def test_orthonormal_after_every_step(self, rng):
        t = small_teacher()
        s = StudentState(sample_stiefel(24, 4, rng))
        for _ in range(200):
            stiefel_step(s, t, 0.1, rng)
            assert np.abs(s.w.T @ s.w - np.eye(4)).max() <= 1e-9

    def test_batch_mode_orthonormal(self, rng):
        t = small_teacher()
        s = StudentState(sample_stiefel(24, 3, rng))
        for _ in range(20):
            stiefel_step(s, t, 0.05, rng, batch=8)
        assert np.abs(s.w.T @ s.w - np.eye(3)).max() <= 1e-9

    def test_noise_mean_matches_projected_drift(self):
        # E grad_St = -(1 / (2 sqrt(r_s) ||L||)) (I - W W^T) Q L Q^T W
        t = small_teacher(d=16, r=4)
        w = sample_stiefel(16, 3, seed=8)
        s = StudentState(w)
        spec = t.spectrum
        mw = np.zeros_like(w)
        mw[:4] = spec.lambdas[:, None] * w[:4]
        target = -(np.eye(16) - w @ w.T) @ mw / (2 * np.sqrt(3) * spec.frob)
        rng = rng_stream(5, 9)
        draws = []
        for _ in range(60):
            xb, yb = draw_samples(t, 500, rng)
            draws.append(stiefel_grad(s, xb, yb))
        mean = np.mean(draws, axis=0)
        band = 3 * np.linalg.norm(np.std(draws, axis=0, ddof=1)) / np.sqrt(len(draws))
        assert np.linalg.norm(mean - target) <= band

    def test_gram_update_consistency(self):
        # at fixed W the mean of G_{t+1} minus the first-order drift vanishes
        d, r, r_s = 64, 8, 4
        t = TeacherModel(d=d, spectrum=PowerLawSpectrum(r=r, alpha=1.0))
        w = sample_stiefel(d, r_s, seed=3)
        eta = 1e-5
        g0 = w[:r] @ w[:r].T
        lam = t.spectrum.lambdas
        ue = eta / (2 * np.sqrt(r_s) * t.spectrum.frob)
        lg = lam[:, None] * g0
        drift = g0 + ue * (lg + lg.T - 2 * (g0 @ lg + (g0 @ lg).T) / 2)
        rng = rng_stream(17, 0)
        reps = 1500
        deltas = np.zeros((reps, r, r))
        for k in range(reps):
            s = StudentState(w.copy())
            stiefel_step(s, t, eta, rng)
            g1 = s.w[:r] @ s.w[:r].T
            deltas[k] = g1 - drift
        mean = deltas.mean(axis=0)
        band = 3 * np.linalg.norm(deltas.std(axis=0, ddof=1)) / np.sqrt(reps)
        assert np.linalg.norm(mean) <= band

    def test_block_draws_equal_row_draws(self):
        # the SGD loop draws its samples in blocks; Philox must give the
        # same stream as one draw per step
        t = small_teacher(d=40, r=6)
        xb, yb = draw_samples(t, 150, rng_stream(5, 2))
        r = rng_stream(5, 2)
        rows = [draw_samples(t, 1, r) for _ in range(150)]
        np.testing.assert_array_equal(xb, np.vstack([x for x, _ in rows]))
        # labels are one matmul; only its summation order depends on the rows
        np.testing.assert_allclose(yb, np.concatenate([y for _, y in rows]), rtol=0, atol=1e-13)

    def test_fused_run_matches_dense_reference(self):
        # 1100 steps: 8 full sample blocks, a partial one, and the dense
        # re-orthonormalization at step 1000
        d, r_s, eta, steps, seed = 32, 3, 0.02, 1100, 4
        t = small_teacher(d=d)
        cfg = stepped(d=d, r_s=r_s, eta=eta, steps=steps, tracked_j=[1, 2], record_every=100)
        res = run_training(cfg, seed)
        assert res.samples_used == steps
        ref = StudentState.stiefel_init(d, r_s, rng_stream(seed, 1))
        rng = rng_stream(seed, 2)
        risks = [population_risk(t, ref, normalized=True)]
        for step in range(1, steps + 1):
            x, y = draw_samples(t, 1, rng)
            ref.w = inv_sqrt_gram(ref.w - eta * stiefel_grad(ref, x, y))
            if step % 1000 == 0:
                ref.w = inv_sqrt_gram(ref.w)
            if step % 100 == 0:
                risks.append(population_risk(t, ref, normalized=True))
        assert np.abs(res.student.w - ref.w).max() <= 1e-10
        np.testing.assert_allclose(res.risk_normalized, risks, rtol=1e-10)

    def test_off_manifold_w_refused(self):
        # the segment kernel reads |W v| = |v| and ||W||_F^2 = r_s: a run
        # refuses a W past 1e-8
        w = sample_stiefel(24, 3, seed=2)
        w[0, 0] += 1e-7
        cfg = stepped(r_s=3, eta=0.01, steps=10)
        with pytest.raises(ManifoldError) as info:
            run_training(cfg, 1, w0=w)
        assert str(info.value).startswith("W is not orthonormal: max|W.T W - I| = ")
        w = sample_stiefel(24, 3, seed=2)
        w[0, 0] += 1e-10  # within the tolerance: taken
        assert run_training(cfg, 1, w0=w).samples_used == 10

    def test_w0_of_another_shape_refused(self):
        with pytest.raises(ValueError, match="w0 must be d x r_s = 24 x 3"):
            run_training(stepped(r_s=3, eta=0.01, steps=10), 1, w0=sample_stiefel(24, 2, seed=2))

    def test_one_pass_sample_counter(self, rng):
        cfg = stepped(eta=0.01, steps=25, batch=3, record_every=5)
        res = run_training(cfg, 5)
        assert res.samples_used == 25 * 3


def broadcast_rank1_step(w, x, y, eta):
    """The fused step as first written: temporaries and a broadcast update."""
    v = x @ w
    wv = w @ v
    px = x - wv
    vsq = float(v @ v)
    if vsq == 0.0:
        return
    r_s = w.shape[1]
    resid = y - (vsq - float(np.vdot(w, w))) / math.sqrt(r_s)
    c = eta * -resid / (4.0 * math.sqrt(r_s))
    a = c * c * float(px @ px)
    coef = (1.0 / math.sqrt(1.0 + a * vsq) - 1.0) / vsq
    u = (-c * (1.0 + coef * vsq)) * px + coef * wv
    w += u[:, None] * v


def broadcast_run(t, r_s, eta, steps, seed, record_every):
    """``run_training``'s Stiefel loop, one broadcast step per sample: the
    final W and the risk at each record step."""
    w = StudentState.stiefel_init(t.d, r_s, rng_stream(seed, 1)).w
    rng = rng_stream(seed, 2)
    risks = {}
    for start in range(0, steps, _SAMPLE_BLOCK):
        xs, ys = draw_samples(t, min(_SAMPLE_BLOCK, steps - start), rng)
        for i, y in enumerate(ys.tolist()):
            broadcast_rank1_step(w, xs[i], y, eta)
            step = start + i + 1
            if step % 1000 == 0:
                w = inv_sqrt_gram(w)
            if step % record_every == 0 or step == steps:
                risks[step] = population_risk(t, StudentState(w), normalized=True)
    return w, risks


class TestScratchRank1Step:
    """The segment kernel is the broadcast step written in the coordinates of
    ``[W0, X.T]``: the same update, equal to rounding but not bit for bit."""

    @pytest.mark.parametrize("d, r_s", [(512, 16), (512, 1), (16, 16), (7, 3)])
    def test_segment_matches_broadcast(self, d, r_s):
        rng = np.random.default_rng(d + r_s)
        for _ in range(40):
            w = sample_stiefel(d, r_s, rng)
            xs = rng.standard_normal((_SEGMENT, d))
            ys, eta = rng.standard_normal(_SEGMENT).tolist(), 10.0 ** rng.uniform(-4, 0)
            ref = w.copy()
            for x, y in zip(xs, ys):
                broadcast_rank1_step(ref, x, y, eta)
            out = _stiefel_segment(w, xs, ys, eta)
            assert np.abs(out - ref).max() <= 1e-12
            # at d == r_s, px is rounding noise: the step may move nothing
            assert d == r_s or not np.array_equal(out, w)

    def test_near_span_samples_match_broadcast(self):
        # x = W a + 1e-9 z at d >> r_s: |x|^2 - |v|^2 cancels to rounding, so
        # each step reads |px|^2 from the whole Gram, built on first need
        d, r_s = 512, 16
        rng = np.random.default_rng(21)
        for _ in range(20):
            w = sample_stiefel(d, r_s, rng)
            xs = (w @ rng.standard_normal((r_s, _SEGMENT))).T
            xs += 1e-9 * rng.standard_normal((_SEGMENT, d))
            ys, eta = rng.standard_normal(_SEGMENT).tolist(), 10.0 ** rng.uniform(-4, 0)
            ref = w.copy()
            for x, y in zip(xs, ys):
                broadcast_rank1_step(ref, x, y, eta)
            assert np.abs(_stiefel_segment(w, xs, ys, eta) - ref).max() <= 1e-12

    def test_orthogonal_sample_leaves_w(self):
        # v = W.T x is exactly zero: no update
        w = np.eye(10, 3)
        x = np.concatenate([np.zeros(3), np.arange(1.0, 8.0)])
        np.testing.assert_array_equal(_stiefel_segment(w, x[None, :], [0.7], 0.1), w)

    @pytest.mark.parametrize("d, r, r_s, eta, steps, record_every, tol", [
        # 16 full sample blocks, a partial one of 52 rows, cleanups at 1000 and 2000
        (40, 4, 4, 0.05, 2100, 700, 1e-11),
        # records and cleanups in the middle of segments and blocks
        (40, 4, 4, 0.05, 2100, 7, 1e-11),
        # the sgd_online benchmark's shape
        (512, 8, 16, 0.1 / 512, 20000, 500, 1e-13),
    ], ids=["blocks", "mid_segment", "benchmark_shape"])
    def test_run_training_matches_broadcast_loop(self, d, r, r_s, eta, steps, record_every, tol):
        t = small_teacher(d=d, r=r)
        cfg = stepped(d=d, r=r, r_s=r_s, eta=eta, steps=steps, record_every=record_every)
        res = run_training(cfg, 6)
        w, risks = broadcast_run(t, r_s, eta, steps, 6, record_every)
        assert np.abs(res.student.w - w).max() <= tol
        assert res.samples_used == steps
        assert res.steps.tolist() == [0, *risks]
        np.testing.assert_allclose(res.risk_normalized[1:], list(risks.values()), rtol=tol, atol=0)


def serial_fused_run(cfg, seed):
    """``run_training``'s single-sample Stiefel loop with each sample block
    drawn inline, cut into segments at the block's end, after 32 rows, at a
    1000-step cleanup and at a record step: the final W and the records, as
    ``(step, risk_normalized, alignments)``."""
    t = small_teacher(d=cfg.d, r=cfg.r)
    w = StudentState.stiefel_init(cfg.d, cfg.r_s, rng_stream(seed, 1)).w
    rng = rng_stream(seed, 2)
    every, lam = cfg.record_every, t.spectrum.lambdas
    stops = sorted({*range(every, cfg.steps + 1, every), cfg.steps})
    records = [(0, *_snapshot(lam, w, cfg.tracked_j, False))]
    for start in range(0, cfg.steps, _SAMPLE_BLOCK):
        xs, ys = draw_samples(t, min(_SAMPLE_BLOCK, cfg.steps - start), rng)
        step, stop = start, start + len(ys)
        while step < stop:
            end = min(stop, step + _SEGMENT, (step // 1000 + 1) * 1000,
                      next(s for s in stops if s > step))
            w = _stiefel_segment(w, xs[step - start : end - start],
                                 ys[step - start : end - start].tolist(), cfg.eta)
            step = end
            if step % 1000 == 0:
                w = inv_sqrt_gram(w)
            if step in stops:
                records.append((step, *_snapshot(lam, w, cfg.tracked_j, False)))
    return w, records


def per_step_run(cfg, seed):
    """``run_training``'s SGD as first written, for every kind but batch-1
    Stiefel: ``batch`` fresh rows drawn from the sample stream for each
    step, then the kind's update, with the Stiefel 1000-step cleanup: the
    final W and the records, as ``(step, risk_normalized, alignments)``."""
    t = small_teacher(d=cfg.d, r=cfg.r)
    stiefel, batch, lam = cfg.kind == "sgd-stiefel", cfg.resolved_batch(), t.spectrum.lambdas
    init = StudentState.stiefel_init if stiefel else StudentState.gaussian_init
    s = init(cfg.d, cfg.r_s, rng_stream(seed, 1))
    rng = rng_stream(seed, 2)
    every = cfg.record_every
    stops = {*range(every, cfg.steps + 1, every), cfg.steps}
    records = [(0, *_snapshot(lam, s.w, cfg.tracked_j, not stiefel))]
    for step in range(1, cfg.steps + 1):
        x, y = draw_samples(t, batch, rng)
        if stiefel:
            s.w = inv_sqrt_gram(s.w - cfg.eta * stiefel_grad(s, x, y))
            if step % 1000 == 0:
                s.w = inv_sqrt_gram(s.w)
        else:
            s.w = s.w - cfg.eta * euclidean_grad(s, x, y)
        if step in stops:
            records.append((step, *_snapshot(lam, s.w, cfg.tracked_j, not stiefel)))
    return s.w, records


# the SGD runs other than batch-1 Stiefel, each on its own update path
OTHER_SGD = {"sgd-stiefel-batch3": {"batch": 3},
             "sgd-euclidean": {"kind": "sgd-euclidean", "batch": 2, "eta": 0.002}}


class TestSampleProducer:
    """Every SGD kind draws its sample blocks one block ahead on a producer
    thread: the same bytes as a serial loop, and no thread left behind on
    any exit."""

    # 2,100 steps: 16 full blocks and a partial one, cleanups at 1000 and
    # 2000, and records every 7 steps, most of them in mid-block
    SHAPE = dict(d=64, r=4, r_s=4, eta=0.05, steps=2100, record_every=7)

    def cfg(self, kind="sgd-stiefel", **fields):
        return stepped(kind, **{**self.SHAPE, **fields}, tracked_j=[1, 2, 4])

    def test_bitwise_equal_to_serial_loop(self):
        res = run_training(self.cfg(), 1)
        w, records = serial_fused_run(self.cfg(), 1)
        np.testing.assert_array_equal(res.student.w, w)
        assert len(res.steps) == len(records) == 301
        steps, risks, aligns = zip(*records)
        np.testing.assert_array_equal(res.steps, steps)
        np.testing.assert_array_equal(res.risk_normalized, risks)
        np.testing.assert_array_equal(res.alignments, aligns)

    @pytest.mark.parametrize("kind, batch, rtol", [
        ("sgd-euclidean", 2, 0.0), ("sgd-euclidean", 3, 0.0), ("sgd-euclidean", 4, 0.0),
        ("sgd-euclidean", 5, 0.0), ("sgd-stiefel", 3, 0.0),
        # a 128-row block's labels come from one (128, r) product, against a
        # (1, r) one per step: equal to rounding, not bit for bit
        ("sgd-euclidean", 1, 1e-13)])
    def test_matches_per_step_loop(self, kind, batch, rtol):
        # 1,100 steps: blocks of max(128 // batch, 1) steps, records every 7
        # steps across the block boundaries, and the Stiefel cleanup at step
        # 1000; from batch 2 on, a block's labels are the per-step draws' to
        # the last bit
        cfg = self.cfg(kind, batch=batch, steps=1100, eta=0.002 if kind == "sgd-euclidean" else 0.05)
        res = run_training(cfg, 2)
        w, records = per_step_run(cfg, 2)
        assert res.samples_used == 1100 * batch
        steps, risks, aligns = zip(*records)
        np.testing.assert_array_equal(res.steps, steps)
        for got, want in [(res.student.w, w), (res.risk_normalized, risks), (res.alignments, aligns)]:
            np.testing.assert_allclose(got, want, rtol=rtol, atol=0)

    def test_cli_bitwise_equal_to_serial_loop(self, tmp_path):
        # four seeds in turn, each with its own producer, and the interpreter
        # switching threads often: the CSV's 17 significant digits read back
        # every float of the serial loop's records exactly
        seeds = [1, 2, 3, 4]
        cfg = {"kind": "sgd-stiefel", "alpha": 1.0, "seeds": seeds, "tracked_j": [1, 2, 4],
               "out_dir": str(tmp_path), **self.SHAPE}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert main(["run", str(tmp_path / "cfg.json")]) == EXIT_OK
        finally:
            sys.setswitchinterval(interval)
        for seed in seeds:
            data = read_trajectory(str(tmp_path / f"sgd-stiefel_seed{seed}.csv"))
            steps, risks, aligns = zip(*serial_fused_run(self.cfg(), seed)[1])
            np.testing.assert_array_equal(data.steps, steps)
            np.testing.assert_array_equal(data.risk_normalized, risks)
            np.testing.assert_array_equal(data.alignments, aligns)

    def test_normal_run_leaves_no_thread(self):
        for fields in [{}, *OTHER_SGD.values()]:
            before = threading.active_count()
            res = run_training(self.cfg(**fields), 1)
            assert res.samples_used == 2100 * fields.get("batch", 1)
            assert threading.active_count() == before

    @pytest.mark.parametrize("fields, target, call, error", [
        (fields, target, call, error)
        for fields, kernel in [({}, "_stiefel_segment"), *zip(OTHER_SGD.values(),
                                                               ["stiefel_grad", "euclidean_grad"])]
        for target, call, error in [
            (kernel, 5, RuntimeError("kernel failed")),
            (kernel, 5, KeyboardInterrupt()),
            # at the first cleanup, or the first Euclidean step
            ("_check_norm", 1, DivergenceError(step=1000, norm=math.inf))]
    ], ids=[prefix + case for prefix in ["", *(f"{name}-" for name in OTHER_SGD)]
            for case in ["kernel_error", "interrupt", "divergence"]])
    def test_error_in_step_loop_leaves_no_thread(self, monkeypatch, fields, target, call, error):
        original, calls = getattr(trainer, target), []

        def fails_on_nth_call(*args):
            calls.append(None)
            if len(calls) == call:
                raise error
            return original(*args)

        monkeypatch.setattr(trainer, target, fails_on_nth_call)
        before = threading.active_count()
        with pytest.raises(type(error)) as info:
            run_training(self.cfg(**fields), 1)
        assert info.value is error
        assert threading.active_count() == before

    def test_draw_error_reaches_caller_unchanged(self, monkeypatch):
        error, calls = MemoryError("no room for the block"), []

        def fails_on_third_draw(*args):
            calls.append(None)
            if len(calls) == 3:
                raise error
            return draw_samples(*args)

        monkeypatch.setattr(trainer, "draw_samples", fails_on_third_draw)
        for fields in [{}, *OTHER_SGD.values()]:
            calls.clear()
            before = threading.active_count()
            with pytest.raises(MemoryError) as info:
                run_training(self.cfg(**fields), 1)
            assert info.value is error
            assert threading.active_count() == before
            assert len(calls) == 3  # nothing drawn after the failed block


def gd_run(w0, r, eta, steps, **fields):
    """Population GD from ``w0`` on the teacher of rank ``r``."""
    cfg = stepped("gd-population", d=w0.shape[0], r=r, r_s=w0.shape[1], eta=eta, steps=steps,
                  tracked_j=[], **fields)
    return run_training(cfg, 0, w0=w0)


class TestPopulationGd:
    def test_stationary_at_global_min(self):
        spec = PowerLawSpectrum(r=6, alpha=1.0)
        t = TeacherModel(d=20, spectrum=spec)
        r_s = 3
        scale = np.sqrt(np.sqrt(r_s) * spec.lambdas[:r_s] / spec.frob)
        w_opt = np.eye(20, r_s) * scale[None, :]
        res = gd_run(w_opt.copy(), 6, 0.3, 1)
        assert np.abs(res.student.w - w_opt).max() <= 1e-10

    def test_euler_consistency_with_flow(self):
        # GD with step eta approximates the flow at time eta * steps, O(eta)
        spec = PowerLawSpectrum(r=4, alpha=1.0)
        t = TeacherModel(d=16, spectrum=spec)
        w0 = rng_stream(3, 1).standard_normal((16, 2)) / 4
        horizon = 4.0
        p = FlowParams.from_spectrum(spec, 16, 2)
        from qns.flow import weight_risk_curve

        ref = weight_risk_curve(w0, np.array([horizon]), p)[0]
        errs = []
        for eta in (0.04, 0.02):
            res = gd_run(w0.copy(), 4, eta, int(horizon / eta))
            errs.append(abs(population_risk(t, res.student, normalized=True) - ref))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.35)

    def test_risk_nonincreasing_small_step(self):
        w0 = rng_stream(8, 1).standard_normal((24, 3)) / np.sqrt(24)
        risks = gd_run(w0, 5, 0.05, 400, alpha=0.8, record_every=1).risk_normalized
        assert np.all(np.diff(risks) <= 1e-12)

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError, match="divergence"):
            gd_run(500.0 * np.eye(4, 2), 2, 10.0, 50, alpha=0.0)


def test_divergence_error_pickles():
    # a seed that diverges in a worker process reaches the parent by pickle
    err = pickle.loads(pickle.dumps(DivergenceError(3, 1e4)))
    assert isinstance(err, DivergenceError)
    assert (err.step, err.norm) == (3, 1e4)
    assert str(err) == str(DivergenceError(3, 1e4))


def dense_gd_step(teacher, w, eta):
    """Population GD on the full d x r_s matrix, written out densely."""
    lam, frob = teacher.spectrum.lambdas, teacher.spectrum.frob
    r_s = w.shape[1]
    mw = np.zeros_like(w)
    mw[: teacher.r] = lam[:, None] * w[: teacher.r]
    step_dir = mw - (frob / np.sqrt(r_s)) * (w @ (w.T @ w))
    return w + (eta / (2.0 * np.sqrt(r_s) * frob)) * step_dir


class TestReducedPopulationGd:
    # run_training drives GD on S = [W[:r]; R], (r + r_s) x r_s here; at full
    # width r = d no row lies off the teacher span, and R is empty
    @pytest.mark.parametrize("full_width", [False, True])
    def test_records_match_dense_loop(self, full_width):
        d, r_s, eta = 40, 3, 0.3
        t = small_teacher(d=d, r=d if full_width else 6)
        cfg = stepped("gd-population", d=d, r=t.r, r_s=r_s, eta=eta, steps=300, record_every=7,
                      tracked_j=[1, 2, 6])
        res = run_training(cfg, 5)
        w = StudentState.gaussian_init(d, r_s, rng_stream(5, 1)).w
        assert res.steps.tolist() == [0, *range(7, 300, 7), 300]
        by_step = dict(zip(res.steps.tolist(), zip(res.risk_normalized, res.alignments)))
        for step in range(cfg.steps + 1):
            if step:
                w = dense_gd_step(t, w, eta)
            if step in by_step:
                (risk, aligns), ref = by_step[step], StudentState(w)
                assert risk == pytest.approx(population_risk(t, ref, normalized=True), rel=1e-12)
                gram = alignment_gram(t, ref)
                np.testing.assert_allclose(aligns, np.diag(gram)[[0, 1, 5]], rtol=1e-12)
        np.testing.assert_allclose(res.student.w, w, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("full_width", [False, True])
    def test_divergence_step_matches_dense(self, full_width):
        d, r_s, eta = 16, 2, 40.0
        t = small_teacher(d=d, r=d if full_width else 4)
        w = StudentState.gaussian_init(d, r_s, rng_stream(1, 1)).w
        expected = None
        for step in range(1, 500):
            w = dense_gd_step(t, w, eta)
            norm = np.linalg.norm(w)
            if not np.isfinite(norm) or norm > 1e3:
                expected = step
                break
        assert expected is not None and expected > 1
        cfg = stepped("gd-population", d=d, r=t.r, r_s=r_s, eta=eta, steps=500)
        with pytest.raises(DivergenceError) as exc:
            run_training(cfg, 1)
        assert exc.value.step == expected


class TestSchedule:
    def test_flat_plugin(self):
        assert schedule_eta(100, 10, 0.0) == pytest.approx(0.005)

    def test_light_tail_has_no_width_factor(self):
        # above the 1/2 boundary the rate is 0.5 / d; r enters only through
        # the heavy branch
        assert schedule_eta(256, 16, 1.0) == pytest.approx(0.5 / 256)
        assert schedule_eta(256, 32, 1.0) == pytest.approx(0.5 / 256)

    def test_branch_switch_factor(self):
        lo = schedule_eta(1000, 16, 0.49)
        hi = schedule_eta(1000, 16, 0.51)
        assert hi / lo == pytest.approx(16**0.49, rel=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            schedule_eta(100, 10, 0.5)


class TestRunTraining:
    def test_deterministic_given_seed(self):
        cfg = stepped(eta=0.02, steps=60, tracked_j=[1, 2], record_every=10)
        r1 = run_training(cfg, 9)
        r2 = run_training(cfg, 9)
        np.testing.assert_array_equal(r1.student.w, r2.student.w)
        np.testing.assert_array_equal(r1.risk_normalized, r2.risk_normalized)
        np.testing.assert_array_equal(r1.alignments, r2.alignments)

    def test_stiefel_tracks_flow_small(self):
        # coarse tracking check at small scale; the acceptance suite runs the
        # full-size version
        d, r, r_s = 128, 4, 4
        spec = PowerLawSpectrum(r=r, alpha=1.0)
        t = TeacherModel(d=d, spectrum=spec)
        eta = 0.1 / d
        steps = 30_000
        cfg = stepped(d=d, r=r, r_s=r_s, eta=eta, steps=steps, tracked_j=[1, 2],
                      record_every=5000)
        res = run_training(cfg, 3)
        w0 = StudentState.stiefel_init(d, r_s, rng_stream(3, 1)).w
        p = FlowParams.from_spectrum(spec, d, r_s)
        gf = align_curves(w0[:r] @ w0[:r].T, res.steps * eta, p)
        worst = np.abs(res.alignments - gf[:, :2]).max()
        assert worst <= 0.25  # loose band at d = 128

    def test_tracked_js_default(self):
        assert default_tracked_js(8) == (1, 2, 4, 8)
        assert default_tracked_js(10, r_eff=7) == (1, 2, 4, 7, 8)

    def test_ortho_drift_read_before_cleanup(self):
        # the run ends on a cleanup, so its last W is freshly orthonormalized:
        # the drift must come from the readings taken before the cleanups
        cfg = stepped(d=64, r_s=4, eta=0.01, steps=2000, record_every=500)
        res = run_training(cfg, 1)
        last = np.abs(res.student.w.T @ res.student.w - np.eye(4)).max()
        assert last < res.ortho_drift < 1e-12
        cfg = stepped("gd-population", d=64, r_s=4, eta=0.01, steps=20)
        assert run_training(cfg, 0).ortho_drift is None
