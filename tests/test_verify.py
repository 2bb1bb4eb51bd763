import numpy as np
import pytest
from conftest import rand_psd

from qns.linalg import loewner_slack, rng_stream
from qns.riccati import euler_update, monotone_update
from qns.verify import TRIAL_CHUNK, _monotone_draws, monotone_slacks, suite_monotone


def per_trial_slacks(dim, trials, seed, update):
    """The monotone suite's trials, drawn and evaluated one at a time."""
    rng = rng_stream(seed, 32)
    slacks, witness = [], None
    for k in range(trials):
        n = int(rng.integers(2, dim + 1))
        lam = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
        eta = rng.uniform(0.05, 0.45) / lam[0]
        g_minus = rand_psd(rng, n, scale=rng.uniform(0.5, 2.0))
        g_plus = g_minus + rand_psd(rng, n, scale=rng.uniform(0.1, 2.0))
        slack = loewner_slack(update(g_plus, lam, eta), update(g_minus, lam, eta))
        if slack < -1e-10 and witness is None:
            witness = {"trial": k, "slack": float(slack), "eta": float(eta)}
        slacks.append(slack)
    return np.array(slacks), witness


class TestMonotoneSuite:
    @pytest.mark.parametrize("dim", [2, 8, 16])
    @pytest.mark.parametrize("trials", [1, TRIAL_CHUNK - 1, TRIAL_CHUNK + 1])
    def test_batched_trials_equal_per_trial_loop(self, dim, trials):
        slacks, _ = monotone_slacks(_monotone_draws(dim, trials, 7), (monotone_update, euler_update))
        mono, _ = per_trial_slacks(dim, trials, 7, monotone_update)
        euler, witness = per_trial_slacks(dim, trials, 7, euler_update)
        assert slacks[0].tobytes() == mono.tobytes()
        assert slacks[1].tobytes() == euler.tobytes()
        _, check = suite_monotone(dim=dim, trials=trials, seed=7)
        assert check["detail"]["witness"] == witness
        assert check["detail"]["violations"] == int(np.sum(euler < -1e-10))

    def test_no_negative_zero_residual(self):
        # one 2 x 2 trial: no slack is negative, so the residual is +0.0
        residual = suite_monotone(dim=2, trials=1, seed=3)[0]["residual"]
        assert residual == 0.0 and np.copysign(1.0, residual) == 1.0
