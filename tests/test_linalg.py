import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qns.linalg import (
    RankDeficientError,
    check_symmetric,
    inv_sqrt_gram,
    loewner_slack,
    psd_sqrt,
    rng_stream,
    sample_gaussian_mat,
    sample_stiefel,
    sym_eigen,
)

SQ3 = np.sqrt(3.0)


class TestSymEigen:
    def test_already_diagonal(self):
        pair = sym_eigen(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(pair.values, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(pair.vectors), np.eye(2), atol=1e-14)

    def test_two_by_two_offdiagonal(self):
        # characteristic polynomial by hand: eigenvalues +-1,
        # eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2
        pair = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(pair.values, [1.0, -1.0], atol=1e-14)
        v0 = pair.vectors[:, 0] * np.sign(pair.vectors[0, 0])
        v1 = pair.vectors[:, 1] * np.sign(pair.vectors[0, 1])
        np.testing.assert_allclose(v0, [1, 1] / np.sqrt(2), atol=1e-14)
        np.testing.assert_allclose(v1, [1, -1] / np.sqrt(2), atol=1e-14)

    def test_identity(self):
        pair = sym_eigen(np.eye(5))
        np.testing.assert_allclose(pair.values, np.ones(5))

    def test_reconstruction_random(self, rng):
        for n in (3, 8, 17):
            b = rng.standard_normal((n, n))
            m = b + b.T
            pair = sym_eigen(m)
            recon = (pair.vectors * pair.values) @ pair.vectors.T
            scale = np.linalg.norm(m, 2)
            assert np.abs(recon - m).max() <= 1e-10 * scale
            assert np.abs(pair.vectors.T @ pair.vectors - np.eye(n)).max() <= 1e-10
            assert np.all(np.diff(pair.values) <= 1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            sym_eigen(np.array([[0.0, 1.0], [0.5, 0.0]]))


class TestPsdSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_clip_forces_zero(self):
        root = psd_sqrt(np.diag([1.0, -1e-14]))
        np.testing.assert_allclose(root, np.diag([1.0, 0.0]))

    def test_hand_eigendecomposition(self):
        # [[2,1],[1,2]] has eigenpairs (3, (1,1)/sqrt2), (1, (1,-1)/sqrt2)
        expected = np.array([[(SQ3 + 1) / 2, (SQ3 - 1) / 2], [(SQ3 - 1) / 2, (SQ3 + 1) / 2]])
        np.testing.assert_allclose(psd_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]])), expected, atol=1e-14)

    def test_square_roundtrip(self, rng):
        from conftest import rand_psd

        m = rand_psd(rng, 6)
        root = psd_sqrt(m)
        assert np.abs(root @ root - m).max() <= 1e-9 * np.abs(m).max()


class TestInvSqrtGram:
    def test_orthonormal_unchanged(self, rng):
        w = sample_stiefel(10, 4, rng)
        np.testing.assert_allclose(inv_sqrt_gram(w), w, atol=1e-12)

    def test_scaling_renormalized(self):
        w = 2.0 * np.eye(6, 3)
        np.testing.assert_allclose(inv_sqrt_gram(w), np.eye(6, 3), atol=1e-14)

    def test_random_gaussian_orthonormalized(self, rng):
        w = rng.standard_normal((8, 4))
        q = inv_sqrt_gram(w)
        assert np.abs(q.T @ q - np.eye(4)).max() <= 1e-10

    def test_idempotent(self, rng):
        w = rng.standard_normal((12, 5))
        once = inv_sqrt_gram(w)
        assert np.abs(inv_sqrt_gram(once) - once).max() <= 1e-9

    def test_rank_deficient_raises_with_eigenvalue(self):
        w = np.zeros((5, 2))
        w[:, 0] = 1.0
        with pytest.raises(RankDeficientError, match="smallest eigenvalue"):
            inv_sqrt_gram(w)


class TestLoewner:
    def test_trivial_orders(self):
        assert loewner_slack(2 * np.eye(3), np.eye(3)) == 1.0
        assert loewner_slack(np.eye(3), 2 * np.eye(3)) == -1.0

    def test_hand_two_by_two(self):
        # eigenvalues of [[1,.9],[.9,1]] are 1 +- 0.9; min of (a - 0.05 I) is 0.05
        a = np.array([[1.0, 0.9], [0.9, 1.0]])
        assert loewner_slack(a, 0.05 * np.eye(2)) == pytest.approx(0.05, abs=1e-12)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_reflexive(self, n):
        rng = rng_stream(n, 5)
        b = rng.standard_normal((n, n))
        m = b + b.T
        assert loewner_slack(m, m) == 0.0

    def test_strict_antisymmetry(self, rng):
        from conftest import rand_psd

        a = rand_psd(rng, 4)
        b = a + rand_psd(rng, 4, scale=0.5)
        strict_ab = loewner_slack(a, b) > 0
        strict_ba = loewner_slack(b, a) > 0
        assert not (strict_ab and strict_ba)


class TestStacks:
    """Stacks of matrices: one call, each matrix as a 2-D call would see it."""

    def _stack(self, m, n, seed=0):
        from conftest import rand_psd

        rng = rng_stream(seed, 6)
        return np.stack([rand_psd(rng, n) for _ in range(m)])

    def test_check_symmetric_matches_2d(self):
        a = self._stack(9, 5)
        a[3] += 1e-14 * np.triu(np.ones((5, 5)), 1)  # tolerated asymmetry
        out = check_symmetric(a)
        for i in range(9):
            assert out[i].tobytes() == check_symmetric(a[i]).tobytes()

    def test_loewner_slack_matches_2d(self):
        a, b = self._stack(12, 4, seed=1), self._stack(12, 4, seed=2)
        slack = loewner_slack(a, b)
        assert slack.shape == (12,)
        assert [float(s) for s in slack] == [loewner_slack(a[i], b[i]) for i in range(12)]
        assert isinstance(loewner_slack(a[0], b[0]), float)

    @pytest.mark.parametrize("poison", ["asym", "nan"])
    def test_bad_matrix_in_stack_raises_the_2d_message(self, poison):
        a = self._stack(5, 3)
        if poison == "asym":
            a[1, 2, 0] += 3e-12 * np.abs(a[1]).max()  # just past the tolerance
            a[3, 0, 1] += 1e-3  # the message names the first offender
        else:
            a[3, 0, 0] = np.nan
        bad = 1 if poison == "asym" else 3
        with pytest.raises(ValueError) as one:
            check_symmetric(a[bad])
        for call in (lambda: check_symmetric(a), lambda: loewner_slack(a, a.copy())):
            with pytest.raises(ValueError) as stack:
                call()
            assert str(stack.value) == str(one.value)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            check_symmetric(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="expected a square matrix"):
            check_symmetric(np.zeros(3))
        with pytest.raises(ValueError, match="shape mismatch"):
            loewner_slack(self._stack(2, 3), self._stack(3, 3))


class TestSampling:
    def test_deterministic_given_seed(self):
        a = sample_gaussian_mat(7, 5, 2.0, seed=42)
        b = sample_gaussian_mat(7, 5, 2.0, seed=42)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, sample_gaussian_mat(7, 5, 2.0, seed=43))

    def test_stream_independence(self):
        a = rng_stream(1, 0).standard_normal(4)
        b = rng_stream(1, 1).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_variance_chi_square_band(self):
        # mean of n iid entries^2 has std sqrt(2/n)/d for variance 1/d
        d = 10_000
        m = sample_gaussian_mat(100, 100, 1.0 / d, seed=3)
        n = m.size
        sigma = np.sqrt(2.0 / n) / d
        assert abs(np.mean(m**2) - 1.0 / d) <= 3 * sigma

    def test_stiefel_square_is_orthogonal(self):
        q = sample_stiefel(4, 4, seed=9)
        assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-8
        assert np.abs(q.T @ q - np.eye(4)).max() <= 1e-10

    def test_stiefel_orthonormal_at_any_condition_number(self):
        # the polar factor through eigh of Z.T Z lost accuracy like cond(Z)**2:
        # square draws are often badly conditioned, and reached 5e-7 here
        rng = rng_stream(0, 0)
        for _ in range(200):
            q = sample_stiefel(6, 6, rng)
            assert np.abs(q.T @ q - np.eye(6)).max() <= 1e-13

    def test_stiefel_rejects_wide(self):
        with pytest.raises(ValueError, match="rows >= cols"):
            sample_stiefel(3, 5, seed=0)
