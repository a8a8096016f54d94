import warnings

import numpy as np
import pytest

from kernelbcd.errors import (
    DimensionMismatchError,
    DivergenceError,
    IndexOutOfRangeError,
    NotSpdError,
)
from kernelbcd.linalg import (
    gram,
    is_symmetric,
    lambda_extremes,
    spd_solve,
    validate_indices,
)


class TestSpdSolve:
    def test_identity(self):
        x = spd_solve(np.eye(2), np.array([[1.0], [2.0]]))
        assert np.allclose(x, [[1.0], [2.0]])

    def test_two_by_two(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        x = spd_solve(a, np.array([[3.0], [3.0]]))
        assert np.allclose(x, [[1.0], [1.0]], atol=1e-12)
        assert np.allclose(a @ x, [[3.0], [3.0]], atol=1e-12)

    def test_recovers_planted_solution(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((8, 8))
        a = raw @ raw.T + 8 * np.eye(8)
        planted = rng.standard_normal((8, 3))
        x = spd_solve(a, a @ planted)
        assert np.linalg.norm(x - planted) <= 1e-10 * np.linalg.norm(planted)

    def test_recovery_across_condition_numbers(self):
        rng = np.random.default_rng(1)
        for cond in (1e2, 1e5, 1e8):
            q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
            vals = np.geomspace(1.0, 1.0 / cond, 12)
            a = (q * vals) @ q.T
            a = (a + a.T) / 2
            planted = rng.standard_normal((12, 2))
            x = spd_solve(a, a @ planted)
            rel = np.linalg.norm(x - planted) / np.linalg.norm(planted)
            assert rel <= 1e-8, f"cond {cond}: rel err {rel}"

    def test_indefinite_raises(self):
        with pytest.raises(NotSpdError):
            spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones((2, 1)))

    def test_asymmetric_raises(self):
        with pytest.raises(NotSpdError):
            spd_solve(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones((2, 1)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            spd_solve(np.eye(3), np.ones((2, 1)))

    @pytest.mark.parametrize(
        "entry", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"]
    )
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off"])
    def test_non_finite_matrix_raises_divergence(self, entry, where):
        # a diagonal entry fails the factorization, an off-diagonal one the
        # symmetry test; both name the non-finite entries
        a = 2.0 * np.eye(3)
        a[where] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=r"matrix has 1 non-finite"):
                spd_solve(a, np.ones((3, 1)))

    def test_non_finite_rhs_named_when_the_matrix_fails(self):
        b = np.ones((2, 1))
        b[1, 0] = np.nan
        with pytest.raises(DivergenceError, match=r"rhs has 1 non-finite .* \[1, 0\]"):
            spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), b)

    def test_finite_failures_stay_not_spd(self):
        with pytest.raises(NotSpdError):
            spd_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones((2, 1)))
        with pytest.raises(NotSpdError):
            spd_solve(-np.eye(2), np.ones((2, 1)))

    def test_symmetry_test_fails_non_finite_matrices_silently(self):
        one_sided = np.eye(2)
        one_sided[0, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not is_symmetric(np.full((2, 2), np.inf))
            assert not is_symmetric(one_sided)
            assert not is_symmetric(np.full((2, 2), np.nan))


class TestGram:
    def test_identity(self):
        assert np.array_equal(gram(np.eye(3)), np.eye(3))

    def test_single_column(self):
        g = gram(np.array([[1.0], [2.0], [2.0]]))
        assert g.shape == (1, 1)
        assert g[0, 0] == 9.0

    def test_matches_entrywise_dot_products(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((10, 3))
        g = gram(z)
        for i in range(3):
            for j in range(3):
                assert g[i, j] == pytest.approx(float(z[:, i] @ z[:, j]), rel=1e-14)

    def test_symmetric_psd_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rows, cols = rng.integers(1, 30), rng.integers(1, 10)
            z = rng.standard_normal((rows, cols)) * rng.uniform(0.1, 100)
            g = gram(z)
            assert np.array_equal(g, g.T)
            vals = np.linalg.eigvalsh(g)
            assert vals[0] >= -1e-10 * max(vals[-1], 0.0)


class TestValidateIndices:
    def test_keeps_order(self):
        assert np.array_equal(validate_indices([4, 0, 2], 5), [4, 0, 2])

    def test_rejects_negative(self):
        with pytest.raises(IndexOutOfRangeError):
            validate_indices([-1], 5)


class TestLambdaExtremes:
    def test_diagonal(self):
        est = lambda_extremes(np.diag([1.0, 2.0, 3.0]))
        assert est.converged
        assert est.lmax == pytest.approx(3.0, rel=1e-9)
        assert est.lmin == pytest.approx(1.0, rel=1e-9)

    def test_identity(self):
        est = lambda_extremes(np.eye(4))
        assert est.converged
        assert est.lmax == pytest.approx(1.0)
        assert est.lmin == pytest.approx(1.0)

    def test_against_dense_eigensolve(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((12, 12))
        a = raw @ raw.T + np.eye(12)
        est = lambda_extremes(a, iters=20000)
        vals = np.linalg.eigvalsh(a)
        assert est.lmax == pytest.approx(vals[-1], rel=1e-6)
        assert est.lmin == pytest.approx(vals[0], rel=1e-6)

    def test_negative_spectrum(self):
        a = np.diag([-5.0, -1.0, 2.0])
        est = lambda_extremes(a, iters=20000)
        assert est.lmax == pytest.approx(2.0, rel=1e-6)
        assert est.lmin == pytest.approx(-5.0, rel=1e-6)

    def test_projection_matches_submatrix(self):
        # restricting P_I A P_I to the selected coordinates is the same
        # operator as the principal submatrix A(I, I)
        rng = np.random.default_rng(6)
        raw = rng.standard_normal((9, 9))
        a = raw @ raw.T + np.eye(9)
        idx = np.array([1, 4, 7])
        projected = np.zeros_like(a)
        projected[np.ix_(idx, idx)] = a[np.ix_(idx, idx)]
        sub_est = lambda_extremes(a[np.ix_(idx, idx)], iters=20000)
        sub_vals = np.linalg.eigvalsh(a[np.ix_(idx, idx)])
        proj_vals = np.linalg.eigvalsh(projected)
        assert sub_est.lmax == pytest.approx(sub_vals[-1], rel=1e-8)
        assert proj_vals[-1] == pytest.approx(sub_vals[-1], rel=1e-12)

    def test_nonconvergence_is_flagged_not_raised(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((30, 30))
        a = raw @ raw.T
        est = lambda_extremes(a, iters=2, tol=1e-308)
        assert not est.converged
        assert np.isfinite(est.lmax) and np.isfinite(est.lmin)

    def test_zero_matrix(self):
        est = lambda_extremes(np.zeros((3, 3)))
        assert est.lmax == 0.0 and est.lmin == 0.0
