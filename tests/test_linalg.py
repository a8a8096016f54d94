import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelbcd.errors import (
    DimensionMismatchError,
    DivergenceError,
    IndexOutOfRangeError,
    NotSpdError,
)
from kernelbcd.linalg import (
    EPS,
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
            one_sided[0, 1] = -np.inf
            assert not is_symmetric(one_sided)
            stack = np.stack([np.eye(2), one_sided, np.full((2, 2), np.nan)])
            assert is_symmetric(stack).tolist() == [True, False, False]

    def test_symmetry_tolerance_is_each_matrix_own(self):
        # the skew may reach SYMMETRY_RTOL (1e-9) times max(1, largest |entry|)
        big, small = 1e6 * np.eye(2), 0.5 * np.eye(2)
        stack = np.stack([big, big, small, small])
        stack[:, 0, 1] += [4e-4, 4e-3, 5e-10, 2e-9]
        expected = [True, False, True, False]
        assert is_symmetric(stack).tolist() == expected
        assert [bool(is_symmetric(m)) for m in stack] == expected


def _random_spd(rng, m):
    raw = rng.standard_normal((m, m))
    a = raw @ raw.T + m * np.eye(m)
    return (a + a.T) * 0.5


# 2 x 2 matrices a stacked solve must refuse, each with its error
_BAD_MATRICES = {
    "asymmetric": (np.array([[2.0, 0.5], [0.0, 2.0]]), NotSpdError),
    "negated": (-2.0 * np.eye(2), NotSpdError),
    # the second pivot's square, eps, is below the floor 2 * eps
    "rounding-pivot": (np.array([[1.0, 1.0], [1.0, 1.0 + EPS]]), NotSpdError),
    "nan": (np.array([[2.0, np.nan], [np.nan, 2.0]]), DivergenceError),
    "inf": (np.array([[np.inf, 0.0], [0.0, 2.0]]), DivergenceError),
}


class TestStackedSpdSolve:
    @settings(max_examples=60, deadline=None)
    @given(
        stack=st.integers(1, 5), m=st.integers(1, 8), k=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_stack_gives_the_bytes_of_one_call_per_matrix(self, stack, m, k, seed):
        rng = np.random.default_rng(seed)
        a = np.stack([_random_spd(rng, m) for _ in range(stack)])
        b = rng.standard_normal((stack, m, k))
        x = spd_solve(a, b)
        assert x.shape == (stack, m, k)
        for i in range(stack):
            assert spd_solve(a[i], b[i]).tobytes() == x[i].tobytes()

    @pytest.mark.parametrize("at", [0, 1, 2])
    @pytest.mark.parametrize("kind", list(_BAD_MATRICES))
    def test_one_bad_matrix_fails_the_stack(self, kind, at):
        bad, error = _BAD_MATRICES[kind]
        with pytest.raises(error):
            spd_solve(bad, np.ones((2, 1)))  # alone, as in the stack
        a = np.stack([_random_spd(np.random.default_rng(i), 2) for i in range(3)])
        a[at] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                spd_solve(a, np.ones((3, 2, 1)))

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [((3, 2, 2), (3, 3, 1)), ((3, 2, 2), (2, 2, 1)), ((3, 2, 2), (3, 2)),
         ((3, 2, 2), (2,)), ((2, 2), (2, 1, 1)), ((2, 2), ())],
    )
    def test_mismatched_rhs_raises(self, a_shape, b_shape):
        with pytest.raises(DimensionMismatchError):
            spd_solve(np.broadcast_to(np.eye(2), a_shape), np.ones(b_shape))


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

    def test_rejects_a_boolean_mask(self):
        # numpy would read [True, False] as a mask, and a cast as [1, 0]
        for mask in ([True, False], np.ones(3, dtype=bool)):
            with pytest.raises(IndexOutOfRangeError, match="not booleans"):
                validate_indices(mask, 5)


class TestLambdaExtremes:
    def test_diagonal(self):
        est = lambda_extremes(np.diag([1.0, 2.0, 3.0]))
        assert est.lmax == pytest.approx(3.0, rel=1e-9)
        assert est.lmin == pytest.approx(1.0, rel=1e-9)

    def test_identity(self):
        est = lambda_extremes(np.eye(4))
        assert est.lmax == pytest.approx(1.0)
        assert est.lmin == pytest.approx(1.0)

    def test_against_dense_eigensolve(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((12, 12))
        a = raw @ raw.T + np.eye(12)
        est = lambda_extremes(a)
        vals = np.linalg.eigvalsh(a)
        assert est.lmax == pytest.approx(vals[-1], rel=1e-6)
        assert est.lmin == pytest.approx(vals[0], rel=1e-6)

    def test_negative_spectrum(self):
        a = np.diag([-5.0, -1.0, 2.0])
        est = lambda_extremes(a)
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
        sub_est = lambda_extremes(a[np.ix_(idx, idx)])
        sub_vals = np.linalg.eigvalsh(a[np.ix_(idx, idx)])
        proj_vals = np.linalg.eigvalsh(projected)
        assert sub_est.lmax == pytest.approx(sub_vals[-1], rel=1e-8)
        assert proj_vals[-1] == pytest.approx(sub_vals[-1], rel=1e-12)

    def test_zero_matrix(self):
        est = lambda_extremes(np.zeros((3, 3)))
        assert est.lmax == 0.0 and est.lmin == 0.0

    @pytest.mark.parametrize("shift", [0.0, -20.0, -5.0])
    def test_equals_eigvalsh_ends_on_near_tied_spectra(self, shift):
        # the top two and bottom two eigenvalues differ by 1e-4 relative,
        # which a power iteration resolves only after ~1e5 steps
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        vals = np.concatenate([[1.0, 1.0001], np.linspace(2.0, 9.0, 36), [9.999, 10.0]])
        a = (q * (vals + shift)) @ q.T
        a = (a + a.T) * 0.5
        est = lambda_extremes(a)
        dense = np.linalg.eigvalsh(a)
        assert est == (dense[-1], dense[0])
        assert est.lmax == pytest.approx(10.0 + shift, rel=1e-12)
        assert est.lmin == pytest.approx(1.0 + shift, rel=1e-12)

    def test_takes_only_the_matrix(self):
        assert lambda_extremes(np.eye(2))._fields == ("lmax", "lmin")
        with pytest.raises(TypeError):
            lambda_extremes(np.eye(2), iters=10)

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[1.0, 2.0], [0.0, 1.0]]),
            np.ones((2, 3)),
            np.ones(3),
            np.array([[1.0, np.nan], [np.nan, 1.0]]),
            np.diag([1.0, np.inf]),
            np.zeros((0, 0)),
        ],
        ids=["asymmetric", "non-square", "1-d", "nan", "inf", "empty"],
    )
    def test_rejects_bad_matrices(self, a):
        with pytest.raises(DimensionMismatchError):
            lambda_extremes(a)
