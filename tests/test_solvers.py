import dataclasses
import json
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelbcd import kernels, solvers
from kernelbcd.distsim import CostLedger, ExecContext
from kernelbcd.errors import (
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    NotSpdError,
)
from kernelbcd.kernels import (
    Dataset,
    FeatureMapSpec,
    KernelSpec,
    gaussian_blobs,
    kernel_cross,
    one_vs_all,
    random_features_block,
)
from kernelbcd.solvers import (
    ConvergenceTrace,
    Model,
    classify,
    draw_landmarks,
    epoch_blocks,
    evaluate,
    load_model,
    make_plan,
    normal_equation_residual,
    objective_value,
    predict,
    save_model,
    solve_full,
    solve_nystrom,
    solve_path,
    solve_rf,
    _Batch,
    _FullSystem,
    _GramSystem,
    _PendingCheck,
    _assert_residual,
    _guard_descent,
    _run,
    _run_spec,
)
from oracles import (
    dense_normal_equation_residual,
    full_surrogate,
    nystrom_objective,
    primal_dual_gap,
    rf_objective,
)


def separated_points_dataset(n, k=2):
    """Integer points one unit apart: with sigma = 1e-3 the rbf kernel
    matrix is exactly the identity (off-diagonal underflows to zero)."""
    X = np.arange(float(n))[:, None]
    labels = np.arange(n) % k
    return Dataset(X=X, labels=labels, k=k)


class TestBlockPlan:
    @settings(max_examples=60, deadline=None)
    @given(b=st.integers(1, 12), n_blocks=st.integers(1, 12),
           seed=st.integers(0, 2**64), epoch=st.integers(0, 2**32))
    def test_epoch_blocks_partition_the_universe_deterministically(
        self, b, n_blocks, seed, epoch
    ):
        plan = make_plan(b * n_blocks, b, seed=seed)
        blocks = epoch_blocks(plan, epoch)
        assert len(blocks) == n_blocks
        assert all(len(blk) == b for blk in blocks)
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(b * n_blocks))
        assert np.array_equal(epoch_blocks(plan, epoch), blocks)

    def test_each_epoch_draws_a_fresh_partition(self):
        plan = make_plan(40, 5, seed=1)
        parts = [{frozenset(blk.tolist()) for blk in epoch_blocks(plan, e)}
                 for e in range(2)]
        assert parts[0] != parts[1]

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            make_plan(10, 3, seed=0)

    def test_landmarks_without_replacement(self):
        idx = draw_landmarks(50, 20, seed=4)
        assert len(np.unique(idx)) == 20
        assert idx.min() >= 0 and idx.max() < 50
        assert np.array_equal(idx, draw_landmarks(50, 20, seed=4))


class TestSolveFull:
    def test_identity_kernel_single_epoch(self):
        data = separated_points_dataset(12)
        kspec = KernelSpec("rbf", sigma=1e-3)
        plan = make_plan(12, 4, seed=0)
        model, trace = solve_full(data, kspec, 0.5, plan, 1)
        y = one_vs_all(data)
        lam_eff = 12 * 0.5
        assert np.allclose(model.coefficients, y / (1.0 + lam_eff), atol=1e-14)
        assert len(trace.records) == 3

    def test_single_block_is_direct_solve(self):
        data = gaussian_blobs(32, 4, 2, seed=1)
        kspec = KernelSpec("rbf", sigma=2.0)
        plan = make_plan(32, 32, seed=2)
        model, trace = solve_full(data, kspec, 1e-2, plan, 1)
        K = kernel_cross(data.X, data.X, kspec)
        y = one_vs_all(data)
        oracle = np.linalg.solve(K + 32 * 1e-2 * np.eye(32), y)
        rel = np.linalg.norm(model.coefficients - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-10
        assert len(trace.records) == 1

    def test_converges_to_dense_oracle(self):
        data = gaussian_blobs(64, 10, 4, seed=3, center_scale=4.0)
        kspec = KernelSpec("rbf", sigma=2.5)
        plan = make_plan(64, 8, seed=4)
        model, _ = solve_full(data, kspec, 1e-2, plan, 30)
        K = kernel_cross(data.X, data.X, kspec)
        y = one_vs_all(data)
        oracle = np.linalg.solve(K + 64 * 1e-2 * np.eye(64), y)
        rel = np.linalg.norm(model.coefficients - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-6

    def test_plan_universe_must_match_n(self):
        data = gaussian_blobs(16, 2, 2, seed=5)
        with pytest.raises(ConfigError):
            solve_full(data, KernelSpec(), 1e-2, make_plan(8, 4, 0), 1)

    def test_zero_epochs_returns_zero_model(self):
        data = gaussian_blobs(16, 2, 2, seed=5)
        model, trace = solve_full(
            data, KernelSpec("rbf", 2.0), 1e-2, make_plan(16, 4, 0), 0
        )
        assert np.all(model.coefficients == 0.0)
        assert trace.records == []

    def test_single_class_dataset(self):
        data = Dataset(X=np.random.default_rng(94).standard_normal((12, 2)),
                       labels=np.zeros(12, dtype=int), k=1)
        model, trace = solve_full(
            data, KernelSpec("rbf", 2.0), 1e-2, make_plan(12, 4, 1), 5
        )
        assert model.coefficients.shape == (12, 1)
        assert np.all(np.diff(trace.objectives()) <= 1e-9)


class TestSolveNystrom:
    def test_all_landmarks_matches_full_solution(self):
        # p = n, gamma = 0: the normal equation collapses to
        # (K^T K + n lam K) a = K^T Y, solved by the full-kernel solution
        data = gaussian_blobs(48, 4, 3, seed=6, center_scale=6.0)
        kspec = KernelSpec("rbf", sigma=1.0)
        K = kernel_cross(data.X, data.X, kspec)
        y = one_vs_all(data)
        full = np.linalg.solve(K + 48 * 1e-2 * np.eye(48), y)
        ka = K @ full
        inclusion = np.linalg.norm(
            K.T @ ka + 48 * 1e-2 * ka - K.T @ y
        ) / np.linalg.norm(K.T @ y)
        assert inclusion <= 1e-12
        plan = make_plan(48, 8, seed=7)
        model, _ = solve_nystrom(
            data, kspec, 48, 1e-2, 0.0, plan, 600, landmark_seed=8, grad_tol=1e-11
        )
        # compare in prediction space: coefficients live on permuted landmarks
        pred_ny = predict(model, data.X)
        rel = np.linalg.norm(pred_ny - ka) / np.linalg.norm(ka)
        assert rel <= 1e-6

    def test_fixed_point_matches_dense_normal_equation(self):
        data = gaussian_blobs(128, 8, 4, seed=9, center_scale=4.0)
        kspec = KernelSpec("rbf", sigma=2.5)
        plan = make_plan(32, 8, seed=10)
        lam, gamma = 1e-3, 1e-6
        model, _ = solve_nystrom(
            data, kspec, 32, lam, gamma, plan, 3000, landmark_seed=11, grad_tol=1e-9
        )
        kj = kernel_cross(data.X, data.X[model.landmarks], kspec)
        kjj = kj[model.landmarks]
        y = one_vs_all(data)
        lam_eff = 128 * lam
        system = kj.T @ kj + lam_eff * kjj + lam_eff * gamma * np.eye(32)
        oracle = np.linalg.solve(system, kj.T @ y)
        rel = np.linalg.norm(model.coefficients - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-6

    def test_single_block_reaches_oracle_in_one_update(self):
        data = gaussian_blobs(64, 4, 2, seed=12)
        kspec = KernelSpec("rbf", sigma=2.0)
        plan = make_plan(16, 16, seed=13)
        lam, gamma = 1e-2, 1e-8
        model, trace = solve_nystrom(
            data, kspec, 16, lam, gamma, plan, 1, landmark_seed=14
        )
        assert len(trace.records) == 1
        assert normal_equation_residual(model, data, lam, gamma) <= 1e-10

    def test_residual_integrity_check_passes(self):
        data = gaussian_blobs(40, 3, 2, seed=15)
        plan = make_plan(20, 5, seed=16)
        solve_nystrom(
            data, KernelSpec("rbf", 2.0), 20, 1e-2, 1e-6, plan, 25,
            landmark_seed=17, check_residual=True,
        )

    def test_singular_block_needs_gamma(self):
        # duplicated rows make the unregularized block system singular;
        # gamma > 0 is the documented fix
        from kernelbcd.errors import NotSpdError

        X = np.vstack(
            [
                np.arange(4.0),
                np.arange(4.0),
                np.random.default_rng(0).standard_normal((6, 4)),
            ]
        )
        data = Dataset(X=X, labels=np.arange(8) % 2, k=2)
        plan = make_plan(8, 8, seed=0)
        kspec = KernelSpec("rbf", 2.0)
        with pytest.raises(NotSpdError):
            solve_nystrom(data, kspec, 8, 1e-3, 0.0, plan, 1, landmark_seed=1)
        solve_nystrom(data, kspec, 8, 1e-3, 1e-6, plan, 1, landmark_seed=1)


class TestSolveRf:
    def test_orthonormal_design_decouples_blocks(self):
        n, p = 32, 8
        rng = np.random.default_rng(18)
        q, _ = np.linalg.qr(rng.standard_normal((n, p)))
        data = Dataset(X=np.zeros((n, 1)), labels=np.arange(n) % 2, k=2)
        fspec = FeatureMapSpec(p=p, sigma=1.0, master_seed=0)
        plan = make_plan(p, 4, seed=19)
        lam = 0.05
        results = _run_spec(
            data, fspec, [lam], plan, 1, block_fn=lambda pos: q[:, pos]
        )
        model, _ = results[0]
        y = one_vs_all(data)
        expected = q.T @ y / (1.0 + n * lam)
        assert np.allclose(model.coefficients, expected, rtol=1e-10, atol=1e-12)

    def test_converges_to_dense_oracle(self):
        data = gaussian_blobs(256, 6, 4, seed=20, center_scale=3.0)
        fspec = FeatureMapSpec(p=64, sigma=2.0, master_seed=21)
        plan = make_plan(64, 16, seed=22)
        lam = 1e-3
        model, _ = solve_rf(data, fspec, lam, plan, 2000, grad_tol=1e-10)
        z = random_features_block(data.X, np.arange(64), fspec)
        y = one_vs_all(data)
        oracle = np.linalg.solve(z.T @ z + 256 * lam * np.eye(64), z.T @ y)
        rel = np.linalg.norm(model.coefficients - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-6

    def test_ridge_shrinkage(self):
        data = gaussian_blobs(64, 4, 2, seed=23)
        fspec = FeatureMapSpec(p=16, sigma=2.0, master_seed=24)
        plan = make_plan(16, 4, seed=25)
        results = solve_path(data, fspec, [1.0, 10.0, 100.0], plan, 50)
        norms = [
            np.linalg.norm(results[lam][0].coefficients)
            for lam in (1.0, 10.0, 100.0)
        ]
        assert norms[0] > norms[1] > norms[2]

    def test_residual_integrity_check_passes(self):
        data = gaussian_blobs(40, 3, 2, seed=26)
        fspec = FeatureMapSpec(p=20, sigma=2.0, master_seed=27)
        plan = make_plan(20, 5, seed=28)
        solve_rf(data, fspec, 1e-2, plan, 25, check_residual=True)

    def test_inconsistent_block_source_is_caught(self):
        # a block source that does not regenerate the same columns breaks
        # the maintained residual; the solver must notice, not drift
        data = gaussian_blobs(32, 3, 2, seed=29)
        fspec = FeatureMapSpec(p=16, sigma=2.0, master_seed=30)
        plan = make_plan(16, 4, seed=31)
        rng = np.random.default_rng(32)

        def unstable_block(pos):
            return rng.standard_normal((32, len(pos)))

        with pytest.raises(DivergenceError):
            _run_spec(
                data, fspec, [1e-3], plan, 50,
                block_fn=unstable_block, check_residual=True,
            )


class TestSolvePath:
    def test_single_lambda_path_equals_solver(self):
        data = gaussian_blobs(64, 4, 2, seed=33)
        fspec = FeatureMapSpec(p=32, sigma=2.0, master_seed=34)
        plan = make_plan(32, 8, seed=35)
        path = solve_path(data, fspec, [1e-2], plan, 15)
        single, strace = solve_rf(data, fspec, 1e-2, plan, 15)
        pmodel, ptrace = path[1e-2]
        assert np.array_equal(pmodel.coefficients, single.coefficients)
        assert np.array_equal(ptrace.objectives(), strace.objectives())

    @pytest.mark.parametrize("method", ["full", "nystrom", "rf"])
    def test_path_matches_independent_runs(self, method):
        data = gaussian_blobs(48, 4, 3, seed=36)
        lams = [1e-3, 1e-2, 1e-1]
        kspec = KernelSpec("rbf", sigma=2.0)
        if method == "full":
            plan = make_plan(48, 8, seed=37)
            path = solve_path(data, kspec, lams, plan, 10)
            singles = {
                lam: solve_full(data, kspec, lam, plan, 10) for lam in lams
            }
        elif method == "nystrom":
            plan = make_plan(16, 4, seed=38)
            path = solve_path(
                data, kspec, lams, plan, 10, p=16, gamma=1e-6, landmark_seed=39
            )
            singles = {
                lam: solve_nystrom(
                    data, kspec, 16, lam, 1e-6, plan, 10, landmark_seed=39
                )
                for lam in lams
            }
        else:
            fspec = FeatureMapSpec(p=16, sigma=2.0, master_seed=40)
            plan = make_plan(16, 4, seed=41)
            path = solve_path(data, fspec, lams, plan, 10)
            singles = {lam: solve_rf(data, fspec, lam, plan, 10) for lam in lams}
        for lam in lams:
            pm, pt = path[lam]
            sm, st = singles[lam]
            assert np.max(np.abs(pm.coefficients - sm.coefficients)) <= 1e-10
            assert np.array_equal(pt.objectives(), st.objectives())

    def test_path_generates_blocks_once(self):
        data = gaussian_blobs(64, 4, 2, seed=42)
        fspec = FeatureMapSpec(p=32, sigma=2.0, master_seed=43)
        plan = make_plan(32, 8, seed=44)
        lams = [1e-3, 1e-2, 1e-1]
        led_path = CostLedger()
        solve_path(
            data, fspec, lams, plan, 8, exec_ctx=ExecContext(1, led_path)
        )
        led_single = CostLedger()
        solve_rf(data, fspec, 1e-2, plan, 8, exec_ctx=ExecContext(1, led_single))
        assert (
            led_path.phase_flops()["generation"]
            == led_single.phase_flops()["generation"]
        )
        assert led_path.phase_flops()["gram"] == led_single.phase_flops()["gram"]
        # per-lambda work does scale with the number of lambdas
        assert (
            led_path.phase_flops()["solve"]
            == len(lams) * led_single.phase_flops()["solve"]
        )

    def test_duplicate_lambdas_rejected(self):
        data = gaussian_blobs(16, 2, 2, seed=45)
        fspec = FeatureMapSpec(p=8, sigma=1.0, master_seed=46)
        with pytest.raises(ConfigError):
            solve_path(data, fspec, [1e-2, 1e-2], make_plan(8, 4, 0), 2)


class TestPredict:
    def test_full_single_coefficient(self):
        rng = np.random.default_rng(47)
        x = rng.standard_normal((6, 3))
        kspec = KernelSpec("rbf", sigma=1.5)
        coef = np.zeros((6, 1))
        coef[0, 0] = 1.0
        model = Model(method="full", coefficients=coef, kernel=kspec, anchors=x)
        probe = rng.standard_normal((4, 3))
        scores = predict(model, probe)
        for i in range(4):
            expected = np.exp(-np.sum((probe[i] - x[0]) ** 2) / (2 * 1.5**2))
            assert scores[i, 0] == pytest.approx(expected, rel=1e-14)

    def test_rf_predict_on_train_equals_zw(self):
        data = gaussian_blobs(32, 4, 2, seed=48)
        fspec = FeatureMapSpec(p=16, sigma=2.0, master_seed=49)
        plan = make_plan(16, 4, seed=50)
        model, _ = solve_rf(data, fspec, 1e-2, plan, 10)
        z = random_features_block(data.X, np.arange(16), fspec)
        assert np.allclose(
            predict(model, data.X), z @ model.coefficients, atol=1e-12
        )

    def test_nystrom_against_definition(self):
        data = gaussian_blobs(40, 3, 2, seed=51)
        kspec = KernelSpec("rbf", sigma=2.0)
        plan = make_plan(8, 4, seed=52)
        model, _ = solve_nystrom(
            data, kspec, 8, 1e-2, 1e-6, plan, 20, landmark_seed=53
        )
        rng = np.random.default_rng(54)
        probe = rng.standard_normal((10, 3))
        scores = predict(model, probe)
        for i in range(10):
            row = np.array(
                [
                    np.exp(-np.sum((probe[i] - a) ** 2) / (2 * 2.0**2))
                    for a in model.anchors
                ]
            )
            assert np.allclose(scores[i], row @ model.coefficients, atol=1e-12)

    def test_classify_breaks_ties_low(self):
        scores = np.array([[0.5, 0.5, 0.1], [0.1, 0.2, 0.2]])
        assert np.array_equal(classify(scores), [0, 1])

    def test_feature_dimension_checked(self):
        data = gaussian_blobs(16, 3, 2, seed=92)
        model, _ = solve_full(
            data, KernelSpec("rbf", 2.0), 1e-2, make_plan(16, 4, 93), 2
        )
        from kernelbcd.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            predict(model, np.zeros((4, 5)))

    def test_evaluate_rmse(self):
        data = Dataset(X=np.zeros((2, 1)), labels=[0, 2], k=3)
        model = Model(
            method="full",
            coefficients=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            kernel=KernelSpec("linear"),
            anchors=np.ones((2, 1)),
        )
        # both rows predict class 0: errors (0, 2) -> rmse sqrt(2)
        assert evaluate(model, data, rmse=True) == pytest.approx(np.sqrt(2.0))
        assert evaluate(model, data) == 0.5


class TestObjectives:
    def test_zero_model_values(self):
        data = gaussian_blobs(32, 3, 2, seed=55)
        y = one_vs_all(data)
        K = kernel_cross(data.X, data.X, KernelSpec("rbf", 2.0))
        zeros_full = np.zeros((32, 2))
        assert full_surrogate(zeros_full, K, y, 1e-2) == 0.0
        z = random_features_block(
            data.X, np.arange(8), FeatureMapSpec(p=8, sigma=2.0, master_seed=56)
        )
        w0 = np.zeros((8, 2))
        assert rf_objective(w0, z, y, 1e-2) == pytest.approx(
            np.sum(y * y) / 32
        )

    def test_optimum_beats_perturbations(self):
        rng = np.random.default_rng(57)
        data = gaussian_blobs(32, 3, 2, seed=58)
        y = one_vs_all(data)
        fspec = FeatureMapSpec(p=8, sigma=2.0, master_seed=59)
        z = random_features_block(data.X, np.arange(8), fspec)
        lam = 1e-2
        w_star = np.linalg.solve(z.T @ z + 32 * lam * np.eye(8), z.T @ y)
        best = rf_objective(w_star, z, y, lam)
        for _ in range(20):
            w = w_star + rng.standard_normal(w_star.shape) * rng.uniform(1e-4, 1.0)
            assert rf_objective(w, z, y, lam) >= best

    def test_trace_objective_matches_brute_force(self):
        data = gaussian_blobs(32, 3, 2, seed=60)
        kspec = KernelSpec("rbf", sigma=2.0)
        plan = make_plan(32, 8, seed=61)
        lam = 1e-2
        model, trace = solve_full(data, kspec, lam, plan, 5)
        K = kernel_cross(data.X, data.X, kspec)
        y = one_vs_all(data)
        expected = full_surrogate(model.coefficients, K, y, lam)
        assert trace.records[-1].objective == pytest.approx(expected, rel=1e-10)

    def test_objective_value_dispatcher(self):
        data = gaussian_blobs(32, 3, 2, seed=63)
        kspec = KernelSpec("rbf", sigma=2.0)
        lam = 1e-2
        model, trace = solve_full(data, kspec, lam, make_plan(32, 8, 64), 5)
        assert objective_value(model, data, lam) == pytest.approx(
            trace.records[-1].objective, rel=1e-10
        )
        fspec = FeatureMapSpec(p=8, sigma=2.0, master_seed=65)
        rf_model, rf_trace = solve_rf(data, fspec, lam, make_plan(8, 4, 66), 5)
        assert objective_value(rf_model, data, lam) == pytest.approx(
            rf_trace.records[-1].objective, rel=1e-10
        )

    def test_nystrom_trace_objective_matches_brute_force(self):
        data = gaussian_blobs(32, 3, 2, seed=62)
        kspec = KernelSpec("rbf", sigma=2.0)
        plan = make_plan(16, 4, seed=63)
        lam, gamma = 1e-2, 1e-6
        model, trace = solve_nystrom(
            data, kspec, 16, lam, gamma, plan, 5, landmark_seed=64
        )
        kj = kernel_cross(data.X, data.X[model.landmarks], kspec)
        y = one_vs_all(data)
        expected = nystrom_objective(
            model.coefficients, kj, model.landmarks, y, lam, gamma
        )
        assert trace.records[-1].objective == pytest.approx(expected, rel=1e-9)
        # objective_value is the system's own objective pass, which reads E:
        # the dense formula within 1e-12 of the sum of its terms' magnitudes
        c = model.coefficients
        terms = [np.sum((kj @ c - y) ** 2) / data.n,
                 lam * np.sum(c * (kj @ c)[model.landmarks]), lam * gamma * np.sum(c * c)]
        got = objective_value(model, data, lam, gamma)
        assert abs(got - expected) <= 1e-12 * sum(abs(t) for t in terms)


class TestPrimalDual:
    def test_zero_problem(self):
        z = np.zeros((4, 2))
        assert primal_dual_gap(z, np.zeros((2, 1)), np.zeros((4, 1)), 0.1) == 0.0

    def test_optimum_satisfies_identity(self):
        rng = np.random.default_rng(65)
        n, p = 16, 4
        z = rng.standard_normal((n, p))
        y = rng.standard_normal((n, 1))
        lam = 0.1
        w_star = np.linalg.solve(z.T @ z + n * lam * np.eye(p), z.T @ y)
        assert primal_dual_gap(z, w_star, y, lam) <= 1e-10

    def test_non_optimum_is_positive(self):
        rng = np.random.default_rng(66)
        z = rng.standard_normal((16, 4))
        y = rng.standard_normal((16, 1))
        w = rng.standard_normal((4, 1))
        assert primal_dual_gap(z, w, y, 0.1) > 0.0


class TestInvariants:
    def test_monotone_descent_all_solvers(self):
        data = gaussian_blobs(48, 4, 3, seed=67)
        kspec = KernelSpec("rbf", sigma=2.5)
        fspec = FeatureMapSpec(p=16, sigma=2.5, master_seed=68)
        runs = [
            solve_full(data, kspec, 1e-3, make_plan(48, 8, 69), 15),
            solve_nystrom(
                data, kspec, 16, 1e-3, 1e-6, make_plan(16, 4, 70), 60,
                landmark_seed=71,
            ),
            solve_rf(data, fspec, 1e-3, make_plan(16, 4, 72), 60),
        ]
        for _, trace in runs:
            objs = trace.objectives()
            assert np.all(np.diff(objs) <= 1e-9)

    def test_exact_replay_is_bit_identical(self):
        data = gaussian_blobs(48, 4, 2, seed=73)
        kspec = KernelSpec("rbf", sigma=2.0)
        plan = make_plan(48, 8, seed=74)
        m1, t1 = solve_full(data, kspec, 1e-2, plan, 6)
        m2, t2 = solve_full(data, kspec, 1e-2, plan, 6)
        assert np.array_equal(m1.coefficients, m2.coefficients)
        assert np.array_equal(t1.objectives(), t2.objectives())

    def test_distributed_run_matches_serial(self):
        data = gaussian_blobs(96, 4, 3, seed=103)
        kspec = KernelSpec("rbf", sigma=2.0)
        fspec = FeatureMapSpec(p=24, sigma=2.0, master_seed=104)
        plan_n = make_plan(96, 12, seed=105)
        plan_p = make_plan(24, 6, seed=106)
        serial = [
            solve_full(data, kspec, 1e-2, plan_n, 5)[0],
            solve_nystrom(data, kspec, 24, 1e-2, 1e-6, plan_p, 20, landmark_seed=1)[0],
            solve_rf(data, fspec, 1e-2, plan_p, 20)[0],
        ]
        ctx = ExecContext(workers=5)
        parallel = [
            solve_full(data, kspec, 1e-2, plan_n, 5, exec_ctx=ctx)[0],
            solve_nystrom(
                data, kspec, 24, 1e-2, 1e-6, plan_p, 20, landmark_seed=1,
                exec_ctx=ctx,
            )[0],
            solve_rf(data, fspec, 1e-2, plan_p, 20, exec_ctx=ctx)[0],
        ]
        for s, p in zip(serial, parallel):
            scale = np.linalg.norm(s.coefficients)
            assert np.linalg.norm(s.coefficients - p.coefficients) <= 1e-10 * scale

    def test_trace_csv_values_roundtrip(self, tmp_path):
        data = gaussian_blobs(24, 3, 2, seed=107)
        fspec = FeatureMapSpec(p=8, sigma=2.0, master_seed=108)
        _, trace = solve_rf(data, fspec, 1e-2, make_plan(8, 4, 109), 4)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()[1:]
        parsed = [float(line.split(",")[3]) for line in lines]
        assert parsed == [r.objective for r in trace.records]

    def test_linear_convergence_log_gap(self):
        data = gaussian_blobs(64, 4, 2, seed=75)
        fspec = FeatureMapSpec(p=32, sigma=2.0, master_seed=76)
        plan = make_plan(32, 8, seed=77)
        lam = 1e-2
        _, trace = solve_rf(data, fspec, lam, plan, 60)
        z = random_features_block(data.X, np.arange(32), fspec)
        y = one_vs_all(data)
        w_star = np.linalg.solve(z.T @ z + 64 * lam * np.eye(32), z.T @ y)
        f_star = rf_objective(w_star, z, y, lam)
        gaps = trace.objectives() - f_star
        keep = gaps > 1e-12 * gaps[0]
        log_gap = np.log(gaps[keep])
        t = np.arange(len(log_gap))
        start = len(log_gap) // 5  # final 80 percent
        coeffs = np.polyfit(t[start:], log_gap[start:], 1)
        fit = np.polyval(coeffs, t[start:])
        ss_res = np.sum((log_gap[start:] - fit) ** 2)
        ss_tot = np.sum((log_gap[start:] - log_gap[start:].mean()) ** 2)
        assert 1.0 - ss_res / ss_tot >= 0.95


class TestDenseReference:
    """Straight-line dense replays of each solver's update protocol.

    These rebuild every quantity from the full matrices (explicit
    selector matrices, no maintained residuals), visit each epoch's
    ``epoch_blocks`` in order, and must agree with the engines almost to
    rounding.
    """

    def test_full_matches_dense_replay(self):
        data = gaussian_blobs(40, 3, 2, seed=95)
        kspec = KernelSpec("rbf", sigma=2.0)
        plan = make_plan(40, 8, seed=96)
        lam = 1e-2
        model, _ = solve_full(data, kspec, lam, plan, 4)
        K = kernel_cross(data.X, data.X, kspec)
        y = one_vs_all(data)
        lam_eff = 40 * lam
        alpha = np.zeros_like(y)
        for epoch in range(4):
            for idx in epoch_blocks(plan, epoch):
                kbb = K[np.ix_(idx, idx)]
                resid = K[idx] @ alpha - kbb @ alpha[idx]
                alpha[idx] = np.linalg.solve(
                    kbb + lam_eff * np.eye(len(idx)), y[idx] - resid
                )
        rel = np.linalg.norm(model.coefficients - alpha) / np.linalg.norm(alpha)
        assert rel <= 1e-12

    def test_nystrom_matches_dense_replay(self):
        data = gaussian_blobs(48, 3, 2, seed=97)
        kspec = KernelSpec("rbf", sigma=2.0)
        plan = make_plan(16, 4, seed=98)
        lam, gamma = 1e-2, 1e-6
        model, _ = solve_nystrom(
            data, kspec, 16, lam, gamma, plan, 4, landmark_seed=99
        )
        K = kernel_cross(data.X, data.X, kspec)
        y = one_vs_all(data)
        n, lam_eff = 48, 48 * lam
        landmarks = model.landmarks
        kj = K[:, landmarks]
        alpha = np.zeros((16, y.shape[1]))
        resid = np.zeros_like(y)
        for epoch in range(4):
            for pos in epoch_blocks(plan, epoch):
                rows = landmarks[pos]
                kb = kj[:, pos]
                sb = np.zeros((n, len(pos)))
                sb[rows, np.arange(len(pos))] = 1.0
                resid = resid - (kb + lam_eff * sb) @ alpha[pos]
                kbb = kb[rows]
                system = (
                    kb.T @ kb + lam_eff * kbb + lam_eff * gamma * np.eye(len(pos))
                )
                new = np.linalg.solve(system, kb.T @ (y - resid))
                resid = resid + (kb + lam_eff * sb) @ new
                alpha[pos] = new
        rel = np.linalg.norm(model.coefficients - alpha) / np.linalg.norm(alpha)
        assert rel <= 1e-10

    def test_rf_matches_dense_replay(self):
        data = gaussian_blobs(40, 3, 2, seed=100)
        fspec = FeatureMapSpec(p=16, sigma=2.0, master_seed=101)
        plan = make_plan(16, 4, seed=102)
        lam = 1e-2
        model, _ = solve_rf(data, fspec, lam, plan, 4)
        z = random_features_block(data.X, np.arange(16), fspec)
        y = one_vs_all(data)
        lam_eff = 40 * lam
        w = np.zeros((16, y.shape[1]))
        for epoch in range(4):
            for pos in epoch_blocks(plan, epoch):
                zb = z[:, pos]
                others = zb.T @ (z @ w - zb @ w[pos])
                w[pos] = np.linalg.solve(
                    zb.T @ zb + lam_eff * np.eye(len(pos)),
                    zb.T @ y - others,
                )
        rel = np.linalg.norm(model.coefficients - w) / np.linalg.norm(w)
        assert rel <= 1e-12


class TestModelFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        data = gaussian_blobs(24, 3, 2, seed=78)
        fspec = FeatureMapSpec(p=8, sigma=2.0, master_seed=79)
        model, _ = solve_rf(data, fspec, 1e-2, make_plan(8, 4, 80), 10)
        path = tmp_path / "model.kbcd"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.method == "rf"
        assert np.array_equal(loaded.coefficients, model.coefficients)
        assert loaded.features == model.features

    def test_nystrom_roundtrip(self, tmp_path):
        data = gaussian_blobs(24, 3, 2, seed=81)
        model, _ = solve_nystrom(
            data, KernelSpec("rbf", 2.0), 8, 1e-2, 1e-6,
            make_plan(8, 4, 82), 10, landmark_seed=83,
        )
        path = tmp_path / "model.kbcd"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.coefficients, model.coefficients)
        assert np.array_equal(loaded.anchors, model.anchors)
        assert np.array_equal(loaded.landmarks, model.landmarks)
        probe = np.random.default_rng(84).standard_normal((5, 3))
        assert np.array_equal(predict(loaded, probe), predict(model, probe))

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bogus.kbcd"
        path.write_text("not-a-model\n{}\n")
        with pytest.raises(ConfigError):
            load_model(path)


class TestTraceCsv:
    def test_columns_and_empty_test_error(self, tmp_path):
        data = gaussian_blobs(16, 2, 2, seed=85)
        fspec = FeatureMapSpec(p=8, sigma=2.0, master_seed=86)
        _, trace = solve_rf(data, fspec, 1e-2, make_plan(8, 4, 87), 3)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,block,seconds,objective,test_error"
        assert len(lines) == 1 + len(trace.records)
        assert lines[1].endswith(",")  # no test set -> empty column

    def test_test_error_column_populated(self, tmp_path):
        train = gaussian_blobs(16, 2, 2, seed=88)
        test = gaussian_blobs(8, 2, 2, seed=89)
        fspec = FeatureMapSpec(p=8, sigma=2.0, master_seed=90)
        _, trace = solve_rf(
            train, fspec, 1e-2, make_plan(8, 4, 91), 2, test_data=test
        )
        assert all(r.test_error is not None for r in trace.records)

    def test_array_lambdas_write_plain_floats(self, tmp_path):
        # a numpy lambda array makes the objectives np.float64, whose repr
        # is "np.float64(...)" under numpy >= 2
        train = gaussian_blobs(16, 2, 2, seed=88)
        test = gaussian_blobs(8, 2, 2, seed=89)
        fspec = FeatureMapSpec(p=8, sigma=2.0, master_seed=90)
        path_result = solve_path(
            train, fspec, np.array([1e-2, 1e-1]), make_plan(8, 4, 91), 2,
            test_data=test,
        )
        for _, trace in path_result.values():
            path = tmp_path / "trace.csv"
            trace.write_csv(path)
            rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
            assert len(rows) == len(trace.records)
            for row, r in zip(rows, trace.records):
                values = [float(v) for v in row]
                assert values[3:] == [r.objective, r.test_error]


@pytest.mark.parametrize("method", ["full", "nystrom", "rf"])
def test_engine_residual_check_and_grad_tol_stop(method):
    # one engine serves all three methods: its residual check passes on a
    # consistent block source, catches one that does not repeat, and its
    # grad_tol stop leaves the dense normal-equation residual within tol
    data = gaussian_blobs(32, 3, 2, seed=95)
    kspec = KernelSpec("rbf", sigma=2.0)
    lam, gamma, tol, epochs = 0.1, 1.0, 1e-6, 200
    if method == "full":
        plan = make_plan(32, 8, seed=96)

        def source(idx):
            return kernel_cross(data.X, data.X[idx], kspec)

        def run(**kw):
            return _run_spec(data, kspec, [lam], plan, epochs, **kw)
    elif method == "nystrom":
        plan = make_plan(16, 4, seed=96)
        landmarks = draw_landmarks(32, 16, seed=97)

        def source(pos):
            return kernel_cross(data.X, data.X[landmarks[pos]], kspec)

        def run(**kw):
            return _run_spec(
                data, kspec, [lam], plan, epochs,
                p=16, gamma=gamma, landmark_seed=97, **kw,
            )
    else:
        fspec = FeatureMapSpec(p=16, sigma=2.0, master_seed=98)
        plan = make_plan(16, 4, seed=96)

        def source(pos):
            return random_features_block(data.X, pos, fspec)

        def run(**kw):
            return _run_spec(data, fspec, [lam], plan, epochs, **kw)

    [(model, trace)] = run(block_fn=source, check_residual=True, grad_tol=tol)
    assert trace.records[-1].epoch < epochs - 1  # the stop fired
    assert normal_equation_residual(model, data, lam, gamma) <= tol

    rng = np.random.default_rng(99)

    def rescaled_source(pos):
        # positive rescaling keeps every block system SPD, but the block
        # differs on each call
        return rng.uniform(0.5, 1.5) * source(pos)

    with pytest.raises(DivergenceError):
        run(block_fn=rescaled_source, check_residual=True)


@settings(max_examples=60, deadline=None)
@given(
    method=st.sampled_from(["full", "nystrom", "rf"]),
    family=st.sampled_from(["rbf", "linear"]),
    lam=st.floats(1e-6, 10.0),
    gamma=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**16),
)
def test_normal_equation_residual_matches_the_dense_oracle(method, family, lam, gamma, seed):
    # the diagnostic reads the block systems; the oracle restates each
    # method's normal equation densely, at coefficients far from converged
    data = gaussian_blobs(24, 3, 3, seed=seed % 97)
    rng = np.random.default_rng(seed)
    kspec = KernelSpec(family, 2.0)
    if method == "full":
        model = Model("full", rng.standard_normal((24, 3)), kernel=kspec, anchors=data.X)
    elif method == "nystrom":
        landmarks = draw_landmarks(24, 8, seed)
        model = Model("nystrom", rng.standard_normal((8, 3)), kernel=kspec,
                      anchors=data.X[landmarks], landmarks=landmarks)
    else:
        model = Model("rf", rng.standard_normal((8, 3)),
                      features=FeatureMapSpec(8, 2.0, master_seed=seed), dim=3)
    got = normal_equation_residual(model, data, lam, gamma)
    assert got == pytest.approx(dense_normal_equation_residual(model, data, lam, gamma),
                                rel=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [1e300, 10**300], ids=["float", "int"])
def test_normal_equation_residual_of_finite_gradients_whose_squares_overflow(lam):
    # the gradient (K + n lam I) a - Y at a = 1 is n lam = 3.2e301 in every
    # entry to rounding: its squares overflow, its norm and the ratio do not
    data = gaussian_blobs(32, 2, 2, seed=0)
    model = Model("full", np.ones((32, 2)), kernel=KernelSpec("rbf", 1.0), anchors=data.X)
    expected = 32e300 * np.sqrt(64) / np.linalg.norm(one_vs_all(data))
    assert normal_equation_residual(model, data, lam) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("lam", [np.inf, np.nan])
def test_non_finite_lambda_rejected(lam):
    data = gaussian_blobs(16, 2, 2, seed=47)
    fspec = FeatureMapSpec(p=8, sigma=1.0, master_seed=48)
    with pytest.raises(ConfigError, match="positive and finite"):
        solve_rf(data, fspec, lam, make_plan(8, 4, 0), 2)


def _stop_case(method):
    """A small problem per method whose grad_tol stop fires well before
    200 epochs, with its counting block source and an engine runner."""
    data = gaussian_blobs(32, 3, 2, seed=95)
    kspec = KernelSpec("rbf", sigma=2.0)
    fspec = FeatureMapSpec(p=16, sigma=2.0, master_seed=98)
    landmarks = draw_landmarks(32, 16, seed=97)
    calls = []

    def source(pos):
        calls.append(1)
        if method == "full":
            return kernel_cross(data.X, data.X[pos], kspec)
        if method == "nystrom":
            return kernel_cross(data.X, data.X[landmarks[pos]], kspec)
        return random_features_block(data.X, pos, fspec)

    plan = make_plan(32, 8, seed=96) if method == "full" else make_plan(16, 4, seed=96)

    def run(lams, epochs, **kw):
        if method == "full":
            return _run_spec(data, kspec, lams, plan, epochs, block_fn=source, **kw)
        if method == "nystrom":
            return _run_spec(
                data, kspec, lams, plan, epochs, p=16, gamma=1.0, landmark_seed=97,
                block_fn=source, **kw,
            )
        return _run_spec(data, fspec, lams, plan, epochs, block_fn=source, **kw)

    return plan, calls, run


def _values(results, ledger):
    """Everything a run returns but the seconds fields."""
    runs = [
        (model.coefficients.tobytes(),
         [(r.epoch, r.block, r.objective, r.test_error) for r in trace.records])
        for model, trace in results
    ]
    if ledger is None:
        return runs, None
    return runs, [(r.epoch, r.block, r.phase, r.flops, r.nbytes) for r in ledger.records]


@pytest.mark.parametrize("with_ledger", [False, True], ids=["plain", "ledger"])
@pytest.mark.parametrize("lams", [[0.1], [0.1, 0.03, 0.3]], ids=["1lam", "3lam"])
@pytest.mark.parametrize("method", ["full", "nystrom", "rf"])
def test_grad_tol_stop_equals_fixed_epoch_run(method, lams, with_ledger, monkeypatch):
    # a grad_tol run returns exactly what a run of epochs_run epochs
    # returns; nystrom and rf check on the next sweep's blocks, so a stop
    # costs one sweep of generation, plus one for each predicted stop whose
    # check-only sweep failed, and full checks with no blocks
    plan, calls, run = _stop_case(method)
    predictions = []
    real = solvers._predicts_pass
    monkeypatch.setattr(solvers, "_predicts_pass",
                        lambda *a: predictions.append(real(*a)) or predictions[-1])

    def ctx():
        return ExecContext(3, CostLedger()) if with_ledger else None

    stop_ctx = ctx()
    stopped = run(lams, 200, grad_tol=1e-6, exec_ctx=stop_ctx)
    epochs_run = stopped[0][1].records[-1].epoch + 1
    assert epochs_run < 200  # the stop fired
    generated = len(calls)
    # one prediction per check, the last check the one that passed
    assert len(predictions) == (0 if method == "full" else epochs_run)
    failed_check_only = sum(predictions[:-1])
    extra_sweeps = 0 if method == "full" else 1 + failed_check_only
    assert generated == (epochs_run + extra_sweeps) * plan.n_blocks

    fixed_ctx = ctx()
    fixed = run(lams, epochs_run, exec_ctx=fixed_ctx)
    assert len(calls) - generated == epochs_run * plan.n_blocks
    stop_ledger = stop_ctx.ledger if with_ledger else None
    fixed_ledger = fixed_ctx.ledger if with_ledger else None
    assert _values(stopped, stop_ledger) == _values(fixed, fixed_ledger)


class _FaultAfter:
    """A system that behaves like ``system`` for ``after`` updates, then
    faults on every later one: ``nan`` poisons the maintained residual
    (the descent guard raises ``DivergenceError``), ``not_spd`` raises
    ``NotSpdError`` before stepping, as the failed solve of a singular
    block system does."""

    def __init__(self, system, after, fault):
        self.system, self.after, self.fault = system, after, fault

    def __getattr__(self, name):
        return getattr(self.system, name)

    def update(self, batch, *args):
        self.after -= 1
        if self.after < 0 and self.fault == "not_spd":
            raise NotSpdError("block system is not positive definite")
        seconds = self.system.update(batch, *args)
        if self.after < 0:
            batch.resid[:] = np.nan
        return seconds


@pytest.mark.parametrize("fault", ["nan", "not_spd"])
@pytest.mark.parametrize("method", ["nystrom", "rf"])
def test_fault_in_discarded_sweep_does_not_raise(method, fault):
    # the sweep that finishes an epoch end's check is discarded when the
    # check passes, so a fault in its updates must not change the result;
    # a fault in a sweep whose pending check fails still propagates
    data = gaussian_blobs(32, 3, 2, seed=95)
    kspec = KernelSpec("rbf", sigma=2.0)
    fspec = FeatureMapSpec(p=16, sigma=2.0, master_seed=98)
    landmarks = draw_landmarks(32, 16, seed=97)
    plan = make_plan(16, 4, seed=96)
    Y = one_vs_all(data)

    zeros = np.zeros((16, data.k))
    if method == "nystrom":
        model = Model("nystrom", zeros, kernel=kspec, anchors=data.X[landmarks],
                      landmarks=landmarks)
    else:
        model = Model("rf", zeros, features=fspec, dim=data.d)

    def system():
        if method == "nystrom":
            return _GramSystem(
                Y, 4,
                lambda pos, out: kernel_cross(data.X, data.X[landmarks[pos]], kspec, out=out),
                landmarks=landmarks, gamma=1.0,
            )
        return _GramSystem(
            Y, 4, lambda pos, out: random_features_block(data.X, pos, fspec, out=out)
        )

    def run(sys_):
        ledger = CostLedger()
        results = _run(data, sys_, model, [0.1], plan, 200, grad_tol=1e-6,
                       exec_ctx=ExecContext(1, ledger))
        return results[0][1].records[-1].epoch + 1, _values(results, ledger)

    clean = run(system())
    epochs_run = clean[0]
    assert 2 <= epochs_run < 200
    nb = plan.n_blocks
    assert run(_FaultAfter(system(), epochs_run * nb, fault)) == clean
    error = DivergenceError if fault == "nan" else NotSpdError
    with pytest.raises(error):
        run(_FaultAfter(system(), (epochs_run - 1) * nb, fault))


def test_descent_guard_scales_with_objective():
    # lambda = 1e-12 with a linear kernel drives the surrogate to -8e5,
    # where rounding lifts it by 1.2e-9: not a divergence
    data = gaussian_blobs(64, 32, 10, seed=1)
    _, trace = solve_full(
        data, KernelSpec("linear"), 1e-12, make_plan(64, 32, seed=1), 400
    )
    assert len(trace.records) == 800


@pytest.mark.parametrize("prev", [5.0, -3.0, 0.25, 0.0])
def test_descent_guard_raises_just_past_its_tolerance(prev):
    # README: a rise beyond 1e-9 times max(1, |objective|) raises; the
    # literal, not DESCENT_TOL, so a loosened constant fails here
    allowed = 1e-9 * max(1.0, abs(prev))
    _guard_descent(prev, prev + 0.99 * allowed)
    with pytest.raises(DivergenceError, match="increased"):
        _guard_descent(prev, prev + 1.01 * allowed)


@pytest.mark.parametrize("scale", [1e3, 1.0, 1e-3])
def test_residual_check_raises_just_past_its_drift_limit(scale):
    # README: check_residual raises once the maintained E drifts more than
    # 1e-8 from its recomputation, relative to (K_J + n lam S_J) a = E + Y
    Y = np.array([[1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    fresh = np.array([[0.6, 0.0], [0.8, 0.0], [0.0, 0.0]]) * scale - Y
    for factor, raises in ((0.99, False), (1.01, True)):
        maintained = fresh.copy()
        maintained[2, 1] += factor * 1e-8 * scale
        if raises:
            with pytest.raises(DivergenceError, match="drifted"):
                _assert_residual(fresh, maintained, Y)
        else:
            _assert_residual(fresh, maintained, Y)


def test_grad_tol_check_passes_a_residual_exactly_at_its_bound():
    # README: the check passes once the relative residual is at most T, so
    # a residual norm of exactly T ||rhs|| passes and one a hair over fails:
    # ||grad|| = ||(3, 4)|| = 5 against T ||Y|| = 2.5 * 2, all exact
    Y = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    system = _FullSystem(Y, 2, None)
    batch = _Batch([0.5], np.zeros((4, 1)), np.array([[3.0], [4.0], [0.0], [0.0]]), 4)
    check = _PendingCheck(system, batch, [ConvergenceTrace()], 0,
                          np.array([[0, 1], [2, 3]]), CostLedger())
    assert check.passed(2.5)
    assert system.rhs_norm == 2.0
    assert not check.passed(np.nextafter(2.5, 0.0))


def test_grad_tol_check_keeps_the_largest_residual_norm():
    # two lambdas side by side, full's gradient read off E: residual norms
    # 5 and 13 keep 13, and a NaN in either keeps NaN, which fails
    Y = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    resid = np.array([[3.0, 5.0], [4.0, 12.0], [0.0, 0.0], [0.0, 0.0]])
    for flip in (False, True):
        r = (resid[:, ::-1] if flip else resid).copy()
        batch = _Batch([0.5, 0.25], np.zeros((4, 2)), r.copy(), 4)
        check = _PendingCheck(_FullSystem(Y, 2, None), batch, [ConvergenceTrace()] * 2, 0,
                              np.array([[0, 1], [2, 3]]), CostLedger())
        assert check.passed(6.5) and check.worst == 13.0
        assert not check.passed(np.nextafter(6.5, 0.0))
        r[2, 1] = np.nan
        batch = _Batch([0.5, 0.25], np.zeros((4, 2)), r.copy(), 4)
        check = _PendingCheck(_FullSystem(Y, 2, None), batch, [ConvergenceTrace()] * 2, 0,
                              np.array([[0, 1], [2, 3]]), CostLedger())
        assert not check.passed(1e300) and np.isnan(check.worst)


def test_grad_tol_check_is_relative_at_every_scale():
    # a linear-kernel nystrom problem with X scaled by 2**-60 and lambda and
    # gamma by 2**-120 is the same problem, every product scaled by a power
    # of two: coefficients scale by 2**120 exactly, objectives are equal,
    # and the relative check stops at the same epoch although the
    # right-hand side's norm is below 1e-30
    data = gaussian_blobs(64, 8, 3, seed=5)
    small = Dataset(X=data.X * 2.0**-60, labels=data.labels, k=data.k)
    kspec, plan, t = KernelSpec("linear"), make_plan(16, 4, seed=6), 2.0**-120
    base = solve_nystrom(data, kspec, 16, 1e-2, 1e-3, plan, 60, grad_tol=1e-6)
    scaled = solve_nystrom(small, kspec, 16, 1e-2 * t, 1e-3 * t, plan, 60, grad_tol=1e-6)
    epochs = base[1].records[-1].epoch + 1
    assert 2 <= epochs < 60  # several checks fail before one passes
    assert scaled[1].records[-1].epoch + 1 == epochs
    assert np.array_equal(scaled[0].coefficients * t, base[0].coefficients)
    assert scaled[1].objectives().tobytes() == base[1].objectives().tobytes()
    kj = scaled[0].columns(small.X)
    assert np.linalg.norm(kj.T @ one_vs_all(small)) < 1e-30


def test_a_zero_right_hand_side_stops_at_the_first_check_without_a_warning():
    # a linear kernel on all-zero X gives K_J = 0, so ||K_J^T Y|| = 0 and
    # every gradient is 0: the first check passes (0 <= tol * 0) with no
    # ZeroDivisionError and no warning, which the test settings make errors
    data = Dataset(X=np.zeros((32, 3)), labels=np.arange(32) % 2, k=2)
    model, trace = solve_nystrom(data, KernelSpec("linear"), 16, 1e-2, 1e-3,
                                 make_plan(16, 4, seed=1), 10, grad_tol=1e-3)
    assert trace.records[-1].epoch == 0
    assert not model.coefficients.any()


def test_stop_prediction_needs_two_checks_and_no_division():
    predicts = solvers._predicts_pass
    assert not predicts([], 0.5, 1.0)
    assert not predicts([0.0], 0.5, 1.0)
    assert predicts([4.0, 2.0], 1.0, 1.0)  # 2 * 2 <= 1 * 4 * 1, exactly at the bound
    assert not predicts([4.0, 2.0], np.nextafter(1.0, 0.0), 1.0)
    # a zero right-hand side predicts nothing unless the last norm is 0
    assert not predicts([4.0, 2.0], 0.5, 0.0)
    assert not predicts([0.0, 1.0], 0.5, 3.0)
    nan = float("nan")
    for worst, rhs in (([nan, 1.0], 1.0), ([4.0, nan], 1.0), ([4.0, 1.0], nan)):
        assert not predicts(worst, 0.5, rhs)
    # only the last two failed checks count
    assert predicts([1.0, 1e-9, 4.0, 2.0], 1.0, 1.0)
    assert not predicts([4.0, 2.0, 1.0, 1.0], 0.5, 1.0)


def test_grad_tol_prediction_is_relative_at_every_scale(monkeypatch):
    # the scaled problem above predicts exactly the unscaled one's stops:
    # its norms are the unscaled ones times powers of two, and so is the
    # predictor's each side, with no division
    data = gaussian_blobs(64, 8, 3, seed=5)
    small = Dataset(X=data.X * 2.0**-60, labels=data.labels, k=data.k)
    kspec, plan, t = KernelSpec("linear"), make_plan(16, 4, seed=6), 2.0**-120
    real = solvers._predicts_pass
    made = {}
    for name, d, scale in (("base", data, 1.0), ("scaled", small, t)):
        made[name] = []
        monkeypatch.setattr(solvers, "_predicts_pass",
                            lambda *a: made[name].append(real(*a)) or made[name][-1])
        solve_nystrom(d, kspec, 16, 1e-2 * scale, 1e-3 * scale, plan, 60, grad_tol=1e-6)
    assert made["scaled"] == made["base"]
    assert any(made["base"])


def test_rf_model_records_input_width(tmp_path):
    data = gaussian_blobs(24, 3, 2, seed=78)
    fspec = FeatureMapSpec(p=8, sigma=2.0, master_seed=79)
    model, _ = solve_rf(data, fspec, 1e-2, make_plan(8, 4, 80), 10)
    assert model.dim == 3
    path = tmp_path / "model.kbcd"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.dim == 3
    assert np.array_equal(predict(loaded, data.X), predict(model, data.X))
    for width in (2, 4):
        with pytest.raises(DimensionMismatchError):
            predict(loaded, np.zeros((5, width)))


def test_rf_model_file_without_width_loads_unchecked(tmp_path):
    data = gaussian_blobs(24, 3, 2, seed=78)
    fspec = FeatureMapSpec(p=8, sigma=2.0, master_seed=79)
    model, _ = solve_rf(data, fspec, 1e-2, make_plan(8, 4, 80), 10)
    path = tmp_path / "model.kbcd"
    save_model(model, path)
    magic, body = path.read_text().split("\n", 1)
    payload = json.loads(body)
    del payload["dim"]
    path.write_text(magic + "\n" + json.dumps(payload) + "\n")
    loaded = load_model(path)
    assert loaded.dim is None
    assert np.array_equal(predict(loaded, data.X), predict(model, data.X))
    assert predict(loaded, np.zeros((5, 4))).shape == (5, 2)


@pytest.mark.parametrize("method", ["full", "nystrom", "rf"])
def test_model_columns_is_the_explicit_block(method, tmp_path):
    # the column map equals the explicit kernel/feature formula, for every
    # column and for a subset, before and after a save/load round trip
    data = gaussian_blobs(24, 3, 2, seed=100)
    kspec = KernelSpec("rbf", sigma=2.0)
    fspec = FeatureMapSpec(p=8, sigma=2.0, master_seed=101)
    if method == "full":
        model, _ = solve_full(data, kspec, 1e-2, make_plan(24, 4, 102), 3)
    elif method == "nystrom":
        model, _ = solve_nystrom(
            data, kspec, 8, 1e-2, 1.0, make_plan(8, 4, 102), 3, landmark_seed=103
        )
    else:
        model, _ = solve_rf(data, fspec, 1e-2, make_plan(8, 4, 102), 3)
    x = np.random.default_rng(104).standard_normal((5, 3))
    cols = np.array([6, 1, 3])

    def explicit(cols):
        if method == "rf":
            return random_features_block(x, np.arange(8)[cols], fspec)
        rows = np.arange(24) if method == "full" else model.landmarks
        return kernel_cross(x, data.X[rows[cols]], kspec)

    path = tmp_path / "model.kbcd"
    save_model(model, path)
    for m in (model, load_model(path)):
        assert np.array_equal(m.columns(x), explicit(slice(None)))
        assert np.array_equal(m.columns(x, cols), explicit(cols))


@pytest.mark.parametrize(
    "entry, spec, expected",
    [
        (lambda d, s, plan: solve_full(d, s, 0.1, plan, 2),
         FeatureMapSpec(8, 2.0), "KernelSpec"),
        (lambda d, s, plan: solve_nystrom(d, s, 8, 0.1, 1e-3, plan, 2),
         FeatureMapSpec(8, 2.0), "KernelSpec"),
        (lambda d, s, plan: solve_rf(d, s, 0.1, plan, 2),
         KernelSpec("rbf", 2.0), "FeatureMapSpec"),
    ],
    ids=["full", "nystrom", "rf"],
)
def test_entry_point_rejects_the_other_spec_type(entry, spec, expected):
    data = gaussian_blobs(32, 3, 2, seed=1)
    with pytest.raises(ConfigError, match=f"expected a {expected}"):
        entry(data, spec, make_plan(8, 4))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(epochs=2.5), "epochs must be an integer"),
        (dict(epochs="3"), "epochs must be an integer"),
        (dict(epochs=2, grad_tol="1e-3"), "grad_tol must be a real number"),
        (dict(epochs=2, grad_tol=[1e-3]), "grad_tol must be a real number"),
        (dict(epochs=2, grad_tol=1j), "grad_tol must be a real number"),
    ],
)
def test_run_rejects_mistyped_epochs_and_grad_tol(kwargs, message):
    data = gaussian_blobs(16, 3, 2, seed=1)
    fspec = FeatureMapSpec(p=8, sigma=2.0, master_seed=3)
    epochs = kwargs.pop("epochs")
    with pytest.raises(ConfigError, match=message):
        solve_rf(data, fspec, 0.1, make_plan(8, 4), epochs, **kwargs)


@pytest.mark.parametrize("value", ["0.1", None, 1j])
@pytest.mark.parametrize("name", ["lambda", "gamma"])
def test_non_real_lambda_or_gamma_is_config_error(name, value):
    # a comparison with a string, None or a complex number would raise a
    # bare TypeError
    data = gaussian_blobs(16, 3, 2, seed=1)
    lam, gamma = (value, 1e-3) if name == "lambda" else (0.1, value)
    with pytest.raises(ConfigError, match=f"{name} must be a real number"):
        solve_nystrom(data, KernelSpec("rbf", 2.0), 8, lam, gamma, make_plan(8, 4), 2)
    if name == "lambda":
        with pytest.raises(ConfigError, match="lambda must be a real number"):
            solve_path(data, FeatureMapSpec(8, 2.0), [0.1, value], make_plan(8, 4), 2)


@pytest.mark.parametrize(
    "args, message",
    [
        ((16, 8, -1), "landmark seed must be >= 0"),
        ((16, 8, 2.5), "landmark seed must be an integer"),
        ((16, 8.0, 0), "landmark count must be an integer"),
        ((16, -8, 0), "landmark count must be >= 0"),
        ((16.0, 8, 0), "row count must be an integer"),
        ((16, 17, 0), r"landmark count must lie in \[1, 16\]"),
    ],
)
def test_draw_landmarks_refuses_bad_inputs_with_config_error(args, message):
    with pytest.raises(ConfigError, match=message):
        draw_landmarks(*args)


@pytest.mark.parametrize("seed, message", [(-1, "must be >= 0"), (2.5, "must be an integer")])
def test_solve_nystrom_refuses_a_bad_landmark_seed(seed, message):
    data = gaussian_blobs(16, 3, 2, seed=1)
    with pytest.raises(ConfigError, match=f"landmark seed {message}"):
        solve_nystrom(data, KernelSpec("rbf", 2.0), 8, 0.1, 1e-3, make_plan(8, 4), 1,
                      landmark_seed=seed)


def test_run_takes_numpy_integer_epochs_and_tolerance():
    data = gaussian_blobs(16, 3, 2, seed=1)
    fspec = FeatureMapSpec(p=8, sigma=2.0, master_seed=3)
    plan = make_plan(8, 4)
    ref, _ = solve_rf(data, fspec, 0.1, plan, 2, grad_tol=1e-12)
    model, _ = solve_rf(data, fspec, 0.1, plan, np.int64(2), grad_tol=np.float64(1e-12))
    assert np.array_equal(model.coefficients, ref.coefficients)


@pytest.mark.parametrize("method", ["full", "nystrom", "rf"])
def test_wrong_width_is_refused_before_any_visit(method):
    # the column map is the one width check: predict, both dense
    # diagnostics and a run's test set share it, and the test set is
    # checked before the first block is generated, even with epochs=0
    plan, calls, run = _stop_case(method)
    [(model, _)] = run([0.1], 1)
    wide = gaussian_blobs(8, 5, 2, seed=110)
    with pytest.raises(DimensionMismatchError):
        predict(model, wide.X)
    with pytest.raises(DimensionMismatchError):
        objective_value(model, wide, 0.1, 1.0)
    with pytest.raises(DimensionMismatchError):
        normal_equation_residual(model, wide, 0.1, 1.0)
    del calls[:]
    for epochs in (0, 1):
        with pytest.raises(DimensionMismatchError):
            run([0.1], epochs, test_data=wide)
    assert calls == []


@pytest.mark.parametrize("epochs", [0, 3])
@pytest.mark.parametrize("method", ["full", "nystrom", "rf"])
def test_run_generates_the_test_block_once(method, epochs, monkeypatch):
    # count the column generators' calls at the test rows, over the
    # sweeps, the grad_tol check sweeps and the residual checks
    test = gaussian_blobs(11, 3, 2, seed=111)
    counts = []
    for name in ("kernel_cross", "random_features_block"):
        def counted(X, *args, real=getattr(solvers, name), **kwargs):
            if len(X) == test.n:
                counts.append(name)
            return real(X, *args, **kwargs)

        monkeypatch.setattr(solvers, name, counted)
    _, _, run = _stop_case(method)
    run([0.1, 0.03, 0.3], epochs, test_data=test, grad_tol=1e-12,
        check_residual=True)
    assert len(counts) == 1


@pytest.mark.parametrize("rmse", [False, True], ids=["error", "rmse"])
@pytest.mark.parametrize("lams", [[0.1], [0.1, 0.03, 0.3]], ids=["1lam", "3lam"])
@pytest.mark.parametrize("method", ["full", "nystrom", "rf"])
def test_last_test_error_is_evaluate(method, lams, rmse):
    # a grad_tol stop ends on the epoch-end batch, whose test errors are
    # the ones the trace kept; each equals evaluate bit for bit
    test = gaussian_blobs(24, 3, 2, seed=112)
    _, _, run = _stop_case(method)
    results = run(lams, 200, test_data=test, grad_tol=1e-6, rmse=rmse)
    for model, trace in results:
        assert trace.records[-1].epoch < 199  # the stop fired
        assert trace.records[-1].test_error == evaluate(model, test, rmse=rmse)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), d=st.integers(1, 3), p=st.integers(1, 8),
       log_scale=st.floats(-3.0, 8.0), seed=st.integers(0, 2**32 - 1))
@example(n=1, d=2, p=2, log_scale=8.0, seed=1)
@example(n=1, d=1, p=1, log_scale=8.0, seed=0)
def test_rf_columns_gathered_from_the_draw_equal_a_fresh_draw(n, d, p, log_scale, seed):
    # any column subset, in any order, gathered from the model's one draw is
    # byte for byte the block a bare spec draws for those columns, also for
    # arguments past 2**22 turns; the gathered frequencies reach the GEMM
    # C-contiguous, as a block's own draw does
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * 10.0**log_scale
    spec = FeatureMapSpec(p=p, sigma=float(rng.uniform(0.5, 3.0)), master_seed=seed)
    model = Model("rf", np.zeros((p, 1)), features=spec, dim=d)
    cols = rng.permutation(p)[: rng.integers(0, p + 1)]
    handed = []
    entries = kernels._entries

    def recording(X, freqs, *args):
        handed.append(freqs)
        return entries(X, freqs, *args)

    with mock.patch.object(kernels, "_entries", recording):
        gathered = model.columns(X, cols)
        fresh = random_features_block(X, cols, spec)
    assert gathered.shape == fresh.shape == (n, cols.size)
    assert gathered.tobytes() == fresh.tobytes()
    assert len(handed) == 2 and all(f.flags.c_contiguous for f in handed)
    assert handed[0].tobytes() == handed[1].tobytes()


def _counting_draws():
    """A patch of ``kernels._block_params`` that counts its calls."""
    calls = []
    draw = kernels._block_params

    def counted(*args, **kwargs):
        calls.append(args[1].size)
        return draw(*args, **kwargs)

    return mock.patch.object(kernels, "_block_params", counted), calls


class TestOneFeatureDraw:
    def test_a_run_draws_its_features_once(self):
        # the rf_to_tol shape at a smaller n: 16 blocks of 64 columns a
        # sweep, stopped by grad_tol after several sweeps, draw once
        data = gaussian_blobs(512, 32, 10, seed=1)
        spec = FeatureMapSpec(p=1024, sigma=4.0, master_seed=22)
        patch, calls = _counting_draws()
        with patch:
            _, trace = solve_rf(data, spec, 1e-3, make_plan(1024, 64, seed=21), 40,
                                grad_tol=1e-2)
        assert trace.records[-1].epoch >= 1
        assert calls == [1024]

    def test_zero_epochs_draw_nothing(self):
        data = gaussian_blobs(32, 3, 2, seed=1)
        patch, calls = _counting_draws()
        with patch:
            solve_rf(data, FeatureMapSpec(16, 2.0), 0.1, make_plan(16, 4), 0)
        assert calls == []

    def test_the_draw_is_in_no_file_repr_or_equality(self, tmp_path):
        data = gaussian_blobs(24, 3, 2, seed=78)
        model, _ = solve_rf(data, FeatureMapSpec(8, 2.0, 79), 1e-2, make_plan(8, 4, 80), 3)
        undrawn = dataclasses.replace(model)
        predict(model, data.X)  # draws
        assert model._draws and not undrawn._draws
        assert repr(model) == repr(undrawn) and model == undrawn
        save_model(model, tmp_path / "drawn.kbcd")
        save_model(undrawn, tmp_path / "undrawn.kbcd")
        assert (tmp_path / "drawn.kbcd").read_bytes() == (tmp_path / "undrawn.kbcd").read_bytes()

    @pytest.mark.parametrize("n_lams", [1, 3])
    def test_a_solve_result_keeps_the_runs_draw(self, n_lams):
        # every model a run returns shares the draw the run made, so its
        # first predict draws nothing, and scores as a model that draws
        data = gaussian_blobs(24, 3, 2, seed=78)
        spec = FeatureMapSpec(8, 2.0, 79)
        lams = [1e-2, 1e-1, 1.0][:n_lams]
        results = solve_path(data, spec, lams, make_plan(8, 4, 80), 3)
        patch, calls = _counting_draws()
        with patch:
            scores = [predict(model, data.X) for model, _ in results.values()]
        assert calls == []
        for (model, _), got in zip(results.values(), scores):
            assert got.tobytes() == predict(dataclasses.replace(model), data.X).tobytes()

    def test_a_loaded_model_draws_on_its_first_predict(self, tmp_path):
        data = gaussian_blobs(24, 3, 2, seed=78)
        model, _ = solve_rf(data, FeatureMapSpec(8, 2.0, 79), 1e-2, make_plan(8, 4, 80), 3)
        save_model(model, tmp_path / "model.kbcd")
        patch, calls = _counting_draws()
        with patch:
            loaded = load_model(tmp_path / "model.kbcd")
            assert calls == []
            first = predict(loaded, data.X)
            assert calls == [8]
            assert predict(loaded, data.X).tobytes() == first.tobytes()
            assert calls == [8]
        assert first.tobytes() == predict(model, data.X).tobytes()

    def test_threads_that_ask_at_once_share_one_draw(self):
        # more threads than cores ask an undrawn model for columns at once,
        # with a short switch interval: one draw, and every block equal
        model = Model("rf", np.zeros((64, 2)), features=FeatureMapSpec(64, 1.5, 5), dim=3)
        x = np.random.default_rng(0).standard_normal((16, 3))
        patch, calls = _counting_draws()
        start = threading.Barrier(8)
        blocks = []

        def ask():
            start.wait(timeout=10)
            blocks.append(model.columns(x, np.arange(64)[::-1]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with patch:
                threads = [threading.Thread(target=ask) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert calls == [64] and len(blocks) == 8
        assert all(b.tobytes() == blocks[0].tobytes() for b in blocks)


def _dense_objective_case(method, n, d, k, lams, seed):
    """A random batch of ``lams`` with its E formed densely, the system it
    belongs to and, per lambda, the dense formula's value and the sum of
    its terms' magnitudes; then the model, its data and its gamma."""
    rng = np.random.default_rng(seed)
    data = Dataset(rng.standard_normal((n, d)), rng.integers(0, k, n), k)
    Y = one_vs_all(data)
    kspec = KernelSpec("rbf", float(rng.uniform(0.5, 3.0)))
    gamma = float(rng.uniform(1e-6, 1.0))
    if method == "full":
        rows = n
        model = Model("full", np.zeros((n, k)), kernel=kspec, anchors=data.X)
    elif method == "nystrom":
        rows = int(rng.integers(1, n + 1))
        landmarks = draw_landmarks(n, rows, seed)
        model = Model("nystrom", np.zeros((rows, k)), kernel=kspec,
                      anchors=data.X[landmarks], landmarks=landmarks)
    else:
        rows = int(rng.integers(1, 12))
        model = Model("rf", np.zeros((rows, k)), features=FeatureMapSpec(rows, 1.5, seed), dim=d)
    kb = model.columns(data.X, at_anchors=True)
    coeffs = rng.standard_normal((rows, len(lams) * k)) * 10.0 ** rng.uniform(-3, 1)
    resid = kb @ coeffs - np.tile(Y, len(lams))
    if method == "nystrom":
        resid[model.landmarks] += np.repeat([n * lam for lam in lams], k) * coeffs
    batch = _Batch(lams, coeffs, resid, n)
    system = solvers._system(model, Y, 1, gamma, None)
    expected, scales = [], []
    for lam, cols in zip(lams, batch.cols):
        c = coeffs[:, cols]
        if method == "full":
            terms = [0.5 * np.sum(c * (kb @ c)), 0.5 * n * lam * np.sum(c * c), -np.sum(Y * c)]
            expected.append(full_surrogate(c, kb, Y, lam))
        elif method == "nystrom":
            r = kb @ c - Y
            terms = [np.sum(r * r) / n, lam * np.sum(c * (kb @ c)[model.landmarks]),
                     lam * gamma * np.sum(c * c)]
            expected.append(nystrom_objective(c, kb, model.landmarks, Y, lam, gamma))
        else:
            terms = [np.sum((kb @ c - Y) ** 2) / n, lam * np.sum(c * c)]
            expected.append(rf_objective(c, kb, Y, lam))
        scales.append(sum(abs(t) for t in terms))
    return system, batch, expected, scales, (model, data, gamma)


@settings(max_examples=120, deadline=None)
@given(method=st.sampled_from(["full", "nystrom", "rf"]), n=st.integers(1, 40),
       d=st.integers(1, 4), k=st.integers(1, 3),
       lams=st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=4, unique=True),
       seed=st.integers(0, 2**32 - 1))
def test_objectives_match_the_dense_formulas(method, n, d, k, lams, seed):
    # one pass over the batch gives each lambda's objective within 1e-12 of
    # the dense formula, relative to the sum of its terms' magnitudes: the
    # objective itself for nystrom and rf, whose terms are non-negative
    system, batch, expected, scales, (model, data, gamma) = _dense_objective_case(
        method, n, d, k, lams, seed)
    objs = system.objectives(batch)
    assert len(objs) == len(lams) and all(type(o) is float for o in objs)
    for obj, want, scale in zip(objs, expected, scales):
        assert abs(obj - want) <= 1e-12 * scale
    # objective_value, the same pass on the dense view at the model's
    # coefficients, holds the first lambda's to the oracle at the same bound
    fitted = dataclasses.replace(model, coefficients=batch.coeffs[:, batch.cols[0]])
    got = objective_value(fitted, data, lams[0], gamma)
    assert abs(got - expected[0]) <= 1e-12 * scales[0]
    # a non-finite entry of one lambda's E makes its objective non-finite,
    # which the descent guard refuses; the other lambdas' stay finite
    last = batch.cols[-1]
    batch.resid[int(seed % n), last.start] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        poisoned = system.objectives(batch)
    assert all(np.isfinite(poisoned[:-1]))
    with pytest.raises(DivergenceError, match="non-finite"):
        _guard_descent(np.inf, poisoned[-1])
