import numpy as np
import pytest

from kernelbcd.distsim import CostLedger, ExecContext
from kernelbcd.errors import ConfigError, DivergenceError
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
    Model,
    classify,
    draw_landmarks,
    epoch_order,
    evaluate,
    full_lsq_objective,
    full_surrogate,
    load_model,
    make_plan,
    normal_equation_residual,
    nystrom_objective,
    predict,
    primal_dual_gap,
    rf_objective,
    save_model,
    solve_full,
    solve_nystrom,
    solve_path,
    solve_rf,
    _run_full,
    _run_nystrom,
    _run_rf,
)


def separated_points_dataset(n, k=2):
    """Integer points one unit apart: with sigma = 1e-3 the rbf kernel
    matrix is exactly the identity (off-diagonal underflows to zero)."""
    X = np.arange(float(n))[:, None]
    labels = np.arange(n) % k
    return Dataset(X=X, labels=labels, k=k)


class TestBlockPlan:
    def test_partition_covers_universe(self):
        plan = make_plan(24, 6, seed=3)
        seen = np.sort(np.concatenate(plan.blocks))
        assert np.array_equal(seen, np.arange(24))
        assert all(len(blk) == 6 for blk in plan.blocks)

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            make_plan(10, 3, seed=0)

    def test_epoch_orders_are_permutations_and_deterministic(self):
        plan = make_plan(40, 5, seed=1)
        orders = [epoch_order(plan, e) for e in range(4)]
        for order in orders:
            assert np.array_equal(np.sort(order), np.arange(8))
        assert np.array_equal(epoch_order(plan, 2), orders[2])
        assert any(not np.array_equal(orders[0], o) for o in orders[1:])

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
        results = _run_rf(
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
            _run_rf(
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
        expected_alt = full_lsq_objective(model.coefficients, K, y, lam)
        assert trace.records[-1].objective_alt == pytest.approx(
            expected_alt, rel=1e-10
        )

    def test_objective_value_dispatcher(self):
        data = gaussian_blobs(32, 3, 2, seed=63)
        kspec = KernelSpec("rbf", sigma=2.0)
        lam = 1e-2
        model, trace = solve_full(data, kspec, lam, make_plan(32, 8, 64), 5)
        from kernelbcd.solvers import objective_value

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
    selector matrices, no maintained residuals), follow the same block
    visit order, and must agree with the engines almost to rounding.
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
            for blk in epoch_order(plan, epoch):
                idx = plan.blocks[blk]
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
            for blk in epoch_order(plan, epoch):
                pos = plan.blocks[blk]
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
            for blk in epoch_order(plan, epoch):
                pos = plan.blocks[blk]
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
            return _run_full(data, kspec, [lam], plan, epochs, **kw)
    elif method == "nystrom":
        plan = make_plan(16, 4, seed=96)
        landmarks = draw_landmarks(32, 16, seed=97)

        def source(pos):
            return kernel_cross(data.X, data.X[landmarks[pos]], kspec)

        def run(**kw):
            return _run_nystrom(data, kspec, 16, [lam], gamma, plan, epochs, 97, **kw)
    else:
        fspec = FeatureMapSpec(p=16, sigma=2.0, master_seed=98)
        plan = make_plan(16, 4, seed=96)

        def source(pos):
            return random_features_block(data.X, pos, fspec)

        def run(**kw):
            return _run_rf(data, fspec, [lam], plan, epochs, **kw)

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
