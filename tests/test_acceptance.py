"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL line
per criterion as it completes.
"""

import math
from time import perf_counter

import numpy as np
import pytest

from kernelbcd.distsim import (
    CostLedger,
    ExecContext,
    distributed_gram,
    make_partition,
    measured_vs_predicted,
    partitioned_matvec,
    predict_costs,
)
from kernelbcd.kernels import (
    FeatureMapSpec,
    KernelSpec,
    gaussian_blobs,
    kernel_cross,
    one_vs_all,
    random_features_block,
)
from kernelbcd.linalg import gram
from kernelbcd.rates import (
    QuadraticProblem,
    adversarial_hessian,
    bcd_iterations_to_tolerance,
    bernstein_lower_rate,
    chernoff_violation_rate,
    conditioning_compare,
    improved_bound,
    monte_carlo_slack,
    rf_concentration_check,
    rf_required_features,
    run_bcd_quadratic,
)
from kernelbcd.solvers import (
    make_plan,
    normal_equation_residual,
    solve_full,
    solve_nystrom,
    solve_path,
    solve_rf,
)
from oracles import primal_dual_gap

LAM = 1e-3


def verdict(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def acceptance_data():
    data = gaussian_blobs(512, 20, 8, seed=7, center_scale=4.0, noise=1.0)
    return data, KernelSpec("rbf", sigma=3.0)


@pytest.fixture(scope="module")
def full_run(acceptance_data):
    data, kspec = acceptance_data
    plan = make_plan(512, 64, seed=3)
    t0 = perf_counter()
    model, trace = solve_full(data, kspec, LAM, plan, 40)
    elapsed = perf_counter() - t0
    K = kernel_cross(data.X, data.X, kspec)
    y = one_vs_all(data)
    oracle = np.linalg.solve(K + 512 * LAM * np.eye(512), y)
    rel = np.linalg.norm(model.coefficients - oracle) / np.linalg.norm(oracle)
    return {"model": model, "trace": trace, "elapsed": elapsed, "rel": rel}


@pytest.fixture(scope="module")
def nystrom_run(acceptance_data):
    data, kspec = acceptance_data
    plan = make_plan(128, 32, seed=3)
    t0 = perf_counter()
    model, trace = solve_nystrom(
        data, kspec, 128, LAM, 1e-6, plan, 4000, landmark_seed=11, grad_tol=1e-7
    )
    elapsed = perf_counter() - t0
    residual = normal_equation_residual(model, data, LAM, 1e-6)
    return {"model": model, "trace": trace, "elapsed": elapsed, "residual": residual}


@pytest.fixture(scope="module")
def rf_run(acceptance_data):
    data, kspec = acceptance_data
    plan = make_plan(128, 32, seed=3)
    fspec = FeatureMapSpec(p=128, sigma=3.0, master_seed=21)
    t0 = perf_counter()
    model, trace = solve_rf(data, fspec, LAM, plan, 4000, grad_tol=1e-12)
    elapsed = perf_counter() - t0
    z = random_features_block(data.X, np.arange(128), fspec)
    y = one_vs_all(data)
    oracle = np.linalg.solve(z.T @ z + 512 * LAM * np.eye(128), z.T @ y)
    rel = np.linalg.norm(model.coefficients - oracle) / np.linalg.norm(oracle)
    pd_gap = primal_dual_gap(z, model.coefficients, y, LAM)
    w_norm = np.linalg.norm(model.coefficients)
    return {
        "model": model, "trace": trace, "elapsed": elapsed,
        "rel": rel, "pd_gap": pd_gap, "w_norm": w_norm,
    }


def test_criterion_01_full_kernel_oracle(full_run):
    ok = full_run["rel"] <= 1e-6 and full_run["elapsed"] < 10.0
    verdict(
        1, ok,
        f"full-kernel coefficients within {full_run['rel']:.2e} of the dense "
        f"solve after <= 40 epochs ({full_run['elapsed']:.1f}s)",
    )


def test_criterion_02_nystrom_fixed_point(nystrom_run):
    ok = nystrom_run["residual"] <= 1e-6 and nystrom_run["elapsed"] < 10.0
    verdict(
        2, ok,
        f"nystrom regularized normal equation residual "
        f"{nystrom_run['residual']:.2e} ({nystrom_run['elapsed']:.1f}s)",
    )


def test_criterion_03_rf_oracle_and_primal_dual(rf_run):
    ok = (
        rf_run["rel"] <= 1e-6
        and rf_run["pd_gap"] <= 1e-8 * rf_run["w_norm"]
        and rf_run["elapsed"] < 10.0
    )
    verdict(
        3, ok,
        f"rf coefficients within {rf_run['rel']:.2e} of the dense solve, "
        f"primal-dual gap {rf_run['pd_gap']:.2e} <= 1e-8 * ||w|| "
        f"({rf_run['elapsed']:.1f}s)",
    )


def test_criterion_04_improved_bound_dominates():
    t0 = perf_counter()
    worst = 0.0
    for q in range(20):
        rng = np.random.default_rng(1000 + q)
        raw = rng.standard_normal((64, 64))
        H = raw @ raw.T / 64 + rng.uniform(0.2, 1.0) * np.eye(64)
        g = rng.standard_normal(64)
        prob = QuadraticProblem(H, g)
        m = float(np.linalg.eigvalsh(H)[0])
        gaps = run_bcd_quadratic(prob, 8, seeds=50, tau=200, base_seed=q)
        bound = improved_bound(H, 8, m, gaps[0], 200)
        worst = max(worst, float(np.max(gaps / bound)))
    elapsed = perf_counter() - t0
    ok = worst <= 1.05 and elapsed < 60.0
    verdict(
        4, ok,
        f"mean gap within the expected-decay envelope on 20 quadratics "
        f"(worst gap/bound ratio {worst:.3f}, {elapsed:.1f}s)",
    )


def test_criterion_05_block_diagonal_separation():
    t0 = perf_counter()
    means = {}
    for d in (64, 256, 1024):
        b = math.isqrt(d)
        H = adversarial_hessian(d, 0.1)
        g = np.random.default_rng(d).standard_normal(d)
        prob = QuadraticProblem(H, g)
        counts = bcd_iterations_to_tolerance(
            prob, b, 1e-6, seeds=5, max_iters=200_000
        )
        means[d] = counts.mean()
    elapsed = perf_counter() - t0
    r1 = means[256] / means[64]
    r2 = means[1024] / means[256]
    ok = r1 <= 2.5 and r2 <= 2.5 and elapsed < 120.0
    verdict(
        5, ok,
        f"iterations-to-1e-6 grew by {r1:.2f}x and {r2:.2f}x per 4x dimension "
        f"(classical analysis predicts ~4x; {elapsed:.1f}s)",
    )


def test_criterion_06_concentration_lemmas():
    t0 = perf_counter()
    rng = np.random.default_rng(42)
    A = rng.standard_normal((50, 100))
    allowed = 0.1 + monte_carlo_slack(0.1, 10_000)
    chernoff = chernoff_violation_rate(A, 10, 0.1, trials=10_000, seed=1)
    bernstein = bernstein_lower_rate(A, 10, 0.1, trials=10_000, seed=2)
    blob = gaussian_blobs(30, 2, 2, seed=3, center_scale=1.0, noise=0.7)
    alpha = 0.5
    p_req = rf_required_features(blob.X, 1.5, alpha, 0.1)
    spec = FeatureMapSpec(p=p_req, sigma=1.5, master_seed=0)
    rf_res = rf_concentration_check(spec, blob.X, alpha, 0.1, trials=200, base_seed=9)
    elapsed = perf_counter() - t0
    ok = (
        chernoff <= allowed
        and bernstein <= allowed
        and rf_res.passed
        and elapsed < 60.0
    )
    verdict(
        6, ok,
        f"violation rates: chernoff {chernoff:.4f}, bernstein {bernstein:.4f} "
        f"(allowed {allowed:.4f}); rf operator-norm rate "
        f"{rf_res.violation_rate:.4f} at p = {rf_res.required_p} ({elapsed:.1f}s)",
    )


def test_criterion_07_rf_approximation_trend():
    data = gaussian_blobs(200, 10, 4, seed=13, center_scale=3.0, noise=1.0)
    sigma = 2.5
    K = kernel_cross(data.X, data.X, KernelSpec("rbf", sigma))
    errs = {1024: [], 4096: []}
    for s in range(10):
        for p in (1024, 4096):
            spec = FeatureMapSpec(p=p, sigma=sigma, master_seed=5000 + s)
            z = random_features_block(data.X, np.arange(p), spec)
            errs[p].append(np.abs(z @ z.T - K).max())
    ratio = float(np.mean(errs[1024]) / np.mean(errs[4096]))
    ok = 1.4 <= ratio <= 2.8
    verdict(
        7, ok,
        f"max-entry kernel error shrank {ratio:.2f}x when p quadrupled "
        f"(theoretical 2x)",
    )


def test_criterion_08_regularization_path():
    data = gaussian_blobs(128, 6, 4, seed=2, center_scale=3.0)
    fspec = FeatureMapSpec(p=32, sigma=2.5, master_seed=11)
    plan = make_plan(32, 8, seed=9)
    lams = [1e-3, 1e-2, 1e-1]
    led_path = CostLedger()
    path = solve_path(
        data, fspec, lams, plan, 20, exec_ctx=ExecContext(1, led_path)
    )
    led_single = CostLedger()
    max_dev = 0.0
    for lam in lams:
        ledger = led_single if lam == lams[0] else None
        ctx = ExecContext(1, ledger) if ledger is not None else None
        single, _ = solve_rf(data, fspec, lam, plan, 20, exec_ctx=ctx)
        dev = float(
            np.max(np.abs(path[lam][0].coefficients - single.coefficients))
        )
        max_dev = max(max_dev, dev)
    gen_equal = (
        led_path.phase_flops()["generation"]
        == led_single.phase_flops()["generation"]
    )
    ok = max_dev <= 1e-10 and gen_equal
    verdict(
        8, ok,
        f"path models match independent runs (max dev {max_dev:.1e}) with "
        f"single-run block generation (equal: {gen_equal})",
    )


def test_criterion_09_distributed_correctness():
    rng = np.random.default_rng(0)
    zb = rng.standard_normal((256, 16))
    rhs = rng.standard_normal((256, 4))
    serial_g = gram(zb)
    serial_m = zb.T @ rhs
    scale_g = np.abs(serial_g).max()
    scale_m = np.abs(serial_m).max()
    values_ok = True
    byte_totals = []
    for workers in (1, 2, 4, 8, 16):
        part = make_partition(256, workers)
        ledger = CostLedger()
        g = distributed_gram(zb, part, ledger)
        mv = partitioned_matvec(zb, rhs, part)
        values_ok &= bool(np.abs(g - serial_g).max() <= 1e-10 * scale_g)
        values_ok &= bool(np.abs(mv - serial_m).max() <= 1e-10 * scale_m)
        byte_totals.append(ledger.bytes_communicated)
        # a full solver epoch must match the closed-form bytes exactly
        data = gaussian_blobs(256, 4, 2, seed=9)
        fspec = FeatureMapSpec(p=64, sigma=2.0, master_seed=3)
        run_ledger = CostLedger()
        solve_rf(
            data, fspec, LAM, make_plan(64, 16, 1), 1,
            exec_ctx=ExecContext(workers, run_ledger),
        )
        pred = predict_costs("rf", 256, 64, 16, 2, workers)
        report = measured_vs_predicted(run_ledger, pred)
        values_ok &= report.bytes_exact and report.ok
    increments = np.diff(byte_totals)
    law_ok = bool(np.all(increments == 16 * 16 * 8))
    ok = values_ok and law_ok
    verdict(
        9, ok,
        f"distributed ops match serial for M in 1..16, solver bytes equal the "
        f"closed form exactly, byte increments per doubling are b^2*8 "
        f"(increments {increments.tolist()})",
    )


def test_criterion_10_conditioning_trend():
    data = gaussian_blobs(128, 3, 4, seed=5, center_scale=2.0, noise=0.8)
    kspec = KernelSpec("rbf", 1.5)
    p, b, lam, gamma = 32, 8, 1e-3, 1e-6
    cond_wins = 0
    epoch_wins = 0
    for s in range(10):
        fspec = FeatureMapSpec(p=p, sigma=1.5, master_seed=1000 + s)
        pair = conditioning_compare(data, kspec, fspec, p, lam, gamma, landmark_seed=s)
        cond_wins += pair.nystrom >= pair.rf
        plan = make_plan(p, b, seed=200 + s)
        _, t_ny = solve_nystrom(
            data, kspec, p, lam, gamma, plan, 3000, landmark_seed=s, grad_tol=1e-3
        )
        _, t_rf = solve_rf(data, fspec, lam, plan, 3000, grad_tol=1e-3)
        epoch_wins += len(t_ny.records) >= len(t_rf.records)
    ok = cond_wins >= 8 and epoch_wins >= 8
    verdict(
        10, ok,
        f"nystrom system worse conditioned on {cond_wins}/10 seeds and needed "
        f">= as many epochs on {epoch_wins}/10 seeds",
    )


def test_criterion_11_monotone_descent(full_run, nystrom_run, rf_run):
    worst = -np.inf
    for run in (full_run, nystrom_run, rf_run):
        objs = run["trace"].objectives()
        worst = max(worst, float(np.max(np.diff(objs))))
    ok = worst <= 1e-9
    verdict(
        11, ok,
        f"no block update increased its surrogate objective "
        f"(worst step change {worst:.2e})",
    )
