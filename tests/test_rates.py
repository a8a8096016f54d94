import inspect
import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernelbcd.rates
from kernelbcd.errors import (
    CombinatorialBlowupError,
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    InvalidRateError,
    NotPerfectSquareError,
    NotSpdError,
    ThresholdNotMetError,
)
from kernelbcd.kernels import (
    FeatureMapSpec,
    KernelSpec,
    gaussian_blobs,
    kernel_cross,
    random_features_block,
)
from kernelbcd.rates import (
    QuadraticProblem,
    adversarial_hessian,
    bcd_iterations_to_tolerance,
    bernstein_lower_rate,
    chernoff_violation_rate,
    check_subset_cap,
    classical_bound,
    conditioning_compare,
    improved_bound,
    l_eff,
    l_max_b,
    monte_carlo_slack,
    rf_concentration_check,
    rf_required_features,
    run_bcd_quadratic,
    standard_rate_iters,
    theorem_rate,
)
from kernelbcd.solvers import draw_landmarks


def random_spd(d, seed, shift=0.5):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((d, d))
    return raw @ raw.T / d + shift * np.eye(d)


def one_draw(rng, d, size):
    """One uniform subset as the rates lab promises to draw it: the indices
    of the ``size`` smallest of d keys from one ``rng.random(d)`` call, in
    ascending order."""
    return np.sort(np.argsort(rng.random(d), kind="stable")[:size])


class TestLEff:
    def test_identity_example(self):
        assert l_eff(np.eye(4), 2) == pytest.approx(
            math.e**2 + 2.0 * math.log(16.0), rel=1e-9
        )

    def test_full_block(self):
        for d in (3, 6, 10):
            assert l_eff(np.eye(d), d) == pytest.approx(
                math.e**2 + math.log(2.0 * d), rel=1e-9
            )

    def test_homogeneity(self):
        h = random_spd(8, 0)
        for c in (0.25, 3.0, 17.0):
            assert l_eff(c * h, 3) == pytest.approx(c * l_eff(h, 3), rel=1e-8)


class TestLMaxB:
    def test_diagonal(self):
        h = np.diag([4.0, 1.0, 3.0, 2.0])
        for b in (1, 2, 3, 4):
            assert l_max_b(h, b) == pytest.approx(4.0)

    def test_block_diagonal_tight_case(self):
        # all-ones blocks of exactly the block size: the restricted
        # constant equals the global one
        h = adversarial_hessian(9, 0.5)
        est = l_max_b(h, 3)
        assert est == pytest.approx(3.5, rel=1e-12)
        top = np.linalg.eigvalsh(h)[-1]
        assert est == pytest.approx(top, rel=1e-12)

    def test_matches_enumeration_oracle(self):
        from itertools import combinations

        h = random_spd(8, 1)
        est = l_max_b(h, 3)
        # independent oracle: spectral norm of each PSD submatrix via svd
        best = max(
            np.linalg.norm(h[np.ix_(s, s)], 2) for s in combinations(range(8), 3)
        )
        assert est == pytest.approx(best, rel=1e-12)

    def test_combinatorial_cap(self):
        with pytest.raises(CombinatorialBlowupError):
            l_max_b(np.eye(50), 10)

    def test_is_one_exact_float(self):
        import kernelbcd

        assert type(l_max_b(adversarial_hessian(16, 0.1), 4)) is float
        assert not hasattr(kernelbcd, "LmaxEstimate")
        for fn in (l_max_b, standard_rate_iters, classical_bound):
            params = inspect.signature(fn).parameters
            assert not {"mode", "trials", "seed"} & set(params), fn.__name__

    def test_homogeneity(self):
        h = random_spd(7, 4)
        assert l_max_b(3.0 * h, 2) == pytest.approx(
            3.0 * l_max_b(h, 2), rel=1e-12
        )


class TestIterationCounts:
    def test_identity_hessian(self):
        d, b, eps = 6, 2, 1e-3
        assert standard_rate_iters(np.eye(d), b, 1.0, eps) == pytest.approx(
            d / b * math.log(1.0 / eps)
        )

    def test_eps_inverse_e(self):
        # log term is exactly 1 at eps = 1/e
        assert standard_rate_iters(np.eye(4), 2, 1.0, 1.0 / math.e) == pytest.approx(
            2.0
        )

    def test_combinatorial_cap_propagates(self):
        with pytest.raises(CombinatorialBlowupError):
            standard_rate_iters(np.eye(50), 10, 1.0, 1e-3)

    def test_adversarial_example_rate_gap(self):
        # block-diagonal construction at d = 16, b = sqrt(d) = 4, lam = 0.1:
        # the classical count uses the worst submatrix (L_max_b = lam + 4,
        # verified by exact enumeration), while the improved analysis puts
        # the same problem at the sqrt(d)/lam order; the classical count
        # overshoots that by about sqrt(d)
        d, lam, eps = 16, 0.1, 1e-3
        h = adversarial_hessian(d, lam)
        b = 4
        assert l_max_b(h, b) == pytest.approx(lam + 4.0, rel=1e-12)
        classical_count = standard_rate_iters(h, b, lam, eps)
        assert classical_count == pytest.approx(
            d * (lam + 4.0) / (b * lam) * math.log(1.0 / eps), rel=1e-12
        )
        improved_order = math.sqrt(d) / lam * math.log(1.0 / eps)
        ratio = classical_count / improved_order
        assert ratio >= math.sqrt(d) / 2.0
        assert ratio == pytest.approx(4.1, rel=1e-12)


class TestBounds:
    def test_zero_iterations_returns_gap0(self):
        h = random_spd(6, 5)
        assert improved_bound(h, 2, 0.3, 7.5, 0)[0] == 7.5

    def test_geometric_decay(self):
        h = random_spd(6, 6)
        seq = improved_bound(h, 2, 0.3, 1.0, 10)
        ratios = seq[1:] / seq[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_identity_example_value(self):
        seq = improved_bound(np.eye(4), 2, 1.0, 1.0, 1)
        expected = 1.0 - 1.0 / (2.0 * (math.e**2 + 2.0 * math.log(16.0)))
        assert seq[1] == pytest.approx(expected, rel=1e-9)
        assert seq[1] == pytest.approx(0.9613, abs=5e-5)

    def test_invalid_rate(self):
        with pytest.raises(InvalidRateError):
            theorem_rate(0.01 * np.eye(4), 2, m=1e9)


class TestRunBcdQuadratic:
    def test_full_block_is_newton(self):
        prob = QuadraticProblem(random_spd(10, 7), np.ones(10))
        gaps = run_bcd_quadratic(prob, 10, seeds=3, tau=2)
        assert gaps[0] > 0
        assert gaps[1] <= 1e-12 * gaps[0]

    def test_diagonal_hessian_coupon_collector(self):
        d, b = 32, 4
        rng = np.random.default_rng(8)
        prob = QuadraticProblem(np.diag(rng.uniform(0.5, 4.0, d)), rng.standard_normal(d))
        tau = int(10 * (d / b) * math.log(d))
        gaps = run_bcd_quadratic(prob, b, seeds=5, tau=tau)
        assert gaps[-1] <= 1e-8 * gaps[0]

    def test_mean_gap_below_improved_bound(self):
        for seed in (9, 10):
            h = random_spd(24, seed)
            g = np.random.default_rng(seed + 100).standard_normal(24)
            prob = QuadraticProblem(h, g)
            m = float(np.linalg.eigvalsh(h)[0])
            gaps = run_bcd_quadratic(prob, 4, seeds=40, tau=120, base_seed=seed)
            bound = improved_bound(h, 4, m, gaps[0], 120)
            assert np.all(gaps <= 1.05 * bound)

    def test_mean_gap_below_classical_bound(self):
        h = random_spd(12, 11)
        g = np.random.default_rng(12).standard_normal(12)
        prob = QuadraticProblem(h, g)
        m = float(np.linalg.eigvalsh(h)[0])
        gaps = run_bcd_quadratic(prob, 3, seeds=40, tau=120, base_seed=13)
        bound = classical_bound(h, 3, m, gaps[0], 120)
        assert np.all(gaps <= 1.05 * bound)

    def test_scaling_invariance_of_iterates(self):
        # argmin of each block solve is invariant under (H, g) -> (cH, cg),
        # so seeded gap sequences scale exactly by c
        h = random_spd(10, 14)
        g = np.random.default_rng(15).standard_normal(10)
        gaps1 = run_bcd_quadratic(QuadraticProblem(h, g), 2, 4, 30, base_seed=16)
        gaps3 = run_bcd_quadratic(
            QuadraticProblem(3.0 * h, 3.0 * g), 2, 4, 30, base_seed=16
        )
        assert np.allclose(gaps3, 3.0 * gaps1, rtol=1e-9)

    def test_iterations_to_tolerance(self):
        prob = QuadraticProblem(random_spd(16, 17), np.ones(16))
        counts = bcd_iterations_to_tolerance(
            prob, 4, 1e-6, seeds=3, max_iters=5000
        )
        assert np.all(counts < 5000)
        gaps = run_bcd_quadratic(prob, 4, seeds=1, tau=int(counts[0]), base_seed=0)
        assert gaps[-1] <= 1e-6 * gaps[0]


class TestAdversarialHessian:
    def test_small_spectrum(self):
        h = adversarial_hessian(4, 1.0)
        vals = np.linalg.eigvalsh(h)
        assert vals[-1] == pytest.approx(3.0)
        assert vals[0] == pytest.approx(1.0)
        assert np.sum(np.isclose(vals, 3.0)) == 2  # one per block

    def test_nine_dim(self):
        vals = np.linalg.eigvalsh(adversarial_hessian(9, 0.5))
        assert vals[-1] == pytest.approx(3.5)

    def test_not_perfect_square(self):
        with pytest.raises(NotPerfectSquareError):
            adversarial_hessian(5, 1.0)


class TestConcentration:
    def test_chernoff_identity_never_violates(self):
        rate = chernoff_violation_rate(np.eye(20), 5, 0.2, trials=200, seed=0)
        assert rate == 0.0

    def test_chernoff_gaussian_within_budget(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((50, 100))
        rate = chernoff_violation_rate(a, 10, 0.1, trials=2000, seed=19)
        assert rate <= 0.1 + monte_carlo_slack(0.1, 2000)

    def test_chernoff_delta_one_trivial(self):
        rng = np.random.default_rng(20)
        a = rng.standard_normal((20, 30))
        rate = chernoff_violation_rate(a, 5, 1.0, trials=100, seed=21)
        assert rate <= 1.0

    def test_bernstein_identity_never_violates(self):
        rate = bernstein_lower_rate(np.eye(20), 5, 0.2, trials=200, seed=22)
        assert rate == 0.0

    def test_bernstein_gaussian_within_budget(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((50, 100))
        rate = bernstein_lower_rate(a, 10, 0.1, trials=2000, seed=24)
        assert rate <= 0.1 + monte_carlo_slack(0.1, 2000)

    def test_bernstein_delta_one_trivial(self):
        rng = np.random.default_rng(25)
        a = rng.standard_normal((20, 30))
        assert bernstein_lower_rate(a, 5, 1.0, trials=100, seed=26) <= 1.0


class TestRfConcentration:
    def test_below_threshold_is_skipped_not_failed(self):
        data = gaussian_blobs(20, 2, 2, seed=27, center_scale=1.0, noise=0.6)
        spec = FeatureMapSpec(p=4, sigma=1.2, master_seed=28)
        with pytest.raises(ThresholdNotMetError):
            rf_concentration_check(spec, data.X, 0.5, 0.1, trials=10)

    def test_passes_at_mandated_p(self):
        data = gaussian_blobs(24, 2, 2, seed=29, center_scale=1.0, noise=0.6)
        alpha, delta = 0.5, 0.1
        p_req = rf_required_features(data.X, 1.2, alpha, delta)
        spec = FeatureMapSpec(p=p_req, sigma=1.2, master_seed=30)
        result = rf_concentration_check(spec, data.X, alpha, delta, trials=100)
        assert result.passed
        assert result.required_p == p_req

    def test_wide_interval_always_passes(self):
        data = gaussian_blobs(16, 2, 2, seed=31, center_scale=1.0, noise=0.6)
        alpha = 0.99
        p_req = rf_required_features(data.X, 1.2, alpha, 0.2)
        spec = FeatureMapSpec(p=p_req, sigma=1.2, master_seed=32)
        result = rf_concentration_check(spec, data.X, alpha, 0.2, trials=50)
        assert result.violation_rate == 0.0

    def test_delta_one_trivial(self):
        data = gaussian_blobs(16, 2, 2, seed=33, center_scale=1.0, noise=0.6)
        p_req = rf_required_features(data.X, 1.2, 0.5, 1.0)
        spec = FeatureMapSpec(p=p_req, sigma=1.2, master_seed=34)
        result = rf_concentration_check(spec, data.X, 0.5, 1.0, trials=20)
        assert result.violation_rate <= 1.0 and result.passed

    def test_kernel_is_evaluated_once(self, monkeypatch):
        import kernelbcd.rates

        data = gaussian_blobs(16, 2, 2, seed=35, center_scale=1.0, noise=0.6)
        p_req = rf_required_features(data.X, 1.2, 0.5, 0.5)
        spec = FeatureMapSpec(p=p_req, sigma=1.2, master_seed=36)
        calls = []

        def counted(*args):
            calls.append(args)
            return kernel_cross(*args)

        monkeypatch.setattr(kernelbcd.rates, "kernel_cross", counted)
        result = rf_concentration_check(spec, data.X, 0.5, 0.5, trials=5)
        assert len(calls) == 1
        K = kernel_cross(data.X, data.X, KernelSpec("rbf", 1.2))
        assert result.norm_k == float(np.linalg.eigvalsh(K)[-1])
        assert result.required_p == p_req


class TestConditioning:
    def test_single_feature_is_trivial(self):
        data = gaussian_blobs(32, 2, 2, seed=38)
        fspec = FeatureMapSpec(p=1, sigma=1.5, master_seed=39)
        pair = conditioning_compare(
            data, KernelSpec("rbf", 1.5), fspec, 1, 1e-2, 1e-6
        )
        assert pair.nystrom == pytest.approx(1.0)
        assert pair.rf == pytest.approx(1.0)

    def test_nystrom_worse_conditioned_on_decaying_spectra(self):
        data = gaussian_blobs(96, 3, 4, seed=40, center_scale=2.0, noise=0.8)
        kspec = KernelSpec("rbf", 1.5)
        wins = 0
        for s in range(10):
            fspec = FeatureMapSpec(p=24, sigma=1.5, master_seed=500 + s)
            pair = conditioning_compare(
                data, kspec, fspec, 24, 1e-3, 1e-6, landmark_seed=s
            )
            wins += pair.nystrom >= pair.rf
        assert wins >= 8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_condition_numbers(self, seed):
        # the decaying-spectra problem above, where the nystrom system's
        # smallest eigenvalue sits ~1e7 below its largest
        data = gaussian_blobs(96, 3, 4, seed=40, center_scale=2.0, noise=0.8)
        kspec = KernelSpec("rbf", 1.5)
        fspec = FeatureMapSpec(p=24, sigma=1.5, master_seed=500 + seed)
        p, lam, gamma = 24, 1e-3, 1e-6
        pair = conditioning_compare(data, kspec, fspec, p, lam, gamma, landmark_seed=seed)
        lam_eff = data.n * lam
        landmarks = draw_landmarks(data.n, p, seed)
        kj = kernel_cross(data.X, data.X[landmarks], kspec)
        m_ny = kj.T @ kj + lam_eff * kj[landmarks] + lam_eff * gamma * np.eye(p)
        z = random_features_block(data.X, np.arange(p), fspec)
        m_rf = z.T @ z + lam_eff * np.eye(p)
        for got, m in ((pair.nystrom, m_ny), (pair.rf, m_rf)):
            vals = np.linalg.eigvalsh((m + m.T) * 0.5)
            assert got == pytest.approx(vals[-1] / vals[0], rel=1e-10)

    def test_gamma_tames_nystrom_conditioning(self):
        data = gaussian_blobs(64, 3, 2, seed=41, center_scale=2.0, noise=0.8)
        kspec = KernelSpec("rbf", 1.5)
        fspec = FeatureMapSpec(p=16, sigma=1.5, master_seed=42)
        conds = [
            conditioning_compare(
                data, kspec, fspec, 16, 1e-3, gamma, landmark_seed=43
            ).nystrom
            for gamma in (0.0, 1e-4, 1e-2, 1.0)
        ]
        assert all(a >= b - 1e-6 * abs(a) for a, b in zip(conds, conds[1:]))


def test_rates_knobs_out_of_range_raise_config_error():
    prob = QuadraticProblem(random_spd(4, 3), np.ones(4))
    with pytest.raises(ConfigError):
        monte_carlo_slack(0.1, 0)
    with pytest.raises(ConfigError):
        run_bcd_quadratic(prob, 2, seeds=0, tau=5)
    with pytest.raises(ConfigError):
        run_bcd_quadratic(prob, 2, seeds=2, tau=-1)


@pytest.mark.parametrize("eps", [0.0, -1.0, 1.0, 2.0, math.nan, math.inf])
def test_standard_rate_iters_needs_eps_in_open_unit_interval(eps):
    with pytest.raises(ConfigError):
        standard_rate_iters(random_spd(4, 3), 2, 0.5, eps)


@pytest.mark.parametrize("bound", [improved_bound, classical_bound])
def test_bounds_refuse_negative_tau(bound):
    h = random_spd(4, 3)
    m = float(np.linalg.eigvalsh(h)[0])
    assert len(bound(h, 2, m, 1.0, 0)) == 1
    with pytest.raises(ConfigError):
        bound(h, 2, m, 1.0, -1)


def _oracle_tops(G, d, size, trials, seed):
    """The subset draws the rates lab promises, written out as a loop."""
    rng = np.random.default_rng(seed)
    tops = []
    for _ in range(trials):
        s = one_draw(rng, d, size)
        tops.append(float(np.linalg.eigvalsh(G[np.ix_(s, s)])[-1]))
    return tops


def _one_heavy_column(p):
    # one row whose first entry dominates: a size-2 subset holds it with
    # probability 2/p, so both tail events below happen at a middling rate
    a = np.ones((1, p))
    a[0, 0] = 10.0
    return a


def test_chernoff_rate_equals_explicit_draw_loop():
    a, b, delta, trials, seed = _one_heavy_column(20), 2, 1.0, 300, 8
    G = a.T @ a
    lmax, diag_max = float(np.linalg.eigvalsh(G)[-1]), float(np.diag(G).max())
    threshold = math.e**2 * (b / 20) * lmax + diag_max * math.log(1 / delta)
    tops = _oracle_tops(G, 20, b, trials, seed)
    expected = sum(t >= threshold for t in tops) / trials
    assert 0.0 < expected < 1.0
    assert chernoff_violation_rate(a, b, delta, trials, seed=seed) == expected


def test_bernstein_rate_equals_explicit_draw_loop():
    psi, p, delta, trials, seed = _one_heavy_column(20), 2, 1.0, 300, 9
    G = psi.T @ psi
    # with n = 1 and delta = 1 the log terms vanish
    threshold = (p / 20) * float(np.linalg.eigvalsh(G)[-1])
    tops = _oracle_tops(G, 20, p, trials, seed)
    expected = sum(t < threshold for t in tops) / trials
    assert 0.0 < expected < 1.0
    assert bernstein_lower_rate(psi, p, delta, trials, seed=seed) == expected


_PROB4 = QuadraticProblem(random_spd(4, 3), np.ones(4))


@pytest.mark.parametrize(
    "call",
    [
        lambda: chernoff_violation_rate(np.eye(4), 2, 0.1, trials=0),
        lambda: bernstein_lower_rate(np.eye(4), 2, 0.1, trials=0),
        lambda: bcd_iterations_to_tolerance(_PROB4, 2, 0.1, seeds=0, max_iters=5),
        lambda: bcd_iterations_to_tolerance(_PROB4, 2, 0.1, seeds=2, max_iters=-1),
        lambda: rf_required_features(np.eye(3), 1.0, 0.5, delta=0),
        lambda: rf_concentration_check(
            FeatureMapSpec(p=4000, sigma=1.0), np.eye(3), 0.5, 0.1, trials=0
        ),
    ],
    ids=[
        "chernoff-trials0", "bernstein-trials0", "iterations-seeds0",
        "iterations-max_iters-1",
        "rf_required_features-delta0", "rf_concentration_check-trials0",
    ],
)
def test_degenerate_rates_inputs_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


_H2 = 2.0 * np.eye(4)
_PROB2 = QuadraticProblem(_H2, np.ones(4))


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_bcd_quadratic(_PROB2, 0, 2, 3),
        lambda: run_bcd_quadratic(_PROB2, 5, 2, 3),
        lambda: run_bcd_quadratic(_PROB2, 2.0, 2, 3),
        lambda: run_bcd_quadratic(_PROB2, 2, 1.5, 3),
        lambda: run_bcd_quadratic(_PROB2, 2, 2, 2.5),
        lambda: bcd_iterations_to_tolerance(_PROB2, 0, 0.1, seeds=2, max_iters=5),
        lambda: bcd_iterations_to_tolerance(_PROB2, 2, 0.1, seeds=2, max_iters=2.5),
        lambda: l_max_b(_H2, 1.5),
        lambda: l_eff(_H2, 1.5),
        lambda: improved_bound(_H2, 2, 1, 1, tau=2.5),
        lambda: classical_bound(_H2, 2, 1, 1, tau=2.5),
        lambda: chernoff_violation_rate(_H2, 1.5, 0.1, trials=5),
        lambda: chernoff_violation_rate(_H2, 2, 0.1, trials=2.5),
        lambda: bernstein_lower_rate(_H2, 1.5, 0.1, trials=5),
        lambda: monte_carlo_slack(0.1, 2.5),
        lambda: check_subset_cap(4, 0),
        lambda: check_subset_cap(4, 1.5),
        lambda: adversarial_hessian(16.0, 1.0),
        lambda: run_bcd_quadratic(_PROB2, 2, 2, 3, base_seed=-1),
        lambda: chernoff_violation_rate(_H2, 2, 0.1, trials=5, seed=1.5),
        lambda: rf_concentration_check(
            FeatureMapSpec(p=4000, sigma=1.0), np.eye(3), 0.5, 0.1, trials=5, base_seed=-1
        ),
    ],
    ids=[
        "run-b0", "run-b5", "run-b-float", "run-seeds-float", "run-tau-float",
        "iterations-b0", "iterations-max_iters-float", "l_max_b-b-float",
        "l_eff-b-float", "improved_bound-tau-float", "classical_bound-tau-float",
        "chernoff-b-float", "chernoff-trials-float", "bernstein-p-float",
        "slack-trials-float", "subset_cap-b0", "subset_cap-b-float",
        "adversarial-d-float", "run-base_seed-negative", "chernoff-seed-float",
        "rf-base_seed-negative",
    ],
)
def test_sizes_and_counts_must_be_integers_in_range(call):
    # one rule for every block size, sketch size, count and seed: an int,
    # in [1, d] for a size, checked once per call and before the first step
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize("delta", [-0.1, 0.0, math.nan, 2.0])
@pytest.mark.parametrize(
    "rate",
    [
        lambda delta: monte_carlo_slack(delta, 10),
        lambda delta: chernoff_violation_rate(_H2, 2, delta, trials=5),
        lambda delta: bernstein_lower_rate(_H2, 2, delta, trials=5),
        lambda delta: rf_required_features(np.eye(3), 1.0, 0.5, delta),
    ],
    ids=["monte_carlo_slack", "chernoff", "bernstein", "rf_required_features"],
)
def test_delta_outside_the_unit_interval_raises_config_error(rate, delta):
    with pytest.raises(ConfigError, match="delta must lie in"):
        rate(delta)


# The batched ensemble solves each block by LU on the stacked blocks, where
# the per-seed loop below uses its own dense arithmetic, so gaps agree to
# rounding only: within this fraction of the first gap, -f_star.
GAP_TOL = 1e-14


def _reference_gaps(prob, b, tau, base_seed, s):
    """One seeded run, written out as the loop the rates lab promises: seed
    s draws I_t from SeedSequence(base_seed, spawn_key=(s,)) and minimizes
    exactly over w[I_t], with H w recomputed densely."""
    rng = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(s,)))
    H, g = prob.H, prob.g
    w = np.zeros(prob.dim)
    gaps = [0.0 - prob.f_star]
    for _ in range(tau):
        idx = one_draw(rng, prob.dim, b)
        w[idx] = 0.0
        w[idx] = np.linalg.solve(H[np.ix_(idx, idx)], g[idx] - H[idx] @ w)
        gaps.append(0.5 * w @ H @ w - g @ w - prob.f_star)
    return np.array(gaps)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 9),
    data=st.data(),
    seeds=st.integers(1, 5),
    tau=st.integers(0, 40),
    base_seed=st.integers(0, 2**64),
    problem_seed=st.integers(0, 2**16),
)
def test_ensemble_matches_per_seed_loop(d, data, seeds, tau, base_seed, problem_seed):
    b = data.draw(st.integers(1, d), label="b")
    rel_tol = data.draw(st.floats(1e-12, 1.0), label="rel_tol")
    prob = QuadraticProblem(
        random_spd(d, problem_seed),
        np.random.default_rng(problem_seed + 1).standard_normal(d),
    )
    gap0 = 0.0 - prob.f_star
    ref = [_reference_gaps(prob, b, tau, base_seed, s) for s in range(seeds)]
    total = np.zeros(tau + 1)
    for gaps in ref:  # in seed order
        total += gaps

    mean = run_bcd_quadratic(prob, b, seeds, tau, base_seed)
    assert mean.shape == (tau + 1,)
    assert mean[0] == total[0] / seeds  # the same -f_star, summed in the same order
    assert np.all(np.abs(mean - total / seeds) <= GAP_TOL * gap0)

    counts = bcd_iterations_to_tolerance(prob, b, rel_tol, seeds, tau, base_seed)
    target = rel_tol * gap0
    for count, row in zip(counts, ref):
        met = np.flatnonzero(row[1:] <= target)
        expected = met[0] + 1 if met.size else tau
        if count != expected:
            # a near-tie: some gap lies within rounding of the target, so the
            # two computations may put it on opposite sides
            assert np.any(np.abs(row[1:] - target) <= GAP_TOL * gap0)


@pytest.mark.parametrize("d, b", [(1, 1), (5, 2), (8, 3), (9, 9), (12, 6), (16, 4)])
def test_l_max_b_is_the_per_subset_loop_max(d, b):
    h = random_spd(d, 100 + d + b)
    loop = max(
        float(np.linalg.eigvalsh(h[np.ix_(s, s)])[-1])
        for s in combinations(range(d), b)
    )
    assert l_max_b(h, b).hex() == loop.hex()


def _lab_values(prob, h, a):
    """Every rates-lab result that goes through a chunked stacked call."""
    return (
        run_bcd_quadratic(prob, 2, seeds=10, tau=25, base_seed=3).tobytes(),
        bcd_iterations_to_tolerance(prob, 2, 1e-6, seeds=10, max_iters=200).tolist(),
        l_max_b(h, 2),
        chernoff_violation_rate(a, 2, 1.0, trials=50, seed=4),
        bernstein_lower_rate(a, 2, 1.0, trials=50, seed=5),
    )


@pytest.mark.parametrize("runs", [1, 3, 4])
def test_chunked_stacks_give_the_same_bytes(monkeypatch, runs):
    # d = 6, b = 2: _STACK_WORDS = runs * b * d makes chunks of `runs` of the
    # 10 seeds (3 and 4 leave an uneven last chunk) and of 3 * runs of the
    # C(6, 2) = 15 subsets and of the 50 Monte-Carlo subsets
    h = random_spd(6, 50)
    prob = QuadraticProblem(h, np.random.default_rng(51).standard_normal(6))
    a = _one_heavy_column(20)
    whole = _lab_values(prob, h, a)
    monkeypatch.setattr(kernelbcd.rates, "_STACK_WORDS", runs * 2 * 6)
    assert _lab_values(prob, h, a) == whole


def _mutations():
    def negate(prob):
        prob.H *= -1.0

    def set_h(value):
        def mutate(prob):
            prob.H[0, 0] = value
        return mutate

    def inf_off_block(prob):
        prob.H[0, 3] = prob.H[3, 0] = np.inf

    def nan_g(prob):
        prob.g[0] = np.nan

    def asymmetric(prob):
        prob.H[0, 1] += 0.05

    def overflowing_solution(prob):
        # a finite SPD problem whose block solutions, 1e300 / 1e-300, overflow
        prob.H[:] = 1e-300 * np.eye(4)
        prob.g[:] = 1e300

    return [
        pytest.param(negate, NotSpdError, id="H-negated"),
        pytest.param(asymmetric, NotSpdError, id="H-asymmetric"),
        pytest.param(set_h(np.nan), DivergenceError, id="H-nan"),
        pytest.param(set_h(np.inf), DivergenceError, id="H-inf"),
        pytest.param(inf_off_block, DivergenceError, id="H-inf-off-block"),
        pytest.param(nan_g, DivergenceError, id="g-nan"),
        pytest.param(overflowing_solution, DivergenceError, id="solution-inf"),
    ]


@pytest.mark.parametrize("mutate, error", _mutations())
@pytest.mark.parametrize("b", [2, 4])
@pytest.mark.parametrize(
    "run",
    [
        lambda prob, b: run_bcd_quadratic(prob, b, seeds=3, tau=5),
        lambda prob, b: bcd_iterations_to_tolerance(prob, b, 1e-6, seeds=3, max_iters=5),
    ],
    ids=["run_bcd_quadratic", "bcd_iterations_to_tolerance"],
)
def test_stepper_refuses_a_mutated_problem(mutate, error, b, run):
    # at b = d = 4 the first step's block holds every mutated entry; at
    # b = 2 a block may hold none of them
    prob = QuadraticProblem(random_spd(4, 3), np.ones(4))
    mutate(prob)
    with pytest.raises(error):
        run(prob, b)


def _asymmetric(h):
    h[0, 1] += 0.05


def _nan(h):
    h[2, 3] = np.nan


@pytest.mark.parametrize("mutate", [_asymmetric, _nan], ids=["asymmetric", "nan"])
@pytest.mark.parametrize(
    "rate",
    [
        lambda h: l_max_b(h, 2),
        lambda h: standard_rate_iters(h, 2, 0.5, 1e-3),
        lambda h: classical_bound(h, 2, 0.5, 1.0, 5),
        lambda h: improved_bound(h, 2, 0.5, 1.0, 5),
    ],
    ids=["l_max_b", "standard_rate_iters", "classical_bound", "improved_bound"],
)
def test_rate_functions_refuse_the_h_that_lambda_extremes_refuses(rate, mutate):
    # one check, with one message, whether a rate takes its constant from
    # the subset tops (l_max_b) or from lambda_extremes (l_eff)
    h = random_spd(8, 12)
    mutate(h)
    with pytest.raises(DimensionMismatchError, match="not symmetric within tolerance, or not finite"):
        rate(h)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectral_tops_refuse_non_finite_input(bad):
    # the single-matrix tops go through lambda_extremes: a package error,
    # not numpy's LinAlgError or a float-to-int ValueError
    A = np.random.default_rng(7).standard_normal((6, 8))
    A[2, 1] = bad
    with pytest.raises(DimensionMismatchError, match="not finite"):
        chernoff_violation_rate(A, 2, 0.1, 5)
    with pytest.raises(DimensionMismatchError, match="not finite"):
        bernstein_lower_rate(A, 2, 0.1, 5)
    with pytest.raises(DimensionMismatchError, match="not finite"):
        rf_required_features(A[:, :2], 1.0, 0.5, 0.1)


def _fresh_generators(runs, seed=0):
    return [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(s,)))
        for s in range(runs)
    ]


@pytest.mark.parametrize(
    "d, b, runs, count",
    [
        (16, 4, 3, 200),
        (16, 16, 2, 50),  # b = d: argpartition at its last kth
        (1, 1, 2, 20),
        (5, 1, 3, 50),
        (100, 10, 2, 50),
        (10001, 201, 2, 2),  # one call alone outgrows a chunk
        (20000, 19999, 1, 1),
    ],
)
def test_bulk_subsets_equal_a_loop_of_generator_choice(d, b, runs, count):
    # the loop, named for the Generator.choice it once called, is one_draw
    got = list(kernelbcd.rates._choices(_fresh_generators(runs), d, b, count))
    loop = _fresh_generators(runs)
    assert len(got) == count
    for draw in got:
        assert draw.shape == (runs, b)
        for row, rng in zip(draw, loop):
            assert np.array_equal(row, one_draw(rng, d, b))


@pytest.mark.parametrize("words", [1, 5, 7, 30])
@pytest.mark.parametrize("d, b", [(16, 4), (6, 6), (1, 1)])
def test_bulk_subsets_continue_across_chunks(monkeypatch, words, d, b):
    # fewer words than the 3 runs' d keys give chunks of one call; at d = 1,
    # 7 and 30 words give chunks of 2 and 10 calls
    whole = list(kernelbcd.rates._choices(_fresh_generators(3, 7), d, b, 40))
    monkeypatch.setattr(kernelbcd.rates, "_STACK_WORDS", words)
    chunked = list(kernelbcd.rates._choices(_fresh_generators(3, 7), d, b, 40))
    assert [c.tobytes() for c in chunked] == [w.tobytes() for w in whole]


def test_bulk_subsets_are_uniform():
    # 30,000 size-2 subsets of range(6): each of the C(6, 2) = 15 subsets
    # falls within five binomial sigmas of its expected count
    draws = 30_000
    got = kernelbcd.rates._choices(_fresh_generators(1, 3), 6, 2, draws)
    counts = Counter(tuple(row) for draw in got for row in draw.tolist())
    assert sorted(counts) == list(combinations(range(6), 2))
    expected, sigma = draws / 15, math.sqrt(draws * (1 / 15) * (14 / 15))
    assert all(abs(c - expected) <= 5 * sigma for c in counts.values())


def test_a_run_that_stops_early_draws_one_chunk():
    # at b = d every step is exact, so each run meets the target at its
    # first step; a stepper that drew all max_iters steps up front would not
    # return
    prob = QuadraticProblem(random_spd(4, 3), np.ones(4))
    counts = bcd_iterations_to_tolerance(prob, 4, 1e-6, seeds=3, max_iters=10**15)
    assert counts.tolist() == [1, 1, 1]


def _rf_rate_loop(spec, X, lo, hi, trials, base_seed):
    """The operator-norm violation rate, one feature draw per trial."""
    hits = 0
    for t in range(trials):
        draw = FeatureMapSpec(p=spec.p, sigma=spec.sigma, master_seed=base_seed + t)
        z = random_features_block(X, np.arange(spec.p), draw)
        top = float(np.linalg.eigvalsh(z @ z.T)[-1])
        hits += not lo <= top <= hi
    return hits / trials


@pytest.mark.parametrize("draw_words", [None, 1, 700])
def test_rf_concentration_rate_equals_a_per_trial_loop(monkeypatch, draw_words):
    # a small p and a narrow interval, so that the rate lies inside (0, 1);
    # the lemma's requirement is set aside to allow them.  700 words make
    # chunks of 3 trials of 12 x 16 entries, and 1 word chunks of one
    data = gaussian_blobs(12, 2, 2, seed=40, center_scale=1.0, noise=0.6)
    spec = FeatureMapSpec(p=16, sigma=1.2, master_seed=41)
    norm_k = float(np.linalg.eigvalsh(kernel_cross(data.X, data.X, KernelSpec("rbf", 1.2)))[-1])
    monkeypatch.setattr(kernelbcd.rates, "_rf_requirement", lambda *args: (1, norm_k))
    if draw_words is not None:
        monkeypatch.setattr(kernelbcd.rates, "_DRAW_WORDS", draw_words)
    alpha, trials, base_seed = 0.05, 40, 2**128 - 20
    expected = _rf_rate_loop(
        spec, data.X, (1 - alpha) * norm_k, (1 + alpha) * norm_k, trials, base_seed
    )
    assert 0.0 < expected < 1.0
    result = rf_concentration_check(spec, data.X, alpha, 0.5, trials, base_seed)
    assert result.violation_rate == expected


_LEVELS = [math.nan, -1.0, -1e-300, math.inf, "0.1", None]


@pytest.mark.parametrize("rel_tol", _LEVELS)
def test_iterations_to_tolerance_refuse_a_bad_rel_tol(rel_tol):
    # a NaN or negative target was never met: every seed reported max_iters
    with pytest.raises(ConfigError, match="rel_tol"):
        bcd_iterations_to_tolerance(_PROB2, 2, rel_tol, seeds=3, max_iters=5)


@pytest.mark.parametrize("gap0", _LEVELS)
@pytest.mark.parametrize("bound", [improved_bound, classical_bound])
def test_bounds_refuse_a_bad_gap0(bound, gap0):
    # a NaN gap0 gave an all-NaN envelope
    with pytest.raises(ConfigError, match="gap0"):
        bound(_H2, 2, 1.0, gap0, 3)


def test_zero_rel_tol_and_gap0_are_allowed():
    assert improved_bound(_H2, 2, 1.0, 0.0, 3).tolist() == [0.0] * 4
    assert classical_bound(_H2, 2, 1.0, 0.0, 3).tolist() == [0.0] * 4
    assert bcd_iterations_to_tolerance(_PROB2, 2, 0.0, seeds=2, max_iters=5).shape == (2,)
