import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from kernelbcd import kernels
from kernelbcd.errors import (
    ConfigError,
    DataFormatError,
    DimensionMismatchError,
    IndexOutOfRangeError,
)
from kernelbcd.kernels import (
    MAX_NORMAL_DRAW,
    Dataset,
    FeatureMapSpec,
    KernelSpec,
    feature_params,
    gaussian_blobs,
    kernel_cross,
    load_csv,
    one_vs_all,
    random_features_block,
    random_features_stack,
    _block_params,
    _ndtri,
    _scaled_cos,
)
from oracles import kernel_eval, random_feature_entries

RBF = KernelSpec("rbf", sigma=1.0)

# A column that two different blocks share agrees only to rounding: each
# block's products are one GEMM, whose kernels depend on the block's column
# count.  For kernel_cross the bound is this fraction of the entries' bound
# 1; on standard normal inputs of up to 32 features the largest difference
# seen was about 1e-14 of it.
SHARED_COLUMN_ATOL = 1e-12

# The random-feature bounds, as fractions of the entry bound sqrt(2/p).  An
# entry is sqrt(2/p) cos32(float32(r)), r the argument t = x . omega + b
# reduced mod 2 pi in float64 to within a few float64 ulps, |r| <= pi < 4.
# COS32_ERR bounds numpy's float32 cos: over every float32 in [0, 4) numpy
# 2.4.6 (x86_64, AVX512) was within 1.2 * 2**-24 of the float64 cos of the
# same input.
COS32_ERR = 2.0**-23
# Against sqrt(2/p) cos(t) in float64: rounding r to float32 moves it by at
# most half a float32 ulp, 2**-23 for |r| < 4, and the cosine adds
# COS32_ERR; the float64 reduction and scale round far inside the slack
# COS32_ERR leaves above the measured error.
RF_ENTRY_ATOL = 2.0**-23 + COS32_ERR
# A shared column: a last-bit GEMM difference in t can round r to the
# neighbouring float32, 1 float32 ulp (2**-22) apart, and each of the two
# cosines adds COS32_ERR.
RF_SHARED_COLUMN_ATOL = 2.0**-22 + 2 * COS32_ERR


class TestKernelEval:
    def test_rbf_same_point(self):
        x = np.array([0.3, -1.2, 4.0])
        assert kernel_eval(RBF, x, x) == 1.0

    def test_rbf_unit_distance(self):
        assert kernel_eval(RBF, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(
            math.exp(-0.5)
        )

    def test_linear(self):
        assert kernel_eval(KernelSpec("linear"), [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kernel_eval(RBF, [1.0], [1.0, 2.0])

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            KernelSpec("poly")
        with pytest.raises(ValueError):
            KernelSpec("rbf", sigma=0.0)

    @pytest.mark.parametrize("sigma", [1e300, 1e-300, -1.0, float("nan"), float("inf")])
    def test_rbf_sigma_squared_must_be_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            KernelSpec("rbf", sigma=sigma)
        KernelSpec("linear", sigma=sigma)  # linear ignores sigma

    def test_rbf_sigma_squared_at_the_float_edges(self):
        # near the float edges, where sigma*sigma is still finite and nonzero
        for sigma in (1e154, 1e-154):
            spec = KernelSpec("rbf", sigma=sigma)
            assert np.all(np.isfinite(kernel_cross(np.eye(2), np.eye(2), spec)))

    def test_rbf_subnormal_sigma_squared_takes_the_limit_silently(self):
        # sigma*sigma is subnormal: off-diagonal distances scale to -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = kernel_cross(np.eye(2), np.eye(2), KernelSpec("rbf", 1e-161))
        assert np.array_equal(k, np.eye(2))


class TestKernelBlock:
    # a column block K([n], I) meets its own anchors at the rows I: the
    # solvers make it as kernel_cross(X, X[I], spec, rows=I)

    def test_full_block_symmetric(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((12, 3))
        k = kernel_cross(x, x, RBF, rows=np.arange(12))
        assert np.array_equal(k, k.T)
        assert np.allclose(np.diag(k), 1.0)

    def test_tiny_bandwidth_is_near_identity(self):
        # unit-separated points with sigma = 1e-3: off-diagonal underflows
        x = np.arange(6.0)[:, None]
        k = kernel_cross(x, x, KernelSpec("rbf", sigma=1e-3), rows=np.arange(6))
        off = k - np.diag(np.diag(k))
        assert np.abs(off).max() < 1e-10
        assert np.array_equal(np.diag(k), np.ones(6))

    def test_inputs_whose_norms_overflow_take_the_limit_silently(self):
        # the squared norms of these rows overflow, or nearly: their entries
        # are the limits of exp(-||x - y||^2 / 2), 1 on the diagonal, else 0
        x = np.array([[1e300, 0.0], [0.0, 1e300], [1e154, 1.0], [0.5, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = kernel_cross(x, x, RBF, rows=np.arange(4))
            cross = kernel_cross(x, x[[3]], RBF)
        expected = np.eye(4)
        assert np.array_equal(k, expected)
        assert np.array_equal(cross, expected[:, [3]])

    def test_matches_entrywise_eval(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4))
        idx = [2, 4]
        for spec in (RBF, KernelSpec("linear")):
            block = kernel_cross(x, x[idx], spec, rows=idx)
            for i in range(6):
                for j, col in enumerate(idx):
                    assert block[i, j] == pytest.approx(
                        kernel_eval(spec, x[i], x[col]), rel=1e-14, abs=1e-300
                    )

    def test_block_is_column_subselection(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 3))
        full = kernel_cross(x, x, RBF, rows=np.arange(50))
        for seed in range(5):
            idx = np.random.default_rng(seed).choice(50, size=7, replace=False)
            np.testing.assert_allclose(
                kernel_cross(x, x[idx], RBF, rows=idx), full[:, idx],
                rtol=0, atol=SHARED_COLUMN_ATOL,
            )


class TestRandomFeatures:
    def test_entry_magnitude_bound(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 5)) * 3
        spec = FeatureMapSpec(p=16, sigma=1.5, master_seed=7)
        z = random_features_block(x, np.arange(16), spec)
        assert np.abs(z).max() <= math.sqrt(2.0 / 16) + 1e-15

    def test_row_norm_bound(self):
        # ||z(x)||^2 <= 2 for every row of the full feature matrix
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 4))
        spec = FeatureMapSpec(p=64, sigma=2.0, master_seed=1)
        z = random_features_block(x, np.arange(64), spec)
        assert np.max(np.sum(z * z, axis=1)) <= 2.0

    def test_diagonal_bound(self):
        # max_j (Z^T Z)_jj <= 2 n / p
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 3))
        spec = FeatureMapSpec(p=32, sigma=1.0, master_seed=2)
        z = random_features_block(x, np.arange(32), spec)
        diag = np.diag(z.T @ z)
        assert diag.max() <= 2.0 * 40 / 32 + 1e-12

    def test_monte_carlo_kernel_approximation(self):
        # mean over 50k features of z(x) . z(y) lands within 0.02 of the
        # rbf kernel for a handful of fixed pairs
        sigma = 1.3
        spec = FeatureMapSpec(p=50_000, sigma=sigma, master_seed=11)
        rng = np.random.default_rng(6)
        pairs = rng.standard_normal((5, 2, 3))
        x = pairs.reshape(10, 3)
        z = random_features_block(x, np.arange(spec.p), spec)
        k = z @ z.T
        kspec = KernelSpec("rbf", sigma)
        for i in range(5):
            exact = kernel_eval(kspec, pairs[i, 0], pairs[i, 1])
            assert abs(k[2 * i, 2 * i + 1] - exact) < 0.02

    def test_bit_identical_regeneration(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((15, 4))
        spec = FeatureMapSpec(p=24, sigma=1.0, master_seed=9)
        idx = np.array([3, 11, 17])
        assert np.array_equal(
            random_features_block(x, idx, spec), random_features_block(x, idx, spec)
        )

    def test_overlapping_blocks_share_columns(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, 2))
        spec = FeatureMapSpec(p=20, sigma=1.0, master_seed=5)
        a = random_features_block(x, [2, 5, 9], spec)
        b = random_features_block(x, [9, 5, 14], spec)
        assert np.array_equal(a[:, 1], b[:, 1])
        assert np.array_equal(a[:, 2], b[:, 0])

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 30), d=st.integers(1, 32), p=st.integers(2, 64),
           widths=st.tuples(st.integers(1, 64), st.integers(1, 64)),
           seed=st.integers(0, 2**32 - 1))
    @example(n=6, d=28, p=8, widths=(2, 8), seed=0)
    def test_overlapping_blocks_share_columns_to_rounding(self, n, d, p, widths, seed):
        # blocks of different widths, each regenerated byte-equal, share
        # their common columns only to rounding
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        spec = FeatureMapSpec(p=p, sigma=float(rng.uniform(0.5, 3.0)), master_seed=seed)
        cols = rng.permutation(p)
        wa, wb = (min(w, p) for w in widths)
        a, b = cols[:wa], cols[:wb][::-1]
        za, zb = random_features_block(x, a, spec), random_features_block(x, b, spec)
        assert za.tobytes() == random_features_block(x, a, spec).tobytes()
        shared = min(wa, wb)
        np.testing.assert_allclose(
            za[:, :shared], zb[:, ::-1][:, :shared],
            rtol=0, atol=RF_SHARED_COLUMN_ATOL * np.sqrt(2.0 / p),
        )

    def test_feature_params_pure(self):
        spec = FeatureMapSpec(p=10, sigma=2.0, master_seed=42)
        w1, b1 = feature_params(spec, 3, 6)
        w2, b2 = feature_params(spec, 3, 6)
        assert np.array_equal(w1, w2) and b1 == b2
        assert 0.0 <= b1 < 2 * math.pi

    def test_unbiasedness_decay_rate(self):
        # |mean_M phi(x) phi(y) - k(x, y)| should shrink like 1/sqrt(M);
        # the fitted log-log slope over M in {1e2, 1e3, 1e4, 1e5} must land
        # in [-0.65, -0.35].  Uses nested prefixes of one feature stream
        # and averages over pairs to tame the noise of a single path.
        sigma = 1.0
        spec = FeatureMapSpec(p=100_000, sigma=sigma, master_seed=123)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((16, 3))
        z = random_features_block(x, np.arange(spec.p), spec)
        phi = z * math.sqrt(spec.p)  # per-feature products, unscaled
        kspec = KernelSpec("rbf", sigma)
        sizes = [100, 1_000, 10_000, 100_000]
        errs = []
        for m in sizes:
            acc = 0.0
            count = 0
            for i in range(0, 16, 2):
                approx = float(phi[i, :m] @ phi[i + 1, :m]) / m
                acc += abs(approx - kernel_eval(kspec, x[i], x[i + 1]))
                count += 1
            errs.append(acc / count)
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert -0.65 <= slope <= -0.35, f"slope {slope}"

    def test_out_of_range(self):
        spec = FeatureMapSpec(p=4, sigma=1.0, master_seed=0)
        with pytest.raises(IndexOutOfRangeError):
            random_features_block(np.ones((3, 2)), [4], spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FeatureMapSpec(p=0, sigma=1.0, master_seed=0)
        with pytest.raises(ValueError):
            FeatureMapSpec(p=4, sigma=0.0, master_seed=0)


class TestOneVsAll:
    def test_two_classes(self):
        data = Dataset(X=np.zeros((2, 1)), labels=[0, 1], k=2)
        assert np.array_equal(one_vs_all(data), [[1.0, -1.0], [-1.0, 1.0]])

    def test_single_class(self):
        data = Dataset(X=np.zeros((3, 1)), labels=[0, 0, 0], k=1)
        assert np.array_equal(one_vs_all(data), np.ones((3, 1)))

    def test_matches_definition(self):
        data = Dataset(X=np.zeros((3, 1)), labels=[2, 0, 2], k=3)
        y = one_vs_all(data)
        for i, label in enumerate([2, 0, 2]):
            for j in range(3):
                assert y[i, j] == (1.0 if j == label else -1.0)
        assert np.all(np.sum(y == 1.0, axis=1) == 1)

    def test_label_too_big_to_index_is_named(self):
        # 2 x (2**62 + 1) floats is past what numpy can index
        data = Dataset(X=np.zeros((2, 1)), labels=[0, 2**62], k=2**62 + 1)
        with pytest.raises(DataFormatError, match=f"label {2**62} makes"):
            one_vs_all(data)

    def test_label_validation(self):
        # a package error that is still a ValueError, naming the first bad label
        for labels, first in [([0, 2, 3], "labels[1] = 2"), ([1, 0, -1], "labels[2] = -1")]:
            with pytest.raises(ConfigError, match=re.escape(f"{first} lies outside [0, 2)")):
                Dataset(X=np.zeros((3, 1)), labels=labels, k=2)


@pytest.mark.parametrize(
    "X, labels, error, message",
    [
        (np.zeros(3), [0, 1, 0], DimensionMismatchError, "X must be 2-d"),
        (np.zeros((3, 2)), [0, 1], DimensionMismatchError, "labels length must match"),
        (np.array([[0.0, 1.0], [np.inf, np.nan]]), [0, 1], ConfigError,
         r"X\[1, 0\] = inf is not finite"),
        (np.array([[0.0, np.nan], [1.0, 2.0]]), [0, 1], ConfigError,
         r"X\[0, 1\] = nan is not finite"),
    ],
    ids=["X-1-d", "labels-length", "inf", "nan"],
)
def test_dataset_refuses_bad_shapes_and_non_finite_X(X, labels, error, message):
    with pytest.raises(error, match=message):
        Dataset(X=X, labels=labels, k=2)


@pytest.mark.parametrize(
    "indices, message",
    [
        ([[0, 1]], "index set must be 1-d"),
        ([0.5], "entries must be integers"),
        ([1, 0, 1], "contains duplicates"),
    ],
    ids=["2-d", "fraction", "duplicates"],
)
def test_blocks_refuse_bad_index_sets(indices, message):
    X = np.ones((3, 2))
    spec = FeatureMapSpec(p=4, sigma=1.0, master_seed=0)
    with pytest.raises(IndexOutOfRangeError, match=message):
        random_features_block(X, indices, spec)


def test_feature_params_refuses_an_index_past_p():
    spec = FeatureMapSpec(p=4, sigma=1.0, master_seed=0)
    with pytest.raises(IndexOutOfRangeError, match=r"feature index 4 outside \[0, 4\)"):
        feature_params(spec, spec.p, 3)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        data = gaussian_blobs(20, 3, 2, seed=1)
        path = tmp_path / "data.csv"
        rows = np.hstack([data.X, data.labels[:, None].astype(float)])
        np.savetxt(path, rows, delimiter=",", fmt="%.17g")
        loaded = load_csv(path)
        assert np.array_equal(loaded.X, data.X)
        assert np.array_equal(loaded.labels, data.labels)
        assert loaded.k == 2

    def test_header_flag(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,label\n1.0,2.0,0\n3.0,4.0,1\n")
        loaded = load_csv(path, has_header=True)
        assert loaded.n == 2 and loaded.d == 2

    def test_missing_label_column_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n1.5\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(path)
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    def test_bad_label_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n1.0,2.0,1.5\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(path)
        assert exc.value.line == 2

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n1.0,2.0,3.0,1\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(path)
        assert exc.value.line == 2

    def test_negative_label_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n1.0,2.0,-1\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(path)
        assert exc.value.line == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_csv(path)


def test_kernel_cross_matches_block():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((8, 3))
    idx = [1, 5]
    block = kernel_cross(x, x[idx], RBF, rows=idx)
    assert np.array_equal(kernel_cross(x, x[idx], RBF), block)


def _numpy_column_draw(master, m, d):
    """Feature m's d + 1 uniforms from numpy's public Philox: the master
    seed's key, m in counter word 1."""
    key = np.random.SeedSequence(master).generate_state(2, np.uint64)
    bits = np.random.Philox(key=key, counter=[0, m, 0, 0])
    return np.random.Generator(bits).random(d + 1)


@settings(max_examples=150, deadline=None)
@given(
    master=st.integers(0, 2**140 - 1),
    d=st.integers(0, 40),
    cols=st.lists(
        st.one_of(
            st.integers(0, 64), st.integers(0, 2**32 - 1), st.integers(2**32, 2**40)
        ),
        min_size=1, max_size=5, unique=True,
    ),
)
@example(master=0, d=4, cols=[0])
@example(master=2**130 + 5, d=6, cols=[2**32 - 1, 0, 7])
@example(master=2**64 + 3, d=17, cols=[2**32 - 1])
@example(master=0, d=3, cols=[0, 2**32 + 1])
# seeds of four and of five 32-bit words, and one past 2**128
@example(master=2**128 - 1, d=3, cols=[5, 2**32])
@example(master=2**128, d=3, cols=[5, 2**32])
@example(master=2**160 + 1, d=3, cols=[5, 2**33 + 7])
def test_block_draw_matches_numpy_philox_per_column(master, d, cols):
    # one array pass over a block gives each column numpy's public Philox
    # draw at counter [0, m, 0, 0], bit for bit, and so does feature_params
    spec = FeatureMapSpec(p=2**41, sigma=1.5, master_seed=master)
    freqs, phases = _block_params(spec, np.array(cols, dtype=np.int64), d)
    assert freqs.shape == (d, len(cols)) and freqs.flags.c_contiguous
    ref_freqs = np.empty((d, len(cols)))
    ref_phases = np.empty(len(cols))
    for j, m in enumerate(cols):
        u = _numpy_column_draw(master, m, d)
        ref_freqs[:, j] = ndtri(np.maximum(u[:d], 5e-324)) / spec.sigma
        ref_phases[j] = 2.0 * np.pi * u[d]
        omega, phase = feature_params(spec, m, d)
        assert np.array_equal(omega, freqs[:, j]) and phase == phases[j]
    assert np.array_equal(freqs, ref_freqs)
    assert np.array_equal(phases, ref_phases)
    X = np.random.default_rng(d).standard_normal((5, d))
    block = random_features_block(X, cols, spec)
    t = X @ ref_freqs + ref_phases
    assert block.tobytes() == random_feature_entries(t, spec.p).tobytes()
    np.testing.assert_allclose(
        block, np.sqrt(2.0 / spec.p) * np.cos(t),
        rtol=0, atol=RF_ENTRY_ATOL * np.sqrt(2.0 / spec.p),
    )


def test_ndtri_port_matches_scipy_bit_for_bit():
    # the inputs _block_params gives it: 53-bit uniforms floored at 5e-324,
    # and u**40 for the far lower tail, plus each branch edge
    rng = np.random.default_rng(20)
    words = rng.integers(0, 2**53, 1 << 20, dtype=np.uint64)
    words[:3] = 0, 1, 2**53 - 1
    uniforms = np.maximum(words * 2.0**-53, 5e-324)
    far = np.maximum(rng.random(1 << 20) ** 40, 5e-324)
    e2 = math.exp(-2.0)
    edges = np.array([5e-324, 2.0**-53, e2, np.nextafter(e2, 0), np.nextafter(e2, 1),
                      1 - e2, np.nextafter(1 - e2, 0), np.nextafter(1 - e2, 1),
                      math.exp(-32.0), 0.5, 1 - 2.0**-53])
    for u in (uniforms, far, edges, uniforms[:4096].reshape(64, 64)):
        got = _ndtri(u)
        assert got.shape == u.shape
        assert got.tobytes() == ndtri(u).tobytes()


def test_negative_master_seed_raises():
    with pytest.raises(ValueError):
        FeatureMapSpec(p=4, master_seed=-1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p=8, master_seed=-1),
        dict(p=8, master_seed=1.5),
        dict(p=8.0),
        dict(p="8"),
        dict(p=0),
        dict(p=8, sigma=0.0),
        dict(p=8, sigma="1.0"),
        dict(p=8, sigma=None),
        dict(p=8, sigma=10**400),
    ],
)
def test_feature_spec_rejects_bad_values_with_config_error(kwargs):
    with pytest.raises(ConfigError):
        FeatureMapSpec(**kwargs)


def test_feature_spec_keeps_numpy_integers_as_ints():
    spec = FeatureMapSpec(p=np.int64(8), master_seed=np.uint32(3))
    assert type(spec.p) is int and type(spec.master_seed) is int
    assert spec == FeatureMapSpec(8, master_seed=3)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="poly"),
        dict(sigma=-1.0),
        dict(sigma="1.0"),
        dict(family="linear", sigma="1.0"),  # linear ignores only the value
        dict(sigma=None),
        dict(sigma=1 + 0j),
        dict(sigma=10**400),
    ],
)
def test_kernel_spec_rejects_bad_values_with_config_error(kwargs):
    with pytest.raises(ConfigError):
        KernelSpec(**kwargs)


@pytest.mark.parametrize("words", [3, 24, 100])
def test_block_draw_in_column_chunks_is_unchanged(words, monkeypatch):
    # a wide block is drawn a few columns at a time to bound the Philox
    # temporaries; the chunks (one column, or an uneven last one) give the
    # same bytes as a single pass
    spec = FeatureMapSpec(p=500, sigma=0.7, master_seed=2**40 + 9)
    idx = np.random.default_rng(5).choice(500, size=23, replace=False)
    freqs, phases = _block_params(spec, idx, 7)
    monkeypatch.setattr("kernelbcd.kernels._DRAW_WORDS", words)
    chunked, chunked_phases = _block_params(spec, idx, 7)
    assert chunked.flags.c_contiguous
    assert np.array_equal(chunked, freqs) and np.array_equal(chunked_phases, phases)


@pytest.mark.parametrize("sigma", [float("inf"), float("nan"), -1.0, 0.0, 1e-320, 5e-324])
def test_feature_map_rejects_sigma_without_finite_reciprocal(sigma):
    with pytest.raises(ValueError, match="sigma"):
        FeatureMapSpec(p=4, sigma=sigma)
    with pytest.raises(ValueError, match="sigma"):
        FeatureMapSpec(p=4, sigma=np.float64(sigma))


@pytest.mark.parametrize("sigma", [1e-300, 1e300])
def test_feature_map_takes_sigma_at_the_float_edges(sigma):
    assert FeatureMapSpec(p=4, sigma=sigma).sigma == sigma


def test_feature_map_sigma_bound_covers_the_largest_draw():
    # _block_params floors its uniforms at 5e-324 before ndtri
    assert MAX_NORMAL_DRAW >= abs(ndtri(5e-324))


@pytest.mark.parametrize("sigma", [1e-308, 2e-307])
def test_feature_map_rejects_sigma_whose_frequencies_overflow(sigma):
    # 1 / sigma is finite, but a frequency can reach 38.47 / sigma
    with pytest.raises(ValueError, match="38.5 / sigma"):
        FeatureMapSpec(p=4, sigma=sigma)
    assert FeatureMapSpec(p=4, sigma=2.2e-307).sigma == 2.2e-307


@pytest.mark.parametrize("sigma", [2, np.float32(2.0), np.float64(2.0), np.int64(2)])
def test_spec_sigma_is_stored_as_a_python_float(sigma):
    for spec in (KernelSpec("rbf", sigma), KernelSpec("linear", sigma),
                 FeatureMapSpec(8, sigma)):
        assert type(spec.sigma) is float and spec.sigma == 2.0


@pytest.mark.parametrize("words", [None, 40, 300])
@pytest.mark.parametrize("base_seed", [0, 2**128 - 3])
def test_stacked_seeds_give_each_seed_its_own_block(words, base_seed, monkeypatch):
    # 2**128 - 3 .. 2**128 + 2: seeds of four and of five 32-bit words.
    # With 8 Philox words a column, 40 words make passes of 5 of one seed's
    # 7 columns, and 300 passes of 5 whole seeds and then 1
    if words is not None:
        monkeypatch.setattr("kernelbcd.kernels._DRAW_WORDS", words)
    X = np.random.default_rng(3).standard_normal((9, 7))
    cols = [11, 0, 5, 29, 17, 3, 8]
    spec = FeatureMapSpec(p=30, sigma=0.8, master_seed=1)
    stack = random_features_stack(X, cols, spec, range(base_seed, base_seed + 6))
    assert stack.shape == (9, 6, 7)
    for t in range(6):
        one = random_features_block(X, cols, FeatureMapSpec(30, 0.8, base_seed + t))
        assert stack[:, t].tobytes() == one.tobytes()


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_stacked_seeds_are_checked_like_a_master_seed(seed):
    spec = FeatureMapSpec(p=4)
    with pytest.raises(ConfigError, match="master_seed"):
        random_features_stack(np.ones((2, 2)), [0, 1], spec, [0, seed])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), d=st.integers(1, 8), p=st.integers(1, 64),
       log_scale=st.floats(-3.0, 12.0), seed=st.integers(0, 2**32 - 1))
@example(n=64, d=4, p=64, log_scale=0.0, seed=0)
def test_feature_entries_within_the_derived_bound_of_float64_cos(n, d, p, log_scale, seed):
    # arguments from about 1e-3 to past the exact range, 2**22 turns
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * 10.0**log_scale
    spec = FeatureMapSpec(p=p, sigma=float(rng.uniform(0.5, 3.0)), master_seed=seed)
    freqs, phases = _block_params(spec, np.arange(p), d)
    t = x @ freqs + phases
    z = random_features_block(x, np.arange(p), spec)
    assert z.tobytes() == random_feature_entries(t, p).tobytes()
    scale = np.sqrt(2.0 / p)
    np.testing.assert_allclose(z, scale * np.cos(t), rtol=0, atol=RF_ENTRY_ATOL * scale)
    assert np.abs(z).max() <= scale


def test_arguments_past_the_exact_range_take_the_float64_cosine():
    # k = 2**22 is the last exact turn; 2**22 + 1 and the far finite
    # arguments take cos(t) in float64, in place, beside reduced ones
    edge = 2.0**22 * kernels.TWO_PI
    t = np.array([[edge, np.nextafter(edge + np.pi, 0), edge + 4.0, -edge - 4.0],
                  [1e300, -1.7e308, 0.5, 1e7 * kernels.TWO_PI]])
    k, r, r32 = np.empty_like(t), np.empty_like(t), np.empty(t.shape, np.float32)
    z = t.copy()
    _scaled_cos(z, 0.5, k, r, r32)
    assert z.tobytes() == random_feature_entries(t, 8).tobytes()
    far = np.array([[False, False, True, True], [True, True, False, True]])
    assert np.array_equal(z[far], 0.5 * np.cos(t[far]))
    np.testing.assert_allclose(z, 0.5 * np.cos(t), rtol=0, atol=RF_ENTRY_ATOL * 0.5)


def test_features_at_the_sigma_edge_stay_finite_and_bounded():
    # sigma = 2.2e-307 draws frequencies up to 1.7e308: every finite
    # argument gives a finite entry within sqrt(2/p), with no RuntimeWarning
    spec = FeatureMapSpec(p=16, sigma=2.2e-307, master_seed=3)
    x = np.random.default_rng(11).standard_normal((64, 3)) * 1e-2
    freqs, phases = _block_params(spec, np.arange(16), 3)
    t = x @ freqs + phases
    assert np.isfinite(t).all() and np.abs(t).max() > 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = random_features_block(x, np.arange(16), spec)
    assert np.isfinite(z).all() and np.abs(z).max() <= np.sqrt(2.0 / 16)
    assert z.tobytes() == random_feature_entries(t, 16).tobytes()


@pytest.mark.parametrize("source", ["rbf", "linear", "rf", "rf-draw"])
def test_a_block_written_into_out_is_the_block_made_without_it(source):
    # out is filled in place, byte for byte the new block, and must be a
    # C-contiguous float64 array of the block's shape
    X = np.random.default_rng(3).standard_normal((12, 3))
    cols = np.array([5, 1, 4])
    if source.startswith("rf"):
        spec = FeatureMapSpec(8, 1.5, master_seed=4)
        draw = kernels.feature_draw(spec, 3) if source == "rf-draw" else None

        def block(out=None):
            return random_features_block(X, cols, spec, draw, out=out)
    else:
        def block(out=None):
            return kernel_cross(X, X[cols], KernelSpec(source, 1.5), cols, out=out)

    fresh = block()
    out = np.full((12, 3), np.nan)
    assert block(out) is out
    assert out.tobytes() == fresh.tobytes()
    for bad in (np.empty((12, 4)), np.empty((12, 3), order="F"),
                np.empty((12, 3), np.float32)):
        with pytest.raises(DimensionMismatchError, match="C-contiguous float64"):
            block(bad)
