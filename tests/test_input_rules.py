"""Every public entry refuses a bad count or a data array of the wrong rank
with the package's own error, through the shared input rules of
``kernelbcd.errors``, and never with a raw Python or numpy exception."""

import warnings

import numpy as np
import pytest

from kernelbcd import ExecContext
from kernelbcd.distsim import make_partition, predict_costs
from kernelbcd.errors import ConfigError, DimensionMismatchError, KernelBcdError
from kernelbcd.kernels import (
    Dataset,
    FeatureMapSpec,
    KernelSpec,
    feature_params,
    gaussian_blobs,
    kernel_block,
    kernel_cross,
    random_features_block,
)
from kernelbcd.rates import (
    adversarial_hessian,
    bernstein_lower_rate,
    chernoff_violation_rate,
    classical_bound,
    conditioning_compare,
    improved_bound,
    rf_concentration_check,
    rf_required_features,
    standard_rate_iters,
    theorem_rate,
)
from kernelbcd.solvers import make_plan, solve_rf

RBF = KernelSpec("rbf", 1.0)
FSPEC = FeatureMapSpec(p=4, sigma=1.0, master_seed=0)
CUBE = np.ones((2, 2, 2))
H4 = 2 * np.eye(4)
BLOBS = gaussian_blobs(8, 2, 2, seed=0)


def _solve_rf_on_workers(workers):
    data = gaussian_blobs(16, 3, 2, seed=1)
    return solve_rf(data, FeatureMapSpec(8, 2.0), 0.1, make_plan(8, 4), 1,
                    exec_ctx=ExecContext(workers=workers))


REFUSALS = {
    # data arrays: the 2-d rule
    "kernel_cross-1d": (lambda: kernel_cross(np.ones(3), np.ones(3), RBF),
                        DimensionMismatchError),
    "kernel_cross-3d": (lambda: kernel_cross(CUBE, CUBE, RBF), DimensionMismatchError),
    "kernel_block-1d": (lambda: kernel_block(np.ones(3), [0], RBF), DimensionMismatchError),
    "kernel_block-3d": (lambda: kernel_block(CUBE, [0], RBF), DimensionMismatchError),
    "random_features_block-1d": (lambda: random_features_block(np.ones(3), [0, 1], FSPEC),
                                 DimensionMismatchError),
    "random_features_block-3d": (lambda: random_features_block(CUBE, [0, 1], FSPEC),
                                 DimensionMismatchError),
    "chernoff-1d": (lambda: chernoff_violation_rate(np.ones(5), 2, 0.1, 10),
                    DimensionMismatchError),
    "bernstein-1d": (lambda: bernstein_lower_rate(np.ones(5), 2, 0.1, 10),
                     DimensionMismatchError),
    # counts: the count and size rules
    "Dataset-k-fraction": (lambda: Dataset(np.ones((2, 2)), [0, 1], k=1.5), ConfigError),
    "Dataset-k-string": (lambda: Dataset(np.ones((2, 2)), [0, 1], k="2"), ConfigError),
    "gaussian_blobs-k-0": (lambda: gaussian_blobs(4, 2, 0), ConfigError),
    "gaussian_blobs-k-fraction": (lambda: gaussian_blobs(4, 2, 1.5), ConfigError),
    "gaussian_blobs-n-float": (lambda: gaussian_blobs(4.0, 2, 2), ConfigError),
    "gaussian_blobs-n-negative": (lambda: gaussian_blobs(-1, 2, 2), ConfigError),
    "feature_params-index-fraction": (lambda: feature_params(FSPEC, 1.5, 3), ConfigError),
    "solve_rf-workers-fraction": (lambda: _solve_rf_on_workers(1.5), ConfigError),
    "make_partition-workers-float": (lambda: make_partition(8, 2.0), ConfigError),
    "predict_costs-workers-fraction": (lambda: predict_costs("rf", 10, 8, 4, 2, 1.5),
                                       ConfigError),
    # data arrays: the numeric rule and the whole-number rule
    "Dataset-X-string": (lambda: Dataset([["a", "b"]], [0], 1), ConfigError),
    "kernel_cross-ragged": (lambda: kernel_cross([[1.0, 2.0], [3.0]], np.ones((1, 2)), RBF),
                            ConfigError),
    "Dataset-labels-fraction": (lambda: Dataset(np.ones((2, 2)), [0.5, 1], 2), ConfigError),
    "Dataset-labels-nan": (lambda: Dataset(np.ones((2, 2)), [np.nan, 1], 2), ConfigError),
    "Dataset-labels-string": (lambda: Dataset(np.ones((2, 2)), ["a", "b"], 2), ConfigError),
    # real numbers: the real rule
    "gaussian_blobs-center_scale-string": (lambda: gaussian_blobs(4, 2, 2, center_scale="x"),
                                           ConfigError),
    "gaussian_blobs-noise-string": (lambda: gaussian_blobs(4, 2, 2, noise="x"), ConfigError),
    "theorem_rate-m-string": (lambda: theorem_rate(H4, 2, "x"), ConfigError),
    "improved_bound-m-string": (lambda: improved_bound(H4, 2, "x", 1.0, 3), ConfigError),
    "classical_bound-m-string": (lambda: classical_bound(H4, 2, "x", 1.0, 3), ConfigError),
    "standard_rate_iters-m-string": (lambda: standard_rate_iters(H4, 2, "x", 0.5),
                                     ConfigError),
    "standard_rate_iters-eps-string": (lambda: standard_rate_iters(H4, 2, 1.0, "x"),
                                       ConfigError),
    "rf_required_features-alpha-string": (lambda: rf_required_features(BLOBS.X, 1.0, "x", 0.1),
                                          ConfigError),
    "rf_concentration_check-alpha-string": (
        lambda: rf_concentration_check(FSPEC, BLOBS.X, "x", 0.1, 10), ConfigError),
    "adversarial_hessian-lam-string": (lambda: adversarial_hessian(4, "x"), ConfigError),
    "conditioning_compare-lam-string": (
        lambda: conditioning_compare(BLOBS, RBF, FSPEC, 4, "x", 0.1), ConfigError),
    "conditioning_compare-gamma-string": (
        lambda: conditioning_compare(BLOBS, RBF, FSPEC, 4, 0.1, "x"), ConfigError),
}


@pytest.mark.parametrize("call, error", REFUSALS.values(), ids=REFUSALS.keys())
def test_entry_refuses_with_the_package_error(call, error):
    assert issubclass(error, KernelBcdError)
    # a warning on the way (numpy's divide by zero, say) fails the case too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KernelBcdError) as info:
            call()
    assert type(info.value) is error


def test_counts_keep_their_accepted_ranges():
    # an empty dataset has no class; a class count is stored as a Python int
    empty = Dataset(np.empty((0, 2)), [], 0)
    assert (empty.n, empty.k) == (0, 0)
    assert type(Dataset(np.ones((2, 2)), [0, 1], np.int64(2)).k) is int
    # whole-number labels of any numeric dtype are stored as int64
    for labels in ([0.0, 1.0], np.array([0, 1], np.uint8), [False, True]):
        stored = Dataset(np.ones((2, 2)), labels, 2).labels
        assert stored.dtype == np.int64 and stored.tolist() == [0, 1]
    # the pinned refusals of the partition and the cost closed forms stay
    for n_rows, workers in [(8, 0), (-1, 2)]:
        with pytest.raises(DimensionMismatchError):
            make_partition(n_rows, workers)
    with pytest.raises(ConfigError, match="cost parameters must be positive"):
        predict_costs("rf", 8, 0, 4, 2, 1)
    assert make_partition(np.int64(8), np.int64(3)).bounds == (0, 3, 6, 8)
