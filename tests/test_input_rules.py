"""Every public entry refuses a bad count, a bad lambda, an unknown name or a
data array of the wrong rank with the package's own error, through the
shared input rules of ``kernelbcd.errors``, and never with a raw Python or
numpy exception."""

import warnings

import numpy as np
import pytest

from kernelbcd import ExecContext
from kernelbcd.distsim import METHODS, make_partition, predict_costs
from kernelbcd.errors import (
    ConfigError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    KernelBcdError,
    check_choice,
    check_lambdas,
)
from kernelbcd.kernels import (
    Dataset,
    FeatureMapSpec,
    KernelSpec,
    feature_params,
    gaussian_blobs,
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
from kernelbcd.solvers import (
    Model,
    make_plan,
    normal_equation_residual,
    objective_value,
    solve_rf,
)

RBF = KernelSpec("rbf", 1.0)
FSPEC = FeatureMapSpec(p=4, sigma=1.0, master_seed=0)
CUBE = np.ones((2, 2, 2))
H4 = 2 * np.eye(4)
BLOBS = gaussian_blobs(8, 2, 2, seed=0)
# a full model on 32 rows and a nystrom model whose landmarks reach row 29,
# for the dense diagnostics; their training set is TRAIN
TRAIN = gaussian_blobs(32, 2, 2, seed=0)
FULL = Model("full", np.zeros((32, 2)), kernel=RBF, anchors=TRAIN.X)
NYSTROM = Model("nystrom", np.zeros((2, 2)), kernel=RBF, anchors=TRAIN.X[[3, 29]],
                landmarks=np.array([3, 29]))
RF = Model("rf", np.zeros((4, 2)), features=FSPEC, dim=2)
DIAGNOSTICS = (normal_equation_residual, objective_value)
NO_ROWS = Dataset(np.empty((0, 2)), [], 2)
# TRAIN's rows with a third class: no training set of the 2-column models
THREE_CLASSES = Dataset(TRAIN.X, np.arange(32) % 3, 3)
# column sets that are no model's: each a function of the coefficient rows
BAD_COLUMNS = {
    "negative": lambda rows: [-1],
    "out-of-range": lambda rows: [0, rows],
    "duplicate": lambda rows: [1, 1],
    "fractional": lambda rows: [0.5],
    "boolean": lambda rows: [True, False],
    "2-d": lambda rows: [[0, 1]],
}


def _solve_rf_on_workers(workers):
    data = gaussian_blobs(16, 3, 2, seed=1)
    return solve_rf(data, FeatureMapSpec(8, 2.0), 0.1, make_plan(8, 4), 1,
                    exec_ctx=ExecContext(workers=workers))


REFUSALS = {
    # data arrays: the 2-d rule
    "kernel_cross-1d": (lambda: kernel_cross(np.ones(3), np.ones(3), RBF),
                        DimensionMismatchError),
    "kernel_cross-3d": (lambda: kernel_cross(CUBE, CUBE, RBF), DimensionMismatchError),
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
    # lambdas: the lambda rule; gammas: the level rule
    "conditioning_compare-lam-negative": (
        lambda: conditioning_compare(BLOBS, RBF, FSPEC, 4, -1.0, 0.1), ConfigError),
    "conditioning_compare-gamma-negative": (
        lambda: conditioning_compare(BLOBS, RBF, FSPEC, 4, 0.1, -1.0), ConfigError),
    # n lam, and n lam gamma for the nystrom system, must be finite, as the
    # dense diagnostics need
    **{f"conditioning_compare-lam-{lam}-gamma-{gamma}-overflows": (
        lambda lam=lam, gamma=gamma: conditioning_compare(
            gaussian_blobs(32, 2, 2, seed=1), KernelSpec("rbf", 1.5),
            FeatureMapSpec(8, 1.5, 3), 8, lam, gamma),
        ConfigError)
       for lam, gamma in [(1e308, 0.1), (0.1, 1e308), (1e300, 1e10)]},
    # each system from its own spec type, as the single-method solves take
    "conditioning_compare-kspec-feature-map": (
        lambda: conditioning_compare(BLOBS, FSPEC, FSPEC, 4, 0.1, 0.1), ConfigError),
    "conditioning_compare-fspec-kernel": (
        lambda: conditioning_compare(BLOBS, RBF, RBF, 4, 0.1, 0.1), ConfigError),
    **{f"{f.__name__}-lam-{value}": (lambda f=f, value=value: f(FULL, TRAIN, value), ConfigError)
       for f in DIAGNOSTICS for value in ("x", None, -1.0, np.nan)},
    **{f"{f.__name__}-gamma-negative": (lambda f=f: f(NYSTROM, TRAIN, 0.1, -1.0), ConfigError)
       for f in DIAGNOSTICS},
    "check_lambdas-empty": (lambda: check_lambdas("lambda", []), ConfigError),
    "check_lambdas-string": (lambda: check_lambdas("lambda", [0.1, "x"]), ConfigError),
    "check_lambdas-zero": (lambda: check_lambdas("lambda", [0.0]), ConfigError),
    "check_lambdas-inf": (lambda: check_lambdas("lambda", [np.inf]), ConfigError),
    "check_lambdas-nan": (lambda: check_lambdas("lambda", [np.nan]), ConfigError),
    "check_lambdas-repeat": (lambda: check_lambdas("lambda", [0.1, 0.2, 0.1]), ConfigError),
    # an int past the float range, which 0 < value < inf lets through
    "check_lambdas-huge-int": (lambda: check_lambdas("lambda", [10**400]), ConfigError),
    "solve_rf-lam-huge-int": (
        lambda: solve_rf(BLOBS, FSPEC, 10**400, make_plan(4, 2), 1), ConfigError),
    **{f"{f.__name__}-lam-huge-int": (lambda f=f: f(FULL, TRAIN, 10**400), ConfigError)
       for f in DIAGNOSTICS},
    # n lam, and for nystrom n lam gamma, must be finite, as a solve needs
    **{f"{f.__name__}-{model.method}-n-lam-overflows": (
        lambda f=f, model=model: f(model, TRAIN, 1e308, 1e-3), ConfigError)
       for f in DIAGNOSTICS for model in (FULL, NYSTROM, RF)},
    **{f"{f.__name__}-nystrom-n-lam-gamma-overflows": (
        lambda f=f: f(NYSTROM, TRAIN, 0.1, 1e308), ConfigError)
       for f in DIAGNOSTICS},
    # models: a nystrom model's diagnostics test its landmarks against the rows
    "Model-nystrom-without-landmarks": (
        lambda: Model("nystrom", np.zeros((2, 2)), kernel=RBF, anchors=TRAIN.X[[3, 29]]),
        ConfigError),
    "check_choice-method": (lambda: check_choice("method", "sgd", METHODS), ConfigError),
    # the dense diagnostics take only a data set that can be the training set
    **{f"{f.__name__}-full-40-rows": (
        lambda f=f: f(FULL, gaussian_blobs(40, 2, 2, seed=1), 0.1), DimensionMismatchError)
       for f in DIAGNOSTICS},
    **{f"{f.__name__}-nystrom-20-rows": (
        lambda f=f: f(NYSTROM, gaussian_blobs(20, 2, 2, seed=1), 0.1), DimensionMismatchError)
       for f in DIAGNOSTICS},
    **{f"{f.__name__}-{model.method}-no-rows": (
        lambda f=f, model=model: f(model, NO_ROWS, 0.1), DimensionMismatchError)
       for f in DIAGNOSTICS for model in (FULL, NYSTROM, RF)},
    **{f"{f.__name__}-{model.method}-3-classes": (
        lambda f=f, model=model: f(model, THREE_CLASSES, 0.1), DimensionMismatchError)
       for f in DIAGNOSTICS for model in (FULL, NYSTROM, RF)},
    # column sets: one index rule for every method's column map, at the
    # anchors or not
    **{f"Model.columns-{model.method}-{name}{'-at-anchors' * at_anchors}": (
        lambda model=model, cols=cols, at_anchors=at_anchors: model.columns(
            TRAIN.X, cols(model.coefficients.shape[0]), at_anchors=at_anchors),
        IndexOutOfRangeError)
       for model in (FULL, NYSTROM, RF) for name, cols in BAD_COLUMNS.items()
       for at_anchors in (False, True)},
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


def test_the_shared_rules_keep_their_messages():
    with pytest.raises(ConfigError, match="^need at least one --lambda$"):
        check_lambdas("--lambda", [])
    with pytest.raises(ConfigError, match="^lambda must be a real number, got 'x'$"):
        check_lambdas("lambda", ["x"])
    with pytest.raises(ConfigError, match="^lambda values must be positive and finite$"):
        check_lambdas("lambda", [0.1, -1.0])
    with pytest.raises(ConfigError, match="^lambda values must be positive and finite$"):
        check_lambdas("lambda", [0.1, 10**400])
    with pytest.raises(ConfigError, match="^--lambda values must be distinct: 0.001 repeated$"):
        check_lambdas("--lambda", [1e-3, 0.1, 0.001])
    with pytest.raises(ConfigError, match="^unknown method 'sgd'$"):
        check_choice("method", "sgd", METHODS)
    check_lambdas("lambda", [0.1, np.float64(1e-3), 2, np.float32(3.0)])
    check_lambdas("lambda", [0.1, 10**300])
    # the repeat test compares Python floats, so numpy casts nothing
    check_lambdas("lambda", [np.float32(3.0), 10**300])
    with pytest.raises(ConfigError, match="^nystrom model needs landmarks$"):
        Model("nystrom", np.zeros((2, 2)), kernel=RBF, anchors=TRAIN.X[[3, 29]])
    check_choice("method", "rf", METHODS)


def test_diagnostics_take_the_training_set():
    # a full model on its 32 rows and a nystrom model whose landmarks are
    # rows of the set give a number, as on every solver's training set
    for model in (FULL, NYSTROM):
        for f in DIAGNOSTICS:
            assert np.isfinite(f(model, TRAIN, 0.1, 1e-3))
    # a data set of another class count is refused naming both counts
    for model in (FULL, NYSTROM, RF):
        for f in DIAGNOSTICS:
            with pytest.raises(DimensionMismatchError,
                               match="^data has 3 classes, the model 2 coefficient columns$"):
                f(model, THREE_CLASSES, 0.1)
    # a full or rf solve ignores gamma, so n lam gamma may overflow there
    for model in (FULL, RF):
        for f in DIAGNOSTICS:
            assert np.isfinite(f(model, TRAIN, 0.1, 1e308))
