"""The one block step: each system's block of the normal-equation residual
drives the update, the grad_tol check and the residual check; the ledger
charges what the step computes; library inputs are range-checked like the
CLI's."""

import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelbcd import solvers
from kernelbcd.distsim import (
    CostLedger,
    ExecContext,
    measured_vs_predicted,
    predict_costs,
)
from kernelbcd.errors import ConfigError, DivergenceError, NotSpdError
from kernelbcd.kernels import (
    FeatureMapSpec,
    KernelSpec,
    gaussian_blobs,
    kernel_cross,
    one_vs_all,
    random_features_block,
)
from kernelbcd.solvers import (
    draw_landmarks,
    epoch_blocks,
    make_plan,
    normal_equation_residual,
    solve_full,
    solve_nystrom,
    solve_rf,
)

METHODS = ["full", "nystrom", "rf"]
KSPEC = KernelSpec("rbf", sigma=2.0)


class _Recorder:
    """A system that behaves like ``system`` and keeps every batch it
    updates, in first-update order."""

    def __init__(self, system):
        self.system, self.batches = system, []

    def __getattr__(self, name):
        return getattr(self.system, name)

    def update(self, batch, *args):
        if not any(b is batch for b in self.batches):
            self.batches.append(batch)
        return self.system.update(batch, *args)


def run_wrapped(wrap, run_spec):
    """``run_spec()``, a call of ``_run_spec``, on ``wrap(system)``: the
    results and the wrapper."""
    wrappers = []
    real_run = solvers._run

    def run(data, system, *args, **kwargs):
        wrappers.append(wrap(system))
        return real_run(data, wrappers[-1], *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_run", run)
        results = run_spec()
    return results, wrappers[0]


def run_recorded(data, spec, lams, plan, epochs, **kw):
    """``_run_spec`` on a recording system: the results and the batches."""
    results, recorder = run_wrapped(
        _Recorder, lambda: solvers._run_spec(data, spec, lams, plan, epochs, **kw)
    )
    return results, recorder.batches


def dense_resid(model, data, lam):
    """R = (K_J + n lam S_J) a from the whole column map at once."""
    c = model.coefficients
    resid = model.columns(data.X) @ c
    if model.method == "nystrom":
        resid[model.landmarks] += data.n * lam * c
    return resid


@settings(max_examples=30, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    b=st.integers(1, 4),
    n_blocks=st.integers(1, 5),
    plan_seed=st.integers(0, 2**16),
    lams=st.lists(st.sampled_from([1e-3, 1e-2, 1e-1, 1.0]),
                  min_size=1, max_size=3, unique=True),
    workers=st.integers(1, 4),
    epochs=st.integers(0, 4),
)
def test_maintained_residual_equals_dense_recomputation(
    method, b, n_blocks, plan_seed, lams, workers, epochs
):
    # a check_residual run passes over any plan, lambda set, worker count
    # and epoch count, and every lambda's final fit error is R - Y with the
    # dense R
    universe = b * n_blocks
    n = max(universe, 12) if method != "full" else universe
    data = gaussian_blobs(n, 3, 2, seed=plan_seed % 97)
    plan = make_plan(universe, b, seed=plan_seed)
    if method == "rf":
        spec, extra = FeatureMapSpec(universe, 2.0, master_seed=plan_seed), {}
    elif method == "nystrom":
        spec, extra = KSPEC, dict(p=universe, gamma=1e-3, landmark_seed=plan_seed)
    else:
        spec, extra = KSPEC, {}
    results, batches = run_recorded(
        data, spec, lams, plan, epochs, check_residual=True,
        exec_ctx=ExecContext(workers), **extra,
    )
    assert len(batches) == (1 if epochs else 0)
    Y = one_vs_all(data)
    for batch in batches:
        for lam, cols, (model, _) in zip(lams, batch.cols, results):
            dense = dense_resid(model, data, lam)
            drift = np.linalg.norm(batch.resid[:, cols] - (dense - Y))
            assert drift <= 1e-10 * max(np.linalg.norm(dense), 1e-30)


def _case(method):
    """A 32-row problem of ``method``: its counting block source, plan and
    ``run(lams, epochs, **kw)`` on that source."""
    data = gaussian_blobs(32, 3, 2, seed=95)
    fspec = FeatureMapSpec(p=16, sigma=2.0, master_seed=98)
    landmarks = draw_landmarks(32, 16, seed=97)
    calls = []

    def source(pos):
        calls.append(1)
        if method == "full":
            return kernel_cross(data.X, data.X[pos], KSPEC)
        if method == "nystrom":
            return kernel_cross(data.X, data.X[landmarks[pos]], KSPEC)
        return random_features_block(data.X, pos, fspec)

    plan = make_plan(32, 8, seed=96) if method == "full" else make_plan(16, 4, seed=96)
    spec = fspec if method == "rf" else KSPEC
    extra = dict(p=16, gamma=1.0, landmark_seed=97) if method == "nystrom" else {}

    def run(lams, epochs, **kw):
        return solvers._run_spec(
            data, spec, lams, plan, epochs, block_fn=source, **extra, **kw
        )

    return calls, plan, run


@pytest.mark.parametrize("n_lams", [1, 3])
@pytest.mark.parametrize("method", ["nystrom", "rf"])
def test_grad_tol_stop_restores_coefficients_and_fit_error_together(
    monkeypatch, method, n_lams
):
    # a passing check ends the run on the epoch end's batch, so every
    # lambda's E there is the fit error of the coefficients it returns,
    # not of the discarded sweep's
    restored = []
    real = solvers._PendingCheck.restore
    monkeypatch.setattr(
        solvers._PendingCheck, "restore",
        lambda self, *a: (restored.append(real(self, *a)), restored[-1])[1],
    )
    _, _, run = _case(method)
    lams = [0.1, 0.03, 0.3][:n_lams]
    results = run(lams, 200, grad_tol=1e-3)
    [batch] = restored
    data = gaussian_blobs(32, 3, 2, seed=95)  # _case's data
    Y = one_vs_all(data)
    for lam, cols, (model, _) in zip(lams, batch.cols, results):
        assert np.array_equal(batch.coeffs[:, cols], model.coefficients)
        dense = dense_resid(model, data, lam)
        drift = np.linalg.norm(batch.resid[:, cols] - (dense - Y))
        assert drift <= 1e-10 * max(np.linalg.norm(dense), 1e-30)


@pytest.mark.parametrize("method", METHODS)
def test_residual_check_is_one_pass_for_every_lambda(method):
    calls, plan, run = _case(method)
    run([0.1, 0.03, 0.3], 3, check_residual=True)
    # three sweeps, and one check pass after each
    assert len(calls) == 2 * 3 * plan.n_blocks


@pytest.mark.parametrize("method, products", [("full", 1), ("nystrom", 2), ("rf", 2)])
def test_ledger_charges_the_step_residual_flops(method, products):
    # full reads its gradient off E: one n x b x k product per lambda and
    # visit (kb @ delta); nystrom and rf add kb^T E
    calls, plan, run = _case(method)
    ledger = CostLedger()
    run([0.1, 0.3], 2, exec_ctx=ExecContext(2, ledger))
    rows = [r for r in ledger.records if r.phase == "residual"]
    assert len(rows) == 2 * 2 * plan.n_blocks
    assert {r.flops for r in rows} == {products * 32 * plan.block_size * 2}


def test_full_step_makes_no_block_product(monkeypatch):
    calls = []
    real = solvers.partitioned_matvec
    monkeypatch.setattr(
        solvers, "partitioned_matvec", lambda *a: (calls.append(1), real(*a))[1]
    )
    _, _, run = _case("full")
    run([0.1], 3, grad_tol=1e-12, check_residual=True)
    assert calls == []


def test_one_epoch_full_run_meets_its_closed_form():
    data = gaussian_blobs(256, 4, 2, seed=9)
    ledger = CostLedger()
    solve_full(data, KSPEC, 1e-3, make_plan(256, 16, seed=1), 1,
               exec_ctx=ExecContext(4, ledger))
    pred = predict_costs("full", n=256, p=256, b=16, k=2, workers=4)
    report = measured_vs_predicted(ledger, pred)
    assert report.flops_ratio == 1.0
    assert report.bytes_exact and report.ok


def _solve(method, epochs=3, gamma=1e-3, **kw):
    data = gaussian_blobs(32, 3, 2, seed=1)
    if method == "full":
        return solve_full(data, KSPEC, 0.1, make_plan(32, 8), epochs, **kw)
    if method == "nystrom":
        return solve_nystrom(data, KSPEC, 16, 0.1, gamma, make_plan(16, 4), epochs, **kw)
    return solve_rf(data, FeatureMapSpec(16, 2.0), 0.1, make_plan(16, 4), epochs, **kw)


_BAD_INPUTS = [
    pytest.param(method, {name: value}, name, id=f"{method}-{name}={value}")
    for method in METHODS
    for name, value in [
        ("grad_tol", np.nan), ("grad_tol", np.inf), ("grad_tol", -1e-3), ("epochs", -1),
    ]
] + [  # gamma weights only the nystrom ridge; full and rf ignore it
    pytest.param("nystrom", {"gamma": value}, "gamma", id=f"nystrom-gamma={value}")
    for value in (np.nan, np.inf, -1.0)
]


@pytest.mark.parametrize("method, kw, match", _BAD_INPUTS)
def test_library_inputs_checked_like_the_cli(method, kw, match):
    with pytest.raises(ConfigError, match=match):
        _solve(method, **kw)


@pytest.mark.parametrize(
    "solve",
    [
        lambda data: solve_rf(data, FeatureMapSpec(16, 2.0), 1e308, make_plan(16, 8), 2),
        lambda data: solve_full(data, KSPEC, 1e307, make_plan(32, 8), 2),
        lambda data: solve_nystrom(data, KSPEC, 16, 1.0, 1e308, make_plan(16, 8), 2),
        # numpy lambdas overflow without a RuntimeWarning
        lambda data: solvers.solve_path(
            data, KSPEC, np.array([0.1, 1e307]), make_plan(16, 8), 2,
            p=16, gamma=np.float64(2.0),
        ),
    ],
    ids=["rf", "full", "nystrom-gamma", "path"],
)
def test_overflowing_n_lambda_is_config_error_not_divergence(solve):
    # n lambda and n lambda gamma enter the block matrix; before any block
    # is made, an overflow there is a bad input
    with pytest.raises(ConfigError, match="overflows at n = 32"):
        solve(gaussian_blobs(32, 3, 2))


def test_full_run_ignores_a_huge_gamma():
    # gamma weights only the nystrom ridge, so it cannot overflow a full run
    data = gaussian_blobs(32, 3, 2)
    [(model, _)] = solvers.solve_path(data, KSPEC, [0.1], make_plan(32, 8), 1,
                                      gamma=1e308).values()
    assert np.isfinite(model.coefficients).all()


@pytest.mark.parametrize("universe", [2**59, 2**62, 10**30])
def test_plan_past_numpy_index_range_is_config_error(universe):
    with pytest.raises(ConfigError, match="too large to index"):
        make_plan(universe, 1)


def _int_or_none(value):
    try:
        return operator.index(value)
    except TypeError:
        return None


# integers of either sign and past the index range, and values that are no
# integers at all
_PLAN_VALUES = st.one_of(
    st.integers(-3, 48), st.integers(2**58, 2**65), st.floats(allow_nan=True),
    st.sampled_from(["8", None, True, np.int64(8), np.uint64(4), np.float64(8.0)]),
)


@settings(max_examples=200, deadline=None)
@given(universe=_PLAN_VALUES, block_size=_PLAN_VALUES, seed=_PLAN_VALUES)
@example(universe=10.0, block_size=2, seed=0)
@example(universe=8, block_size=2.0, seed=0)
@example(universe=8, block_size=2, seed=-1)
@example(universe=8, block_size=2, seed=1.5)
def test_make_plan_refuses_every_bad_input_with_config_error(universe, block_size, seed):
    u, b, s = (_int_or_none(v) for v in (universe, block_size, seed))
    valid = (None not in (u, b, s) and 1 <= b and 1 <= u < 2**59
             and u % b == 0 and s >= 0)
    if not valid:
        with pytest.raises(ConfigError):
            make_plan(universe, block_size, seed)
        return
    plan = make_plan(universe, block_size, seed)
    assert (plan.universe, plan.block_size, plan.seed) == (u, b, s)


@settings(max_examples=60, deadline=None)
@given(epoch=_PLAN_VALUES)
@example(epoch=-1)  # would reuse another epoch's spawn key
def test_epoch_blocks_refuses_a_bad_epoch_with_config_error(epoch):
    plan = make_plan(8, 2, seed=3)
    e = _int_or_none(epoch)
    if e is None or e < 0:
        with pytest.raises(ConfigError, match="epoch"):
            epoch_blocks(plan, epoch)
    else:
        assert epoch_blocks(plan, epoch).shape == (4, 2)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("method", METHODS)
def test_grad_tol_stop_is_certified_at_the_first_passing_epoch_end(method, seed):
    # blocks change from epoch to epoch, yet a run that stops early returns
    # a model within grad_tol, and no earlier epoch end was within it
    data, spec, plan, extra = _path_case(method, 32, 3, 2, 4, 4, seed)
    lam, tol, cap = 0.1, 1e-3, 200

    def residual(epochs, **kw):
        model, trace = _single(method, data, spec, lam, plan, epochs, extra, **kw)
        rel = normal_equation_residual(model, data, lam, extra.get("gamma", 0.0))
        return rel, len(trace.records) // plan.n_blocks

    rel, stop = residual(cap, grad_tol=tol)
    assert stop < cap
    assert rel <= tol
    for epochs in range(1, stop):
        assert residual(epochs)[0] > tol


@pytest.mark.parametrize("method", METHODS)
def test_zero_grad_tol_runs_every_epoch(method):
    _, trace = _solve(method, epochs=3, grad_tol=0.0)
    assert trace.records[-1].epoch == 2


@pytest.mark.parametrize("n_lams", [1, 2, 3])
@pytest.mark.parametrize("method", ["nystrom", "rf"])
def test_one_gradient_product_per_visit_for_every_lambda(monkeypatch, method, n_lams):
    # the live states' gradients are one product per visit however many
    # lambdas ride it, and a check sweep adds one for the snapshots
    calls = []
    real = solvers.partitioned_matvec
    monkeypatch.setattr(
        solvers, "partitioned_matvec",
        lambda *a, **kw: (calls.append(1), real(*a, **kw))[1],
    )
    _, plan, run = _case(method)
    lams = [0.1, 0.03, 0.3][:n_lams]
    run(lams, 3)
    assert len(calls) == 3 * plan.n_blocks
    calls.clear()
    run(lams, 3, grad_tol=0.0)  # the checks after epochs 0 and 1 never pass
    assert len(calls) == (3 + 2) * plan.n_blocks


class _Faults:
    """A system that from its second visit on scales the stacked block
    matrix by 1e-3 for the lambda ``diverging`` (a step 1000 times too long,
    so the objective rises and the descent guard raises ``DivergenceError``)
    and negates it for the lambda ``singular`` (the stacked ``spd_solve``
    raises ``NotSpdError``); None faults no lambda.  The first visit has no
    objective to rise from."""

    def __init__(self, system, diverging, singular):
        self.system, self.visits = system, 0
        self.diverging = [] if diverging is None else [diverging]
        self.singular = [] if singular is None else [singular]

    def __getattr__(self, name):
        return getattr(self.system, name)

    def update(self, *args):  # the shared step, solving with ``matrix`` below
        return solvers._BlockSystem.update(self, *args)

    def visit(self, *args):
        self.visits += 1
        return self.system.visit(*args)

    def matrix(self, products, lam_eff):
        a = self.system.matrix(products, lam_eff)  # one b x b slice per lambda
        if self.visits >= 2:
            a[self.diverging] *= 1e-3
            a[self.singular] *= -1.0
        return a


@pytest.mark.parametrize(
    "diverging, singular, error",
    [(0, 1, NotSpdError), (1, 0, NotSpdError), (2, 1, NotSpdError),
     (None, 0, NotSpdError), (None, 2, NotSpdError), (1, None, DivergenceError)],
)
@pytest.mark.parametrize("method", METHODS)
def test_visit_raises_the_first_failing_lambdas_error(method, diverging, singular, error):
    # a visit solves every lambda in one stacked call: a singular lambda
    # anywhere raises NotSpdError before any lambda is stepped, guarded or
    # charged, whatever the other lambdas' steps would do; otherwise every
    # lambda is stepped and the first descent guard to fail raises
    _, _, run = _case(method)
    lams = [0.1, 0.03, 0.3]
    ledger = CostLedger()
    with pytest.raises(error):
        run_wrapped(lambda system: _Faults(system, diverging, singular),
                    lambda: run(lams, 1, exec_ctx=ExecContext(1, ledger)))
    failed = [r for r in ledger.records if (r.epoch, r.block) == (0, 1)]
    stepped = [r for r in failed if r.phase == "residual" or r.phase == "solve" and r.flops]
    assert bool(stepped) == (singular is None)


def _path_case(method, n, d, k, b, n_blocks, seed):
    """Data, spec, plan and method arguments of a random path problem."""
    if method == "full":  # n rows in at most 48 blocks
        n_blocks = min(max(n // b, n_blocks), 48)
        n = b * n_blocks
    data = gaussian_blobs(max(n, b * n_blocks), d, k, seed=seed)
    plan = make_plan(b * n_blocks, b, seed=seed + 1)
    if method == "rf":
        return data, FeatureMapSpec(b * n_blocks, 2.0, master_seed=seed + 2), plan, {}
    if method == "nystrom":
        return data, KSPEC, plan, dict(p=b * n_blocks, gamma=1e-3, landmark_seed=seed + 3)
    return data, KSPEC, plan, {}


def _single(method, data, spec, lam, plan, epochs, extra, **kw):
    if method == "full":
        return solve_full(data, spec, lam, plan, epochs, **kw)
    if method == "nystrom":
        return solve_nystrom(data, spec, extra["p"], lam, extra["gamma"], plan, epochs,
                             landmark_seed=extra["landmark_seed"], **kw)
    return solve_rf(data, spec, lam, plan, epochs, **kw)


# A width-L*k product can round a column differently from a width-k one
# (see solve_path).  Over 750 random problems like these a path's
# coefficients differed from the single runs' by at most 2.4e-9 of the
# largest one (ill-conditioned 1-d nystrom blocks amplify the last bits),
# and its objectives by at most 1.5e-12 relative
PATH_COEFF_RTOL = 1e-7
PATH_OBJECTIVE_RTOL = 1e-10


@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from(METHODS),
    lams=st.lists(st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1, 1.0]),
                  min_size=1, max_size=4, unique=True),
    workers=st.integers(1, 4),
    grad_tol=st.sampled_from([None, 1e-2]),
    n=st.integers(2, 3000),
    d=st.integers(1, 6),
    k=st.integers(1, 12),
    b=st.sampled_from([1, 2, 3, 8, 16, 64]),
    n_blocks=st.integers(1, 6),
    epochs=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_path_equals_the_single_runs(
    method, lams, workers, grad_tol, n, d, k, b, n_blocks, epochs, seed
):
    # each lambda of a path ends where its own run of as many epochs ends:
    # a path with grad_tol stops once every lambda passes, so its singles
    # run the epochs the path ran; a single lambda's path is its run
    data, spec, plan, extra = _path_case(method, n, d, k, b, n_blocks, seed)
    path = solvers.solve_path(data, spec, lams, plan, epochs, grad_tol=grad_tol,
                              exec_ctx=ExecContext(workers), **extra)
    ran = len(path[lams[0]][1].records) // plan.n_blocks
    for lam in lams:
        model, trace = path[lam]
        single, strace = _single(method, data, spec, lam, plan, ran, extra,
                                 exec_ctx=ExecContext(workers))
        scale = max(np.abs(single.coefficients).max(), 1e-300)
        dev = np.abs(model.coefficients - single.coefficients).max() / scale
        if len(lams) == 1:
            assert dev == 0.0
            assert np.array_equal(trace.objectives(), strace.objectives())
        assert dev <= PATH_COEFF_RTOL
        assert np.allclose(trace.objectives(), strace.objectives(),
                           rtol=PATH_OBJECTIVE_RTOL, atol=0)
