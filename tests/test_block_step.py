"""The one block step: each system's block of the normal-equation residual
drives the update, the grad_tol check and the residual check; the ledger
charges what the step computes; library inputs are range-checked like the
CLI's."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelbcd import solvers
from kernelbcd.distsim import (
    CostLedger,
    ExecContext,
    measured_vs_predicted,
    predict_costs,
)
from kernelbcd.errors import ConfigError
from kernelbcd.kernels import (
    FeatureMapSpec,
    KernelSpec,
    gaussian_blobs,
    kernel_cross,
    random_features_block,
)
from kernelbcd.solvers import (
    draw_landmarks,
    make_plan,
    solve_full,
    solve_nystrom,
    solve_rf,
)

METHODS = ["full", "nystrom", "rf"]
KSPEC = KernelSpec("rbf", sigma=2.0)


class _Recorder:
    """A system that behaves like ``system`` and keeps every lambda state
    it updates, in first-update order."""

    def __init__(self, system):
        self.system, self.states = system, []

    def __getattr__(self, name):
        return getattr(self.system, name)

    def update(self, state, *args):
        if not any(s is state for s in self.states):
            self.states.append(state)
        return self.system.update(state, *args)


def run_recorded(data, spec, lams, plan, epochs, **kw):
    """``_run_spec`` on a recording system: the results and the states."""
    recorders = []
    real_run = solvers._run

    def run(data, system, *args, **kwargs):
        recorders.append(_Recorder(system))
        return real_run(data, recorders[-1], *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_run", run)
        results = solvers._run_spec(data, spec, lams, plan, epochs, **kw)
    return results, recorders[0].states


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
    # and epoch count, and every lambda's final R is the dense one
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
    results, states = run_recorded(
        data, spec, lams, plan, epochs, check_residual=True,
        exec_ctx=ExecContext(workers), **extra,
    )
    assert len(states) == (len(lams) if epochs else 0)
    for lam, state, (model, _) in zip(lams, states, results):
        dense = dense_resid(model, data, lam)
        drift = np.linalg.norm(state.resid - dense)
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


@pytest.mark.parametrize("method", METHODS)
def test_residual_check_is_one_pass_for_every_lambda(method):
    calls, plan, run = _case(method)
    run([0.1, 0.03, 0.3], 3, check_residual=True)
    # three sweeps, and one check pass after each
    assert len(calls) == 2 * 3 * plan.n_blocks


@pytest.mark.parametrize("method, products", [("full", 1), ("nystrom", 2), ("rf", 2)])
def test_ledger_charges_the_step_residual_flops(method, products):
    # full reads its gradient off R: one n x b x k product per lambda and
    # visit (kb @ delta); nystrom and rf add kb^T (R - Y)
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


@pytest.mark.parametrize("method", METHODS)
def test_zero_grad_tol_runs_every_epoch(method):
    _, trace = _solve(method, epochs=3, grad_tol=0.0)
    assert trace.records[-1].epoch == 2
