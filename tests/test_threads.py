"""The solver thread scope: OpenBLAS pinned to one thread during a run,
block rows generated over ranges on a pool, byte-equal to one range, and
the next block generated ahead, byte-equal to a run on the calling
thread."""

import contextlib
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelbcd import kernels, solvers, threads
from kernelbcd.distsim import CostLedger, ExecContext
from kernelbcd.errors import DivergenceError
from kernelbcd.kernels import (
    Dataset,
    FeatureMapSpec,
    KernelSpec,
    gaussian_blobs,
    kernel_block,
    kernel_cross,
    random_features_block,
)
from kernelbcd.solvers import make_plan, solve_full, solve_nystrom, solve_rf


@contextlib.contextmanager
def row_ranges(workers):
    """Split every block into ``workers`` row ranges, however small."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threads, "row_workers", lambda: workers)
        mp.setattr(threads, "_MIN_RANGE_ENTRIES", 1)
        yield


def at_each_worker_count(fn):
    """``fn()`` with one, two and three row ranges per block."""
    out = []
    for workers in (1, 2, 3):
        with row_ranges(workers):
            out.append(fn())
    return out


def assert_byte_equal(arrays):
    first = arrays[0]
    for a in arrays[1:]:
        assert a.shape == first.shape
        assert a.tobytes() == first.tobytes()


shapes = st.tuples(
    st.integers(0, 23),  # rows, including n < workers and n = 1
    st.integers(0, 9),  # columns, including none
    st.integers(1, 5),  # features
)


@settings(max_examples=60, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["rbf", "linear"]))
@example(shape=(1, 4, 2), seed=0, family="rbf")
@example(shape=(2, 3, 1), seed=1, family="rbf")
@example(shape=(7, 0, 3), seed=2, family="linear")
def test_kernel_cross_byte_equal_at_any_row_workers(shape, seed, family):
    n, m, d = shape
    rng = np.random.default_rng(seed)
    xa, xb = rng.standard_normal((n, d)), rng.standard_normal((m, d))
    spec = KernelSpec(family, sigma=float(rng.uniform(0.3, 3.0)))
    assert_byte_equal(at_each_worker_count(lambda: kernel_cross(xa, xb, spec)))


@settings(max_examples=60, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**32 - 1))
@example(shape=(1, 5, 3), seed=0)
@example(shape=(2, 0, 2), seed=1)
def test_random_features_block_byte_equal_at_any_row_workers(shape, seed):
    n, b, d = shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    spec = FeatureMapSpec(p=b + 3, sigma=float(rng.uniform(0.3, 3.0)), master_seed=seed)
    cols = rng.permutation(spec.p)[:b]
    assert_byte_equal(at_each_worker_count(lambda: random_features_block(x, cols, spec)))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 24), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["rbf", "linear"]))
def test_full_kernel_block_stays_exactly_symmetric(n, d, seed, family):
    x = np.random.default_rng(seed).standard_normal((n, d))
    spec = KernelSpec(family, sigma=1.3)
    for workers in (2, 3):
        with row_ranges(workers):
            k = kernel_block(x, np.arange(n), spec)
        assert np.array_equal(k, k.T)


def test_ranges_tile_the_rows_on_several_threads():
    seen = []

    def record(lo, hi):
        seen.append((lo, hi, threading.get_ident()))

    for n in (0, 1, 2, 3, 10):
        seen.clear()
        with row_ranges(3):
            threads.for_rows(np.empty((n, 2)), record)
        ranges = sorted((lo, hi) for lo, hi, _ in seen)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        assert all(a[1] == b[0] < b[1] for a, b in zip(ranges, ranges[1:]))
        assert len(ranges) == max(1, min(3, n))
        idents = {ident for *_, ident in seen}
        assert threading.get_ident() in idents
        assert len(idents) >= min(2, len(ranges))  # a pool thread may take two


def test_small_blocks_stay_on_the_calling_thread():
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threads, "row_workers", lambda: 4)
        threads.for_rows(np.empty((64, 8)), lambda lo, hi: seen.append((lo, hi)))
    assert seen == [(0, 64)]


@pytest.mark.parametrize("failing", [0, 2])  # a pool range, the caller's range
def test_a_failing_range_raises_after_every_range_finished(failing):
    finished = []

    def fn(lo, hi):
        if lo == failing:
            raise ValueError(f"range at {lo}")
        time.sleep(0.05)
        finished.append(lo)

    with row_ranges(3), pytest.raises(ValueError, match=f"range at {failing}"):
        threads.for_rows(np.empty((3, 1)), fn)
    assert sorted(finished) == sorted({0, 1, 2} - {failing})


def test_pool_ranges_run_under_the_callers_error_state():
    def overflow(lo, hi):
        np.full(hi - lo, 1e300) * 1e300

    with row_ranges(3):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            threads.for_rows(np.empty((3, 1)), overflow)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(over="ignore"):
                threads.for_rows(np.empty((3, 1)), overflow)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# the scope around the engine


@pytest.fixture
def blas_at_three():
    """Every OpenBLAS set to three threads, a count no scope would leave
    behind; the original counts come back after the test."""
    controls = threads.openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(3)
    yield controls
    for (_, set_), count in zip(controls, before):
        set_(count)


def counts(controls):
    return [get() for get, _ in controls]


def record_counts_at_each_solve(monkeypatch, controls, hook=None):
    """Wrap the engine's solve so each call records the thread counts."""
    seen = []
    real = solvers.spd_solve

    def solve(a, b):
        if hook is not None:
            hook()
        seen.append(counts(controls))
        return real(a, b)

    monkeypatch.setattr(solvers, "spd_solve", solve)
    return seen


def rf_run():
    data = gaussian_blobs(96, 3, 3, seed=4)
    return solve_rf(data, FeatureMapSpec(16, 1.5, master_seed=5), 1e-2,
                    make_plan(16, 8, seed=6), 3)


def test_counts_pinned_inside_a_run_and_restored_after(blas_at_three, monkeypatch):
    seen = record_counts_at_each_solve(monkeypatch, blas_at_three)
    rf_run()
    assert seen and all(c == [1] * len(blas_at_three) for c in seen)
    assert counts(blas_at_three) == [3] * len(blas_at_three)
    assert threads.row_workers() == 1


def test_counts_restored_after_a_divergence(blas_at_three):
    rng = np.random.default_rng(0)
    huge = Dataset(X=rng.choice([-1e300, 1e300], size=(32, 3)),
                   labels=np.arange(32) % 2, k=2)
    with pytest.raises(DivergenceError):
        solve_full(huge, KernelSpec("linear"), 1e-2, make_plan(32, 8), 2)
    assert counts(blas_at_three) == [3] * len(blas_at_three)


def test_counts_restored_after_two_concurrent_runs(blas_at_three, monkeypatch):
    # "a" finishes while "b" is inside its run: b's scope keeps the pin
    both_inside = threading.Barrier(2, timeout=30)
    a_done = threading.Event()
    met = set()
    after_a = []

    def hook():
        name = threading.current_thread().name
        if name not in met:
            met.add(name)
            both_inside.wait()
            if name == "b":
                assert a_done.wait(30)
                after_a.append(counts(blas_at_three))

    seen = record_counts_at_each_solve(monkeypatch, blas_at_three, hook)
    results = {}

    def run(name):
        results[name] = rf_run()
        if name == "a":
            a_done.set()

    workers = [threading.Thread(target=run, args=(name,), name=name) for name in "ab"]
    for w in workers:
        w.start()
    for w in workers:
        w.join(60)
    assert set(results) == {"a", "b"}
    assert after_a == [[1] * len(blas_at_three)]
    assert all(c == [1] * len(blas_at_three) for c in seen)
    assert counts(blas_at_three) == [3] * len(blas_at_three)
    monkeypatch.undo()
    alone = rf_run()
    for model, trace in results.values():
        assert np.array_equal(model.coefficients, alone[0].coefficients)
        assert trace.objectives().tobytes() == alone[1].objectives().tobytes()


def nystrom_run():
    data = gaussian_blobs(256, 3, 3, seed=7)
    return solve_nystrom(data, KernelSpec("rbf", 1.5), 64, 1e-3, 1e-6,
                         make_plan(64, 32, seed=8), 3, landmark_seed=9)


def cdist_threads(monkeypatch):
    """Record the thread of every distance computation in kernel_cross."""
    idents = set()
    real = kernels.cdist

    def cdist(*args, **kwargs):
        idents.add(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "cdist", cdist)
    return idents


def test_without_openblas_controls_rows_stay_on_the_calling_thread(monkeypatch):
    pooled_ids = cdist_threads(monkeypatch)
    monkeypatch.setattr(threads, "_MIN_RANGE_ENTRIES", 1)
    monkeypatch.setattr(threads, "_cpu_count", lambda: 2)
    if threads.openblas_controls():
        pooled = nystrom_run()
        assert threading.get_ident() in pooled_ids and len(pooled_ids) > 1
    else:
        pooled = None
    monkeypatch.setattr(threads, "openblas_controls", lambda: [])
    alone_ids = cdist_threads(monkeypatch)
    alone = nystrom_run()
    assert alone_ids == {threading.get_ident()}
    if pooled is not None:
        assert np.array_equal(pooled[0].coefficients, alone[0].coefficients)
        assert pooled[1].objectives().tobytes() == alone[1].objectives().tobytes()


def test_scope_depth_survives_many_threads_entering_at_once(blas_at_three):
    # more threads than cores and a short switch interval: a lost update
    # of the depth count would leave the pin on, or take it off too early
    errors = []

    def enter_and_leave():
        for _ in range(200):
            with threads.solver_threads():
                with threads.solver_threads():
                    if counts(blas_at_three) != [1] * len(blas_at_three):
                        errors.append(counts(blas_at_three))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=enter_and_leave) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not errors
    assert threads.row_workers() == 1
    assert counts(blas_at_three) == [3] * len(blas_at_three)


def test_predict_and_the_dense_diagnostics_run_in_the_scope(blas_at_three, monkeypatch):
    # a linear kernel at this shape is a GEMM whose last bits differ at
    # one and at three OpenBLAS threads
    rng = np.random.default_rng(0)
    x = rng.standard_normal((67, 63))
    model = solvers.Model("full", rng.standard_normal((125, 2)),
                          kernel=KernelSpec("linear"),
                          anchors=rng.standard_normal((125, 63)))
    with threads.solver_threads():
        inside = model.columns(x) @ model.coefficients
    seen = []
    real = solvers.kernel_cross

    def kernel_cross_counted(*args):
        seen.append(counts(blas_at_three))
        return real(*args)

    monkeypatch.setattr(solvers, "kernel_cross", kernel_cross_counted)
    assert solvers.predict(model, x).tobytes() == inside.tobytes()
    data = Dataset(X=x, labels=np.arange(67) % 2, k=2)
    trained = solvers.Model("full", rng.standard_normal((67, 2)),
                            kernel=KernelSpec("linear"), anchors=x)
    solvers.objective_value(trained, data, 1e-2)
    solvers.normal_equation_residual(trained, data, 1e-2)
    assert seen == [[1] * len(blas_at_three)] * 3
    assert counts(blas_at_three) == [3] * len(blas_at_three)


# ---------------------------------------------------------------------------
# the lookahead: block i + 1 generated while block i is applied

needs_openblas = pytest.mark.skipif(
    not threads.openblas_controls(), reason="no OpenBLAS thread control in this process"
)


@contextlib.contextmanager
def lookahead(on):
    """Two usable CPUs and every block large enough to generate ahead; with
    ``on`` False no OpenBLAS control is found, so no scope pins one and
    every block is generated on the calling thread."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threads, "_cpu_count", lambda: 2)
        mp.setattr(threads, "_MIN_RANGE_ENTRIES", 1)
        if not on:
            mp.setattr(threads, "openblas_controls", lambda: [])
        yield


def test_ahead_generates_large_blocks_ahead_and_small_ones_in_place():
    callers = []

    def source(rows):
        callers.append(threading.get_ident())
        return np.zeros((rows, 1))

    large = threads._MIN_RANGE_ENTRIES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threads, "row_workers", lambda: 2)
        for rows, ahead_of_caller in ((large - 1, False), (large, True)):
            callers.clear()
            pairs = list(threads.ahead(source, [rows] * 4))
            assert [block.shape for block, _ in pairs] == [(rows, 1)] * 4
            assert all(seconds >= 0 for _, seconds in pairs)
            assert callers[0] == threading.get_ident()
            assert (threading.get_ident() not in callers[1:]) == ahead_of_caller


def test_ahead_runs_under_the_callers_error_state():
    def overflow(i):  # the first call, on the calling thread, does not
        return np.full((threads._MIN_RANGE_ENTRIES, 1), 1e300) * (1e300 if i else 1.0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threads, "row_workers", lambda: 2)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            list(threads.ahead(overflow, range(3)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(over="ignore"):
                assert len(list(threads.ahead(overflow, range(3)))) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class Source:
    """A block source that records each call's positions and thread, and
    whether two calls ever overlapped; ``fail_at`` makes that call raise,
    ``delay`` makes that call sleep first."""

    def __init__(self, fn, fail_at=None, delay=None):
        self.fn, self.fail_at, self.delay = fn, fail_at, delay
        self.calls = []
        self.active = 0
        self.overlapped = False
        self.lock = threading.Lock()

    def __call__(self, pos):
        with self.lock:
            self.active += 1
            self.overlapped |= self.active > 1
            self.calls.append((tuple(pos), threading.get_ident()))
            call = len(self.calls)
        try:
            if self.delay is not None and call == self.delay[0]:
                time.sleep(self.delay[1])
            if call == self.fail_at:
                raise KeyError(f"call {call}")
            return self.fn(pos)
        finally:
            with self.lock:
                self.active -= 1

    def positions(self):
        return [pos for pos, _ in self.calls]


def lookahead_case(method, lams, **source_kw):
    """A small problem of ``method``: its recording source, and
    ``run(workers, **kw)``, which runs the engine on that source for six
    epochs with a fresh ledger and returns the results and the ledger."""
    data = gaussian_blobs(48, 3, 3, seed=11)
    kspec = KernelSpec("rbf", sigma=1.7)
    fspec = FeatureMapSpec(24, 1.7, master_seed=12)
    landmarks = solvers.draw_landmarks(48, 24, seed=13)
    if method == "full":
        spec, plan, extra = kspec, make_plan(48, 8, seed=14), {}
        fn = lambda pos: kernel_cross(data.X, data.X[pos], kspec)  # noqa: E731
    elif method == "nystrom":
        spec, plan = kspec, make_plan(24, 8, seed=14)
        extra = dict(p=24, gamma=1e-3, landmark_seed=13)
        fn = lambda pos: kernel_cross(data.X, data.X[landmarks[pos]], kspec)  # noqa: E731
    else:
        spec, plan, extra = fspec, make_plan(24, 8, seed=14), {}
        fn = lambda pos: random_features_block(data.X, pos, fspec)  # noqa: E731
    source = Source(fn, **source_kw)

    def run(workers=1, **kw):
        ledger = CostLedger()
        results = solvers._run_spec(
            data, spec, lams, plan, 6, block_fn=source,
            exec_ctx=ExecContext(workers, ledger), **extra, **kw,
        )
        return results, ledger

    return source, run


def run_values(results, ledger):
    """Everything a run returns but seconds: coefficients, trace values and
    the ordered ledger."""
    return (
        [model.coefficients.tobytes() for model, _ in results],
        [[(r.epoch, r.block, r.objective, r.test_error, r.objective_alt)
          for r in trace.records] for _, trace in results],
        [(r.epoch, r.block, r.phase, r.flops, r.nbytes) for r in ledger.records],
    )


@needs_openblas
@settings(max_examples=40, deadline=None)
@given(method=st.sampled_from(["full", "nystrom", "rf"]),
       n_lams=st.sampled_from([1, 3]), with_test=st.booleans(),
       grad_tol=st.sampled_from([None, 1e-2, 1e-6]),
       check_residual=st.booleans(), workers=st.sampled_from([1, 4]))
@example(method="rf", n_lams=3, with_test=True, grad_tol=1e-2,
         check_residual=True, workers=4)
@example(method="full", n_lams=1, with_test=False, grad_tol=1e-6,
         check_residual=True, workers=1)
def test_lookahead_run_byte_equal_to_calling_thread_run(
    method, n_lams, with_test, grad_tol, check_residual, workers
):
    lams = [1e-3, 1e-2, 1e-1][:n_lams]
    kw = dict(grad_tol=grad_tol, check_residual=check_residual,
              test_data=gaussian_blobs(16, 3, 3, seed=15) if with_test else None)
    values, callers = [], []
    for on in (True, False):
        source, run = lookahead_case(method, lams)
        with lookahead(on):
            values.append(run_values(*run(workers, **kw)))
        callers.append({ident for _, ident in source.calls})
    assert values[0] == values[1]
    assert len(callers[0]) > 1  # the lookahead did run
    assert callers[1] == {threading.get_ident()}


@needs_openblas
@pytest.mark.parametrize("method", ["full", "nystrom", "rf"])
def test_lookahead_calls_the_source_in_order_one_at_a_time(method):
    seen = []
    for on in (True, False):
        source, run = lookahead_case(method, [1e-2, 1e-1])
        with lookahead(on):
            run(grad_tol=1e-3, check_residual=True)
        assert not source.overlapped
        seen.append(source.positions())
    assert seen[0] == seen[1]


@needs_openblas
@pytest.mark.parametrize("method", ["full", "nystrom", "rf"])
def test_a_failing_generation_raises_as_on_the_calling_thread(method, monkeypatch):
    appended = []
    real_append = solvers.ConvergenceTrace.append
    monkeypatch.setattr(solvers.ConvergenceTrace, "append",
                        lambda self, r: (appended.append(r), real_append(self, r)))
    source, run = lookahead_case(method, [1e-2])
    with lookahead(False):
        run(grad_tol=1e-3, check_residual=True)
    total = len(source.calls)
    for fail_at in [*range(1, total, 3), total]:
        outcomes = []
        for on in (True, False):
            appended.clear()
            source, run = lookahead_case(method, [1e-2], fail_at=fail_at)
            with lookahead(on):
                with pytest.raises(KeyError, match=f"call {fail_at}"):
                    run(grad_tol=1e-3, check_residual=True)
            assert source.active == 0
            outcomes.append((len(source.calls), len(appended)))
        assert outcomes[0] == outcomes[1]


def test_a_failing_visit_waits_for_the_generation_in_flight(blas_at_three, monkeypatch):
    # the second visit fails while the third block, delayed and itself
    # failing, is generated: the visit's error wins, the generation has
    # finished when the run leaves, and the counts are restored
    source, run = lookahead_case("rf", [1e-2], fail_at=3, delay=(3, 0.2))
    solves = []
    real = solvers.spd_solve

    def solve(a, b):
        solves.append(1)
        if len(solves) == 2:
            deadline = time.monotonic() + 30
            while len(source.calls) < 3 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert source.active == 1
            raise ZeroDivisionError("visit 2")
        return real(a, b)

    monkeypatch.setattr(solvers, "spd_solve", solve)
    with lookahead(True), pytest.raises(ZeroDivisionError, match="visit 2"):
        run()
    assert len(source.calls) == 3 and source.active == 0
    assert counts(blas_at_three) == [3] * len(blas_at_three)
