"""The solver thread scope: OpenBLAS pinned to one thread during a run,
feature blocks byte-equal however their cosine pass is chunked, and the
next block generated ahead, with any share of its gram partials,
byte-equal to a run on the calling thread."""

import contextlib
import itertools
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelbcd import distsim, kernels, solvers, threads
from kernelbcd.distsim import CostLedger, ExecContext
from kernelbcd.errors import DivergenceError
from kernelbcd.kernels import (
    Dataset,
    FeatureMapSpec,
    KernelSpec,
    gaussian_blobs,
    kernel_cross,
    random_features_block,
)
from kernelbcd.solvers import (
    make_plan,
    normal_equation_residual,
    solve_full,
    solve_nystrom,
    solve_rf,
)


def assert_byte_equal(arrays):
    first = arrays[0]
    for a in arrays[1:]:
        assert a.shape == first.shape
        assert a.tobytes() == first.tobytes()


shapes = st.tuples(
    st.integers(0, 23),  # rows, including none and n = 1
    st.integers(0, 9),  # columns, including none
    st.integers(1, 5),  # features
)


@contextlib.contextmanager
def cosine_chunks(entries):
    """Run the feature cosine over row chunks of ``entries // width`` rows,
    at least one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_COS_CHUNK_ENTRIES", entries)
        yield


@settings(max_examples=40, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2**32 - 1), seeds=st.integers(1, 4))
@example(shape=(23, 9, 3), seed=0, seeds=3)
@example(shape=(1, 5, 2), seed=1, seeds=1)
def test_feature_cosine_byte_equal_at_any_chunk(shape, seed, seeds):
    # row chunks of one row, and of three rows, which leave an uneven last
    # chunk unless the row count is a multiple of three, give the bytes of
    # the default chunks; each seed's slice of a stack is its own block,
    # whose chunks are wider
    n, b, d = shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * 4.0
    spec = FeatureMapSpec(p=b + 3, sigma=float(rng.uniform(0.3, 3.0)), master_seed=seed)
    cols = rng.permutation(spec.p)[:b]
    masters = [seed + i for i in range(seeds)]
    stack = kernels.random_features_stack(x, cols, spec, masters)
    ones = [random_features_block(x, cols, FeatureMapSpec(spec.p, spec.sigma, m))
            for m in masters]
    for t, one in enumerate(ones):
        assert stack[:, t].tobytes() == one.tobytes()
    for entries in (1, 3 * b * seeds):
        with cosine_chunks(entries):
            chunked = kernels.random_features_stack(x, cols, spec, masters)
            per_seed = [random_features_block(x, cols, FeatureMapSpec(spec.p, spec.sigma, m))
                        for m in masters]
        assert_byte_equal([stack, chunked])
        for one, chunked_one in zip(ones, per_seed):
            assert_byte_equal([one, chunked_one])


def test_stacked_seeds_byte_equal_to_their_blocks_over_default_chunks():
    # 600 rows: the 128-column stack runs in chunks of 128 rows, each
    # seed's 64-column block in chunks of 256
    x = np.random.default_rng(4).standard_normal((600, 5)) * 3.0
    spec = FeatureMapSpec(p=100, sigma=1.2)
    cols = np.random.default_rng(5).permutation(100)[:64]
    stack = kernels.random_features_stack(x, cols, spec, [7, 8])
    for t, master in enumerate([7, 8]):
        block = random_features_block(x, cols, FeatureMapSpec(100, 1.2, master))
        assert_byte_equal([stack[:, t].copy(), block])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 24), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["rbf", "linear"]))
def test_full_kernel_block_stays_exactly_symmetric(n, d, seed, family):
    x = np.random.default_rng(seed).standard_normal((n, d))
    k = kernel_cross(x, x, KernelSpec(family, sigma=1.3), rows=np.arange(n))
    assert np.array_equal(k, k.T)


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
    assert threads._depth == 0


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


def source_threads(monkeypatch):
    """Record, sweep by sweep, the thread of every block-source call the
    engine makes through ``threads.ahead``."""
    sweeps = []

    def ahead(fn, items, buffers):
        calls = []
        sweeps.append(calls)

        def recorded(item, out):
            calls.append(threading.get_ident())
            return fn(item, out)

        return threads.ahead(recorded, items, buffers)

    monkeypatch.setattr(solvers, "ahead", ahead)
    return sweeps


def test_without_openblas_controls_rows_stay_on_the_calling_thread(monkeypatch):
    me = threading.get_ident()
    monkeypatch.setattr(threads, "_AHEAD_MIN_ENTRIES", 1)
    monkeypatch.setattr(threads, "_cpu_count", lambda: 2)
    if threads.openblas_controls():
        sweeps = source_threads(monkeypatch)
        ahead_run = nystrom_run()
        assert sweeps and all(s[0] == me and me not in s[1:] for s in sweeps)
        assert any(len(s) > 1 for s in sweeps)
    else:
        ahead_run = None
    monkeypatch.setattr(threads, "openblas_controls", lambda: [])
    sweeps = source_threads(monkeypatch)
    alone = nystrom_run()
    assert sweeps and all(s == [me] * len(s) for s in sweeps)
    if ahead_run is not None:
        assert np.array_equal(ahead_run[0].coefficients, alone[0].coefficients)
        assert ahead_run[1].objectives().tobytes() == alone[1].objectives().tobytes()


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
    assert threads._depth == 0
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

    def kernel_cross_counted(*args, **kwargs):
        seen.append(counts(blas_at_three))
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "kernel_cross", kernel_cross_counted)
    assert solvers.predict(model, x).tobytes() == inside.tobytes()
    data = Dataset(X=x, labels=np.arange(67) % 2, k=2)
    trained = solvers.Model("full", rng.standard_normal((67, 2)),
                            kernel=KernelSpec("linear"), anchors=x)
    solvers.objective_value(trained, data, 1e-2)
    solvers.normal_equation_residual(trained, data, 1e-2)
    solvers.system_matrix(trained, data, 1e-2)
    assert seen == [[1] * len(blas_at_three)] * 4
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
        mp.setattr(threads, "_AHEAD_MIN_ENTRIES", 1)
        if not on:
            mp.setattr(threads, "openblas_controls", lambda: [])
        yield


def test_ahead_generates_large_blocks_ahead_and_small_ones_in_place():
    callers = []

    def source(rows, out):
        callers.append(threading.get_ident())
        out[:rows] = 0.0
        return out[:rows]

    large = threads._AHEAD_MIN_ENTRIES
    buffers = (np.empty((large, 1)), np.empty((large, 1)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threads, "_may_look_ahead", lambda: True)
        for rows, ahead_of_caller in ((large - 1, False), (large, True)):
            callers.clear()
            pairs = list(threads.ahead(source, [rows] * 4, buffers))
            assert [block.shape for block, _ in pairs] == [(rows, 1)] * 4
            # block i is written into buffers[i % 2]
            assert all(np.shares_memory(block, buffers[i % 2])
                       for i, (block, _) in enumerate(pairs))
            assert all(seconds >= 0 for _, seconds in pairs)
            assert callers[0] == threading.get_ident()
            assert (threading.get_ident() not in callers[1:]) == ahead_of_caller


def test_ahead_runs_under_the_callers_error_state():
    def overflow(i, out):  # the first call, on the calling thread, does not
        out[:] = 1e300
        out *= 1e300 if i else 1.0
        return out

    buffers = tuple(np.empty((threads._AHEAD_MIN_ENTRIES, 1)) for _ in range(2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threads, "_may_look_ahead", lambda: True)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            list(threads.ahead(overflow, range(3), buffers))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(over="ignore"):
                assert len(list(threads.ahead(overflow, range(3), buffers))) == 3
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
    ``run(workers, **kw)``, which runs the engine on that source, or on the
    model's own column map given ``block_fn=None``, for six epochs with a
    fresh ledger and returns the results and the ledger."""
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

    def run(workers=1, block_fn=source, **kw):
        ledger = CostLedger()
        results = solvers._run_spec(
            data, spec, lams, plan, 6, block_fn=block_fn,
            exec_ctx=ExecContext(workers, ledger), **extra, **kw,
        )
        return results, ledger

    return source, run


def run_values(results, ledger):
    """Everything a run returns but seconds: coefficients, trace values and
    the ordered ledger."""
    return (
        [model.coefficients.tobytes() for model, _ in results],
        [[(r.epoch, r.block, r.objective, r.test_error) for r in trace.records]
         for _, trace in results],
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
def test_lookahead_calls_the_source_in_order_one_at_a_time(method, monkeypatch):
    # the contract of sweeps with visits: no check-only sweep runs, whose
    # blocks two threads make at once (the split tests pin those)
    monkeypatch.setattr(solvers, "_predicts_pass", lambda *a: False)
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
def test_a_solve_starts_no_thread_but_the_lookahead(method):
    source, run = lookahead_case(method, [1e-2])
    with lookahead(True):
        run(grad_tol=1e-3, check_residual=True)
    assert len({ident for _, ident in source.calls}) > 1
    live = {t.name.rsplit("_", 1)[0] for t in threading.enumerate()
            if t.name.startswith("kernelbcd-")}
    assert live == {"kernelbcd-ahead"}
    source, run = lookahead_case(method, [1e-2])
    with lookahead(True), pytest.MonkeyPatch.context() as mp:
        mp.setattr(threads, "_cpu_count", lambda: 1)
        run(grad_tol=1e-3, check_residual=True)
    assert {ident for _, ident in source.calls} == {threading.get_ident()}


@needs_openblas
@pytest.mark.parametrize("method", ["full", "nystrom", "rf"])
def test_a_failing_generation_raises_as_on_the_calling_thread(method, monkeypatch):
    # the contract of sweeps with visits: no check-only sweep runs, whose
    # blocks two threads make at once (the split tests pin those)
    monkeypatch.setattr(solvers, "_predicts_pass", lambda *a: False)
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


# ---------------------------------------------------------------------------
# the run's two block buffers


def poisoned_ahead(callers):
    """``threads.ahead`` that fills each block it yields, and the gram
    partial slot beside the block's buffer, with NaN as soon as the next
    block is asked for, and adds the thread of each block-source call to
    ``callers``."""

    def ahead(fn, items, buffers):
        def recorded(item, out):
            callers.add(threading.get_ident())
            return fn(item, out)

        with contextlib.closing(threads.ahead(recorded, items, buffers)) as blocks:
            for i, (kb, seconds) in enumerate(blocks):
                yield kb, seconds
                kb.fill(np.nan)
                out = buffers[i % 2]
                if isinstance(out, tuple):  # a sweep's buffer and its slot
                    out[1].out.fill(np.nan)

    return ahead


@contextlib.contextmanager
def forced_share(m):
    """Every block's task makes min(m, M) of the block's M gram partials,
    whatever the run's pace."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_ahead_share", lambda means, partials: min(m, partials))
        yield


@pytest.mark.parametrize("check_residual", [False, True])
@pytest.mark.parametrize("grad_tol", [None, 1e-2])
@pytest.mark.parametrize("n_lams", [1, 3])
@pytest.mark.parametrize("method", ["full", "nystrom", "rf"])
def test_no_block_is_read_once_the_next_is_asked_for(method, n_lams, grad_tol,
                                                     check_residual):
    # a yielded block and its gram partial slot are valid only until the
    # next block is asked for: a run whose blocks and slots are poisoned
    # from then on is byte-equal to a clean one, with its one partial made
    # ahead, and with two of four made ahead and two in the visit
    lams = [1e-3, 1e-2, 1e-1][:n_lams]
    kw = dict(block_fn=None, grad_tol=grad_tol, check_residual=check_residual)
    for (workers, share), on in itertools.product(((1, 1), (4, 2)), (True, False)):
        values, callers = [], set()
        for ahead in (threads.ahead, poisoned_ahead(callers)):
            _, run = lookahead_case(method, lams)
            with lookahead(on), forced_share(share), pytest.MonkeyPatch.context() as mp:
                mp.setattr(solvers, "ahead", ahead)
                values.append(run_values(*run(workers, **kw)))
        assert values[0] == values[1]
        if on and threads.openblas_controls():
            assert len(callers) > 1  # the lookahead did run
        if not on:
            assert callers == {threading.get_ident()}


@pytest.mark.parametrize("on", [True, False])
@pytest.mark.parametrize("method", ["full", "nystrom", "rf"])
def test_a_run_hands_its_block_source_two_buffers(method, on, monkeypatch):
    # every sweep, the check sweeps and the check_residual pass included,
    # writes into the same two n x b buffers; the test set's block, made
    # once, is not one of them
    handed = []
    real = solvers.Model.columns

    def columns(self, X, *args, out=None, **kwargs):
        handed.append(out)
        return real(self, X, *args, out=out, **kwargs)

    monkeypatch.setattr(solvers.Model, "columns", columns)
    _, run = lookahead_case(method, [1e-2, 1e-1])
    with lookahead(on):
        run(block_fn=None, grad_tol=1e-2, check_residual=True,
            test_data=gaussian_blobs(16, 3, 3, seed=15))
    assert handed[0] is None  # the test set's block
    buffers = handed[1:]
    assert len(buffers) > 2 and len({id(out) for out in buffers}) == 2
    assert all(out.shape == (48, 8) and out.dtype == np.float64
               and out.flags.c_contiguous for out in buffers)


# ---------------------------------------------------------------------------
# the lookahead's share of the next block's gram partials


@pytest.mark.parametrize("check_residual", [False, True])
@pytest.mark.parametrize("grad_tol", [None, 1e-2])
@pytest.mark.parametrize("n_lams", [1, 3])
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("method", ["nystrom", "rf"])
def test_any_share_of_the_gram_partials_gives_the_same_bytes(
    method, workers, n_lams, grad_tol, check_residual, monkeypatch
):
    # every m in 0..M, with the lookahead and on the calling thread, gives
    # the coefficients, trace values and ordered ledger of m = 0, and makes
    # the same M partials per visit, on the lookahead thread only there
    lams = [1e-3, 1e-2, 1e-1][:n_lams]
    kw = dict(block_fn=None, grad_tol=grad_tol, check_residual=check_residual)
    me, made_on = threading.get_ident(), []
    real = distsim.gram

    def gram(zb, **kwargs):
        made_on.append(threading.get_ident())
        return real(zb, **kwargs)

    monkeypatch.setattr(distsim, "gram", gram)
    values, counts = [], set()
    for on in (True, False):
        for m in range(workers + 1):
            made_on.clear()
            _, run = lookahead_case(method, lams)
            with lookahead(on), forced_share(m):
                values.append(run_values(*run(workers, **kw)))
            counts.add(len(made_on))
            ahead_made = [ident for ident in made_on if ident != me]
            if on and m and threads.openblas_controls():
                assert ahead_made  # the lookahead made partials
            if not on or not m:
                assert not ahead_made
    assert all(v == values[0] for v in values[1:])
    assert len(counts) == 1


def test_ahead_share_rule():
    share = solvers._ahead_share
    assert share(None, 4) == 0  # no visit measured yet
    # rf_to_tol-like: generation alone outlasts the visit's other work
    assert share((3.4, 1.4, 2.3), 1) == 0
    # nystrom_path-like: the visit waits, so most partials move ahead
    assert share((2.8, 0.34, 3.25), 4) == 3
    assert share((0.0, 1.0, 0.0), 3) == 1  # m = 1 and m = 2 tie
    assert share((1.0, 0.0, 5.0), 4) == 0  # every m ties
    assert share((0.0, 1.0, 9.0), 0) == 0  # no gram, as for full


times = st.floats(0.0, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(gen=times, part=times, rest=times, partials=st.integers(0, 16))
def test_ahead_share_is_the_smallest_best_m(gen, part, rest, partials):
    m = solvers._ahead_share((gen, part, rest), partials)
    assert 0 <= m <= partials

    def cost(j):
        return max(gen + j * part, rest + (partials - j) * part)

    assert all(cost(j) > cost(m) for j in range(m))
    assert all(cost(j) >= cost(m) for j in range(m, partials + 1))


# ---------------------------------------------------------------------------
# the check-only sweep: a predicted stop's check on both threads


def test_split_makes_even_items_ahead_and_odd_ones_in_place():
    me = threading.get_ident()
    calls, lock = [], threading.Lock()

    def fn(item, out):
        with lock:
            calls.append((item, threading.get_ident(), id(out)))

    large = threads._AHEAD_MIN_ENTRIES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threads, "_may_look_ahead", lambda: True)
        for rows, split in ((large - 1, False), (large, True)):
            buffers = (np.empty((rows, 1)), np.empty((rows, 1)))
            calls.clear()
            threads.split(fn, range(7), buffers)
            assert sorted(item for item, _, _ in calls) == list(range(7))
            for item, ident, out in calls:
                assert out == id(buffers[item % 2])
                assert (ident == me) == (item % 2 == 1 or not split)
            # each thread takes its items in order
            for parity in (0, 1):
                mine = [item for item, _, _ in calls if item % 2 == parity]
                assert mine == sorted(mine)
            if not split:
                assert [item for item, _, _ in calls] == list(range(7))
        calls.clear()
        threads.split(fn, [5], buffers)  # one item: on the calling thread
        assert calls == [(5, me, id(buffers[0]))]
        mp.setattr(threads, "_may_look_ahead", lambda: False)
        calls.clear()
        threads.split(fn, range(4), buffers)
        assert [(item, ident) for item, ident, _ in calls] == [(i, me) for i in range(4)]


@pytest.mark.parametrize("split", [True, False])
@pytest.mark.parametrize("failing, first", [((3, 4), 3), ((2, 5), 2), ((6,), 6), ((1, 2), 1)])
def test_split_raises_the_first_failure_in_item_order(failing, first, split):
    # a failing item on either thread, the other thread's item slow to
    # fail or to finish: the first failing item's error is raised, once
    # neither thread is in a call
    active, finished = [0], []
    lock = threading.Lock()

    def fn(item, out):
        with lock:
            active[0] += 1
        try:
            if item % 2 == 0:
                time.sleep(0.01)
            if item in failing:
                raise KeyError(f"item {item}")
            finished.append(item)
        finally:
            with lock:
                active[0] -= 1

    buffers = tuple(np.empty((threads._AHEAD_MIN_ENTRIES, 1)) for _ in range(2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threads, "_may_look_ahead", lambda: split)
        with pytest.raises(KeyError, match=f"item {first}"):
            threads.split(fn, range(8), buffers)
    assert active[0] == 0
    # no call on a thread past its own failing item
    for parity in (0, 1):
        stop = min([i for i in failing if i % 2 == parity], default=8)
        assert all(i < stop for i in finished if i % 2 == parity)


def test_split_runs_under_the_callers_error_state():
    def overflow(i, out):
        out[:] = 1e300
        out *= 1e300
        return out

    buffers = tuple(np.empty((threads._AHEAD_MIN_ENTRIES, 1)) for _ in range(2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threads, "_may_look_ahead", lambda: True)
        for item in (0, 1):  # on the lookahead thread, on the calling thread
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                threads.split(lambda i, out: i == item and overflow(i, out), range(2),
                              buffers)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(over="ignore"):
                threads.split(overflow, range(4), buffers)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@contextlib.contextmanager
def forced_prediction(predicted):
    """Every nystrom/rf epoch end's check is predicted to pass (a
    check-only sweep) when ``predicted`` is True, never when False, and as
    the run's norms say when None; yields the list of predictions made."""
    made = []
    real = solvers._predicts_pass

    def predict(*args):
        made.append(real(*args) if predicted is None else predicted)
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_predicts_pass", predict)
        yield made


@pytest.mark.parametrize("on", [True, False], ids=["ahead", "caller"])
@pytest.mark.parametrize("check_residual", [False, True])
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("n_lams", [1, 3])
@pytest.mark.parametrize("method", ["nystrom", "rf"])
def test_a_predicted_stop_changes_no_byte(method, n_lams, workers, check_residual, on):
    # the predictor forced off, forced on at every check, and as shipped:
    # the same coefficients, trace values, ordered ledger and normal-equation
    # residuals, and every check the same verdict from the same norms; each
    # check-only sweep that fails costs exactly one more sweep of
    # generation, and leaves no trace or ledger row
    lams = [1e-3, 1e-2, 1e-1][:n_lams]
    data = gaussian_blobs(48, 3, 3, seed=11)  # lookahead_case's data
    gamma = 1e-3 if method == "nystrom" else 0.0
    outcomes, checks = {}, {}
    real_passed = solvers._PendingCheck.passed

    def passed(self, tol):
        verdict = real_passed(self, tol)
        checks[predicted].append((verdict, self.worst, self.system.rhs_norm))
        return verdict

    for predicted in (False, True, None):
        checks[predicted] = []
        source, run = lookahead_case(method, lams)
        with lookahead(on), forced_prediction(predicted) as made, \
                pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers._PendingCheck, "passed", passed)
            results, ledger = run(workers, grad_tol=3e-2, check_residual=check_residual)
        residuals = [normal_equation_residual(model, data, lam, gamma)
                     for lam, (model, _) in zip(lams, results)]
        epochs_run = results[0][1].records[-1].epoch + 1
        stopped = epochs_run < 6
        failed = sum(made[:-1]) + (made[-1] and not stopped)
        outcomes[predicted] = (run_values(results, ledger), residuals, epochs_run,
                               len(source.calls), failed)
    values, residuals, epochs_run, generated, _ = outcomes[False]
    plan_blocks = 3
    for predicted in (True, None):
        assert outcomes[predicted][:3] == (values, residuals, epochs_run)
        failed = outcomes[predicted][4]
        assert outcomes[predicted][3] == generated + failed * plan_blocks
    assert outcomes[True][4] == epochs_run - 1  # every check but a pass
    assert checks[True] == checks[False] == checks[None]
    assert len(checks[False]) == min(epochs_run, 5)  # one per epoch end but the last


@needs_openblas
@pytest.mark.parametrize("method", ["nystrom", "rf"])
def test_a_check_only_sweep_makes_even_blocks_ahead_and_odd_ones_in_place(method):
    # epoch 0's check, forced to be predicted, passes on epoch 1's blocks:
    # each made once, block 0 and 2 on the lookahead thread, block 1 on the
    # calling thread, and the run ends on epoch 0
    me = threading.get_ident()
    source, run = lookahead_case(method, [1e-3])
    with lookahead(True), forced_prediction(True) as made:
        results, _ = run(grad_tol=0.5)
    assert made == [True]
    assert results[0][1].records[-1].epoch == 0
    plan = make_plan(24, 8, seed=14)  # lookahead_case's plan
    check_calls = source.calls[plan.n_blocks:]
    assert sorted(pos for pos, _ in check_calls) == sorted(
        tuple(block) for block in solvers.epoch_blocks(plan, 1))
    for blk, block in enumerate(solvers.epoch_blocks(plan, 1)):
        [ident] = [ident for pos, ident in check_calls if pos == tuple(block)]
        assert (ident == me) == (blk % 2 == 1)
