"""The solver thread scope: OpenBLAS pinned to one thread during a run,
block rows generated over ranges on a pool, byte-equal to one range."""

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
