"""Threads during a solver run: one per OpenBLAS, block rows on a pool,
the next block generated while the current one is applied.

numpy and scipy each bundle an OpenBLAS with its own thread pool.  On a
host with few CPUs an idle pool's workers spin on the cores that the other
pool, or a second thread of this process, needs.  ``solver_threads`` is the
scope the block-descent engine, ``predict`` and the dense diagnostics run
in.  While any thread is inside it, every loaded OpenBLAS runs with one
thread, ``for_rows`` splits the rows of a generated block into one range
per usable CPU, run on a persistent thread pool, and ``ahead`` generates
the next block of a sweep on a persistent background thread while the
caller uses the current one.  Outside it, and where no OpenBLAS thread
control is found (MKL, a system BLAS), both run on the calling thread.

The libraries are found the way ``threadpoolctl`` does, which is not a
dependency: read ``/proc/self/maps`` and look their thread controls up
through ctypes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

# The symbol names carry the library's prefix and suffix: scipy_ for the
# scipy-openblas wheels, 64_ for the 64-bit-integer build.
_CONTROL_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)

_lock = threading.Lock()
_depth = 0  # scopes entered and not yet left, over every thread
_saved: list[tuple] = []  # (set, thread count) of each OpenBLAS pinned
_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_ahead_pool: ThreadPoolExecutor | None = None  # the one lookahead thread
# The fewest entries a row range gets, and a block needs to be generated
# ahead.  On a 2-vCPU host a random-feature block of 32k entries (about 1 ms
# of cosine) was slower split in two than whole; at 64k entries the split
# was faster.
_MIN_RANGE_ENTRIES = 1 << 15


@functools.cache
def openblas_controls() -> list[tuple]:
    """The (get, set) thread-count functions of every OpenBLAS mapped into
    this process; empty when none is found.  Looked up once: importing
    this package maps numpy's and scipy's, and reading the map costs about
    a millisecond."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(
                {line.split()[-1] for line in fh if "openblas" in line.lower()}
            )
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for pattern in _CONTROL_SYMBOLS:
            get = getattr(lib, pattern.format("get"), None)
            set_ = getattr(lib, pattern.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextlib.contextmanager
def solver_threads():
    """Pin every OpenBLAS to one thread and let ``for_rows`` use the pool.

    The first entry saves each library's thread count and the last exit
    restores it, so scopes may nest and run from several threads at once.
    """
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(set_, get()) for get, set_ in openblas_controls()]
            for set_, _ in _saved:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_, threads in _saved:
                    set_(threads)
                _saved = []


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def row_workers() -> int:
    """How many row ranges ``for_rows`` makes: one per usable CPU while a
    scope has pinned an OpenBLAS, otherwise one.  ``ahead`` looks ahead
    only when this is more than one."""
    return _cpu_count() if _depth and _saved else 1


def _executor(size: int) -> ThreadPoolExecutor:
    """The persistent pool, replaced by a larger one when it has fewer than
    ``size`` threads; a replaced pool's threads exit once it is unused."""
    global _pool, _pool_size
    with _lock:
        if _pool_size < size:
            _pool = ThreadPoolExecutor(size, thread_name_prefix="kernelbcd-rows")
            _pool_size = size
        return _pool


def for_rows(out: np.ndarray, fn) -> None:
    """Call ``fn(lo, hi)`` on disjoint ranges that cover the rows of ``out``.

    Up to ``row_workers()`` ranges are made, none with fewer than
    ``_MIN_RANGE_ENTRIES`` entries of ``out``.  One range is ``fn(0, n)``
    on the calling thread.  Otherwise the calling thread runs the last
    range and the pool the others, each under the calling thread's
    ``np.geterr()`` (numpy's error state is per thread).  Every range
    finishes before this returns or raises; a failed range raises its
    exception, the calling thread's first, then the pool's in row order.
    """
    n = out.shape[0]
    workers = min(row_workers(), n, out.size // _MIN_RANGE_ENTRIES)
    if workers <= 1:
        fn(0, n)
        return
    bounds = [n * i // workers for i in range(workers + 1)]
    err = np.geterr()

    def task(lo, hi):
        with np.errstate(**err):
            fn(lo, hi)

    pool = _executor(workers - 1)
    futures = [pool.submit(task, lo, hi) for lo, hi in zip(bounds[:-2], bounds[1:-1])]
    try:
        fn(bounds[-2], n)
    finally:
        for future in futures:
            future.exception()  # waits for the range, raises nothing
    for future in futures:
        future.result()


def _timed(fn, item):
    start = perf_counter()
    out = fn(item)
    return out, perf_counter() - start


def _lookahead_thread() -> ThreadPoolExecutor:
    """The persistent single-thread pool ``ahead`` runs on.  It is not the
    row pool: a generation there splits its rows onto the row pool, and
    waiting on a pool from one of its own threads could deadlock it."""
    global _ahead_pool
    with _lock:
        if _ahead_pool is None:
            _ahead_pool = ThreadPoolExecutor(1, thread_name_prefix="kernelbcd-ahead")
        return _ahead_pool


def ahead(fn, items):
    """Yield ``(fn(item), seconds)`` for each of ``items`` in order, where
    ``seconds`` is the call's own duration.

    The first call runs on the calling thread when the first pair is asked
    for.  If its result has at least ``_MIN_RANGE_ENTRIES`` entries and
    ``row_workers() > 1`` (a solver scope has pinned an OpenBLAS and the
    process may use several CPUs), each later call is started on the
    lookahead thread as soon as the previous pair is handed out, under the
    calling thread's ``np.geterr()``; otherwise every call runs on the
    calling thread when its pair is asked for.  Either way ``fn`` is called
    once per item, in order, one call at a time, and never for an item
    past the last.  A failed call raises its exception when its pair is
    asked for.

    Close the generator (``contextlib.closing``) when the consumer may stop
    early: closing waits for a call in flight and drops its exception.
    """
    items = iter(items)
    for item in items:
        out = _timed(fn, item)
        break
    else:
        return
    if row_workers() <= 1 or out[0].size < _MIN_RANGE_ENTRIES:
        yield out
        for item in items:
            yield _timed(fn, item)
        return
    err = np.geterr()

    def task(item):
        with np.errstate(**err):
            return _timed(fn, item)

    pool = _lookahead_thread()
    future = None
    try:
        for item in items:
            future = pool.submit(task, item)
            yield out
            out = future.result()
        yield out
    finally:
        if future is not None:
            future.exception()  # waits for the call, raises nothing
