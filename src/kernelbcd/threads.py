"""Threads during a solver run: one per OpenBLAS, and the next block
generated while the current one is applied.

numpy bundles an OpenBLAS with its own thread pool, and so does scipy,
which this package does not import but a caller may.  On a host with few
CPUs an idle pool's workers spin on the cores that another pool, or a
second thread of this process, needs.  ``solver_threads`` is the
scope the block-descent engine, ``predict`` and the dense diagnostics run
in.  While any thread is inside it, every loaded OpenBLAS runs with one
thread, and ``ahead`` generates the next block of a sweep on a persistent
background thread while the caller uses the current one, if the process
may use more than one CPU.  Outside it, and where no OpenBLAS thread
control is found (MKL, a system BLAS), every block is generated on the
calling thread.  Either way ``ahead`` writes the blocks into two buffers
its caller owns, block i into ``buffers[i % 2]`` (the block source's
``out=``), so a sweep allocates no block, on any thread.

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
_ahead_pool: ThreadPoolExecutor | None = None  # the one lookahead thread
# The fewest entries a block needs to be generated ahead
_AHEAD_MIN_ENTRIES = 1 << 15


@functools.cache
def openblas_controls() -> list[tuple]:
    """The (get, set) thread-count functions of every OpenBLAS mapped into
    this process; empty when none is found.  Looked up once, since reading
    the map costs about a millisecond: importing this package maps only
    numpy's, and scipy's is there too if the caller imported scipy first.
    A library mapped later is not pinned; this package calls none but
    numpy's."""
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
    """Pin every OpenBLAS to one thread and let ``ahead`` use its thread.

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


def _may_look_ahead() -> bool:
    """Whether ``ahead`` may generate blocks on its thread: a scope has
    pinned an OpenBLAS, and the process may use more than one CPU."""
    return bool(_depth and _saved) and _cpu_count() > 1


def _timed(fn, item, out):
    start = perf_counter()
    block = fn(item, out)
    return block, perf_counter() - start


def _lookahead_thread() -> ThreadPoolExecutor:
    """The persistent single-thread pool ``ahead`` runs on."""
    global _ahead_pool
    with _lock:
        if _ahead_pool is None:
            _ahead_pool = ThreadPoolExecutor(1, thread_name_prefix="kernelbcd-ahead")
        return _ahead_pool


def ahead(fn, items, buffers):
    """Yield ``(fn(item, out), seconds)`` for each of ``items`` in order,
    where ``out`` is ``buffers[i % 2]`` for item i and ``seconds`` is the
    call's own duration.  ``fn`` writes its block into ``out``; a yielded
    block is valid until the consumer asks for the next one.

    The first call runs on the calling thread when the first pair is asked
    for.  If its result has at least ``_AHEAD_MIN_ENTRIES`` entries and
    ``_may_look_ahead()`` (a solver scope has pinned an OpenBLAS and the
    process may use several CPUs), each later call is started on the
    lookahead thread as soon as the previous pair is handed out, under the
    calling thread's ``np.geterr()``, writing into the buffer the consumer
    no longer holds; otherwise every call runs on the calling thread when
    its pair is asked for.  Either way ``fn`` is called once per item, in
    order, one call at a time, and never for an item past the last.  A
    failed call raises its exception when its pair is asked for.

    Close the generator (``contextlib.closing``) when the consumer may stop
    early: closing waits for a call in flight and drops its exception, so
    no call writes into ``buffers`` once the generator is closed.
    """
    calls = ((item, buffers[i % 2]) for i, item in enumerate(items))
    for call in calls:
        out = _timed(fn, *call)
        break
    else:
        return
    if not _may_look_ahead() or out[0].size < _AHEAD_MIN_ENTRIES:
        yield out
        for call in calls:
            yield _timed(fn, *call)
        return
    err = np.geterr()

    def task(call):
        with np.errstate(**err):
            return _timed(fn, *call)

    pool = _lookahead_thread()
    future = None
    try:
        for call in calls:
            future = pool.submit(task, call)
            yield out
            out = future.result()
        yield out
    finally:
        if future is not None:
            future.exception()  # waits for the call, raises nothing
