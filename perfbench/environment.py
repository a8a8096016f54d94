"""What a result was measured on: interpreter, libraries, BLAS, CPUs, commit."""

from __future__ import annotations

import ctypes
import os
import platform

# numpy and scipy each bundle an OpenBLAS; the symbol names carry the
# library's suffix (64_ for the 64-bit-integer build).
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _first_symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn
    return None


def blas_libraries() -> list[dict]:
    """Every OpenBLAS mapped into this process, with its configuration
    string and the thread count it will use, asked through ctypes."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted(
                {line.split()[-1] for line in fh if "openblas" in line.lower()}
            )
    except OSError:
        return []
    out = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = _first_symbol(lib, _THREAD_SYMBOLS, ctypes.c_int)
        config = _first_symbol(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        out.append(
            {
                "library": os.path.basename(path),
                "config": config().decode() if config else None,
                "threads": threads() if threads else None,
            }
        )
    return out


def effective_blas_threads() -> int | None:
    """The largest thread count any loaded BLAS will use."""
    counts = [b["threads"] for b in blas_libraries() if b["threads"] is not None]
    return max(counts) if counts else None


def cpu_steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests since boot, summed over
    this machine's CPUs; None where /proc/stat has no steal column."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_commit(root: str) -> str | None:
    """HEAD of the repository at ``root`` read from .git, or None outside
    a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def record(root: str) -> dict:
    """Call after numpy and scipy.linalg are imported, so both BLAS
    libraries are mapped."""
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "blas_threads": effective_blas_threads(),
        "blas_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "cpus_allowed": affinity,
        "machine": platform.machine(),
        "git_commit": git_commit(root),
    }
