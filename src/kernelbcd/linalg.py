"""Dense matrix primitives for the block solvers and rate checks.

Everything is a plain float64 numpy array in row-major order.  SPD systems
go through Cholesky and refuse to perturb: a non-positive pivot raises
``NotSpdError`` so the caller can fix its regularization instead of us
papering over a singular block.  Extremal eigenvalues come from power
iteration (with a shift for the bottom of the spectrum); dense eigensolves
are reserved for test oracles.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    DivergenceError,
    IndexOutOfRangeError,
    NotSpdError,
)

SYMMETRY_RTOL = 1e-9


def validate_indices(indices, universe: int) -> np.ndarray:
    """Check an index set: integer entries, within [0, universe), distinct.

    Returns the indices as an int64 array (order preserved).
    """
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise IndexOutOfRangeError(f"index set must be 1-d, got shape {idx.shape}")
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        if not np.all(idx == np.floor(idx)):
            raise IndexOutOfRangeError("index set entries must be integers")
    idx = idx.astype(np.int64)
    if idx.size:
        if idx.min() < 0 or idx.max() >= universe:
            raise IndexOutOfRangeError(
                f"index set entries must lie in [0, {universe})"
            )
        if np.unique(idx).size != idx.size:
            raise IndexOutOfRangeError("index set contains duplicates")
    return idx


def is_symmetric(a: np.ndarray, rtol: float = SYMMETRY_RTOL) -> bool:
    if a.size == 0:
        return True
    scale = float(np.abs(a).max())
    if not scale < np.inf:  # a non-finite entry fails, before inf - inf warns
        return False
    return bool(np.abs(a - a.T).max() <= rtol * max(1.0, scale))


def _raise_if_not_finite(**arrays) -> None:
    """Raise ``DivergenceError`` naming the non-finite entries, if any."""
    for name, arr in arrays.items():
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            raise DivergenceError(
                f"{name} has {len(bad)} non-finite entries, the first at "
                f"{bad[0].tolist()}"
            )


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B for symmetric positive definite A via Cholesky.

    Raises ``NotSpdError`` if A is visibly asymmetric or the factorization
    hits a non-positive pivot, and ``DivergenceError`` instead when that
    failure comes from non-finite entries of A or B.  Finiteness is
    checked only on those failure paths, so a solve that succeeds pays
    nothing for it.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {a.shape}")
    if b.shape[0] != a.shape[1]:
        raise DimensionMismatchError(
            f"rhs has {b.shape[0]} rows, matrix has {a.shape[1]} columns"
        )
    if not is_symmetric(a):
        _raise_if_not_finite(matrix=a, rhs=b)
        raise NotSpdError("matrix is not symmetric within tolerance")
    try:
        factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        _raise_if_not_finite(matrix=a, rhs=b)
        raise NotSpdError(str(exc)) from exc
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def gram(zb: np.ndarray) -> np.ndarray:
    """Return Zb^T Zb, symmetrized so the result is exactly symmetric."""
    g = zb.T @ zb
    return (g + g.T) * 0.5


class SpectralEstimate(NamedTuple):
    lmax: float
    lmin: float
    converged: bool


def _power_dominant(a: np.ndarray, iters: int, tol: float, rng) -> tuple[float, bool]:
    """Dominant (largest magnitude) eigenvalue of a symmetric matrix.

    Power iteration with the Rayleigh quotient as the estimate; returns the
    signed eigenvalue and a convergence flag.  A zero image means the
    operator is (numerically) zero on the iterate, reported as 0.
    """
    n = a.shape[0]
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = np.inf
    for _ in range(iters):
        w = a @ v
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0, True
        lam_new = float(v @ w)
        v = w / norm_w
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new, True
        lam = lam_new
    return lam, False


def lambda_extremes(
    a: np.ndarray, iters: int = 2000, tol: float = 1e-12
) -> SpectralEstimate:
    """Extremal eigenvalues of a symmetric matrix by power iteration.

    A first pass finds the dominant (largest magnitude) eigenvalue; the
    opposite end of the spectrum comes from a second pass on the shifted
    matrix rho*I -/+ A with rho the spectral radius estimate.  Accurate to
    ~1e-6 relative on well-separated spectra; ties and near-ties at both
    ends are outside the contract.  Non-convergence within ``iters`` is
    reported through the flag, not an exception; the last estimates are
    still returned.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {a.shape}")
    if not is_symmetric(a):
        raise DimensionMismatchError("matrix is not symmetric within tolerance")
    n = a.shape[0]
    rng = np.random.default_rng(0x5EED)
    dominant, ok_dom = _power_dominant(a, iters, tol, rng)
    radius = abs(dominant)
    eye = np.eye(n)
    if dominant >= 0.0:
        lmax = dominant
        other, ok_other = _power_dominant(radius * eye - a, iters, tol, rng)
        lmin = radius - other
    else:
        lmin = dominant
        other, ok_other = _power_dominant(a + radius * eye, iters, tol, rng)
        lmax = other - radius
    return SpectralEstimate(lmax, lmin, ok_dom and ok_other)
