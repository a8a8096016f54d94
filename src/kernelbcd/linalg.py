"""Dense matrix primitives for the block solvers and rate checks.

Everything is a plain float64 numpy array in row-major order.  SPD systems
are tested by a Cholesky factorization and refuse to perturb: a pivot that
is not positive to working precision raises ``NotSpdError`` so the caller
can fix its regularization instead of us papering over a singular block.  Extremal eigenvalues come from one dense
``eigvalsh``: every caller already holds the dense symmetric matrix.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    DivergenceError,
    IndexOutOfRangeError,
    NotSpdError,
)

SYMMETRY_RTOL = 1e-9
EPS = float(np.finfo(np.float64).eps)


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


def is_symmetric(a: np.ndarray) -> bool:
    if a.size == 0:
        return True
    scale = float(np.abs(a).max())
    if not scale < np.inf:  # a non-finite entry fails, before inf - inf warns
        return False
    return bool(np.abs(a - a.T).max() <= SYMMETRY_RTOL * max(1.0, scale))


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
    """Solve A X = B for symmetric positive definite A.

    ``np.linalg.cholesky`` is the SPD test and ``np.linalg.solve`` the
    solve.  Raises ``NotSpdError`` if A is visibly asymmetric or the
    factorization hits a non-positive pivot, and ``DivergenceError``
    instead when that failure comes from non-finite entries of A or B.
    OpenBLAS's Cholesky lets a NaN pivot through, so the pivots are checked:
    one that is NaN, or whose square is at most b * eps times A's largest
    diagonal entry (A singular to working precision, where the sign of the
    last pivot is rounding), fails like a non-positive pivot.  Finiteness of
    A and B is checked only on the failure paths, so a solve that succeeds
    pays only for the O(b) check of its pivots.
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
        pivots = np.diagonal(np.linalg.cholesky(a))
        # NaN fails, and so does a pivot at the rounding level of the
        # largest diagonal entry: A is then singular to working precision
        floor = a.shape[0] * EPS * float(np.diagonal(a).max(initial=0.0))
        if not (pivots * pivots > floor).all():
            raise np.linalg.LinAlgError(
                f"a Cholesky pivot is {float(pivots.min())!r}, not positive "
                "to working precision"
            )
        # numpy's solve raises on an invalid operation, as inf - inf in B
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        _raise_if_not_finite(matrix=a, rhs=b)
        raise NotSpdError(str(exc)) from exc


def gram(zb: np.ndarray) -> np.ndarray:
    """Return Zb^T Zb, symmetrized so the result is exactly symmetric."""
    g = zb.T @ zb
    return (g + g.T) * 0.5


class SpectralEstimate(NamedTuple):
    lmax: float
    lmin: float


def lambda_extremes(a: np.ndarray) -> SpectralEstimate:
    """Largest and smallest eigenvalues of a symmetric matrix, from one dense
    ``eigvalsh``: exact to rounding, whatever the gap between eigenvalues.

    Raises ``DimensionMismatchError`` for a matrix that is empty, not
    square, not symmetric within tolerance, or not finite.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionMismatchError(
            f"expected a non-empty square matrix, got {a.shape}"
        )
    if not is_symmetric(a):
        raise DimensionMismatchError(
            "matrix is not symmetric within tolerance, or not finite"
        )
    vals = np.linalg.eigvalsh(a)
    return SpectralEstimate(float(vals[-1]), float(vals[0]))
