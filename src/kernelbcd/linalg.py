"""Dense matrix primitives for the block solvers and rate checks.

Everything is a plain float64 numpy array in row-major order.  ``spd_solve``
is the package's one SPD solve: the solvers' block systems, every lambda of
a visit in one stacked call, and the rates lab's quadratics and its
stepper's blocks, every seeded run of a step in one stacked call, all go
through it.  SPD systems are tested by a Cholesky factorization and refuse
to perturb: a matrix that is visibly asymmetric or has a pivot that is not
positive to working precision raises ``NotSpdError`` so the caller can fix
its regularization instead of us papering over a singular block.  Extremal
eigenvalues come from one dense ``eigvalsh``: every caller already holds the
dense symmetric matrix.
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
    A boolean array is a mask, not an index set, and is refused.

    Returns the indices as an int64 array (order preserved).
    """
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise IndexOutOfRangeError(f"index set must be 1-d, got shape {idx.shape}")
    if idx.dtype == np.bool_:
        raise IndexOutOfRangeError("index set entries must be integers, not booleans")
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        if not np.all(idx == np.floor(idx)):
            raise IndexOutOfRangeError("index set entries must be integers")
    idx = idx.astype(np.int64)
    if idx.size:
        if idx.min() < 0 or idx.max() >= universe:
            raise IndexOutOfRangeError(
                f"index set entries must lie in [0, {universe})"
            )
        # a sort, not np.unique: numpy 2's unique imports numpy.ma, 1 MB
        ordered = np.sort(idx)
        if (ordered[1:] == ordered[:-1]).any():
            raise IndexOutOfRangeError("index set contains duplicates")
    return idx


def is_symmetric(a: np.ndarray) -> np.ndarray:
    """Whether ``a``, or each matrix of a stack (..., m, m), equals its
    transpose within SYMMETRY_RTOL of its own largest entry; a matrix with a
    non-finite entry is not symmetric.  A bool array of the stack's shape,
    0-d for one matrix.

    It takes two reductions and a division: the scale is max(1, largest
    |entry|), and the skew needs no absolute value, since a - a^T is
    antisymmetric, so its largest entry is its largest magnitude.  A matrix
    with an inf entry has an inf or NaN skew over an inf scale, and one
    with a NaN entry a NaN skew, so the ratio is NaN and the test fails.
    """
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf, in a matrix that fails
        scale = np.abs(a).max(axis=(-2, -1), initial=1.0)
        skew = (a - a.swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
        return skew / scale <= SYMMETRY_RTOL


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
    """Solve A X = B for symmetric positive definite A, or for each matrix
    of a stack: A of shape (..., m, m) with B of shape (..., m, k), or a
    single A with B of shape (m, k) or (m,).

    ``np.linalg.cholesky`` is the SPD test and ``np.linalg.solve`` the
    solve, one stacked call each.  Raises ``NotSpdError`` if a matrix is
    visibly asymmetric or its factorization hits a non-positive pivot, and
    ``DivergenceError`` instead when A or B holds a non-finite entry at
    that failure.
    OpenBLAS's Cholesky lets a NaN pivot through, so the pivots are checked:
    one that is NaN, or whose square is at most m * eps times its own
    matrix's largest diagonal entry (that matrix singular to working
    precision, where the sign of the last pivot is rounding), fails like a
    non-positive pivot.  Every test is made on each matrix at its own scale,
    so a stack fails exactly when a call on one of its matrices would, and
    otherwise gives each matrix's solution bit for bit as that call does.
    Finiteness of A and B is checked only on the failure paths, so a solve
    that succeeds pays only for the O(m) check of its pivots.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatchError(f"expected a square matrix, got {a.shape}")
    vector = a.ndim == 2 and b.ndim == 1
    if b.shape[: a.ndim - 1] != a.shape[:-1] or not (vector or b.ndim == a.ndim):
        raise DimensionMismatchError(
            f"rhs of shape {b.shape} does not fit a matrix of shape {a.shape}"
        )
    if not is_symmetric(a).all():
        _raise_if_not_finite(matrix=a, rhs=b)
        raise NotSpdError("matrix is not symmetric within tolerance")
    try:
        pivots = np.diagonal(np.linalg.cholesky(a), axis1=-2, axis2=-1)
        # NaN fails, and so does a pivot at the rounding level of its
        # matrix's largest diagonal entry: that matrix is then singular to
        # working precision
        top = np.diagonal(a, axis1=-2, axis2=-1).max(axis=-1, initial=0.0)
        low = ~(pivots * pivots > a.shape[-1] * EPS * top[..., None])
        if low.any():
            raise np.linalg.LinAlgError(
                f"a Cholesky pivot is {float(pivots[low].min())!r}, not positive "
                "to working precision"
            )
        # numpy's solve raises on an invalid operation, as inf - inf in B
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        _raise_if_not_finite(matrix=a, rhs=b)
        raise NotSpdError(str(exc)) from exc


def sum_in_order(terms) -> float:
    """Left-to-right float sum of ``terms``: Python 3.12's built-in ``sum``
    compensates, so its result may differ in the last bits."""
    total = 0.0
    for term in terms:
        total += term
    return total


def gram(zb: np.ndarray) -> np.ndarray:
    """Return Zb^T Zb, symmetrized so the result is exactly symmetric."""
    g = zb.T @ zb
    return (g + g.T) * 0.5


class SpectralEstimate(NamedTuple):
    lmax: float
    lmin: float


def checked_symmetric(a) -> np.ndarray:
    """``a`` as a float64 array, which must be a non-empty square matrix,
    symmetric within tolerance and finite; anything else raises
    ``DimensionMismatchError``."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionMismatchError(
            f"expected a non-empty square matrix, got {a.shape}"
        )
    if not is_symmetric(a):
        raise DimensionMismatchError(
            "matrix is not symmetric within tolerance, or not finite"
        )
    return a


def lambda_extremes(a: np.ndarray) -> SpectralEstimate:
    """Largest and smallest eigenvalues of a symmetric matrix, from one dense
    ``eigvalsh``: exact to rounding, whatever the gap between eigenvalues.

    Raises ``DimensionMismatchError`` for a matrix that ``checked_symmetric``
    refuses: empty, not square, not symmetric within tolerance, or not
    finite.
    """
    vals = np.linalg.eigvalsh(checked_symmetric(a))
    return SpectralEstimate(float(vals[-1]), float(vals[0]))
