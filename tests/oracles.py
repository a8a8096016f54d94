"""Reference forms that the tests check the package against: each is
written from its formula, one pair of points or one dense product at a
time, with none of the package's block code."""

import numpy as np

from kernelbcd.errors import DimensionMismatchError


def kernel_eval(spec, x, y) -> float:
    """The kernel of ``spec`` on a single pair of vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"shapes {x.shape} and {y.shape} differ")
    if spec.family == "linear":
        return float(x @ y)
    sq = float(np.sum((x - y) ** 2))
    return float(np.exp(-sq / (2.0 * spec.sigma**2)))


def primal_dual_gap(Z: np.ndarray, w: np.ndarray, Y: np.ndarray, lam: float) -> float:
    """||w - (1/(n lam)) Z^T (Y - Z w)||_F.

    Zero (to rounding) exactly at the ridge optimum, where the primal
    weights and the implied dual variables alpha = Y - Z w coincide
    through w = (1/(n lam)) Z^T alpha.
    """
    n = Y.shape[0]
    alpha_dual = Y - Z @ w
    return float(np.linalg.norm(w - (Z.T @ alpha_dual) / (n * lam)))
