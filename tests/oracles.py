"""Reference forms that the tests check the package against: each is
written from its formula, one pair of points or one dense product at a
time, with none of the package's block code."""

import math
import struct
from fractions import Fraction

import numpy as np

from kernelbcd.errors import DimensionMismatchError
from kernelbcd.kernels import kernel_cross, one_vs_all, random_features_block


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


# 2 pi to 40 significant digits
_TWO_PI = Fraction("6.283185307179586476925286766559005768394")


def two_pi_split() -> tuple[float, float]:
    """2 pi as hi + lo: hi is the float 2 pi cut to its first 31
    significant bits, lo the float nearest 2 pi - hi."""
    word = struct.unpack("<Q", struct.pack("<d", 2.0 * math.pi))[0]
    hi = struct.unpack("<d", struct.pack("<Q", word & ~((1 << 22) - 1)))[0]
    return hi, float(_TWO_PI - Fraction(hi))


def random_feature_entries(t, p: int) -> np.ndarray:
    """The feature map's entries sqrt(2/p) cos(t) for the float64 arguments
    t = x . omega + b: t less 2 pi k, k = rint(t / 2 pi), taken as
    (t - k hi) - k lo, rounded to float32, then numpy's float32 cos, scaled
    in float64.  An argument with |k| past 2**22, or not finite, takes the
    float64 cos of t."""
    t = np.array(t, dtype=np.float64)
    hi, lo = two_pi_split()
    k = np.rint(t * (1.0 / (2.0 * math.pi)))
    far = ~(np.abs(k) <= 2.0**22)
    k[far] = 0.0
    near = np.where(far, 0.0, t)
    reduced = ((near - k * hi) - k * lo).astype(np.float32)
    scale = math.sqrt(2.0 / p)
    out = scale * np.cos(reduced).astype(np.float64)
    out[far] = scale * np.cos(t[far])
    return out


def _ip(a: np.ndarray, b: np.ndarray) -> float:
    """Trace inner product <A, B> = tr(A^T B)."""
    return float(np.sum(a * b))


def full_surrogate(alpha: np.ndarray, K: np.ndarray, Y: np.ndarray, lam: float) -> float:
    """Gauss-Seidel surrogate 0.5<a, Ka> + (n lam / 2)||a||^2 - <Y, a>."""
    n = Y.shape[0]
    ka = K @ alpha
    return 0.5 * _ip(alpha, ka) + 0.5 * n * lam * _ip(alpha, alpha) - _ip(Y, alpha)


def nystrom_objective(
    alpha: np.ndarray,
    k_block: np.ndarray,
    landmarks: np.ndarray,
    Y: np.ndarray,
    lam: float,
    gamma: float,
) -> float:
    """(1/n)||K_J a - Y||^2 + lam <a, K_JJ a> + lam gamma ||a||^2.

    ``k_block`` is the n x p column block K([n], J).
    """
    n = Y.shape[0]
    ka = k_block @ alpha
    return (
        _ip(ka - Y, ka - Y) / n
        + lam * _ip(alpha, ka[landmarks])
        + lam * gamma * _ip(alpha, alpha)
    )


def rf_objective(w: np.ndarray, Z: np.ndarray, Y: np.ndarray, lam: float) -> float:
    """(1/n)||Z w - Y||^2 + lam ||w||^2."""
    n = Y.shape[0]
    r = Z @ w - Y
    return _ip(r, r) / n + lam * _ip(w, w)


def primal_dual_gap(Z: np.ndarray, w: np.ndarray, Y: np.ndarray, lam: float) -> float:
    """||w - (1/(n lam)) Z^T (Y - Z w)||_F.

    Zero (to rounding) exactly at the ridge optimum, where the primal
    weights and the implied dual variables alpha = Y - Z w coincide
    through w = (1/(n lam)) Z^T alpha.
    """
    n = Y.shape[0]
    alpha_dual = Y - Z @ w
    return float(np.linalg.norm(w - (Z.T @ alpha_dual) / (n * lam)))


def dense_normal_equation_residual(model, data, lam: float, gamma: float) -> float:
    """The relative residual of ``model``'s normal equation on its training
    set ``data``, from the dense formulas:

    full:     ||(K + n lam I) a - Y|| / ||Y||
    nystrom:  ||(K_J^T K_J + n lam K_JJ + n lam gamma I) a - K_J^T Y|| / ||K_J^T Y||
    rf:       ||(Z^T Z + n lam I) w - Z^T Y|| / ||Z^T Y||

    K_J is ``kernel_cross`` of the data and the anchors, K_JJ its rows at
    the landmarks and Z ``random_features_block`` of every feature.
    """
    Y = one_vs_all(data)
    lam_eff, c = data.n * lam, model.coefficients
    if model.method == "full":
        K = kernel_cross(data.X, model.anchors, model.kernel)
        return float(np.linalg.norm(K @ c + lam_eff * c - Y) / np.linalg.norm(Y))
    if model.method == "nystrom":
        kj = kernel_cross(data.X, model.anchors, model.kernel)
        lhs = kj.T @ (kj @ c) + lam_eff * (kj[model.landmarks] @ c) + lam_eff * gamma * c
    else:
        kj = random_features_block(data.X, np.arange(model.features.p), model.features)
        lhs = kj.T @ (kj @ c) + lam_eff * c
    rhs = kj.T @ Y
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
