"""Convergence-rate laboratory for block coordinate descent.

Implements the two iteration bounds the solvers are analyzed with, the
block-diagonal Hessian that separates them, and Monte-Carlo checks of the
matrix concentration inequalities behind the improved bound:

* restricted constant   L_max_b = max_{|I|=b} lambda_max(H(I, I));
* classical complexity  (d * L_max_b / (b * m)) * log(1/eps);
* effective constant    L_eff = e^2 * L + (d * log(2 d^2 / b) / b) * max_i H_ii,
  giving the per-step contraction (1 - m / (2 L_eff)) in expectation for
  uniformly sampled blocks;
* matrix Chernoff upper tail for lambda_max of a random principal
  submatrix, matrix Bernstein lower tail for a random column sketch, and
  the operator-norm two-sided bound for random cosine feature matrices.

Monte-Carlo verdicts compare an empirical violation frequency against
delta + 3*sqrt(delta/trials) (three-sigma binomial slack).  The block
sampler here draws a fresh uniform size-b subset each step, the model the
expectation bound is stated for; the solvers instead sweep a fixed
partition, and the two schedules are not interchangeable.

Natural log throughout.  Everything reported from the order-of-magnitude
tables has all constants set to 1 and is flagged as asymptotic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import (
    CombinatorialBlowupError,
    ConfigError,
    InvalidRateError,
    NotPerfectSquareError,
    ThresholdNotMetError,
)
from .kernels import Dataset, FeatureMapSpec, KernelSpec, kernel_cross, random_features_block
from .linalg import lambda_extremes, spd_solve
from .solvers import draw_landmarks

EXACT_SUBSET_CAP = 10**6

COSINE_FEATURE_BOUND = math.sqrt(2.0)  # sup |sqrt(2) cos(.)|


# ---------------------------------------------------------------------------
# problem containers


@dataclass
class QuadraticProblem:
    """f(w) = 0.5 w^T H w - g^T w with SPD Hessian H."""

    H: np.ndarray
    g: np.ndarray
    f_star: float | None = None

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=np.float64)
        self.g = np.asarray(self.g, dtype=np.float64)
        if self.H.ndim != 2 or self.H.shape[0] != self.H.shape[1]:
            raise ConfigError("H must be square")
        if self.g.shape != (self.H.shape[0],):
            raise ConfigError("g must be a vector matching H")
        if self.f_star is None:
            w_star = spd_solve(self.H, self.g[:, None])[:, 0]
            self.f_star = float(0.5 * w_star @ self.H @ w_star - self.g @ w_star)

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    def value(self, w: np.ndarray) -> float:
        return float(0.5 * w @ (self.H @ w) - self.g @ w)


@dataclass(frozen=True)
class SpectrumModel:
    """Kernel spectrum profile sigma_l(K) = n * mu_l, l = 1..n.

    exponential: mu_l = exp(-rate * l), rate > 0
    polynomial:  mu_l = l^(-2 * rate), rate > 1/2
    """

    decay: str
    rate: float
    n: int

    def __post_init__(self):
        if self.decay not in ("exponential", "polynomial"):
            raise ConfigError(f"unknown decay {self.decay!r}")
        if self.decay == "exponential" and not self.rate > 0:
            raise ConfigError("exponential decay needs rate > 0")
        if self.decay == "polynomial" and not self.rate > 0.5:
            raise ConfigError("polynomial decay needs rate > 1/2")
        if self.n < 2:
            raise ConfigError("need n >= 2")

    def eigenvalues(self) -> np.ndarray:
        ell = np.arange(1, self.n + 1, dtype=np.float64)
        if self.decay == "exponential":
            mu = np.exp(-self.rate * ell)
        else:
            mu = ell ** (-2.0 * self.rate)
        return self.n * mu


# ---------------------------------------------------------------------------
# Lipschitz constants and iteration bounds


def l_eff(H: np.ndarray, b: int) -> float:
    """Effective smoothness e^2 L + (d log(2 d^2 / b) / b) * max_i H_ii."""
    H = np.asarray(H, dtype=np.float64)
    d = H.shape[0]
    if not 1 <= b <= d:
        raise ConfigError(f"block size must lie in [1, {d}]")
    lmax = lambda_extremes(H).lmax
    return float(
        math.e**2 * lmax + (d * math.log(2.0 * d * d / b) / b) * np.diag(H).max()
    )


class LmaxEstimate(NamedTuple):
    value: float
    exact: bool


def l_max_b(
    H: np.ndarray,
    b: int,
    mode: str = "exact",
    trials: int = 1000,
    seed: int = 0,
) -> LmaxEstimate:
    """Largest lambda_max over size-b principal submatrices of H.

    ``exact`` enumerates every subset (refused beyond the 1e6 cap);
    ``sampled`` maximizes over uniform draws and is therefore only a lower
    bound, flagged through ``exact=False`` so that classical-rate
    consumers know the figure is optimistic.
    """
    H = np.asarray(H, dtype=np.float64)
    d = H.shape[0]
    if not 1 <= b <= d:
        raise ConfigError(f"block size must lie in [1, {d}]")
    if mode == "exact":
        count = math.comb(d, b)
        if count > EXACT_SUBSET_CAP:
            raise CombinatorialBlowupError(
                f"C({d},{b}) = {count} subsets exceeds the {EXACT_SUBSET_CAP} cap"
            )
        best = -np.inf
        for subset in combinations(range(d), b):
            sub = H[np.ix_(subset, subset)]
            best = max(best, float(np.linalg.eigvalsh(sub)[-1]))
        return LmaxEstimate(best, True)
    if mode != "sampled":
        raise ConfigError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed)
    best = -np.inf
    for _ in range(trials):
        subset = rng.choice(d, size=b, replace=False)
        sub = H[np.ix_(subset, subset)]
        best = max(best, float(np.linalg.eigvalsh(sub)[-1]))
    return LmaxEstimate(best, False)


def standard_rate_iters(
    H: np.ndarray,
    b: int,
    m: float,
    eps: float,
    mode: str = "exact",
    trials: int = 1000,
    seed: int = 0,
) -> float:
    """Classical iteration count (d L_max_b / (b m)) log(1/eps), constant 1."""
    if not m > 0:
        raise ConfigError("strong convexity constant m must be positive")
    H = np.asarray(H, dtype=np.float64)
    d = H.shape[0]
    est = l_max_b(H, b, mode=mode, trials=trials, seed=seed)
    return float(d * est.value / (b * m) * math.log(1.0 / eps))


def theorem_rate(H: np.ndarray, b: int, m: float) -> float:
    """Per-step contraction factor 1 - m / (2 L_eff)."""
    rate = m / (2.0 * l_eff(H, b))
    if not 0.0 < rate <= 1.0:
        raise InvalidRateError(f"m/(2 L_eff) = {rate} outside (0, 1]")
    return 1.0 - rate


def improved_bound(
    H: np.ndarray, b: int, m: float, gap0: float, tau: int
) -> np.ndarray:
    """Expected-gap envelope gap0 * (1 - m/(2 L_eff))^t for t = 0..tau."""
    factor = theorem_rate(H, b, m)
    return gap0 * factor ** np.arange(tau + 1)


def classical_bound(
    H: np.ndarray, b: int, m: float, gap0: float, tau: int, mode: str = "exact"
) -> np.ndarray:
    """Gap envelope from the classical analysis: per-step contraction
    (1 - b m / (d L_max_b))."""
    H = np.asarray(H, dtype=np.float64)
    d = H.shape[0]
    est = l_max_b(H, b, mode=mode)
    rate = b * m / (d * est.value)
    if not 0.0 < rate <= 1.0:
        raise InvalidRateError(f"b m/(d L_max_b) = {rate} outside (0, 1]")
    return gap0 * (1.0 - rate) ** np.arange(tau + 1)


# ---------------------------------------------------------------------------
# empirical block coordinate descent on quadratics


def _bcd_gaps(
    prob: QuadraticProblem, b: int, tau: int, rng, stop: float | None = None
) -> np.ndarray:
    """One seeded run: exact block minimization with I_t drawn uniformly
    without replacement at every step, starting from w = 0.

    Returns the gaps for t = 0..tau, or, given ``stop``, the gaps up to the
    first step whose gap is <= stop.
    """
    d = prob.dim
    H, g = prob.H, prob.g
    w = np.zeros(d)
    hw = np.zeros(d)  # H @ w, maintained
    gaps = np.empty(tau + 1)
    gaps[0] = 0.0 - prob.f_star
    for t in range(1, tau + 1):
        idx = rng.choice(d, size=b, replace=False)
        sub = H[np.ix_(idx, idx)]
        rhs = g[idx] - hw[idx] + sub @ w[idx]
        new = spd_solve(sub, rhs[:, None])[:, 0]
        delta = new - w[idx]
        hw += H[:, idx] @ delta
        w[idx] = new
        gaps[t] = 0.5 * float(w @ hw) - float(g @ w) - prob.f_star
        if stop is not None and gaps[t] <= stop:
            return gaps[: t + 1]
    return gaps


def run_bcd_quadratic(
    prob: QuadraticProblem, b: int, seeds: int, tau: int, base_seed: int = 0
) -> np.ndarray:
    """Mean optimality-gap sequence over seeded runs (length tau + 1).

    Seeds are reduced by stable summation in seed order, so the output is
    reproducible for a fixed (prob, b, seeds, tau, base_seed).
    """
    total = np.zeros(tau + 1)
    for s in range(seeds):
        rng = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(s,)))
        total += _bcd_gaps(prob, b, tau, rng)
    return total / seeds


def bcd_iterations_to_tolerance(
    prob: QuadraticProblem,
    b: int,
    rel_tol: float,
    seeds: int,
    max_iters: int,
    base_seed: int = 0,
) -> np.ndarray:
    """Per-seed step counts until gap <= rel_tol * gap(0); max_iters if never."""
    target = rel_tol * (0.0 - prob.f_star)
    counts = np.empty(seeds, dtype=np.int64)
    for s in range(seeds):
        rng = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(s,)))
        counts[s] = len(_bcd_gaps(prob, b, max_iters, rng, stop=target)) - 1
    return counts


def adversarial_hessian(d: int, lam: float) -> np.ndarray:
    """lam*I_d plus a block diagonal of sqrt(d) x sqrt(d) all-ones blocks.

    Spectrum: lam + sqrt(d) (once per block) and lam.  At block size
    b = sqrt(d) this is the tight case for the restricted constant:
    L_max_b = lam + sqrt(d), while a typical block straddles the all-ones
    blocks and sees a far smaller curvature.
    """
    q = math.isqrt(d)
    if q * q != d:
        raise NotPerfectSquareError(f"d = {d} is not a perfect square")
    return lam * np.eye(d) + np.kron(np.eye(q), np.ones((q, q)))


# ---------------------------------------------------------------------------
# Monte-Carlo concentration checks


def monte_carlo_slack(delta: float, trials: int) -> float:
    """Three-sigma binomial allowance added to delta."""
    return 3.0 * math.sqrt(delta / trials)


def chernoff_violation_rate(
    A: np.ndarray, b: int, delta: float, trials: int, seed: int = 0
) -> float:
    """Empirical frequency of the Chernoff upper-tail event.

    For I a uniform size-b subset of the columns of A (n x p), the event is

        lambda_max(A_I^T A_I) >= e^2 (b/p) lambda_max(A^T A)
                                 + max_i (A^T A)_ii * log(n / delta),

    which holds with probability at most delta.  Returns the observed
    frequency; callers compare it against delta + monte_carlo_slack.
    """
    A = np.asarray(A, dtype=np.float64)
    n, p = A.shape
    if not 1 <= b <= p:
        raise ConfigError(f"block size must lie in [1, {p}]")
    if not 0 < delta <= 1:
        raise ConfigError("delta must lie in (0, 1]")
    G = A.T @ A
    threshold = (
        math.e**2 * (b / p) * float(np.linalg.eigvalsh(G)[-1])
        + float(np.diag(G).max()) * math.log(n / delta)
    )
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(trials):
        idx = rng.choice(p, size=b, replace=False)
        top = float(np.linalg.eigvalsh(G[np.ix_(idx, idx)])[-1])
        if top >= threshold:
            hits += 1
    return hits / trials


def bernstein_lower_rate(
    psi: np.ndarray, p: int, delta: float, trials: int, seed: int = 0
) -> float:
    """Empirical frequency of the Bernstein lower-tail event.

    For S the selector of p uniform without-replacement columns of
    psi (n x m), the event is

        lambda_max(psi S S^T psi^T) < (p/m) lambda_max(psi psi^T)
            - (4/3) (lambda_max / m) log(n / delta)
            - sqrt((8 p / m) lambda_max * B * log(n / delta)),

    with B the largest squared column norm; it holds with probability at
    most delta.
    """
    psi = np.asarray(psi, dtype=np.float64)
    n, m = psi.shape
    if not 1 <= p <= m:
        raise ConfigError(f"sketch size must lie in [1, {m}]")
    if not 0 < delta <= 1:
        raise ConfigError("delta must lie in (0, 1]")
    G = psi.T @ psi
    lmax = float(np.linalg.eigvalsh(G)[-1])  # = lambda_max(psi psi^T)
    col_b = float(np.diag(G).max())
    log_term = math.log(n / delta)
    threshold = (
        (p / m) * lmax
        - (4.0 / 3.0) * (lmax / m) * log_term
        - math.sqrt((8.0 * p / m) * lmax * col_b * log_term)
    )
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(trials):
        idx = rng.choice(m, size=p, replace=False)
        top = float(np.linalg.eigvalsh(G[np.ix_(idx, idx)])[-1])
        if top < threshold:
            hits += 1
    return hits / trials


def rf_required_features(
    X: np.ndarray, sigma: float, alpha: float, delta: float
) -> int:
    """Feature count the operator-norm lemma demands:
    p >= (2/alpha)(1/alpha + 2/3) (n B^2 / ||K||) log(2n / delta),
    with B = sqrt(2) for cosine features."""
    if not 0 < alpha < 1:
        raise ConfigError("alpha must lie in (0, 1)")
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    K = kernel_cross(X, X, KernelSpec("rbf", sigma))
    norm_k = float(np.linalg.eigvalsh(K)[-1])
    need = (
        (2.0 / alpha)
        * (1.0 / alpha + 2.0 / 3.0)
        * (n * COSINE_FEATURE_BOUND**2 / norm_k)
        * math.log(2.0 * n / delta)
    )
    return int(math.ceil(need))


class RfConcentrationResult(NamedTuple):
    violation_rate: float
    allowed: float
    required_p: int
    norm_k: float
    passed: bool


def rf_concentration_check(
    spec: FeatureMapSpec,
    X: np.ndarray,
    alpha: float,
    delta: float,
    trials: int,
    base_seed: int = 0,
) -> RfConcentrationResult:
    """Two-sided operator-norm check for random cosine feature matrices.

    Over independent feature draws, counts how often ||Z Z^T|| leaves
    [(1 - alpha) ||K||, (1 + alpha) ||K||].  The lemma promises frequency
    at most delta once p clears ``rf_required_features``; a smaller p
    raises ThresholdNotMetError (callers should skip, not fail).
    """
    if not 0 < delta <= 1:
        raise ConfigError("delta must lie in (0, 1]")
    X = np.asarray(X, dtype=np.float64)
    required = rf_required_features(X, spec.sigma, alpha, delta)
    if spec.p < required:
        raise ThresholdNotMetError(
            f"p = {spec.p} below the lemma requirement {required}"
        )
    n = X.shape[0]
    K = kernel_cross(X, X, KernelSpec("rbf", spec.sigma))
    norm_k = float(np.linalg.eigvalsh(K)[-1])
    lo, hi = (1.0 - alpha) * norm_k, (1.0 + alpha) * norm_k
    hits = 0
    cols = np.arange(spec.p)
    for t in range(trials):
        draw = FeatureMapSpec(
            p=spec.p, sigma=spec.sigma, master_seed=base_seed + t
        )
        z = random_features_block(X, cols, draw)
        top = float(np.linalg.eigvalsh(z @ z.T)[-1])
        if not lo <= top <= hi:
            hits += 1
    rate = hits / trials
    allowed = delta + monte_carlo_slack(delta, trials)
    return RfConcentrationResult(rate, allowed, required, norm_k, rate <= allowed)


# ---------------------------------------------------------------------------
# spectrum regimes


@dataclass(frozen=True)
class RegimeSummary:
    """Order-of-magnitude iteration/block-size entries, constants set to 1.

    Only growth rates across n are meaningful; never compare these
    absolutely against measured counts.
    """

    method: str
    lambda_minimax: float
    iterations: float
    block_size: float
    asymptotic: bool = True


def table1_regime(
    model: SpectrumModel,
    method: str,
    gamma: float | None = None,
    p: int | None = None,
) -> RegimeSummary:
    """Minimax lambda plus the iteration/block-size orders for a method.

    exponential decay, lambda = log(n)/n:
        full    iters n              block log^2 n
        nystrom iters n p / gamma    block (1 + gamma) log n
        rf      iters n              block log n
    polynomial decay (exponent beta), lambda = n^(-2 beta / (2 beta + 1)):
        full    iters n^(2b/(2b+1))           block n^(1/(2b+1)) log n
        nystrom iters p n^(2b/(2b+1)) / gamma block (1 + gamma) log n
        rf      iters n^(2b/(2b+1))           block log n
    """
    if method not in ("full", "nystrom", "rf"):
        raise ConfigError(f"unknown method {method!r}")
    n = model.n
    log_n = math.log(n)
    if model.decay == "exponential":
        lam = log_n / n
        base_iters = float(n)
    else:
        beta = model.rate
        expo = 2.0 * beta / (2.0 * beta + 1.0)
        lam = n**-expo
        base_iters = float(n**expo)
    if method == "full":
        if model.decay == "exponential":
            block = log_n**2
        else:
            block = n ** (1.0 / (2.0 * model.rate + 1.0)) * log_n
        return RegimeSummary("full", lam, base_iters, block)
    if method == "nystrom":
        if gamma is None or not gamma > 0:
            raise ConfigError("nystrom regime needs gamma > 0")
        if p is None:
            raise ConfigError("nystrom regime needs the landmark count p")
        return RegimeSummary(
            "nystrom", lam, p * base_iters / gamma, (1.0 + gamma) * log_n
        )
    return RegimeSummary("rf", lam, base_iters, log_n)


def synthetic_spectrum_kernel(model: SpectrumModel, seed: int = 0) -> np.ndarray:
    """PSD matrix with eigenvalues n * mu_l and a seeded Haar eigenbasis."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x5A5,)))
    raw = rng.standard_normal((model.n, model.n))
    q, r = np.linalg.qr(raw)
    q = q * np.sign(np.diag(r))
    vals = model.eigenvalues()
    K = (q * vals) @ q.T
    return (K + K.T) * 0.5


class ConditioningPair(NamedTuple):
    nystrom: float
    rf: float


def conditioning_compare(
    data: Dataset,
    kspec: KernelSpec,
    fspec: FeatureMapSpec,
    p: int,
    lam: float,
    gamma: float,
    landmark_seed: int = 0,
    iters: int = 20000,
) -> ConditioningPair:
    """Condition numbers of the two p x p block systems at matched p:
    (K_J^T K_J + n lam K_JJ + n lam gamma I)  vs  (Z^T Z + n lam I).
    """
    if fspec.p != p:
        raise ConfigError("feature spec must carry the same p")
    n = data.n
    lam_eff = n * lam
    landmarks = draw_landmarks(n, p, landmark_seed)
    kj = kernel_cross(data.X, data.X[landmarks], kspec)
    kjj = kj[landmarks]
    m_ny = kj.T @ kj + lam_eff * kjj + lam_eff * gamma * np.eye(p)
    m_ny = (m_ny + m_ny.T) * 0.5
    z = random_features_block(data.X, np.arange(p), fspec)
    m_rf = z.T @ z + lam_eff * np.eye(p)
    m_rf = (m_rf + m_rf.T) * 0.5
    est_ny = lambda_extremes(m_ny, iters=iters)
    est_rf = lambda_extremes(m_rf, iters=iters)
    return ConditioningPair(
        nystrom=est_ny.lmax / est_ny.lmin, rf=est_rf.lmax / est_rf.lmin
    )
