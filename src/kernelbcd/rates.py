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
expectation bound is stated for; the solvers instead sweep a fresh random
partition each epoch, which the bound does not cover.

The seeded runs of an ensemble step together: seed s draws its subsets from
its own generator, SeedSequence(base_seed, spawn_key=(s,)), and a step of
every run is one stacked gather, one stacked SPD solve and one stacked
update.  Every random subset, a run's blocks or a Chernoff or Bernstein
trial's, is the indices of the b smallest of d uniform keys, drawn in bulk
by ``_choices`` a chunk of steps or trials at a time: one
``Generator.random((calls, d))`` call gives byte for byte the keys of
``calls`` consecutive ``random(d)`` calls, so the subsets are those of a
loop that draws one at a time.  The random-feature trials are drawn a chunk
at a time as well, by one ``random_features_stack`` call, each trial byte
for byte its own ``random_features_block``.  The subset families behind
``l_max_b`` and the Monte-Carlo checks go through one stacked ``eigvalsh``
per chunk, so their lambda_max values are byte-equal to a per-subset loop.
The thresholds' single-matrix tops, the lambda_max of A^T A, psi^T psi and
the kernel matrix of X, come from ``lambda_extremes``, which refuses a
matrix that is not finite, and ``l_max_b`` refuses the same H through the
same check (``checked_symmetric``).  The stacked solve is ``spd_solve``,
the solvers' one: it refuses a block that is not symmetric within tolerance
or whose Cholesky pivots are not positive to working precision
(``NotSpdError``), and solves by LU, not Cholesky, so mean gaps agree with
a per-seed loop to rounding (within 1e-14 of the first gap in the tests),
and a run's gaps do not depend on how many runs step with it.  Chunks of at
most ``_STACK_WORDS`` words (``_DRAW_WORDS`` for the feature trials) bound
the memory whatever the seed, step, subset or trial count.

Natural log throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import NamedTuple

import numpy as np

from .errors import (
    CombinatorialBlowupError,
    ConfigError,
    DivergenceError,
    InvalidRateError,
    NotPerfectSquareError,
    ThresholdNotMetError,
    check_count,
    check_delta,
    check_level,
    check_matrix,
    check_real,
    check_size,
)
from .kernels import (
    _DRAW_WORDS,
    Dataset,
    FeatureMapSpec,
    KernelSpec,
    kernel_cross,
    random_features_stack,
)
from .linalg import (
    _raise_if_not_finite,
    checked_symmetric,
    lambda_extremes,
    spd_solve,
    sum_in_order,
)
from .solvers import _expect_spec, system_matrix, template_model

# The lab's features come from random_features_stack and the solvers' column
# map.  random_features_block stays bound here because perfbench/tracing.py
# rebinds it in this module's namespace.
from .kernels import random_features_block  # noqa: F401

EXACT_SUBSET_CAP = 10**6

COSINE_FEATURE_BOUND = math.sqrt(2.0)  # sup |sqrt(2) cos(.)|

# Float64 words a stacked call holds per chunk: the b x d column gathers of
# the runs stepping together, the blocks of one eigvalsh, or the keys of a
# chunk of subset draws.  It bounds the memory however many seeds or
# subsets a check asks for.
_STACK_WORDS = 1 << 13


# ---------------------------------------------------------------------------
# uniform subsets, drawn in bulk


def _choices(rngs: list, d: int, size: int, count: int):
    """Yield ``count`` arrays of shape (len(rngs), size): row i of the c-th
    holds, in ascending order, the indices of the ``size`` smallest of the d
    keys that the c-th of ``count`` consecutive ``rngs[i].random(d)`` calls
    returns.  The keys are independent and uniform, so every size-``size``
    subset of range(d) is equally likely (up to ties among the 53-bit keys,
    which come with probability below d**2 / 2**54).

    Calls are drawn in chunks of at most ``_STACK_WORDS`` keys over all the
    runs (one call per chunk where a call alone needs more), one
    ``rng.random((calls, d))`` per generator, which returns exactly the keys
    of ``calls`` consecutive ``random(d)`` calls.  So a chunk's subsets do
    not depend on the chunk size or on the other generators, and a caller
    that stops early draws and holds no more than one chunk past its stop.
    """
    steps = max(1, _STACK_WORDS // (len(rngs) * d))
    for first in range(0, count, steps):
        calls = min(steps, count - first)
        keys = np.stack([rng.random((calls, d)) for rng in rngs], axis=1)
        yield from np.sort(np.argpartition(keys, size - 1)[..., :size])


# ---------------------------------------------------------------------------
# problem containers


@dataclass
class QuadraticProblem:
    """f(w) = 0.5 w^T H w - g^T w with SPD Hessian H; ``f_star`` is its
    minimum, always computed from H and g."""

    H: np.ndarray
    g: np.ndarray
    f_star: float = field(init=False)

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=np.float64)
        self.g = np.asarray(self.g, dtype=np.float64)
        if self.H.ndim != 2 or self.H.shape[0] != self.H.shape[1]:
            raise ConfigError("H must be square")
        if self.g.shape != (self.H.shape[0],):
            raise ConfigError("g must be a vector matching H")
        w_star = spd_solve(self.H, self.g[:, None])[:, 0]
        self.f_star = float(0.5 * w_star @ self.H @ w_star - self.g @ w_star)

    @property
    def dim(self) -> int:
        return self.H.shape[0]


# ---------------------------------------------------------------------------
# Lipschitz constants and iteration bounds


def l_eff(H: np.ndarray, b: int) -> float:
    """Effective smoothness e^2 L + (d log(2 d^2 / b) / b) * max_i H_ii."""
    H = np.asarray(H, dtype=np.float64)
    d = H.shape[0]
    b = check_size("block size", b, d)
    lmax = lambda_extremes(H).lmax
    return float(
        math.e**2 * lmax + (d * math.log(2.0 * d * d / b) / b) * np.diag(H).max()
    )


def check_subset_cap(d: int, b: int) -> None:
    """Raise CombinatorialBlowupError if C(d, b) exceeds EXACT_SUBSET_CAP,
    and ConfigError if b is not an integer in [1, d].  The count grows one
    factor at a time and stops once past the cap, so a huge d costs
    nothing."""
    b = check_size("block size", b, d)
    count = 1
    for i in range(min(b, d - b)):
        count = count * (d - i) // (i + 1)  # C(d, i + 1), exactly
        if count > EXACT_SUBSET_CAP:
            raise CombinatorialBlowupError(
                f"C({d},{b}) subsets exceed the {EXACT_SUBSET_CAP} cap"
            )


def l_max_b(H: np.ndarray, b: int) -> float:
    """Largest lambda_max over every size-b principal submatrix of H.

    Exact, by enumeration of all C(d, b) subsets; more than 1e6 subsets
    raise CombinatorialBlowupError, and a b that is not an integer in
    [1, d] ConfigError (both ``check_subset_cap``).  An H that is
    not symmetric within tolerance, or not finite, raises
    ``DimensionMismatchError``, as in ``lambda_extremes``.
    """
    H = np.asarray(H, dtype=np.float64)
    d = H.shape[0]
    check_subset_cap(d, b)
    checked_symmetric(H)
    return float(max(top.max() for top in _tops(H, combinations(range(d), b), b)))


def standard_rate_iters(H: np.ndarray, b: int, m: float, eps: float) -> float:
    """Classical iteration count (d L_max_b / (b m)) log(1/eps), constant 1,
    for a target accuracy eps in (0, 1), with the exact ``l_max_b``."""
    check_real("m", m)
    check_real("eps", eps)
    if not m > 0:
        raise ConfigError("strong convexity constant m must be positive")
    if not 0 < eps < 1:
        raise ConfigError(f"accuracy eps must lie in (0, 1), got {eps!r}")
    return float(np.shape(H)[0] * l_max_b(H, b) / (b * m) * math.log(1.0 / eps))


def theorem_rate(H: np.ndarray, b: int, m: float) -> float:
    """Per-step contraction factor 1 - m / (2 L_eff)."""
    check_real("m", m)
    rate = m / (2.0 * l_eff(H, b))
    if not 0.0 < rate <= 1.0:
        raise InvalidRateError(f"m/(2 L_eff) = {rate} outside (0, 1]")
    return 1.0 - rate


def improved_bound(
    H: np.ndarray, b: int, m: float, gap0: float, tau: int
) -> np.ndarray:
    """Expected-gap envelope gap0 * (1 - m/(2 L_eff))^t for t = 0..tau."""
    tau = check_count("tau", tau)
    check_level("gap0", gap0)
    factor = theorem_rate(H, b, m)
    return gap0 * factor ** np.arange(tau + 1)


def classical_bound(
    H: np.ndarray, b: int, m: float, gap0: float, tau: int
) -> np.ndarray:
    """Gap envelope from the classical analysis: per-step contraction
    (1 - b m / (d L_max_b)), with the exact ``l_max_b``."""
    tau = check_count("tau", tau)
    check_level("gap0", gap0)
    check_real("m", m)
    rate = b * m / (np.shape(H)[0] * l_max_b(H, b))
    if not 0.0 < rate <= 1.0:
        raise InvalidRateError(f"b m/(d L_max_b) = {rate} outside (0, 1]")
    return gap0 * (1.0 - rate) ** np.arange(tau + 1)


# ---------------------------------------------------------------------------
# empirical block coordinate descent on quadratics


def _seed_chunks(prob: QuadraticProblem, b: int, seeds: int, base_seed: int):
    """The generator of each seeded run s, SeedSequence(base_seed, spawn_key=(s,)),
    in seed order, as lists of at most ``_STACK_WORDS // (b * dim)`` runs:
    the runs of one list step together.  ``b``, ``seeds`` and ``base_seed``
    are checked by the call, before any run is drawn."""
    b, seeds = check_size("block size", b, prob.dim), check_size("seeds", seeds)
    base_seed = check_count("base seed", base_seed)
    per = max(1, _STACK_WORDS // (b * prob.dim))
    return (
        [
            np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(s,)))
            for s in range(first, min(first + per, seeds))
        ]
        for first in range(0, seeds, per)
    )


def _ensemble_gaps(prob: QuadraticProblem, b: int, rngs: list, tau: int):
    """Seeded runs stepping together: exact block minimization from w = 0,
    each run drawing I_t uniformly without replacement from its own
    generator at every step.  The blocks come from ``_choices``, a chunk of
    steps of every run at a time, so a caller that stops early has drawn at
    most one chunk past its last step.

    Yields the vector of the runs' gaps at t = 0..tau.  A step is one
    stacked gather of the b x b blocks, one stacked ``spd_solve`` and one
    stacked update of w and H w.  An H or g that is not finite, or a
    solution that is not, raises ``DivergenceError``; a block that
    ``spd_solve`` refuses, not symmetric within tolerance or not positive
    definite to working precision, raises ``NotSpdError``.  (H and g are
    checked here because ``QuadraticProblem`` checked them only when it was
    built.)
    """
    H, g, d = prob.H, prob.g, prob.dim
    _raise_if_not_finite(H=H, g=g)
    runs = np.arange(len(rngs))[:, None]
    w = np.zeros((len(rngs), d))
    hw = np.zeros((len(rngs), d))  # H @ w of each run, maintained
    yield np.full(len(rngs), 0.0 - prob.f_star)
    for idx in _choices(rngs, d, b, tau):
        sub = H[idx[:, :, None], idx[:, None, :]]
        old = w[runs, idx]
        rhs = g[idx] - hw[runs, idx] + (sub @ old[:, :, None])[:, :, 0]
        new = spd_solve(sub, rhs[:, :, None])[:, :, 0]
        if not np.isfinite(new).all():
            raise DivergenceError("a block solve has non-finite entries")
        hw += (H[:, idx].transpose(1, 0, 2) @ (new - old)[:, :, None])[:, :, 0]
        w[runs, idx] = new
        # one dot per run, (1 x d) @ (d x 1), so a run's gap does not depend
        # on how many runs step with it
        wt = w[:, None, :]
        gaps = 0.5 * (wt @ hw[:, :, None]) - wt @ g[:, None]
        yield gaps[:, 0, 0] - prob.f_star


def run_bcd_quadratic(
    prob: QuadraticProblem, b: int, seeds: int, tau: int, base_seed: int = 0
) -> np.ndarray:
    """Mean optimality-gap sequence over seeded runs (length tau + 1).

    Each step's gaps are summed in seed order, one addition at a time
    (``sum_in_order``), so the output is reproducible for a fixed
    (prob, b, seeds, tau, base_seed).
    """
    tau = check_count("tau", tau)
    chunks = _seed_chunks(prob, b, seeds, base_seed)
    total = np.zeros(tau + 1)
    for rngs in chunks:
        for t, gaps in enumerate(_ensemble_gaps(prob, b, rngs, tau)):
            total[t] = sum_in_order([float(total[t]), *gaps.tolist()])
    return total / seeds


def bcd_iterations_to_tolerance(
    prob: QuadraticProblem,
    b: int,
    rel_tol: float,
    seeds: int,
    max_iters: int,
    base_seed: int = 0,
) -> np.ndarray:
    """Per-seed step counts until gap <= rel_tol * gap(0); max_iters if never.
    The seeds are those of ``run_bcd_quadratic``, with tau = max_iters; the
    runs stop stepping once every one of them has met the target."""
    max_iters = check_count("max_iters", max_iters)
    check_level("rel_tol", rel_tol)
    target = rel_tol * (0.0 - prob.f_star)
    counts = []
    for rngs in _seed_chunks(prob, b, seeds, base_seed):
        first = np.full(len(rngs), max_iters, dtype=np.int64)
        running = np.ones(len(rngs), dtype=bool)
        steps = enumerate(_ensemble_gaps(prob, b, rngs, max_iters))
        next(steps)  # the gap at t = 0 is never a stop
        for t, gaps in steps:
            met = running & (gaps <= target)
            first[met] = t
            running &= ~met
            if not running.any():
                break
        counts.append(first)
    return np.concatenate(counts)


def adversarial_hessian(d: int, lam: float) -> np.ndarray:
    """lam*I_d plus a block diagonal of sqrt(d) x sqrt(d) all-ones blocks.

    Spectrum: lam + sqrt(d) (once per block) and lam.  At block size
    b = sqrt(d) this is the tight case for the restricted constant:
    L_max_b = lam + sqrt(d), while a typical block straddles the all-ones
    blocks and sees a far smaller curvature.
    """
    check_real("lam", lam)
    q = math.isqrt(check_count("dimension", d))
    if q * q != d:
        raise NotPerfectSquareError(f"d = {d} is not a perfect square")
    return lam * np.eye(d) + np.kron(np.eye(q), np.ones((q, q)))


# ---------------------------------------------------------------------------
# Monte-Carlo concentration checks


def monte_carlo_slack(delta: float, trials: int) -> float:
    """Three-sigma binomial allowance added to delta."""
    check_delta("delta", delta)
    return 3.0 * math.sqrt(delta / check_size("trials", trials))


def _subsets(d: int, size: int, trials: int, seed: int):
    """``trials`` uniform without-replacement size-``size`` subsets of
    range(d), those ``_choices`` draws from ``default_rng(seed)``: the
    smallest ``size`` keys of ``trials`` consecutive ``random(d)`` calls."""
    trials = check_size("trials", trials)
    rng = np.random.default_rng(check_count("seed", seed))
    return (draw[0] for draw in _choices([rng], d, size, trials))


def _tops(G: np.ndarray, subsets, size: int):
    """lambda_max of each principal submatrix G(s, s) of size ``size``: one
    array per chunk of at most ``_STACK_WORDS // size**2`` subsets, from one
    stacked ``eigvalsh``."""
    subsets = iter(subsets)
    per = max(1, _STACK_WORDS // (size * size))
    while chunk := list(islice(subsets, per)):
        idx = np.array(chunk)
        yield np.linalg.eigvalsh(G[idx[:, :, None], idx[:, None, :]])[:, -1]


def chernoff_violation_rate(
    A: np.ndarray, b: int, delta: float, trials: int, seed: int = 0
) -> float:
    """Empirical frequency of the Chernoff upper-tail event.

    For I a uniform size-b subset of the columns of A (n x p), the event is

        lambda_max(A_I^T A_I) >= e^2 (b/p) lambda_max(A^T A)
                                 + max_i (A^T A)_ii * log(n / delta),

    which holds with probability at most delta.  Returns the observed
    frequency; callers compare it against delta + monte_carlo_slack.
    lambda_max(A^T A) comes from ``lambda_extremes``, so an A that is not
    finite raises ``DimensionMismatchError``.
    """
    A = check_matrix("A", A)
    n, p = A.shape
    b = check_size("block size", b, p)
    check_delta("delta", delta)
    G = A.T @ A
    threshold = (
        math.e**2 * (b / p) * lambda_extremes(G).lmax
        + float(np.diag(G).max()) * math.log(n / delta)
    )
    tops = _tops(G, _subsets(p, b, trials, seed), b)
    hits = sum(int(np.count_nonzero(top >= threshold)) for top in tops)
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
    most delta.  lambda_max(psi psi^T) comes from ``lambda_extremes``, so a
    psi that is not finite raises ``DimensionMismatchError``.
    """
    psi = check_matrix("psi", psi)
    n, m = psi.shape
    p = check_size("sketch size", p, m)
    check_delta("delta", delta)
    G = psi.T @ psi
    lmax = lambda_extremes(G).lmax  # = lambda_max(psi psi^T)
    col_b = float(np.diag(G).max())
    log_term = math.log(n / delta)
    threshold = (
        (p / m) * lmax
        - (4.0 / 3.0) * (lmax / m) * log_term
        - math.sqrt((8.0 * p / m) * lmax * col_b * log_term)
    )
    tops = _tops(G, _subsets(m, p, trials, seed), p)
    hits = sum(int(np.count_nonzero(top < threshold)) for top in tops)
    return hits / trials


def rf_required_features(
    X: np.ndarray, sigma: float, alpha: float, delta: float
) -> int:
    """Feature count the operator-norm lemma demands:
    p >= (2/alpha)(1/alpha + 2/3) (n B^2 / ||K||) log(2n / delta),
    with B = sqrt(2) for cosine features.  ||K|| comes from
    ``lambda_extremes``, so an X that is not finite raises
    ``DimensionMismatchError``."""
    return _rf_requirement(X, sigma, alpha, delta)[0]


def _rf_requirement(
    X: np.ndarray, sigma: float, alpha: float, delta: float
) -> tuple[int, float]:
    """``rf_required_features`` and the ||K|| it is computed from."""
    check_delta("delta", delta)
    check_real("alpha", alpha)
    if not 0 < alpha < 1:
        raise ConfigError("alpha must lie in (0, 1)")
    X = check_matrix("X", X)
    n = X.shape[0]
    K = kernel_cross(X, X, KernelSpec("rbf", sigma))
    norm_k = lambda_extremes(K).lmax
    need = (
        (2.0 / alpha)
        * (1.0 / alpha + 2.0 / 3.0)
        * (n * COSINE_FEATURE_BOUND**2 / norm_k)
        * math.log(2.0 * n / delta)
    )
    return int(math.ceil(need)), norm_k


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

    Trial t draws Z from master seed ``base_seed + t``.  The trials come in
    chunks of at most ``_DRAW_WORDS`` entries of Z: one
    ``random_features_stack`` call draws a chunk's features, each trial
    keeps its own ``z @ z.T``, and one stacked ``eigvalsh`` gives the
    norms, so every norm is byte for byte that of a loop over
    ``random_features_block`` one trial at a time.
    """
    X = check_matrix("X", X)
    base_seed = check_count("base seed", base_seed)
    required, norm_k = _rf_requirement(X, spec.sigma, alpha, delta)
    if spec.p < required:
        raise ThresholdNotMetError(
            f"p = {spec.p} below the lemma requirement {required}"
        )
    allowed = delta + monte_carlo_slack(delta, trials)
    lo, hi = (1.0 - alpha) * norm_k, (1.0 + alpha) * norm_k
    hits = 0
    cols = np.arange(spec.p)
    per = max(1, _DRAW_WORDS // (spec.p * X.shape[0]))
    for first in range(0, trials, per):
        seeds = range(base_seed + first, base_seed + min(first + per, trials))
        z = random_features_stack(X, cols, spec, seeds)
        grams = np.stack([zt @ zt.T for zt in z.transpose(1, 0, 2)])
        tops = np.linalg.eigvalsh(grams)[:, -1]
        hits += int(np.count_nonzero(~((lo <= tops) & (tops <= hi))))
    rate = hits / trials
    return RfConcentrationResult(rate, allowed, required, norm_k, rate <= allowed)


# ---------------------------------------------------------------------------
# conditioning of the matched block systems


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
) -> ConditioningPair:
    """Exact condition numbers lmax / lmin (from ``lambda_extremes``) of
    the two p x p block systems at matched p:
    (K_J^T K_J + n lam K_JJ + n lam gamma I)  vs  (Z^T Z + n lam I),
    each the system a solve runs, read from the solvers' own
    (``system_matrix``) on the model ``template_model`` builds: nystrom on
    p landmark rows drawn with ``landmark_seed``, and rf.  A system whose
    smallest eigenvalue is not positive is singular to working precision,
    and its condition number is ``math.inf``.  ``lam``, ``gamma`` and
    ``data`` must pass the dense diagnostics' rules
    (``normal_equation_residual``); in particular an n lam or n lam gamma
    that overflows raises ``ConfigError``, and so does a ``kspec`` that is
    not a ``KernelSpec`` or an ``fspec`` that is not a ``FeatureMapSpec``.
    """
    _expect_spec(kspec, KernelSpec)
    _expect_spec(fspec, FeatureMapSpec)
    if fspec.p != p:
        raise ConfigError("feature spec must carry the same p")
    conds = []
    for model in (template_model(data, kspec, p, gamma, landmark_seed),
                  template_model(data, fspec)):
        est = lambda_extremes(system_matrix(model, data, lam, gamma))
        conds.append(est.lmax / est.lmin if est.lmin > 0 else math.inf)
    return ConditioningPair(*conds)
