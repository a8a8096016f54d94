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

The seeded runs of an ensemble step together, those of every problem of a
list at once: seed s of problem q draws its subsets from its own generator,
SeedSequence(base_seed + q, spawn_key=(s,)), each run carries its problem's
H, g and f*, and a step of every run is one stacked gather, one stacked SPD
solve and one stacked update.  Every random subset, a run's blocks or a
Chernoff or Bernstein trial's, is the indices of the b smallest of d uniform
keys, drawn in bulk by ``_choices`` a chunk of steps or trials at a time: one
``Generator.random((calls, d))`` call gives byte for byte the keys of
``calls`` consecutive ``random(d)`` calls, so the subsets are those of a
loop that draws one at a time.  The random-feature trials are drawn a chunk
at a time as well, by one ``random_features_stack`` call, each trial byte
for byte its own ``random_features_block``.  The subsets behind ``l_max_b``
go through one stacked ``eigvalsh`` per chunk, so their lambda_max values
are byte-equal to a per-subset loop.  A Monte-Carlo count gathers a chunk's
blocks the same way and eigendecomposes only the blocks that a cheap bound
leaves undecided (lambda_max <= ||S||_F for the Chernoff upper tail,
lambda_max >= max_i S_ii for the Bernstein lower tail, each with a margin
past ``eigvalsh``'s backward error), so its hit count is that of the
per-subset loop.  The thresholds' single-matrix tops, the lambda_max of
A^T A, psi^T psi and the kernel matrix of X, come from ``lambda_extremes``,
which refuses a matrix that is not finite, and ``l_max_b`` refuses the same
H through the same check (``checked_symmetric``).  The stacked solve is
``spd_solve``, the solvers' one: it refuses a block that is not symmetric
within tolerance or whose Cholesky pivots are not positive to working
precision (``NotSpdError``), and solves by LU, not Cholesky, so mean gaps
agree with a per-seed loop to rounding (within 1e-14 of the first gap in
the tests), and a run's gaps do not depend on how many runs, or which problems, step
with it.  Chunks of at most ``_STACK_WORDS`` words (``_DRAW_WORDS`` for the
feature trials) bound the memory whatever the problem, seed, step, subset or
trial count.

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

# The relative margin by which a Monte-Carlo block's cheap bound must clear
# the threshold to decide the block, and the smallest Frobenius norm the
# bound is trusted at; ``_hits`` derives both.
_SCREEN_MARGIN = 2.0**-20
_SCREEN_FLOOR = 2.0**-450


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


def _problems(prob) -> list:
    """``prob`` as a list of problems: itself alone, or the problems of a
    non-empty list of one dimension (``ConfigError`` otherwise)."""
    if isinstance(prob, QuadraticProblem):
        return [prob]
    probs = list(prob)
    if not probs or not all(isinstance(p, QuadraticProblem) for p in probs):
        raise ConfigError("expected a QuadraticProblem or a non-empty list of them")
    if any(p.dim != probs[0].dim for p in probs):
        raise ConfigError("the problems of one ensemble must share a dimension")
    return probs


def _seed_chunks(probs: list, b: int, seeds: int, base_seed: int):
    """The seeded runs of every problem, problem by problem and in seed
    order within one: run s of problem q draws from its own generator,
    SeedSequence(base_seed + q, spawn_key=(s,)).  Yields (which, rngs) for
    lists of at most ``_STACK_WORDS // (b * dim)`` runs, which may span
    problems: the runs of one list step together, and ``which[i]`` is the
    problem of ``rngs[i]``.  ``b``, ``seeds`` and ``base_seed`` are checked
    by the call, before any run is drawn."""
    b, seeds = check_size("block size", b, probs[0].dim), check_size("seeds", seeds)
    base_seed = check_count("base seed", base_seed)
    per = max(1, _STACK_WORDS // (b * probs[0].dim))
    runs = len(probs) * seeds
    return (
        (
            np.arange(first, min(first + per, runs)) // seeds,
            [
                np.random.default_rng(np.random.SeedSequence(
                    base_seed + r // seeds, spawn_key=(r % seeds,)
                ))
                for r in range(first, min(first + per, runs))
            ],
        )
        for first in range(0, runs, per)
    )


def _ensemble_gaps(probs: list, which: np.ndarray, b: int, rngs: list, tau: int):
    """Seeded runs stepping together: run i minimizes ``probs[which[i]]``
    exactly over a block from w = 0, drawing I_t uniformly without
    replacement from ``rngs[i]`` at every step.  The blocks come from
    ``_choices``, a chunk of steps of every run at a time, so a caller that
    stops early has drawn at most one chunk past its last step.

    Yields the vector of the runs' gaps at t = 0..tau.  A step is one
    stacked gather of the b x b blocks, each from its run's own H, one
    stacked ``spd_solve`` and one stacked update of w and H w.  An H or g
    that is not finite, or a solution that is not, raises
    ``DivergenceError``; a block that ``spd_solve`` refuses, not symmetric
    within tolerance or not positive definite to working precision, raises
    ``NotSpdError``.  (H and g are checked here because ``QuadraticProblem``
    checked them only when it was built.)
    """
    H = np.stack([p.H for p in probs])
    g = np.stack([p.g for p in probs])
    _raise_if_not_finite(H=H, g=g)
    f_star = np.array([p.f_star for p in probs])[which]
    g_runs = g[which][:, :, None]
    d = H.shape[1]
    # H^T, so that a run's d x b columns of H gather as b contiguous rows
    ht = H.transpose(0, 2, 1).copy()
    runs = np.arange(len(rngs))[:, None]
    w = np.zeros((len(rngs), d))
    hw = np.zeros((len(rngs), d))  # H @ w of each run, maintained
    yield 0.0 - f_star
    for idx in _choices(rngs, d, b, tau):
        sub = H[which[:, None, None], idx[:, :, None], idx[:, None, :]]
        old = w[runs, idx]
        rhs = g[which[:, None], idx] - hw[runs, idx] + (sub @ old[:, :, None])[:, :, 0]
        new = spd_solve(sub, rhs[:, :, None])[:, :, 0]
        if not np.isfinite(new).all():
            raise DivergenceError("a block solve has non-finite entries")
        # each run's columns H[:, I] in the column-major layout of the
        # one-problem gather H[:, idx], so that matmul takes the same path
        cols = ht[which[:, None], idx].transpose(0, 2, 1)
        hw += (cols @ (new - old)[:, :, None])[:, :, 0]
        w[runs, idx] = new
        # one dot per run, (1 x d) @ (d x 1), so a run's gap does not depend
        # on how many runs step with it
        wt = w[:, None, :]
        gaps = 0.5 * (wt @ hw[:, :, None]) - wt @ g_runs
        yield gaps[:, 0, 0] - f_star


def run_bcd_quadratic(
    prob: QuadraticProblem | list[QuadraticProblem],
    b: int,
    seeds: int,
    tau: int,
    base_seed: int = 0,
) -> np.ndarray:
    """Mean optimality-gap sequence over seeded runs (length tau + 1).

    ``prob`` is one ``QuadraticProblem``, or a list of problems of one
    dimension; a list gives one row per problem, problem q's runs drawn from
    base_seed + q, and each row is byte for byte the one-problem call at
    that base seed.  Every problem's runs step together, in chunks that may
    span problems.  Each step's gaps are summed per problem in seed order,
    one addition at a time (``sum_in_order``), so the output is reproducible
    for a fixed (prob, b, seeds, tau, base_seed).
    """
    tau = check_count("tau", tau)
    probs = _problems(prob)
    total = np.zeros((len(probs), tau + 1))
    for which, rngs in _seed_chunks(probs, b, seeds, base_seed):
        first = int(which[0])
        qs, starts = np.unique(which, return_index=True)
        steps = _ensemble_gaps(probs[first:qs[-1] + 1], which - first, b, rngs, tau)
        for t, gaps in enumerate(steps):
            for q, part in zip(qs.tolist(), np.split(gaps, starts[1:])):
                total[q, t] = sum_in_order([float(total[q, t]), *part.tolist()])
    mean = total / seeds
    return mean[0] if isinstance(prob, QuadraticProblem) else mean


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
    for which, rngs in _seed_chunks([prob], b, seeds, base_seed):
        first = np.full(len(rngs), max_iters, dtype=np.int64)
        running = np.ones(len(rngs), dtype=bool)
        steps = enumerate(_ensemble_gaps([prob], which, b, rngs, max_iters))
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


def _blocks(G: np.ndarray, subsets, size: int):
    """The principal submatrices G(s, s) of size ``size``, stacked: one
    array per chunk of at most ``_STACK_WORDS // size**2`` subsets."""
    subsets = iter(subsets)
    per = max(1, _STACK_WORDS // (size * size))
    while chunk := list(islice(subsets, per)):
        idx = np.array(chunk)
        yield G[idx[:, :, None], idx[:, None, :]]


def _tops(G: np.ndarray, subsets, size: int):
    """lambda_max of each principal submatrix G(s, s) of size ``size``: one
    array per chunk of ``_blocks``, from one stacked ``eigvalsh``."""
    return (np.linalg.eigvalsh(blocks)[:, -1] for blocks in _blocks(G, subsets, size))


def _hits(G: np.ndarray, subsets, size: int, threshold: float, upper: bool) -> int:
    """How many of the principal submatrices G(s, s) of size ``size`` have a
    lambda_max, as ``_tops`` computes it, at or above ``threshold``
    (``upper``) or below it (not ``upper``).

    A chunk's blocks are screened by a cheap bound first, and only the
    blocks it leaves undecided go to one stacked ``eigvalsh``, which gives
    each block's lambda_max byte for byte as ``_tops`` does.  A decided
    block is never a hit, so the count is that of ``_tops``.  The margin:
    let t be a k x k block S's top as ``eigvalsh`` computes it, F its
    Frobenius norm and F' = sqrt(sum of squares) as computed, u = 2**-53.
    ``eigvalsh`` is backward stable, so t is the top eigenvalue of S + E
    with ||E||_2 <= p(k) u ||S||_2 for a modest p(k), and by Weyl
    |t - lambda_max(S)| <= p(k) u F.  A sum of k*k non-negative squares
    and a square root lose at most (k*k + 2) u, so F <= F' (1 + (k*k + 2) u)
    when no square underflows or overflows.  For p(k) + k*k below 2**31
    (k up to 2**15), t lies within M F' / 2 of lambda_max(S), M = 2**-20,
    and the other M F' / 2 covers the rounding of the screen's own
    products and differences.  Then

    * upper tail, lambda_max(S) <= ||S||_2 <= F: a block with
      F' (1 + M) < threshold has t < threshold, no hit;
    * lower tail, lambda_max(S) >= max_i S_ii (the Rayleigh quotient of
      e_i): a block with max_i S_ii - M F' > threshold has t > threshold,
      no hit.

    A block whose F' is below 2**-450, where a square may have underflowed
    (the k*k squares lose at most k*k * 2**-1075 to gradual underflow, far
    below u F'**2 above that floor), or is infinite, or whose comparison
    reads NaN, is left undecided.
    """
    hits = 0
    for blocks in _blocks(G, subsets, size):
        with np.errstate(over="ignore"):
            fro = np.sqrt(np.einsum("ijk,ijk->i", blocks, blocks))
            if upper:
                decided = fro * (1.0 + _SCREEN_MARGIN) < threshold
            else:
                diag = np.diagonal(blocks, axis1=1, axis2=2).max(axis=1)
                decided = diag - _SCREEN_MARGIN * fro > threshold
        undecided = blocks[~(decided & (fro >= _SCREEN_FLOOR))]
        if len(undecided):
            tops = np.linalg.eigvalsh(undecided)[:, -1]
            hit = tops >= threshold if upper else tops < threshold
            hits += int(np.count_nonzero(hit))
    return hits


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
    return _hits(G, _subsets(p, b, trials, seed), b, threshold, upper=True) / trials


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
    return _hits(G, _subsets(m, p, trials, seed), p, threshold, upper=False) / trials


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
