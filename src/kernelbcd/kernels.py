"""Kernel evaluation and reproducible block generation.

The solvers never materialize the full kernel matrix K or feature matrix Z;
they ask this module for one column block at a time and may discard it after
the update.  A block is a pure function of its inputs: regenerated from the
same index list it is byte-equal within a build, in any epoch and whether
or not it was generated ahead.  That is what makes epoch-over-epoch
regeneration equivalent to storing Z.  A column
that two different blocks share agrees only to rounding: each block's
products are one GEMM, whose kernels depend on how many columns the block
has.  A random-feature entry is sqrt(2/p) cos(t), t = x . omega + b, with
the cosine taken in float32 of t reduced mod 2 pi in float64
(``_scaled_cos``): within 2**-22 sqrt(2/p) of the float64 formula, and a
shared column's rounding can reach 2**-21 sqrt(2/p).  Random-feature
columns are a pure function of
``(master_seed, column index)``: column m is numpy's public Philox stream
keyed by the seed, ``Philox(key=SeedSequence(master_seed).generate_state(2,
np.uint64), counter=[0, m, 0, 0])``, but a block draws all its columns in
one array pass (``_block_params``) rather than one generator per column,
and maps the uniforms to normals with a port of Cephes' ``ndtri``
(``_ndtri``).  Each column of the pass carries its own master seed's key,
so one pass also draws the blocks of several master seeds side by side
(``random_features_stack``, a Monte-Carlo ensemble of feature maps), and
``random_features_block`` on a bare spec is its one-seed case.  The pass
restates only what numpy does not vectorise: Philox itself
(``_philox4x64``).  A caller that makes many blocks of one spec, an rf
``Model``, draws every column once (``feature_draw``, (d + 1) p floats)
and hands the draw to ``random_features_block``, which gathers the
block's columns from it, byte for byte the columns it would draw.
"""

from __future__ import annotations

import csv
import locale
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataFormatError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    check_choice,
    check_count,
    check_integer,
    check_integer_array,
    check_matrix,
    check_real,
    check_size,
)
from .linalg import validate_indices

TWO_PI = 2.0 * np.pi
# above the largest standard normal draw of a feature, |ndtri(5e-324)| = 38.47
MAX_NORMAL_DRAW = 38.5
# 2 pi as hi + lo (Cody and Waite): hi is 4 * fdlibm's pio2_1, 31
# significant bits, so k * hi is exact for |k| <= _MAX_TURNS = 2**22; lo is
# the float nearest 2 pi - hi (4 * pio2_1t), and hi + lo is within 1.5e-26
# of 2 pi
_TWO_PI_HI = 6.2831853069365025
_TWO_PI_LO = 2.430840202602477e-10
_MAX_TURNS = 2.0**22
# entries per row chunk of the cosine pass: its scratch stays in cache
_COS_CHUNK_ENTRIES = 1 << 14

KERNEL_FAMILIES = ("rbf", "linear")
# rbf inputs up to this squared norm keep ||x||^2 + ||y||^2 - 2 x.y finite
_FAR_NORM = 2.0**1020


def _bandwidth(sigma) -> float:
    """A spec's sigma as a Python float; ConfigError unless it is a real
    number that a float can hold."""
    check_real("bandwidth sigma", sigma)
    try:
        return float(sigma)
    except OverflowError:
        raise ConfigError(f"bandwidth sigma {sigma!r} overflows a float") from None


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its bandwidth.

    rbf:     k(x, y) = exp(-||x - y||^2 / (2 sigma^2))
    linear:  k(x, y) = x . y   (sigma is ignored, but must be a real number)

    sigma is stored as a Python float.
    """

    family: str = "rbf"
    sigma: float = 1.0

    def __post_init__(self):
        check_choice("kernel family", self.family, KERNEL_FAMILIES)
        object.__setattr__(self, "sigma", _bandwidth(self.sigma))
        # sigma*sigma, not sigma**2: float ** raises OverflowError, * gives inf
        if self.family == "rbf" and not (
            self.sigma > 0 and 0 < self.sigma * self.sigma < math.inf
        ):
            raise ConfigError(
                "rbf bandwidth must be positive, with sigma*sigma neither 0 "
                f"nor inf; got sigma = {self.sigma!r}"
            )


@dataclass(frozen=True)
class FeatureMapSpec:
    """Random cosine feature map targeting the rbf kernel.

    Feature m is phi_m(x) = sqrt(2) * cos(x . omega_m + b_m) with
    omega_m ~ N(0, sigma^-2 I) and b_m ~ Unif[0, 2pi), both derived
    deterministically from (master_seed, m).  The assembled map is
    z(x) = (1/sqrt(p)) * (phi_1(x), ..., phi_p(x)), so
    E[z(x) . z(y)] equals the rbf kernel with the same sigma.  p and
    master_seed are stored as Python ints, sigma as a Python float.

    As computed, entry m of z(x) is sqrt(2/p) * cos32(float32(r)), where
    r is the float64 argument t = x . omega_m + b_m less 2 pi rint(t / 2 pi)
    and cos32 numpy's float32 cosine: within 2**-22 sqrt(2/p) of
    sqrt(2/p) * cos(t) in float64.  An argument past 2**22 turns of 2 pi,
    or not finite, takes sqrt(2/p) * cos(t) in float64.
    """

    p: int
    sigma: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p", check_size("feature count p", self.p))
        object.__setattr__(self, "master_seed", check_count("master_seed", self.master_seed))
        object.__setattr__(self, "sigma", _bandwidth(self.sigma))
        # a frequency is a standard normal draw times 1/sigma, and a draw
        # reaches MAX_NORMAL_DRAW / sigma
        if not (0 < self.sigma < math.inf and MAX_NORMAL_DRAW / self.sigma < math.inf):
            raise ConfigError(
                "bandwidth must be positive and finite, with "
                f"{MAX_NORMAL_DRAW} / sigma finite; got sigma = {self.sigma!r}"
            )


@dataclass(frozen=True)
class Dataset:
    """Design matrix plus integer class labels in [0, k).

    Raises ``DimensionMismatchError`` unless X is 2-d with one label per
    row, and ``ConfigError`` unless k is an int >= 0 and every label a whole
    number (``check_integer_array``), or naming the first non-finite entry
    of X or the first label outside [0, k).  k is stored as a Python int,
    the labels as int64.
    """

    X: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "X", np.ascontiguousarray(check_matrix("X", self.X)))
        object.__setattr__(self, "labels", check_integer_array("labels", self.labels))
        object.__setattr__(self, "k", check_count("class count k", self.k))
        if self.labels.shape != (self.X.shape[0],):
            raise DimensionMismatchError("labels length must match row count")
        finite = np.isfinite(self.X)
        if not finite.all():  # argwhere costs ten times more: only on failure
            row, col = np.argwhere(~finite)[0]
            raise ConfigError(f"X[{row}, {col}] = {self.X[row, col]} is not finite")
        bad = np.flatnonzero((self.labels < 0) | (self.labels >= self.k))
        if bad.size:
            i = bad[0]
            raise ConfigError(f"labels[{i}] = {self.labels[i]} lies outside [0, {self.k})")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def kernel_cross(
    Xa: np.ndarray, Xb: np.ndarray, spec: KernelSpec, rows=None, *, out=None
) -> np.ndarray:
    """Pairwise kernel matrix, entry (i, j) = k(Xa_i, Xb_j).

    An rbf entry is exp(-(||x||^2 + ||y||^2 - 2 x.y) / (2 sigma^2)), the
    squared distance clamped at 0.  The products are one GEMM; the norm
    adds, the clamp, the scale and the ``exp`` then run in place over the
    whole block, entry by entry.

    ``rows``, when given, says that Xb is Xa[rows]: the block meets its own
    anchors there, and its |rows| x |rows| sub-block ``out[rows]`` is made
    exactly symmetric, with a unit diagonal for rbf.

    ``out``, when given, is the array the block is written into and
    returned as (``_block_out``); the GEMM writes it directly.
    """
    Xa, Xb = check_matrix("Xa", Xa), check_matrix("Xb", Xb)
    if Xa.shape[1] != Xb.shape[1]:
        raise DimensionMismatchError(
            f"feature dimensions {Xa.shape[1]} and {Xb.shape[1]} differ"
        )
    out = _block_out(out, (Xa.shape[0], Xb.shape[0]))
    if spec.family == "linear":
        np.matmul(Xa, Xb.T, out=out)
    else:
        scale = -2.0 * spec.sigma**2
        # an input whose squared norm passes _FAR_NORM can overflow the sum;
        # its row or column is overwritten with distances taken directly,
        # whose overflow to inf is the limit 0
        with np.errstate(over="ignore", invalid="ignore"):
            # -2 Xb is exact, so the GEMM gives -2 x.y with the bits of x.y
            np.matmul(Xa, (-2.0 * Xb).T, out=out)
            norms_a = np.einsum("ij,ij->i", Xa, Xa)[:, None]
            norms_b = np.einsum("ij,ij->i", Xb, Xb)
            out += norms_a
            out += norms_b
            np.maximum(out, 0.0, out=out)
            # a subnormal sigma**2 sends off-diagonal entries to -inf: the limit 0
            out /= scale
            np.exp(out, out=out)
            for i in np.flatnonzero(~(norms_a[:, 0] <= _FAR_NORM)):
                out[i] = np.exp(((Xa[i] - Xb) ** 2).sum(axis=1) / scale)
            for j in np.flatnonzero(~(norms_b <= _FAR_NORM)):
                out[:, j] = np.exp(((Xa - Xb[j]) ** 2).sum(axis=1) / scale)
    if rows is not None:
        own = out[rows]
        own = (own + own.T) * 0.5
        if spec.family == "rbf":
            np.fill_diagonal(own, 1.0)
        out[rows] = own
    return out


def _block_out(out, shape) -> np.ndarray:
    """The array a block is made in: a new one when ``out`` is None, else
    ``out``, which must be a C-contiguous float64 array of the block's
    ``shape`` (DimensionMismatchError otherwise): the passes after the
    GEMM run over it in place, row by row."""
    if out is None:
        return np.empty(shape)
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise DimensionMismatchError(
            f"a block of shape {shape} needs a C-contiguous float64 array of that "
            f"shape, got {out.dtype} {out.shape}"
        )
    return out


def feature_params(spec: FeatureMapSpec, m: int, d: int) -> tuple[np.ndarray, float]:
    """Frequency/phase pair (omega_m, b_m) for feature m of a d-dim input.

    Pure function of (master_seed, m): column m of any block draw, so any
    block containing column m regenerates the same pair in any epoch.
    """
    m, d = check_integer("feature index", m), check_count("input dimension d", d)
    if not 0 <= m < spec.p:
        raise IndexOutOfRangeError(f"feature index {m} outside [0, {spec.p})")
    freqs, phases = _block_params(spec, np.array([m], dtype=np.int64), d)
    return freqs[:, 0], phases[0]


def random_features_block(
    X: np.ndarray, indices, spec: FeatureMapSpec, draw=None, *, out=None
) -> np.ndarray:
    """Return the n x |I| block Z([n], I) of the random cosine feature matrix.

    Column j is sqrt(2/p) * cos(X omega_I(j) + b_I(j)), the cosine taken
    in float32 after a float64 reduction mod 2 pi, as ``FeatureMapSpec``
    states.  Every entry of a finite argument is finite and bounded by
    sqrt(2/p) in magnitude, and every full row has squared norm at most 2.

    With no ``draw`` the block draws its own columns, the one-seed case of
    ``random_features_stack``.  ``draw`` is ``feature_draw(spec, d)`` for
    X's width d: the block then gathers its columns from it, byte for byte
    the columns it would draw.

    ``out``, when given, is the array the block is written into and
    returned as (``_block_out``): ``_entries`` makes its GEMM and cosine
    there in place.
    """
    X = check_matrix("X", X)
    idx = validate_indices(indices, spec.p)
    if draw is None:
        freqs, phases = _block_params(spec, idx, X.shape[1])
    else:
        freqs, phases = draw
        if freqs.shape != (X.shape[1], spec.p) or phases.shape != (spec.p,):
            raise DimensionMismatchError(
                f"a draw of shape {freqs.shape} is not the draw of {spec.p} columns "
                f"for {X.shape[1]} features"
            )
        # take, not freqs[:, idx]: a fancy-index gather can come out F-ordered,
        # and the GEMM then rounds differently from the block's own draw
        freqs, phases = freqs.take(idx, axis=1), phases[idx]
    return _entries(X, freqs, phases, idx.size, spec.p, out)


def feature_draw(spec: FeatureMapSpec, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Every column's frequencies (d x p, C-contiguous) and phases (p) for
    d-dim inputs, (d + 1) p floats in one ``_block_params`` pass: the draw
    ``random_features_block`` gathers a block's columns from."""
    d = check_count("input dimension d", d)
    return _block_params(spec, np.arange(spec.p, dtype=np.int64), d)


def random_features_stack(X: np.ndarray, indices, spec: FeatureMapSpec, seeds) -> np.ndarray:
    """The blocks Z([n], I) of several master seeds, shape (n, len(seeds), |I|):
    ``[:, t]`` is byte for byte ``random_features_block(X, indices,
    FeatureMapSpec(spec.p, spec.sigma, seeds[t]))``.  A seed that is not an
    int >= 0 raises ``ConfigError``, as in ``FeatureMapSpec``.

    The seeds' blocks stand side by side along the column axis of one
    n x len(seeds) |I| array: one ``_block_params`` pass draws every
    (seed, column) pair, and ``_entries`` makes them.
    """
    X = check_matrix("X", X)
    idx = validate_indices(indices, spec.p)
    seeds = [check_count("master_seed", seed) for seed in seeds]
    freqs, phases = _block_params(spec, idx, X.shape[1], seeds)
    z = _entries(X, freqs, phases, idx.size, spec.p)
    return z.reshape(X.shape[0], len(seeds), idx.size)


def _entries(X, freqs, phases, width: int, p: int, out=None) -> np.ndarray:
    """The feature entries sqrt(2/p) cos(X freqs + phases), the columns of
    C-contiguous ``freqs`` taken ``width`` at a time: each block keeps its
    own GEMM, so its bits are those of its own call.  The entries are then
    made in one pass over row chunks of about ``_COS_CHUNK_ENTRIES``
    entries: add the phases, then ``_scaled_cos``.  Every step acts entry
    by entry, so the bytes do not depend on the chunks.  The scratch is
    allocated once, the entries made in ``out`` (``_block_out``)."""
    z = _block_out(out, (X.shape[0], freqs.shape[1]))
    for first in range(0, freqs.shape[1], max(1, width)):
        cols = slice(first, first + width)
        np.matmul(X, freqs[:, cols], out=z[:, cols])
    scale = np.sqrt(2.0 / p)
    step = max(1, _COS_CHUNK_ENTRIES // max(1, z.shape[1]))
    shape = (min(step, z.shape[0]), z.shape[1])
    k, r, r32 = np.empty(shape), np.empty(shape), np.empty(shape, np.float32)
    for start in range(0, z.shape[0], step):
        t = z[start:start + step]
        t += phases
        m = t.shape[0]
        _scaled_cos(t, scale, k[:m], r[:m], r32[:m])
    return z


def _scaled_cos(t: np.ndarray, scale: float, k, r, r32) -> None:
    """t <- scale * cos(t) in place, through a float32 cosine, on C-contiguous
    rows t with scratch k, r (float64) and r32 (float32) of t's shape.

    Each argument is reduced to r = t - 2 pi k, k = rint(t / 2 pi), as
    (t - k hi) - k lo.  For |k| <= _MAX_TURNS, k hi is exact, and so is
    t - k hi, k hi being within a factor 2 of t (Sterbenz), so r is within
    a few float64 ulps of t less 2 pi k, and |r| <= pi to rounding.  The
    entry is scale * cos32(float32(r)), the product taken in float64.  An
    argument past that range, or not finite, takes scale * cos(t) in
    float64; a finite one then gives a finite entry and raises no overflow,
    so every finite argument does.
    """
    np.multiply(t, 1.0 / TWO_PI, out=k)
    np.rint(k, out=k)
    far = None
    # the comparisons are False for a NaN, so a NaN argument goes far too
    if k.size and not (-_MAX_TURNS <= k.min() and k.max() <= _MAX_TURNS):
        flat_t, flat_k = t.reshape(-1), k.reshape(-1)
        far = np.flatnonzero(~(np.abs(flat_k) <= _MAX_TURNS))
        wide = flat_t[far]
        flat_t[far] = flat_k[far] = 0.0
    np.multiply(k, _TWO_PI_HI, out=r)
    np.subtract(t, r, out=r)
    k *= _TWO_PI_LO
    r -= k
    np.copyto(r32, r, casting="same_kind")
    np.cos(r32, out=r32)
    np.multiply(r32, scale, out=t, dtype=np.float64)
    if far is not None:
        flat_t[far] = scale * np.cos(wide)


# Philox4x64-10 multipliers and key increments (Random123; Salmon et al.,
# "Parallel random numbers: as easy as 1, 2, 3", SC'11), shaped to act on
# the word pairs (x0, x2) and (key0, key1)
_PHILOX_M = np.array([[[0xD2E7470EE14C6C93]], [[0xCA5A826395121157]]], dtype=np.uint64)
_PHILOX_W = np.array([[[0x9E3779B97F4A7C15]], [[0xBB67AE8584CAA73B]]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_U32, _LO32 = np.uint64(32), np.uint64(0xFFFFFFFF)
# Philox output words per column chunk of a block draw (512 KB of uint64);
# rates also bounds the entries of a chunk of feature trials by it
_DRAW_WORDS = 1 << 16


def _block_params(spec: FeatureMapSpec, idx: np.ndarray, d: int, seeds=None):
    """Frequencies (d x len(seeds) |idx|, C-contiguous) and phases of the
    columns (s, m), s in ``seeds`` (by default ``spec.master_seed`` alone)
    and m in idx, seed by seed.

    Column (s, m) gets exactly the draw of numpy's public
    ``Generator(Philox(key=SeedSequence(s).generate_state(2, np.uint64),
    counter=[0, m, 0, 0])).random(d + 1)`` -- d inverse-CDF Gaussian
    frequencies, then the phase -- but every column is drawn in one array
    pass: Philox is counter based, so its d + 1 outputs are plain functions
    of the seed's key and of m.  A pass covers whole seeds,
    ``_DRAW_WORDS // (d + 1)`` columns at most, or a run of one seed's
    columns when a seed alone has more, which bounds the Philox temporaries
    however wide the block or however many the seeds.
    """
    seeds = (spec.master_seed,) if seeds is None else seeds
    # one key pair per seed, (2, len(seeds)); the seeds are ints >= 0
    keys = np.array(
        [np.random.SeedSequence(s).generate_state(2, np.uint64) for s in seeds],
        dtype=np.uint64,
    ).reshape(-1, 2).T
    ms = idx.astype(np.uint64)
    freqs = np.empty((d, len(seeds), idx.size))
    phases = np.empty((len(seeds), idx.size))
    step = max(1, _DRAW_WORDS // (d + 1))
    per = max(1, step // max(1, idx.size))
    for first in range(0, len(seeds), per):
        own = slice(first, first + per)
        for start in range(0, idx.size, step):
            cols = slice(start, start + step)
            raw = _philox4x64(keys[:, own], ms[cols], -(-(d + 1) // 4))[: d + 1]
            # Generator.random: the top 53 bits of each word, times 2**-53
            u = (raw >> np.uint64(11)) * (1.0 / 9007199254740992.0)
            u = u.reshape(d + 1, -1, min(idx.size - start, step))
            # random() can return 0.0, which ndtri maps to -inf
            np.maximum(u[:d], 5e-324, out=freqs[:, own, cols])
            phases[own, cols] = TWO_PI * u[d]
    freqs = _ndtri(freqs.reshape(d, len(seeds) * idx.size))
    freqs /= spec.sigma
    return freqs, phases.ravel()


# Cephes ndtri (S. L. Moshier, Cephes Math Library, ndtri.c): the inverse
# standard normal CDF as three rational functions, highest power first
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXPM2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _rational(x, p, q):
    """x p(x) / q(x) of the array x in Cephes' order, ``x * polevl(x, p) /
    p1evl(x, q)``: Horner's rule on each, q's leading 1 included (x * 1 + c
    is x + c exactly)."""
    num, den = x * p[0], x * q[0]
    for acc, coeffs in ((num, p), (den, q)):
        acc += coeffs[1]
        for c in coeffs[2:]:
            acc *= x
            acc += c
    num *= x
    num /= den
    return num


def _libm_log(a: np.ndarray) -> np.ndarray:
    """The C library's log of each entry.  numpy's SIMD log rounds some
    inputs differently, and Cephes' tails are libm's."""
    return np.fromiter(map(math.log, a.tolist()), np.float64, a.size)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Cephes ``ndtri``, the standard normal quantile, of every entry of u,
    all in (0, 1): bit for bit ``scipy.special.ndtri`` on the same libm.

    The branches are Cephes': u is reflected to y = 1 - u above 1 - e^-2;
    y above e^-2 takes the central approximation, unsigned, and the rest
    the tail, x = sqrt(-2 log y), whose sign is negative unless u was
    reflected.  The central one is evaluated everywhere and overwritten
    at the tail, which costs less than gathering its entries.
    """
    shape, u = u.shape, u.ravel()
    upper = u > 1.0 - _EXPM2
    y = np.where(upper, 1.0 - u, u)
    c = y - 0.5
    out = (c + c * _rational(c * c, _NDTRI_P0, _NDTRI_Q0)) * _SQRT_2PI
    tail = np.flatnonzero(y <= _EXPM2)
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    z = 1.0 / x
    x1 = _rational(z, _NDTRI_P1, _NDTRI_Q1)
    far = x >= 8.0  # y < exp(-32), rare in uniform draws
    if far.any():
        x1[far] = _rational(z[far], _NDTRI_P2, _NDTRI_Q2)
    x = (x - _libm_log(x) / x) - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out.reshape(shape)


def _mulhilo(a: np.ndarray, x: np.ndarray):
    """High and low uint64 words of the 128-bit products a * x, the high
    word formed from 32-bit halves."""
    a_lo, a_hi = a & _LO32, a >> _U32
    x_lo, x_hi = x & _LO32, x >> _U32
    t = a_hi * x_lo + ((a_lo * x_lo) >> _U32)
    u = a_lo * x_hi + (t & _LO32)
    return a_hi * x_hi + (t >> _U32) + (u >> _U32), a * x


def _philox4x64(key: np.ndarray, cols: np.ndarray, n_counters: int) -> np.ndarray:
    """Philox4x64-10 output words for the counters (c, m, 0, 0), c =
    1..n_counters (numpy's ``Philox`` steps its counter before its first
    block) and m in the uint64 array ``cols``, under each seed's key pair
    ``key[:, s]``, in stream order: shape (4 n_counters, seeds x len(cols)),
    seed by seed.  Column (s, m) is the stream of numpy's
    ``Philox(key=key[:, s], counter=[0, m, 0, 0])``.

    The four counter words are held as the pairs (x0, x2) and (x1, x3), so
    a round is one multiply of the first pair:
    (x0, x1, x2, x3) <- (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0).
    """
    shape = (2, n_counters, key.shape[1] * cols.size)
    even = np.zeros(shape, dtype=np.uint64)
    even[0] = np.arange(1, n_counters + 1, dtype=np.uint64)[:, None]
    odd = np.zeros(shape, dtype=np.uint64)
    odd[0] = np.tile(cols, key.shape[1])
    key = np.repeat(key, cols.size, axis=1)[:, None, :]
    for _ in range(_PHILOX_ROUNDS):
        hi, lo = _mulhilo(_PHILOX_M, even)
        even = hi[::-1] ^ odd ^ key
        odd = lo[::-1]
        key = key + _PHILOX_W
    words = np.stack([even[0], odd[0], even[1], odd[1]], axis=1)
    return words.reshape(4 * n_counters, shape[2])


def one_vs_all(dataset: Dataset) -> np.ndarray:
    """The n x k label matrix with +1 at the true class and -1 elsewhere.

    Raises ``DataFormatError`` naming the largest label when numpy cannot
    even index an n x k float array; a smaller matrix that does not fit in
    memory raises ``MemoryError``.
    """
    n = dataset.n
    if n * dataset.k * 8 > np.iinfo(np.intp).max:
        top = int(dataset.labels.max()) if n else dataset.k - 1
        raise DataFormatError(
            f"label {top} makes {dataset.k} classes: the {n} x {dataset.k} "
            "one-vs-all label matrix is too big for any machine"
        )
    y = np.full((n, dataset.k), -1.0)
    y[np.arange(n), dataset.labels] = 1.0
    return y


def gaussian_blobs(
    n: int,
    d: int,
    k: int,
    seed: int = 0,
    center_scale: float = 4.0,
    noise: float = 1.0,
) -> Dataset:
    """Synthetic k-class dataset: Gaussian clusters around seeded centers.
    n, d and seed must be ints >= 0 and k an int >= 1; anything else raises
    ``ConfigError``, and so does a center_scale or noise that is not a real
    number."""
    n, d = check_count("row count n", n), check_count("dimension d", d)
    k, seed = check_size("class count k", k), check_count("seed", seed)
    check_real("center_scale", center_scale)
    check_real("noise", noise)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xB10B,)))
    centers = center_scale * rng.standard_normal((k, d))
    labels = rng.permutation(np.arange(n) % k)
    X = centers[labels] + noise * rng.standard_normal((n, d))
    return Dataset(X=X, labels=labels, k=k)


def load_csv(path, has_header: bool = False) -> Dataset:
    """Read a dataset: one row per example, feature columns then an integer
    label column.  Every feature must parse as a finite float64.  Raises
    DataFormatError with the offending 1-based line number, or without one
    when the file cannot be decoded as text.

    A file of plain numbers is parsed in one vectorised pass
    (``_fast_csv``).  Any other file, and any file that pass rejects, goes
    to the line reader, which gives the same Dataset for every file the
    fast pass accepts and reports every error.
    """
    with open(path, "rb") as fh:
        data = _fast_csv(fh.read(), has_header)
    if data is not None:
        return data
    try:
        return _read_csv(path, has_header)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"cannot decode the file as text ({exc})") from None


# the bytes a data row may hold for the fast pass: digits, then the rest of
# the number grammar, the comma and both line ends (csv.writer writes CRLF)
_PLAIN_NON_DIGITS = b".+-eE,\r\n"
_PLAIN_BYTES = b"0123456789" + _PLAIN_NON_DIGITS


def _fast_csv(body: bytes, has_header: bool) -> Dataset | None:
    """The Dataset of the file bytes ``body``, parsed by one
    ``np.loadtxt`` call, or None wherever the line reader might read the
    file otherwise.

    The data rows may hold only ``_PLAIN_BYTES``.  Over that alphabet
    loadtxt and ``float()`` share one number grammar, csv.reader sees no
    quote, ``str.splitlines`` ends lines where csv.reader's universal
    newlines do (CR, LF and CRLF), and both readers skip empty lines.  A
    header line is skipped here only if csv.reader reads it as one line
    without error: no quote, no NUL, decodable, within the field limit.
    The result is kept only if the line reader accepts it as well: two or
    more columns, finite values, and labels that are integers in
    [0, 2**63).
    """
    limit = csv.field_size_limit()
    if has_header:
        ends = [i for i in (body.find(b"\r"), body.find(b"\n")) if i >= 0]
        cut = min(ends, default=len(body))
        header, body = body[:cut], body[cut:]
        if b'"' in header or b"\0" in header or len(header) > limit:
            return None
        try:
            header.decode(locale.getpreferredencoding(False))
        except UnicodeDecodeError:
            return None
    # a body with no digit has no row, and loadtxt would warn "no data"
    if body.translate(None, _PLAIN_BYTES) or not body.strip(_PLAIN_NON_DIGITS):
        return None
    if not _fits_field_limit(body, limit):
        return None
    try:
        table = np.loadtxt(
            body.decode("ascii").splitlines(), delimiter=",", comments=None, ndmin=2
        )
    except ValueError:
        return None
    labels = table[:, -1]
    if not (
        table.shape[1] >= 2
        and np.isfinite(table).all()
        and (labels == np.trunc(labels)).all()
        and (labels >= 0).all()
        and (labels < 2.0**63).all()
    ):
        return None
    # a copy, not a strided view: the GEMMs see the line reader's layout
    X = np.ascontiguousarray(table[:, :-1])
    lab = labels.astype(np.int64)
    return Dataset(X=X, labels=lab, k=int(lab.max()) + 1)


def _fits_field_limit(body: bytes, limit: int) -> bool:
    """False unless every field of ``body`` is shorter than ``limit``
    bytes.  A comma-free run of 2h - 1 or more bytes covers a whole aligned
    h-byte chunk, so with h = limit // 2 it is enough that every such chunk
    holds a comma."""
    h = max(1, limit // 2)
    u = np.frombuffer(body, dtype=np.uint8)
    chunks = u[: u.size // h * h].reshape(-1, h)
    return bool((chunks == ord(",")).any(axis=1).all())


def _read_csv(path, has_header: bool) -> Dataset:
    rows: list[list[float]] = []
    labels: list[int] = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(_rows(reader), start=1):
            if has_header and line_no == 1:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise DataFormatError(
                    "need at least one feature column and a label column",
                    line=line_no,
                )
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DataFormatError(
                    f"expected {width} columns, found {len(row)}", line=line_no
                )
            try:
                feats = [float(v) for v in row[:-1]]
            except ValueError as exc:
                raise DataFormatError(f"bad feature value: {exc}", line=line_no)
            if not all(map(math.isfinite, feats)):
                raise DataFormatError("feature value is not finite", line=line_no)
            raw_label = row[-1].strip()
            try:
                as_float = float(raw_label)
            except ValueError:
                raise DataFormatError(
                    f"label {raw_label!r} is not an integer", line=line_no
                )
            if not math.isfinite(as_float) or as_float != int(as_float):
                raise DataFormatError(
                    f"label {raw_label!r} is not an integer", line=line_no
                )
            label = int(as_float)
            if label < 0:
                raise DataFormatError(f"label {label} is negative", line=line_no)
            if label >= 2**63:
                raise DataFormatError(
                    f"label {raw_label!r} does not fit in a 64-bit integer",
                    line=line_no,
                )
            rows.append(feats)
            labels.append(label)
    if not rows:
        raise DataFormatError("no data rows found")
    X = np.asarray(rows, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.int64)
    return Dataset(X=X, labels=lab, k=int(lab.max()) + 1)


def _rows(reader):
    """The rows of a csv.reader, with its errors (a field past the csv field
    limit, say) raised as DataFormatError at the line they are on."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataFormatError(str(exc), line=reader.line_num) from None
