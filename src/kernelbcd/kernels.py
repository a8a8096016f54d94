"""Kernel evaluation and reproducible block generation.

The solvers never materialize the full kernel matrix K or feature matrix Z;
they ask this module for one column block at a time and may discard it after
the update.  Random-feature columns are a pure function of
``(master_seed, column index)``: regenerating any block in any epoch, or a
block that overlaps a previous one, yields bit-identical columns within a
build.  That is what makes epoch-over-epoch regeneration equivalent to
storing Z.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import ndtri

from .errors import DataFormatError, DimensionMismatchError, IndexOutOfRangeError
from .linalg import validate_indices

TWO_PI = 2.0 * np.pi

KERNEL_FAMILIES = ("rbf", "linear")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its bandwidth.

    rbf:     k(x, y) = exp(-||x - y||^2 / (2 sigma^2))
    linear:  k(x, y) = x . y   (sigma is ignored)
    """

    family: str = "rbf"
    sigma: float = 1.0

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == "rbf" and not self.sigma > 0:
            raise ValueError("rbf bandwidth must be positive")


@dataclass(frozen=True)
class FeatureMapSpec:
    """Random cosine feature map targeting the rbf kernel.

    Feature m is phi_m(x) = sqrt(2) * cos(x . omega_m + b_m) with
    omega_m ~ N(0, sigma^-2 I) and b_m ~ Unif[0, 2pi), both derived
    deterministically from (master_seed, m).  The assembled map is
    z(x) = (1/sqrt(p)) * (phi_1(x), ..., phi_p(x)), so
    E[z(x) . z(y)] equals the rbf kernel with the same sigma.
    """

    p: int
    sigma: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("feature count p must be >= 1")
        if not self.sigma > 0:
            raise ValueError("bandwidth must be positive")


@dataclass(frozen=True)
class Dataset:
    """Design matrix plus integer class labels in [0, k)."""

    X: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "X", np.ascontiguousarray(self.X, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.X.ndim != 2:
            raise DimensionMismatchError("X must be 2-d")
        if self.labels.shape != (self.X.shape[0],):
            raise DimensionMismatchError("labels length must match row count")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("X contains non-finite entries")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise ValueError(f"labels must lie in [0, {self.k})")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel on a single pair of vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"shapes {x.shape} and {y.shape} differ")
    if spec.family == "linear":
        return float(x @ y)
    sq = float(np.sum((x - y) ** 2))
    return float(np.exp(-sq / (2.0 * spec.sigma**2)))


def kernel_cross(Xa: np.ndarray, Xb: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Pairwise kernel matrix, entry (i, j) = k(Xa_i, Xb_j)."""
    Xa = np.asarray(Xa, dtype=np.float64)
    Xb = np.asarray(Xb, dtype=np.float64)
    if Xa.shape[1] != Xb.shape[1]:
        raise DimensionMismatchError(
            f"feature dimensions {Xa.shape[1]} and {Xb.shape[1]} differ"
        )
    if spec.family == "linear":
        return Xa @ Xb.T
    sq = cdist(Xa, Xb, "sqeuclidean")
    return np.exp(sq / (-2.0 * spec.sigma**2))


def kernel_block(X: np.ndarray, indices, spec: KernelSpec) -> np.ndarray:
    """Return the n x |I| column block K([n], I), entry (i, j) = k(x_i, x_I(j)).

    Deterministic given the inputs.  cdist computes each squared distance
    pairwise, so the full block (I = everything) is exactly symmetric.
    """
    X = np.asarray(X, dtype=np.float64)
    idx = validate_indices(indices, X.shape[0])
    return kernel_cross(X, X[idx], spec)


def feature_params(spec: FeatureMapSpec, m: int, d: int) -> tuple[np.ndarray, float]:
    """Frequency/phase pair (omega_m, b_m) for feature m of a d-dim input.

    Pure function of (master_seed, m): a Philox stream keyed by the spawn
    path (master_seed, m) feeds inverse-CDF Gaussian sampling, so any block
    containing column m regenerates the same pair in any epoch.
    """
    if not 0 <= m < spec.p:
        raise IndexOutOfRangeError(f"feature index {m} outside [0, {spec.p})")
    seq = np.random.SeedSequence(spec.master_seed, spawn_key=(m,))
    gen = np.random.Generator(np.random.Philox(seq))
    u = gen.random(d + 1)
    # random() can return exactly 0.0, which ndtri maps to -inf
    omega = ndtri(np.maximum(u[:d], 5e-324)) / spec.sigma
    return omega, TWO_PI * u[d]


def random_features_block(X: np.ndarray, indices, spec: FeatureMapSpec) -> np.ndarray:
    """Return the n x |I| block Z([n], I) of the random cosine feature matrix.

    Column j is sqrt(2/p) * cos(X omega_I(j) + b_I(j)); every entry is
    bounded by sqrt(2/p) in magnitude and every full row has squared norm
    at most 2.
    """
    X = np.asarray(X, dtype=np.float64)
    idx = validate_indices(indices, spec.p)
    d = X.shape[1]
    freqs = np.empty((d, idx.size))
    phases = np.empty(idx.size)
    for j, m in enumerate(idx):
        freqs[:, j], phases[j] = feature_params(spec, int(m), d)
    return np.sqrt(2.0 / spec.p) * np.cos(X @ freqs + phases)


def one_vs_all(dataset: Dataset) -> np.ndarray:
    """The n x k label matrix with +1 at the true class and -1 elsewhere."""
    n = dataset.n
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
    """Synthetic k-class dataset: Gaussian clusters around seeded centers."""
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
    """
    try:
        return _read_csv(path, has_header)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"cannot decode the file as text ({exc})") from None


def _read_csv(path, has_header: bool) -> Dataset:
    rows: list[list[float]] = []
    labels: list[int] = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
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
            rows.append(feats)
            labels.append(label)
    if not rows:
        raise DataFormatError("no data rows found")
    X = np.asarray(rows, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.int64)
    return Dataset(X=X, labels=lab, k=int(lab.max()) + 1)
