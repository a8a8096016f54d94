"""Exception types shared across the package, and the input rules that
raise them.

Every module imports this one, and it imports nothing from the package, so
each rule on a scalar argument is written here once: an integer
(``check_integer``), a count ``>= 0`` (``check_count``), a size in
``[1, most]`` (``check_size``), a real number (``check_real``), a finite
level ``>= 0`` (``check_level``) and a failure probability in ``(0, 1]``
(``check_delta``).  So is the rule on a list of regularization
strengths (``check_lambdas``) and on a name picked from a fixed set
(``check_choice``).  The solvers, the specs, the rates lab and the CLI's
early checks call them with the argument's or the flag's name, and keep
no copy.  So do the two rules on a data array: a numeric 2-d array
(``check_matrix``) and an array of whole numbers (``check_integer_array``).
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np


class KernelBcdError(Exception):
    """Base class for every error raised by this package."""


class NotSpdError(KernelBcdError):
    """A factorization hit a non-positive pivot.

    For the solvers this usually means the regularization (lambda, gamma)
    is too small for the block system, or the block matrix is rank
    deficient.  We never perturb the matrix silently; the caller owns the
    regularization.
    """


class IndexOutOfRangeError(KernelBcdError):
    """An index set contains duplicates or entries outside its universe."""


class DimensionMismatchError(KernelBcdError):
    """Operands have incompatible shapes."""


class DivergenceError(KernelBcdError):
    """A block update increased the solver objective beyond tolerance, or a
    block system went non-finite.

    The exact block solve is a descent step, so an increase signals a
    residual-maintenance bug (or inconsistent block regeneration), not a
    tuning problem.  A non-finite system means the data overflowed.
    """


class CombinatorialBlowupError(KernelBcdError):
    """Exact subset enumeration was requested beyond the size cap."""


class InvalidRateError(KernelBcdError):
    """A contraction factor fell outside (0, 1]."""


class NotPerfectSquareError(KernelBcdError):
    """The adversarial Hessian needs a perfect-square dimension."""


class ThresholdNotMetError(KernelBcdError):
    """A concentration check was asked to run below its lemma-mandated
    sample size; the check is skipped rather than failed."""


class ConfigError(KernelBcdError, ValueError):
    """Invalid run configuration (CLI exit code 2).

    Also a ``ValueError``: the specs and the solvers raise it for a bad
    argument value."""


class DataFormatError(KernelBcdError):
    """Unparseable dataset file (CLI exit code 3)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def check_matrix(name: str, value) -> np.ndarray:
    """``value`` as a float64 array, which must be 2-d (one row per
    example); any other rank raises ``DimensionMismatchError``, and a value
    numpy cannot convert to float64 ``ConfigError``."""
    try:
        a = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a numeric array: {exc}") from None
    if a.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-d, got shape {a.shape}")
    return a


def check_integer_array(name: str, value) -> np.ndarray:
    """``value`` as an int64 array.  Integer and boolean arrays pass as they
    are, and a float array whose every entry is a whole number within the
    int64 range (8.0, say); a fraction, a non-finite entry or a non-numeric
    array raises ``ConfigError``."""
    a = np.asarray(value)
    if a.dtype.kind == "f":
        whole = np.isfinite(a) & (a == np.round(a)) & (np.abs(a) < 2.0**63)
        if not whole.all():
            bad = a.flat[np.flatnonzero(~whole)[0]]
            raise ConfigError(f"{name} must hold integers, got {bad}")
    elif a.dtype.kind not in "biu":
        raise ConfigError(f"{name} must be an integer array, got dtype {a.dtype}")
    return a.astype(np.int64)


def check_integer(name: str, value) -> int:
    """``value`` as a Python int (``operator.index``: a float such as 8.0 is
    refused); anything else raises ``ConfigError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def check_count(name: str, value) -> int:
    """``value`` as an int >= 0; anything else raises ``ConfigError``."""
    value = check_integer(name, value)
    if value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value}")
    return value


def check_size(name: str, value, most: float = math.inf) -> int:
    """``value`` as an int in [1, most]: a block or sketch size, or a count of
    seeds, trials or workers.  Anything else raises ``ConfigError``."""
    value = check_count(name, value)
    if not 1 <= value <= most:
        bound = "be >= 1" if most == math.inf else f"lie in [1, {most}]"
        raise ConfigError(f"{name} must {bound}, got {value}")
    return value


def check_real(name: str, value) -> None:
    """Refuse a ``value`` that is not a real number (``numbers.Real``) with
    ``ConfigError``, before a comparison would raise ``TypeError``."""
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")


def check_level(name: str, value) -> None:
    """A tolerance, a gap or a ridge weight must be a finite real number
    >= 0; anything else, NaN included, raises ``ConfigError``."""
    check_real(name, value)
    if not 0 <= value < math.inf:
        raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")


def check_delta(name: str, value) -> None:
    """A failure probability must be a real number in (0, 1]; anything else,
    NaN included, raises ``ConfigError``."""
    check_real(name, value)
    if not 0 < value <= 1:
        raise ConfigError(f"{name} must lie in (0, 1], got {value!r}")


def check_lambdas(name: str, values: list) -> None:
    """A list of regularization strengths: at least one, each a real number
    that is positive and finite as a float, and no two equal (the repeats
    are named).  The block systems are strongly convex only at n lam > 0.
    Anything else, an int past the float range included, raises
    ``ConfigError``."""
    if not values:
        raise ConfigError(f"need at least one {name}")
    for value in values:
        check_real(name, value)
        try:
            finite = 0 < float(value) < math.inf
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ConfigError(f"{name} values must be positive and finite")
    # as Python floats: numpy would cast an int to the float32 beside it
    floats = [float(value) for value in values]
    repeats = ", ".join(
        str(values[floats.index(f)]) for f in sorted(set(floats)) if floats.count(f) > 1
    )
    if repeats:
        raise ConfigError(f"{name} values must be distinct: {repeats} repeated")


def check_choice(name: str, value, choices) -> None:
    """Refuse a ``value`` that is not one of ``choices`` (a method or a
    kernel family) with ``ConfigError``."""
    if value not in choices:
        raise ConfigError(f"unknown {name} {value!r}")
