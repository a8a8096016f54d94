"""Exception types shared across the package."""

from __future__ import annotations


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
