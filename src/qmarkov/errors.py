"""Exception types shared across the package."""


class QmarkovError(ValueError):
    """Base class for all validation and domain errors raised here."""


class DimensionMismatchError(QmarkovError):
    """Operands have incompatible shapes or subsystem dimensions."""


class MatrixFunctionDomainError(QmarkovError):
    """Scalar function is undefined on a retained eigenvalue."""


class ValidationError(QmarkovError):
    """State, operator, or channel failed a structural check.

    ``reason`` is one of "not-hermitian", "not-positive", "not-normalized",
    "not-trace-preserving", "not-finite", "bad-rank", "bad-spec".  A
    "not-hermitian" failure is always raised as NonHermitianError.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class NonHermitianError(ValidationError):
    """Matrix fails the Hermiticity rule (``linalg.checked_hermitian_part``),
    whether in validation or in a decomposition; its reason is "not-hermitian"."""

    def __init__(self, message: str):
        super().__init__("not-hermitian", message)


class RankDeficientError(QmarkovError):
    """Operation requires positive definite input for this parameter range."""


class InfiniteTermError(QmarkovError):
    """A difference of divergences is undefined because a term is infinite."""


class NotStrictError(QmarkovError):
    """Channel must map positive definite inputs to positive definite outputs."""
