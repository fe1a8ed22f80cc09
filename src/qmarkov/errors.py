"""Exception types shared across the package."""


class QmarkovError(ValueError):
    """Base class for all validation and domain errors raised here."""


class DimensionMismatchError(QmarkovError):
    """Operands have incompatible shapes or subsystem dimensions."""


class NonHermitianError(QmarkovError):
    """Matrix fails the Hermiticity check beyond tolerance."""


class MatrixFunctionDomainError(QmarkovError):
    """Scalar function is undefined on a retained eigenvalue."""


class ValidationError(QmarkovError):
    """State, operator, or channel failed a structural check.

    ``reason`` is one of "not-hermitian", "not-positive", "not-normalized",
    "not-trace-preserving", "not-finite", "bad-rank", "bad-spec".
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class RankDeficientError(QmarkovError):
    """Operation requires positive definite input for this parameter range."""


class InfiniteTermError(QmarkovError):
    """A difference of divergences is undefined because a term is infinite."""


class NotStrictError(QmarkovError):
    """Channel must map positive definite inputs to positive definite outputs."""
