"""Density operators and positive operators with subsystem structure.

An operator is validated once, on construction: its entries must be finite,
it must pass the package's one Hermiticity rule
(``linalg.checked_hermitian_part``), and it must be positive.  Positivity
is certified by one Cholesky factorization of the shifted Hermitian part
H - tau I, with tau = POSITIVITY_TOL * max(1, ||M||_inf).  A factor proves
lambda_min > tau (up to the factorization's round-off, of the order of
eigvalsh's own), and since ||M||_inf >= lambda_max that passes validation,
makes the operator positive definite and keeps every eigenvalue in the
support.  Only when the factorization fails does validation compute the
eigenvalues and apply the eigenvalue rule to them.  Otherwise the
eigenvalues are computed on first read.  The full eigendecomposition is
cached on first use, so every power and logarithm of the operator is read
from one ``sorted_eigh`` of its Hermitian part, which applies the
Hermiticity rule no second time.  The caches live as long as the object;
the matrix, the eigenvalues and the decomposition are read-only.  The
square-root factor (``root``) of a full-rank operator is its Cholesky
factor, so a formula that reads the operator only through such a factor
computes neither its eigenvalues nor its decomposition.  A random draw
(``random_density``, and the block draws of ``structured``) makes its
matrix first and validates it once, where it becomes an operator; the
divergences' one operand rule (``operands``) does the same with a plain matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import (
    POSITIVITY_TOL,
    SpectralDecomposition,
    _is_integral,
    alpha_norm,
    checked_hermitian_part,
    hermitian_part,
    read_only,
    sorted_eigh,
    subsystem_dims,
    support_mask,
)

TRACE_TOL = 1e-10


def _validated_eigs(matrix: np.ndarray) -> np.ndarray | None:
    """None when a Cholesky factor of H - tau I certifies positivity, else
    the eigenvalues of H, which the eigenvalue rule accepted.  A non-finite
    entry fails the Hermiticity rule's norm as ValidationError("not-finite")."""
    shifted, scale = checked_hermitian_part(matrix)
    shifted.reshape(-1)[:: shifted.shape[0] + 1] -= POSITIVITY_TOL * max(1.0, scale)  # the diagonal
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(hermitian_part(matrix))
        if eigs[0] < -POSITIVITY_TOL * max(1.0, abs(eigs[-1])):
            raise ValidationError(
                "not-positive", f"negative eigenvalue {eigs[0]:.3e} below tolerance"
            )
        return eigs
    return None


@dataclass(frozen=True, eq=False)
class PositiveOperator:
    """Hermitian positive semidefinite operator; trace is unconstrained.

    Validation applies the Hermiticity rule, which also forms the Hermitian
    part H and ||M||_inf, then factors H - tau I (see the module docstring),
    or, when that fails, computes the eigenvalues.  The
    eigenvalues (``eigenvalues``) and the full decomposition (``spectrum``)
    are otherwise computed on first use and cached.  ``root`` returns a
    square-root factor G with G G† = matrix: the Cholesky factor when the
    support keeps every eigenvalue, which needs no decomposition, else the
    support power ``spectrum.power(0.5)``.
    """

    matrix: np.ndarray
    dims: tuple[int, ...] = field(default=())

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=complex))
        dims = self.dims if self.dims else (m.shape[0],)
        dims = subsystem_dims(dims, m.shape)
        eigs = _validated_eigs(m)
        object.__setattr__(self, "matrix", read_only(m.view()))
        object.__setattr__(self, "dims", dims)
        # certified: lambda_min > POSITIVITY_TOL * max(1, ||M||_inf)
        object.__setattr__(self, "_certified", eigs is None)
        if eigs is not None:
            self.__dict__["eigenvalues"] = read_only(eigs)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of (M + M†)/2, ascending, computed once.

        Validation computes them when the Cholesky certificate fails;
        otherwise the first read does, with the same ``eigvalsh``.
        """
        return read_only(np.linalg.eigvalsh(hermitian_part(self.matrix)))

    @cached_property
    def spectrum(self) -> SpectralDecomposition:
        """The eigendecomposition of ``matrix``, computed once, from its
        Hermitian part: validation has applied the Hermiticity rule to the
        read-only matrix."""
        return sorted_eigh(hermitian_part(self.matrix))

    def root(self) -> np.ndarray:
        """A factor G with G G† = ``matrix``, not cached.

        When ``support_mask`` keeps every eigenvalue (always, when the
        validation certificate holds, so no eigenvalue is computed), this is
        the lower-triangular Cholesky factor of the Hermitian part;
        otherwise, or if Cholesky fails, it is ``spectrum.power(0.5)``, the
        square root on the support.  Two such factors differ by a unitary on
        the right, so a product X G has the same singular values with either.
        """
        if self._full_support():
            try:
                return np.linalg.cholesky(hermitian_part(self.matrix))
            except np.linalg.LinAlgError:
                pass
        return self.spectrum.power(0.5)

    def _full_support(self) -> bool:
        return self._certified or bool(support_mask(self.eigenvalues).all())

    def is_positive_definite(self) -> bool:
        """Whether lambda_min > POSITIVITY_TOL; the certificate implies it."""
        return self._certified or bool(self.eigenvalues[0] > POSITIVITY_TOL)


@dataclass(frozen=True, eq=False)
class DensityOperator(PositiveOperator):
    """Unit-trace positive semidefinite operator (a quantum state)."""

    def __post_init__(self):
        super().__post_init__()
        tr = float(self.matrix.trace().real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError("not-normalized", f"trace is {tr!r}, expected 1")


def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``; a seed it rejects, such as a negative
    integer or a float, and a bool, which it reads as 0 or 1, is a ValidationError."""
    if isinstance(seed, (bool, np.bool_)) or isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValidationError("bad-spec", f"seed must be a non-negative integer, got {seed!r}")
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ValidationError("bad-spec", f"invalid seed {seed!r}: {exc}") from None


def random_density(dims, rank: int | None = None, seed=0) -> DensityOperator:
    """Seeded random state G G† / Tr{G G†} with G complex Gaussian dim x rank.

    Deterministic per seed; rank defaults to the full dimension, which gives
    a positive definite state almost surely.  ``seed`` is a non-negative
    integer or a numpy Generator.
    """
    dims = subsystem_dims(dims)
    return DensityOperator(_random_density_matrix(dims, rank, seed), dims)


def _random_density_matrix(dims, rank: int | None = None, seed=0) -> np.ndarray:
    """The matrix of ``random_density``, drawn the same way but not validated,
    for a caller that validates it where it is used."""
    dim = math.prod(dims)
    if rank is None:
        rank = dim
    if not _is_integral(rank, floats=False) or not 1 <= rank <= dim:
        raise ValidationError("bad-rank", f"rank must be an integer in [1, {dim}], got {rank}")
    rng = seeded_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    rho /= rho.trace().real
    return rho


def perturb_positive(rho: DensityOperator, eps: float) -> DensityOperator:
    """Mix with the maximally mixed state: (1 - eps) rho + eps I / d.

    Guarantees a minimum eigenvalue of at least eps / d, which is the usual
    way to move a rank-deficient state into the positive definite cone.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError("bad-spec", f"eps must lie in (0, 1), got {eps}")
    d = rho.dim
    mixed = (1.0 - eps) * rho.matrix + eps * np.eye(d) / d
    return DensityOperator(mixed, rho.dims)


@dataclass(frozen=True, eq=False)
class Decomposed:
    """A matrix handed to the divergences with its decomposition already made.

    Not validated: it pairs an operator positive by construction (a marginal,
    a channel output, a recovered operator) with the decomposition its
    triple or state caches, so the divergences decompose it no second time.
    """

    matrix: np.ndarray
    spectrum: SpectralDecomposition

    root = PositiveOperator.root  # the support read from ``spectrum``

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.eigenvalues

    def _full_support(self) -> bool:
        return bool(self.spectrum.support[0].all())


def operands(*xs) -> list[PositiveOperator | Decomposed]:
    """The divergences' one operand rule: a PositiveOperator or a Decomposed
    as it is, any other matrix validated once as a PositiveOperator; all of
    one shape."""
    ops = [x if isinstance(x, (PositiveOperator, Decomposed)) else PositiveOperator(x) for x in xs]
    shapes = [x.matrix.shape for x in ops]
    if len(set(shapes)) > 1:
        raise DimensionMismatchError(f"shape mismatch {' vs '.join(map(str, shapes))}")
    return ops


def fidelity(rho, sigma) -> float:
    """Fidelity ||sqrt(rho) sqrt(sigma)||_1^2, in [0, 1] for states."""
    rho, sigma = operands(rho, sigma)
    product = rho.spectrum.power(0.5) @ sigma.spectrum.power(0.5)
    return float(alpha_norm(product, 1.0) ** 2)


def trace_distance(a, b) -> float:
    """Trace-norm distance ||A - B||_1 (not halved); neither is validated."""
    am, bm = (np.asarray(getattr(x, "matrix", x), dtype=complex) for x in (a, b))
    if am.shape != bm.shape:
        raise DimensionMismatchError(f"shape mismatch {am.shape} vs {bm.shape}")
    return alpha_norm(am - bm, 1.0)
