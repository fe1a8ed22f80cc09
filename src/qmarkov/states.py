"""Density operators and positive operators with subsystem structure.

An operator is validated once, on construction, and caches its full
eigendecomposition on first use, so every power and logarithm of it is read
from one ``hermitian_eig``.  The cache lives as long as the object; the
matrix, the eigenvalues and the decomposition are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import (
    POSITIVITY_TOL,
    SpectralDecomposition,
    alpha_norm,
    hermitian_eig,
    read_only,
)

TRACE_TOL = 1e-10


def _check_dims(matrix: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DimensionMismatchError(f"subsystem dimensions must be >= 1, got {dims}")
    total = int(np.prod(dims))
    if matrix.shape != (total, total):
        raise DimensionMismatchError(
            f"dims {dims} imply shape {(total, total)}, got {matrix.shape}"
        )
    return dims


def _validated_eigs(matrix: np.ndarray, tol: float) -> np.ndarray:
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("not-finite", "matrix entries must be finite")
    scale = np.linalg.norm(matrix, np.inf)
    residual = np.linalg.norm(matrix - matrix.conj().T, np.inf)
    if scale > 0 and residual > tol * scale:
        raise ValidationError(
            "not-hermitian", f"Hermiticity residual {residual:.3e} above tolerance"
        )
    eigs = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2)
    if eigs.size and eigs[0] < -tol * max(1.0, abs(eigs[-1])):
        raise ValidationError(
            "not-positive", f"negative eigenvalue {eigs[0]:.3e} below tolerance"
        )
    return eigs


@dataclass(frozen=True, eq=False)
class PositiveOperator:
    """Hermitian positive semidefinite operator; trace is unconstrained.

    Validation computes the eigenvalues only (``eigenvalues``); the full
    decomposition (``spectrum``) is computed on first use and cached.
    """

    matrix: np.ndarray
    dims: tuple[int, ...] = field(default=())
    atol: float = POSITIVITY_TOL

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=complex))
        dims = self.dims if self.dims else (m.shape[0],)
        dims = _check_dims(m, dims)
        eigs = _validated_eigs(m, self.atol)
        object.__setattr__(self, "matrix", read_only(m.view()))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_eigs", read_only(eigs))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues, ascending, as validation computed them."""
        return self._eigs

    @cached_property
    def spectrum(self) -> SpectralDecomposition:
        """The eigendecomposition of ``matrix``, computed once."""
        return hermitian_eig(self.matrix)

    def is_positive_definite(self, tol: float = POSITIVITY_TOL) -> bool:
        return bool(self._eigs[0] > tol)

    @property
    def rank_deficient(self) -> bool:
        return not self.is_positive_definite()


@dataclass(frozen=True, eq=False)
class DensityOperator(PositiveOperator):
    """Unit-trace positive semidefinite operator (a quantum state)."""

    def __post_init__(self):
        super().__post_init__()
        tr = float(np.trace(self.matrix).real)
        if abs(tr - 1.0) > max(self.atol, TRACE_TOL):
            raise ValidationError("not-normalized", f"trace is {tr!r}, expected 1")


def validate_density(matrix, dims=None, tol: float = POSITIVITY_TOL) -> DensityOperator:
    """Check Hermiticity, positivity, and normalization; return the typed state.

    Raises ValidationError with ``reason`` identifying the failed check.  The
    returned object reports positive definiteness (all eigenvalues > tol)
    through ``is_positive_definite``.
    """
    m = np.asarray(matrix, dtype=complex)
    if dims is None:
        dims = (m.shape[0],)
    return DensityOperator(m, tuple(dims), atol=tol)


def random_density(dims, rank: int | None = None, seed=0) -> DensityOperator:
    """Seeded random state G G† / Tr{G G†} with G complex Gaussian dim x rank.

    Deterministic per seed; rank defaults to the full dimension, which gives
    a positive definite state almost surely.
    """
    dims = tuple(int(d) for d in dims)
    dim = int(np.prod(dims))
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise ValidationError("bad-rank", f"rank must be in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    rho /= np.trace(rho).real
    return DensityOperator(rho, dims)


def perturb_positive(rho: DensityOperator, eps: float) -> DensityOperator:
    """Mix with the maximally mixed state: (1 - eps) rho + eps I / d.

    Guarantees a minimum eigenvalue of at least eps / d, which is the usual
    way to move a rank-deficient state into the positive definite cone.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    d = rho.dim
    mixed = (1.0 - eps) * rho.matrix + eps * np.eye(d) / d
    return DensityOperator(mixed, rho.dims)


@dataclass(frozen=True, eq=False)
class Decomposed:
    """A matrix handed to the divergences with its decomposition already made.

    Not validated: it pairs an operator that is positive by construction (a
    channel output, a recovered operator) with the decomposition its triple
    or state caches, so the divergences decompose it no second time.
    """

    matrix: np.ndarray
    spectrum: SpectralDecomposition


def spectrum_of(x) -> SpectralDecomposition:
    """The cached decomposition of a PositiveOperator or Decomposed, else a fresh one."""
    if isinstance(x, (PositiveOperator, Decomposed)):
        return x.spectrum
    return hermitian_eig(x.matrix if hasattr(x, "matrix") else x)


def fidelity(rho, sigma) -> float:
    """Fidelity ||sqrt(rho) sqrt(sigma)||_1^2, in [0, 1] for states."""
    a = rho.matrix if hasattr(rho, "matrix") else np.asarray(rho, dtype=complex)
    b = sigma.matrix if hasattr(sigma, "matrix") else np.asarray(sigma, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    product = spectrum_of(rho).power(0.5) @ spectrum_of(sigma).power(0.5)
    return float(alpha_norm(product, 1.0) ** 2)


def trace_distance(a, b) -> float:
    """Trace-norm distance ||A - B||_1 (not halved)."""
    am = a.matrix if hasattr(a, "matrix") else np.asarray(a, dtype=complex)
    bm = b.matrix if hasattr(b, "matrix") else np.asarray(b, dtype=complex)
    if am.shape != bm.shape:
        raise DimensionMismatchError(f"shape mismatch {am.shape} vs {bm.shape}")
    return alpha_norm(am - bm, 1.0)
