"""Dense complex Hermitian linear algebra.

Eigendecompositions, matrix functions restricted to the support, tensor
products, partial traces, and Schatten functionals.  Every function here is
pure; matrices are never modified in place.

Conventions: functions of a Hermitian operator act only on its support, as
``support_mask`` defines it, so negative powers are pseudo-inverses on the
support and ``A @ herm_pow(A, -1)`` is the orthogonal projector onto supp(A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    MatrixFunctionDomainError,
    NonHermitianError,
)

LOG2 = math.log(2.0)

SUPPORT_CUTOFF = 1e-12
POSITIVITY_TOL = 1e-10  # negative eigenvalues validation accepts as round-off
HERMITICITY_TOL = 1e-10


def support_mask(values) -> np.ndarray:
    """Which eigenvalues (or singular values, or ratios of them) are nonzero.

    A value is kept when it exceeds SUPPORT_CUTOFF * max|value|.  A negative
    value is kept only below -POSITIVITY_TOL * max(1, max|value|), so the
    round-off that positivity validation accepts counts as zero.  This is the
    only support cutoff in the package: every power, logarithm, support test
    and Schatten functional reads its support from here.
    """
    values = np.asarray(values)
    top = float(np.max(np.abs(values))) if values.size else 0.0
    return (values > SUPPORT_CUTOFF * top) | (values < -POSITIVITY_TOL * max(1.0, top))


def on_support(values, f: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The support mask of ``values`` and ``f`` evaluated on the kept values."""
    keep = support_mask(values)
    return keep, finite_values(values[keep], f)


def finite_values(kept: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``f`` evaluated on ``kept``, which must give finite values.

    Raises MatrixFunctionDomainError if ``f`` is undefined (nan) or
    overflows float64 (+-inf) on a value.
    """
    with np.errstate(all="ignore"):
        fvals = np.asarray(f(kept), dtype=float)
    if not np.isfinite(fvals).all():
        nan = np.isnan(fvals)
        if nan.any():
            raise MatrixFunctionDomainError(
                f"function undefined on retained eigenvalue(s) {kept[nan]}"
            )
        raise MatrixFunctionDomainError(
            f"function overflows float64 on retained eigenvalue(s) {kept[np.isinf(fvals)]}"
        )
    return fvals


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix, eigenvalues sorted descending.

    Both arrays are read-only: operators cache their decomposition and read
    every power and logarithm from it.  The support (``support``) is also
    computed once, on first use, so a matrix function costs one scaled
    matmul plus the finiteness check of its values.  Nothing that depends on
    the function is cached: a per-order cache would grow with every order of
    a sweep.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, aligned with eigenvalues
    hermiticity_residual: float

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The support mask, the kept eigenvalues and the kept eigenvectors.

        When nothing is dropped the kept arrays are the decomposition's own,
        not copies.
        """
        keep = support_mask(self.eigenvalues)
        if keep.all():
            return keep, self.eigenvalues, self.eigenvectors
        return keep, read_only(self.eigenvalues[keep]), read_only(self.eigenvectors[:, keep])

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """``f`` of the matrix on its support, zero on the kernel.

        Kernel eigenvalues are mapped to zero without evaluating ``f``, so
        e.g. f(x) = 1/x yields the pseudo-inverse.
        """
        _, kept, v = self.support
        out = (v * finite_values(kept, f)) @ v.conj().T
        return (out + out.conj().T) / 2

    def power(self, p: float) -> np.ndarray:
        """Support-restricted power; ``p = 0`` gives the support projector."""
        return self.apply(lambda x: np.power(x, p))

    def supports(self, a) -> bool:
        """Whether supp(a) lies in the support of this matrix, for PSD ``a``."""
        keep = self.support[0]
        if keep.all():
            return True
        kernel = self.eigenvectors[:, ~keep]
        weight = float(np.real(np.trace(kernel.conj().T @ a @ kernel)))
        return weight <= POSITIVITY_TOL * max(1.0, float(np.trace(a).real))


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it, so a cached array cannot go stale."""
    a.flags.writeable = False
    return a


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {a.shape}")
    return a


def hermitian_eig(m) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized to (M + M†)/2 before the decomposition; a
    relative anti-Hermitian residual above HERMITICITY_TOL raises
    NonHermitianError.
    """
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"matrix is not square: shape {a.shape}")
    scale = np.linalg.norm(a, np.inf)
    residual = np.linalg.norm(a - a.conj().T, np.inf)
    if scale > 0 and residual > HERMITICITY_TOL * scale:
        raise NonHermitianError(
            f"anti-Hermitian residual {residual:.3e} exceeds "
            f"{HERMITICITY_TOL:.1e} * norm {scale:.3e}"
        )
    sym = (a + a.conj().T) / 2
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(-vals, kind="stable")
    rel = residual / scale if scale > 0 else 0.0
    return SpectralDecomposition(
        read_only(vals[order]), read_only(vecs[:, order]), float(rel)
    )


def matrix_function(m, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix on its support only.

    Raises MatrixFunctionDomainError if ``f`` is undefined (nan/inf) on a
    retained eigenvalue.
    """
    return hermitian_eig(m).apply(f)


def herm_pow(m, p: float) -> np.ndarray:
    """Fractional power of a Hermitian matrix, restricted to the support.

    ``p = 0`` gives the projector onto the support; negative ``p`` uses the
    support-restricted inverse.
    """
    return hermitian_eig(m).power(p)


def herm_log(m) -> np.ndarray:
    """Natural logarithm on the support of a Hermitian PSD matrix."""
    return matrix_function(m, np.log)


def herm_log2(m) -> np.ndarray:
    """Base-2 logarithm on the support of a Hermitian PSD matrix."""
    return matrix_function(m, np.log2)


def herm_exp(m) -> np.ndarray:
    """Exponential of a Hermitian matrix over the full spectrum.

    Unlike matrix_function this does not drop the kernel (exp(0) = 1 there),
    which is the behavior needed for exponentials of sums of logarithms.
    """
    dec = hermitian_eig(m)
    v = dec.eigenvectors
    out = (v * np.exp(dec.eigenvalues)) @ v.conj().T
    return (out + out.conj().T) / 2


def kron(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(*ops) -> np.ndarray:
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def partial_trace(m, dims: Sequence[int], traced_out: Iterable[int]) -> np.ndarray:
    """Trace out the listed tensor factors of an operator.

    ``dims`` lists the subsystem dimensions in tensor order; ``traced_out``
    is a set of factor indices.  The remaining factors keep their order, and
    the total trace is preserved.
    """
    a = _as_matrix(m)
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    total = int(np.prod(dims))
    if a.shape != (total, total):
        raise DimensionMismatchError(
            f"dims {dims} imply shape {(total, total)}, got {a.shape}"
        )
    traced = sorted(set(int(i) for i in traced_out))
    if any(i < 0 or i >= n for i in traced):
        raise DimensionMismatchError(f"traced_out {traced} out of range for {n} factors")
    kept = [i for i in range(n) if i not in traced]
    if not kept:
        return np.array([[np.trace(a)]], dtype=complex)

    t = a.reshape(dims + dims)
    row = [chr(ord("a") + i) for i in range(n)]
    col = [chr(ord("A") + i) for i in range(n)]
    for i in traced:
        col[i] = row[i]
    src = "".join(row) + "".join(col)
    dst = "".join(row[i] for i in kept) + "".join(col[i] for i in kept)
    reduced = np.einsum(f"{src}->{dst}", t)
    d_kept = int(np.prod([dims[i] for i in kept]))
    return reduced.reshape(d_kept, d_kept)


def embed_operator(x, dims: Sequence[int], sites: Sequence[int]) -> np.ndarray:
    """Extend an operator on a subset of tensor factors by identity elsewhere.

    ``sites`` are the (ascending) factor indices that ``x`` acts on; the
    result acts on the full tensor product in natural factor order.
    """
    a = _as_matrix(x)
    dims = tuple(int(d) for d in dims)
    sites = tuple(int(s) for s in sites)
    if sorted(sites) != list(sites) or len(set(sites)) != len(sites):
        raise DimensionMismatchError(f"sites must be strictly ascending, got {sites}")
    d_sites = int(np.prod([dims[s] for s in sites]))
    if a.shape != (d_sites, d_sites):
        raise DimensionMismatchError(
            f"operator shape {a.shape} does not match site dims product {d_sites}"
        )
    rest = [i for i in range(len(dims)) if i not in sites]
    total = int(np.prod(dims))
    # index[s, r]: the natural-order basis index with site part s and rest part r
    index = np.arange(total).reshape(dims).transpose(list(sites) + rest).reshape(d_sites, -1)
    out = np.zeros((total, total), dtype=complex)
    out[index[:, None, :], index[None, :, :]] = a[:, :, None]
    return out


def singular_values(x) -> np.ndarray:
    """Singular values on the support, descending."""
    sv = np.linalg.svd(_as_matrix(x), compute_uv=False)
    return sv[support_mask(sv)]


def log2_power_sum(values, p: float) -> float:
    """log2 of the sum of v^p over the kept ``values``, without overflow.

    Evaluated as p log2 v_max + log2 sum (v / v_max)^p, so it stays finite for
    any order p; -inf when no value is kept or the sum is not positive.
    Raises MatrixFunctionDomainError where v^p is undefined on a kept value.
    """
    values = np.asarray(values, dtype=float)
    top = float(np.max(values)) if values.size else 0.0
    if top <= 0.0:
        return -math.inf
    _, scaled = on_support(values, lambda v: (v / top) ** p)
    total = float(np.sum(scaled))
    if total <= 0.0:
        return -math.inf
    return p * math.log2(top) + math.log2(total)


def alpha_norm(x, alpha: float) -> float:
    """Schatten functional [Tr |X|^alpha]^(1/alpha) with |X| = sqrt(X†X).

    For alpha >= 1 this is the Schatten norm; for alpha in (0, 1) it is the
    corresponding quasi-norm (same formula, no triangle inequality).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return float(2.0 ** (log2_power_sum(singular_values(x), alpha) / alpha))


def trace_norm(x) -> float:
    """Schatten 1-norm (sum of singular values)."""
    return alpha_norm(x, 1.0)


def spectral_norm(x) -> float:
    """Schatten infinity-norm (largest singular value)."""
    sv = np.linalg.svd(_as_matrix(x), compute_uv=False)
    return float(sv[0]) if sv.size else 0.0


def hs_inner(c, d) -> complex:
    """Hilbert-Schmidt inner product Tr{C† D}."""
    cm, dm = _as_matrix(c), _as_matrix(d)
    if cm.shape != dm.shape:
        raise DimensionMismatchError(f"shape mismatch {cm.shape} vs {dm.shape}")
    return complex(np.vdot(cm, dm))
