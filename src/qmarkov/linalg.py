"""Dense complex Hermitian linear algebra.

Eigendecompositions, matrix functions restricted to the support, tensor
products, partial traces, and Schatten functionals.  Every function here is
pure; matrices are never modified in place.

Conventions: functions of a Hermitian operator act only on its support, as
``support_mask`` defines it, so negative powers are pseudo-inverses on the
support and ``A @ herm_pow(A, -1)`` is the orthogonal projector onto supp(A).
A power of W W† (``gram_pows``) takes its support on W's singular values s,
so it keeps the eigenvalues s^2 above SUPPORT_CUTOFF^2 times the largest.

The stacked forms (``SpectralDecomposition.powers``, ``herm_pows``,
``gram_pows``, ``spectral_norms``, ``stacked_singular_values``) take or
return a (k, d, d) stack and make one numpy call where the two-dimensional forms would make k.
numpy's stacked ``matmul``, ``eigh`` and ``svd`` loop over the slices and
make the same BLAS or LAPACK call on each as on a lone matrix, and every
scalar function is evaluated per slice, so each slice equals its
two-dimensional result bit for bit.  The two-dimensional forms are the
stacks of one.
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


def support_mask(values, axis: int | None = None) -> np.ndarray:
    """Which eigenvalues (or singular values, or ratios of them) are nonzero.

    A value is kept when it exceeds SUPPORT_CUTOFF * max|value|.  A negative
    value is kept only below -POSITIVITY_TOL * max(1, max|value|), so the
    round-off that positivity validation accepts counts as zero.  This is the
    only support cutoff in the package: every power, logarithm, support test
    and Schatten functional reads its support from here.  With ``axis`` the
    maximum is taken along that axis, e.g. per row of a stack of spectra.
    """
    values = np.asarray(values)
    if axis is None:
        # a scalar maximum: the same comparisons without the reduction's dispatch
        top = float(np.abs(values).max()) if values.size else 0.0
        return (values > SUPPORT_CUTOFF * top) | (values < -POSITIVITY_TOL * max(1.0, top))
    top = np.max(np.abs(values), axis=axis, keepdims=True, initial=0.0)
    return (values > SUPPORT_CUTOFF * top) | (values < -POSITIVITY_TOL * np.fmax(1.0, top))


def finite_rows(kepts, fs) -> list[np.ndarray]:
    """``f(kept)`` for each pair of ``kepts`` and ``fs``; each must be finite.

    Raises MatrixFunctionDomainError if an ``f`` is undefined (nan) or
    overflows float64 (+-inf) on a value.  All are evaluated under one error
    state and checked in order, so the first pair with a non-finite value
    raises, as a loop over pairs would.
    """
    with np.errstate(all="ignore"):
        rows = [np.asarray(f(kept), dtype=float) for kept, f in zip(kepts, fs)]
    for kept, fvals in zip(kepts, rows):
        if not np.isfinite(fvals).all():
            nan = np.isnan(fvals)
            if nan.any():
                raise MatrixFunctionDomainError(
                    f"function undefined on retained eigenvalue(s) {kept[nan]}"
                )
            raise MatrixFunctionDomainError(
                f"function overflows float64 on retained eigenvalue(s) {kept[np.isinf(fvals)]}"
            )
    return rows


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
        return self.apply_all((f,))[0]

    def apply_all(self, fs: Sequence[Callable[[np.ndarray], np.ndarray]]) -> np.ndarray:
        """The (k, d, d) stack of ``f`` of the matrix, for each of the k ``fs``.

        Each slice equals ``apply(f)`` bit for bit: every ``f`` is evaluated
        on its own, and the k reconstructions are one stacked matmul.
        """
        _, kept, v = self.support
        fvals = finite_rows([kept] * len(fs), fs)
        return _reconstruct(v, np.reshape(fvals, (len(fs), kept.size)))

    def power(self, p: float) -> np.ndarray:
        """Support-restricted power; ``p = 0`` gives the support projector."""
        return self.powers((p,))[0]

    def powers(self, ps: Sequence[float]) -> np.ndarray:
        """The (k, d, d) stack of support-restricted powers, one per order."""
        return self.apply_all([_power_of(p) for p in ps])

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


def _power_of(p: float) -> Callable[[np.ndarray], np.ndarray]:
    # a scalar exponent: numpy takes its sqrt path at p = 0.5, an array of
    # exponents does not, and the two differ in the last bit
    return lambda x: np.power(x, p)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M†)/2 of a matrix, or of each slice of a (k, d, d) stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def _reconstruct(v: np.ndarray, fvals: np.ndarray) -> np.ndarray:
    """Hermitian part of V diag(f) V†, for each row of ``fvals``.

    ``v`` is (d, r) or a (k, d, r) stack and ``fvals`` is (k, r); the
    result is the (k, d, d) stack, each slice equal bit for bit to its
    two-dimensional product.
    """
    return hermitian_part((v * fvals[:, None, :]) @ v.conj().swapaxes(-1, -2))


def real_traces(stack: np.ndarray) -> np.ndarray:
    """The real part of the trace of each slice of a (k, d, d) stack."""
    return np.trace(stack, axis1=-2, axis2=-1).real


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {a.shape}")
    return a


def _as_stack(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 3:
        raise DimensionMismatchError(f"expected a (k, d, d) stack, got shape {a.shape}")
    return a


def hermitian_eig(m) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized to (M + M†)/2 before the decomposition; a
    relative anti-Hermitian residual above HERMITICITY_TOL raises
    NonHermitianError.
    """
    vals, vecs, rel = _sorted_eigh(_as_matrix(m)[None])
    return SpectralDecomposition(read_only(vals[0]), read_only(vecs[0]), rel[0])


def _inf_norms(a: np.ndarray):
    """The infinity norm, the largest absolute row sum, of a matrix or of each
    slice of a stack: ``np.linalg.norm(m, np.inf)``'s arithmetic, without its
    dispatch."""
    return np.abs(a).sum(-1).max(-1)


def _sorted_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Eigenvalues sorted descending, the matching eigenvectors, and the
    relative anti-Hermitian residual, of each slice of a (k, d, d) stack.

    Each slice is checked, symmetrized and stably sorted on its own, and one
    ``eigh`` decomposes the whole stack.
    """
    if a.shape[1] != a.shape[2]:
        raise DimensionMismatchError(f"matrix is not square: shape {a.shape[1:]}")
    adjoint = a.conj().swapaxes(1, 2)
    scales = _inf_norms(a).tolist()
    residuals = _inf_norms(a - adjoint).tolist()
    rel = []
    for scale, residual in zip(scales, residuals):
        if scale > 0 and residual > HERMITICITY_TOL * scale:
            raise NonHermitianError(
                f"anti-Hermitian residual {residual:.3e} exceeds "
                f"{HERMITICITY_TOL:.1e} * norm {scale:.3e}"
            )
        rel.append(residual / scale if scale > 0 else 0.0)
    vals, vecs = np.linalg.eigh((a + adjoint) / 2)  # hermitian_part(a)
    if (vals[:, 1:] > vals[:, :-1]).all():
        # no ties: the stable descending order is the reverse of eigh's
        return vals[:, ::-1].copy(), vecs[:, :, ::-1].copy(), rel
    order = np.argsort(-vals, axis=1, kind="stable")
    # slice i keeps, as its column j, the column order[i, j] eigh returned;
    # one take per slice costs a third of take_along_axis on a small stack
    sorted_vals, sorted_vecs = np.empty_like(vals), np.empty_like(vecs)
    for v, w, o, sv, sw in zip(vals, vecs, order, sorted_vals, sorted_vecs):
        v.take(o, out=sv)
        w.take(o, axis=1, out=sw)
    return sorted_vals, sorted_vecs, rel


def herm_pow(m, p: float) -> np.ndarray:
    """Fractional power of a Hermitian matrix, restricted to the support.

    ``p = 0`` gives the projector onto the support; negative ``p`` uses the
    support-restricted inverse.
    """
    return herm_pows(_as_matrix(m)[None], (p,))[0]


def herm_pows(stack, ps: Sequence[float]) -> np.ndarray:
    """``herm_pow`` of slice i of a (k, d, d) stack to ``ps[i]``, stacked.

    One ``eigh`` decomposes the stack; each slice keeps its own support and
    evaluates its own power, so slice i equals ``herm_pow(stack[i], ps[i])``
    bit for bit.
    """
    vals, vecs, _ = _sorted_eigh(_as_stack(stack))
    return _support_powers(vals, vecs, ps)


def gram_pows(w, ps: Sequence[float]) -> np.ndarray:
    """(W W†)^p for slice i of a (k, d, n) stack W and p = ``ps[i]``, stacked:
    U diag(s^(2p)) U† from one ``svd`` W = U S V†, on the support of the
    singular values s, so W W† is never formed."""
    u, s, _ = np.linalg.svd(_as_stack(w), full_matrices=False)
    return _support_powers(s, u, [2.0 * p for p in ps])


def _support_powers(values, vectors, ps: Sequence[float]) -> np.ndarray:
    """V diag(v^p) V† for row i of the (k, r) ``values`` and slice i of the
    (k, d, r) ``vectors``, p = ``ps[i]``, on that row's own support."""
    if len(ps) != len(values):
        raise DimensionMismatchError(f"{len(ps)} exponents for a stack of {len(values)}")
    keep = support_mask(values, axis=1)
    fvals = finite_rows([v[m] for v, m in zip(values, keep)], [_power_of(p) for p in ps])
    if keep.all():
        return _reconstruct(vectors, np.reshape(fvals, values.shape))
    # a slice that drops values is rebuilt from its kept vectors alone, as
    # herm_pow rebuilds it: zeros in place of the dropped values would change
    # the inner dimension of the matmul, and with it the summation BLAS uses
    return np.concatenate([
        _reconstruct(v[:, m], f[None]) for v, m, f in zip(vectors, keep, fvals)
    ])


def herm_exp(m) -> np.ndarray:
    """Exponential of a Hermitian matrix over the full spectrum.

    Unlike SpectralDecomposition.apply this does not drop the kernel
    (exp(0) = 1 there), which is the behavior needed for exponentials of
    sums of logarithms.
    """
    dec = hermitian_eig(m)
    return _reconstruct(dec.eigenvectors, np.exp(dec.eigenvalues)[None])[0]


def kron(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m, dims: Sequence[int], traced_out: Iterable[int]) -> np.ndarray:
    """Trace out the listed tensor factors of an operator.

    ``dims`` lists the subsystem dimensions in tensor order; ``traced_out``
    is a set of factor indices.  The remaining factors keep their order, and
    the total trace is preserved.
    """
    a = _as_matrix(m)
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    total = math.prod(dims)
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
    d_kept = math.prod(dims[i] for i in kept)
    return reduced.reshape(d_kept, d_kept)


def embed_operator(x, dims: Sequence[int], sites: Sequence[int]) -> np.ndarray:
    """Extend an operator on a subset of tensor factors by identity elsewhere.

    ``sites`` are the (ascending) factor indices that ``x`` acts on; the
    result acts on the full tensor product in natural factor order.  ``x``
    may also be a (k, d, d) stack, which is embedded slice by slice.
    """
    a = np.asarray(x, dtype=complex)
    if a.ndim not in (2, 3):
        raise DimensionMismatchError(f"expected a matrix or a stack, got shape {a.shape}")
    dims = tuple(int(d) for d in dims)
    sites = tuple(int(s) for s in sites)
    if sorted(sites) != list(sites) or len(set(sites)) != len(sites):
        raise DimensionMismatchError(f"sites must be strictly ascending, got {sites}")
    d_sites = math.prod(dims[s] for s in sites)
    if a.shape[-2:] != (d_sites, d_sites):
        raise DimensionMismatchError(
            f"operator shape {a.shape[-2:]} does not match site dims product {d_sites}"
        )
    rest = [i for i in range(len(dims)) if i not in sites]
    total = math.prod(dims)
    # index[s, r]: the natural-order basis index with site part s and rest part r
    index = np.arange(total).reshape(dims).transpose(list(sites) + rest).reshape(d_sites, -1)
    out = np.zeros(a.shape[:-2] + (total, total), dtype=complex)
    out[..., index[:, None, :], index[None, :, :]] = a[..., :, :, None]
    return out


def singular_values(x) -> np.ndarray:
    """Singular values on the support, descending."""
    return stacked_singular_values(_as_matrix(x)[None])[0]


def stacked_singular_values(stack) -> list[np.ndarray]:
    """``singular_values`` of each slice of a (k, m, n) stack, in one ``svd``."""
    svs = np.linalg.svd(_as_stack(stack), compute_uv=False)
    return [sv[keep] for sv, keep in zip(svs, support_mask(svs, axis=-1))]


def log2_power_sum(values, p: float) -> float:
    """log2 of the sum of v^p over the kept ``values``, without overflow.

    Evaluated as p log2 v_max + log2 sum (v / v_max)^p, so it stays finite for
    any order p; -inf when no value is kept or the sum is not positive.
    Raises MatrixFunctionDomainError where v^p is undefined on a kept value.
    """
    values = np.asarray(values, dtype=float)
    top = float(values.max()) if values.size else 0.0
    if top <= 0.0:
        return -math.inf
    (scaled,) = finite_rows((values[support_mask(values)],), (lambda v: (v / top) ** p,))
    total = float(scaled.sum())
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


def spectral_norm(x) -> float:
    """Schatten infinity-norm (largest singular value)."""
    return spectral_norms(_as_matrix(x)[None])[0]


def spectral_norms(stack) -> list[float]:
    """``spectral_norm`` of each slice of a (k, m, n) stack, in one ``svd``."""
    sv = np.linalg.svd(_as_stack(stack), compute_uv=False)
    return [float(s[0]) if s.size else 0.0 for s in sv]
