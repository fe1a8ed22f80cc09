"""Dense complex Hermitian linear algebra.

Eigendecompositions, matrix functions restricted to the support, tensor
products, partial traces, and Schatten functionals.  Every function here is
pure: no argument is modified in place.

Conventions: functions of a Hermitian operator act only on its support, as
``support_mask`` defines it, so negative powers are pseudo-inverses on the
support and ``A @ herm_pow(A, -1)`` is the orthogonal projector onto supp(A).
A power of W W† (``gram_pows``) takes its support on W's singular values s,
so it keeps the eigenvalues s^2 above SUPPORT_CUTOFF^2 times the largest.

Only what an order grid evaluates is stacked: ``SpectralDecomposition.powers``
(many powers of one cached decomposition), ``gram_pows`` and
``spectral_norms`` (one ``svd`` per chunk of closings), ``real_traces`` and
``hermitian_part``.  Each takes or returns a (k, d, d) stack and makes one
numpy call where a loop would make k.  numpy's stacked ``matmul`` and
``svd`` make the same BLAS or LAPACK call on each slice as on a lone
matrix.  An order reaches numbers only through ``finite_powers``, which
raises each row of values to its scalar exponent in its own call, so each
slice equals its two-dimensional result bit for bit.  A stack holds all k
slices at once, so the Renyi differences stack their Kraus-block products
only in chunks of at most ``measures.GRID_CHUNK_ENTRIES`` entries, or one
order per call when a product is larger.  Everything else, the Hermiticity
rule included, takes one matrix.  The eigensolver ``hermitian_eig`` takes
one matrix too, but decomposes it block by block when its exact nonzero
pattern splits, as the CMI triple's sigma = rho_AC x I_B does into d_B
copies of rho_AC (``sorted_eigh``): the blocks of each size go to one
stacked ``eigh``, from order EIGH_SPLIT_MIN on, and stay blocks, so U c,
U† x and <u_j|a|u_j> take one stacked matmul per block size (``BlockMatrix``).

Validation and the decomposition of an unvalidated matrix apply one
Hermiticity rule, ``checked_hermitian_part``, so both reject the same
matrices with the same NonHermitianError; a validated operator is not
checked twice (``sorted_eigh``).  The residual M - M† and the Hermitian
part (M + M†)/2 are read from a C-contiguous copy of M† (``_adjoint``),
summed in place: the swapped view M.conj().T is read across its rows,
which costs several times a contiguous add at d = 512.
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
    ValidationError,
)

SUPPORT_CUTOFF = 1e-12
POSITIVITY_TOL = 1e-10  # negative eigenvalues validation accepts as round-off
HERMITICITY_TOL = 1e-10  # relative anti-Hermitian residual the one rule accepts
# order from which sorted_eigh looks for blocks: the measured crossover,
# below which one eigh beats finding and decomposing the blocks
EIGH_SPLIT_MIN = 64


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


def _is_integral(x, floats: bool = True) -> bool:
    """An integer, or if ``floats`` an integral float such as 2.0; no bool."""
    return (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            or floats and isinstance(x, (float, np.floating)) and float(x).is_integer())


def check_count(value, name: str, low: int = 1) -> None:
    """A count, such as a dimension or a number of trials, is an integer (not
    a bool or a float) of at least ``low``; else ValidationError("bad-spec")."""
    if not _is_integral(value, floats=False) or value < low:
        raise ValidationError("bad-spec", f"{name} must be an integer >= {low}, got {value}")


def subsystem_dims(dims, shape=None) -> tuple[int, ...]:
    """``dims`` as Python ints, by the one rule for subsystem dimensions: an
    integer or an integral float such as 2.0 counts, as in a state file.  A
    bool, a fraction, a string or a dimension below 1 raises
    DimensionMismatchError, and so does a matrix ``shape`` other than (d, d)
    for d the product of the dims, when one is given."""
    dims = tuple(dims)
    if not all(_is_integral(d) for d in dims):
        raise DimensionMismatchError(f"subsystem dimensions must be integers, got {dims}")
    if any(d < 1 for d in dims):
        raise DimensionMismatchError(f"subsystem dimensions must be >= 1, got {dims}")
    dims = tuple(int(d) for d in dims)
    total = math.prod(dims)
    if shape is not None and shape != (total, total):
        raise DimensionMismatchError(f"dims {dims} imply shape {(total, total)}, got {shape}")
    return dims


def factor_indices(indices, n: int) -> tuple[int, ...]:
    """``indices`` as Python ints, by the integer test of ``subsystem_dims``:
    a bool, a fraction, a string or an index outside range(n) raises
    DimensionMismatchError."""
    indices = tuple(indices)
    if not all(_is_integral(i) for i in indices):
        raise DimensionMismatchError(f"factor indices must be integers, got {indices}")
    indices = tuple(int(i) for i in indices)
    if not all(0 <= i < n for i in indices):
        raise DimensionMismatchError(f"factor indices {indices} out of range for {n} factors")
    return indices


def finite_rows(kepts, fs) -> list[np.ndarray]:
    """``f(kept)`` for each pair of ``kepts`` and ``fs``, evaluated under one
    error state and checked at once: if a value is undefined (nan) or
    overflows float64 (+-inf), MatrixFunctionDomainError names the first
    such row, as a loop over pairs would."""
    with np.errstate(all="ignore"):
        rows = [np.asarray(f(kept), dtype=float) for kept, f in zip(kepts, fs)]
    if rows and not np.isfinite(np.concatenate(rows)).all():
        _raise_first_non_finite(kepts, rows)
    return rows


def finite_powers(values, ps) -> np.ndarray:
    """The (k, n) array whose row i is ``np.power(values, ps[i])``, for an
    (n,) ``values`` or, row by row, a (k, n) one, checked as ``finite_rows``.
    The one place an order becomes numbers: each row is one call with a
    scalar exponent, because numpy takes its sqrt path at p = 0.5 and an
    array of exponents does not, and the two differ in the last bit."""
    values = np.asarray(values, dtype=float)
    rows = np.empty((len(ps), values.shape[-1]))
    kepts = values if values.ndim > 1 else [values] * len(ps)
    with np.errstate(all="ignore"):
        for row, x, p in zip(rows, kepts, ps):
            np.power(x, p, out=row)
    if not np.isfinite(rows).all():
        _raise_first_non_finite(kepts, rows)
    return rows


def _raise_first_non_finite(kepts, rows) -> None:
    """Raise MatrixFunctionDomainError naming the first of ``rows``, the
    values of a function on ``kepts``, that is not finite."""
    for kept, fvals in zip(kepts, rows):
        nan, inf = np.isnan(fvals), np.isinf(fvals)
        if nan.any() or inf.any():
            what, where = ("undefined", nan) if nan.any() else ("overflows float64", inf)
            raise MatrixFunctionDomainError(
                f"function {what} on retained eigenvalue(s) {kept[where]}")


@dataclass(frozen=True, eq=False)
class BlockMatrix:
    """A matrix of ``shape``, zero outside blocks with disjoint rows and
    disjoint columns, grouped by block shape: in (r, c, b) block j is b[j] on
    rows r[j] and columns c[j].  Its products make one stacked matmul per
    group, so the zeros outside the blocks are never multiplied."""

    shape: tuple[int, int]
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """M x for a (..., shape[1], n) ``x``."""
        products = [(rows, b @ x[..., cols, :]) for rows, cols, b in self.groups]
        out = np.zeros(x.shape[:-2] + (self.shape[0], x.shape[-1]), dtype=complex)
        for rows, p in products:  # out last: one product array fewer at the peak
            out[..., rows, :] = p
        return out

    @cached_property
    def adjoint(self) -> BlockMatrix:
        return BlockMatrix(self.shape[::-1], tuple((c, r, read_only(_adjoint(b)))
                                                   for r, c, b in self.groups))

    def left_product(self, k: np.ndarray) -> BlockMatrix | None:
        """K M, block j trimmed to K[o_j, r_j] b[j] for o_j the rows where K[:, r_j]
        is not exactly zero; None unless the o_j are disjoint, of one size per group."""
        owners = np.zeros(k.shape[0], dtype=np.intp)
        groups = []
        for rows, cols, b in self.groups:
            live = (k[:, rows] != 0).any(-1).T  # (blocks, rows of K)
            owners += live.sum(0)
            if len(set(live.sum(1).tolist())) > 1 or owners.max() > 1:
                return None
            out = live.nonzero()[1].reshape(len(rows), -1)
            groups.append((out, cols, read_only(k[out[:, :, None], rows[:, None, :]] @ b)))
        return BlockMatrix((k.shape[0], self.shape[1]), tuple(groups))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix, eigenvalues sorted descending.

    ``basis`` holds the eigenvectors as columns: a dense d x d array, or the
    ``BlockMatrix`` of the block eigenvectors when ``sorted_eigh`` went block
    by block.  ``u_dot``, ``uh_dot`` and ``expectations`` then read the kept
    eigenvectors block by block, unless the support drops an eigenvalue;
    every other reader takes ``eigenvectors``, scattered on first read.
    Equal eigenvalues keep eigh's order within a block, and the block with
    the smaller first index comes first.

    The arrays are read-only: operators cache their decomposition and read
    every power and logarithm from it, and the support (``support``) once.
    Nothing that depends on the function is cached: a per-order cache would
    grow with every order of a sweep.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray | BlockMatrix  # columns, aligned with eigenvalues

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        b = self.basis
        return b if isinstance(b, np.ndarray) else read_only(b @ np.eye(b.shape[1]))

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """The support mask and the kept eigenvalues (not a copy if all are)."""
        keep = support_mask(self.eigenvalues)
        return keep, self.eigenvalues if keep.all() else read_only(self.eigenvalues[keep])

    @cached_property
    def kept_vectors(self) -> np.ndarray:
        keep, kept = self.support
        v = self.eigenvectors
        return v if kept.size == keep.size else read_only(v[:, keep])

    def keeps_blocks(self) -> bool:
        """Whether U is read block by block: blocked, and no eigenvalue dropped."""
        return isinstance(self.basis, BlockMatrix) and self.support[1].size == self.basis.shape[1]

    def u_dot(self, c: np.ndarray) -> np.ndarray:
        """U c for a (..., rank, n) ``c``."""
        return (self.basis if self.keeps_blocks() else self.kept_vectors) @ c

    def uh_dot(self, x: np.ndarray) -> np.ndarray:
        """U† x for a (..., d, n) ``x``."""
        return self.basis.adjoint @ x if self.keeps_blocks() else self.kept_vectors.conj().T @ x

    def expectations(self, a: np.ndarray) -> np.ndarray:
        """Re <u_j|a|u_j> for the kept eigenvectors u_j, each read on its block."""
        if not self.keeps_blocks():
            return (self.kept_vectors.conj() * (a @ self.kept_vectors)).sum(axis=0).real
        out = np.empty(len(self.eigenvalues))
        for rows, cols, b in self.basis.groups:
            out[cols] = (b.conj() * (a[rows[:, :, None], rows[:, None, :]] @ b)).sum(-2).real
        return out

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """``f`` of the matrix on its support, zero on the kernel.

        Kernel eigenvalues are mapped to zero without evaluating ``f``, so
        e.g. f(x) = 1/x yields the pseudo-inverse.
        """
        return _reconstruct(self.kept_vectors, finite_rows(self.support[1:], (f,))[0][None])[0]

    def power(self, p: float) -> np.ndarray:
        """Support-restricted power; ``p = 0`` gives the support projector."""
        return self.powers((p,))[0]

    def powers(self, ps: Sequence[float]) -> np.ndarray:
        """The (k, d, d) stack of support-restricted powers, one per order."""
        return _reconstruct(self.kept_vectors, finite_powers(self.support[1], ps))

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


def _adjoint(m: np.ndarray) -> np.ndarray:
    """M† of a matrix, or of each slice of a stack, as a new C-contiguous
    array: one strided copy, then a contiguous conjugation in place.  Sums
    with it read both operands contiguously, where the swapped view M.conj().T
    would be read across its rows."""
    a = m.swapaxes(-1, -2).copy()
    return np.conjugate(a, out=a)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M†)/2 of a matrix, or of each slice of a (k, d, d) stack, formed
    in place on the contiguous adjoint; IEEE addition commutes, so it equals
    (M + M.conj().T) / 2 bit for bit."""
    return _halved_sum(_adjoint(m), m)


def _halved_sum(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(A + M)/2, written over ``a``."""
    a += m
    a /= 2
    return a


def _inf_norms(a: np.ndarray):
    """The infinity norm, the largest absolute row sum, of a matrix or of each
    slice of a stack: ``np.linalg.norm(m, np.inf)``'s arithmetic, without its
    dispatch."""
    return np.abs(a).sum(-1).max(-1)


def checked_hermitian_part(m: np.ndarray) -> tuple[np.ndarray, float]:
    """(M + M†)/2 and ||M||_inf of a nonempty matrix.

    The one Hermiticity rule: a residual ||M - M†||_inf above
    HERMITICITY_TOL * ||M||_inf raises NonHermitianError.  The norm is
    finite exactly when every entry is (and their row sums do not
    overflow); when it is not, ValidationError("not-finite") is raised
    before any difference is formed.  The Hermitian part equals
    ``hermitian_part(m)``.
    """
    scale = float(_inf_norms(m))
    if not math.isfinite(scale):
        raise ValidationError("not-finite", "matrix entries must be finite")
    adj = _adjoint(m)
    residual = float(_inf_norms(m - adj))
    if scale > 0 and residual > HERMITICITY_TOL * scale:
        raise NonHermitianError(
            f"anti-Hermitian residual {residual:.3e} exceeds "
            f"{HERMITICITY_TOL:.1e} * norm {scale:.3e}"
        )
    return _halved_sum(adj, m), scale


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
    """Eigendecomposition of a Hermitian matrix, eigenvalues stably sorted
    descending (``sorted_eigh``).

    The input is checked and symmetrized by ``checked_hermitian_part``
    before the decomposition: a non-finite entry raises
    ValidationError("not-finite"), and an empty or non-square matrix
    DimensionMismatchError.
    """
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1] or not a.size:
        raise DimensionMismatchError(f"expected a nonempty square matrix, got shape {a.shape}")
    return sorted_eigh(checked_hermitian_part(a)[0])


def sorted_eigh(h: np.ndarray) -> SpectralDecomposition:
    """``hermitian_eig`` of a matrix the rule has accepted, given as its
    Hermitian part: nothing is checked again.

    A matrix of order at least EIGH_SPLIT_MIN whose exact nonzero pattern
    splits into blocks (``_blocks``) is decomposed block by block, with one
    stacked ``eigh`` per block size, into a ``BlockMatrix`` basis.  Any
    other matrix takes one ``eigh``.  Either way the eigenvalues are stably
    sorted descending from eigh's ascending output, the blocks' spectra
    concatenated in block order: equal eigenvalues keep eigh's order within
    a block, and the block with the smaller first index comes first.
    """
    blocks = _blocks(h) if h.shape[0] >= EIGH_SPLIT_MIN else None
    if blocks is not None:
        vals, basis = _blockwise_eigh(h, blocks)
        return SpectralDecomposition(read_only(vals), basis)
    vals, vecs = np.linalg.eigh(h)
    if (vals[1:] > vals[:-1]).all():
        # no ties: the stable descending order is the reverse of eigh's
        vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy()
    else:
        order = np.argsort(-vals, kind="stable")
        vals, vecs = vals[order], vecs.take(order, axis=1)  # C-contiguous, unlike vecs[:, order]
    return SpectralDecomposition(read_only(vals), read_only(vecs))


def _blocks(h: np.ndarray) -> list[np.ndarray] | None:
    """The connected components of the nonzero pattern of a Hermitian
    matrix, as ascending index arrays in the order of their first index, or
    None when the pattern is connected.

    A row with no nonzero entry off the diagonal is a block of its own; the
    other blocks are found by a breadth-first search over the rows of the
    pattern, which reads each row once, when its index joins the frontier.
    So labelling costs O(n^2) whatever the pattern's diameter, and a matrix
    whose first row has no zero is settled by that row.
    """
    if (h[0] != 0).all():
        return None
    n = h.shape[0]
    pattern = h != 0
    pattern[np.diag_indices(n)] = False
    unseen = pattern.any(1)
    blocks = [np.array([i]) for i in (~unseen).nonzero()[0]]
    left = np.count_nonzero(unseen)
    while left:
        start = int(unseen.argmax())
        unseen[start] = False
        left -= 1
        frontier = np.array([start])
        reached = [frontier]
        while frontier.size and left:
            frontier = (pattern[frontier].any(0) & unseen).nonzero()[0]
            unseen[frontier] = False
            left -= frontier.size
            reached.append(frontier)
        blocks.append(np.sort(np.concatenate(reached)))
    if len(blocks) == 1:
        return None
    blocks.sort(key=lambda b: b[0])
    return blocks


def _blockwise_eigh(h: np.ndarray, blocks: list[np.ndarray]) -> tuple[np.ndarray, BlockMatrix]:
    """The descending eigenvalues and the eigenvector basis of ``h`` from one
    stacked ``eigh`` per block size, ordered as ``sorted_eigh`` states."""
    n = h.shape[0]
    sizes = np.array([b.size for b in blocks])
    first = np.cumsum(sizes) - sizes  # slot of each block's first eigenvalue
    vals = np.empty(n)
    groups = []
    for size in sorted(set(sizes.tolist())):  # np.unique would import numpy.ma, 0.5 MB
        which = np.flatnonzero(sizes == size)
        rows = np.stack([blocks[i] for i in which])  # (k, size)
        w, v = np.linalg.eigh(h[rows[:, :, None], rows[:, None, :]])
        slots = first[which, None] + np.arange(size)
        vals[slots] = w
        groups.append((rows, slots, read_only(v)))
    order = np.argsort(-vals, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    return vals[order], BlockMatrix((n, n), tuple((r, rank[s], v) for r, s, v in groups))


def herm_pow(m, p: float) -> np.ndarray:
    """Fractional power of a Hermitian matrix, restricted to the support.

    ``p = 0`` gives the projector onto the support; negative ``p`` uses the
    support-restricted inverse.
    """
    return hermitian_eig(m).power(p)


def gram_pows(w, ps: Sequence[float]) -> np.ndarray:
    """(W W†)^p for slice i of a (k, d, n) stack W and p = ``ps[i]``, stacked:
    U diag(s^(2p)) U† from one ``svd`` W = U S V†, on the support of the
    singular values s, so W W† is never formed.  Each slice keeps its own
    support and equals its two-dimensional result bit for bit."""
    u, s, _ = checked_svd(_as_stack(w), compute_uv=True)
    if len(ps) != len(s):
        raise DimensionMismatchError(f"{len(ps)} exponents for a stack of {len(s)}")
    keep = support_mask(s, axis=1)
    if keep.all():
        return _reconstruct(u, finite_powers(s, [2.0 * p for p in ps]))
    # a slice that drops values is rebuilt from its kept vectors alone:
    # zeros in place of the dropped values would change the inner dimension
    # of the matmul, and with it the summation BLAS uses
    return np.concatenate([_reconstruct(v[:, m], finite_powers(x[m], (2.0 * p,)))
                           for v, x, m, p in zip(u, s, keep, ps)])


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
    dims = subsystem_dims(dims, a.shape)
    n = len(dims)
    traced = sorted(set(factor_indices(traced_out, n)))
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
    dims = subsystem_dims(dims)
    sites = factor_indices(sites, len(dims))
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


def checked_svd(a: np.ndarray, compute_uv: bool = False):
    """The one singular-value path: thin ``np.linalg.svd`` of a matrix or a
    stack with a finite ||.||_inf (else ValidationError("not-finite"), as in
    ``checked_hermitian_part``), nonempty (else DimensionMismatchError)."""
    if not a.size:
        raise DimensionMismatchError(f"expected a nonempty matrix, got shape {a.shape}")
    if not math.isfinite(float(_inf_norms(a).max())):
        raise ValidationError("not-finite", "matrix entries must be finite")
    return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)


def singular_values(x) -> np.ndarray:
    """Singular values on the support, descending."""
    sv = checked_svd(_as_matrix(x))
    return sv[support_mask(sv)]


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
    (scaled,) = finite_powers(values[support_mask(values)] / top, (p,))
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
        raise ValidationError("bad-spec", f"alpha must be positive, got {alpha}")
    return float(2.0 ** (log2_power_sum(singular_values(x), alpha) / alpha))


def spectral_norm(x) -> float:
    """Schatten infinity-norm (largest singular value)."""
    return spectral_norms(_as_matrix(x)[None])[0]


def spectral_norms(stack) -> list[float]:
    """``spectral_norm`` of each slice of a (k, m, n) stack, in one ``svd``."""
    return [float(s[0]) for s in checked_svd(_as_stack(stack))]
