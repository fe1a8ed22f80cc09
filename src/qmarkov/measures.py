"""Composite information measures for tripartite states and channel triples.

Two families, each in von Neumann, Renyi, sandwiched, and min/max flavors:

* conditional mutual information of a state on A x B x C;
* the relative-entropy difference of a triple (rho, sigma, channel), which
  measures how much distinguishability the channel destroys.

The first family is the second evaluated on the CMI triple
(rho_ABC, rho_AC x I_B, trace-out-A), as in arXiv:1501.05636: each Renyi,
sandwiched and min/max CMI is a call to its difference counterpart.  Both
Renyi differences read the channel outputs only through one factor,
Y = N(sigma)^(-h) N(rho)^h (``output_factors``), and the two Renyi relative
entropies are the same kernel with K = I and Y = 1 (``_TraceTriple``).  The
difference formulas read only a few members of their argument: N(rho),
N(sigma), the spectrum of sigma, Y, and the Kraus blocks
[K_i sigma^h v]_i (``kraus_wedges``), through which both Renyi
differences, every closed bracket of ``functionals`` and the Petz map
(``petz_recovery``, the kernel's product P at h = 1/2 and v = I, read as
P† P) read the channel and sigma.  A ``TripartiteState`` answers each from
its marginals by reshaped matmuls, so the triple is never built and only
the log sums embed an operator on A x B x C; ``cmi_as_triple`` builds the
triple densely, so the reduction can be tested against an independent
evaluation.
An order reaches the blocks only as its exponent h, and they form no sigma^h
on any reading: they apply U†, the values s^h (``linalg.finite_powers``)
and then U (K U on a triple), with U and s sigma's kept eigenpairs, block by
block where sigma keeps its blocks (rho_AC x I_B under Tr_A, where K U = U).
Sandwiched values are summed in log space, so alpha may be arbitrarily
large.  All outputs are in bits.

Each operator a formula reads is decomposed at most once per object: rho
and sigma cache ``spectrum``, and a triple or state caches its outputs and
their decompositions (a state also its marginals and the decomposition of
rho_AC), the recovered N(rho), the exp-log operator and, on a triple, K U
(``kraus_sigma_basis``).  A cache lives as long as its object, and the
cached arrays are read-only.  The Renyi difference reads rho through its
kept eigenpairs, as sum_j lambda_j^alpha times a sum of squares, so
rho^alpha is never formed; D(rho||sigma) reads rho through its eigenvalues
and matrix alone (``rel_entropy``); the sandwiched formulas read it only
through a square-root factor, ``rho.root()``, a Cholesky factor when rho is
full rank.  The min measures are the sandwiched difference at alpha = 1/2.
Whenever the cached spectra bound the recovered operator's condition number,
the max measures take the top eigenvalue of one Hermitian matrix
(``whitened_rho``): a state forms it from its marginals' decompositions by
reshaped matmuls, so it forms neither the recovered operator nor a d x d
factor of it or of rho, and a triple from the Cholesky factor of the
recovered operator.

Each Renyi family has a grid form (``renyi_rel_ent_diff_grid``,
``sandwiched_rel_ent_diff_grid``) that evaluates a tuple of orders in one
call.  What no order changes (the root of rho, U† v, K U) is formed once
per call, the small order-dependent factors (Y and the values s^h) form
one array each, and the Kraus-block products are formed and reduced in
chunks of as many orders as fit in GRID_CHUNK_ENTRIES complex entries, or of
one order when a single product is larger.  Its values equal the one-order
evaluation bit for bit, and the one-order function is the grid of one order.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import Channel, adjoint_apply, apply_channel, is_strict_cptp, partial_trace_channel
from .divergences import (
    AlphaParameter,
    as_alpha,
    max_rel_entropy,
    rel_entropy,
    von_neumann_entropy,
)
from .errors import (
    DimensionMismatchError,
    InfiniteTermError,
    MatrixFunctionDomainError,
    NotStrictError,
    RankDeficientError,
    ValidationError,
)
from .linalg import (
    POSITIVITY_TOL,
    SUPPORT_CUTOFF,
    BlockMatrix,
    SpectralDecomposition,
    checked_svd,
    embed_operator,
    finite_powers,
    herm_exp,
    herm_pow,  # noqa: F401  kept bound here: perfbench's tracer test reads it
    hermitian_eig,
    hermitian_part,
    kron,
    log2_power_sum,
    partial_trace,
    read_only,
)
from .states import Decomposed, DensityOperator, PositiveOperator, operands

# Renyi orders used whenever a certified sweep over both sides of 1 is needed.
PETZ_ALPHA_GRID = (0.25, 0.5, 0.75, 1.25, 1.5, 1.75)
SANDWICHED_ALPHA_GRID = (0.6, 0.75, 0.9, 1.5, 2.0, 3.0, 5.0)

# A grid stacks as many orders as fit in this many complex entries of their
# Kraus-block products (one 64 x 64 product, 64 KiB), and takes one order
# at a time when a single product is larger.
GRID_CHUNK_ENTRIES = 2**12


class _CachedSpectra:
    """Decompositions of the channel outputs, and the operators built once
    from them.

    Shared by both readings of a triple.  ``out_rho`` and ``out_sigma`` are
    cached, read-only operators; their decompositions, the Petz-recovered
    N(rho) with its decomposition, and exp(log sigma + N†(log N(rho) -
    log N(sigma))) are computed on first use and live as long as the object,
    like ``rho.spectrum``.  None of them depends on the order.
    """

    @cached_property
    def out_rho_spectrum(self) -> SpectralDecomposition:
        return hermitian_eig(self.out_rho)

    @cached_property
    def out_sigma_spectrum(self) -> SpectralDecomposition:
        return hermitian_eig(self.out_sigma)

    @cached_property
    def recovered(self) -> np.ndarray:
        """The Petz-recovered N(rho): ``petz_recovery`` at
        Y = N(sigma)^(-1/2) N(rho)^(1/2), the output factor at h = 1/2."""
        return read_only(self.petz_recovery(self.output_factors((0.5,))[0]))

    def petz_recovery(self, y) -> np.ndarray:
        """sigma^(1/2) N†(Y Y†) sigma^(1/2), the Petz map at N(sigma)^(1/2) Y Y†
        N(sigma)^(1/2), for an operator Y on the output: P† P for P the
        kernel's product Y† K_i sigma^(1/2) at v = I (``_kraus_products``)."""
        ((_, (p,)),) = _kraus_products(self, (0.5,), np.eye(self.rho.dim), y[None])
        return hermitian_part(p.conj().T @ p)

    @cached_property
    def recovered_spectrum(self) -> SpectralDecomposition:
        """Decomposed only when the max measures cannot read ``whitened_rho``
        (``recovered_is_well_conditioned``)."""
        return hermitian_eig(self.recovered)

    def recovered_is_well_conditioned(self) -> bool:
        """Whether the recovered N(rho) is full rank with condition number at
        most 1/SUPPORT_CUTOFF, decided from the cached spectra.

        With M = N(sigma)^(-1/2) N(rho) N(sigma)^(-1/2), cond(M) is at most
        cond(N(rho)) cond(N(sigma)); N† is unital and positive, so
        lambda_min(M) I <= N†(M) <= lambda_max(M) I; hence the recovered
        operator sigma^(1/2) N†(M) sigma^(1/2) has condition number at most
        cond(sigma) cond(N(rho)) cond(N(sigma)).
        """
        bound = 1.0
        for dec in (self.sigma_spectrum, self.out_rho_spectrum, self.out_sigma_spectrum):
            bound *= _condition_number(dec)
        return bound <= 1.0 / SUPPORT_CUTOFF

    def output_factors(self, hs) -> np.ndarray:
        """The (k, d_out, d_out) stack of Y = N(sigma)^(-h) N(rho)^h, one slice
        per h in ``hs``, through which the outputs enter ``_kraus_products``."""
        return self.out_sigma_spectrum.powers([-h for h in hs]) @ self.out_rho_spectrum.powers(hs)

    def check_output_support(self) -> None:
        """Raise RankDeficientError when supp(rho) lies in supp(sigma) but the
        support N(sigma) keeps does not hold N(rho): exactly, the first
        inclusion implies the second, so only SUPPORT_CUTOFF, dropping the
        image in N(sigma) of a direction sigma keeps, can break it, and every
        difference and bracket would then read a wrong number.  Free when
        N(sigma) keeps every eigenvalue."""
        if not self.out_sigma_spectrum.supports(self.out_rho) and self.sigma_supports_rho():
            raise RankDeficientError(
                f"supp(rho) lies in supp(sigma), but N(rho) has weight on eigenvalues "
                f"of N(sigma) below SUPPORT_CUTOFF = {SUPPORT_CUTOFF:g} times its largest, "
                "which the cutoff drops; N(sigma) is too ill-conditioned to evaluate"
            )

    def pulled_log_ratio(self) -> np.ndarray:
        """N†(log N(rho) - log N(sigma)), natural logarithms."""
        return self.pull(
            self.out_rho_spectrum.apply(np.log) - self.out_sigma_spectrum.apply(np.log)
        )

    @cached_property
    def exp_log_sum(self) -> np.ndarray:
        """exp(log sigma + N†(log N(rho) - log N(sigma))), the alpha -> 1
        limit of the closed Renyi bracket."""
        m = self.sigma_log() + self.pulled_log_ratio()
        return read_only(herm_exp(hermitian_part(m)))


class TripartiteState(_CachedSpectra):
    """State on A x B x C with its marginals computed once and cached.

    It is also read as its CMI triple (rho_ABC, rho_AC x I_B, Tr_A): it has
    the members ``ChannelTriple`` offers to the difference formulas, each
    answered from the marginals, so neither rho_AC x I_B nor the Kraus
    operators of Tr_A are ever built.  The marginals and I_B x rho_C are
    read-only, and rho_ABC, rho_BC, I_B x rho_C, rho_AC and rho_C are each
    decomposed at most once, on first use, for the lifetime of the object.
    """

    def __init__(self, rho: DensityOperator):
        if len(rho.dims) != 3:
            raise DimensionMismatchError(
                f"expected three subsystems, got dims {rho.dims}"
            )
        self.rho = rho
        self.dims = rho.dims
        m = rho.matrix
        self.rho_ac = read_only(partial_trace(m, self.dims, {1}))
        self.rho_bc = read_only(partial_trace(m, self.dims, {0}))
        self.rho_c = read_only(partial_trace(m, self.dims, {0, 1}))

    @property
    def matrix(self) -> np.ndarray:
        return self.rho.matrix

    def is_positive_definite(self) -> bool:
        return self.rho.is_positive_definite()

    @property
    def out_rho(self) -> np.ndarray:
        """Tr_A rho_ABC = rho_BC."""
        return self.rho_bc

    @cached_property
    def out_sigma(self) -> np.ndarray:
        """Tr_A (rho_AC x I_B) = I_B x rho_C, on B x C."""
        return read_only(kron(np.eye(self.dims[1]), self.rho_c))

    @cached_property
    def sigma_spectrum(self) -> SpectralDecomposition:
        """The decomposition of rho_AC, from which f(rho_AC x I_B) is read."""
        return hermitian_eig(self.rho_ac)

    @cached_property
    def rho_c_spectrum(self) -> SpectralDecomposition:
        return hermitian_eig(self.rho_c)

    def sigma_log(self) -> np.ndarray:
        """log(rho_AC x I_B) = log(rho_AC) x I_B on the support, as a dense
        operator on A x B x C.  Only the log sums read it; the Renyi products
        and the Petz map take rho_AC^h x I_B in factored form
        (``kraus_wedges``)."""
        return embed_operator(self.sigma_spectrum.apply(np.log), self.dims, (0, 2))

    def sigma_supports_rho(self) -> bool:
        """Always true: supp(rho_ABC) lies in supp(rho_AC x I_B)."""
        return True

    def pull(self, x) -> np.ndarray:
        """Tr_A†(x) = I_A x x for an operator x on B x C, or a stack of them."""
        return embed_operator(x, self.dims, (1, 2))

    def kraus_wedges(self, hs, v) -> Iterator[tuple[slice, np.ndarray]]:
        """The blocks [K_i sigma^h v]_i for a (d, n) ``v`` and each exponent h
        in ``hs``, in chunks (``_kept_chunks``): for each, the slice of ``hs``
        it holds and the (c, d_A, d_B d_C, n) stack of their blocks.

        The Kraus operators of Tr_A are K_i = <i|_A x I_BC, so a block is
        (rho_AC^h x I_B) v with its rows read as (A, B C).  It is formed as
        (U s^h U† x I_B) v, U and s the kept eigenpairs of rho_AC, by one
        stacked matmul on v read as (a c, b n) and one transpose, so
        rho_AC^h is not formed either: a dense rho_AC^h carries the
        round-off of its largest values into every direction.
        """
        d_a, d_b, d_c = self.dims
        d, n = self.rho.dim, v.shape[-1]
        v = v.reshape(d_a, d_b, d_c, n).swapaxes(1, 2).reshape(d_a * d_c, d_b * n)
        return (
            (part, self.sigma_spectrum.u_dot(c).reshape(-1, d_a, d_c, d_b, n).swapaxes(2, 3)
             .reshape(-1, d_a, d_b * d_c, n))
            for part, c in _kept_chunks(self.sigma_spectrum, hs, v, d * n)
        )

    def whitened_rho(self) -> np.ndarray:
        """W rho W†, whose largest eigenvalue is 2^D_max(rho || ``recovered``).

        The recovered operator is R = (s x I_B)(I_A x M)(s x I_B) with
        s = rho_AC^(1/2) and M = N(sigma)^(-1/2) rho_BC N(sigma)^(-1/2), and
        M^(-1) = V† V for V = rho_BC^(-1/2) N(sigma)^(1/2); so
        W = (I_A x V)(rho_AC^(-1/2) x I_B) has W† W = R^(-1), and W rho W†
        has the eigenvalues of R^(-1) rho.  Read only when
        ``recovered_is_well_conditioned``, where the three cached marginal
        decompositions keep every eigenvalue.  W is applied as w = rho_AC^(-1/2)
        on the rows read as (a c, b n), then V on the rows read as (a, b c),
        first to rho and then to (W rho)†: neither R nor a d x d factor of
        it or of rho is formed.
        """
        d_a, d_b, d_c = self.dims
        d = self.rho.dim
        w = self.sigma_spectrum.power(-0.5)
        v = self.out_rho_spectrum.power(-0.5) @ self.out_sigma_spectrum.power(0.5)
        x = self.matrix
        for _ in range(2):  # (W rho)† = rho W†, then (W rho W†)†
            t = x.reshape(d_a, d_b, d_c, d).swapaxes(1, 2).reshape(d_a * d_c, d_b * d)
            t = (w @ t).reshape(d_a, d_c, d_b, d).swapaxes(1, 2).reshape(d_a, d_b * d_c, d)
            x = (v @ t).reshape(d, d).conj().T
        return x


@dataclass(frozen=True, eq=False)
class ChannelTriple(_CachedSpectra):
    """A state, a reference positive operator, and a channel acting on both.

    The members below are everything the difference formulas read.  The
    channel outputs are computed once and read-only; rho and sigma cache
    their own decompositions (``rho.spectrum``, ``sigma.spectrum``), and
    the outputs' decompositions are cached here, each on first use.
    """

    rho: DensityOperator
    sigma: PositiveOperator
    channel: Channel

    def __post_init__(self):
        if self.rho.dim != self.sigma.dim or self.rho.dim != self.channel.dim_in:
            raise DimensionMismatchError(
                f"incompatible dims: rho {self.rho.dim}, sigma {self.sigma.dim}, "
                f"channel input {self.channel.dim_in}"
            )

    @cached_property
    def out_rho(self) -> np.ndarray:
        return read_only(apply_channel(self.channel, self.rho.matrix))

    @cached_property
    def out_sigma(self) -> np.ndarray:
        return read_only(apply_channel(self.channel, self.sigma.matrix))

    def is_positive_definite(self) -> bool:
        return (
            self.rho.is_positive_definite()
            and self.sigma.is_positive_definite()
            and self.out_rho_spectrum.eigenvalues[-1] > POSITIVITY_TOL
            and self.out_sigma_spectrum.eigenvalues[-1] > POSITIVITY_TOL
        )

    @property
    def sigma_spectrum(self) -> SpectralDecomposition:
        return self.sigma.spectrum

    def sigma_log(self) -> np.ndarray:
        """log(sigma) on the support of sigma."""
        return self.sigma_spectrum.apply(np.log)

    def sigma_supports_rho(self) -> bool:
        """Whether supp(rho) lies in supp(sigma)."""
        return self.sigma.spectrum.supports(self.rho.matrix)

    def pull(self, x) -> np.ndarray:
        """N†(x), of an operator or of each slice of a stack."""
        return adjoint_apply(self.channel, x)

    @cached_property
    def kraus_sigma_basis(self) -> np.ndarray | BlockMatrix:
        """K U: the stacked Kraus operators K = [K_1; ...; K_r] times sigma's
        kept eigenvectors U, an (r d_out, rank) operator that no order changes.
        When sigma keeps its blocks (rows R_b, eigenvectors V_b) and the rows
        o_b where K[:, R_b] is not exactly zero are disjoint, as for Tr_A on
        rho_AC x I_B, K U is the ``BlockMatrix`` of the K[o_b, R_b] V_b; else dense."""
        k, dec = np.concatenate(self.channel.kraus), self.sigma_spectrum
        blocked = dec.basis.left_product(k) if dec.keeps_blocks() else None
        return blocked or read_only(k @ dec.kept_vectors)

    def kraus_wedges(self, hs, v) -> Iterator[tuple[slice, np.ndarray]]:
        """The blocks [K_i sigma^h v]_i for a (d, n) ``v`` and each exponent h
        in ``hs``, in chunks (``_kept_chunks``): for each, the slice of ``hs``
        it holds and the (c, r, d_out, n) stack of their blocks.

        With U and s sigma's kept eigenvectors and eigenvalues a block is
        (K U) s^h (U† v), so sigma^h is never formed.
        """
        shape = (len(self.channel.kraus), self.channel.dim_out, v.shape[-1])
        return ((part, (self.kraus_sigma_basis @ c).reshape(-1, *shape))
                for part, c in _kept_chunks(self.sigma_spectrum, hs, v, math.prod(shape)))

    def whitened_rho(self) -> np.ndarray:
        """Y† Y with Y = L^(-1) G, R = L L† the ``recovered`` operator and
        G G† = rho: it has the nonzero eigenvalues of R^(-1/2) rho R^(-1/2),
        so its largest is 2^D_max(rho || R).  One Cholesky and one solve, and
        R is never decomposed; raises LinAlgError when the Cholesky
        factorization fails."""
        y = np.linalg.solve(np.linalg.cholesky(self.recovered), self.rho.root())
        return y.conj().T @ y


class _TraceTriple:
    """The triple (rho, sigma, Tr) of two divergence operands, read as the
    kernel with K = I and Y = 1: the blocks K_i sigma^h v are the rows of
    U s^h U† v, no output is formed, and the Renyi differences are the
    divergences.  Operands are read by the divergences' one rule
    (``operands``), through their cached decompositions."""

    def __init__(self, rho, sigma):
        self.rho, self.sigma = operands(rho, sigma)
        self.sigma_spectrum = self.sigma.spectrum

    def output_factors(self, hs) -> np.ndarray:
        return np.ones((len(hs), 1, 1))

    def check_output_support(self) -> None:
        """Nothing to check: no output is read."""

    def sigma_supports_rho(self) -> bool:
        return self.sigma_spectrum.supports(self.rho.matrix)

    def kraus_wedges(self, hs, v) -> Iterator[tuple[slice, np.ndarray]]:
        return ((part, self.sigma_spectrum.u_dot(c)[:, :, None])
                for part, c in _kept_chunks(self.sigma_spectrum, hs, v, v.size))


def _kept_chunks(dec: SpectralDecomposition, hs, v, entries: int) -> Iterator:
    """The coefficients s^h U† v of U s^h U† v, U and s the kept eigenpairs
    of ``dec``, for each exponent h in ``hs``, in chunks: each the slice of
    ``hs`` it holds and its (c, rank, n) stack.  Every s^h is checked, and
    U† v is formed, before the first chunk; a chunk holds as many orders as
    fit in GRID_CHUNK_ENTRIES at ``entries`` entries of product each, or one."""
    powers = finite_powers(dec.support[1], hs)[:, :, None]
    coordinates = dec.uh_dot(v)
    step = max(1, GRID_CHUNK_ENTRIES // entries)
    return ((slice(start, start + step), powers[start:start + step] * coordinates)
            for start in range(0, len(hs), step))


def cmi_as_triple(state: TripartiteState) -> ChannelTriple:
    """The substitution that turns CMI into a relative-entropy difference.

    Returns (rho_ABC, rho_AC x I_B, trace-out-A) as dense operators; every
    Renyi CMI equals the corresponding relative-entropy-difference measure on
    this triple.
    """
    sigma = embed_operator(state.rho_ac, state.dims, (0, 2))  # rho_AC x I_B in ABC order
    return ChannelTriple(
        rho=DensityOperator(state.matrix, (state.rho.dim,)),
        sigma=PositiveOperator(sigma),
        channel=partial_trace_channel(state.dims, {0}),
    )


def _checked_alpha(x, a, strict: bool) -> AlphaParameter:
    """The Renyi order, once a difference at that order is known to be defined.

    For alpha > 1 the formulas take inverse powers, so with ``strict`` rho,
    sigma and their outputs must be positive definite; and D_alpha(rho||sigma)
    is +inf unless supp(rho) lies in supp(sigma), leaving the difference
    undefined.
    """
    a = as_alpha(a)
    if strict and a.alpha > 1.0 and not x.is_positive_definite():
        raise RankDeficientError(
            f"alpha = {a.alpha} > 1 requires rho, sigma, and their channel "
            "outputs to be positive definite; pass strict=False to evaluate "
            "on the support"
        )
    if a.alpha > 1.0 and not x.sigma_supports_rho():
        raise InfiniteTermError(
            f"D_alpha(rho||sigma) is infinite at alpha = {a.alpha}; difference undefined"
        )
    return a


def von_neumann_cmi(state: TripartiteState) -> float:
    """Conditional mutual information H(AC) + H(BC) - H(C) - H(ABC), in bits;
    the marginals are read with the decompositions the state caches."""
    return (
        von_neumann_entropy(Decomposed(state.rho_ac, state.sigma_spectrum))
        + von_neumann_entropy(Decomposed(state.rho_bc, state.out_rho_spectrum))
        - von_neumann_entropy(Decomposed(state.rho_c, state.rho_c_spectrum))
        - von_neumann_entropy(state.rho)
    )


def renyi_cmi(state: TripartiteState, a, strict: bool = True) -> float:
    """Renyi conditional mutual information.

    (1/(alpha-1)) log2 Tr{rho_ABC^alpha rho_AC^((1-alpha)/2) rho_C^((alpha-1)/2)
    rho_BC^(1-alpha) rho_C^((alpha-1)/2) rho_AC^((1-alpha)/2)}, the Renyi
    difference of the CMI triple.

    For alpha > 1 the formula involves inverse powers of the marginals; with
    ``strict`` (the default) a rank-deficient state raises RankDeficientError
    rather than being evaluated on its support.
    """
    return renyi_rel_ent_diff(state, a, strict)


def sandwiched_cmi(state: TripartiteState, a, strict: bool = True) -> float:
    """Sandwiched Renyi conditional mutual information.

    (2 alpha/(alpha-1)) log2 of the Schatten-2alpha functional of
    rho_ABC^(1/2) rho_AC^((1-alpha)/2alpha) rho_C^((alpha-1)/2alpha)
    rho_BC^((1-alpha)/2alpha), the sandwiched difference of the CMI triple;
    evaluated from the singular values of that product so the Gram matrix is
    never formed.
    """
    return sandwiched_rel_ent_diff(state, a, strict)


def minmax_cmi(state: TripartiteState, kind: str, strict: bool = True) -> float:
    """Min- or max-conditional mutual information.

    Both compare rho_ABC against the recovered operator
    rho_AC^(1/2) rho_C^(-1/2) rho_BC rho_C^(-1/2) rho_AC^(1/2): ``max`` is the
    max-relative entropy to it, ``min`` the min-relative entropy
    -log2 F(rho_ABC, recovered), evaluated as the sandwiched CMI at
    alpha = 1/2, to which it is equal.  ``max`` raises RankDeficientError
    when rho_ABC is positive definite but the computed recovered operator
    is numerically singular.
    """
    _check_kind(kind)
    if strict and not state.is_positive_definite():
        raise RankDeficientError("min/max CMI requires a positive definite state")
    return _recovery_divergence(state, kind)


def rel_ent_diff(triple: ChannelTriple) -> float:
    """Relative entropy difference D(rho||sigma) - D(N(rho)||N(sigma)), in bits.

    Non-negative by the data-processing inequality; raises InfiniteTermError
    when the first term is infinite and the difference is undefined.  The
    second term reads the outputs through their cached decompositions.
    """
    first = rel_entropy(triple.rho, triple.sigma)
    if math.isinf(first):
        raise InfiniteTermError("D(rho||sigma) is infinite; difference undefined")
    triple.check_output_support()
    return first - rel_entropy(Decomposed(triple.out_rho, triple.out_rho_spectrum),
                               Decomposed(triple.out_sigma, triple.out_sigma_spectrum))


def _condition_number(dec: SpectralDecomposition) -> float:
    """lambda_max / lambda_min when the support keeps every eigenvalue and
    all are positive, else +inf."""
    values = dec.eigenvalues
    if not dec.support[0].all() or values[-1] <= 0.0:
        return math.inf
    return float(values[0] / values[-1])


def renyi_rel_ent_diff(
    triple: ChannelTriple | TripartiteState, a, strict: bool = True
) -> float:
    """Renyi relative-entropy difference.

    (1/(alpha-1)) log2 Tr{rho^alpha sigma^((1-alpha)/2)
    N†(N(sigma)^((alpha-1)/2) N(rho)^(1-alpha) N(sigma)^((alpha-1)/2))
    sigma^((1-alpha)/2)}.  Certified non-negative on (0,1) u (1,2); for
    alpha > 1 the positive definiteness of rho, sigma, N(rho), N(sigma) is
    required unless ``strict`` is disabled, and InfiniteTermError is raised
    when supp(rho) is not contained in supp(sigma).  A TripartiteState is
    read as its CMI triple.
    """
    return renyi_rel_ent_diff_grid(triple, (a,), strict)[0]


def renyi_rel_ent_diff_grid(
    triple: ChannelTriple | TripartiteState, alphas, strict: bool = True
) -> list[float]:
    """``renyi_rel_ent_diff`` at each order of ``alphas``.

    With (lambda_j, v_j) the kept eigenpairs of rho and h = (1-alpha)/2,
    the trace is sum_j lambda_j^alpha sum_i |Y† K_i sigma^h v_j|^2, where
    Y Y† = N(sigma)^(-h) N(rho)^(2h) N(sigma)^(-h) (``_kraus_products``):
    rho^alpha, sigma^h and the bracket are never formed, and every term of
    the sum is non-negative.  Every order is checked before any is
    evaluated, the orders are then summed a chunk at a time, and each value
    equals the one-order evaluation bit for bit.  A trace that overflows
    float64 (a large order) raises MatrixFunctionDomainError.
    """
    checked = [_checked_alpha(triple, a, strict) for a in alphas]
    triple.check_output_support()
    hs = [(1.0 - a.alpha) / 2.0 for a in checked]
    kept, v = triple.rho.spectrum.support[1], triple.rho.spectrum.kept_vectors
    weights = finite_powers(kept, [a.alpha for a in checked])[:, None, :]
    values = []
    with np.errstate(over="ignore", invalid="ignore"):
        for part, products in _kraus_products(triple, hs, v, triple.output_factors(hs)):
            values += np.sum(
                (products * products.conj()).real * weights[part], axis=(1, 2)
            ).tolist()
    for a, value in zip(checked, values):
        if not math.isfinite(value):
            raise MatrixFunctionDomainError(
                f"the Renyi trace at alpha {a.alpha} overflows float64"
            )
    return [
        math.inf if value <= 0.0 else float(np.log2(value) / (a.alpha - 1.0))
        for a, value in zip(checked, values)
    ]


def sandwiched_rel_ent_diff(
    triple: ChannelTriple | TripartiteState, a, strict: bool = True
) -> float:
    """Sandwiched Renyi relative-entropy difference.

    (alpha/(alpha-1)) log2 of the Schatten-alpha functional of
    rho^(1/2) sigma^((1-alpha)/2alpha) N†(N(sigma)^((alpha-1)/2alpha)
    N(rho)^((1-alpha)/alpha) N(sigma)^((alpha-1)/2alpha)) sigma^((1-alpha)/2alpha)
    rho^(1/2).  The middle factor is N†(y y†) with
    y = N(sigma)^((alpha-1)/2alpha) N(rho)^((1-alpha)/2alpha), so the
    functional is evaluated from the singular values of the stacked
    y† K_i sigma^((1-alpha)/2alpha) G, where G G† = rho (``rho.root()``,
    which need not be rho^(1/2): the singular values are the same for
    every such G); large orders do not overflow.  For alpha > 1,
    InfiniteTermError is raised when supp(rho) is not contained in
    supp(sigma).  A TripartiteState is read as its CMI triple.
    """
    return sandwiched_rel_ent_diff_grid(triple, (a,), strict)[0]


def sandwiched_rel_ent_diff_grid(
    triple: ChannelTriple | TripartiteState, alphas, strict: bool = True
) -> list[float]:
    """``sandwiched_rel_ent_diff`` at each order of ``alphas``.

    Every order is checked before any is evaluated, each chunk of products
    is reduced to its singular values, by one stacked ``svd``, before the
    next is formed, and each value equals the one-order evaluation bit for
    bit.
    """
    checked = [_checked_alpha(triple, a, strict) for a in alphas]
    triple.check_output_support()
    hs = [(1.0 - a.alpha) / (2.0 * a.alpha) for a in checked]
    svs = []
    for _, products in _kraus_products(triple, hs, triple.rho.root(), triple.output_factors(hs)):
        svs += list(checked_svd(products))
    values = []
    for a, sv in zip(checked, svs):
        # log2_power_sum keeps the singular values above the support cutoff
        log_value = log2_power_sum(sv, 2.0 * a.alpha)
        values.append(math.inf if log_value == -math.inf else float(log_value / (a.alpha - 1.0)))
    return values


def _kraus_products(x, hs, v, ys) -> Iterator[tuple[slice, np.ndarray]]:
    """The (r d_out, n) products Y† K_i sigma^h v, blocks i stacked by rows,
    for each h in ``hs`` and its slice Y of ``ys``, in chunks: for each, the
    slice of ``hs`` it holds and the (c, r d_out, n) stack of its products.

    Every Renyi quantity reads the channel and sigma only through this: for
    Z = [K_1† Y, ..., K_r† Y], Z Z† = N†(Y Y†), and the product is
    Z† sigma^h v.  The differences and closed brackets pass
    ``output_factors``, the divergences Y = 1 with K = I (``_TraceTriple``),
    the output fixed point Y = N(sigma)^(-h).  What no order changes (U† v
    and, on a triple, K U) is formed once, the values s^h for every order at
    once, and checked, before the first product.  Chunks are
    ``_kept_chunks``': a consumer's stacked call makes the same BLAS or
    LAPACK call per slice as on one matrix.
    """
    adjoints = ys.conj().swapaxes(-1, -2)[:, None]
    return (
        (part, (adjoints[part] @ w).reshape(len(w), -1, w.shape[-1]))
        for part, w in x.kraus_wedges(hs, v)
    )


def renyi_rel_entropy(rho, sigma, a) -> float:
    """alpha-Renyi relative entropy (1/(alpha-1)) log2 Tr{rho^alpha sigma^(1-alpha)}.

    The Renyi difference's kernel with K = I and Y = 1 (no channel and no
    output factor).  +inf when alpha > 1 and supp(rho) is not contained in
    supp(sigma), and also when the trace functional vanishes (disjoint
    supports, alpha < 1).
    """
    return renyi_rel_entropy_grid(rho, sigma, (a,))[0]


def renyi_rel_entropy_grid(rho, sigma, alphas) -> list[float]:
    """``renyi_rel_entropy`` at each order of ``alphas``."""
    return _on_the_trace_channel(renyi_rel_ent_diff_grid, rho, sigma, alphas)


def sandwiched_rel_entropy(rho, sigma, a) -> float:
    """Sandwiched Renyi relative entropy.

    (1/(alpha-1)) log2 Tr{ (sigma^((1-alpha)/2alpha) rho sigma^((1-alpha)/2alpha))^alpha },
    the sandwiched difference's kernel with K = I and Y = 1, read from the
    singular values of sigma^((1-alpha)/2alpha) G, G G† = rho.
    """
    return sandwiched_rel_entropy_grid(rho, sigma, (a,))[0]


def sandwiched_rel_entropy_grid(rho, sigma, alphas) -> list[float]:
    """``sandwiched_rel_entropy`` at each order of ``alphas``."""
    return _on_the_trace_channel(sandwiched_rel_ent_diff_grid, rho, sigma, alphas)


def _on_the_trace_channel(grid, rho, sigma, alphas) -> list[float]:
    """A Renyi divergence at each order, the difference ``grid`` on
    (rho, sigma, Tr): the kernel with K = I and Y = 1.  Orders above 1 are
    +inf, unevaluated, when supp(rho) is not in supp(sigma)."""
    checked = [as_alpha(a) for a in alphas]
    x = _TraceTriple(rho, sigma)
    live = [a for a in checked if a.alpha <= 1.0 or x.sigma_supports_rho()]
    values = dict(zip(live, grid(x, live, strict=False)))
    return [values.get(a, math.inf) for a in checked]


def _check_kind(kind: str) -> None:
    if kind not in ("min", "max"):
        raise ValidationError("bad-spec", f"kind must be 'min' or 'max', got {kind!r}")


def _recovery_divergence(x, kind: str) -> float:
    """D_max or D_min between rho and the Petz-recovered N(rho).

    D_min = -log2 F(rho, R(N(rho))) is the sandwiched difference at
    alpha = 1/2: there R(N(rho)) = sigma^(1/2) Z Z† sigma^(1/2), so the
    product Z† sigma^(1/2) G has the trace norm of R(N(rho))^(1/2) rho^(1/2),
    and the recovered operator is never decomposed.  D_max is log2 of the
    largest eigenvalue of ``whitened_rho`` when the cached spectra bound
    cond(R) (``recovered_is_well_conditioned``) and that member does not
    raise LinAlgError, else it is read from R's decomposition.
    """
    if kind == "min":
        return sandwiched_rel_ent_diff_grid(x, (0.5,), strict=False)[0]
    x.check_output_support()
    if x.recovered_is_well_conditioned():
        try:
            top = float(np.linalg.eigvalsh(hermitian_part(x.whitened_rho()))[-1])
            return math.inf if top <= 0.0 else float(np.log2(top))
        except np.linalg.LinAlgError:
            pass
    value = max_rel_entropy(x.rho, Decomposed(x.recovered, x.recovered_spectrum))
    if math.isinf(value) and x.is_positive_definite():
        # R of positive definite inputs is positive definite, so a kernel
        # holding rho's weight is round-off, not a support condition
        raise RankDeficientError(
            "the recovered operator is numerically singular: its computed "
            "kernel holds weight of the positive definite rho"
        )
    return value


def minmax_rel_ent_diff(triple: ChannelTriple, kind: str, strict: bool = True) -> float:
    """Min- or max-relative-entropy difference.

    D_min or D_max between rho and the Petz-recovered channel output
    R_{sigma,N}(N(rho)); zero exactly when the channel is sufficient for
    rho and sigma.  D_min = -log2 F(rho, R_{sigma,N}(N(rho))) is evaluated
    as the sandwiched difference at alpha = 1/2, to which it is equal.
    ``max`` raises RankDeficientError when the inputs are positive definite
    but the computed R_{sigma,N}(N(rho)) is numerically singular.
    """
    _check_kind(kind)
    if not is_strict_cptp(triple.channel):
        raise NotStrictError("the channel must be strict for min/max differences")
    if strict and not (
        triple.rho.is_positive_definite() and triple.sigma.is_positive_definite()
    ):
        raise RankDeficientError("min/max differences require positive definite inputs")
    return _recovery_divergence(triple, kind)
