"""Composite information measures for tripartite states and channel triples.

Two families, each in von Neumann, Renyi, sandwiched, and min/max flavors:

* conditional mutual information of a state on A x B x C;
* the relative-entropy difference of a triple (rho, sigma, channel), which
  measures how much distinguishability the channel destroys.

The first family is the second evaluated on the CMI triple
(rho_ABC, rho_AC x I_B, trace-out-A), as in arXiv:1501.05636: each Renyi,
sandwiched and min/max CMI is a call to its difference counterpart.  The
difference formulas read only a few members of their argument: N(rho),
N(sigma), the spectrum of sigma, f(sigma) N†(inner) f(sigma)
(``wedged_pull``, for the Petz map alone), and the Kraus blocks
[K_i f(sigma) v]_i (``kraus_wedge``), through which both Renyi differences
and every closed bracket of ``functionals`` read the channel and sigma.  A
``TripartiteState`` answers each from its marginals, so the triple is never
built.  The state's products are structured: f(sigma) = f(rho_AC) x I_B
and N†(x) = I_A x x are applied by reshaped matmuls, and neither factor is
formed on A x B x C.  ``kraus_wedge`` forms no f(sigma) at all, on either
reading: it applies U†, the values f(s) and then U (K U on a triple) in
turn, with U and s sigma's kept eigenpairs.  ``cmi_as_triple`` builds the
triple densely, so the reduction can be tested against an independent
evaluation; apart from it only the log sums embed an operator.  Sandwiched
values are summed in log space, so alpha may be arbitrarily large.  All
outputs are in bits.

Each operator a formula reads is decomposed at most once per object: rho
and sigma cache ``spectrum``, and a triple or state caches ``out_rho``,
``out_sigma``, ``out_rho_spectrum`` and ``out_sigma_spectrum`` (a state
also its marginals and the decomposition of rho_AC, ``sigma_spectrum``),
the recovered N(rho) with its decomposition, and the exp-log operator; a
triple also caches the Kraus operators in sigma's eigenbasis,
``kraus_sigma_basis``.  Every power and logarithm is read from these, so
evaluating many orders on one object decomposes each operator once.  A
cache lives as long as its object, and the cached arrays are read-only.
The Renyi difference reads rho through its kept eigenpairs, as
sum_j lambda_j^alpha times a sum of squares, so rho^alpha is never formed.
The sandwiched formulas read rho only through a square-root factor,
``rho.root()``, which is a Cholesky factor when rho is full rank, so they
do not decompose rho at all.  The min
measures are the sandwiched difference at alpha = 1/2, which equals
-log2 F(rho, R(N(rho))).  The max measures read the recovered operator R
through its Cholesky factor whenever the cached spectra bound cond(R) by
1/SUPPORT_CUTOFF, so no measure decomposes R on full-rank inputs; only
when R may be rank deficient or ill conditioned do they decompose it.

Each Renyi family also has a grid form (``renyi_rel_ent_diff_grid``,
``sandwiched_rel_ent_diff_grid``) that evaluates a tuple of orders as one
stack: the powers of each output decomposition and the Kraus blocks at the
k orders form one array each.  Its values equal the one-order evaluation
bit for bit, and the one-order function is the grid of one order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import Channel, adjoint_apply, apply_channel, is_strict_cptp, partial_trace_channel
from .divergences import (
    AlphaParameter,
    _rel_entropy_on_support,
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
)
from .linalg import (
    POSITIVITY_TOL,
    SUPPORT_CUTOFF,
    SpectralDecomposition,
    _power_of,
    embed_operator,
    finite_rows,
    herm_exp,
    herm_pow,  # noqa: F401  kept bound here: perfbench's tracer test reads it
    hermitian_eig,
    hermitian_part,
    kron,
    log2_power_sum,
    partial_trace,
    read_only,
    stacked_singular_values,
)
from .states import Decomposed, DensityOperator, PositiveOperator

# Renyi orders used whenever a certified sweep over both sides of 1 is needed.
PETZ_ALPHA_GRID = (0.25, 0.5, 0.75, 1.25, 1.5, 1.75)
SANDWICHED_ALPHA_GRID = (0.6, 0.75, 0.9, 1.5, 2.0, 3.0, 5.0)


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
        """The Petz-recovered N(rho), the Petz map applied to N(rho)."""
        return read_only(_petz(self, self.out_rho))

    @cached_property
    def recovered_spectrum(self) -> SpectralDecomposition:
        """Decomposed only when the max measures cannot read ``recovered``
        through a Cholesky factor (``recovered_is_well_conditioned``)."""
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

    def pulled_log_ratio(self) -> np.ndarray:
        """N†(log N(rho) - log N(sigma)), natural logarithms."""
        return self.pull(
            self.out_rho_spectrum.apply(np.log) - self.out_sigma_spectrum.apply(np.log)
        )

    @cached_property
    def exp_log_sum(self) -> np.ndarray:
        """exp(log sigma + N†(log N(rho) - log N(sigma))), the alpha -> 1
        limit of the closed Renyi bracket."""
        m = self.sigma_fn((np.log,))[0] + self.pulled_log_ratio()
        return read_only(herm_exp(hermitian_part(m)))


class TripartiteState(_CachedSpectra):
    """State on A x B x C with its marginals computed once and cached.

    It is also read as its CMI triple (rho_ABC, rho_AC x I_B, Tr_A): it has
    the members ``ChannelTriple`` offers to the difference formulas, each
    answered from the marginals, so neither rho_AC x I_B nor the Kraus
    operators of Tr_A are ever built.  The marginals and I_B x rho_C are
    read-only, and rho_ABC, rho_BC, I_B x rho_C and rho_AC are each
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

    def sigma_fn(self, fs) -> np.ndarray:
        """The stack of f(rho_AC x I_B) = f(rho_AC) x I_B on the support, one
        slice per f in ``fs``, as dense operators on A x B x C.  Only the log
        sums read it; the Renyi products take f(rho_AC) x I_B in factored
        form (``wedged_pull``, ``kraus_wedge``)."""
        return embed_operator(self.sigma_spectrum.apply_all(fs), self.dims, (0, 2))

    def sigma_supports_rho(self) -> bool:
        """Always true: supp(rho_ABC) lies in supp(rho_AC x I_B)."""
        return True

    def pull(self, x) -> np.ndarray:
        """Tr_A†(x) = I_A x x for an operator x on B x C, or a stack of them."""
        return embed_operator(x, self.dims, (1, 2))

    def wedged_pull(self, f, inner) -> np.ndarray:
        """(w x I_B)(I_A x inner)(w x I_B) with w = f(rho_AC), for ``inner`` on
        B x C.  Entry (abc, a'b'c') of x = (w x I_B)(I_A x inner) is
        sum_e w[ac, a'e] inner[be, b'c'], one matmul of w read as (a c a', e)
        with inner read as (e, b b' c'); the columns of x then swap their A
        and B indices around one matmul with w.  Nothing is formed on A x B x C.
        """
        d_a, d_b, d_c = self.dims
        d = self.rho.dim
        w = self.sigma_spectrum.apply(f)
        m = inner.reshape(d_b, d_c, d_b * d_c).swapaxes(0, 1).reshape(d_c, d_b * d_b * d_c)
        t = (w.reshape(d_a * d_c * d_a, d_c) @ m).reshape(d_a, d_c, d_a, d_b, d_b * d_c)
        x = t.transpose(0, 3, 1, 2, 4).reshape(d, d)
        t = x.reshape(d, d_a, d_b, d_c).swapaxes(1, 2).reshape(d * d_b, d_a * d_c) @ w
        return t.reshape(d, d_b, d_a, d_c).swapaxes(1, 2).reshape(d, d)

    def kraus_wedge(self, fs, v) -> np.ndarray:
        """The stack [K_i f(sigma) v]_i for a (d, n) ``v``, shape
        (k, d_A, d_B d_C, n) with one slice per f in ``fs``.

        The Kraus operators of Tr_A are K_i = <i|_A x I_BC, so the stack is
        (f(rho_AC) x I_B) v with its rows read as (A, B C).  It is formed as
        (U f(s) U† x I_B) v, U and s the kept eigenpairs of rho_AC, by
        batched matmuls on v read as (a c, b n) and one transpose, so
        f(rho_AC) is not formed either: a dense f(rho_AC) carries the
        round-off of its largest values into every direction.
        """
        d_a, d_b, d_c = self.dims
        k, n = len(fs), v.shape[-1]
        v = v.reshape(d_a, d_b, d_c, n).swapaxes(1, 2).reshape(d_a * d_c, d_b * n)
        u = self.sigma_spectrum.support[2]
        t = (u @ _kept_coefficients(self.sigma_spectrum, fs, v)).reshape(k, d_a, d_c, d_b, n)
        return t.swapaxes(2, 3).reshape(k, d_a, d_b * d_c, n)


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

    def sigma_fn(self, fs) -> np.ndarray:
        """The stack of f(sigma) on the support of sigma, one slice per f in ``fs``."""
        return self.sigma_spectrum.apply_all(fs)

    def sigma_supports_rho(self) -> bool:
        """Whether supp(rho) lies in supp(sigma)."""
        return self.sigma.spectrum.supports(self.rho.matrix)

    def pull(self, x) -> np.ndarray:
        """N†(x), of an operator or of each slice of a stack."""
        return adjoint_apply(self.channel, x)

    def wedged_pull(self, f, inner) -> np.ndarray:
        """f(sigma) N†(inner) f(sigma) for an operator ``inner`` on the output."""
        wedge = self.sigma_spectrum.apply(f)
        return wedge @ self.pull(inner) @ wedge

    @cached_property
    def kraus_sigma_basis(self) -> np.ndarray:
        """K U: the stacked Kraus operators [K_1; ...; K_r] times sigma's kept
        eigenvectors U, an (r d_out, rank) array that no order changes."""
        u = self.sigma_spectrum.support[2]
        return read_only(np.concatenate(self.channel.kraus) @ u)

    def kraus_wedge(self, fs, v) -> np.ndarray:
        """The stack [K_i f(sigma) v]_i for a (d, n) ``v``, shape
        (k, r, d_out, n) with one slice per f in ``fs``.

        With U and s sigma's kept eigenvectors and eigenvalues this is
        (K U) f(s) (U† v), so f(sigma) is never formed.
        """
        t = self.kraus_sigma_basis @ _kept_coefficients(self.sigma_spectrum, fs, v)
        return t.reshape(len(fs), len(self.channel.kraus), self.channel.dim_out, v.shape[-1])


def _kept_coefficients(dec: SpectralDecomposition, fs, v) -> np.ndarray:
    """f(s) U† v for the kept eigenvalues s and eigenvectors U of ``dec``:
    a (k, rank, n) stack, one slice per f in ``fs``, so that U f(s) U† v is
    one more matmul."""
    _, kept, u = dec.support
    fvals = np.reshape(finite_rows([kept] * len(fs), fs), (len(fs), kept.size, 1))
    return fvals * (u.conj().T @ v)


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
    """Conditional mutual information H(AC) + H(BC) - H(C) - H(ABC), in bits."""
    return (
        von_neumann_entropy(state.rho_ac)
        + von_neumann_entropy(state.rho_bc)
        - von_neumann_entropy(state.rho_c)
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
    if kind not in ("min", "max"):
        raise ValueError(f"kind must be 'min' or 'max', got {kind!r}")
    if strict and not state.is_positive_definite():
        raise RankDeficientError("min/max CMI requires a positive definite state")
    return _recovery_divergence(state, kind)


def rel_ent_diff(triple: ChannelTriple) -> float:
    """Relative entropy difference D(rho||sigma) - D(N(rho)||N(sigma)), in bits.

    Non-negative by the data-processing inequality; raises InfiniteTermError
    when the first term is infinite and the difference is undefined.
    """
    first = rel_entropy(triple.rho, triple.sigma)
    if math.isinf(first):
        raise InfiniteTermError("D(rho||sigma) is infinite; difference undefined")
    out_sigma = triple.out_sigma_spectrum
    if not out_sigma.supports(triple.out_rho):
        return -math.inf
    return first - _rel_entropy_on_support(triple.out_rho_spectrum, out_sigma)


def _condition_number(dec: SpectralDecomposition) -> float:
    """lambda_max / lambda_min when the support keeps every eigenvalue and
    all are positive, else +inf."""
    values = dec.eigenvalues
    if not dec.support[0].all() or values[-1] <= 0.0:
        return math.inf
    return float(values[0] / values[-1])


def _petz(x, m: np.ndarray) -> np.ndarray:
    """The Petz map of a ChannelTriple's or TripartiteState's (sigma, N) at M,
    sigma^(1/2) N†(N(sigma)^(-1/2) M N(sigma)^(-1/2)) sigma^(1/2), symmetrized;
    ``recovered`` is its value at M = N(rho)."""
    out_wedge = x.out_sigma_spectrum.power(-0.5)
    inner = hermitian_part(out_wedge @ m @ out_wedge)
    return hermitian_part(x.wedged_pull(_power_of(0.5), inner))


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
    """``renyi_rel_ent_diff`` at each order of ``alphas``, evaluated as one stack.

    With (lambda_j, v_j) the kept eigenpairs of rho and h = (1-alpha)/2,
    the trace is sum_j lambda_j^alpha sum_i |Y† K_i sigma^h v_j|^2, where
    Y Y† = N(sigma)^(-h) N(rho)^(2h) N(sigma)^(-h) (``_kraus_products``):
    rho^alpha, sigma^h and the bracket are never formed, and every term of
    the sum is non-negative.  Every order is checked before any is
    evaluated, and each value equals the one-order evaluation bit for bit.
    A trace that overflows float64 (a large order) raises
    MatrixFunctionDomainError.
    """
    checked = [_checked_alpha(triple, a, strict) for a in alphas]
    _, kept, v = triple.rho.spectrum.support
    weights = finite_rows([kept] * len(checked), [_power_of(a.alpha) for a in checked])
    with np.errstate(over="ignore", invalid="ignore"):
        products = _kraus_products(triple, [(1.0 - a.alpha) / 2.0 for a in checked], v)
        squares = (products * products.conj()).real
        values = np.sum(squares * np.reshape(weights, (len(checked), 1, kept.size)), axis=(1, 2))
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
    """``sandwiched_rel_ent_diff`` at each order of ``alphas``, evaluated as
    one stack.

    Every order is checked before any is evaluated, and each value equals the
    one-order evaluation bit for bit.
    """
    checked = [_checked_alpha(triple, a, strict) for a in alphas]
    hs = [(1.0 - a.alpha) / (2.0 * a.alpha) for a in checked]
    products = _kraus_products(triple, hs, triple.rho.root())
    values = []
    for a, svs in zip(checked, stacked_singular_values(products)):
        log_value = log2_power_sum(svs, 2.0 * a.alpha)
        values.append(math.inf if log_value == -math.inf else float(log_value / (a.alpha - 1.0)))
    return values


def _kraus_products(x, hs, v) -> np.ndarray:
    """The (k, r d_out, n) stack of Y† K_i sigma^h v, blocks i stacked by
    rows, with Y = N(sigma)^(-h) N(rho)^h, one slice per h in ``hs``.

    Both Renyi differences and every closed bracket read the channel and
    sigma only through this: for Z = [K_1† Y, ..., K_r† Y], Z Z† = N†(Y Y†),
    and the slice is Z† sigma^h v.  ``x`` is a ChannelTriple or a
    TripartiteState.
    """
    y = x.out_sigma_spectrum.powers([-h for h in hs]) @ x.out_rho_spectrum.powers(hs)
    wedged = x.kraus_wedge([_power_of(h) for h in hs], v)
    k, r, d_out, n = wedged.shape
    return (y.conj().swapaxes(-1, -2)[:, None] @ wedged).reshape(k, r * d_out, n)


def _recovery_divergence(x, kind: str) -> float:
    """D_max or D_min between rho and the Petz-recovered N(rho).

    D_min = -log2 F(rho, R(N(rho))) is the sandwiched difference at
    alpha = 1/2: there R(N(rho)) = sigma^(1/2) Z Z† sigma^(1/2), so the
    product Z† sigma^(1/2) G has the trace norm of R(N(rho))^(1/2) rho^(1/2),
    and the recovered operator is never decomposed.
    """
    if kind == "min":
        return sandwiched_rel_ent_diff_grid(x, (0.5,), strict=False)[0]
    if x.recovered_is_well_conditioned():
        try:
            return _max_divergence_by_cholesky(x)
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


def _max_divergence_by_cholesky(x) -> float:
    """D_max(rho || R) for a full-rank recovered operator R = L L†.

    With G G† = rho and Y = L^(-1) G, Y† Y has the nonzero eigenvalues of
    R^(-1/2) rho R^(-1/2), so D_max = log2 lambda_max(Y† Y): one Cholesky,
    one solve and one ``eigvalsh``, and R is never decomposed.  Raises
    LinAlgError when the Cholesky factorization fails.
    """
    y = np.linalg.solve(np.linalg.cholesky(x.recovered), x.rho.root())
    top = float(np.linalg.eigvalsh(hermitian_part(y.conj().T @ y))[-1])
    if top <= 0.0:
        return math.inf
    return float(np.log2(top))


def minmax_rel_ent_diff(triple: ChannelTriple, kind: str, strict: bool = True) -> float:
    """Min- or max-relative-entropy difference.

    D_min or D_max between rho and the Petz-recovered channel output
    R_{sigma,N}(N(rho)); zero exactly when the channel is sufficient for
    rho and sigma.  D_min = -log2 F(rho, R_{sigma,N}(N(rho))) is evaluated
    as the sandwiched difference at alpha = 1/2, to which it is equal.
    ``max`` raises RankDeficientError when the inputs are positive definite
    but the computed R_{sigma,N}(N(rho)) is numerically singular.
    """
    if kind not in ("min", "max"):
        raise ValueError(f"kind must be 'min' or 'max', got {kind!r}")
    if not is_strict_cptp(triple.channel):
        raise NotStrictError("the channel must be strict for min/max differences")
    if strict and not (
        triple.rho.is_positive_definite() and triple.sigma.is_positive_definite()
    ):
        raise RankDeficientError("min/max differences require positive definite inputs")
    return _recovery_divergence(triple, kind)
