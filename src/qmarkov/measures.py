"""Composite information measures for tripartite states and channel triples.

Two families, each in von Neumann, Renyi, sandwiched, and min/max flavors:

* conditional mutual information of a state on A x B x C;
* the relative-entropy difference of a triple (rho, sigma, channel), which
  measures how much distinguishability the channel destroys.

The first family is the second evaluated on the CMI triple
(rho_ABC, rho_AC x I_B, trace-out-A), as in arXiv:1501.05636: each Renyi,
sandwiched and min/max CMI is a call to its difference counterpart.  The
difference formulas read only a few members of their argument (N(rho),
N(sigma), functions of sigma, N†, and a square root of N† on a Gram
matrix), and a ``TripartiteState`` answers each from its marginals, so the
triple is never built.  ``cmi_as_triple`` builds it densely, so the
reduction can be tested against an independent evaluation.  Sandwiched
values are summed in log space, so alpha may be arbitrarily large.  All
outputs are in bits.

Each operator a formula reads is decomposed at most once per object: rho
and sigma cache ``spectrum``, and a triple or state caches ``out_rho``,
``out_sigma``, ``out_rho_spectrum`` and ``out_sigma_spectrum`` (a state
also its marginals and the decomposition of rho_AC behind ``sigma_fn``),
the recovered N(rho) with its decomposition, and the exp-log operator.
Every power and logarithm is read from these, so evaluating many orders on
one object decomposes each operator once.  A cache lives as long as its
object, and the cached arrays are read-only.
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
    min_rel_entropy,
    rel_entropy,
    von_neumann_entropy,
)
from .errors import (
    DimensionMismatchError,
    InfiniteTermError,
    NotStrictError,
    RankDeficientError,
)
from .linalg import (
    POSITIVITY_TOL,
    SpectralDecomposition,
    embed_operator,
    herm_exp,
    herm_pow,  # noqa: F401  kept bound here: perfbench's tracer test reads it
    hermitian_eig,
    kron,
    log2_power_sum,
    partial_trace,
    read_only,
    singular_values,
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
        """The Petz-recovered N(rho): the bracket at h = 1/2 with M = N(rho)."""
        return read_only(_bracket(self, 0.5, self.out_rho))

    @cached_property
    def recovered_spectrum(self) -> SpectralDecomposition:
        return hermitian_eig(self.recovered)

    def pulled_log_ratio(self) -> np.ndarray:
        """N†(log N(rho) - log N(sigma)), natural logarithms."""
        return self.pull(
            self.out_rho_spectrum.apply(np.log) - self.out_sigma_spectrum.apply(np.log)
        )

    @cached_property
    def exp_log_sum(self) -> np.ndarray:
        """exp(log sigma + N†(log N(rho) - log N(sigma))), the alpha -> 1
        limit of the closed Renyi bracket."""
        m = self.sigma_fn(np.log) + self.pulled_log_ratio()
        return read_only(herm_exp((m + m.conj().T) / 2))


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

    @classmethod
    def from_matrix(cls, matrix, dims) -> "TripartiteState":
        return cls(DensityOperator(np.asarray(matrix, dtype=complex), tuple(dims)))

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
    def _rho_ac_spectrum(self) -> SpectralDecomposition:
        return hermitian_eig(self.rho_ac)

    def sigma_fn(self, f) -> np.ndarray:
        """f(rho_AC x I_B) = f(rho_AC) x I_B on the support."""
        return embed_operator(self._rho_ac_spectrum.apply(f), self.dims, (0, 2))

    def sigma_supports_rho(self) -> bool:
        """Always true: supp(rho_ABC) lies in supp(rho_AC x I_B)."""
        return True

    def pull(self, x) -> np.ndarray:
        """Tr_A†(x) = I_A x x for an operator x on B x C."""
        return embed_operator(x, self.dims, (1, 2))

    def pull_root(self, y) -> np.ndarray:
        """I_A x y, a Z with Z Z† = Tr_A†(y y†): Tr_A† is a *-homomorphism."""
        return self.pull(y)


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

    def sigma_fn(self, f) -> np.ndarray:
        """f(sigma) on the support of sigma."""
        return self.sigma.spectrum.apply(f)

    def sigma_supports_rho(self) -> bool:
        """Whether supp(rho) lies in supp(sigma)."""
        return self.sigma.spectrum.supports(self.rho.matrix)

    def pull(self, x) -> np.ndarray:
        """N†(x)."""
        return adjoint_apply(self.channel, x)

    def pull_root(self, y) -> np.ndarray:
        """[K_1† y, ..., K_r† y], a Z with Z Z† = sum_i K_i† y y† K_i = N†(y y†)."""
        return np.hstack([k.conj().T @ y for k in self.channel.kraus])


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
    max-relative entropy to it, ``min`` the min-relative entropy.
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


def _bracket(x, h: float, middle: np.ndarray) -> np.ndarray:
    """sigma^h N†(N(sigma)^(-h) M N(sigma)^(-h)) sigma^h, symmetrized.

    ``x`` is a ChannelTriple or a TripartiteState.  With M = N(rho)^(2h) this
    is the bracket of every Renyi formula; at h = 1/2 with M = N(rho) it is
    the Petz-recovered N(rho).
    """
    out_wedge = x.out_sigma_spectrum.power(-h)
    inner = out_wedge @ middle @ out_wedge
    wedge = x.sigma_fn(lambda v: v**h)
    out = wedge @ x.pull((inner + inner.conj().T) / 2) @ wedge
    return (out + out.conj().T) / 2


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
    a = _checked_alpha(triple, a, strict)
    half = (1.0 - a.alpha) / 2.0
    middle = triple.out_rho_spectrum.power(2.0 * half)
    value = float(
        np.trace(triple.rho.spectrum.power(a.alpha) @ _bracket(triple, half, middle)).real
    )
    if value <= 0.0:
        return math.inf
    return float(np.log2(value) / (a.alpha - 1.0))


def sandwiched_rel_ent_diff(
    triple: ChannelTriple | TripartiteState, a, strict: bool = True
) -> float:
    """Sandwiched Renyi relative-entropy difference.

    (alpha/(alpha-1)) log2 of the Schatten-alpha functional of
    rho^(1/2) sigma^((1-alpha)/2alpha) N†(N(sigma)^((alpha-1)/2alpha)
    N(rho)^((1-alpha)/alpha) N(sigma)^((alpha-1)/2alpha)) sigma^((1-alpha)/2alpha)
    rho^(1/2).  The middle factor is N†(y y†) with
    y = N(sigma)^((alpha-1)/2alpha) N(rho)^((1-alpha)/2alpha), so the
    functional is evaluated from the singular values of
    Z† sigma^((1-alpha)/2alpha) rho^(1/2), where Z Z† = N†(y y†); large
    orders do not overflow.  For alpha > 1, InfiniteTermError is raised when
    supp(rho) is not contained in supp(sigma).  A TripartiteState is read as
    its CMI triple.
    """
    a = _checked_alpha(triple, a, strict)
    h = (1.0 - a.alpha) / (2.0 * a.alpha)
    y = triple.out_sigma_spectrum.power(-h) @ triple.out_rho_spectrum.power(h)
    wedge = triple.sigma_fn(lambda v: v**h)
    product = triple.pull_root(y).conj().T @ wedge @ triple.rho.spectrum.power(0.5)
    log_value = log2_power_sum(singular_values(product), 2.0 * a.alpha)
    if log_value == -math.inf:
        return math.inf
    return float(log_value / (a.alpha - 1.0))


def _recovery_divergence(x, kind: str) -> float:
    """D_max or D_min between rho and the Petz-recovered N(rho)."""
    recovered = Decomposed(x.recovered, x.recovered_spectrum)
    if kind == "max":
        return max_rel_entropy(x.rho, recovered)
    return min_rel_entropy(x.rho, recovered)


def minmax_rel_ent_diff(triple: ChannelTriple, kind: str, strict: bool = True) -> float:
    """Min- or max-relative-entropy difference.

    D_min or D_max between rho and the Petz-recovered channel output
    R_{sigma,N}(N(rho)); zero exactly when the channel is sufficient for
    rho and sigma.
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
