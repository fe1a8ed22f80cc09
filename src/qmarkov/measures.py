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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import Channel, adjoint_apply, apply_channel, is_strict_cptp, partial_trace_channel
from .divergences import (
    AlphaParameter,
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
    embed_operator,
    herm_pow,
    hermitian_eig,
    kron,
    log2_power_sum,
    partial_trace,
    singular_values,
)
from .states import DensityOperator, PositiveOperator

# Renyi orders used whenever a certified sweep over both sides of 1 is needed.
PETZ_ALPHA_GRID = (0.25, 0.5, 0.75, 1.25, 1.5, 1.75)
SANDWICHED_ALPHA_GRID = (0.6, 0.75, 0.9, 1.5, 2.0, 3.0, 5.0)


class TripartiteState:
    """State on A x B x C with its marginals computed once and cached.

    It is also read as its CMI triple (rho_ABC, rho_AC x I_B, Tr_A): it has
    the members ``ChannelTriple`` offers to the difference formulas, each
    answered from the marginals, so neither rho_AC x I_B nor the Kraus
    operators of Tr_A are ever built.
    """

    def __init__(self, rho: DensityOperator):
        if len(rho.dims) != 3:
            raise DimensionMismatchError(
                f"expected three subsystems, got dims {rho.dims}"
            )
        self.rho = rho
        self.dims = rho.dims
        m = rho.matrix
        self.rho_ac = partial_trace(m, self.dims, {1})
        self.rho_bc = partial_trace(m, self.dims, {0})
        self.rho_c = partial_trace(m, self.dims, {0, 1})

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

    @property
    def out_sigma(self) -> np.ndarray:
        """Tr_A (rho_AC x I_B) = I_B x rho_C, on B x C."""
        return kron(np.eye(self.dims[1]), self.rho_c)

    def sigma_fn(self, f) -> np.ndarray:
        """f(rho_AC x I_B) = f(rho_AC) x I_B on the support."""
        return embed_operator(hermitian_eig(self.rho_ac).apply(f), self.dims, (0, 2))

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
class ChannelTriple:
    """A state, a reference positive operator, and a channel acting on both.

    The members below are everything the difference formulas read; the
    channel outputs and the decomposition of sigma are computed once.
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
        return apply_channel(self.channel, self.rho.matrix)

    @cached_property
    def out_sigma(self) -> np.ndarray:
        return apply_channel(self.channel, self.sigma.matrix)

    @cached_property
    def _sigma_eig(self):
        return hermitian_eig(self.sigma.matrix)

    def is_positive_definite(self) -> bool:
        if not (self.rho.is_positive_definite() and self.sigma.is_positive_definite()):
            return False
        for out in (self.out_rho, self.out_sigma):
            eigs = np.linalg.eigvalsh((out + out.conj().T) / 2)
            if eigs[0] <= POSITIVITY_TOL:
                return False
        return True

    def sigma_fn(self, f) -> np.ndarray:
        """f(sigma) on the support of sigma."""
        return self._sigma_eig.apply(f)

    def sigma_supports_rho(self) -> bool:
        """Whether supp(rho) lies in supp(sigma)."""
        return self._sigma_eig.supports(self.rho.matrix)

    def pull(self, x) -> np.ndarray:
        """N†(x)."""
        return adjoint_apply(self.channel, x)

    def pull_root(self, y) -> np.ndarray:
        """N†(y y†)^(1/2), a Z with Z Z† = N†(y y†)."""
        return herm_pow(self.pull(y @ y.conj().T), 0.5)


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
        - von_neumann_entropy(state.matrix)
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
    first = rel_entropy(triple.rho.matrix, triple.sigma.matrix)
    if math.isinf(first):
        raise InfiniteTermError("D(rho||sigma) is infinite; difference undefined")
    second = rel_entropy(triple.out_rho, triple.out_sigma)
    return first - second


def _bracket(x, h: float, middle: np.ndarray) -> np.ndarray:
    """sigma^h N†(N(sigma)^(-h) M N(sigma)^(-h)) sigma^h, symmetrized.

    ``x`` is a ChannelTriple or a TripartiteState.  With M = N(rho)^(2h) this
    is the bracket of every Renyi formula; at h = 1/2 with M = N(rho) it is
    the Petz-recovered N(rho).
    """
    out_wedge = herm_pow(x.out_sigma, -h)
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
    middle = herm_pow(triple.out_rho, 2.0 * half)
    value = float(
        np.trace(herm_pow(triple.rho.matrix, a.alpha) @ _bracket(triple, half, middle)).real
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
    y = herm_pow(triple.out_sigma, -h) @ herm_pow(triple.out_rho, h)
    wedge = triple.sigma_fn(lambda v: v**h)
    product = triple.pull_root(y).conj().T @ wedge @ herm_pow(triple.rho.matrix, 0.5)
    log_value = log2_power_sum(singular_values(product), 2.0 * a.alpha)
    if log_value == -math.inf:
        return math.inf
    return float(log_value / (a.alpha - 1.0))


def _recovery_divergence(x, kind: str) -> float:
    """D_max or D_min between rho and the Petz-recovered N(rho)."""
    recovered = _bracket(x, 0.5, x.out_rho)
    if kind == "max":
        return max_rel_entropy(x.rho.matrix, recovered)
    return min_rel_entropy(x.rho.matrix, recovered)


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
