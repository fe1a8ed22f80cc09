"""Composite information measures for tripartite states and channel triples.

Two families, each in von Neumann, Renyi, sandwiched, and min/max flavors:

* conditional mutual information of a state on A x B x C, built from the
  marginals on AC, BC, and C;
* the relative-entropy difference of a triple (rho, sigma, channel), which
  measures how much distinguishability the channel destroys.

The first family is the special case of the second under the substitution
sigma = rho_AC x I_B with the channel tracing out A, and that reduction is
exposed through ``cmi_as_triple`` so it can be tested directly.  All outputs
are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Channel, adjoint_apply, apply_channel, is_strict_cptp, partial_trace_channel, petz_recovery
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
    alpha_norm,
    embed_operator,
    herm_pow,
    hermitian_eig,
    partial_trace,
    singular_values,
    spectral_norm,
)
from .states import DensityOperator, PositiveOperator

# Renyi orders used whenever a certified sweep over both sides of 1 is needed.
PETZ_ALPHA_GRID = (0.25, 0.5, 0.75, 1.25, 1.5, 1.75)
SANDWICHED_ALPHA_GRID = (0.6, 0.75, 0.9, 1.5, 2.0, 3.0, 5.0)


class TripartiteState:
    """State on A x B x C with its marginals computed once and cached.

    All formulas consume the cached marginals so the same support handling
    applies consistently across measures.
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

    # embeddings into the full A x B x C space
    def embed_ac(self, x) -> np.ndarray:
        return embed_operator(x, self.dims, (0, 2))

    def embed_bc(self, x) -> np.ndarray:
        return embed_operator(x, self.dims, (1, 2))

    def embed_c(self, x) -> np.ndarray:
        return embed_operator(x, self.dims, (2,))


@dataclass(frozen=True, eq=False)
class ChannelTriple:
    """A state, a reference positive operator, and a channel acting on both."""

    rho: DensityOperator
    sigma: PositiveOperator
    channel: Channel

    def __post_init__(self):
        if self.rho.dim != self.sigma.dim or self.rho.dim != self.channel.dim_in:
            raise DimensionMismatchError(
                f"incompatible dims: rho {self.rho.dim}, sigma {self.sigma.dim}, "
                f"channel input {self.channel.dim_in}"
            )

    @property
    def out_rho(self) -> np.ndarray:
        return apply_channel(self.channel, self.rho.matrix)

    @property
    def out_sigma(self) -> np.ndarray:
        return apply_channel(self.channel, self.sigma.matrix)

    def is_positive_definite(self) -> bool:
        if not (self.rho.is_positive_definite() and self.sigma.is_positive_definite()):
            return False
        for out in (self.out_rho, self.out_sigma):
            eigs = np.linalg.eigvalsh((out + out.conj().T) / 2)
            if eigs[0] <= POSITIVITY_TOL:
                return False
        return True


def cmi_as_triple(state: TripartiteState) -> ChannelTriple:
    """The substitution that turns CMI into a relative-entropy difference.

    Returns (rho_ABC, rho_AC x I_B, trace-out-A); every Renyi CMI equals the
    corresponding relative-entropy-difference measure on this triple.
    """
    sigma = state.embed_ac(state.rho_ac)  # equals rho_AC x I_B in ABC ordering
    return ChannelTriple(
        rho=DensityOperator(state.matrix, (state.rho.dim,)),
        sigma=PositiveOperator(sigma),
        channel=partial_trace_channel(state.dims, {0}),
    )


def _require_definite(state: TripartiteState, a: AlphaParameter, strict: bool):
    if strict and a.alpha > 1.0 and not state.is_positive_definite():
        raise RankDeficientError(
            f"alpha = {a.alpha} > 1 requires a positive definite state; "
            "perturb the input or pass strict=False to evaluate on the support"
        )


def _require_definite_triple(triple: ChannelTriple, a: AlphaParameter, strict: bool):
    if strict and a.alpha > 1.0 and not triple.is_positive_definite():
        raise RankDeficientError(
            f"alpha = {a.alpha} > 1 requires rho, sigma, and their channel "
            "outputs to be positive definite; pass strict=False to evaluate "
            "on the support"
        )


def von_neumann_cmi(state: TripartiteState) -> float:
    """Conditional mutual information H(AC) + H(BC) - H(C) - H(ABC), in bits."""
    return (
        von_neumann_entropy(state.rho_ac)
        + von_neumann_entropy(state.rho_bc)
        - von_neumann_entropy(state.rho_c)
        - von_neumann_entropy(state.matrix)
    )


def _cmi_chain(state: TripartiteState, half_exponent: float) -> np.ndarray:
    """The marginal product with exponents (h, -h, 2h, -h, h) on (AC, C, BC, C, AC)."""
    p_ac = state.embed_ac(herm_pow(state.rho_ac, half_exponent))
    p_c = state.embed_c(herm_pow(state.rho_c, -half_exponent))
    p_bc = state.embed_bc(herm_pow(state.rho_bc, 2.0 * half_exponent))
    return p_ac @ p_c @ p_bc @ p_c @ p_ac


def renyi_cmi(state: TripartiteState, a, strict: bool = True) -> float:
    """Renyi conditional mutual information.

    (1/(alpha-1)) log2 Tr{rho_ABC^alpha rho_AC^((1-alpha)/2) rho_C^((alpha-1)/2)
    rho_BC^(1-alpha) rho_C^((alpha-1)/2) rho_AC^((1-alpha)/2)}.

    For alpha > 1 the formula involves inverse powers of the marginals; with
    ``strict`` (the default) a rank-deficient state raises RankDeficientError
    rather than being evaluated on its support.
    """
    a = as_alpha(a)
    _require_definite(state, a, strict)
    chain = _cmi_chain(state, (1.0 - a.alpha) / 2.0)
    power_alpha = herm_pow(state.matrix, a.alpha)
    value = float(np.trace(power_alpha @ chain).real)
    if value <= 0.0:
        return math.inf
    return float(np.log2(value) / (a.alpha - 1.0))


def sandwiched_cmi(state: TripartiteState, a, strict: bool = True) -> float:
    """Sandwiched Renyi conditional mutual information.

    (2 alpha/(alpha-1)) log2 of the Schatten-2alpha functional of
    rho_ABC^(1/2) rho_AC^((1-alpha)/2alpha) rho_C^((alpha-1)/2alpha)
    rho_BC^((1-alpha)/2alpha); evaluated from the singular values of that
    product so the Gram matrix is never formed.
    """
    a = as_alpha(a)
    _require_definite(state, a, strict)
    h = (1.0 - a.alpha) / (2.0 * a.alpha)
    product = (
        herm_pow(state.matrix, 0.5)
        @ state.embed_ac(herm_pow(state.rho_ac, h))
        @ state.embed_c(herm_pow(state.rho_c, -h))
        @ state.embed_bc(herm_pow(state.rho_bc, h))
    )
    norm = alpha_norm(product, 2.0 * a.alpha)
    if norm <= 0.0:
        return math.inf
    return float(2.0 * a.alpha / (a.alpha - 1.0) * np.log2(norm))


def _recovered_product(state: TripartiteState) -> np.ndarray:
    """rho_AC^(1/2) rho_C^(-1/2) rho_BC rho_C^(-1/2) rho_AC^(1/2), embedded."""
    s_ac = state.embed_ac(herm_pow(state.rho_ac, 0.5))
    s_c = state.embed_c(herm_pow(state.rho_c, -0.5))
    mid = state.embed_bc(state.rho_bc)
    out = s_ac @ s_c @ mid @ s_c @ s_ac
    return (out + out.conj().T) / 2


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
    recovered = _recovered_product(state)
    if kind == "max":
        return max_rel_entropy(state.matrix, recovered)
    return min_rel_entropy(state.matrix, recovered)


def minmax_cmi_norm_form(state: TripartiteState, kind: str) -> float:
    """The equivalent product-of-powers evaluation of minmax_cmi.

    max: 2 log2 ||rho_ABC^(1/2) rho_AC^(-1/2) rho_C^(1/2) rho_BC^(-1/2)||_inf;
    min: -2 log2 ||rho_ABC^(1/2) rho_AC^(1/2) rho_C^(-1/2) rho_BC^(1/2)||_1.
    Used as an independent cross-check of the divergence-based form.
    """
    if kind not in ("min", "max"):
        raise ValueError(f"kind must be 'min' or 'max', got {kind!r}")
    root = herm_pow(state.matrix, 0.5)
    if kind == "max":
        product = (
            root
            @ state.embed_ac(herm_pow(state.rho_ac, -0.5))
            @ state.embed_c(herm_pow(state.rho_c, 0.5))
            @ state.embed_bc(herm_pow(state.rho_bc, -0.5))
        )
        return float(2.0 * np.log2(spectral_norm(product)))
    product = (
        root
        @ state.embed_ac(herm_pow(state.rho_ac, 0.5))
        @ state.embed_c(herm_pow(state.rho_c, -0.5))
        @ state.embed_bc(herm_pow(state.rho_bc, 0.5))
    )
    return float(-2.0 * np.log2(alpha_norm(product, 1.0)))


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


def _pulled_bracket(triple: ChannelTriple, h: float) -> np.ndarray:
    """N†(N(sigma)^(-h) N(rho)^(2h) N(sigma)^(-h)), the inner part of every bracket."""
    out_wedge = herm_pow(triple.out_sigma, -h)
    inner = out_wedge @ herm_pow(triple.out_rho, 2.0 * h) @ out_wedge
    return adjoint_apply(triple.channel, (inner + inner.conj().T) / 2)


def _sigma_wedge(triple: ChannelTriple, a: AlphaParameter, h: float) -> np.ndarray:
    """sigma^h, after checking that an alpha > 1 difference is finite.

    For alpha > 1 the first term D_alpha(rho||sigma) is +inf unless
    supp(rho) lies in supp(sigma), and then the difference is undefined.
    """
    dec = hermitian_eig(triple.sigma.matrix)
    if a.alpha > 1.0 and not dec.supports(triple.rho.matrix):
        raise InfiniteTermError(
            f"D_alpha(rho||sigma) is infinite at alpha = {a.alpha}; difference undefined"
        )
    return dec.power(h)


def renyi_rel_ent_diff(triple: ChannelTriple, a, strict: bool = True) -> float:
    """Renyi relative-entropy difference.

    (1/(alpha-1)) log2 Tr{rho^alpha sigma^((1-alpha)/2)
    N†(N(sigma)^((alpha-1)/2) N(rho)^(1-alpha) N(sigma)^((alpha-1)/2))
    sigma^((1-alpha)/2)}.  Certified non-negative on (0,1) u (1,2); for
    alpha > 1 the positive definiteness of rho, sigma, N(rho), N(sigma) is
    required unless ``strict`` is disabled, and InfiniteTermError is raised
    when supp(rho) is not contained in supp(sigma).
    """
    a = as_alpha(a)
    _require_definite_triple(triple, a, strict)
    half = (1.0 - a.alpha) / 2.0
    wedge = _sigma_wedge(triple, a, half)
    pulled = _pulled_bracket(triple, half)
    value = float(
        np.trace(herm_pow(triple.rho.matrix, a.alpha) @ wedge @ pulled @ wedge).real
    )
    if value <= 0.0:
        return math.inf
    return float(np.log2(value) / (a.alpha - 1.0))


def sandwiched_rel_ent_diff(triple: ChannelTriple, a, strict: bool = True) -> float:
    """Sandwiched Renyi relative-entropy difference.

    (alpha/(alpha-1)) log2 of the Schatten-alpha functional of
    rho^(1/2) sigma^((1-alpha)/2alpha) N†(N(sigma)^((alpha-1)/2alpha)
    N(rho)^((1-alpha)/alpha) N(sigma)^((alpha-1)/2alpha)) sigma^((1-alpha)/2alpha)
    rho^(1/2).  The middle factor is positive semidefinite, so the functional
    is evaluated from the singular values of Q^(1/2) sigma^(...) rho^(1/2).
    For alpha > 1, InfiniteTermError is raised when supp(rho) is not
    contained in supp(sigma).
    """
    a = as_alpha(a)
    _require_definite_triple(triple, a, strict)
    h = (1.0 - a.alpha) / (2.0 * a.alpha)
    wedge = _sigma_wedge(triple, a, h)
    half_pulled = herm_pow(_pulled_bracket(triple, h), 0.5)
    stacked = half_pulled @ wedge @ herm_pow(triple.rho.matrix, 0.5)
    sv = singular_values(stacked)
    if sv.size == 0:
        return math.inf
    value = float(np.sum(sv ** (2.0 * a.alpha)))
    if value <= 0.0:
        return math.inf
    return float(np.log2(value) / (a.alpha - 1.0))


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
    recovery = petz_recovery(triple.sigma, triple.channel)
    recovered = apply_channel(recovery, triple.out_rho)
    if kind == "max":
        return max_rel_entropy(triple.rho.matrix, recovered)
    return min_rel_entropy(triple.rho.matrix, recovered)
