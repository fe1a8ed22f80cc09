"""Scalar divergences between positive operators, all in bits.

Implements the von Neumann entropy, the quantum relative entropy and the
min/max relative entropies, and the checked Renyi order (``AlphaParameter``).
When a support condition fails the value is the explicit float +inf, never
an error.  Operands are read by one rule (``states.operands``), through
their cached decompositions, so evaluating many divergences on the same
operators decomposes each of them once; a plain matrix is validated once.

The alpha-Renyi and sandwiched alpha-Renyi relative entropies live in
``measures``: each is its Renyi difference read by the Kraus-block kernel
with K = I and Y = 1, that is with no channel and no output factor, so this
module computes no Renyi trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import SpectralDecomposition, finite_rows, hermitian_part, support_mask
from .states import fidelity, operands

ALPHA_ONE_GUARD = 1e-6


@dataclass(frozen=True)
class AlphaParameter:
    """A Renyi order, checked on construction.

    ``petz_ok`` marks the interval (0,1) u (1,2) on which the non-sandwiched
    quantities are certified, ``sandwiched_ok`` the interval (1/2,1) u (1,inf)
    for the sandwiched ones.  Non-finite orders are rejected, and so are
    orders within 1e-6 of 1: the 1/(alpha-1) prefactor amplifies round-off
    beyond usefulness there, and callers should use the von Neumann
    quantities instead.  An order that is not a number is rejected as well.
    """

    alpha: float

    def __post_init__(self):
        try:
            a = float(self.alpha)
        except (TypeError, ValueError):
            raise ValidationError(
                "bad-spec", f"alpha must be a number, got {self.alpha!r}"
            ) from None
        if not 0.0 < a < math.inf:
            raise ValidationError("bad-spec", f"alpha must be positive and finite, got {a}")
        if abs(a - 1.0) < ALPHA_ONE_GUARD:
            raise ValidationError(
                "bad-spec", f"alpha within {ALPHA_ONE_GUARD} of 1 is not evaluable"
            )
        object.__setattr__(self, "alpha", a)

    @property
    def petz_ok(self) -> bool:
        return 0.0 < self.alpha < 2.0

    @property
    def sandwiched_ok(self) -> bool:
        return self.alpha > 0.5


def as_alpha(a) -> AlphaParameter:
    return a if isinstance(a, AlphaParameter) else AlphaParameter(a)


def von_neumann_entropy(rho) -> float:
    """Entropy -Tr{rho log2 rho} over the support, from the operand's cached
    eigenvalues (``operands``)."""
    return _entropy(operands(rho)[0].eigenvalues)


def _entropy(eigs: np.ndarray) -> float:
    """-sum lambda log2 lambda over the eigenvalues ``support_mask`` keeps."""
    kept = eigs[support_mask(eigs)]
    (logs,) = finite_rows((kept,), (np.log2,))
    return float(-np.sum(kept * logs))


def rel_entropy(rho, sigma) -> float:
    """Quantum relative entropy Tr{rho (log2 rho - log2 sigma)}.

    Returns +inf when supp(rho) is not contained in supp(sigma).  rho is
    read through its eigenvalues and its matrix, never its eigenvectors:
    Tr rho log2 rho is minus its entropy (``von_neumann_entropy``), and
    Tr rho log2 sigma = sum_j log2 q_j <b_j|rho|b_j> over sigma's kept
    eigenpairs (q_j, b_j), read from sigma's decomposition.
    """
    rho, sigma = operands(rho, sigma)
    if not sigma.spectrum.supports(rho.matrix):
        return math.inf
    return -_entropy(rho.eigenvalues) - _cross_entropy(rho.matrix, sigma.spectrum)


def _cross_entropy(a: np.ndarray, dec_b: SpectralDecomposition) -> float:
    """Tr{rho log2 sigma} = sum_j log2 q_j <b_j|rho|b_j> for the matrix
    ``a`` of rho and the kept eigenpairs (q_j, b_j) of sigma.

    The caller has checked that supp(rho) lies in supp(sigma).
    """
    (log_q,) = finite_rows((dec_b.support[1],), (np.log2,))
    return float(np.sum(dec_b.expectations(a) * log_q))  # <b_j|rho|b_j> log2 q_j


def min_rel_entropy(rho, sigma) -> float:
    """Min-relative entropy -log2 F(rho, sigma)."""
    value = fidelity(rho, sigma)
    if value <= 0.0:
        return math.inf
    return float(-np.log2(value))


def max_rel_entropy(rho, sigma) -> float:
    """Max-relative entropy log2 of the least lambda with rho <= 2^lambda sigma.

    Equals log2 of the largest eigenvalue of sigma^(-1/2) rho sigma^(-1/2)
    when supp(rho) is contained in supp(sigma); +inf otherwise.
    """
    rho, sigma = operands(rho, sigma)
    if not sigma.spectrum.supports(rho.matrix):
        return math.inf
    inv_sqrt = sigma.spectrum.power(-0.5)
    core = inv_sqrt @ rho.matrix @ inv_sqrt
    top = float(np.linalg.eigvalsh(hermitian_part(core))[-1])
    return math.inf if top <= 0.0 else float(np.log2(top))
