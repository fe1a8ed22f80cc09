"""Scalar divergences between positive operators, all in bits.

Implements the quantum relative entropy, the alpha-Renyi and sandwiched
alpha-Renyi relative entropies, the min/max relative entropies, and the
operator f-divergence.  When a support condition fails the value is the
explicit float +inf, never an error.  An operand handed in as a
PositiveOperator is read through its cached decomposition, so evaluating
many orders on the same operators decomposes each of them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import (
    SpectralDecomposition,
    finite_values,
    hermitian_eig,
    log2_power_sum,
    on_support,
    support_mask,
)
from .states import PositiveOperator, fidelity, spectrum_of

ALPHA_ONE_GUARD = 1e-6


@dataclass(frozen=True)
class AlphaParameter:
    """Renyi order with its derived substitution gamma = (2 alpha - 1) / alpha.

    ``petz_ok`` marks the interval (0,1) u (1,2) on which the non-sandwiched
    quantities are certified, ``sandwiched_ok`` the interval (1/2,1) u (1,inf)
    for the sandwiched ones.  Non-finite orders are rejected, and so are
    orders within 1e-6 of 1: the 1/(alpha-1) prefactor amplifies round-off
    beyond usefulness there, and callers should use the von Neumann
    quantities instead.
    """

    alpha: float
    gamma: float = field(init=False)

    def __post_init__(self):
        a = float(self.alpha)
        if not 0.0 < a < math.inf:
            raise ValidationError("bad-spec", f"alpha must be positive and finite, got {a}")
        if abs(a - 1.0) < ALPHA_ONE_GUARD:
            raise ValidationError(
                "bad-spec", f"alpha within {ALPHA_ONE_GUARD} of 1 is not evaluable"
            )
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "gamma", (2.0 * a - 1.0) / a)

    @property
    def petz_ok(self) -> bool:
        return 0.0 < self.alpha < 2.0

    @property
    def sandwiched_ok(self) -> bool:
        return self.alpha > 0.5


def as_alpha(a) -> AlphaParameter:
    return a if isinstance(a, AlphaParameter) else AlphaParameter(float(a))


def _pair(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    a = rho.matrix if hasattr(rho, "matrix") else np.asarray(rho, dtype=complex)
    b = sigma.matrix if hasattr(sigma, "matrix") else np.asarray(sigma, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return a, b


def support_contained(rho, sigma) -> bool:
    """Whether supp(rho) is contained in supp(sigma)."""
    a, _ = _pair(rho, sigma)
    return spectrum_of(sigma).supports(a)


def von_neumann_entropy(rho) -> float:
    """Entropy -Tr{rho log2 rho} over the support.

    A PositiveOperator's entropy is read from the eigenvalues its validation
    computed.
    """
    if isinstance(rho, PositiveOperator):
        eigs = rho.eigenvalues
    else:
        mat = rho.matrix if hasattr(rho, "matrix") else np.asarray(rho, dtype=complex)
        eigs = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    keep, logs = on_support(eigs, np.log2)
    return float(-np.sum(eigs[keep] * logs))


def rel_entropy(rho, sigma) -> float:
    """Quantum relative entropy Tr{rho (log2 rho - log2 sigma)}.

    Returns +inf when supp(rho) is not contained in supp(sigma).
    """
    a, _ = _pair(rho, sigma)
    dec_b = spectrum_of(sigma)
    if not dec_b.supports(a):
        return math.inf
    return _rel_entropy_on_support(spectrum_of(rho), dec_b)


def _rel_entropy_on_support(
    dec_a: SpectralDecomposition, dec_b: SpectralDecomposition
) -> float:
    """Tr{rho (log2 rho - log2 sigma)} from the two decompositions.

    The caller has checked that supp(rho) lies in supp(sigma).
    """
    _, p, va = dec_a.support
    _, q, vb = dec_b.support
    log_p, log_q = finite_values(p, np.log2), finite_values(q, np.log2)
    overlaps = np.abs(va.conj().T @ vb) ** 2  # |<a_i|b_j>|^2
    return float(np.sum(p * log_p) - np.sum((p[:, None] * overlaps) * log_q[None, :]))


def renyi_rel_entropy(rho, sigma, a) -> float:
    """alpha-Renyi relative entropy (1/(alpha-1)) log2 Tr{rho^alpha sigma^(1-alpha)}.

    +inf when alpha > 1 and supp(rho) is not contained in supp(sigma), and
    also when the trace functional vanishes (disjoint supports, alpha < 1).
    """
    a = as_alpha(a)
    rho_m, _ = _pair(rho, sigma)
    dec_sigma = spectrum_of(sigma)
    if a.alpha > 1.0 and not dec_sigma.supports(rho_m):
        return math.inf
    value = np.trace(
        spectrum_of(rho).power(a.alpha) @ dec_sigma.power(1.0 - a.alpha)
    ).real
    if value <= 0.0:
        return math.inf
    return float(np.log2(value) / (a.alpha - 1.0))


def sandwiched_rel_entropy(rho, sigma, a) -> float:
    """Sandwiched Renyi relative entropy.

    (1/(alpha-1)) log2 Tr{ (sigma^((1-alpha)/2alpha) rho sigma^((1-alpha)/2alpha))^alpha }.
    """
    a = as_alpha(a)
    rho_m, _ = _pair(rho, sigma)
    dec_sigma = spectrum_of(sigma)
    if a.alpha > 1.0 and not dec_sigma.supports(rho_m):
        return math.inf
    wedge = dec_sigma.power((1.0 - a.alpha) / (2.0 * a.alpha))
    core = wedge @ rho_m @ wedge
    core = (core + core.conj().T) / 2
    log_value = log2_power_sum(np.linalg.eigvalsh(core), a.alpha)
    if log_value == -math.inf:
        return math.inf
    return float(log_value / (a.alpha - 1.0))


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
    rho_m, _ = _pair(rho, sigma)
    dec_sigma = spectrum_of(sigma)
    if not dec_sigma.supports(rho_m):
        return math.inf
    inv_sqrt = dec_sigma.power(-0.5)
    core = inv_sqrt @ rho_m @ inv_sqrt
    eigs = np.linalg.eigvalsh((core + core.conj().T) / 2)
    top = float(eigs[-1])
    if top <= 0.0:
        return math.inf
    return float(np.log2(top))


def f_divergence(a, b, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Operator f-divergence of A with respect to positive definite B.

    Evaluates <G| (sqrt(B) x I) f(B^(-1) x A^T) (sqrt(B) x I) |G> where |G> is
    the unnormalized maximally entangled vector in the computational basis
    (the basis in which the transpose is taken).  The Kronecker factor is
    never formed: the spectrum of B^(-1) x A^T is the set of ratios of the
    two spectra, and f is applied there, on the support only.
    """
    a_m, b_m = _pair(a, b)
    dec_b = hermitian_eig(b_m)
    if dec_b.eigenvalues[-1] <= 0.0:
        raise ValidationError("not-positive", "B must be positive definite")
    dec_a = hermitian_eig(a_m)
    ratios = dec_a.eigenvalues[None, :] / dec_b.eigenvalues[:, None]
    keep = support_mask(ratios)
    with np.errstate(all="ignore"):
        fvals = np.where(keep, f(np.where(keep, ratios, 1.0)), 0.0)
    if not np.all(np.isfinite(fvals)):
        raise ValidationError("bad-spec", "f undefined on a retained spectral ratio")
    # <G| (sqrt(B) x I) (u_i x conj(v_j))  =  sqrt(b_i) u_i^T conj(v_j)
    weights = np.abs(dec_b.eigenvectors.T @ dec_a.eigenvectors.conj()) ** 2
    weights = dec_b.eigenvalues[:, None] * weights
    return float(np.sum(fvals * weights))
