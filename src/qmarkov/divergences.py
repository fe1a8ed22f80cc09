"""Scalar divergences between positive operators, all in bits.

Implements the quantum relative entropy, the alpha-Renyi and sandwiched
alpha-Renyi relative entropies, and the min/max relative entropies.  When a support condition fails the value is the
explicit float +inf, never an error.  An operand handed in as a
PositiveOperator is read through its cached decomposition, so evaluating
many orders on the same operators decomposes each of them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import (
    SpectralDecomposition,
    finite_rows,
    hermitian_part,
    log2_power_sum,
    real_traces,
    support_mask,
)
from .states import PositiveOperator, as_matrix, fidelity, matrix_pair, spectrum_of

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
    """Entropy -Tr{rho log2 rho} over the support.

    A PositiveOperator's entropy is read from the eigenvalues its validation
    computed.
    """
    if isinstance(rho, PositiveOperator):
        eigs = rho.eigenvalues
    else:
        eigs = np.linalg.eigvalsh(hermitian_part(as_matrix(rho)))
    keep = support_mask(eigs)
    (logs,) = finite_rows((eigs[keep],), (np.log2,))
    return float(-np.sum(eigs[keep] * logs))


def rel_entropy(rho, sigma) -> float:
    """Quantum relative entropy Tr{rho (log2 rho - log2 sigma)}.

    Returns +inf when supp(rho) is not contained in supp(sigma).
    """
    a, _ = matrix_pair(rho, sigma)
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
    log_p, log_q = finite_rows((p, q), (np.log2, np.log2))
    overlaps = np.abs(va.conj().T @ vb) ** 2  # |<a_i|b_j>|^2
    return float(np.sum(p * log_p) - np.sum((p[:, None] * overlaps) * log_q[None, :]))


def renyi_rel_entropy(rho, sigma, a) -> float:
    """alpha-Renyi relative entropy (1/(alpha-1)) log2 Tr{rho^alpha sigma^(1-alpha)}.

    +inf when alpha > 1 and supp(rho) is not contained in supp(sigma), and
    also when the trace functional vanishes (disjoint supports, alpha < 1).
    """
    return renyi_rel_entropy_grid(rho, sigma, (a,))[0]


def renyi_rel_entropy_grid(rho, sigma, alphas) -> list[float]:
    """``renyi_rel_entropy`` at each order of ``alphas``, evaluated as one stack."""
    checked, rho_m, dec_sigma, live = _grid_terms(rho, sigma, alphas)
    values = [math.inf] * len(checked)
    if live:
        traces = real_traces(
            spectrum_of(rho).powers([checked[i].alpha for i in live])
            @ dec_sigma.powers([1.0 - checked[i].alpha for i in live])
        )
        for i, value in zip(live, traces):
            if value > 0.0:
                values[i] = float(np.log2(value) / (checked[i].alpha - 1.0))
    return values


def sandwiched_rel_entropy(rho, sigma, a) -> float:
    """Sandwiched Renyi relative entropy.

    (1/(alpha-1)) log2 Tr{ (sigma^((1-alpha)/2alpha) rho sigma^((1-alpha)/2alpha))^alpha }.
    """
    return sandwiched_rel_entropy_grid(rho, sigma, (a,))[0]


def sandwiched_rel_entropy_grid(rho, sigma, alphas) -> list[float]:
    """``sandwiched_rel_entropy`` at each order of ``alphas``, evaluated as one
    stack."""
    checked, rho_m, dec_sigma, live = _grid_terms(rho, sigma, alphas)
    values = [math.inf] * len(checked)
    if live:
        wedge = dec_sigma.powers(
            [(1.0 - checked[i].alpha) / (2.0 * checked[i].alpha) for i in live]
        )
        core = hermitian_part(wedge @ rho_m @ wedge)
        for i, eigs in zip(live, np.linalg.eigvalsh(core)):
            log_value = log2_power_sum(eigs, checked[i].alpha)
            if log_value != -math.inf:
                values[i] = float(log_value / (checked[i].alpha - 1.0))
    return values


def _grid_terms(rho, sigma, alphas):
    """The checked orders, rho's matrix, sigma's decomposition, and the
    indices of the orders whose value is not +inf by support alone."""
    checked = [as_alpha(a) for a in alphas]
    rho_m, _ = matrix_pair(rho, sigma)
    dec_sigma = spectrum_of(sigma)
    if any(a.alpha > 1.0 for a in checked) and not dec_sigma.supports(rho_m):
        live = [i for i, a in enumerate(checked) if a.alpha <= 1.0]
    else:
        live = list(range(len(checked)))
    return checked, rho_m, dec_sigma, live


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
    rho_m, _ = matrix_pair(rho, sigma)
    dec_sigma = spectrum_of(sigma)
    if not dec_sigma.supports(rho_m):
        return math.inf
    inv_sqrt = dec_sigma.power(-0.5)
    core = inv_sqrt @ rho_m @ inv_sqrt
    eigs = np.linalg.eigvalsh(hermitian_part(core))
    top = float(eigs[-1])
    if top <= 0.0:
        return math.inf
    return float(np.log2(top))
