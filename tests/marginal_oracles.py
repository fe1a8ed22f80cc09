"""Explicit marginal-product implementations of the CMI-side measures.

The library evaluates every CMI measure as the matching relative-entropy
difference of the CMI triple (rho_ABC, rho_AC x I_B, Tr_A), read from the
marginals.  The formulas here are written the other way: directly as products
of embedded powers of rho_AC, rho_BC and rho_C, in the order the defining
expressions give them.  They share only the matrix primitives with the
library, so agreement with it checks the reduction itself.  All outputs are
in bits.
"""

import numpy as np

from qmarkov.divergences import max_rel_entropy, min_rel_entropy
from qmarkov.linalg import (
    alpha_norm,
    embed_operator,
    herm_exp,
    herm_log,
    herm_pow,
    spectral_norm,
)


def _symmetrize(m):
    return (m + m.conj().T) / 2


def _ac(state, x):
    return embed_operator(x, state.dims, (0, 2))


def _bc(state, x):
    return embed_operator(x, state.dims, (1, 2))


def _c(state, x):
    return embed_operator(x, state.dims, (2,))


def _chain(state, h):
    """The marginal product with exponents (h, -h, 2h, -h, h) on (AC, C, BC, C, AC)."""
    p_ac = _ac(state, herm_pow(state.rho_ac, h))
    p_c = _c(state, herm_pow(state.rho_c, -h))
    p_bc = _bc(state, herm_pow(state.rho_bc, 2.0 * h))
    return p_ac @ p_c @ p_bc @ p_c @ p_ac


def renyi_cmi(state, alpha):
    """(1/(a-1)) log2 Tr{rho^a rho_AC^((1-a)/2) rho_C^((a-1)/2) rho_BC^(1-a)
    rho_C^((a-1)/2) rho_AC^((1-a)/2)}."""
    chain = _chain(state, (1.0 - alpha) / 2.0)
    value = float(np.trace(herm_pow(state.matrix, alpha) @ chain).real)
    return float(np.log2(value) / (alpha - 1.0))


def sandwiched_cmi(state, alpha):
    """(2a/(a-1)) log2 ||rho^(1/2) rho_AC^h rho_C^(-h) rho_BC^h||_2a, h = (1-a)/2a."""
    h = (1.0 - alpha) / (2.0 * alpha)
    product = (
        herm_pow(state.matrix, 0.5)
        @ _ac(state, herm_pow(state.rho_ac, h))
        @ _c(state, herm_pow(state.rho_c, -h))
        @ _bc(state, herm_pow(state.rho_bc, h))
    )
    return float(2.0 * alpha / (alpha - 1.0) * np.log2(alpha_norm(product, 2.0 * alpha)))


def recovered_product(state):
    """rho_AC^(1/2) rho_C^(-1/2) rho_BC rho_C^(-1/2) rho_AC^(1/2), embedded."""
    s_ac = _ac(state, herm_pow(state.rho_ac, 0.5))
    s_c = _c(state, herm_pow(state.rho_c, -0.5))
    return _symmetrize(s_ac @ s_c @ _bc(state, state.rho_bc) @ s_c @ s_ac)


def minmax_cmi(state, kind):
    """D_max or D_min between rho_ABC and the recovered product."""
    divergence = max_rel_entropy if kind == "max" else min_rel_entropy
    return divergence(state.matrix, recovered_product(state))


def minmax_cmi_norm_form(state, kind):
    """The product-of-powers evaluation of the min/max CMI.

    max: 2 log2 ||rho_ABC^(1/2) rho_AC^(-1/2) rho_C^(1/2) rho_BC^(-1/2)||_inf;
    min: -2 log2 ||rho_ABC^(1/2) rho_AC^(1/2) rho_C^(-1/2) rho_BC^(1/2)||_1.
    """
    root = herm_pow(state.matrix, 0.5)
    if kind == "max":
        product = (
            root
            @ _ac(state, herm_pow(state.rho_ac, -0.5))
            @ _c(state, herm_pow(state.rho_c, 0.5))
            @ _bc(state, herm_pow(state.rho_bc, -0.5))
        )
        return float(2.0 * np.log2(spectral_norm(product)))
    product = (
        root
        @ _ac(state, herm_pow(state.rho_ac, 0.5))
        @ _c(state, herm_pow(state.rho_c, -0.5))
        @ _bc(state, herm_pow(state.rho_bc, 0.5))
    )
    return float(-2.0 * np.log2(alpha_norm(product, 1.0)))


def cmi_trace_value(state, alpha, sandwiched=False):
    """Tr{chain^(1/(1-a))}, inner exponents and closing exponent scaled by a
    in the sandwiched form."""
    h = (1.0 - alpha) / 2.0
    closing = 1.0 / (1.0 - alpha)
    if sandwiched:
        h /= alpha
        closing *= alpha
    return float(np.trace(herm_pow(_symmetrize(_chain(state, h)), closing)).real)


def exp_log_marginals(state):
    """exp(log rho_AC + log rho_BC - log rho_C), embedded in A x B x C."""
    exponent = (
        _ac(state, herm_log(state.rho_ac))
        + _bc(state, herm_log(state.rho_bc))
        - _c(state, herm_log(state.rho_c))
    )
    return herm_exp(_symmetrize(exponent))


def lie_trotter_deviation(state, alpha):
    """||chain^(1/(1-a)) - exp(log rho_AC + log rho_BC - log rho_C)||_inf."""
    chain = _symmetrize(_chain(state, (1.0 - alpha) / 2.0))
    return spectral_norm(herm_pow(chain, 1.0 / (1.0 - alpha)) - exp_log_marginals(state))
