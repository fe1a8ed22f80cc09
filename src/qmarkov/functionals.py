"""Trace functionals and fixed-point residuals used by the verification suites.

These evaluate the bracketed recovery-type operators whose traces are bounded
by one, the exponential-of-logarithms corollaries of those bounds, and the
operator identities that characterize exact recoverability.
"""

from __future__ import annotations

import numpy as np

from .channels import adjoint_apply, apply_channel
from .linalg import herm_exp, herm_log, herm_pow, spectral_norm
from .measures import ChannelTriple, TripartiteState, _cmi_chain, _pulled_bracket

LN2 = float(np.log(2.0))


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def cmi_trace_value(state: TripartiteState, alpha: float, sandwiched: bool = False) -> float:
    """Trace of the recovered-marginal chain raised to its closing exponent.

    Plain form: Tr{(rho_AC^((1-a)/2) rho_C^((a-1)/2) rho_BC^(1-a)
    rho_C^((a-1)/2) rho_AC^((1-a)/2))^(1/(1-a))}, at most 1.  The sandwiched
    form divides the inner exponents by alpha and closes with alpha/(1-alpha).
    Equality at 1 holds exactly on short Markov chains.
    """
    h = (1.0 - alpha) / 2.0
    closing = 1.0 / (1.0 - alpha)
    if sandwiched:
        h /= alpha
        closing *= alpha
    chain = _symmetrize(_cmi_chain(state, h))
    return float(np.trace(herm_pow(chain, closing)).real)


def _channel_bracket(triple: ChannelTriple, alpha: float, sandwiched: bool) -> np.ndarray:
    h = (1.0 - alpha) / 2.0
    if sandwiched:
        h /= alpha
    pulled = _pulled_bracket(triple, h)
    wedge = herm_pow(triple.sigma.matrix, h)
    return _symmetrize(wedge @ pulled @ wedge)


def channel_trace_value(triple: ChannelTriple, alpha: float, sandwiched: bool = False) -> float:
    """Trace of the channel-form bracket raised to its closing exponent.

    Tr{[sigma^(h) N†(N(sigma)^(-h) N(rho)^(2h) N(sigma)^(-h)) sigma^(h)]^(1/(1-a))}
    with h = (1-a)/2 (or h divided by alpha and closing exponent alpha/(1-a)
    in the sandwiched form); at most 1, with equality iff the channel is
    sufficient for rho and sigma.
    """
    closing = 1.0 / (1.0 - alpha)
    if sandwiched:
        closing *= alpha
    bracket = _channel_bracket(triple, alpha, sandwiched)
    return float(np.trace(herm_pow(bracket, closing)).real)


def _pulled_log_ratio(triple: ChannelTriple) -> np.ndarray:
    """N†(log N(rho) - log N(sigma)), natural logarithms."""
    return adjoint_apply(
        triple.channel, herm_log(triple.out_rho) - herm_log(triple.out_sigma)
    )


def _exp_log_marginals(state: TripartiteState) -> np.ndarray:
    """exp(log rho_AC + log rho_BC - log rho_C), embedded in A x B x C."""
    exponent = (
        state.embed_ac(herm_log(state.rho_ac))
        + state.embed_bc(herm_log(state.rho_bc))
        - state.embed_c(herm_log(state.rho_c))
    )
    return herm_exp(_symmetrize(exponent))


def exp_trace_channel_value(triple: ChannelTriple) -> float:
    """Tr{exp(log sigma + N†(log N(rho) - log N(sigma)))}; at most 1."""
    exponent = _symmetrize(herm_log(triple.sigma.matrix) + _pulled_log_ratio(triple))
    return float(np.trace(herm_exp(exponent)).real)


def exp_trace_cmi_value(state: TripartiteState) -> float:
    """Tr{exp(log rho_AC + log rho_BC - log rho_C)}; at most 1."""
    return float(np.trace(_exp_log_marginals(state)).real)


def lie_trotter_deviation(state: TripartiteState, alpha: float) -> float:
    """Operator-norm gap between the closed chain and its alpha -> 1 limit.

    Compares (rho_AC^((1-a)/2) rho_C^((a-1)/2) rho_BC^(1-a) rho_C^((a-1)/2)
    rho_AC^((1-a)/2))^(1/(1-a)) with exp(log rho_AC + log rho_BC - log rho_C);
    the gap vanishes as alpha approaches 1.
    """
    chain = _symmetrize(_cmi_chain(state, (1.0 - alpha) / 2.0))
    closed = herm_pow(chain, 1.0 / (1.0 - alpha))
    return spectral_norm(closed - _exp_log_marginals(state))


def recovery_fixed_point_residual(triple: ChannelTriple, alpha: float) -> float:
    """Spectral-norm residual of rho = [channel-form bracket]^(1/(1-alpha)).

    Zero exactly when the plain Renyi relative-entropy difference vanishes.
    """
    bracket = _channel_bracket(triple, alpha, sandwiched=False)
    closed = herm_pow(bracket, 1.0 / (1.0 - alpha))
    return spectral_norm(closed - triple.rho.matrix)


def sandwiched_fixed_point_residual(triple: ChannelTriple, alpha: float) -> float:
    """Spectral-norm residual of rho = [sandwiched bracket]^(alpha/(1-alpha))."""
    bracket = _channel_bracket(triple, alpha, sandwiched=True)
    closed = herm_pow(bracket, alpha / (1.0 - alpha))
    return spectral_norm(closed - triple.rho.matrix)


def output_fixed_point_residual(triple: ChannelTriple, alpha: float) -> float:
    """Residual of [N(sigma)^((a-1)/2) N(sigma^((1-a)/2) rho^a sigma^((1-a)/2))
    N(sigma)^((a-1)/2)]^(1/a) = N(rho), in spectral norm."""
    h = (1.0 - alpha) / 2.0
    wedge = herm_pow(triple.sigma.matrix, h)
    pushed = apply_channel(
        triple.channel, _symmetrize(wedge @ herm_pow(triple.rho.matrix, alpha) @ wedge)
    )
    out_wedge = herm_pow(triple.out_sigma, -h)
    closed = herm_pow(_symmetrize(out_wedge @ pushed @ out_wedge), 1.0 / alpha)
    return spectral_norm(closed - triple.out_rho)


def log_identity_residual(triple: ChannelTriple) -> float:
    """Operator-norm residual of N†[log2 N(rho) - log2 N(sigma)] = log2 rho - log2 sigma.

    The identity holds exactly when the channel is sufficient for rho and
    sigma; with the conditional-mutual-information substitution it becomes
    log rho_ABC = log rho_AC + log rho_BC - log rho_C.
    """
    direct = herm_log(triple.rho.matrix) - herm_log(triple.sigma.matrix)
    return spectral_norm(_pulled_log_ratio(triple) - direct) / LN2
