"""Trace functionals and fixed-point residuals used by the verification suites.

These evaluate the bracketed recovery-type operators whose traces are bounded
by one, the exponential-of-logarithms corollaries of those bounds, and the
operator identities that characterize exact recoverability.  Powers and
logarithms of rho, N(rho) and N(sigma) are read from the decompositions the
triple or state caches, so a sweep over orders decomposes each once.
"""

from __future__ import annotations

import numpy as np

from .channels import apply_channel
from .linalg import herm_exp, herm_pow, spectral_norm
from .measures import ChannelTriple, TripartiteState, _bracket

LN2 = float(np.log(2.0))


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _channel_bracket(x, alpha: float, sandwiched: bool) -> np.ndarray:
    h = (1.0 - alpha) / 2.0
    if sandwiched:
        h /= alpha
    return _bracket(x, h, x.out_rho_spectrum.power(2.0 * h))


def channel_trace_value(
    triple: ChannelTriple | TripartiteState, alpha: float, sandwiched: bool = False
) -> float:
    """Trace of the channel-form bracket raised to its closing exponent.

    Tr{[sigma^(h) N†(N(sigma)^(-h) N(rho)^(2h) N(sigma)^(-h)) sigma^(h)]^(1/(1-a))}
    with h = (1-a)/2 (or h divided by alpha and closing exponent alpha/(1-a)
    in the sandwiched form); at most 1, with equality iff the channel is
    sufficient for rho and sigma.  A TripartiteState is read as its CMI
    triple.
    """
    closing = 1.0 / (1.0 - alpha)
    if sandwiched:
        closing *= alpha
    bracket = _channel_bracket(triple, alpha, sandwiched)
    return float(np.trace(herm_pow(bracket, closing)).real)


def cmi_trace_value(state: TripartiteState, alpha: float, sandwiched: bool = False) -> float:
    """Trace of the recovered-marginal chain raised to its closing exponent.

    Plain form: Tr{(rho_AC^((1-a)/2) rho_C^((a-1)/2) rho_BC^(1-a)
    rho_C^((a-1)/2) rho_AC^((1-a)/2))^(1/(1-a))}, at most 1.  The sandwiched
    form divides the inner exponents by alpha and closes with alpha/(1-alpha).
    Equality at 1 holds exactly on short Markov chains.
    """
    return channel_trace_value(state, alpha, sandwiched)


def _pulled_log_ratio(x) -> np.ndarray:
    """N†(log N(rho) - log N(sigma)), natural logarithms."""
    return x.pull(x.out_rho_spectrum.apply(np.log) - x.out_sigma_spectrum.apply(np.log))


def _exp_log_sum(x) -> np.ndarray:
    """exp(log sigma + N†(log N(rho) - log N(sigma)))."""
    return herm_exp(_symmetrize(x.sigma_fn(np.log) + _pulled_log_ratio(x)))


def exp_trace_channel_value(triple: ChannelTriple | TripartiteState) -> float:
    """Tr{exp(log sigma + N†(log N(rho) - log N(sigma)))}; at most 1.

    A TripartiteState is read as its CMI triple.
    """
    return float(np.trace(_exp_log_sum(triple)).real)


def exp_trace_cmi_value(state: TripartiteState) -> float:
    """Tr{exp(log rho_AC + log rho_BC - log rho_C)}; at most 1."""
    return exp_trace_channel_value(state)


def lie_trotter_deviation(x: ChannelTriple | TripartiteState, alpha: float) -> float:
    """Operator-norm gap between the closed bracket and its alpha -> 1 limit.

    Compares [sigma^h N†(N(sigma)^(-h) N(rho)^(2h) N(sigma)^(-h)) sigma^h]^(1/(1-a)),
    h = (1-a)/2, with exp(log sigma + N†(log N(rho) - log N(sigma))); for a
    state these are (rho_AC^((1-a)/2) rho_C^((a-1)/2) rho_BC^(1-a)
    rho_C^((a-1)/2) rho_AC^((1-a)/2))^(1/(1-a)) and
    exp(log rho_AC + log rho_BC - log rho_C).  The gap vanishes as alpha
    approaches 1.
    """
    closed = herm_pow(_channel_bracket(x, alpha, sandwiched=False), 1.0 / (1.0 - alpha))
    return spectral_norm(closed - _exp_log_sum(x))


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
    wedge = triple.sigma_fn(lambda v: v**h)
    pushed = apply_channel(
        triple.channel, _symmetrize(wedge @ triple.rho.spectrum.power(alpha) @ wedge)
    )
    out_wedge = triple.out_sigma_spectrum.power(-h)
    closed = herm_pow(_symmetrize(out_wedge @ pushed @ out_wedge), 1.0 / alpha)
    return spectral_norm(closed - triple.out_rho)


def log_identity_residual(triple: ChannelTriple) -> float:
    """Operator-norm residual of N†[log2 N(rho) - log2 N(sigma)] = log2 rho - log2 sigma.

    The identity holds exactly when the channel is sufficient for rho and
    sigma; with the conditional-mutual-information substitution it becomes
    log rho_ABC = log rho_AC + log rho_BC - log rho_C.
    """
    direct = triple.rho.spectrum.apply(np.log) - triple.sigma_fn(np.log)
    return spectral_norm(_pulled_log_ratio(triple) - direct) / LN2
