"""Trace functionals and fixed-point residuals used by the verification suites.

These evaluate the bracketed recovery-type operators whose traces are bounded
by one, the exponential-of-logarithms corollaries of those bounds, and the
operator identities that characterize exact recoverability.  Powers and
logarithms of rho, N(rho) and N(sigma) are read from the decompositions the
triple or state caches, so a sweep over orders decomposes each once, and the
exp-log operator is read from ``exp_log_sum``, built once per object.  Each
order-dependent functional has a grid form that closes the operators of all
its orders with one stacked ``svd`` of their Kraus-block factors, so no
bracket is formed; its values equal the one-order evaluation bit for bit.
Every order is checked by ``as_alpha`` before any is evaluated.
"""

from __future__ import annotations

import numpy as np

from .divergences import as_alpha
from .errors import RankDeficientError
from .linalg import _power_of, finite_rows, gram_pows, real_traces, spectral_norm, spectral_norms
from .measures import ChannelTriple, TripartiteState, _kraus_products

LN2 = float(np.log(2.0))


def _closed_brackets(x, alphas, sandwiched: bool, closing) -> np.ndarray:
    """The channel-form bracket at each order a, h = (1-a)/2 (divided by a
    when ``sandwiched``), raised to ``closing(a)``: the bracket is W W† for
    W† = ``_kraus_products(x, hs, I)``, closed from W's singular values."""
    alphas = [as_alpha(a).alpha for a in alphas]
    hs = [(1.0 - a) / 2.0 / a if sandwiched else (1.0 - a) / 2.0 for a in alphas]
    factors = _kraus_products(x, hs, np.eye(x.rho.dim))
    return gram_pows(factors.conj().swapaxes(-1, -2), [closing(a) for a in alphas])


def channel_trace_value(
    triple: ChannelTriple | TripartiteState, alpha: float, sandwiched: bool = False
) -> float:
    """Trace of the channel-form bracket raised to its closing exponent.

    Tr{[sigma^(h) N†(N(sigma)^(-h) N(rho)^(2h) N(sigma)^(-h)) sigma^(h)]^(1/(1-a))}
    with h = (1-a)/2 (or h divided by alpha and closing exponent alpha/(1-a)
    in the sandwiched form); at most 1, with equality iff the channel is
    sufficient for rho and sigma.  A TripartiteState is read as its CMI
    triple, whose bracket is rho_AC^((1-a)/2) rho_C^((a-1)/2) rho_BC^(1-a)
    rho_C^((a-1)/2) rho_AC^((1-a)/2), with equality exactly on short Markov
    chains.
    """
    return channel_trace_value_grid(triple, (alpha,), sandwiched)[0]


def channel_trace_value_grid(
    triple: ChannelTriple | TripartiteState, alphas, sandwiched: bool = False
) -> list[float]:
    """``channel_trace_value`` at each order of ``alphas``, as one stack."""
    # 1/(1-a), times a in the sandwiched form; a/(1-a) may round differently
    closed = _closed_brackets(
        triple, alphas, sandwiched, lambda a: 1.0 / (1.0 - a) * (a if sandwiched else 1.0)
    )
    return [float(value) for value in real_traces(closed)]


def exp_trace_channel_value(triple: ChannelTriple | TripartiteState) -> float:
    """Tr{exp(log sigma + N†(log N(rho) - log N(sigma)))}; at most 1.

    A TripartiteState is read as its CMI triple.
    """
    return float(np.trace(triple.exp_log_sum).real)


def lie_trotter_deviation(x: ChannelTriple | TripartiteState, alpha: float) -> float:
    """Operator-norm gap between the closed bracket and its alpha -> 1 limit.

    Compares [sigma^h N†(N(sigma)^(-h) N(rho)^(2h) N(sigma)^(-h)) sigma^h]^(1/(1-a)),
    h = (1-a)/2, with exp(log sigma + N†(log N(rho) - log N(sigma))); for a
    state these are (rho_AC^((1-a)/2) rho_C^((a-1)/2) rho_BC^(1-a)
    rho_C^((a-1)/2) rho_AC^((1-a)/2))^(1/(1-a)) and
    exp(log rho_AC + log rho_BC - log rho_C).  The gap vanishes as alpha
    approaches 1.
    """
    return lie_trotter_deviation_grid(x, (alpha,))[0]


def lie_trotter_deviation_grid(x: ChannelTriple | TripartiteState, alphas) -> list[float]:
    """``lie_trotter_deviation`` at each order of ``alphas``, as one stack."""
    closed = _closed_brackets(x, alphas, False, lambda a: 1.0 / (1.0 - a))
    return spectral_norms(closed - x.exp_log_sum)


def recovery_fixed_point_residual(triple: ChannelTriple, alpha: float) -> float:
    """Spectral-norm residual of rho = [channel-form bracket]^(1/(1-alpha)).

    Zero exactly when the plain Renyi relative-entropy difference vanishes.
    """
    return recovery_fixed_point_residual_grid(triple, (alpha,))[0]


def recovery_fixed_point_residual_grid(triple: ChannelTriple, alphas) -> list[float]:
    """``recovery_fixed_point_residual`` at each order of ``alphas``, as one stack."""
    closed = _closed_brackets(triple, alphas, False, lambda a: 1.0 / (1.0 - a))
    return spectral_norms(closed - triple.rho.matrix)


def sandwiched_fixed_point_residual(triple: ChannelTriple, alpha: float) -> float:
    """Spectral-norm residual of rho = [sandwiched bracket]^(alpha/(1-alpha))."""
    return sandwiched_fixed_point_residual_grid(triple, (alpha,))[0]


def sandwiched_fixed_point_residual_grid(triple: ChannelTriple, alphas) -> list[float]:
    """``sandwiched_fixed_point_residual`` at each order of ``alphas``, as one stack."""
    closed = _closed_brackets(triple, alphas, True, lambda a: a / (1.0 - a))
    return spectral_norms(closed - triple.rho.matrix)


def output_fixed_point_residual(triple: ChannelTriple, alpha: float) -> float:
    """Residual of [N(sigma)^((a-1)/2) N(sigma^((1-a)/2) rho^a sigma^((1-a)/2))
    N(sigma)^((a-1)/2)]^(1/a) = N(rho), in spectral norm."""
    return output_fixed_point_residual_grid(triple, (alpha,))[0]


def output_fixed_point_residual_grid(triple: ChannelTriple, alphas) -> list[float]:
    """``output_fixed_point_residual`` at each order of ``alphas``, as one stack.

    The closed operator is (V V†)^(1/a) for the blocks K_i sigma^h v lambda^(a/2)
    side by side, times N(sigma)^(-h): h = (1-a)/2, (lambda, v) rho's kept
    eigenpairs.  It is read from V's singular values.
    """
    alphas = [as_alpha(a).alpha for a in alphas]
    hs = [(1.0 - a) / 2.0 for a in alphas]
    _, kept, v = triple.rho.spectrum.support
    weights = finite_rows([kept] * len(alphas), [_power_of(a / 2.0) for a in alphas])
    blocks = triple.kraus_wedge([_power_of(h) for h in hs], v)
    k, r, d_out, n = blocks.shape
    blocks = blocks * np.reshape(weights, (k, 1, 1, n))
    factors = triple.out_sigma_spectrum.powers([-h for h in hs])[:, None] @ blocks
    factors = factors.swapaxes(1, 2).reshape(k, d_out, r * n)
    return spectral_norms(gram_pows(factors, [1.0 / a for a in alphas]) - triple.out_rho)


def log_identity_residual(triple: ChannelTriple) -> float:
    """Operator-norm residual of N†[log2 N(rho) - log2 N(sigma)] = log2 rho - log2 sigma.

    The identity holds exactly when the channel is sufficient for rho and
    sigma; with the conditional-mutual-information substitution it becomes
    log rho_ABC = log rho_AC + log rho_BC - log rho_C.  All four operators
    must be positive definite for the logarithms to be full rank; otherwise
    RankDeficientError is raised.
    """
    if not triple.is_positive_definite():
        raise RankDeficientError(
            "log identity requires rho, sigma, and channel outputs positive definite"
        )
    direct = triple.rho.spectrum.apply(np.log) - triple.sigma_fn((np.log,))[0]
    return spectral_norm(triple.pulled_log_ratio() - direct) / LN2
