"""Trace functionals and fixed-point residuals used by the verification suites.

These evaluate the bracketed recovery-type operators whose traces are bounded
by one, the exponential-of-logarithms corollaries of those bounds, and the
operator identities that characterize exact recoverability.  Powers and
logarithms of rho, N(rho) and N(sigma) are read from the decompositions the
triple or state caches, so a sweep over orders decomposes each once, and the
exp-log operator is read from ``exp_log_sum``, built once per object.  Each
order-dependent functional has a grid form that closes the operators of its
orders from the singular values of their Kraus-block factors, so no bracket
is formed.  The differences' kernel (``_kraus_products``) forms the factors
in chunks of as many orders as fit in ``GRID_CHUNK_ENTRIES`` (one order when
a factor is larger), and each chunk is closed with one stacked ``svd`` and
reduced before the next is formed; the values equal the one-order
evaluation bit for bit.  Every order is checked by ``as_alpha`` before
any is evaluated, and the output support once (``check_output_support``).
"""

from __future__ import annotations

import numpy as np

from .divergences import as_alpha
from .errors import RankDeficientError
from .linalg import finite_powers, gram_pows, real_traces, spectral_norm, spectral_norms
from .measures import ChannelTriple, TripartiteState, _kraus_products

LN2 = float(np.log(2.0))


def _closed_brackets(x, alphas, sandwiched: bool, closing, reduce) -> list[float]:
    """``reduce`` of the channel-form bracket at each order a, h = (1-a)/2
    (divided by a when ``sandwiched``), raised to ``closing(a)``: the
    bracket is W W† for W† = ``_kraus_products(x, hs, I, Y)``, Y the
    ``output_factors``, closed from W's singular values."""
    alphas = [as_alpha(a).alpha for a in alphas]
    x.check_output_support()
    hs = [(1.0 - a) / 2.0 / a if sandwiched else (1.0 - a) / 2.0 for a in alphas]
    factors = (
        (part, w.conj().swapaxes(-1, -2))
        for part, w in _kraus_products(x, hs, np.eye(x.rho.dim), x.output_factors(hs))
    )
    return _closed_values(factors, [closing(a) for a in alphas], reduce)


def _closed_values(factors, ps, reduce) -> list[float]:
    """The values ``reduce`` gives the (c, d, d) stack of (W W†)^p, for each
    chunk (orders, W) of ``factors`` and its exponents p of ``ps[orders]``,
    one stacked ``svd`` per chunk, concatenated."""
    values = []
    for part, w in factors:
        values += reduce(gram_pows(w, ps[part]))
    return values


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
    """``channel_trace_value`` at each order of ``alphas``, a chunk at a time."""
    # 1/(1-a), times a in the sandwiched form; a/(1-a) may round differently
    return _closed_brackets(
        triple, alphas, sandwiched, lambda a: 1.0 / (1.0 - a) * (a if sandwiched else 1.0),
        lambda closed: real_traces(closed).tolist(),
    )


def exp_trace_channel_value(triple: ChannelTriple | TripartiteState) -> float:
    """Tr{exp(log sigma + N†(log N(rho) - log N(sigma)))}; at most 1.

    A TripartiteState is read as its CMI triple.
    """
    triple.check_output_support()
    return float(np.trace(triple.exp_log_sum).real)


def lie_trotter_deviation(x: ChannelTriple | TripartiteState, alpha: float) -> float:
    """Operator-norm gap between the closed bracket and its alpha -> 1 limit.

    Compares [sigma^h N†(N(sigma)^(-h) N(rho)^(2h) N(sigma)^(-h)) sigma^h]^(1/(1-a)),
    h = (1-a)/2, with exp(log sigma + N†(log N(rho) - log N(sigma))); for a
    state these are (rho_AC^((1-a)/2) rho_C^((a-1)/2) rho_BC^(1-a)
    rho_C^((a-1)/2) rho_AC^((1-a)/2))^(1/(1-a)) and
    exp(log rho_AC + log rho_BC - log rho_C).  The gap vanishes as alpha
    approaches 1 when the inputs are positive definite.  Otherwise it need
    not: the closed bracket lives on its support, while the exponential is
    1 on the kernel of the logarithms.
    """
    return lie_trotter_deviation_grid(x, (alpha,))[0]


def lie_trotter_deviation_grid(x: ChannelTriple | TripartiteState, alphas) -> list[float]:
    """``lie_trotter_deviation`` at each order of ``alphas``, a chunk at a time."""
    return _closed_brackets(x, alphas, False, lambda a: 1.0 / (1.0 - a),
                            lambda closed: spectral_norms(closed - x.exp_log_sum))


def recovery_fixed_point_residual(triple: ChannelTriple, alpha: float) -> float:
    """Spectral-norm residual of rho = [channel-form bracket]^(1/(1-alpha)).

    Zero exactly when the plain Renyi relative-entropy difference vanishes.
    """
    return recovery_fixed_point_residual_grid(triple, (alpha,))[0]


def recovery_fixed_point_residual_grid(triple: ChannelTriple, alphas) -> list[float]:
    """``recovery_fixed_point_residual`` at each order of ``alphas``, a chunk at a time."""
    return _closed_brackets(triple, alphas, False, lambda a: 1.0 / (1.0 - a),
                            lambda closed: spectral_norms(closed - triple.rho.matrix))


def sandwiched_fixed_point_residual(triple: ChannelTriple, alpha: float) -> float:
    """Spectral-norm residual of rho = [sandwiched bracket]^(alpha/(1-alpha))."""
    return sandwiched_fixed_point_residual_grid(triple, (alpha,))[0]


def sandwiched_fixed_point_residual_grid(triple: ChannelTriple, alphas) -> list[float]:
    """``sandwiched_fixed_point_residual`` at each order of ``alphas``, a chunk at a time."""
    return _closed_brackets(triple, alphas, True, lambda a: a / (1.0 - a),
                            lambda closed: spectral_norms(closed - triple.rho.matrix))


def output_fixed_point_residual(triple: ChannelTriple, alpha: float) -> float:
    """Residual of [N(sigma)^((a-1)/2) N(sigma^((1-a)/2) rho^a sigma^((1-a)/2))
    N(sigma)^((a-1)/2)]^(1/a) = N(rho), in spectral norm."""
    return output_fixed_point_residual_grid(triple, (alpha,))[0]


def output_fixed_point_residual_grid(triple: ChannelTriple, alphas) -> list[float]:
    """``output_fixed_point_residual`` at each order of ``alphas``, a chunk at a time.

    The closed operator is (V V†)^(1/a) for the kernel's products
    N(sigma)^(-h) K_i sigma^h v, Y = N(sigma)^(-h), weighted by lambda^(a/2)
    and set side by side: h = (1-a)/2, (lambda, v) rho's kept eigenpairs.
    It is read from V's singular values.
    """
    alphas = [as_alpha(a).alpha for a in alphas]
    triple.check_output_support()
    hs = [(1.0 - a) / 2.0 for a in alphas]
    kept, v = triple.rho.spectrum.support[1], triple.rho.spectrum.kept_vectors
    weights = finite_powers(kept, [a / 2.0 for a in alphas])[:, None, None, :]
    d_out = triple.out_rho.shape[0]
    ys = triple.out_sigma_spectrum.powers([-h for h in hs])
    factors = (
        (part, (products.reshape(len(products), -1, d_out, kept.size) * weights[part])
         .swapaxes(1, 2).reshape(len(products), d_out, -1))
        for part, products in _kraus_products(triple, hs, v, ys)
    )
    return _closed_values(factors, [1.0 / a for a in alphas],
                          lambda closed: spectral_norms(closed - triple.out_rho))


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
    direct = triple.rho.spectrum.apply(np.log) - triple.sigma_log()
    return spectral_norm(triple.pulled_log_ratio() - direct) / LN2
