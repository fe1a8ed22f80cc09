"""The order-grid families evaluated one order, and one matrix, at a time.

The library evaluates a grid of Renyi orders in one call: the powers of a
cached decomposition at k orders form one (k, d, d) array, the order-free
factors are formed once, and the k closing powers are read from one
stacked ``svd`` of their Kraus-block factors.  The functions here evaluate
one order at a time with two-dimensional numpy calls only, in the order the
per-order formulas read, and close every bracket from its own factor's
``svd``.  A grid must equal them bit for bit (``==``), not merely within a
tolerance.  They read the operators' cached decompositions, the channel and
the order checks from the library, which a grid does not change.  On a
state they form the products with f(rho_AC) x I_B and I_A x x as the
library does, by reshaped matmuls that never build a factor on A x B x C,
one order at a time.  All outputs are in bits.

The two Renyi differences read the channel and sigma through the blocks
Y† K_i f(sigma) v, as the library does, and so do the closed brackets: the
bracket sigma^h N†(N(sigma)^(-h) N(rho)^(2h) N(sigma)^(-h)) sigma^h is W W†
for W† the stacked blocks at v = I, and its power is rebuilt from W's
singular vectors and values.  The dense bracket is the independent reading:
``renyi_rel_ent_diff_by_bracket`` is the trace of rho^alpha times it, and
the closing families with ``dense=True`` raise it to the closing power
through its own ``eigh``.  These agree within round-off on full-rank inputs,
not bit for bit; where the bracket has eigenvalues below SUPPORT_CUTOFF
times its largest, the dense reading drops directions the factor keeps.

The two Renyi divergences are these differences on the library's trace
triple (rho, sigma, Tr), one order at a time: the kernel with K = I and
Y = 1.  The output fixed point reads the same products with
Y = N(sigma)^(-h), weighted by rho's eigenvalues to the power alpha/2.

The library reads the Petz map through the same blocks, as P† P for the
kernel's product P at h = 1/2 and v = I; ``petz_map`` is the dense bracket
at h = 1/2, its independent reading, and ``petz_round_trip`` applies the
map in its Kraus form.  They agree within round-off, not bit for bit.
Likewise ``min_recovery_divergence`` reads the min measures as -log2 of the
fidelity between rho and the decomposed recovered operator, which the
library evaluates as the sandwiched difference at alpha = 1/2 instead.
"""

import math

import numpy as np

from qmarkov.channels import apply_channel
from qmarkov.divergences import as_alpha
from qmarkov.linalg import finite_rows, log2_power_sum, support_mask
from qmarkov.measures import ChannelTriple, _checked_alpha, _TraceTriple
from qmarkov.states import Decomposed, fidelity


def _symmetrize(m):
    return (m + m.conj().T) / 2


def _function_of(vals, vecs, f):
    """f on the support of the eigensystem (vals descending, vecs columns)."""
    keep = support_mask(vals)
    if not keep.all():
        vals, vecs = vals[keep], vecs[:, keep]
    return _symmetrize((vecs * finite_rows((vals,), (f,))[0]) @ vecs.conj().T)


def power(dec, p):
    """One support power of a decomposition, as a d x d matrix."""
    return _function_of(dec.eigenvalues, dec.eigenvectors, lambda x: np.power(x, p))


def herm_pow(m, p):
    """The support power of m, from its own two-dimensional ``eigh``."""
    vals, vecs = np.linalg.eigh(_symmetrize(m))
    order = np.argsort(-vals, kind="stable")
    return _function_of(vals[order], vecs[:, order], lambda x: np.power(x, p))


def spectral_norm(m):
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _sigma_fn(triple, f):
    dec = triple.sigma.spectrum
    return _function_of(dec.eigenvalues, dec.eigenvectors, f)


def _wedge_times_pulled(dims, w, m):
    """(w x I_B)(I_A x m) on A x B x C: the sum over C as one matmul, then
    one transpose into A x B x C order."""
    d_a, d_b, d_c = dims
    d = d_a * d_b * d_c
    m = m.reshape(d_b, d_c, d_b * d_c).swapaxes(0, 1).reshape(d_c, d_b * d_b * d_c)
    t = (w.reshape(d_a * d_c * d_a, d_c) @ m).reshape(d_a, d_c, d_a, d_b, d_b * d_c)
    return t.transpose(0, 3, 1, 2, 4).reshape(d, d)


def _times_wedge(dims, x, w):
    """x (w x I_B): the columns of x swap their A and B indices around one matmul."""
    d_a, d_b, d_c = dims
    n = x.shape[0]
    t = x.reshape(n, d_a, d_b, d_c).swapaxes(1, 2).reshape(n * d_b, d_a * d_c) @ w
    return t.reshape(n, d_b, d_a, d_c).swapaxes(1, 2).reshape(n, d_a * d_b * d_c)


def wedged_pull(x, f, inner):
    """f(sigma) N†(inner) f(sigma); on a state, with f(sigma) = w x I_B and
    N†(inner) = I_A x inner never formed."""
    if isinstance(x, ChannelTriple):
        wedge = _sigma_fn(x, f)
        return wedge @ x.pull(inner) @ wedge
    dec = x.sigma_spectrum
    w = _function_of(dec.eigenvalues, dec.eigenvectors, f)
    return _times_wedge(x.dims, _wedge_times_pulled(x.dims, w, inner), w)


def _kraus_wedge(x, f, v):
    """The blocks K_i f(sigma) v, each d_out x n: (K U) f(s) (U† v) with U
    and s sigma's kept eigenvectors and eigenvalues on a triple, the rows of
    U f(s) (U† v) on the trace channel, where K = I, and the rows of
    (w x I_B) v read as (A, B C) on a state."""
    vals, vecs = _kept(x.sigma_spectrum)
    f_vals = finite_rows((vals,), (f,))[0][:, None]
    if isinstance(x, _TraceTriple):
        return list((vecs @ (f_vals * (vecs.conj().T @ v)))[:, None])
    if isinstance(x, ChannelTriple):
        t = np.concatenate(x.channel.kraus) @ vecs @ (f_vals * (vecs.conj().T @ v))
        return np.split(t, len(x.channel.kraus))
    d_a, d_b, d_c = x.dims
    n = v.shape[1]
    v = v.reshape(d_a, d_b, d_c, n).swapaxes(1, 2).reshape(d_a * d_c, d_b * n)
    t = vecs @ (f_vals * (vecs.conj().T @ v))
    return list(t.reshape(d_a, d_c, d_b, n).swapaxes(1, 2).reshape(d_a, d_b * d_c, n))


def _output_y(x, h):
    """Y = N(sigma)^(-h) N(rho)^h, through which the outputs enter both Renyi
    differences and every closed bracket; 1 on the trace channel."""
    if isinstance(x, _TraceTriple):
        return np.ones((1, 1))
    return power(x.out_sigma_spectrum, -h) @ power(x.out_rho_spectrum, h)


def _kraus_products(x, h, v, y):
    """Y† K_i sigma^h v for each i, stacked by rows."""
    return np.concatenate([y.conj().T @ b for b in _kraus_wedge(x, lambda s: s**h, v)])


def _bracket(x, h, middle):
    out_wedge = power(x.out_sigma_spectrum, -h)
    inner = out_wedge @ middle @ out_wedge
    return _symmetrize(wedged_pull(x, lambda v: v**h, _symmetrize(inner)))


def petz_map(x, m):
    """sigma^(1/2) N†(N(sigma)^(-1/2) M N(sigma)^(-1/2)) sigma^(1/2), the dense
    bracket at h = 1/2."""
    return _bracket(x, 0.5, m)


def _kept(dec):
    """The kept eigenvalues and eigenvectors of a decomposition."""
    vals, vecs = dec.eigenvalues, dec.eigenvectors
    keep = support_mask(vals)
    return (vals, vecs) if keep.all() else (vals[keep], vecs[:, keep])


def renyi_rel_ent_diff(x, a, strict=True):
    a = _checked_alpha(x, a, strict)
    vals, vecs = _kept(x.rho.spectrum)
    weights = finite_rows((vals,), (lambda s: np.power(s, a.alpha),))[0]
    h = (1.0 - a.alpha) / 2.0
    products = _kraus_products(x, h, vecs, _output_y(x, h))
    value = np.sum((products * products.conj()).real * weights)
    if value <= 0.0:
        return math.inf
    return float(np.log2(value) / (a.alpha - 1.0))


def renyi_rel_ent_diff_by_bracket(x, a, strict=True):
    """The Renyi difference from Tr{rho^alpha bracket}, the dense bracket of
    the closing-power families."""
    a = _checked_alpha(x, a, strict)
    half = (1.0 - a.alpha) / 2.0
    middle = power(x.out_rho_spectrum, 2.0 * half)
    value = float(np.trace(power(x.rho.spectrum, a.alpha) @ _bracket(x, half, middle)).real)
    if value <= 0.0:
        return math.inf
    return float(np.log2(value) / (a.alpha - 1.0))


def sandwiched_rel_ent_diff(x, a, strict=True):
    a = _checked_alpha(x, a, strict)
    h = (1.0 - a.alpha) / (2.0 * a.alpha)
    sv = np.linalg.svd(_kraus_products(x, h, x.rho.root(), _output_y(x, h)), compute_uv=False)
    log_value = log2_power_sum(sv[support_mask(sv)], 2.0 * a.alpha)
    if log_value == -math.inf:
        return math.inf
    return float(log_value / (a.alpha - 1.0))


def min_recovery_divergence(x):
    """D_min(rho || R(N(rho))) = -log2 F(rho, R(N(rho))), with R(N(rho)) the
    cached recovered operator read through its own decomposition."""
    value = fidelity(x.rho, Decomposed(x.recovered, x.recovered_spectrum))
    if value <= 0.0:
        return math.inf
    return float(-np.log2(value))


def gram_pow(w, p):
    """(W W†)^p from W's own two-dimensional ``svd``, on the support of its
    singular values."""
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    return _function_of(s, u, lambda x: np.power(x, 2.0 * p))


def _closed_bracket(x, alpha, sandwiched, closing, dense):
    h = (1.0 - alpha) / 2.0
    if sandwiched:
        h /= alpha
    if dense:
        return herm_pow(_bracket(x, h, power(x.out_rho_spectrum, 2.0 * h)), closing)
    return gram_pow(_kraus_products(x, h, np.eye(x.rho.dim), _output_y(x, h)).conj().T,
                    closing)


def channel_trace_value(x, alpha, sandwiched=False, dense=False):
    closing = 1.0 / (1.0 - alpha)
    if sandwiched:
        closing *= alpha
    return float(np.trace(_closed_bracket(x, alpha, sandwiched, closing, dense)).real)


def lie_trotter_deviation(x, alpha, dense=False):
    closed = _closed_bracket(x, alpha, False, 1.0 / (1.0 - alpha), dense)
    return spectral_norm(closed - x.exp_log_sum)


def recovery_fixed_point_residual(triple, alpha, dense=False):
    closed = _closed_bracket(triple, alpha, False, 1.0 / (1.0 - alpha), dense)
    return spectral_norm(closed - triple.rho.matrix)


def sandwiched_fixed_point_residual(triple, alpha, dense=False):
    closed = _closed_bracket(triple, alpha, True, alpha / (1.0 - alpha), dense)
    return spectral_norm(closed - triple.rho.matrix)


def output_fixed_point_residual(triple, alpha, dense=False):
    h = (1.0 - alpha) / 2.0
    if dense:
        out_wedge = power(triple.out_sigma_spectrum, -h)
        wedge = _sigma_fn(triple, lambda v: v**h)
        pushed = apply_channel(
            triple.channel, _symmetrize(wedge @ power(triple.rho.spectrum, alpha) @ wedge)
        )
        closed = herm_pow(_symmetrize(out_wedge @ pushed @ out_wedge), 1.0 / alpha)
    else:
        closed = gram_pow(output_factor(triple, alpha), 1.0 / alpha)
    return spectral_norm(closed - triple.out_rho)


def output_factor(triple, alpha):
    """V = [Y† K_1 sigma^h v lambda^(a/2), ..., Y† K_r sigma^h v lambda^(a/2)]
    with Y = N(sigma)^(-h), h = (1-a)/2 and (lambda, v) the kept eigenpairs
    of rho: the kernel's products, weighted; V V† is the operator the output
    fixed point closes."""
    h = (1.0 - alpha) / 2.0
    vals, vecs = _kept(triple.rho.spectrum)
    weights = finite_rows((vals,), (lambda s: np.power(s, alpha / 2.0),))[0]
    products = _kraus_products(triple, h, vecs, power(triple.out_sigma_spectrum, -h))
    return np.concatenate(np.split(products * weights, len(triple.channel.kraus)), axis=1)


def _on_the_trace_channel(oracle, rho, sigma, a):
    """A divergence at one order: the difference ``oracle`` on the library's
    (rho, sigma, Tr), where Y = 1; +inf above 1 when supp(rho) is not in
    supp(sigma)."""
    a = as_alpha(a)
    x = _TraceTriple(rho, sigma)
    if a.alpha > 1.0 and not x.sigma_supports_rho():
        return math.inf
    return oracle(x, a, strict=False)


def renyi_rel_entropy(rho, sigma, a):
    return _on_the_trace_channel(renyi_rel_ent_diff, rho, sigma, a)


def sandwiched_rel_entropy(rho, sigma, a):
    return _on_the_trace_channel(sandwiched_rel_ent_diff, rho, sigma, a)


def petz_kraus(triple):
    """The Petz recovery map of (sigma, channel) as Kraus operators
    sigma^(1/2) K_i† N(sigma)^(-1/2), powers taken on the support."""
    sqrt_sigma = power(triple.sigma.spectrum, 0.5)
    inv_sqrt_out = power(triple.out_sigma_spectrum, -0.5)
    return [sqrt_sigma @ k.conj().T @ inv_sqrt_out for k in triple.channel.kraus]


def petz_round_trip(triple):
    """||R(N(rho)) - rho||_1 and ||R(N(sigma)) - sigma||_1 with R applied
    operator by operator in Kraus form."""
    ops = petz_kraus(triple)

    def recover(m):
        return sum(r @ m @ r.conj().T for r in ops)

    return tuple(
        float(np.sum(np.abs(np.linalg.eigvalsh(_symmetrize(recover(out) - x.matrix)))))
        for out, x in ((triple.out_rho, triple.rho), (triple.out_sigma, triple.sigma))
    )
