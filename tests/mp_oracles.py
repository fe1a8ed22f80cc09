"""The Renyi differences and trace functionals of a dense triple at 50
significant digits.

An independent evaluation for small inputs (d <= 8): the float64 entries of
rho, sigma and the Kraus operators are taken as exact, and every channel
output, decomposition, power and trace is computed with mpmath at 50 digits
(``mp.eighe``).  Functions act on the support as the library defines it:
an eigenvalue is kept when it exceeds SUPPORT_CUTOFF times the largest
magnitude.  The formulas are the dense ones of the definitions, with the
bracket sigma^h N†(N(sigma)^(-h) N(rho)^(2h) N(sigma)^(-h)) sigma^h formed
explicitly, so they share no product order with the library's.  An operator
the library reads through a factor W, as W W† from W's singular values s,
is kept above SUPPORT_CUTOFF^2 times its largest eigenvalue, the support
that s defines: the sandwiched core and every closed bracket.  Differences
are returned in bits, and every value as a float.  The two Renyi relative
entropies of a pair of matrices are read the same way, from the dense
Tr{rho^alpha sigma^(1-alpha)} and the sandwiched core sigma^h rho sigma^h.
"""

from functools import cached_property

from mpmath import mp

from qmarkov.linalg import SUPPORT_CUTOFF

DIGITS = 50


def _matrix(a):
    return mp.matrix([[mp.mpc(complex(z)) for z in row] for row in a])


def _dagger(m):
    return m.transpose_conj()


class _Decomposition:
    """Kept eigenvalues and eigenvectors of a Hermitian mp matrix: those
    above ``cutoff`` times the largest magnitude, or all of them when
    ``cutoff`` is None."""

    def __init__(self, m, cutoff=SUPPORT_CUTOFF):
        values, vectors = mp.eighe((m + _dagger(m)) / 2)
        n = m.rows
        top = max(abs(values[j]) for j in range(n))
        self.values = [values[j] for j in range(n)]
        self.pairs = [(values[j], vectors[:, j]) for j in range(n)
                      if cutoff is None or values[j] > cutoff * top]

    def apply(self, f):
        n = self.pairs[0][1].rows
        out = mp.zeros(n, n)
        for value, vector in self.pairs:
            out += f(value) * (vector * _dagger(vector))
        return out

    def power(self, p):
        return self.apply(lambda x: mp.power(x, p))


class MpTriple:
    """A ChannelTriple's rho, sigma and Kraus operators, read at 50 digits."""

    def __init__(self, triple):
        with mp.workdps(DIGITS):
            self.rho = _matrix(triple.rho.matrix)
            self.sigma = _matrix(triple.sigma.matrix)
            self.kraus = [_matrix(k) for k in triple.channel.kraus]
        self._brackets = {}

    def apply(self, m):
        return sum((k * m * _dagger(k) for k in self.kraus[1:]),
                   self.kraus[0] * m * _dagger(self.kraus[0]))

    def pull(self, m):
        return sum((_dagger(k) * m * k for k in self.kraus[1:]),
                   _dagger(self.kraus[0]) * m * self.kraus[0])

    @cached_property
    def spectra(self):
        with mp.workdps(DIGITS):
            return tuple(_Decomposition(m) for m in (
                self.rho, self.sigma, self.apply(self.rho), self.apply(self.sigma)))

    def bracket(self, h):
        """sigma^h N†(N(sigma)^(-h) N(rho)^(2h) N(sigma)^(-h)) sigma^h."""
        _, sigma, out_rho, out_sigma = self.spectra
        out_wedge = out_sigma.power(-h)
        wedge = sigma.power(h)
        return wedge * self.pull(out_wedge * out_rho.power(2 * h) * out_wedge) * wedge

    def closed_bracket(self, h, p):
        """The bracket at h raised to p, on the support its factor defines;
        the decomposition is kept for the next closing at the same h."""
        if h not in self._brackets:
            self._brackets[h] = _Decomposition(self.bracket(h), SUPPORT_CUTOFF**2)
        return self._brackets[h].power(p)

    @cached_property
    def exp_log_sum(self):
        """exp(log sigma + N†(log N(rho) - log N(sigma))), the logarithms on
        their supports and the exponential over the full spectrum."""
        with mp.workdps(DIGITS):
            _, sigma, out_rho, out_sigma = self.spectra
            m = sigma.apply(mp.log) + self.pull(out_rho.apply(mp.log) - out_sigma.apply(mp.log))
            return _Decomposition(m, None).apply(mp.exp)


def _trace(m):
    return mp.re(sum(m[j, j] for j in range(m.rows)))


def _spectral_norm(m):
    """The largest eigenvalue magnitude of a Hermitian matrix."""
    return max(abs(v) for v in _Decomposition(m, None).values)


def _closing(alpha, sandwiched):
    """h and the closing exponent: (1-a)/2 and 1/(1-a), or (1-a)/(2a) and
    a/(1-a) in the sandwiched form."""
    a = mp.mpf(alpha)
    if sandwiched:
        return (1 - a) / (2 * a), a / (1 - a)
    return (1 - a) / 2, 1 / (1 - a)


def channel_trace_value(x: MpTriple, alpha, sandwiched=False) -> float:
    """Tr{bracket^closing}."""
    with mp.workdps(DIGITS):
        return float(_trace(x.closed_bracket(*_closing(alpha, sandwiched))))


def lie_trotter_deviation(x: MpTriple, alpha) -> float:
    """||bracket^(1/(1-a)) - exp(log sigma + N†(log N(rho) - log N(sigma)))||."""
    with mp.workdps(DIGITS):
        return float(_spectral_norm(x.closed_bracket(*_closing(alpha, False)) - x.exp_log_sum))


def fixed_point_residual(x: MpTriple, alpha, sandwiched=False) -> float:
    """||bracket^closing - rho||: the recovery fixed point, or the sandwiched one."""
    with mp.workdps(DIGITS):
        return float(_spectral_norm(x.closed_bracket(*_closing(alpha, sandwiched)) - x.rho))


def output_fixed_point_residual(x: MpTriple, alpha) -> float:
    """||[N(sigma)^(-h) N(sigma^h rho^a sigma^h) N(sigma)^(-h)]^(1/a) - N(rho)||,
    h = (1-a)/2, the operator kept on the support of its factor."""
    with mp.workdps(DIGITS):
        a = mp.mpf(alpha)
        h = (1 - a) / 2
        rho, sigma, _, out_sigma = x.spectra
        wedge, out_wedge = sigma.power(h), out_sigma.power(-h)
        m = out_wedge * x.apply(wedge * rho.power(a) * wedge) * out_wedge
        closed = _Decomposition(m, SUPPORT_CUTOFF**2).power(1 / a)
        return float(_spectral_norm(closed - x.apply(x.rho)))


def renyi_rel_ent_diff(x: MpTriple, alpha) -> float:
    """(1/(alpha-1)) log2 Tr{rho^alpha bracket}, h = (1-alpha)/2."""
    with mp.workdps(DIGITS):
        a = mp.mpf(alpha)
        value = _trace(x.spectra[0].power(a) * x.bracket((1 - a) / 2))
        return float(mp.log(value, 2) / (a - 1))


def sandwiched_rel_ent_diff(x: MpTriple, alpha) -> float:
    """(1/(alpha-1)) log2 Tr{(rho^(1/2) bracket rho^(1/2))^alpha},
    h = (1-alpha)/(2 alpha).

    The library keeps the singular values s of a factor P with
    P† P = rho^(1/2) bracket rho^(1/2) above SUPPORT_CUTOFF s_max, so the
    eigenvalues s^2 are kept above SUPPORT_CUTOFF^2 times the largest.
    """
    with mp.workdps(DIGITS):
        a = mp.mpf(alpha)
        root = x.spectra[0].power(mp.mpf(1) / 2)
        core = _Decomposition(root * x.bracket((1 - a) / (2 * a)) * root, SUPPORT_CUTOFF**2)
        value = sum(mp.power(v, a) for v, _ in core.pairs)
        return float(mp.log(value, 2) / (a - 1))


def renyi_rel_entropy(rho, sigma, alpha) -> float:
    """(1/(alpha-1)) log2 Tr{rho^alpha sigma^(1-alpha)} of two matrices."""
    with mp.workdps(DIGITS):
        a = mp.mpf(alpha)
        rho_power, sigma_power = (_Decomposition(_matrix(m)).power(p)
                                  for m, p in ((rho, a), (sigma, 1 - a)))
        return float(mp.log(_trace(rho_power * sigma_power), 2) / (a - 1))


def sandwiched_rel_entropy(rho, sigma, alpha) -> float:
    """(1/(alpha-1)) log2 Tr{(sigma^h rho sigma^h)^alpha} of two matrices,
    h = (1-alpha)/(2 alpha).

    The library reads the core through its factor sigma^h G, G G† = rho, so
    the core is kept above SUPPORT_CUTOFF^2 times its largest eigenvalue.
    """
    with mp.workdps(DIGITS):
        a = mp.mpf(alpha)
        wedge = _Decomposition(_matrix(sigma)).power((1 - a) / (2 * a))
        core = _Decomposition(wedge * _matrix(rho) * wedge, SUPPORT_CUTOFF**2)
        value = sum(mp.power(v, a) for v, _ in core.pairs)
        return float(mp.log(value, 2) / (a - 1))


def rel_ent_diff(x: MpTriple) -> float:
    """D(rho||sigma) - D(N(rho)||N(sigma)), with rho's support in sigma's."""
    with mp.workdps(DIGITS):
        rho, sigma, out_rho, out_sigma = x.spectra
        first = _trace(x.rho * (rho.apply(mp.log) - sigma.apply(mp.log)))
        out = x.apply(x.rho)
        second = _trace(out * (out_rho.apply(mp.log) - out_sigma.apply(mp.log)))
        return float((first - second) / mp.log(2))




def max_recovery_divergence(x: MpTriple) -> float:
    """D_max(rho || R) = log2 lambda_max(L^(-1) rho L^(-1)†), with the
    Petz-recovered R = sigma^(1/2) N†(N(sigma)^(-1/2) N(rho) N(sigma)^(-1/2))
    sigma^(1/2) formed densely and R = L L† its Cholesky factorization; R
    must be positive definite.  rho is not decomposed."""
    with mp.workdps(DIGITS):
        half = mp.mpf(1) / 2
        wedge = _Decomposition(x.sigma).power(half)
        out_wedge = _Decomposition(x.apply(x.sigma)).power(-half)
        recovered = wedge * x.pull(out_wedge * x.apply(x.rho) * out_wedge) * wedge
        whitener = mp.inverse(mp.cholesky((recovered + _dagger(recovered)) / 2))
        m = whitener * x.rho * _dagger(whitener)
        return float(mp.log(max(mp.eighe((m + _dagger(m)) / 2, eigvals_only=True)), 2))
