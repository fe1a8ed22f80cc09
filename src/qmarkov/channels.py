"""Quantum channels in Kraus form: application, adjoints, recovery maps.

A channel N with Kraus operators {K_i} acts as N(A) = sum_i K_i A K_i†, and
its adjoint (the Heisenberg picture map) as N†(B) = sum_i K_i† B K_i.  The
adjoint is unital whenever N is trace preserving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import herm_pow, hermitian_eig

TP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Channel:
    """Completely positive trace-preserving map in Kraus form.

    ``tp_on_support`` relaxes the trace-preservation check from the identity
    to an orthogonal projector; recovery maps built from rank-deficient
    reference operators are trace preserving only on that support.
    """

    kraus: tuple[np.ndarray, ...]
    dim_in: int = 0
    dim_out: int = 0
    tp_on_support: bool = field(default=False)

    def __post_init__(self):
        ops = tuple(np.ascontiguousarray(np.asarray(k, dtype=complex)) for k in self.kraus)
        if not ops:
            raise ValidationError("bad-spec", "a channel needs at least one Kraus operator")
        if not all(np.all(np.isfinite(k)) for k in ops):
            raise ValidationError("not-finite", "Kraus operator entries must be finite")
        d_out, d_in = ops[0].shape
        if self.dim_in and self.dim_in != d_in:
            raise DimensionMismatchError(
                f"declared dim_in {self.dim_in} but Kraus columns are {d_in}"
            )
        if self.dim_out and self.dim_out != d_out:
            raise DimensionMismatchError(
                f"declared dim_out {self.dim_out} but Kraus rows are {d_out}"
            )
        for k in ops:
            if k.shape != (d_out, d_in):
                raise DimensionMismatchError("inconsistent Kraus operator shapes")
        comp = sum(k.conj().T @ k for k in ops)
        if self.tp_on_support:
            # completeness relation must be an orthogonal projector
            if (
                np.linalg.norm(comp - comp.conj().T, np.inf) > TP_TOL
                or np.linalg.norm(comp @ comp - comp, np.inf) > 1e-8
            ):
                raise ValidationError(
                    "not-trace-preserving",
                    "Kraus completeness relation is not a projector",
                )
        else:
            if np.linalg.norm(comp - np.eye(d_in), np.inf) > TP_TOL:
                raise ValidationError(
                    "not-trace-preserving",
                    "sum of K† K deviates from the identity beyond 1e-10",
                )
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "dim_in", d_in)
        object.__setattr__(self, "dim_out", d_out)

    def __call__(self, a) -> np.ndarray:
        return apply_channel(self, a)


def apply_channel(channel: Channel, a) -> np.ndarray:
    """Schroedinger-picture action sum_i K_i A K_i†."""
    m = np.asarray(a, dtype=complex)
    if m.shape != (channel.dim_in, channel.dim_in):
        raise DimensionMismatchError(
            f"input shape {m.shape} does not match dim_in {channel.dim_in}"
        )
    out = np.zeros((channel.dim_out, channel.dim_out), dtype=complex)
    for k in channel.kraus:
        out += k @ m @ k.conj().T
    return out


def adjoint_apply(channel: Channel, b) -> np.ndarray:
    """Heisenberg-picture action sum_i K_i† B K_i; unital for CPTP maps."""
    m = np.asarray(b, dtype=complex)
    if m.shape != (channel.dim_out, channel.dim_out):
        raise DimensionMismatchError(
            f"input shape {m.shape} does not match dim_out {channel.dim_out}"
        )
    out = np.zeros((channel.dim_in, channel.dim_in), dtype=complex)
    for k in channel.kraus:
        out += k.conj().T @ m @ k
    return out


def is_strict_cptp(channel: Channel, tol: float = 1e-10) -> bool:
    """True iff N(I) is positive definite, i.e. N preserves positive definiteness."""
    image = apply_channel(channel, np.eye(channel.dim_in))
    eigs = np.linalg.eigvalsh((image + image.conj().T) / 2)
    return bool(eigs[0] > tol)


def identity_channel(dim: int) -> Channel:
    return Channel((np.eye(dim, dtype=complex),))


def depolarizing_channel(dim: int) -> Channel:
    """Completely depolarizing map A -> Tr{A} I / d."""
    ops = []
    for i in range(dim):
        for j in range(dim):
            k = np.zeros((dim, dim), dtype=complex)
            k[i, j] = 1.0 / np.sqrt(dim)
            ops.append(k)
    return Channel(tuple(ops))


def partial_trace_channel(dims, traced_out) -> Channel:
    """Partial trace over the listed factors, as a Kraus-form channel."""
    dims = tuple(int(d) for d in dims)
    traced = set(int(i) for i in traced_out)
    ops = []
    for combo in np.ndindex(*[dims[i] if i in traced else 1 for i in range(len(dims))]):
        factors = []
        for site, pos in enumerate(combo):
            if site in traced:
                bra = np.zeros((1, dims[site]), dtype=complex)
                bra[0, pos] = 1.0
                factors.append(bra)
            else:
                factors.append(np.eye(dims[site], dtype=complex))
        ops.append(reduce(np.kron, factors))
    return Channel(tuple(ops))


def petz_recovery(sigma, channel: Channel) -> Channel:
    """Petz recovery map of ``channel`` with respect to reference ``sigma``.

    Acts as w -> sigma^(1/2) N†( N(sigma)^(-1/2) w N(sigma)^(-1/2) ) sigma^(1/2),
    with inverse square roots restricted to the support.  The Kraus operators
    are sigma^(1/2) K_i† N(sigma)^(-1/2).  When N(sigma) is rank deficient the
    result is trace preserving only on supp(N(sigma)); this is reflected in
    the returned channel's ``tp_on_support`` flag.
    """
    sig = sigma.matrix if hasattr(sigma, "matrix") else np.asarray(sigma, dtype=complex)
    if sig.shape != (channel.dim_in, channel.dim_in):
        raise DimensionMismatchError(
            f"sigma shape {sig.shape} does not match channel dim_in {channel.dim_in}"
        )
    if np.linalg.norm(sig, np.inf) == 0.0:
        raise ValidationError("not-positive", "sigma is the zero operator")
    out_dec = hermitian_eig(apply_channel(channel, sig))
    sqrt_sigma = herm_pow(sig, 0.5)
    inv_sqrt_out = out_dec.power(-0.5)
    ops = tuple(sqrt_sigma @ k.conj().T @ inv_sqrt_out for k in channel.kraus)
    full_rank = bool(out_dec.support[0].all())
    return Channel(ops, tp_on_support=not full_rank)


def stinespring(channel: Channel) -> tuple[np.ndarray, int]:
    """Isometric dilation V with Tr_env{V A V†} = N(A).

    Returns (V, env_dim) where V maps the input space into output x env and
    env_dim equals the number of Kraus operators, hence is at most
    dim_in * dim_out for a minimal Kraus set.
    """
    env_dim = len(channel.kraus)
    v = np.zeros((channel.dim_out * env_dim, channel.dim_in), dtype=complex)
    for i, k in enumerate(channel.kraus):
        basis = np.zeros((env_dim, 1), dtype=complex)
        basis[i, 0] = 1.0
        v += np.kron(k, basis)
    return v, env_dim


def dilation_apply(v: np.ndarray, env_dim: int, a) -> np.ndarray:
    """Apply a Stinespring isometry and trace out the environment."""
    m = np.asarray(a, dtype=complex)
    big = v @ m @ v.conj().T
    d_out = big.shape[0] // env_dim
    t = big.reshape(d_out, env_dim, d_out, env_dim)
    return np.einsum("aebe->ab", t)


def heisenberg_weyl(dim: int) -> list[np.ndarray]:
    """The d^2 clock-and-shift unitaries whose uniform twirl is Tr{X} I / d."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    omega = np.exp(2j * np.pi / dim)
    shift = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        shift[(k + 1) % dim, k] = 1.0
    clock = np.diag(omega ** np.arange(dim))
    return [
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a in range(dim)
        for b in range(dim)
    ]


def twirl(x, unitaries) -> np.ndarray:
    m = np.asarray(x, dtype=complex)
    total = sum(u @ m @ u.conj().T for u in unitaries)
    return total / len(unitaries)


def random_unitary(dim: int, seed=0) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_channel(dim_in: int, dim_out: int, kraus_rank: int = 2, seed=0) -> Channel:
    """Seeded random channel from a Haar-random Stinespring isometry.

    Requires dim_out * kraus_rank >= dim_in so that an isometry exists.
    """
    if dim_out * kraus_rank < dim_in:
        raise ValidationError(
            "bad-spec",
            f"dim_out * kraus_rank = {dim_out * kraus_rank} < dim_in = {dim_in}",
        )
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim_out * kraus_rank, dim_in)) + 1j * rng.standard_normal(
        (dim_out * kraus_rank, dim_in)
    )
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    q = q * phases
    ops = tuple(q[i * dim_out : (i + 1) * dim_out, :] for i in range(kraus_rank))
    return Channel(ops)


def random_strict_channel(
    dim_in: int, dim_out: int, kraus_rank: int = 2, seed=0, max_attempts: int = 16
) -> Channel:
    """Random channel guaranteed strict (N(I) positive definite)."""
    for attempt in range(max_attempts):
        candidate = random_channel(
            dim_in, dim_out, kraus_rank, seed=np.random.SeedSequence((seed, attempt))
        )
        if is_strict_cptp(candidate, tol=1e-8):
            return candidate
    raise ValidationError("bad-spec", "could not draw a strict channel")
