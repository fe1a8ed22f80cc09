"""Quantum channels in Kraus form: application, adjoints, strictness.

A channel N with Kraus operators {K_i} acts as N(A) = sum_i K_i A K_i†, and
its adjoint (the Heisenberg picture map) as N†(B) = sum_i K_i† B K_i.  Every
channel is trace preserving, so its adjoint is unital.  The Petz recovery map
is not built as a channel: it is the bracket a ``ChannelTriple`` caches as
``recovered`` (see ``measures``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import check_count, factor_indices, hermitian_part, subsystem_dims
from .states import seeded_rng

TP_TOL = 1e-10
STRICT_ATTEMPTS = 16  # draws random_strict_channel makes before it gives up


@dataclass(frozen=True, eq=False)
class Channel:
    """Completely positive trace-preserving map in Kraus form."""

    kraus: tuple[np.ndarray, ...]
    dim_in: int = 0
    dim_out: int = 0

    def __post_init__(self):
        ops = tuple(np.ascontiguousarray(np.asarray(k, dtype=complex)) for k in self.kraus)
        if not ops:
            raise ValidationError("bad-spec", "a channel needs at least one Kraus operator")
        if not all(np.all(np.isfinite(k)) for k in ops):
            raise ValidationError("not-finite", "Kraus operator entries must be finite")
        if ops[0].ndim != 2:
            raise DimensionMismatchError(f"Kraus operators must be matrices, got {ops[0].shape}")
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
        if np.linalg.norm(comp - np.eye(d_in), np.inf) > TP_TOL:
            raise ValidationError(
                "not-trace-preserving",
                "sum of K† K deviates from the identity beyond 1e-10",
            )
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "dim_in", d_in)
        object.__setattr__(self, "dim_out", d_out)


def apply_channel(channel: Channel, a) -> np.ndarray:
    """Schroedinger-picture action sum_i K_i A K_i†; ``a`` may be a stack."""
    m = np.asarray(a, dtype=complex)
    if m.shape[-2:] != (channel.dim_in, channel.dim_in):
        raise DimensionMismatchError(
            f"input shape {m.shape} does not match dim_in {channel.dim_in}"
        )
    out = np.zeros(m.shape[:-2] + (channel.dim_out, channel.dim_out), dtype=complex)
    for k in channel.kraus:
        out += k @ m @ k.conj().T
    return out


def adjoint_apply(channel: Channel, b) -> np.ndarray:
    """Heisenberg-picture action sum_i K_i† B K_i, unital for CPTP maps;
    ``b`` may be a stack."""
    m = np.asarray(b, dtype=complex)
    if m.shape[-2:] != (channel.dim_out, channel.dim_out):
        raise DimensionMismatchError(
            f"input shape {m.shape} does not match dim_out {channel.dim_out}"
        )
    out = np.zeros(m.shape[:-2] + (channel.dim_in, channel.dim_in), dtype=complex)
    for k in channel.kraus:
        out += k.conj().T @ m @ k
    return out


def is_strict_cptp(channel: Channel, tol: float = 1e-10) -> bool:
    """True iff N(I) is positive definite, i.e. N preserves positive definiteness.

    N(I) = sum_i K_i K_i† is formed directly; K_i I is K_i exactly, so it
    equals ``apply_channel(channel, np.eye(dim_in))`` bit for bit.
    """
    image = sum(k @ k.conj().T for k in channel.kraus)
    eigs = np.linalg.eigvalsh(hermitian_part(image))
    return bool(eigs[0] > tol)


def partial_trace_channel(dims, traced_out) -> Channel:
    """Partial trace over the listed factors, as a Kraus-form channel."""
    dims = subsystem_dims(dims)
    traced = set(factor_indices(traced_out, len(dims)))
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


def _haar_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-random isometry: the Q of a Ginibre matrix, times the phases of R's diagonal."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_unitary(dim: int, seed=0) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    check_count(dim, "dim")
    return _haar_isometry(seeded_rng(seed), dim, dim)


def random_channel(dim_in: int, dim_out: int, kraus_rank: int = 2, seed=0) -> Channel:
    """Seeded random channel from a Haar-random Stinespring isometry.

    Requires dim_out * kraus_rank >= dim_in so that an isometry exists.
    """
    for name, count in (("dim_in", dim_in), ("dim_out", dim_out), ("kraus_rank", kraus_rank)):
        check_count(count, name)
    if dim_out * kraus_rank < dim_in:
        raise ValidationError(
            "bad-spec",
            f"dim_out * kraus_rank = {dim_out * kraus_rank} < dim_in = {dim_in}",
        )
    q = _haar_isometry(seeded_rng(seed), dim_out * kraus_rank, dim_in)
    ops = tuple(q[i * dim_out : (i + 1) * dim_out, :] for i in range(kraus_rank))
    return Channel(ops)


def random_strict_channel(dim_in: int, dim_out: int, kraus_rank: int = 2, seed=0) -> Channel:
    """Random channel guaranteed strict (N(I) positive definite), from at most
    STRICT_ATTEMPTS seeded draws.

    Attempt k of an integer seed s is seeded by SeedSequence((s, k)); any
    other seed, such as a numpy Generator, gives one generator that every
    attempt draws from.
    """
    rng = seeded_rng(seed)  # rejects a bad seed before SeedSequence does
    per_attempt = isinstance(seed, (int, np.integer))
    for attempt in range(STRICT_ATTEMPTS):
        draw = np.random.SeedSequence((seed, attempt)) if per_attempt else rng
        candidate = random_channel(dim_in, dim_out, kraus_rank, seed=draw)
        if is_strict_cptp(candidate, tol=1e-8):
            return candidate
    raise ValidationError("bad-spec", "could not draw a strict channel")
