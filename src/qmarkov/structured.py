"""Constructors and certifiers for recoverable structures.

Short Markov chains are assembled as direct sums over a decomposition of the
middle system, C = (+)_j C_Lj x C_Rj, with one product state per block; such
states have zero conditional mutual information and are exactly the states
recovered by the Petz map acting on C alone.  Sufficiency triples are the
channel-level analogue: block-diagonal states and a block-diagonal channel
that is unitary on the left factors, which every recovery-type measure maps
to zero.

Blocks occupy contiguous computational-basis ranges in spec order, so every
constructed object is reproducible bit for bit from its spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, random_strict_channel, random_unitary
from .errors import DimensionMismatchError, ValidationError
from .linalg import factor_index, kron, subsystem_dims
from .measures import ChannelTriple, TripartiteState
from .states import (
    DensityOperator,
    PositiveOperator,
    _random_density_matrix,
    seeded_rng,
    trace_distance,
)

WEIGHT_TOL = 1e-12
PETZ_TOL = 1e-9  # trace distance at which a Petz round trip counts as exact


def _check_distribution(weights, what: str) -> None:
    """The block specs' one weight rule: at least one block, and ``weights``
    positive and summing to 1 within WEIGHT_TOL; else ValidationError("bad-spec")."""
    if not weights:
        raise ValidationError("bad-spec", "at least one block is required")
    total = sum(weights)
    if not abs(total - 1.0) <= WEIGHT_TOL:  # written so that NaN fails
        raise ValidationError("bad-spec", f"{what} sum to {total!r}, not 1")
    if not all(w > 0.0 for w in weights):
        raise ValidationError("bad-spec", f"{what} must be positive")


@dataclass(frozen=True, eq=False)
class MarkovBlock:
    """One direct-sum block: a state on A x C_L and a state on C_R x B."""

    weight: float
    dim_cl: int
    dim_cr: int
    rho_left: np.ndarray  # state on A x C_L
    rho_right: np.ndarray  # state on C_R x B


@dataclass(frozen=True, eq=False)
class MarkovBlockSpec:
    dim_a: int
    dim_b: int
    blocks: tuple[MarkovBlock, ...]

    def __post_init__(self):
        _check_distribution([b.weight for b in self.blocks], "block weights")
        for b in self.blocks:
            DensityOperator(b.rho_left, (self.dim_a, b.dim_cl))
            DensityOperator(b.rho_right, (b.dim_cr, self.dim_b))

    @property
    def dim_c(self) -> int:
        return sum(b.dim_cl * b.dim_cr for b in self.blocks)


def build_markov_chain(spec: MarkovBlockSpec) -> TripartiteState:
    """Assemble the direct-sum state on A x B x C from a block spec.

    Each block contributes weight * rho_left x rho_right, reordered from
    (A, C_L, C_R, B) to (A, B, C) with the block's C factors embedded at the
    next contiguous offset inside C.  The result always has zero conditional
    mutual information.
    """
    da, db, dc = spec.dim_a, spec.dim_b, spec.dim_c
    total = da * db * dc
    full = np.zeros((total, total), dtype=complex)
    offset = 0
    for block in spec.blocks:
        d_block = block.dim_cl * block.dim_cr
        x = kron(block.rho_left, block.rho_right)
        # x's basis indices in (A, B, C_L, C_R) order, and where they sit in
        # (A, B, C): each (A, B) part with the C parts at the block's offset
        order = factor_index((da, block.dim_cl, block.dim_cr, db), (0, 3)).ravel()
        at = factor_index((da, db, dc), (0, 1))[:, offset:offset + d_block].ravel()
        full[np.ix_(at, at)] += block.weight * x[np.ix_(order, order)]
        offset += d_block
    return TripartiteState(DensityOperator(full, (da, db, dc)))


@dataclass(frozen=True, eq=False)
class SufficiencyBlock:
    """One block of a sufficiency decomposition.

    The block carries a state and a positive definite reference on the left
    factor (shared up to the probabilities/weights), a common state on the
    right factor, and the block's channel action: a unitary on the left
    tensored with an arbitrary channel on the right.
    """

    prob: float  # state weight p(j); the probs sum to one
    weight: float  # reference weight q(j) > 0, unnormalized
    rho_left: np.ndarray
    sigma_left: np.ndarray
    tau_right: np.ndarray
    unitary: np.ndarray
    channel_right: Channel


@dataclass(frozen=True, eq=False)
class SufficiencyBlockSpec:
    blocks: tuple[SufficiencyBlock, ...]

    def __post_init__(self):
        _check_distribution([b.prob for b in self.blocks], "block probabilities")
        for b in self.blocks:
            if not b.weight > 0.0:
                raise ValidationError("bad-spec", "reference weights must be positive")
            dl = b.rho_left.shape[0]
            DensityOperator(b.rho_left)
            sigma = PositiveOperator(b.sigma_left)
            if sigma.dim != dl:
                raise DimensionMismatchError("sigma_left and rho_left dims differ")
            if not sigma.is_positive_definite():
                raise ValidationError("not-positive", "sigma_left must be positive definite")
            DensityOperator(b.tau_right)
            u = np.asarray(b.unitary, dtype=complex)
            if u.shape != (dl, dl):
                raise DimensionMismatchError(
                    "unitary must be square on the left factor (equal in/out dims)"
                )
            Channel((u,))  # U†U = I is trace preservation of rho -> U rho U†
            if b.channel_right.dim_in != b.tau_right.shape[0]:
                raise DimensionMismatchError("channel_right input does not match tau_right")

    @property
    def dim_in(self) -> int:
        return sum(b.rho_left.shape[0] * b.tau_right.shape[0] for b in self.blocks)

    @property
    def dim_out(self) -> int:
        return sum(b.rho_left.shape[0] * b.channel_right.dim_out for b in self.blocks)


def build_sufficiency_triple(spec: SufficiencyBlockSpec) -> ChannelTriple:
    """Assemble (rho, sigma, channel) from a sufficiency block spec.

    rho = (+)_j p_j rho_L^j x tau_R^j and sigma = (+)_j q_j sigma_L^j x tau_R^j
    live on the input direct sum; the channel acts block-by-block as
    U_j x N_j^R with Kraus operators zero-padded to the full spaces, so no
    cross-block terms ever appear.  The channel is strict whenever every
    block channel is, and is then sufficient for rho and sigma by
    construction.
    """
    d_in, d_out = spec.dim_in, spec.dim_out
    rho = np.zeros((d_in, d_in), dtype=complex)
    sigma = np.zeros((d_in, d_in), dtype=complex)
    kraus: list[np.ndarray] = []
    off_in = 0
    off_out = 0
    for block in spec.blocks:
        dl = block.rho_left.shape[0]
        dr_in = block.tau_right.shape[0]
        dr_out = block.channel_right.dim_out
        b_in = dl * dr_in
        b_out = dl * dr_out
        rho[off_in : off_in + b_in, off_in : off_in + b_in] = block.prob * kron(
            block.rho_left, block.tau_right
        )
        sigma[off_in : off_in + b_in, off_in : off_in + b_in] = block.weight * kron(
            block.sigma_left, block.tau_right
        )
        for small in block.channel_right.kraus:
            padded = np.zeros((d_out, d_in), dtype=complex)
            padded[off_out : off_out + b_out, off_in : off_in + b_in] = kron(
                block.unitary, small
            )
            kraus.append(padded)
        off_in += b_in
        off_out += b_out
    return ChannelTriple(
        rho=DensityOperator(rho),
        sigma=PositiveOperator(sigma),
        channel=Channel(tuple(kraus)),
    )


def is_markov_petz(state: TripartiteState) -> tuple[bool, float]:
    """Petz round-trip test for the Markov property.

    Applies the recovery map rho_AC^(1/2) rho_C^(-1/2) (.) rho_C^(-1/2)
    rho_AC^(1/2) to rho_BC (identity on B) and returns the trace-norm
    distance to the state together with the comparison against ``PETZ_TOL``.
    """
    distance = trace_distance(state.recovered, state.matrix)
    return distance <= PETZ_TOL, float(distance)


def is_sufficient_petz(triple: ChannelTriple) -> tuple[bool, float, float]:
    """Petz round-trip test for channel sufficiency.

    Recovers N(rho) and N(sigma) with the Petz map of (sigma, channel) and
    returns the trace-norm distances ||R(N(rho)) - rho||_1 and
    ||R(N(sigma)) - sigma||_1 with a joint pass flag.  Exact recovery of any
    pair by any channel implies the Petz recovery works, so this certifies
    sufficiency itself.  R(N(rho)) is the triple's cached ``recovered``, and
    R(N(sigma)) is ``petz_recovery`` at N(sigma)'s support projector, so
    both are read from the cached decompositions of sigma and N(sigma).
    """
    sigma_back = triple.petz_recovery(triple.out_sigma_spectrum.power(0))
    d_rho = trace_distance(triple.recovered, triple.rho.matrix)
    d_sigma = trace_distance(sigma_back, triple.sigma.matrix)
    return (d_rho <= PETZ_TOL and d_sigma <= PETZ_TOL), float(d_rho), float(d_sigma)


def _block_dims(block_dims, size: int) -> tuple[tuple[int, ...], ...]:
    """Each block's ``size`` dims, read by the one dims rule
    (``subsystem_dims``); a block of another length raises
    DimensionMismatchError."""
    blocks = tuple(subsystem_dims(b) for b in block_dims)
    if any(len(b) != size for b in blocks):
        raise DimensionMismatchError(f"each block takes {size} dims, got {blocks}")
    return blocks


def random_markov_spec(dim_a: int, dim_b: int, block_dims, seed=0) -> MarkovBlockSpec:
    """Random Markov block spec with full-rank block factors.

    ``block_dims`` is a sequence of (dim_cl, dim_cr) pairs.  Full-rank
    factors make the assembled chain positive definite.
    """
    rng = seeded_rng(seed)
    dim_a, dim_b = subsystem_dims((dim_a, dim_b))
    block_dims = _block_dims(block_dims, 2)
    weights = rng.dirichlet(np.ones(len(block_dims)))
    blocks = []
    for (dcl, dcr), w in zip(block_dims, weights):
        blocks.append(
            MarkovBlock(
                weight=float(w),
                dim_cl=dcl,
                dim_cr=dcr,
                rho_left=_random_density_matrix((dim_a, dcl), seed=rng),
                rho_right=_random_density_matrix((dcr, dim_b), seed=rng),
            )
        )
    return MarkovBlockSpec(dim_a=dim_a, dim_b=dim_b, blocks=tuple(blocks))


def random_sufficiency_spec(block_dims, seed=0) -> SufficiencyBlockSpec:
    """Random sufficiency block spec with strict block channels.

    ``block_dims`` is a sequence of (dim_l, dim_r_in, dim_r_out) triples.
    """
    rng = seeded_rng(seed)
    block_dims = _block_dims(block_dims, 3)
    probs = rng.dirichlet(np.ones(len(block_dims)))
    blocks = []
    for (dl, dr_in, dr_out), p in zip(block_dims, probs):
        weight = float(rng.uniform(0.5, 1.5))
        rho_left = _random_density_matrix((dl,), seed=rng)
        sigma_left = _random_density_matrix((dl,), seed=rng)
        tau_right = _random_density_matrix((dr_in,), seed=rng)
        unitary = random_unitary(dl, seed=rng)
        rank = 2 if dr_out * 2 >= dr_in else int(np.ceil(dr_in / dr_out))
        channel_right = random_strict_channel(
            dr_in, dr_out, kraus_rank=rank, seed=int(rng.integers(2**63))
        )
        blocks.append(
            SufficiencyBlock(
                prob=float(p),
                weight=weight,
                rho_left=rho_left,
                sigma_left=sigma_left,
                tau_right=tau_right,
                unitary=unitary,
                channel_right=channel_right,
            )
        )
    return SufficiencyBlockSpec(blocks=tuple(blocks))
