"""Fixed channels the tests build triples from.

The identity channel is sufficient for every pair.  The completely
depolarizing channel forgets everything but the trace, so its Petz map
recovers the reference and, in general, nothing else.  Amplitude damping
maps |1><1| into both outputs, which ``amplitude_damping_triple`` uses to
put a kept direction of sigma on a dropped one of N(sigma).
"""

import numpy as np

from qmarkov.channels import Channel
from qmarkov.measures import ChannelTriple
from qmarkov.states import DensityOperator, PositiveOperator


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


def amplitude_damping_triple(tail: float) -> ChannelTriple:
    """rho = |1><1| and sigma = diag(1, tail) through amplitude damping with
    gamma = 0.6.  N(rho) = diag(0.6, 0.4) and N(sigma) = diag(1 + 0.6 tail,
    0.4 tail), so at tail = 2e-12 the support cutoff (1e-12 times the
    largest eigenvalue) keeps sigma's small eigenvalue and drops N(sigma)'s,
    where N(rho) has weight 0.4; at 3e-12 it keeps both."""
    kraus = (np.array([[1.0, 0.0], [0.0, np.sqrt(0.4)]]),
             np.array([[0.0, np.sqrt(0.6)], [0.0, 0.0]]))
    return ChannelTriple(rho=DensityOperator(np.diag([0.0, 1.0])),
                         sigma=PositiveOperator(np.diag([1.0, tail])), channel=Channel(kraus))
