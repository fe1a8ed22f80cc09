"""Two fixed channels the tests build triples from.

The identity channel is sufficient for every pair.  The completely
depolarizing channel forgets everything but the trace, so its Petz map
recovers the reference and, in general, nothing else.
"""

import numpy as np

from qmarkov.channels import Channel


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
