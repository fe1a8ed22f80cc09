"""Host-speed calibration of the end-to-end times.

The 2-vCPU VM the benchmark was set up on changes speed by up to 1.8x over
seconds to minutes, with no steal time and the other vCPU idle.  A run of 30
seconds sees one or two of those phases, so run-to-run spreads of wall time
reached 30%.  A fixed piece of work that runs no qmarkov code is therefore
timed next to every op and every set-up, and each time is scaled by
``REFERENCE_S / calibration time``: a change of host speed moves both and
cancels, while a change in qmarkov moves only the op.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

# Usual calibration time on the reference VM; it only fixes the scale of the
# reported "reference seconds".
REFERENCE_S = 0.0105


class Calibration:
    """A fixed mix of the kinds of work the ops do.

    Small and mid-size Hermitian eigendecompositions, JSON parsing and plain
    Python, about 10 ms in all.
    """

    def __init__(self):
        rng = np.random.default_rng(0)

        def hermitian(n):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return g @ g.conj().T

        self.small = [hermitian(8) for _ in range(40)]
        self.large = hermitian(160)
        self.text = json.dumps({"re": rng.standard_normal((60, 60)).tolist()})

    def seconds(self) -> float:
        start = perf_counter()
        for m in self.small:
            np.linalg.eigh(m)
        np.linalg.eigh(self.large)
        json.loads(self.text)
        total = 0
        for i in range(30_000):
            total += i * i
        return perf_counter() - start
