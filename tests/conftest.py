import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Subsystem dims that int() would coerce to a product of 8: a fraction, a
# bool and a string.  Every entry point that takes dims must refuse them.
BAD_DIMS = [(2.5, 2, 2), (2.9, 2, 2), (True, 8), ("2", 2, 2)]


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def src_env():
    """Environment for a subprocess that imports qmarkov from this checkout."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
