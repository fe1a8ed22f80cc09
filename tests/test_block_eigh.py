"""Block-by-block decomposition in ``linalg.sorted_eigh``.

A Hermitian matrix of order at least EIGH_SPLIT_MIN whose exact nonzero
pattern splits into blocks is decomposed with one stacked ``eigh`` per
block size.  These tests pin that the split reads the same operator as one
dense ``eigh`` (powers and logarithm within 1e-13), that its eigenvectors
are orthonormal and exactly zero off their block, that ties are ordered by
block, that every other matrix goes through the dense call bit for bit,
and which ``eigh`` calls the CMI triple's sigma and output make.
"""

import numpy as np
import pytest

from qmarkov import linalg
from qmarkov.linalg import EIGH_SPLIT_MIN, embed_operator, hermitian_eig, hermitian_part
from qmarkov.measures import TripartiteState, cmi_as_triple
from qmarkov.states import random_density

from conftest import random_hermitian

TOL = 1e-13
POWERS = (0.5, -0.5, 1.0, 2.0, 0.0, -1.0)


def _spectrum(m, seed, rank=None):
    """A Hermitian m x m block with eigenvalues in [0.2, 2], the last
    m - rank of them zero."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.2, 2.0, m)
    if rank is not None:
        values[rank:] = 0.0
    u = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
    return hermitian_part((u * values) @ u.conj().T)


def _direct_sum(blocks, seed):
    """The direct sum of ``blocks`` with its basis randomly permuted, and
    the label of the block each index lies in; each row of a zero block is
    a block of its own."""
    h = np.zeros((0, 0), dtype=complex)
    labels = []
    for b in blocks:
        n, m = len(h), len(b)
        h = np.block([[h, np.zeros((n, m))], [np.zeros((m, n)), b]])
        labels += list(range(len(labels), len(labels) + m)) if not b.any() else [len(labels)] * m
    perm = np.random.default_rng(seed).permutation(len(h))
    return h[np.ix_(perm, perm)], np.array(labels)[perm]


def _interleaved(dims):
    """rho_AC (x) I_B on A x B x C: the CMI triple's sigma, d_B copies of rho_AC."""
    da, db, dc = dims
    return hermitian_part(embed_operator(random_density((da * dc,), seed=3).matrix,
                                         (da, db, dc), (0, 2)))


def _dense_path(h):
    """One ``eigh`` and a stable descending sort: the path below the gate."""
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def _mixed():
    sizes = (1, 1, 3, 8, 8, 12, 33)
    return _direct_sum([_spectrum(m, seed) for seed, m in enumerate(sizes)], seed=1)


def _identical():
    block = _spectrum(9, seed=4)
    return _direct_sum([block] * 8, seed=2)


def _diagonal():
    values = np.random.default_rng(5).uniform(0.2, 2.0, EIGH_SPLIT_MIN + 6)
    return np.diag(values).astype(complex), np.arange(values.size)


def _with_zero_block():
    return _direct_sum([_spectrum(20, 6), np.zeros((10, 10), complex), _spectrum(40, 7)], seed=3)


def _rank_deficient():
    return _direct_sum([_spectrum(24, 8, rank=10), _spectrum(24, 9), _spectrum(24, 10, rank=1)],
                       seed=4)


SPLIT = {
    "mixed-sizes": _mixed,
    "identical": _identical,
    "diagonal": _diagonal,
    "zero-block": _with_zero_block,
    "rank-deficient": _rank_deficient,
}


@pytest.fixture(params=sorted(SPLIT))
def split(request):
    h, labels = SPLIT[request.param]()
    assert h.shape[0] >= EIGH_SPLIT_MIN
    return h, labels


@pytest.fixture
def eigh_shapes(monkeypatch):
    """The shapes of the arrays passed to ``np.linalg.eigh``, in call order."""
    shapes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return shapes


def _dense_reference(h, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(linalg, "EIGH_SPLIT_MIN", h.shape[0] + 1)
        return hermitian_eig(h)


class TestSplit:
    def test_blocks_are_found(self, split):
        h, labels = split
        expected = sorted((np.flatnonzero(labels == k) for k in set(labels)), key=lambda b: b[0])
        blocks = linalg._blocks(h)
        assert len(blocks) == len(expected)
        assert all(np.array_equal(b, e) for b, e in zip(blocks, expected))

    def test_agrees_with_one_dense_eigh(self, split, monkeypatch):
        h, _ = split
        dec, dense = hermitian_eig(h), _dense_reference(h, monkeypatch)
        assert np.abs(dec.eigenvalues - dense.eigenvalues).max() <= TOL
        assert np.abs(dec.powers(POWERS) - dense.powers(POWERS)).max() <= TOL
        assert np.abs(dec.apply(np.log) - dense.apply(np.log)).max() <= TOL
        assert list(dec.eigenvalues) == sorted(dec.eigenvalues, reverse=True)

    def test_eigenvectors_are_orthonormal_and_zero_off_their_block(self, split):
        h, labels = split
        v = hermitian_eig(h).eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(len(h))).max() <= TOL
        for column in v.T:
            assert len(set(labels[column != 0])) == 1
        assert v.flags.c_contiguous

    def test_ties_are_ordered_by_block(self):
        h = _interleaved((3, 8, 3))
        blocks = linalg._blocks(h)
        assert [len(b) for b in blocks] == [9] * 8
        dec = hermitian_eig(h)
        owner = np.empty(len(h), dtype=int)
        for k, b in enumerate(blocks):
            owner[b] = k
        column_block = [owner[np.flatnonzero(c)[0]] for c in dec.eigenvectors.T]
        # the 8 copies of each eigenvalue are exactly equal, first block first
        assert np.array_equal(dec.eigenvalues.reshape(9, 8),
                              np.repeat(dec.eigenvalues[::8, None], 8, axis=1))
        assert column_block == list(range(8)) * 9

    def test_permuted_tridiagonal_is_one_block(self):
        rng = np.random.default_rng(0)
        n = 512
        h = np.diag(rng.standard_normal(n)).astype(complex)
        off = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        h[np.arange(n - 1), np.arange(1, n)] = off
        h[np.arange(1, n), np.arange(n - 1)] = off.conj()
        perm = rng.permutation(n)
        assert linalg._blocks(h[np.ix_(perm, perm)]) is None


class TestDensePathIsUnchanged:
    @pytest.mark.parametrize("make", [
        lambda: random_hermitian(EIGH_SPLIT_MIN + 8, seed=1),
        lambda: hermitian_part(random_density((EIGH_SPLIT_MIN,), seed=2).matrix),
        # connected, with zeros in its first row: the search runs and finds one block
        lambda: hermitian_part(np.kron(random_hermitian(EIGH_SPLIT_MIN // 2, 3), [[0, 1], [1, 1]])),
        # split, but below the gate
        lambda: _direct_sum([_spectrum(20, 1), _spectrum(EIGH_SPLIT_MIN - 21, 2)], seed=0)[0],
        lambda: np.eye(EIGH_SPLIT_MIN - 1, dtype=complex),
    ], ids=["random", "state", "connected-with-zeros", "split-below-gate", "identity-below-gate"])
    def test_one_dense_eigh_bit_for_bit(self, make, eigh_shapes):
        h = make()
        dec = hermitian_eig(h)
        assert eigh_shapes == [h.shape]
        vals, vecs = _dense_path(h)
        assert np.array_equal(dec.eigenvalues, vals) and np.array_equal(dec.eigenvectors, vecs)


class TestCalls:
    def test_cmi_sigma_is_one_stacked_call(self, eigh_shapes):
        sigma = cmi_as_triple(TripartiteState(random_density((6, 6, 6), seed=0))).sigma
        eigh_shapes.clear()
        sigma.spectrum
        assert eigh_shapes == [(6, 36, 36)]

    def test_identical_output_blocks_are_one_stacked_call(self, eigh_shapes):
        rho_c = random_density((8,), seed=1).matrix
        hermitian_eig(np.kron(np.eye(8), rho_c))
        assert eigh_shapes == [(8, 8, 8)]

    def test_one_call_per_block_size(self, eigh_shapes):
        hermitian_eig(_mixed()[0])
        assert eigh_shapes == [(2, 1, 1), (1, 3, 3), (2, 8, 8), (1, 12, 12), (1, 33, 33)]
