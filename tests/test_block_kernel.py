"""The Kraus-block kernel on a block-diagonal sigma.

When ``sorted_eigh`` decomposes sigma block by block, its decomposition
keeps the blocks (``linalg.BlockMatrix``): U c, U† x and <u_j|a|u_j> are one
stacked matmul per block size, and on a triple whose Kraus rows split with
sigma's blocks (Tr_A on rho_AC x I_B) so is K U.  These tests pin that the
blocked products read the same numbers as the dense products they replace
(the same decomposition, its blocks scattered into one array) and as the
CMI triple's state reading, for every Renyi, sandwiched, min and max value;
that a rank-deficient sigma and a channel whose rows overlap keep the dense
path; and that one op cycle of the triple-216 benchmark never forms sigma's
dense eigenvectors.
"""

import numpy as np
import pytest

from qmarkov import cli, linalg
from qmarkov.channels import Channel, random_channel, random_unitary
from qmarkov.linalg import BlockMatrix, hermitian_eig, hermitian_part
from qmarkov.measures import (
    PETZ_ALPHA_GRID,
    SANDWICHED_ALPHA_GRID,
    ChannelTriple,
    TripartiteState,
    cmi_as_triple,
    minmax_cmi,
    minmax_rel_ent_diff,
    rel_ent_diff,
    renyi_rel_ent_diff_grid,
    sandwiched_rel_ent_diff_grid,
    von_neumann_cmi,
)
from qmarkov.serialization import save_channel, save_state
from qmarkov.states import PositiveOperator, random_density

from test_block_eigh import SPLIT, _direct_sum, _spectrum

# blocked against dense products of one decomposition, in bits; against the
# state reading, relative to the value above 1 bit (the max CMI of a
# rank-deficient state reads an ill-conditioned recovered operator)
TOL = 1e-13
STATE_TOL = 1e-11


def _values(x):
    """Every Renyi, sandwiched, min and max value, and the von Neumann
    difference, of a triple or of a state read as its CMI triple."""
    values = renyi_rel_ent_diff_grid(x, PETZ_ALPHA_GRID, strict=False)
    values += sandwiched_rel_ent_diff_grid(x, SANDWICHED_ALPHA_GRID, strict=False)
    if isinstance(x, TripartiteState):
        values += [minmax_cmi(x, kind, strict=False) for kind in ("min", "max")]
        return np.array(values + [von_neumann_cmi(x)])
    values += [minmax_rel_ent_diff(x, kind, strict=False) for kind in ("min", "max")]
    return np.array(values + [rel_ent_diff(x)])


def _dense_values(make, monkeypatch):
    """``_values`` of a fresh ``make()`` through today's dense products: the
    same decompositions, read through their scattered eigenvectors."""
    with monkeypatch.context() as m:
        m.setattr(linalg.SpectralDecomposition, "keeps_blocks", lambda self: False)
        x = make()
        assert isinstance(x.kraus_sigma_basis, np.ndarray)
        return _values(x)


def _cmi_triple(dims, rank=None, seed=0):
    return cmi_as_triple(TripartiteState(random_density(dims, rank=rank, seed=seed)))


def _pinching(n, seed):
    """The channel with Kraus operators P and I - P, P a random diagonal
    projector: K U splits with sigma's blocks into two rows per index."""
    p = np.diag((np.random.default_rng(seed).random(n) < 0.5).astype(complex))
    return Channel((p, np.eye(n) - p))


def _unequal_blocks():
    """sigma with blocks of 24, 16, 16 and 8, under a pinching channel."""
    sizes = (24, 16, 16, 8)
    sigma, _ = _direct_sum([_spectrum(m, seed) for seed, m in enumerate(sizes)], seed=5)
    return ChannelTriple(random_density((64,), seed=6), PositiveOperator(sigma), _pinching(64, 7))


def _overlapping_rows():
    """A random channel on the 4x4x4 CMI triple's sigma: every Kraus row
    meets every block of sigma."""
    t = _cmi_triple((4, 4, 4), seed=8)
    return ChannelTriple(t.rho, t.sigma, random_channel(64, 8, kraus_rank=8, seed=9))


class TestBlockMembers:
    @pytest.mark.parametrize("case", sorted(SPLIT))
    def test_products_equal_the_dense_ones(self, case):
        h, _ = SPLIT[case]()
        dec = hermitian_eig(h)
        assert isinstance(dec.basis, BlockMatrix)
        u = dec.kept_vectors
        rng = np.random.default_rng(1)
        c = rng.standard_normal((3, u.shape[1], 5)) + 1j * rng.standard_normal((3, u.shape[1], 5))
        x = rng.standard_normal((len(h), 7)) + 1j * rng.standard_normal((len(h), 7))
        a = hermitian_part(random_density((len(h),), seed=2).matrix)
        assert np.abs(dec.u_dot(c) - u @ c).max() <= TOL
        assert np.abs(dec.u_dot(c[0]) - u @ c[0]).max() <= TOL
        assert np.abs(dec.uh_dot(x) - u.conj().T @ x).max() <= TOL
        assert np.abs(dec.expectations(a) - (u.conj() * (a @ u)).sum(0).real).max() <= TOL
        # a support that drops an eigenvalue reads its dense kept vectors
        assert dec.keeps_blocks() == (u.shape[1] == len(h))

    def test_dense_decomposition_takes_one_matmul_bit_for_bit(self):
        dec = hermitian_eig(random_density((8,), seed=3).matrix)
        assert isinstance(dec.basis, np.ndarray) and not dec.keeps_blocks()
        x = np.random.default_rng(4).standard_normal((8, 3)) + 0j
        assert np.array_equal(dec.u_dot(x), dec.eigenvectors @ x)
        assert np.array_equal(dec.uh_dot(x), dec.eigenvectors.conj().T @ x)

    def test_the_dense_eigenvectors_are_the_scattered_blocks(self):
        dec = hermitian_eig(SPLIT["mixed-sizes"]()[0])
        v = dec.eigenvectors
        assert not v.flags.writeable and v.flags.c_contiguous
        for rows, cols, b in dec.basis.groups:
            assert np.array_equal(v[rows[:, :, None], cols[:, None, :]], b)
        assert np.count_nonzero(v) == sum(b.size for _, _, b in dec.basis.groups)


class TestLeftProduct:
    def _basis(self):
        return hermitian_eig(SPLIT["mixed-sizes"]()[0]).basis

    def test_disjoint_rows_are_trimmed_blocks(self):
        basis = self._basis()
        n = basis.shape[0]
        k = np.concatenate(_pinching(n, 1).kraus)
        w = basis.left_product(k)
        assert isinstance(w, BlockMatrix)
        dense = k @ (basis @ np.eye(n))
        assert np.abs(w @ np.eye(n) - dense).max() <= TOL
        assert all(r.shape == b.shape[:2] for r, _, b in w.groups)

    def test_overlapping_rows_are_refused(self):
        basis = self._basis()
        assert basis.left_product(random_unitary(basis.shape[0], seed=1)) is None

    def test_unequal_row_counts_in_a_group_are_refused(self):
        basis = self._basis()
        k = np.eye(basis.shape[0], dtype=complex)
        (rows,) = [r for r, _, b in basis.groups if b.shape == (2, 8, 8)]
        k[rows[0][0]] = 0.0  # one block loses a row of K
        assert basis.left_product(k) is None


class TestTriples:
    """Every value on the blocked kernel against today's dense products."""

    CASES = {
        "cmi-444": lambda: _cmi_triple((4, 4, 4), seed=1),
        "cmi-444-rank-deficient-rho-ac": lambda: _cmi_triple((4, 4, 4), rank=3, seed=2),
        "random-channel": _overlapping_rows,
        "unequal-blocks": _unequal_blocks,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_against_the_dense_products(self, case, monkeypatch):
        x = self.CASES[case]()
        got = _values(x)
        assert np.isfinite(got).all()
        assert np.abs(got - _dense_values(self.CASES[case], monkeypatch)).max() <= TOL

    def test_cmi_triple_keeps_its_blocks(self):
        triple = self.CASES["cmi-444"]()
        dec = triple.sigma.spectrum
        assert dec.keeps_blocks()
        assert [b.shape for _, _, b in dec.basis.groups] == [(4, 16, 16)]
        basis = triple.kraus_sigma_basis
        # Tr_A stacks to the identity, so K U is U: the same rows and blocks
        assert isinstance(basis, BlockMatrix)
        for (r, c, b), (r2, c2, b2) in zip(basis.groups, dec.basis.groups):
            assert np.array_equal(r, r2) and np.array_equal(c, c2) and np.array_equal(b, b2)

    def test_rank_deficient_sigma_drops_to_the_dense_path(self):
        triple = self.CASES["cmi-444-rank-deficient-rho-ac"]()
        dec = triple.sigma.spectrum
        assert isinstance(dec.basis, BlockMatrix) and not dec.support[0].all()
        assert not dec.keeps_blocks()
        assert isinstance(triple.kraus_sigma_basis, np.ndarray)

    def test_overlapping_rows_keep_k_u_dense(self):
        triple = _overlapping_rows()
        assert triple.sigma.spectrum.keeps_blocks()
        assert isinstance(triple.kraus_sigma_basis, np.ndarray)

    def test_unequal_blocks_keep_k_u_blocked(self):
        triple = _unequal_blocks()
        basis = triple.kraus_sigma_basis
        assert isinstance(basis, BlockMatrix)
        assert sorted(b.shape for _, _, b in basis.groups) == [
            (1, 8, 8), (1, 24, 24), (2, 16, 16)]

    @pytest.mark.parametrize("dims, rank", [((4, 4, 4), None), ((4, 4, 4), 3), ((4, 2, 8), None)])
    def test_against_the_state_reading(self, dims, rank):
        state = TripartiteState(random_density(dims, rank=rank, seed=10))
        triple = cmi_as_triple(state)
        assert isinstance(triple.sigma.spectrum.basis, BlockMatrix)
        want = _values(state)
        assert (np.abs(_values(triple) - want) <= STATE_TOL * np.maximum(1.0, want)).all()


def test_a_triple_216_cycle_never_forms_sigmas_dense_eigenvectors(tmp_path, monkeypatch):
    """Both sweeps, red, min and max on the 6x6x6 CMI triple's files: the
    dense eigenvectors of a blocked decomposition are formed only by
    ``eigenvectors``, so no matmul takes sigma's 216 x 216 array."""
    triple = _cmi_triple((6, 6, 6), seed=11)
    files = []
    for name, save, obj in (("rho", save_state, triple.rho), ("sigma", save_state, triple.sigma),
                            ("channel", save_channel, triple.channel)):
        save(tmp_path / f"{name}.json", obj)
        files += [f"--{name}", str(tmp_path / f"{name}.json")]
    scattered, blocked = [], []
    descriptor = linalg.SpectralDecomposition.__dict__["eigenvectors"]
    original, matmul = descriptor.func, BlockMatrix.__matmul__
    monkeypatch.setattr(descriptor, "func", lambda self: scattered.append(
        self.basis.shape if isinstance(self.basis, BlockMatrix) else None) or original(self))
    monkeypatch.setattr(BlockMatrix, "__matmul__",
                        lambda self, x: blocked.append(self.shape) or matmul(self, x))
    for argv in (["sweep", "--measure", "delta", "--alpha-grid", "0.5:1.5:0.1"],
                 ["sweep", "--measure", "delta-tilde", "--alpha-grid", "0.6:1.6:0.1"],
                 ["compute", "--measure", "red"], ["compute", "--measure", "delta-min"],
                 ["compute", "--measure", "delta-max"]):
        if argv[0] == "sweep":
            argv += ["--out", str(tmp_path / "sweep.csv")]
        assert cli.main(argv + files) == 0
    assert (216, 216) not in scattered
    assert (216, 216) in blocked
