import math

import numpy as np
import pytest

from qmarkov.errors import (
    DimensionMismatchError,
    MatrixFunctionDomainError,
    NonHermitianError,
)
from qmarkov.divergences import rel_entropy, support_contained, von_neumann_entropy
from qmarkov.linalg import (
    alpha_norm,
    embed_operator,
    herm_exp,
    herm_log2,
    herm_pow,
    hermitian_eig,
    hs_inner,
    kron,
    matrix_function,
    partial_trace,
    singular_values,
    trace_norm,
)

from conftest import random_hermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestHermitianEig:
    def test_diagonal(self):
        dec = hermitian_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-14)

    def test_pauli_x(self):
        dec = hermitian_eig(PAULI_X)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-14)
        # eigenvectors are (|0> +- |1>)/sqrt(2) up to phase
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.full((2, 2), 2**-0.5),
                                   atol=1e-14)

    def test_roundtrip_random(self):
        m = random_hermitian(4, seed=5)
        dec = hermitian_eig(m)
        assert np.linalg.norm(dec.reconstruct() - m, np.inf) <= 1e-12
        np.testing.assert_allclose(
            dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(4), atol=1e-12
        )
        assert list(dec.eigenvalues) == sorted(dec.eigenvalues, reverse=True)

    def test_non_hermitian_raises(self):
        with pytest.raises(NonHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatchError):
            hermitian_eig(np.zeros((2, 3)))


class TestMatrixFunction:
    def test_support_inverse(self):
        out = matrix_function(np.diag([2.0, 0.0]), lambda x: 1.0 / x)
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-14)

    def test_sqrt(self):
        out = matrix_function(np.diag([4.0, 9.0]), np.sqrt)
        np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-14)

    def test_log2(self):
        out = herm_log2(np.diag([0.5, 0.5]))
        np.testing.assert_allclose(out, -np.eye(2), atol=1e-14)

    def test_domain_error(self):
        with pytest.raises(MatrixFunctionDomainError, match="undefined"):
            herm_log2(np.diag([1.0, -1.0]))

    def test_overflow_is_named(self):
        # 1e-5 is on the support, and its power -100 exceeds the float64 range
        with pytest.raises(MatrixFunctionDomainError, match=r"overflows float64 .*\[1\.e-05\]"):
            herm_pow(np.diag([1.0, 1e-5]), -100.0)

    def test_identity_function_projects_to_support(self):
        for seed in range(4):
            m = random_hermitian(4, seed=seed)
            np.testing.assert_allclose(matrix_function(m, lambda x: x), m, atol=1e-12)

    @pytest.mark.parametrize("p", [-1.0, -0.5, 0.5, 1.0])
    @pytest.mark.parametrize("q", [-1.0, -0.5, 0.5, 1.0])
    def test_power_composition(self, p, q):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T + 0.1 * np.eye(4)
        np.testing.assert_allclose(
            herm_pow(m, p) @ herm_pow(m, q), herm_pow(m, p + q), atol=1e-9
        )

    def test_zero_matrix(self):
        np.testing.assert_allclose(herm_pow(np.zeros((3, 3)), 0.5), np.zeros((3, 3)))

    def test_exp_keeps_kernel(self):
        # herm_exp is the full exponential: exp(0) = 1 on the kernel
        out = herm_exp(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([np.e, 1.0]), atol=1e-12)

    def test_fixed_cutoff(self):
        # 1e-11 * max lies in the support and 1e-13 * max does not, for every
        # function that reads a support
        m = np.diag([1.0, 1e-11, 1e-13])
        kept, dropped = np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])
        np.testing.assert_allclose(herm_pow(m, -1.0), np.diag([1.0, 1e11, 0.0]), rtol=1e-12)
        assert support_contained(kept, m)
        assert not support_contained(dropped, m)
        assert von_neumann_entropy(m) == pytest.approx(-1e-11 * np.log2(1e-11), rel=1e-12)
        np.testing.assert_allclose(singular_values(m), [1.0, 1e-11], rtol=1e-12)
        assert rel_entropy(kept, m) == pytest.approx(-np.log2(1e-11), rel=1e-12)
        assert rel_entropy(dropped, m) == math.inf
        # a negative eigenvalue that positivity validation accepts is dropped
        np.testing.assert_allclose(herm_log2(np.diag([0.5, 0.5, -5e-11])),
                                   np.diag([-1.0, -1.0, 0.0]))


class TestKron:
    def test_identity(self):
        np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(
            kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])), np.diag([3.0, 4.0, 6.0, 8.0])
        )

    def test_mixed_product(self, rng):
        a, b, c, d = (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(4)
        )
        np.testing.assert_allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12)


def partial_trace_oracle(m, dims, traced_out):
    """Element-index summation, as slow and explicit as possible."""
    dims = tuple(dims)
    kept = [i for i in range(len(dims)) if i not in traced_out]
    d_kept = int(np.prod([dims[i] for i in kept])) if kept else 1
    out = np.zeros((d_kept, d_kept), dtype=complex)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            if any(row[i] != col[i] for i in traced_out):
                continue
            r = 0
            c = 0
            for i in kept:
                r = r * dims[i] + row[i]
                c = c * dims[i] + col[i]
            flat_r = int(np.ravel_multi_index(row, dims))
            flat_c = int(np.ravel_multi_index(col, dims))
            out[r, c] += m[flat_r, flat_c]
    return out


class TestPartialTrace:
    def test_product_state(self, rng):
        a = np.diag([0.25, 0.75]).astype(complex)
        b = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        np.testing.assert_allclose(partial_trace(kron(a, b), (2, 2), {0}), b, atol=1e-14)

    def test_bell_state(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 2**-0.5
        rho = np.outer(phi, phi.conj())
        np.testing.assert_allclose(
            partial_trace(rho, (2, 2), {0}), np.eye(2) / 2, atol=1e-14
        )

    def test_against_oracle_and_composition(self, rng):
        dims = (2, 2, 2)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = g @ g.conj().T
        np.testing.assert_allclose(
            partial_trace(m, dims, {0, 1}), partial_trace_oracle(m, dims, {0, 1}), atol=1e-12
        )
        composed = partial_trace(partial_trace(m, dims, {0}), (2, 2), {0})
        np.testing.assert_allclose(partial_trace(m, dims, {0, 1}), composed, atol=1e-12)

    def test_trace_preserved(self, rng):
        g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        m = g @ g.conj().T
        reduced = partial_trace(m, (2, 3, 2), {1})
        assert abs(np.trace(m) - np.trace(reduced)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(6), (2, 2), {0})


class TestAlphaNorm:
    def test_identity_two_norm(self):
        assert alpha_norm(np.eye(2), 2.0) == pytest.approx(np.sqrt(2.0))

    def test_absolute_eigenvalues(self):
        assert alpha_norm(np.diag([1.0, -2.0]), 1.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7, 3.0])
    def test_direct_sum_additivity(self, alpha, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        stacked = np.zeros((5, 5), dtype=complex)
        stacked[:3, :3] = a
        stacked[3:, 3:] = b
        assert alpha_norm(stacked, alpha) ** alpha == pytest.approx(
            alpha_norm(a, alpha) ** alpha + alpha_norm(b, alpha) ** alpha, rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_unitary_invariance(self, alpha, rng):
        from qmarkov.channels import random_unitary

        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = random_unitary(4, seed=3)
        v = random_unitary(4, seed=4)
        assert alpha_norm(u @ x @ v, alpha) == pytest.approx(alpha_norm(x, alpha), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.5])
    def test_gram_symmetry(self, alpha, rng):
        # Tr{(A A†)^(1/(1-alpha))} equals Tr{(A† A)^(1/(1-alpha))}
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        exponent = 1.0 / (1.0 - alpha)
        lhs = np.trace(herm_pow(a @ a.conj().T, exponent)).real
        rhs = np.trace(herm_pow(a.conj().T @ a, exponent)).real
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            alpha_norm(np.eye(2), 0.0)

    def test_trace_norm_alias(self, rng):
        x = rng.standard_normal((3, 3))
        assert trace_norm(x) == pytest.approx(alpha_norm(x, 1.0))


class TestHsInner:
    def test_identity(self):
        assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_pauli_orthogonality(self):
        assert hs_inner(PAULI_X, PAULI_Z) == pytest.approx(0.0)

    def test_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hs_inner(np.eye(2), np.eye(3))


class TestEmbedOperator:
    def test_middle_site(self, rng):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        full = embed_operator(x, (2, 3, 2), (1,))
        expected = kron(np.eye(2), kron(x, np.eye(2)))
        np.testing.assert_allclose(full, expected, atol=1e-14)

    def test_skip_site(self, rng):
        # operator on sites (0, 2) of a three-factor space
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        full = embed_operator(x, (2, 3, 2), (0, 2))
        t = x.reshape(2, 2, 2, 2)
        expected = np.einsum("acAC,bB->abcABC", t, np.eye(3)).reshape(12, 12)
        np.testing.assert_allclose(full, expected, atol=1e-14)

    def test_bad_shape(self):
        with pytest.raises(DimensionMismatchError):
            embed_operator(np.eye(3), (2, 2), (0,))
