import numpy as np
import pytest

from qmarkov.channels import (
    Channel,
    adjoint_apply,
    apply_channel,
    depolarizing_channel,
    dilation_apply,
    heisenberg_weyl,
    identity_channel,
    is_strict_cptp,
    partial_trace_channel,
    petz_recovery,
    random_channel,
    random_strict_channel,
    random_unitary,
    stinespring,
    twirl,
)
from qmarkov.errors import DimensionMismatchError, ValidationError
from qmarkov.linalg import embed_operator, herm_pow, hs_inner, kron, partial_trace
from qmarkov.states import random_density

from conftest import random_hermitian


def matrix_basis(dim):
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0
            yield e


class TestChannelBasics:
    def test_identity(self, rng):
        chan = identity_channel(3)
        x = rng.standard_normal((3, 3))
        np.testing.assert_allclose(apply_channel(chan, x), x)

    def test_depolarizing(self, rng):
        chan = depolarizing_channel(3)
        x = random_hermitian(3, seed=0)
        np.testing.assert_allclose(
            apply_channel(chan, x), np.trace(x) * np.eye(3) / 3, atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_preservation(self, seed):
        chan = random_channel(4, 3, seed=seed)
        x = random_hermitian(4, seed=seed + 10)
        assert np.trace(apply_channel(chan, x)) == pytest.approx(np.trace(x), abs=1e-10)

    def test_not_trace_preserving_rejected(self):
        with pytest.raises(ValidationError) as err:
            Channel((np.eye(2) * 0.5,))
        assert err.value.reason == "not-trace-preserving"

    def test_not_finite_rejected(self):
        with pytest.raises(ValidationError) as err:
            Channel((np.full((2, 2), np.nan),))
        assert err.value.reason == "not-finite"

    def test_dim_mismatch(self):
        chan = identity_channel(2)
        with pytest.raises(DimensionMismatchError):
            apply_channel(chan, np.eye(3))


class TestAdjoint:
    def test_partial_trace_adjoint(self, rng):
        chan = partial_trace_channel((2, 2), {0})
        x = random_hermitian(2, seed=1)
        np.testing.assert_allclose(adjoint_apply(chan, x), kron(np.eye(2), x), atol=1e-12)

    def test_identity_adjoint(self, rng):
        chan = identity_channel(3)
        x = rng.standard_normal((3, 3))
        np.testing.assert_allclose(adjoint_apply(chan, x), x)

    @pytest.mark.parametrize("seed", range(4))
    def test_inner_product_relation(self, seed):
        # <B, N(A)> = <N†(B), A> defines the adjoint
        chan = random_channel(3, 4, seed=seed)
        a = random_hermitian(3, seed=seed + 20)
        b = random_hermitian(4, seed=seed + 40)
        lhs = hs_inner(b, apply_channel(chan, a))
        rhs = hs_inner(adjoint_apply(chan, b), a)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_unitality(self, seed):
        chan = random_channel(4, 3, seed=seed)
        np.testing.assert_allclose(
            adjoint_apply(chan, np.eye(3)), np.eye(4), atol=1e-10
        )


class TestStrictness:
    def test_depolarizing_strict(self):
        assert is_strict_cptp(depolarizing_channel(2))

    def test_degenerate_not_strict(self):
        k0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        k1 = np.array([[0.0, 1.0], [0.0, 0.0]])
        chan = Channel((k0, k1))  # N(I) = 2|0><0|
        assert not is_strict_cptp(chan)

    def test_partial_trace_strict(self):
        assert is_strict_cptp(partial_trace_channel((2, 2), {0}))


class TestPetzRecovery:
    def test_identity_channel_full_rank(self):
        sigma = random_density((3,), seed=0)
        recovery = petz_recovery(sigma, identity_channel(3))
        x = random_hermitian(3, seed=1)
        np.testing.assert_allclose(apply_channel(recovery, x), x, atol=1e-10)

    def test_special_case_partial_trace(self):
        # recovery of trace-out-A from sigma = rho_AC x I_B, matched entrywise
        rho = random_density((2, 2, 2), seed=5)
        dims = (2, 2, 2)
        rho_ac = partial_trace(rho.matrix, dims, {1})
        rho_c = partial_trace(rho.matrix, dims, {0, 1})
        sigma = embed_operator(rho_ac, dims, (0, 2))
        chan = partial_trace_channel(dims, {0})
        recovery = petz_recovery(sigma, chan)

        s_ac = embed_operator(herm_pow(rho_ac, 0.5), dims, (0, 2))
        s_c = embed_operator(herm_pow(rho_c, -0.5), dims, (2,))
        for x in matrix_basis(4):  # operators on B x C
            x_full = embed_operator(x, dims, (1, 2))
            expected = s_ac @ s_c @ x_full @ s_c @ s_ac
            np.testing.assert_allclose(apply_channel(recovery, x), expected, atol=1e-9)

    def test_classical_bayes_reverse(self):
        # diagonal sigma and a stochastic-matrix channel reduce to Bayes' rule
        rng = np.random.default_rng(8)
        q = rng.dirichlet(np.ones(3))
        t = rng.dirichlet(np.ones(2), size=3).T  # column-stochastic 2x3
        kraus = tuple(
            np.sqrt(t[y, x]) * np.outer(np.eye(2)[y], np.eye(3)[x])
            for y in range(2)
            for x in range(3)
        )
        chan = Channel(kraus)
        recovery = petz_recovery(np.diag(q), chan)
        tq = t @ q
        for y in range(2):
            v = np.zeros(2)
            v[y] = 1.0
            recovered = apply_channel(recovery, np.diag(v))
            expected = q * (t.T @ (v / tq))
            np.testing.assert_allclose(np.diag(recovered).real, expected, atol=1e-10)
            np.testing.assert_allclose(recovered, np.diag(np.diag(recovered)), atol=1e-10)

    def test_rank_deficient_reference(self):
        sigma = np.diag([1.0, 0.0])
        recovery = petz_recovery(sigma, identity_channel(2))
        assert recovery.tp_on_support
        comp = sum(k.conj().T @ k for k in recovery.kraus)
        np.testing.assert_allclose(comp, np.diag([1.0, 0.0]), atol=1e-10)

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValidationError):
            petz_recovery(np.zeros((2, 2)), identity_channel(2))


class TestStinespring:
    def test_identity(self):
        v, env = stinespring(identity_channel(2))
        assert env == 1
        np.testing.assert_allclose(v, np.eye(2))

    @pytest.mark.parametrize("seed", range(3))
    def test_isometry(self, seed):
        chan = random_channel(3, 4, seed=seed)
        v, env = stinespring(chan)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-10)
        assert env <= 3 * 4

    def test_reproduces_channel_on_basis(self):
        chan = partial_trace_channel((2, 2), {0})
        v, env = stinespring(chan)
        for x in matrix_basis(4):
            np.testing.assert_allclose(
                dilation_apply(v, env, x), apply_channel(chan, x), atol=1e-12
            )


class TestHeisenbergWeyl:
    def test_dimension_one(self):
        ops = heisenberg_weyl(1)
        assert len(ops) == 1
        np.testing.assert_allclose(ops[0], np.eye(1))

    def test_qubit_set(self):
        ops = heisenberg_weyl(2)
        assert len(ops) == 4
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        expected = [np.eye(2), z, x, x @ z]
        for want in expected:
            assert any(np.allclose(op, want) for op in ops)
        np.testing.assert_allclose(
            twirl(np.diag([1.0, 0.0]), ops), np.eye(2) / 2, atol=1e-14
        )

    def test_qutrit_twirl_random(self):
        ops = heisenberg_weyl(3)
        x = random_hermitian(3, seed=6).astype(complex)
        np.testing.assert_allclose(
            twirl(x, ops), np.trace(x) * np.eye(3) / 3, atol=1e-12
        )

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_twirl_on_complete_basis(self, dim):
        ops = heisenberg_weyl(dim)
        assert len(ops) == dim * dim
        for u in ops:
            np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)
        for e in matrix_basis(dim):
            np.testing.assert_allclose(
                twirl(e, ops), np.trace(e) * np.eye(dim) / dim, atol=1e-12
            )


class TestRandomChannels:
    def test_unitary_haar_determinism(self):
        u = random_unitary(4, seed=5)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
        np.testing.assert_array_equal(u, random_unitary(4, seed=5))

    def test_strict_channel(self):
        chan = random_strict_channel(4, 3, seed=0)
        assert is_strict_cptp(chan)

    def test_rank_too_small(self):
        with pytest.raises(ValidationError):
            random_channel(4, 3, kraus_rank=1, seed=0)
