import numpy as np
import pytest

from qmarkov.channels import (
    Channel,
    adjoint_apply,
    apply_channel,
    is_strict_cptp,
    partial_trace_channel,
    random_channel,
    random_strict_channel,
    random_unitary,
)
from qmarkov.errors import DimensionMismatchError, ValidationError
from qmarkov.linalg import embed_operator, herm_pow, kron, partial_trace
from qmarkov.measures import ChannelTriple, _petz
from qmarkov.states import DensityOperator, PositiveOperator, random_density
from qmarkov.structured import is_sufficient_petz

from conftest import random_hermitian
from simple_channels import depolarizing_channel, identity_channel


def hermitian_basis(dim):
    """A basis of the Hermitian d x d matrices: E_ii, E_ij + E_ji and
    i(E_ij - E_ji).  The Petz bracket symmetrizes its output, so it is
    checked on Hermitian operators, on which it is the linear map itself."""
    for i in range(dim):
        for j in range(i, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0
            if i == j:
                yield e
            else:
                yield e + e.T
                yield 1j * (e - e.T)


def petz(triple, x):
    """The Petz map of the triple's (sigma, channel) applied to x."""
    return _petz(triple, x)


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
        lhs = np.vdot(b, apply_channel(chan, a))
        rhs = np.vdot(adjoint_apply(chan, b), a)
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
    """The Petz map is the bracket at h = 1/2: sigma^(1/2) N†(N(sigma)^(-1/2)
    X N(sigma)^(-1/2)) sigma^(1/2)."""

    def test_identity_channel_full_rank(self):
        sigma = random_density((3,), seed=0)
        triple = ChannelTriple(
            rho=random_density((3,), seed=2), sigma=sigma, channel=identity_channel(3)
        )
        for x in hermitian_basis(3):
            np.testing.assert_allclose(petz(triple, x), x, atol=1e-10)

    def test_special_case_partial_trace(self):
        # recovery of trace-out-A from sigma = rho_AC x I_B, matched entrywise
        rho = random_density((2, 2, 2), seed=5)
        dims = (2, 2, 2)
        rho_ac = partial_trace(rho.matrix, dims, {1})
        rho_c = partial_trace(rho.matrix, dims, {0, 1})
        sigma = embed_operator(rho_ac, dims, (0, 2))
        triple = ChannelTriple(
            rho=DensityOperator(rho.matrix),
            sigma=PositiveOperator(sigma),
            channel=partial_trace_channel(dims, {0}),
        )

        s_ac = embed_operator(herm_pow(rho_ac, 0.5), dims, (0, 2))
        s_c = embed_operator(herm_pow(rho_c, -0.5), dims, (2,))
        for x in hermitian_basis(4):  # operators on B x C
            x_full = embed_operator(x, dims, (1, 2))
            expected = s_ac @ s_c @ x_full @ s_c @ s_ac
            np.testing.assert_allclose(petz(triple, x), expected, atol=1e-9)

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
        triple = ChannelTriple(
            rho=DensityOperator(np.diag(q)),
            sigma=PositiveOperator(np.diag(q)),
            channel=Channel(kraus),
        )
        tq = t @ q
        for y in range(2):
            v = np.zeros(2)
            v[y] = 1.0
            recovered = petz(triple, np.diag(v))
            expected = q * (t.T @ (v / tq))
            np.testing.assert_allclose(np.diag(recovered).real, expected, atol=1e-10)
            np.testing.assert_allclose(recovered, np.diag(np.diag(recovered)), atol=1e-10)

    def test_zero_sigma_recovers_nothing(self):
        # the Petz map of sigma = 0 is the zero map: sigma comes back exactly,
        # rho not at all
        triple = ChannelTriple(
            rho=random_density((2,), seed=3),
            sigma=PositiveOperator(np.zeros((2, 2))),
            channel=identity_channel(2),
        )
        ok, d_rho, d_sigma = is_sufficient_petz(triple)
        assert not ok
        assert d_rho == pytest.approx(1.0, abs=1e-12)
        assert d_sigma == 0.0
        np.testing.assert_array_equal(triple.recovered, np.zeros((2, 2)))


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
