import numpy as np
import pytest

import loop_oracles as lo
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
from qmarkov.measures import ChannelTriple, TripartiteState, cmi_as_triple
from qmarkov.states import (
    DensityOperator,
    PositiveOperator,
    perturb_positive,
    random_density,
    trace_distance,
)
from qmarkov.structured import is_sufficient_petz

from conftest import BAD_DIMS, random_hermitian
from simple_channels import depolarizing_channel, identity_channel


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

    @pytest.mark.parametrize("op", [np.ones(3), np.ones((2, 2, 2))], ids=["vector", "stack"])
    def test_kraus_operator_not_a_matrix(self, op):
        with pytest.raises(DimensionMismatchError):
            Channel((op,))

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

    def test_partial_trace_dims_are_not_coerced(self):
        for dims in BAD_DIMS:
            with pytest.raises(DimensionMismatchError, match="must be integers"):
                partial_trace_channel(dims, {0})
        assert partial_trace_channel((2.0, 2), {0}).dim_in == 4

    @pytest.mark.parametrize("channel", [
        partial_trace_channel((6, 6, 6), {0}),  # the channel of a 6x6x6 CMI triple
        random_strict_channel(4, 3, seed=3),
    ], ids=["trace-out-a", "random"])
    def test_identity_image_equals_the_applied_channel(self, channel, monkeypatch):
        # N(I) is summed as K_i K_i†, bit for bit the image apply_channel forms
        images = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: images.append(a) or original(a))
        assert is_strict_cptp(channel)
        image = apply_channel(channel, np.eye(channel.dim_in))
        expected = (image + image.conj().T) / 2
        assert len(images) == 1
        assert np.array_equal(images[0].view(np.int64), expected.view(np.int64))


class TestPetzRecovery:
    """The Petz map sigma^(1/2) N†(N(sigma)^(-1/2) M N(sigma)^(-1/2)) sigma^(1/2),
    read through ``recovered`` (M = N(rho)) and the round trips of
    ``is_sufficient_petz``, against closed forms."""

    def test_identity_channel_full_rank(self):
        # N = id: R(M) = sigma^(1/2) sigma^(-1/2) M sigma^(-1/2) sigma^(1/2) = M
        for seed in range(3):
            triple = ChannelTriple(
                rho=random_density((3,), seed=seed + 2),
                sigma=random_density((3,), seed=seed),
                channel=identity_channel(3),
            )
            np.testing.assert_allclose(triple.recovered, triple.rho.matrix, atol=1e-12)
            ok, d_rho, d_sigma = is_sufficient_petz(triple)
            assert ok and d_rho <= 1e-12 and d_sigma <= 1e-12
            m = random_density((3,), rank=2, seed=seed + 7).matrix
            y = triple.out_sigma_spectrum.power(-0.5) @ herm_pow(m, 0.5)
            np.testing.assert_allclose(triple.petz_recovery(y), m, atol=1e-12)

    def test_special_case_partial_trace(self):
        # recovery of trace-out-A from sigma = rho_AC x I_B, matched entrywise
        # with rho_AC^(1/2) rho_C^(-1/2) rho_BC rho_C^(-1/2) rho_AC^(1/2)
        dims = (2, 2, 2)
        for seed in range(3):
            state = TripartiteState(random_density(dims, seed=seed + 5))
            triple = cmi_as_triple(state)
            rho_ac = partial_trace(state.matrix, dims, {1})
            rho_c = partial_trace(state.matrix, dims, {0, 1})
            s_ac = embed_operator(herm_pow(rho_ac, 0.5), dims, (0, 2))
            s_c = embed_operator(herm_pow(rho_c, -0.5), dims, (2,))
            rho_bc = embed_operator(partial_trace(state.matrix, dims, {0}), dims, (1, 2))
            expected = s_ac @ s_c @ rho_bc @ s_c @ s_ac
            for x in (state, triple):
                np.testing.assert_allclose(x.recovered, expected, atol=1e-12)
            # sigma = rho_AC x I_B is full rank, so it comes back exactly
            _, _, d_sigma = is_sufficient_petz(triple)
            assert d_sigma <= 1e-12

    def test_classical_bayes_reverse(self):
        # diagonal rho and sigma and a stochastic-matrix channel reduce to
        # Bayes' rule: R(T p) = q * T^T (T p / T q)
        for seed in range(3):
            rng = np.random.default_rng(8 + seed)
            p, q = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
            t = rng.dirichlet(np.ones(2), size=3).T  # column-stochastic 2x3
            kraus = tuple(
                np.sqrt(t[y, x]) * np.outer(np.eye(2)[y], np.eye(3)[x])
                for y in range(2)
                for x in range(3)
            )
            triple = ChannelTriple(
                rho=DensityOperator(np.diag(p)),
                sigma=PositiveOperator(np.diag(q)),
                channel=Channel(kraus),
            )
            expected = q * (t.T @ ((t @ p) / (t @ q)))
            np.testing.assert_allclose(triple.recovered, np.diag(expected), atol=1e-12)
            _, d_rho, d_sigma = is_sufficient_petz(triple)
            assert d_rho == pytest.approx(np.abs(expected - p).sum(), abs=1e-12)
            assert d_sigma <= 1e-12

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


def _sigma_rank_two_triple(seed):
    """sigma of rank 2 on C^4, rho supported inside supp(sigma), and a strict
    channel to C^3."""
    sigma = random_density((4,), rank=2, seed=seed + 1)
    p = sigma.spectrum.power(0)
    rho = p @ random_density((4,), seed=seed).matrix @ p
    return ChannelTriple(
        rho=DensityOperator((rho + rho.conj().T) / (2 * np.trace(rho).real)),
        sigma=PositiveOperator(sigma.matrix),
        channel=random_strict_channel(4, 3, seed=seed + 2),
    )


def _near_rank_two_state(seed):
    return TripartiteState(perturb_positive(random_density((2, 2, 2), rank=2, seed=seed), 1e-9))


def _random_channel_triple(seed):
    return ChannelTriple(random_density((4,), seed=seed),
                         PositiveOperator(random_density((4,), seed=seed + 1).matrix),
                         random_strict_channel(4, 3, seed=seed + 2))


_STATES = [(f"state{''.join(map(str, dims))}-{seed}",
            lambda dims=dims, seed=seed: TripartiteState(random_density(dims, seed=seed)))
           for dims in [(2, 2, 2), (2, 3, 2), (3, 2, 2), (1, 2, 2), (2, 2, 1)] for seed in range(2)]
_STATES += [(f"near-rank2-{seed}", lambda seed=seed: _near_rank_two_state(seed)) for seed in range(3)]
PETZ_INPUTS = _STATES + [(f"cmi-{name}", lambda make=make: cmi_as_triple(make()))
                         for name, make in _STATES]
PETZ_INPUTS += [(f"4to3-{seed}", lambda seed=seed: _random_channel_triple(seed)) for seed in range(3)]
PETZ_INPUTS += [(f"sigma-rank2-{seed}", lambda seed=seed: _sigma_rank_two_triple(seed))
                for seed in range(3)]


class TestPetzByTheKernel:
    """``recovered`` and the sigma round trip are P† P for the kernel's product
    P at h = 1/2 and v = I; they equal the dense bracket at h = 1/2 of
    ``loop_oracles`` within 1e-14, on states and their CMI triples, 4 -> 3
    triples, a rank-2 sigma and states 1e-9 from rank 2."""

    @pytest.mark.parametrize("make", [make for _, make in PETZ_INPUTS],
                             ids=[name for name, _ in PETZ_INPUTS])
    def test_equals_the_dense_bracket(self, make):
        x = make()
        assert np.max(np.abs(x.recovered - lo.petz_map(x, x.out_rho))) <= 1e-14
        sigma_back = x.petz_recovery(x.out_sigma_spectrum.power(0))
        dense_back = lo.petz_map(x, x.out_sigma)
        assert np.max(np.abs(sigma_back - dense_back)) <= 1e-14
        if isinstance(x, ChannelTriple):
            _, d_rho, d_sigma = is_sufficient_petz(x)
            assert abs(d_rho - trace_distance(lo.petz_map(x, x.out_rho), x.rho.matrix)) <= 1e-14
            assert abs(d_sigma - trace_distance(dense_back, x.sigma.matrix)) <= 1e-14


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
