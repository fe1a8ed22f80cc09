import numpy as np
import pytest

from qmarkov.channels import random_strict_channel
from qmarkov.functionals import (
    channel_trace_value,
    exp_trace_channel_value,
    lie_trotter_deviation,
    log_identity_residual,
    output_fixed_point_residual,
    recovery_fixed_point_residual,
    sandwiched_fixed_point_residual,
)
from qmarkov.linalg import kron
from qmarkov.measures import ChannelTriple, TripartiteState
from qmarkov.states import DensityOperator, PositiveOperator, random_density
from qmarkov.structured import (
    build_markov_chain,
    build_sufficiency_triple,
    random_markov_spec,
    random_sufficiency_spec,
)
from simple_channels import identity_channel

PETZ_ORDERS = (0.25, 0.5, 0.75, 1.25, 1.5, 1.75)
SANDWICHED_ORDERS = (0.6, 0.75, 0.9, 1.5, 2.0, 3.0, 5.0)


def product_state(seed=0):
    parts = [random_density((2,), seed=seed + k).matrix for k in range(3)]
    return TripartiteState(DensityOperator(kron(kron(parts[0], parts[1]), parts[2]), (2, 2, 2)))


def random_triple(seed):
    return ChannelTriple(
        rho=random_density((4,), seed=seed),
        sigma=PositiveOperator(random_density((4,), seed=seed + 1000).matrix),
        channel=random_strict_channel(4, 3, seed=seed),
    )


class TestCmiTraceBounds:
    @pytest.mark.parametrize("alpha", PETZ_ORDERS)
    def test_product_state_equality(self, alpha):
        value = channel_trace_value(product_state(), alpha, sandwiched=False)
        assert value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", SANDWICHED_ORDERS)
    def test_product_state_equality_sandwiched(self, alpha):
        value = channel_trace_value(product_state(), alpha, sandwiched=True)
        assert value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_states_bounded(self, seed):
        state = TripartiteState(random_density((2, 2, 2), seed=seed))
        for a in PETZ_ORDERS:
            assert channel_trace_value(state, a, sandwiched=False) <= 1.0 + 1e-9
        for a in SANDWICHED_ORDERS:
            assert channel_trace_value(state, a, sandwiched=True) <= 1.0 + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_markov_chain_equality(self, seed):
        chain = build_markov_chain(random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=seed))
        for a in PETZ_ORDERS:
            assert channel_trace_value(chain, a, sandwiched=False) == pytest.approx(
                1.0, abs=1e-8
            )
        for a in SANDWICHED_ORDERS:
            assert channel_trace_value(chain, a, sandwiched=True) == pytest.approx(
                1.0, abs=1e-8
            )


class TestChannelTraceBounds:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_triples_bounded(self, seed):
        triple = random_triple(seed)
        for a in PETZ_ORDERS:
            assert channel_trace_value(triple, a, sandwiched=False) <= 1.0 + 1e-9
        for a in SANDWICHED_ORDERS:
            assert channel_trace_value(triple, a, sandwiched=True) <= 1.0 + 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_sufficiency_equality(self, seed):
        triple = build_sufficiency_triple(
            random_sufficiency_spec(((2, 2, 2), (1, 2, 2)), seed=seed)
        )
        for a in PETZ_ORDERS:
            assert channel_trace_value(triple, a, sandwiched=False) == pytest.approx(
                1.0, abs=1e-8
            )
        for a in SANDWICHED_ORDERS:
            assert channel_trace_value(triple, a, sandwiched=True) == pytest.approx(
                1.0, abs=1e-8
            )


class TestExpTraceBounds:
    @pytest.mark.parametrize("seed", range(5))
    def test_cmi_form(self, seed):
        state = TripartiteState(random_density((2, 2, 2), seed=seed))
        assert exp_trace_channel_value(state) <= 1.0 + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_channel_form(self, seed):
        assert exp_trace_channel_value(random_triple(seed)) <= 1.0 + 1e-9

    def test_product_state_equality(self):
        assert exp_trace_channel_value(product_state()) == pytest.approx(1.0, abs=1e-10)

    def test_identity_channel_equality(self):
        triple = ChannelTriple(
            rho=random_density((3,), seed=0),
            sigma=PositiveOperator(random_density((3,), seed=1).matrix),
            channel=identity_channel(3),
        )
        assert exp_trace_channel_value(triple) == pytest.approx(1.0, abs=1e-10)


class TestLieTrotter:
    @pytest.mark.parametrize("seed", range(3))
    def test_monotone_decay(self, seed):
        state = TripartiteState(random_density((2, 2, 2), seed=seed))
        for sign in (-1.0, 1.0):
            devs = [lie_trotter_deviation(state, 1.0 + sign * 10.0**-k) for k in (1, 2, 3, 4)]
            assert all(devs[i + 1] <= devs[i] + 1e-12 for i in range(3))

    def test_diagonal_exact(self):
        rng = np.random.default_rng(3)
        state = TripartiteState(
            DensityOperator(np.diag(rng.dirichlet(np.ones(8))), (2, 2, 2))
        )
        for a in (0.25, 0.5, 2.0, 5.0):
            assert lie_trotter_deviation(state, a) <= 1e-12


class TestFixedPoints:
    @pytest.mark.parametrize("seed", range(3))
    def test_sufficiency_triples_are_fixed(self, seed):
        triple = build_sufficiency_triple(
            random_sufficiency_spec(((2, 2, 2), (1, 2, 2)), seed=seed)
        )
        for a in PETZ_ORDERS:
            assert recovery_fixed_point_residual(triple, a) <= 1e-8
            assert output_fixed_point_residual(triple, a) <= 1e-8
        for a in SANDWICHED_ORDERS:
            assert sandwiched_fixed_point_residual(triple, a) <= 1e-8

    def test_identity_channel_exact(self):
        triple = ChannelTriple(
            rho=random_density((3,), seed=5),
            sigma=PositiveOperator(random_density((3,), seed=6).matrix),
            channel=identity_channel(3),
        )
        for a in (0.5, 1.5):
            assert recovery_fixed_point_residual(triple, a) <= 1e-10
            assert output_fixed_point_residual(triple, a) <= 1e-10
            assert sandwiched_fixed_point_residual(triple, a) <= 1e-10
        assert log_identity_residual(triple) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_generic_triples_are_not_fixed(self, seed):
        triple = random_triple(seed)
        assert max(
            recovery_fixed_point_residual(triple, a) for a in PETZ_ORDERS
        ) > 1e-6
