import numpy as np
import pytest

import classical_oracles as co
from qmarkov.channels import (
    apply_channel,
    depolarizing_channel,
    identity_channel,
    is_strict_cptp,
)
from qmarkov.errors import RankDeficientError, ValidationError
from qmarkov.linalg import kron
from qmarkov.measures import (
    PETZ_ALPHA_GRID,
    SANDWICHED_ALPHA_GRID,
    ChannelTriple,
    TripartiteState,
    cmi_as_triple,
    minmax_cmi,
    renyi_cmi,
    sandwiched_cmi,
    von_neumann_cmi,
    rel_ent_diff,
    renyi_rel_ent_diff,
)
from qmarkov.states import (
    DensityOperator,
    PositiveOperator,
    perturb_positive,
    random_density,
)
from qmarkov.structured import (
    MarkovBlock,
    MarkovBlockSpec,
    SufficiencyBlock,
    SufficiencyBlockSpec,
    build_markov_chain,
    build_sufficiency_triple,
    is_markov_petz,
    is_sufficient_petz,
    log_identity_check,
    random_markov_spec,
    random_sufficiency_spec,
)


class TestMarkovSpec:
    def test_weights_must_sum_to_one(self):
        rho = random_density((2,), seed=0).matrix
        block = MarkovBlock(weight=0.5, dim_cl=1, dim_cr=1, rho_left=rho, rho_right=rho)
        with pytest.raises(ValidationError):
            MarkovBlockSpec(dim_a=2, dim_b=2, blocks=(block,))

    def test_nan_weight_rejected(self):
        rho = random_density((2,), seed=0).matrix
        block = MarkovBlock(weight=np.nan, dim_cl=1, dim_cr=1, rho_left=rho, rho_right=rho)
        with pytest.raises(ValidationError):
            MarkovBlockSpec(dim_a=2, dim_b=2, blocks=(block,))

    def test_block_states_validated(self):
        bad = np.diag([0.6, 0.6])
        block = MarkovBlock(weight=1.0, dim_cl=1, dim_cr=1, rho_left=bad, rho_right=bad)
        with pytest.raises(ValidationError):
            MarkovBlockSpec(dim_a=2, dim_b=2, blocks=(block,))


class TestBuildMarkovChain:
    def test_single_product_block(self):
        a = random_density((2,), seed=1).matrix
        b = random_density((2,), seed=2).matrix
        cl = random_density((2,), seed=3).matrix
        block = MarkovBlock(
            weight=1.0, dim_cl=2, dim_cr=1,
            rho_left=kron(a, cl), rho_right=b,
        )
        chain = build_markov_chain(MarkovBlockSpec(dim_a=2, dim_b=2, blocks=(block,)))
        expected = kron(kron(a, b), cl)  # A x B x C ordering
        np.testing.assert_allclose(chain.matrix, expected, atol=1e-12)

    def test_two_singleton_blocks_classical_mixture(self):
        # dim_cl = dim_cr = 1: C is a classical block label
        rng = np.random.default_rng(5)
        pa = [rng.dirichlet(np.ones(2)) for _ in range(2)]
        pb = [rng.dirichlet(np.ones(2)) for _ in range(2)]
        weights = (0.3, 0.7)
        blocks = tuple(
            MarkovBlock(weight=w, dim_cl=1, dim_cr=1,
                        rho_left=np.diag(a), rho_right=np.diag(b))
            for w, a, b in zip(weights, pa, pb)
        )
        chain = build_markov_chain(MarkovBlockSpec(dim_a=2, dim_b=2, blocks=blocks))
        p = np.zeros((2, 2, 2))
        for j, w in enumerate(weights):
            for ia in range(2):
                for ib in range(2):
                    p[ia, ib, j] = w * pa[j][ia] * pb[j][ib]
        assert von_neumann_cmi(chain) == pytest.approx(co.cmi(p), abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_markov_property(self, seed):
        spec = random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=seed)
        chain = build_markov_chain(spec)
        assert von_neumann_cmi(chain) <= 1e-9
        ok, distance = is_markov_petz(chain)
        assert ok and distance <= 1e-9

    def test_full_rank_factors_give_definite_chain(self):
        chain = build_markov_chain(random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=0))
        assert chain.is_positive_definite()

    def test_deterministic(self):
        a = build_markov_chain(random_markov_spec(2, 2, ((1, 2), (2, 1)), seed=9))
        b = build_markov_chain(random_markov_spec(2, 2, ((1, 2), (2, 1)), seed=9))
        np.testing.assert_array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("seed", range(3))
    def test_renyi_measures_vanish(self, seed):
        chain = build_markov_chain(
            random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=seed)
        )
        for a in PETZ_ALPHA_GRID:
            assert abs(renyi_cmi(chain, a)) <= 1e-8
        for a in SANDWICHED_ALPHA_GRID:
            assert abs(sandwiched_cmi(chain, a)) <= 1e-8
        for kind in ("min", "max"):
            assert abs(minmax_cmi(chain, kind)) <= 1e-8


class TestIsMarkovPetz:
    def test_product_state(self):
        a = random_density((2,), seed=0).matrix
        b = random_density((2,), seed=1).matrix
        c = random_density((2,), seed=2).matrix
        state = TripartiteState(DensityOperator(kron(kron(a, b), c), (2, 2, 2)))
        ok, distance = is_markov_petz(state)
        assert ok and distance <= 1e-12

    def test_correlated_state_fails(self):
        ab = np.zeros((4, 4))
        ab[0, 0] = ab[3, 3] = 0.5
        state = TripartiteState(DensityOperator(kron(ab, np.diag([1.0, 0.0])), (2, 2, 2)))
        ok, distance = is_markov_petz(state)
        assert not ok and distance > 0.1


class TestSufficiencySpec:
    def test_probs_must_sum_to_one(self):
        rho = random_density((2,), seed=0).matrix
        block = SufficiencyBlock(
            prob=0.5, weight=1.0, rho_left=rho, sigma_left=rho, tau_right=rho,
            unitary=np.eye(2), channel_right=identity_channel(2),
        )
        with pytest.raises(ValidationError):
            SufficiencyBlockSpec(blocks=(block,))

    @pytest.mark.parametrize("prob,weight", [(np.nan, 1.0), (1.0, np.nan)])
    def test_nan_prob_or_weight_rejected(self, prob, weight):
        rho = random_density((2,), seed=0).matrix
        block = SufficiencyBlock(
            prob=prob, weight=weight, rho_left=rho, sigma_left=rho, tau_right=rho,
            unitary=np.eye(2), channel_right=identity_channel(2),
        )
        with pytest.raises(ValidationError):
            SufficiencyBlockSpec(blocks=(block,))

    def test_unitary_validated(self):
        rho = random_density((2,), seed=0).matrix
        block = SufficiencyBlock(
            prob=1.0, weight=1.0, rho_left=rho, sigma_left=rho, tau_right=rho,
            unitary=np.ones((2, 2)), channel_right=identity_channel(2),
        )
        with pytest.raises(ValidationError):
            SufficiencyBlockSpec(blocks=(block,))


class TestBuildSufficiencyTriple:
    def test_single_trivial_block_is_identity(self):
        rho = random_density((2,), seed=0).matrix
        sigma = random_density((2,), seed=1).matrix
        tau = random_density((2,), seed=2).matrix
        block = SufficiencyBlock(
            prob=1.0, weight=1.0, rho_left=rho, sigma_left=sigma, tau_right=tau,
            unitary=np.eye(2), channel_right=identity_channel(2),
        )
        triple = build_sufficiency_triple(SufficiencyBlockSpec(blocks=(block,)))
        x = random_density((4,), seed=3).matrix
        np.testing.assert_allclose(apply_channel(triple.channel, x), x, atol=1e-12)
        for a in (0.5, 1.5):
            assert abs(renyi_rel_ent_diff(triple, a)) <= 1e-9

    def test_depolarizing_right_factor_still_sufficient(self):
        # the channel destroys the right factor entirely yet remains
        # sufficient for the pair, because they share that factor
        rho = random_density((2,), seed=4).matrix
        sigma = random_density((2,), seed=5).matrix
        tau = random_density((2,), seed=6).matrix
        block = SufficiencyBlock(
            prob=1.0, weight=1.0, rho_left=rho, sigma_left=sigma, tau_right=tau,
            unitary=np.eye(2), channel_right=depolarizing_channel(2),
        )
        triple = build_sufficiency_triple(SufficiencyBlockSpec(blocks=(block,)))
        x = random_density((4,), seed=7).matrix
        assert not np.allclose(apply_channel(triple.channel, x), x, atol=1e-3)
        for a in PETZ_ALPHA_GRID:
            assert abs(renyi_rel_ent_diff(triple, a)) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_two_blocks(self, seed):
        triple = build_sufficiency_triple(
            random_sufficiency_spec(((2, 2, 2), (1, 2, 2)), seed=seed)
        )
        assert is_strict_cptp(triple.channel)
        assert abs(rel_ent_diff(triple)) <= 1e-9
        ok, d_rho, d_sigma = is_sufficient_petz(triple)
        assert ok and d_rho <= 1e-9 and d_sigma <= 1e-9

    def test_deterministic(self):
        a = build_sufficiency_triple(random_sufficiency_spec(((2, 2, 2),), seed=4))
        b = build_sufficiency_triple(random_sufficiency_spec(((2, 2, 2),), seed=4))
        np.testing.assert_array_equal(a.rho.matrix, b.rho.matrix)
        np.testing.assert_array_equal(a.sigma.matrix, b.sigma.matrix)


class TestIsSufficientPetz:
    def test_identity_channel(self):
        triple = ChannelTriple(
            rho=random_density((3,), seed=0),
            sigma=PositiveOperator(random_density((3,), seed=1).matrix),
            channel=identity_channel(3),
        )
        ok, d_rho, d_sigma = is_sufficient_petz(triple)
        assert ok and d_rho <= 1e-10 and d_sigma <= 1e-10

    def test_depolarizing_recovers_sigma_only(self):
        triple = ChannelTriple(
            rho=random_density((3,), seed=2),
            sigma=PositiveOperator(random_density((3,), seed=3).matrix),
            channel=depolarizing_channel(3),
        )
        ok, d_rho, d_sigma = is_sufficient_petz(triple)
        assert not ok
        assert d_sigma <= 1e-10  # Petz recovery always restores sigma here
        assert d_rho > 0.05


class TestLogIdentity:
    def test_identity_channel(self):
        triple = ChannelTriple(
            rho=random_density((3,), seed=0),
            sigma=PositiveOperator(random_density((3,), seed=1).matrix),
            channel=identity_channel(3),
        )
        ok, residual = log_identity_check(triple)
        assert ok and residual <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_sufficiency_triple(self, seed):
        triple = build_sufficiency_triple(
            random_sufficiency_spec(((2, 2, 2), (1, 2, 2)), seed=seed)
        )
        ok, residual = log_identity_check(triple)
        assert ok and residual <= 1e-8

    def test_markov_chain_choice(self):
        # with the CMI substitution the identity reads
        # log rho_ABC = log rho_AC + log rho_BC - log rho_C
        chain = build_markov_chain(random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=23))
        ok, residual = log_identity_check(cmi_as_triple(chain))
        assert ok and residual <= 1e-8

    def test_perturbation_scaling(self):
        # mixing a definite chain with the flat state at eps = 1e-8 moves the
        # residual off zero but keeps it far below 1e-4
        chain = build_markov_chain(random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=23))
        pert = TripartiteState(perturb_positive(chain.rho, 1e-8))
        _, residual = log_identity_check(cmi_as_triple(pert))
        assert 0.0 < residual <= 1e-4

    def test_rank_deficient_rejected(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        triple = ChannelTriple(
            rho=rho,
            sigma=PositiveOperator(np.eye(2) / 2),
            channel=identity_channel(2),
        )
        with pytest.raises(RankDeficientError):
            log_identity_check(triple)


class TestConverseDirection:
    @pytest.mark.parametrize("seed", range(5))
    def test_nonsufficient_triples_have_positive_measures(self, seed):
        from qmarkov.channels import random_strict_channel

        rho = random_density((4,), seed=seed)
        sigma = PositiveOperator(random_density((4,), seed=seed + 100).matrix)
        chan = random_strict_channel(4, 3, seed=seed)
        triple = ChannelTriple(rho=rho, sigma=sigma, channel=chan)
        _, d_rho, _ = is_sufficient_petz(triple)
        if d_rho < 0.05:
            pytest.skip("sampled triple accidentally near-sufficient")
        assert max(renyi_rel_ent_diff(triple, a) for a in PETZ_ALPHA_GRID) >= 1e-6
