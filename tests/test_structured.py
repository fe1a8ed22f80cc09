import dataclasses

import numpy as np
import pytest

import classical_oracles as co
import loop_oracles as lo
from qmarkov.channels import (
    apply_channel,
    is_strict_cptp,
    random_channel,
    random_strict_channel,
    random_unitary,
)
from qmarkov.errors import DimensionMismatchError, RankDeficientError, ValidationError
from qmarkov.functionals import log_identity_residual
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
    random_markov_spec,
    random_sufficiency_spec,
)
from qmarkov.suites import SuiteConfig, _screened_nonsufficient_triple
from simple_channels import depolarizing_channel, identity_channel


SEEDED_GENERATORS = {
    "random_density": lambda seed: random_density((2,), seed=seed),
    "random_unitary": lambda seed: random_unitary(2, seed=seed),
    "random_channel": lambda seed: random_channel(2, 2, seed=seed),
    "random_strict_channel": lambda seed: random_strict_channel(2, 2, seed=seed),
    "random_markov_spec": lambda seed: random_markov_spec(2, 2, ((1, 1),), seed=seed),
    "random_sufficiency_spec": lambda seed: random_sufficiency_spec(((1, 2, 2),), seed=seed),
}


@pytest.mark.parametrize("seed", [-1, np.int64(-1)], ids=["int", "int64"])
@pytest.mark.parametrize("name", sorted(SEEDED_GENERATORS))
def test_negative_seed_is_a_validation_error(name, seed):
    with pytest.raises(ValidationError) as err:
        SEEDED_GENERATORS[name](seed)
    assert err.value.reason == "bad-spec"


@pytest.mark.parametrize("seed", [1.5, np.float64(2.0), "0"], ids=["float", "float64", "str"])
@pytest.mark.parametrize("name", sorted(SEEDED_GENERATORS))
def test_non_integer_seed_is_a_validation_error(name, seed):
    with pytest.raises(ValidationError) as err:
        SEEDED_GENERATORS[name](seed)
    assert err.value.reason == "bad-spec"


def _arrays(x):
    """The arrays a generator's result is made of, in field order."""
    if dataclasses.is_dataclass(x):
        return [a for f in dataclasses.fields(x) for a in _arrays(getattr(x, f.name))]
    if isinstance(x, tuple):
        return [a for item in x for a in _arrays(item)]
    return [np.asarray(x)]


@pytest.mark.parametrize("name", sorted(SEEDED_GENERATORS))
def test_generator_seed_draws_from_the_generator(name):
    rng = np.random.default_rng(5)
    first = _arrays(SEEDED_GENERATORS[name](rng))
    second = _arrays(SEEDED_GENERATORS[name](rng))
    again = _arrays(SEEDED_GENERATORS[name](np.random.default_rng(5)))
    # the same generator state gives the same draw, and the generator advances
    assert len(first) == len(again) and all(map(np.array_equal, first, again))
    assert not all(map(np.array_equal, first, second))


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

    @pytest.mark.parametrize("block", [(2.5, 1.9), (True, 2), (2, "1")])
    def test_block_dims_are_not_coerced(self, block):
        with pytest.raises(DimensionMismatchError, match="must be integers"):
            random_markov_spec(2, 2, [block], seed=0)

    @pytest.mark.parametrize("weights", [(), (1.5, -0.5), (1.0, 0.0)],
                             ids=["no-block", "negative", "zero"])
    def test_weights_are_a_positive_distribution(self, weights):
        rho = random_density((2,), seed=0).matrix
        blocks = tuple(MarkovBlock(weight=w, dim_cl=1, dim_cr=1, rho_left=rho, rho_right=rho)
                       for w in weights)
        with pytest.raises(ValidationError) as err:
            MarkovBlockSpec(dim_a=2, dim_b=2, blocks=blocks)
        assert err.value.reason == "bad-spec"


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

    @pytest.mark.parametrize("unitary, reason", [
        (np.ones((2, 2)), "not-trace-preserving"),
        (np.diag([np.nan, 1.0]), "not-finite"),
    ], ids=["not-unitary", "nan"])
    def test_unitary_validated(self, unitary, reason):
        # validated as the one-Kraus channel rho -> U rho U†; before, a nan
        # unitary passed the spec
        rho = random_density((2,), seed=0).matrix
        block = SufficiencyBlock(
            prob=1.0, weight=1.0, rho_left=rho, sigma_left=rho, tau_right=rho,
            unitary=unitary, channel_right=identity_channel(2),
        )
        with pytest.raises(ValidationError) as err:
            SufficiencyBlockSpec(blocks=(block,))
        assert err.value.reason == reason

    @pytest.mark.parametrize("block", [(True, 2.7, 1.2), (2, 2, 1.5), ("2", 2, 2)])
    def test_block_dims_are_not_coerced(self, block):
        with pytest.raises(DimensionMismatchError, match="must be integers"):
            random_sufficiency_spec([block], seed=0)

    @pytest.mark.parametrize("edits, error, reason", [
        ([], ValidationError, "bad-spec"),
        ([{"prob": 1.5}, {"prob": -0.5}], ValidationError, "bad-spec"),
        ([{"weight": 0.0}], ValidationError, "bad-spec"),
        ([{"sigma_left": np.eye(3) / 3}], DimensionMismatchError, None),
        ([{"sigma_left": np.diag([1.0, 0.0])}], ValidationError, "not-positive"),
        ([{"unitary": np.eye(2, 3)}], DimensionMismatchError, None),
        ([{"channel_right": identity_channel(3)}], DimensionMismatchError, None),
    ], ids=["no-block", "negative-prob", "zero-weight", "sigma-size", "sigma-singular",
            "unitary-not-square", "channel-input"])
    def test_bad_block_is_a_typed_error(self, edits, error, reason):
        # one block per entry of ``edits``, each a valid block with its edits
        rho = random_density((2,), seed=0).matrix
        block = SufficiencyBlock(
            prob=1.0, weight=1.0, rho_left=rho, sigma_left=rho, tau_right=rho,
            unitary=np.eye(2), channel_right=identity_channel(2),
        )
        with pytest.raises(error) as err:
            SufficiencyBlockSpec(blocks=tuple(dataclasses.replace(block, **e) for e in edits))
        assert getattr(err.value, "reason", None) == reason


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

    @staticmethod
    def assert_matches_kraus_oracle(triple):
        _, d_rho, d_sigma = is_sufficient_petz(triple)
        oracle_rho, oracle_sigma = lo.petz_round_trip(triple)
        assert abs(d_rho - oracle_rho) <= 1e-12
        assert abs(d_sigma - oracle_sigma) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("menu", [((2, 2, 2), (1, 2, 2)), ((1, 2, 3), (2, 2, 2))])
    def test_kraus_oracle_on_sufficiency_triples(self, menu, seed):
        self.assert_matches_kraus_oracle(
            build_sufficiency_triple(random_sufficiency_spec(menu, seed=seed))
        )

    @pytest.mark.parametrize("trial", range(6))
    def test_kraus_oracle_on_screened_triples(self, trial):
        cfg = SuiteConfig(trials=1, seed=42)
        self.assert_matches_kraus_oracle(_screened_nonsufficient_triple(cfg, trial))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_kraus_oracle_on_rank_deficient_sigma(self, rank):
        # through a strict channel N(sigma) may be full rank; through the
        # identity it keeps sigma's rank, so both inverse roots cut a support
        sigma = PositiveOperator(random_density((4,), rank=rank, seed=rank + 10).matrix)
        for channel in (random_strict_channel(4, 3, seed=rank), identity_channel(4)):
            triple = ChannelTriple(
                rho=random_density((4,), seed=rank), sigma=sigma, channel=channel
            )
            self.assert_matches_kraus_oracle(triple)


class TestLogIdentity:
    def test_identity_channel(self):
        triple = ChannelTriple(
            rho=random_density((3,), seed=0),
            sigma=PositiveOperator(random_density((3,), seed=1).matrix),
            channel=identity_channel(3),
        )
        assert log_identity_residual(triple) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_sufficiency_triple(self, seed):
        triple = build_sufficiency_triple(
            random_sufficiency_spec(((2, 2, 2), (1, 2, 2)), seed=seed)
        )
        assert log_identity_residual(triple) <= 1e-8

    def test_markov_chain_choice(self):
        # with the CMI substitution the identity reads
        # log rho_ABC = log rho_AC + log rho_BC - log rho_C
        chain = build_markov_chain(random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=23))
        assert log_identity_residual(cmi_as_triple(chain)) <= 1e-8

    def test_perturbation_scaling(self):
        # mixing a definite chain with the flat state at eps = 1e-8 moves the
        # residual off zero but keeps it far below 1e-4
        chain = build_markov_chain(random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=23))
        pert = TripartiteState(perturb_positive(chain.rho, 1e-8))
        assert 0.0 < log_identity_residual(cmi_as_triple(pert)) <= 1e-4

    def test_rank_deficient_rejected(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        triple = ChannelTriple(
            rho=rho,
            sigma=PositiveOperator(np.eye(2) / 2),
            channel=identity_channel(2),
        )
        with pytest.raises(RankDeficientError):
            log_identity_residual(triple)


class TestConverseDirection:
    @pytest.mark.parametrize("seed", range(5))
    def test_nonsufficient_triples_have_positive_measures(self, seed):
        rho = random_density((4,), seed=seed)
        sigma = PositiveOperator(random_density((4,), seed=seed + 100).matrix)
        chan = random_strict_channel(4, 3, seed=seed)
        triple = ChannelTriple(rho=rho, sigma=sigma, channel=chan)
        _, d_rho, _ = is_sufficient_petz(triple)
        if d_rho < 0.05:
            pytest.skip("sampled triple accidentally near-sufficient")
        assert max(renyi_rel_ent_diff(triple, a) for a in PETZ_ALPHA_GRID) >= 1e-6
