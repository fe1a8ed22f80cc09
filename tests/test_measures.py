import numpy as np
import pytest

import classical_oracles as co
import marginal_oracles as mo
from qmarkov.channels import (
    Channel,
    identity_channel,
    random_strict_channel,
    random_unitary,
)
from qmarkov.errors import (
    InfiniteTermError,
    MatrixFunctionDomainError,
    NotStrictError,
    RankDeficientError,
)
from qmarkov.functionals import (
    channel_trace_value,
    cmi_trace_value,
    exp_trace_channel_value,
    exp_trace_cmi_value,
    lie_trotter_deviation,
)
from qmarkov.linalg import kron, kron_all
from qmarkov.measures import (
    PETZ_ALPHA_GRID,
    SANDWICHED_ALPHA_GRID,
    ChannelTriple,
    TripartiteState,
    cmi_as_triple,
    minmax_cmi,
    minmax_rel_ent_diff,
    rel_ent_diff,
    renyi_cmi,
    renyi_rel_ent_diff,
    sandwiched_cmi,
    sandwiched_rel_ent_diff,
    von_neumann_cmi,
)
from qmarkov.states import DensityOperator, PositiveOperator, random_density


def product_state(seed=0):
    a = random_density((2,), seed=seed).matrix
    b = random_density((2,), seed=seed + 1).matrix
    c = random_density((2,), seed=seed + 2).matrix
    return TripartiteState(DensityOperator(kron_all(a, b, c), (2, 2, 2)))


def correlated_ab_state():
    """(|00><00| + |11><11|)/2 on AB with a pure spectator C."""
    ab = np.zeros((4, 4))
    ab[0, 0] = ab[3, 3] = 0.5
    c = np.diag([1.0, 0.0])
    return TripartiteState(DensityOperator(kron(ab, c), (2, 2, 2)))


def ghz_classical_state():
    """(|000><000| + |111><111|)/2: a classical Markov chain A-C-B."""
    m = np.zeros((8, 8))
    m[0, 0] = m[7, 7] = 0.5
    return TripartiteState(DensityOperator(m, (2, 2, 2)))


def random_triple(seed, d_in=4, d_out=3):
    rho = random_density((d_in,), seed=seed)
    sigma = PositiveOperator(random_density((d_in,), seed=seed + 1000).matrix)
    chan = random_strict_channel(d_in, d_out, seed=seed)
    return ChannelTriple(rho=rho, sigma=sigma, channel=chan)


def classical_triple(seed, d_in=4, d_out=3):
    """Diagonal states with a stochastic-matrix channel; returns the triple
    and its probability-vector data for the classical oracles."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(d_in))
    q = rng.dirichlet(np.ones(d_in))
    t = rng.dirichlet(np.ones(d_out), size=d_in).T
    kraus = tuple(
        np.sqrt(t[y, x]) * np.outer(np.eye(d_out)[y], np.eye(d_in)[x])
        for y in range(d_out)
        for x in range(d_in)
    )
    triple = ChannelTriple(
        rho=DensityOperator(np.diag(p)),
        sigma=PositiveOperator(np.diag(q)),
        channel=Channel(kraus),
    )
    return triple, p, q, t


class TestVonNeumannCmi:
    def test_product_state(self):
        assert von_neumann_cmi(product_state()) == pytest.approx(0.0, abs=1e-12)

    def test_correlated_ab_is_one_bit(self):
        # H(AC) = 1, H(BC) = 1, H(C) = 0, H(ABC) = 1
        assert von_neumann_cmi(correlated_ab_state()) == pytest.approx(1.0, abs=1e-12)

    def test_classical_markov_chain(self):
        state = ghz_classical_state()
        assert von_neumann_cmi(state) == pytest.approx(0.0, abs=1e-12)
        p = np.zeros((2, 2, 2))
        p[0, 0, 0] = p[1, 1, 1] = 0.5
        assert von_neumann_cmi(state) == pytest.approx(co.cmi(p), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_strong_subadditivity(self, seed):
        state = TripartiteState(random_density((2, 2, 2), seed=seed))
        assert von_neumann_cmi(state) >= -1e-9


class TestRenyiCmi:
    @pytest.mark.parametrize("alpha", [0.25, 0.75, 1.5])
    def test_product_state(self, alpha):
        assert renyi_cmi(product_state(), alpha, strict=False) == pytest.approx(
            0.0, abs=1e-10
        )

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.25, 1.5, 1.75])
    def test_correlated_ab_constant_one(self, alpha):
        # diagonal computation: the trace is 2^(alpha-1) for every order
        value = renyi_cmi(correlated_ab_state(), alpha, strict=False)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_rank_deficient_raises_by_default(self):
        with pytest.raises(RankDeficientError):
            renyi_cmi(correlated_ab_state(), 1.5)

    def test_rank_deficient_ok_below_one(self):
        value = renyi_cmi(correlated_ab_state(), 0.5)
        assert value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_limit_to_von_neumann(self, seed):
        state = TripartiteState(random_density((2, 2, 2), seed=seed))
        target = von_neumann_cmi(state)
        for a in (1.0 - 1e-4, 1.0 + 1e-4):
            assert renyi_cmi(state, a) == pytest.approx(target, abs=1e-3)

    @pytest.mark.parametrize("seed", range(3))
    def test_classical_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        state = TripartiteState(DensityOperator(np.diag(p.ravel()), (2, 2, 2)))
        for a in PETZ_ALPHA_GRID:
            assert renyi_cmi(state, a) == pytest.approx(co.renyi_cmi(p, a), abs=1e-10)

    def test_overflow_at_extreme_order_is_named(self):
        # the eigenvalues are positive; their power at alpha = 1000 overflows
        state = TripartiteState(random_density((2, 2, 2), seed=7))
        with pytest.raises(MatrixFunctionDomainError, match="overflows float64"):
            renyi_cmi(state, 1000, strict=False)


class TestSandwichedCmi:
    @pytest.mark.parametrize("alpha", [0.6, 1.5, 3.0])
    def test_product_state(self, alpha):
        assert sandwiched_cmi(product_state(), alpha, strict=False) == pytest.approx(
            0.0, abs=1e-10
        )

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.5, 2.0])
    def test_diagonal_reduction(self, alpha):
        rng = np.random.default_rng(17)
        p = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        state = TripartiteState(DensityOperator(np.diag(p.ravel()), (2, 2, 2)))
        assert sandwiched_cmi(state, alpha) == pytest.approx(
            renyi_cmi(state, alpha), abs=1e-10
        )

    def test_correlated_ab_at_two(self):
        value = sandwiched_cmi(correlated_ab_state(), 2.0, strict=False)
        assert value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_limit_to_von_neumann(self, seed):
        state = TripartiteState(random_density((2, 2, 2), seed=seed))
        target = von_neumann_cmi(state)
        for a in (1.0 - 1e-4, 1.0 + 1e-4):
            assert sandwiched_cmi(state, a) == pytest.approx(target, abs=1e-3)


class TestReductionIdentity:
    """Every CMI measure equals its difference counterpart on the
    substituted triple (rho_ABC, rho_AC x I_B, trace-out-A)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_renyi(self, seed):
        state = TripartiteState(random_density((2, 2, 2), seed=seed))
        triple = cmi_as_triple(state)
        for a in PETZ_ALPHA_GRID:
            assert renyi_cmi(state, a) == pytest.approx(
                renyi_rel_ent_diff(triple, a), abs=1e-9
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_sandwiched(self, seed):
        state = TripartiteState(random_density((2, 2, 2), seed=seed))
        triple = cmi_as_triple(state)
        for a in SANDWICHED_ALPHA_GRID:
            assert sandwiched_cmi(state, a) == pytest.approx(
                sandwiched_rel_ent_diff(triple, a), abs=1e-9
            )

    @pytest.mark.parametrize("kind", ["min", "max"])
    @pytest.mark.parametrize("seed", range(3))
    def test_minmax(self, kind, seed):
        state = TripartiteState(random_density((2, 2, 2), seed=seed))
        triple = cmi_as_triple(state)
        assert minmax_cmi(state, kind) == pytest.approx(
            minmax_rel_ent_diff(triple, kind), abs=1e-9
        )

    def test_von_neumann(self):
        state = TripartiteState(random_density((2, 2, 2), seed=7))
        triple = cmi_as_triple(state)
        assert von_neumann_cmi(state) == pytest.approx(rel_ent_diff(triple), abs=1e-10)


class TestMarginalOracle:
    """The CMI measures, evaluated as differences of the CMI triple, against
    the explicit marginal-product formulas of marginal_oracles."""

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 4)])
    def test_against_oracle(self, dims):
        state = TripartiteState(random_density(dims, seed=sum(dims)))
        for a in PETZ_ALPHA_GRID:
            assert renyi_cmi(state, a) == pytest.approx(mo.renyi_cmi(state, a), abs=1e-9)
            assert cmi_trace_value(state, a) == pytest.approx(
                mo.cmi_trace_value(state, a), abs=1e-9
            )
            assert lie_trotter_deviation(state, a) == pytest.approx(
                mo.lie_trotter_deviation(state, a), abs=1e-9
            )
        for a in SANDWICHED_ALPHA_GRID:
            assert sandwiched_cmi(state, a) == pytest.approx(
                mo.sandwiched_cmi(state, a), abs=1e-9
            )
            assert cmi_trace_value(state, a, sandwiched=True) == pytest.approx(
                mo.cmi_trace_value(state, a, sandwiched=True), abs=1e-9
            )
        for kind in ("min", "max"):
            assert minmax_cmi(state, kind) == pytest.approx(
                mo.minmax_cmi(state, kind), abs=1e-9
            )
        assert exp_trace_cmi_value(state) == pytest.approx(
            float(np.trace(mo.exp_log_marginals(state)).real), abs=1e-9
        )


class TestMinMaxCmi:
    def test_product_state(self):
        state = product_state()
        assert minmax_cmi(state, "max") == pytest.approx(0.0, abs=1e-9)
        assert minmax_cmi(state, "min") == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("kind", ["min", "max"])
    @pytest.mark.parametrize("seed", range(4))
    def test_norm_form_agreement(self, kind, seed):
        state = TripartiteState(random_density((2, 2, 2), seed=seed))
        assert minmax_cmi(state, kind) == pytest.approx(
            mo.minmax_cmi_norm_form(state, kind), abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_nonnegative(self, seed):
        state = TripartiteState(random_density((2, 2, 2), seed=seed))
        assert minmax_cmi(state, "max") >= -1e-9
        assert minmax_cmi(state, "min") >= -1e-9

    def test_perturbed_markov_chain_stays_small(self):
        from qmarkov.states import perturb_positive
        from qmarkov.structured import build_markov_chain, random_markov_spec

        chain = build_markov_chain(random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=17))
        pert = TripartiteState(perturb_positive(chain.rho, 1e-6))
        assert minmax_cmi(pert, "max") <= 1e-4
        assert minmax_cmi(pert, "min") <= 1e-4

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficientError):
            minmax_cmi(correlated_ab_state(), "max")

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            minmax_cmi(product_state(), "median")


class TestRelEntDiff:
    def test_identity_channel(self):
        rho = random_density((3,), seed=0)
        sigma = PositiveOperator(random_density((3,), seed=1).matrix)
        triple = ChannelTriple(rho=rho, sigma=sigma, channel=identity_channel(3))
        assert rel_ent_diff(triple) == pytest.approx(0.0, abs=1e-10)

    def test_equal_arguments(self):
        rho = random_density((3,), seed=2)
        triple = ChannelTriple(
            rho=rho,
            sigma=PositiveOperator(rho.matrix),
            channel=random_strict_channel(3, 3, seed=0),
        )
        assert rel_ent_diff(triple) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_classical_oracle(self, seed):
        triple, p, q, t = classical_triple(seed)
        assert rel_ent_diff(triple) == pytest.approx(co.rel_ent_diff(p, q, t), abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_monotonicity(self, seed):
        assert rel_ent_diff(random_triple(seed)) >= -1e-9

    def test_infinite_term(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        sigma = PositiveOperator(np.diag([0.0, 1.0]))
        triple = ChannelTriple(rho=rho, sigma=sigma, channel=identity_channel(2))
        with pytest.raises(InfiniteTermError):
            rel_ent_diff(triple)


class TestRenyiRelEntDiff:
    def test_identity_channel(self):
        rho = random_density((3,), seed=3)
        sigma = PositiveOperator(random_density((3,), seed=4).matrix)
        triple = ChannelTriple(rho=rho, sigma=sigma, channel=identity_channel(3))
        for a in PETZ_ALPHA_GRID:
            assert renyi_rel_ent_diff(triple, a) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_classical_oracle(self, seed):
        triple, p, q, t = classical_triple(seed)
        for a in PETZ_ALPHA_GRID:
            assert renyi_rel_ent_diff(triple, a) == pytest.approx(
                co.renyi_diff(p, q, t, a), abs=1e-10
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_nonnegative(self, seed):
        triple = random_triple(seed)
        for a in PETZ_ALPHA_GRID:
            assert renyi_rel_ent_diff(triple, a) >= -1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_limit(self, seed):
        triple = random_triple(seed)
        target = rel_ent_diff(triple)
        for a in (1.0 - 1e-4, 1.0 + 1e-4):
            assert renyi_rel_ent_diff(triple, a) == pytest.approx(target, abs=1e-3)

    def test_rank_deficient_raises_above_one(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        sigma = PositiveOperator(np.eye(2) / 2)
        triple = ChannelTriple(rho=rho, sigma=sigma, channel=identity_channel(2))
        with pytest.raises(RankDeficientError):
            renyi_rel_ent_diff(triple, 1.5)


class TestSandwichedRelEntDiff:
    def test_identity_channel(self):
        rho = random_density((3,), seed=5)
        sigma = PositiveOperator(random_density((3,), seed=6).matrix)
        triple = ChannelTriple(rho=rho, sigma=sigma, channel=identity_channel(3))
        for a in SANDWICHED_ALPHA_GRID:
            assert sandwiched_rel_ent_diff(triple, a) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_classical_oracle(self, seed):
        triple, p, q, t = classical_triple(seed)
        for a in SANDWICHED_ALPHA_GRID:
            assert sandwiched_rel_ent_diff(triple, a) == pytest.approx(
                co.sandwiched_diff(p, q, t, a), abs=1e-10
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_nonnegative(self, seed):
        triple = random_triple(seed)
        for a in SANDWICHED_ALPHA_GRID:
            assert sandwiched_rel_ent_diff(triple, a) >= -1e-9

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_dominates_substituted_plain(self, alpha, seed):
        # the sandwiched difference at alpha bounds the plain difference at
        # gamma = (2 alpha - 1)/alpha from above
        triple = random_triple(seed)
        gamma = (2.0 * alpha - 1.0) / alpha
        assert sandwiched_rel_ent_diff(triple, alpha) >= renyi_rel_ent_diff(
            triple, gamma
        ) - 1e-9


class TestMinMaxRelEntDiff:
    def test_identity_channel(self):
        rho = random_density((3,), seed=8)
        sigma = PositiveOperator(random_density((3,), seed=9).matrix)
        triple = ChannelTriple(rho=rho, sigma=sigma, channel=identity_channel(3))
        assert minmax_rel_ent_diff(triple, "min") == pytest.approx(0.0, abs=1e-8)
        assert minmax_rel_ent_diff(triple, "max") == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("seed", range(4))
    def test_nonnegative(self, seed):
        triple = random_triple(seed)
        assert minmax_rel_ent_diff(triple, "min") >= -1e-9
        assert minmax_rel_ent_diff(triple, "max") >= -1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_classical_oracle(self, seed):
        triple, p, q, t = classical_triple(seed)
        for kind in ("min", "max"):
            assert minmax_rel_ent_diff(triple, kind, strict=False) == pytest.approx(
                co.minmax_diff(p, q, t, kind), abs=1e-10
            )

    def test_not_strict_rejected(self):
        k0 = np.array([[1.0, 0.0], [0.0, 0.0]])
        k1 = np.array([[0.0, 1.0], [0.0, 0.0]])
        triple = ChannelTriple(
            rho=random_density((2,), seed=1),
            sigma=PositiveOperator(random_density((2,), seed=2).matrix),
            channel=Channel((k0, k1)),
        )
        with pytest.raises(NotStrictError):
            minmax_rel_ent_diff(triple, "max")


class TestAsymmetricDimensions:
    """Embedding order is exercised hardest when the three dims differ."""

    @pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 4)])
    def test_reduction_identity(self, dims):
        state = TripartiteState(random_density(dims, seed=1))
        triple = cmi_as_triple(state)
        for a in (0.25, 1.75):
            assert renyi_cmi(state, a) == pytest.approx(
                renyi_rel_ent_diff(triple, a), abs=1e-9
            )
        for a in (0.6, 3.0):
            assert sandwiched_cmi(state, a) == pytest.approx(
                sandwiched_rel_ent_diff(triple, a), abs=1e-9
            )
        assert von_neumann_cmi(state) == pytest.approx(rel_ent_diff(triple), abs=1e-10)
        for kind in ("min", "max"):
            assert minmax_cmi(state, kind) == pytest.approx(
                minmax_rel_ent_diff(triple, kind), abs=1e-9
            )
        for a in (0.25, 1.75):
            assert cmi_trace_value(state, a) == pytest.approx(
                channel_trace_value(triple, a), abs=1e-9
            )
            assert lie_trotter_deviation(state, a) == pytest.approx(
                lie_trotter_deviation(triple, a), abs=1e-9
            )
        for a in (0.6, 3.0):
            assert cmi_trace_value(state, a, sandwiched=True) == pytest.approx(
                channel_trace_value(triple, a, sandwiched=True), abs=1e-9
            )
        assert exp_trace_cmi_value(state) == pytest.approx(
            exp_trace_channel_value(triple), abs=1e-9
        )

    def test_markov_chain(self):
        from qmarkov.structured import build_markov_chain, is_markov_petz, random_markov_spec

        chain = build_markov_chain(random_markov_spec(3, 2, ((2, 1), (1, 3)), seed=2))
        assert chain.dims == (3, 2, 5)
        assert abs(von_neumann_cmi(chain)) <= 1e-9
        ok, _ = is_markov_petz(chain)
        assert ok


class TestLocalUnitaryInvariance:
    @pytest.mark.parametrize("seed", range(2))
    def test_all_cmi_measures(self, seed):
        state = TripartiteState(random_density((2, 2, 2), seed=seed))
        u = kron_all(
            random_unitary(2, seed=seed),
            random_unitary(2, seed=seed + 1),
            random_unitary(2, seed=seed + 2),
        )
        rotated = TripartiteState(
            DensityOperator(u @ state.matrix @ u.conj().T, (2, 2, 2))
        )
        assert von_neumann_cmi(rotated) == pytest.approx(von_neumann_cmi(state), abs=1e-9)
        for a in (0.5, 1.5):
            assert renyi_cmi(rotated, a) == pytest.approx(renyi_cmi(state, a), abs=1e-9)
        for a in (0.75, 2.0):
            assert sandwiched_cmi(rotated, a) == pytest.approx(
                sandwiched_cmi(state, a), abs=1e-9
            )
        for kind in ("min", "max"):
            assert minmax_cmi(rotated, kind) == pytest.approx(
                minmax_cmi(state, kind), abs=1e-9
            )


@pytest.mark.parametrize("measure", [renyi_rel_ent_diff, sandwiched_rel_ent_diff])
def test_difference_off_the_support_is_infinite(measure):
    # alpha > 1 and supp(rho) not in supp(sigma): D_alpha(rho||sigma) = +inf
    triple = ChannelTriple(
        rho=random_density((4,), seed=1),
        sigma=PositiveOperator(np.diag([1.0, 1.0, 0.0, 0.0])),
        channel=random_strict_channel(4, 3, seed=2),
    )
    with pytest.raises(InfiniteTermError):
        measure(triple, 1.5, strict=False)
    assert measure(triple, 0.75, strict=False) >= 0.0
