import math
import warnings

import numpy as np
import pytest

import classical_oracles as co
from qmarkov.channels import apply_channel, random_channel
from qmarkov.divergences import (
    AlphaParameter,
    max_rel_entropy,
    min_rel_entropy,
    rel_entropy,
    von_neumann_entropy,
)
from qmarkov.errors import DimensionMismatchError, NonHermitianError, ValidationError
from qmarkov.linalg import SpectralDecomposition, hermitian_eig
from qmarkov.measures import (
    PETZ_ALPHA_GRID,
    SANDWICHED_ALPHA_GRID,
    renyi_rel_entropy,
    renyi_rel_entropy_grid,
    sandwiched_rel_entropy,
    sandwiched_rel_entropy_grid,
)
from qmarkov.states import PositiveOperator, random_density, trace_distance

HALF = np.diag([0.5, 0.5])
SKEW = np.diag([0.25, 0.75])
KET0 = np.diag([1.0, 0.0])
KET1 = np.diag([0.0, 1.0])
PLUS = np.full((2, 2), 0.5)

# frozen from the classical Kullback-Leibler oracle: 0.5 + 0.5 log2(2/3)
KL_HALF_SKEW = 0.2075187496394219
# frozen from the classical Renyi oracle at order 2: log2(4/3)
RENYI2_HALF_SKEW = 0.4150374992788438


class TestAlphaParameter:
    def test_ranges(self):
        assert AlphaParameter(1.5).petz_ok
        assert not AlphaParameter(2.5).petz_ok
        assert AlphaParameter(0.6).sandwiched_ok
        assert not AlphaParameter(0.4).sandwiched_ok

    @pytest.mark.parametrize("bad", [0.0, -1.0, 1.0, 1.0 + 1e-7])
    def test_rejected(self, bad):
        with pytest.raises(ValidationError):
            AlphaParameter(bad)


class TestRelEntropy:
    def test_self(self):
        rho = random_density((3,), seed=0)
        assert rel_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_classical_value(self):
        assert rel_entropy(HALF, SKEW) == pytest.approx(KL_HALF_SKEW, abs=1e-12)
        assert rel_entropy(HALF, SKEW) == pytest.approx(
            co.kl([0.5, 0.5], [0.25, 0.75]), abs=1e-12
        )

    def test_disjoint_supports(self):
        assert rel_entropy(KET0, KET1) == math.inf

    def test_support_contained(self):
        assert hermitian_eig(HALF).supports(KET0)
        assert not hermitian_eig(KET0).supports(HALF)

    def test_entropy(self):
        assert von_neumann_entropy(HALF) == pytest.approx(1.0, abs=1e-12)
        assert von_neumann_entropy(KET0) == pytest.approx(0.0, abs=1e-12)


class TestRenyi:
    def test_self(self):
        rho = random_density((3,), seed=1)
        for a in (0.5, 1.5):
            assert renyi_rel_entropy(rho, rho, a) == pytest.approx(0.0, abs=1e-12)

    def test_classical_order_two(self):
        assert renyi_rel_entropy(HALF, SKEW, 2.0) == pytest.approx(
            RENYI2_HALF_SKEW, abs=1e-12
        )
        assert renyi_rel_entropy(HALF, SKEW, 2.0) == pytest.approx(
            co.renyi([0.5, 0.5], [0.25, 0.75], 2.0), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_limit_to_relative_entropy(self, seed):
        rho = random_density((3,), seed=seed)
        sigma = random_density((3,), seed=seed + 50)
        target = rel_entropy(rho, sigma)
        for a in (1.0 - 1e-4, 1.0 + 1e-4):
            assert renyi_rel_entropy(rho, sigma, a) == pytest.approx(target, abs=1e-3)

    def test_infinite_above_one(self):
        assert renyi_rel_entropy(HALF, KET0, 1.5) == math.inf


class TestSandwiched:
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.5, 3.0])
    def test_commuting_reduces_to_renyi(self, alpha):
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        assert sandwiched_rel_entropy(np.diag(p), np.diag(q), alpha) == pytest.approx(
            renyi_rel_entropy(np.diag(p), np.diag(q), alpha), abs=1e-11
        )

    def test_self(self):
        rho = random_density((3,), seed=2)
        for a in (0.6, 2.0):
            assert sandwiched_rel_entropy(rho, rho, a) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_half_equals_min(self, seed):
        rho = random_density((4,), seed=seed)
        sigma = random_density((4,), seed=seed + 30)
        assert sandwiched_rel_entropy(rho, sigma, 0.5) == pytest.approx(
            min_rel_entropy(rho, sigma), abs=1e-9
        )

    def test_large_orders_stay_finite(self):
        # the sum of eigenvalue powers would overflow from alpha ~ 300; the
        # values rise with alpha toward D_max (arXiv:1306.3142)
        rho = random_density((4,), seed=1)
        sigma = random_density((4,), seed=2)
        values = [sandwiched_rel_entropy(rho, sigma, a) for a in (100, 300, 1e3, 1e6)]
        assert all(math.isfinite(v) for v in values)
        assert all(lo <= hi + 1e-12 for lo, hi in zip(values, values[1:]))
        assert values[-1] <= max_rel_entropy(rho, sigma) + 1e-9

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9, 1.5, 2.0])
    def test_never_exceeds_plain_on_diagonals(self, alpha):
        # on commuting pairs the two families coincide exactly
        p = np.diag([0.7, 0.2, 0.1])
        q = np.diag([0.3, 0.3, 0.4])
        assert sandwiched_rel_entropy(p, q, alpha) == pytest.approx(
            renyi_rel_entropy(p, q, alpha), abs=1e-12
        )


class TestTraceChannelReading:
    """Both Renyi divergences are the Renyi differences' kernel with K = I
    and Y = 1, with no channel and no output factor: scaling sigma by c
    moves them by exactly -log2 c, scaling rho by c by
    alpha log2 c / (alpha - 1), no output is decomposed, and disjoint
    supports give +inf below 1 as above it."""

    @pytest.mark.parametrize("grid, orders", [
        (renyi_rel_entropy_grid, PETZ_ALPHA_GRID),
        (sandwiched_rel_entropy_grid, SANDWICHED_ALPHA_GRID),
    ], ids=["renyi", "sandwiched"])
    @pytest.mark.parametrize("seed", range(3))
    def test_scaling_sigma_shifts_by_minus_log_c(self, grid, orders, seed):
        rho = random_density((4,), seed=seed)
        sigma = random_density((4,), seed=seed + 40)
        scaled = PositiveOperator(2.0 * sigma.matrix)
        plain = grid(rho, sigma, orders)
        for value, shifted in zip(plain, grid(rho, scaled, orders)):
            assert abs(shifted - (value - 1.0)) <= 1e-13
        # an unnormalized rho is read as it is, Tr rho^alpha scaling by c^alpha
        half_rho = PositiveOperator(0.5 * rho.matrix)
        for a, value, shifted in zip(orders, plain, grid(half_rho, sigma, orders)):
            assert abs(shifted - (value + a * math.log2(0.5) / (a - 1.0))) <= 1e-13

    @pytest.mark.parametrize("grid, orders", [
        (renyi_rel_entropy_grid, PETZ_ALPHA_GRID),
        (sandwiched_rel_entropy_grid, SANDWICHED_ALPHA_GRID),
    ], ids=["renyi", "sandwiched"])
    def test_no_output_is_decomposed(self, grid, orders, monkeypatch):
        rho, sigma = random_density((4,), seed=1), random_density((4,), seed=41)
        calls = []
        original = SpectralDecomposition.powers
        monkeypatch.setattr(SpectralDecomposition, "powers",
                            lambda dec, ps: calls.append(len(ps)) or original(dec, ps))
        grid(rho, sigma, orders)
        assert calls == []

    def test_disjoint_supports_below_one(self):
        assert renyi_rel_entropy(KET0, KET1, 0.5) == math.inf
        assert sandwiched_rel_entropy(KET0, KET1, 0.75) == math.inf


class TestMinMax:
    def test_self(self):
        rho = random_density((3,), seed=3)
        assert min_rel_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)
        assert max_rel_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_one_bit(self):
        assert min_rel_entropy(KET0, PLUS) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_ratio(self):
        assert max_rel_entropy(HALF, SKEW) == pytest.approx(1.0, abs=1e-12)
        assert max_rel_entropy(HALF, SKEW) == pytest.approx(
            co.dmax([0.5, 0.5], [0.25, 0.75]), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_operator_dominance_certificate(self, seed):
        rho = random_density((3,), seed=seed)
        sigma = random_density((3,), seed=seed + 70)
        value = max_rel_entropy(rho, sigma)
        gap = 2.0**value * sigma.matrix - rho.matrix
        assert np.min(np.linalg.eigvalsh((gap + gap.conj().T) / 2)) >= -1e-10
        short = 2.0 ** (value - 0.01) * sigma.matrix - rho.matrix
        assert np.min(np.linalg.eigvalsh((short + short.conj().T) / 2)) < 0

    def test_disjoint(self):
        assert max_rel_entropy(HALF, KET0) == math.inf


class TestNonNegativityFamily:
    """Non-negativity with equality iff equal, for Tr omega >= Tr tau."""

    @pytest.mark.parametrize("seed", range(5))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        omega = random_density((3,), seed=seed)
        tau = PositiveOperator(float(rng.uniform(0.3, 1.0)) * random_density((3,), seed=seed + 11).matrix)
        for a in (0.25, 0.75, 1.5, 1.9):
            assert renyi_rel_entropy(omega, tau, a) >= -1e-10
        for a in (0.6, 0.9, 2.0, 10.0):
            assert sandwiched_rel_entropy(omega, tau, a) >= -1e-10
        assert min_rel_entropy(omega, tau) >= -1e-10
        assert max_rel_entropy(omega, tau) >= -1e-10

    def test_zero_iff_equal(self):
        omega = random_density((3,), seed=21)
        for value in (
            renyi_rel_entropy(omega, omega, 1.5),
            sandwiched_rel_entropy(omega, omega, 2.0),
            min_rel_entropy(omega, omega),
            max_rel_entropy(omega, omega),
        ):
            assert abs(value) <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_strictly_positive_when_far(self, seed):
        omega = random_density((3,), seed=seed)
        tau = random_density((3,), seed=seed + 500)
        if trace_distance(omega, tau) < 0.1:
            pytest.skip("sampled pair too close")
        assert renyi_rel_entropy(omega, tau, 1.5) > 1e-6
        assert sandwiched_rel_entropy(omega, tau, 2.0) > 1e-6
        assert min_rel_entropy(omega, tau) > 1e-6
        assert max_rel_entropy(omega, tau) > 1e-6


class TestDataProcessing:
    @pytest.mark.parametrize("seed", range(5))
    def test_renyi_monotone(self, seed):
        rho = random_density((4,), seed=seed)
        sigma = random_density((4,), seed=seed + 40)
        chan = random_channel(4, 3, seed=seed)
        out_rho, out_sigma = apply_channel(chan, rho.matrix), apply_channel(chan, sigma.matrix)
        for a in (0.25, 0.5, 0.75, 1.25, 1.5, 2.0):
            assert renyi_rel_entropy(rho, sigma, a) >= renyi_rel_entropy(
                out_rho, out_sigma, a
            ) - 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_sandwiched_monotone(self, seed):
        rho = random_density((4,), seed=seed)
        sigma = random_density((4,), seed=seed + 40)
        chan = random_channel(4, 3, seed=seed)
        out_rho, out_sigma = apply_channel(chan, rho.matrix), apply_channel(chan, sigma.matrix)
        for a in (0.6, 0.75, 0.9, 1.5, 2.0, 3.0, 5.0):
            assert sandwiched_rel_entropy(rho, sigma, a) >= sandwiched_rel_entropy(
                out_rho, out_sigma, a
            ) - 1e-9

    def test_identity_channel_zero_slack(self):
        rho = random_density((3,), seed=9)
        sigma = random_density((3,), seed=10)
        for a in (0.5, 1.5):
            assert renyi_rel_entropy(rho, sigma, a) == pytest.approx(
                renyi_rel_entropy(rho.matrix, sigma.matrix, a), abs=1e-12
            )


NOT_HERMITIAN = np.array([[0.5, 0.4], [0.0, 0.5]])


@pytest.mark.parametrize("call, error, reason", [
    (lambda: von_neumann_entropy(np.diag([np.nan, 1.0])), ValidationError, "not-finite"),
    (lambda: von_neumann_entropy(np.diag([np.inf, 1.0])), ValidationError, "not-finite"),
    (lambda: von_neumann_entropy(np.zeros((0, 0))), DimensionMismatchError, None),
    (lambda: von_neumann_entropy(NOT_HERMITIAN), NonHermitianError, "not-hermitian"),
    (lambda: rel_entropy(NOT_HERMITIAN, HALF), NonHermitianError, "not-hermitian"),
    (lambda: max_rel_entropy(NOT_HERMITIAN, HALF), NonHermitianError, "not-hermitian"),
    (lambda: max_rel_entropy(np.diag([np.nan, 1.0]), HALF), ValidationError, "not-finite"),
    (lambda: max_rel_entropy(np.diag([1.2, -0.2]), HALF), ValidationError, "not-positive"),
], ids=["entropy-nan", "entropy-inf", "entropy-empty", "entropy-not-hermitian",
        "relative-not-hermitian", "max-not-hermitian", "max-nan", "max-not-positive"])
def test_a_matrix_operand_is_validated(call, error, reason):
    # before, each returned a plausible number (-0.0, -0.0, -0.0, 0.881,
    # 0.119, 0.485, nan, 1.263): a plain matrix skipped validation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as err:
            call()
    assert getattr(err.value, "reason", None) == reason
