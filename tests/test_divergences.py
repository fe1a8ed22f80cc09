import math

import numpy as np
import pytest

import classical_oracles as co
from qmarkov.channels import apply_channel, random_channel
from qmarkov.divergences import (
    AlphaParameter,
    f_divergence,
    max_rel_entropy,
    min_rel_entropy,
    rel_entropy,
    renyi_rel_entropy,
    sandwiched_rel_entropy,
    support_contained,
    von_neumann_entropy,
)
from qmarkov.errors import ValidationError
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
    def test_gamma(self):
        a = AlphaParameter(2.0)
        assert a.gamma == (2 * 2.0 - 1.0) / 2.0

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
        assert support_contained(KET0, HALF)
        assert not support_contained(HALF, KET0)

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


class TestFDivergence:
    def test_x_log_x_matches_relative_entropy(self):
        value = f_divergence(HALF, SKEW, lambda x: x * np.log2(x))
        assert value == pytest.approx(KL_HALF_SKEW, abs=1e-12)

    def test_x_squared_trace_value(self):
        # Tr{rho^2 sigma^(-1)} = 4/3 for the standard diagonal pair
        assert f_divergence(HALF, SKEW, np.square) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_linear_gives_trace(self, rng):
        a = random_density((3,), seed=1).matrix
        b = random_density((3,), seed=2).matrix
        assert f_divergence(a, b, lambda x: x) == pytest.approx(
            np.trace(a).real, abs=1e-10
        )

    @pytest.mark.parametrize("alpha", [1.3, 1.7, 2.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_powers_match_renyi_trace(self, alpha, seed):
        a = random_density((3,), seed=seed).matrix
        b = random_density((3,), seed=seed + 60).matrix
        value = f_divergence(a, b, lambda x: x**alpha)
        expected = 2.0 ** ((alpha - 1.0) * renyi_rel_entropy(a, b, alpha))
        assert value == pytest.approx(expected, rel=1e-9)

    def test_singular_reference_rejected(self):
        with pytest.raises(ValidationError):
            f_divergence(HALF, KET0, np.square)
