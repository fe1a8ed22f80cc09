"""The square-root factor of rho, and the min measures read through it.

The sandwiched differences read rho only through a factor G with G G† = rho,
and ``PositiveOperator.root`` returns its Cholesky factor when the support
keeps every eigenvalue, else the square root on the support.  The min
measures are the sandwiched difference at alpha = 1/2; ``loop_oracles``
evaluates them independently, as -log2 of the fidelity between rho and the
decomposed recovered operator.
"""

import numpy as np
import pytest

import loop_oracles as lo
from qmarkov.channels import random_strict_channel
from qmarkov.linalg import support_mask
from qmarkov.measures import (
    SANDWICHED_ALPHA_GRID,
    ChannelTriple,
    TripartiteState,
    cmi_as_triple,
    minmax_cmi,
    minmax_rel_ent_diff,
    sandwiched_rel_ent_diff_grid,
)
from qmarkov.states import PositiveOperator, perturb_positive, random_density
from qmarkov.structured import (
    build_markov_chain,
    build_sufficiency_triple,
    random_markov_spec,
    random_sufficiency_spec,
)

MIN_TOL = 1e-12
ORDERS = SANDWICHED_ALPHA_GRID + (0.5,)
# eps from 1e-13 to 1e-9 in quarter decades: the smallest eigenvalue of the
# mixed rank-2 state crosses SUPPORT_CUTOFF * max near eps = 1e-11.25
NEAR_CUTOFF_EPS = tuple(10.0 ** (-13.0 + k / 4.0) for k in range(17))
# The two factors differ by round-off of order 1e-16 * ||rho|| in the
# near-kernel directions, which the small singular values amplify at low
# orders.  Measured on the grid above: at most 5.7e-11 (eps = 1e-11,
# alpha = 1/2), at most 7.3e-12 for alpha >= 0.6.
NEAR_CUTOFF_TOL = 1e-10


def _eigen_root(self):
    return self.spectrum.power(0.5)


def _minmax(x, strict=True):
    if isinstance(x, TripartiteState):
        return minmax_cmi(x, "min", strict=strict)
    return minmax_rel_ent_diff(x, "min", strict=strict)


def _golden_triple():
    return ChannelTriple(
        rho=random_density((4,), seed=11),
        sigma=random_density((4,), seed=12),
        channel=random_strict_channel(4, 3, seed=13),
    )


def _rank_two_triple(seed):
    return ChannelTriple(
        rho=random_density((4,), rank=2, seed=seed),
        sigma=PositiveOperator(random_density((4,), seed=seed + 1).matrix),
        channel=random_strict_channel(4, 3, seed=seed + 2),
    )


class TestMinMeasureOracle:
    """The min measures against -log2 F(rho, R(N(rho))) within 1e-12."""

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 4)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_state_and_its_triple(self, dims, seed):
        state = TripartiteState(random_density(dims, seed=seed))
        for x in (state, cmi_as_triple(state)):
            assert abs(_minmax(x) - lo.min_recovery_divergence(x)) <= MIN_TOL

    def test_golden_triple(self):
        x = _golden_triple()
        assert abs(_minmax(x) - lo.min_recovery_divergence(x)) <= MIN_TOL

    @pytest.mark.parametrize("seed", [0, 5])
    def test_rank_two(self, seed):
        state = TripartiteState(random_density((2, 2, 2), rank=2, seed=seed))
        for x in (state, cmi_as_triple(state), _rank_two_triple(seed)):
            value = _minmax(x, strict=False)
            assert abs(value - lo.min_recovery_divergence(x)) <= MIN_TOL

    def test_markov_chain(self):
        state = build_markov_chain(random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=3))
        value = _minmax(state, strict=False)
        assert abs(value - lo.min_recovery_divergence(state)) <= MIN_TOL
        assert abs(value) <= MIN_TOL

    def test_sufficiency_triple(self):
        triple = build_sufficiency_triple(
            random_sufficiency_spec(((2, 2, 2), (1, 2, 2)), seed=4)
        )
        value = _minmax(triple, strict=False)
        assert abs(value - lo.min_recovery_divergence(triple)) <= MIN_TOL
        assert abs(value) <= MIN_TOL


class TestRootFactor:
    def test_full_rank_root_is_the_cholesky_factor(self, monkeypatch):
        rho = random_density((8,), seed=2)

        def no_eigh(a, *args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        g = rho.root()
        assert np.array_equal(g, np.tril(g))
        np.testing.assert_allclose(g @ g.conj().T, rho.matrix, atol=1e-15)

    def test_rank_deficient_root_is_the_eigen_root(self):
        rho = random_density((4,), rank=2, seed=9)
        assert np.array_equal(rho.root(), rho.spectrum.power(0.5))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_rank_deficient_values_equal_eigen_root(self, seed, monkeypatch):
        def readings():
            state = TripartiteState(random_density((2, 3, 2), rank=2, seed=seed))
            return [state, cmi_as_triple(state), _rank_two_triple(seed)]

        got = [(sandwiched_rel_ent_diff_grid(x, ORDERS, strict=False),
                _minmax(x, strict=False)) for x in readings()]
        monkeypatch.setattr(PositiveOperator, "root", _eigen_root)
        want = [(sandwiched_rel_ent_diff_grid(x, ORDERS, strict=False),
                 _minmax(x, strict=False)) for x in readings()]
        assert got == want

    def test_near_the_support_cutoff(self, monkeypatch):
        base = random_density((2, 2, 2), rank=2, seed=3)
        states = [perturb_positive(base, eps) for eps in NEAR_CUTOFF_EPS]
        full = [bool(support_mask(rho.eigenvalues).all()) for rho in states]
        assert any(full) and not all(full)  # the grid straddles the cutoff
        got = [sandwiched_rel_ent_diff_grid(TripartiteState(rho), ORDERS, strict=False)
               for rho in states]
        monkeypatch.setattr(PositiveOperator, "root", _eigen_root)
        for rho, cholesky, values in zip(states, full, got):
            want = sandwiched_rel_ent_diff_grid(TripartiteState(rho), ORDERS, strict=False)
            if cholesky:
                np.testing.assert_allclose(values, want, rtol=0.0, atol=NEAR_CUTOFF_TOL)
            else:
                assert values == want

    def test_cholesky_failure_falls_back_to_the_eigen_root(self, monkeypatch):
        state = TripartiteState(random_density((2, 2, 2), seed=4))
        assert support_mask(state.rho.eigenvalues).all()

        def failing(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        assert np.array_equal(state.rho.root(), state.rho.spectrum.power(0.5))
        got = sandwiched_rel_ent_diff_grid(state, ORDERS)
        monkeypatch.setattr(PositiveOperator, "root", _eigen_root)
        assert got == sandwiched_rel_ent_diff_grid(
            TripartiteState(random_density((2, 2, 2), seed=4)), ORDERS
        )
