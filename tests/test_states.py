import numpy as np
import pytest

from qmarkov.errors import DimensionMismatchError, ValidationError
from qmarkov.states import (
    DensityOperator,
    PositiveOperator,
    fidelity,
    perturb_positive,
    random_density,
    trace_distance,
    validate_density,
)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


class TestValidateDensity:
    def test_maximally_mixed(self):
        state = validate_density(np.eye(2) / 2)
        assert state.is_positive_definite()
        assert not state.rank_deficient

    def test_pure_state_rank_deficient(self):
        state = validate_density(KET0)
        assert state.rank_deficient
        assert not state.is_positive_definite()

    def test_not_normalized(self):
        with pytest.raises(ValidationError) as err:
            validate_density(np.diag([0.6, 0.6]))
        assert err.value.reason == "not-normalized"

    def test_not_positive(self):
        with pytest.raises(ValidationError) as err:
            validate_density(np.diag([1.5, -0.5]))
        assert err.value.reason == "not-positive"

    def test_not_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValidationError) as err:
            validate_density(m)
        assert err.value.reason == "not-hermitian"

    def test_dims_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DensityOperator(np.eye(4) / 4, (2, 3))

    def test_not_finite(self):
        with pytest.raises(ValidationError) as err:
            PositiveOperator(np.full((2, 2), np.nan))
        assert err.value.reason == "not-finite"

    def test_positive_operator_skips_trace(self):
        op = PositiveOperator(np.diag([0.6, 0.6]))
        assert op.dim == 2

    def test_loosened_tolerance(self):
        slightly_negative = np.diag([1.0 + 1e-7, -1e-7])
        with pytest.raises(ValidationError):
            validate_density(slightly_negative)
        state = validate_density(slightly_negative, tol=1e-6)
        assert state.rank_deficient


class TestRandomDensity:
    def test_unit_trace_and_definite(self):
        rho = random_density((2,), rank=2, seed=0)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert rho.eigenvalues[0] > 0

    def test_deterministic(self):
        a = random_density((2, 2), seed=99)
        b = random_density((2, 2), seed=99)
        assert np.array_equal(a.matrix, b.matrix)

    def test_tripartite_full_rank(self):
        rho = random_density((2, 2, 2), rank=8, seed=3)
        assert rho.is_positive_definite()
        assert rho.dims == (2, 2, 2)

    def test_low_rank(self):
        rho = random_density((4,), rank=1, seed=1)
        eigs = np.sort(rho.eigenvalues)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
        assert abs(eigs[0]) <= 1e-12

    def test_bad_rank(self):
        with pytest.raises(ValidationError) as err:
            random_density((2,), rank=5, seed=0)
        assert err.value.reason == "bad-rank"


class TestPerturbPositive:
    def test_pure_state(self):
        out = perturb_positive(DensityOperator(KET0), 0.1)
        np.testing.assert_allclose(out.matrix, np.diag([0.95, 0.05]), atol=1e-14)

    def test_small_eps_is_near_identity_map(self):
        rho = random_density((3,), seed=2)
        out = perturb_positive(rho, 1e-12)
        assert trace_distance(out, rho) <= 1e-11

    @pytest.mark.parametrize("seed", range(5))
    def test_minimum_eigenvalue_bound(self, seed):
        rho = random_density((4,), rank=2, seed=seed)
        eps = 0.01
        out = perturb_positive(rho, eps)
        assert np.min(out.eigenvalues) >= eps / 4 - 1e-12

    def test_eps_range(self):
        with pytest.raises(ValueError):
            perturb_positive(random_density((2,), seed=0), 0.0)


class TestFidelity:
    def test_self(self):
        rho = random_density((3,), seed=4)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_pure_overlap(self):
        assert fidelity(KET0, PLUS) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_diagonal_bhattacharyya(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        expected = float(np.sum(np.sqrt(p * q)) ** 2)
        assert fidelity(np.diag(p), np.diag(q)) == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        for seed in range(5):
            a = random_density((3,), seed=seed)
            b = random_density((3,), seed=seed + 100)
            value = fidelity(a, b)
            assert -1e-12 <= value <= 1.0 + 1e-10

    def test_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fidelity(np.eye(2) / 2, np.eye(3) / 3)
