import numpy as np
import pytest

from qmarkov import linalg, states
from qmarkov.channels import random_channel, random_strict_channel, random_unitary
from qmarkov.errors import DimensionMismatchError, NonHermitianError, ValidationError
from qmarkov.linalg import (
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    herm_pow,
    hermitian_eig,
    hermitian_part,
    support_mask,
)
from qmarkov.measures import TripartiteState, cmi_as_triple
from qmarkov.states import (
    DensityOperator,
    PositiveOperator,
    fidelity,
    perturb_positive,
    random_density,
    trace_distance,
)

from conftest import BAD_DIMS

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


class TestValidateDensity:
    def test_maximally_mixed(self):
        assert DensityOperator(np.eye(2) / 2).is_positive_definite()

    def test_pure_state_rank_deficient(self):
        assert not DensityOperator(KET0).is_positive_definite()

    def test_not_normalized(self):
        with pytest.raises(ValidationError) as err:
            DensityOperator(np.diag([0.6, 0.6]))
        assert err.value.reason == "not-normalized"

    def test_not_positive(self):
        with pytest.raises(ValidationError) as err:
            DensityOperator(np.diag([1.5, -0.5]))
        assert err.value.reason == "not-positive"
        with pytest.raises(ValidationError) as err:
            DensityOperator(np.diag([1.0 + 1e-7, -1e-7]))
        assert err.value.reason == "not-positive"

    def test_not_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValidationError) as err:
            DensityOperator(m)
        assert err.value.reason == "not-hermitian"
        # a residual the decomposition would reject is rejected on construction
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 1e-8
        with pytest.raises(NonHermitianError):
            hermitian_eig(m)
        with pytest.raises(ValidationError) as err:
            PositiveOperator(m)
        assert err.value.reason == "not-hermitian"

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_one_hermiticity_rule(self, factor):
        """Validation and decomposition reach the same verdict, with the same
        error type, reason and message, on both sides of HERMITICITY_TOL."""
        # ||M - M†||_inf = x and ||M||_inf = 0.5 + x, so their ratio is factor * tol
        x = factor * HERMITICITY_TOL * 0.5 / (1.0 - factor * HERMITICITY_TOL)
        m = np.array([[0.5, x], [0.0, 0.5]], dtype=complex)
        outcomes = []
        for entry in (DensityOperator, PositiveOperator, hermitian_eig,
                      lambda a: herm_pow(a, 0.5)):
            try:
                entry(m)
                outcomes.append(None)
            except Exception as exc:
                outcomes.append((type(exc), getattr(exc, "reason", None), str(exc)))
        assert len(set(outcomes)) == 1
        if factor < 1:
            assert outcomes[0] is None
        else:
            assert outcomes[0][:2] == (NonHermitianError, "not-hermitian")
            assert issubclass(NonHermitianError, ValidationError)

    @pytest.mark.parametrize("rank", [1, 3, 8])
    def test_rule_runs_once_per_operator(self, rank, monkeypatch):
        """Validation applies the Hermiticity rule; the decomposition reads the
        Hermitian part of the read-only matrix and applies it no second time,
        with the values of a checked decomposition bit for bit."""
        m = random_density((8,), rank=rank, seed=rank).matrix
        calls = []
        original = linalg.checked_hermitian_part

        def counted(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(linalg, "checked_hermitian_part", counted)
        monkeypatch.setattr(states, "checked_hermitian_part", counted)
        op = DensityOperator(m)
        dec = op.spectrum
        op.root(), op.eigenvalues, op.is_positive_definite(), dec.power(-0.5), dec.apply(np.log)
        assert calls == [(8, 8)]
        monkeypatch.undo()
        checked = hermitian_eig(op.matrix)
        assert np.array_equal(dec.eigenvalues, checked.eigenvalues)
        assert np.array_equal(dec.eigenvectors, checked.eigenvectors)

    def test_dims_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DensityOperator(np.eye(4) / 4, (2, 3))

    def test_dims_are_not_coerced(self):
        for dims in BAD_DIMS:
            with pytest.raises(DimensionMismatchError, match="must be integers"):
                DensityOperator(np.eye(8) / 8, dims)
        dims = DensityOperator(np.eye(8) / 8, (2.0, np.int64(2), 2)).dims
        assert dims == (2, 2, 2) and all(type(d) is int for d in dims)

    def test_not_finite(self):
        with pytest.raises(ValidationError) as err:
            PositiveOperator(np.full((2, 2), np.nan))
        assert err.value.reason == "not-finite"

    def test_positive_operator_skips_trace(self):
        op = PositiveOperator(np.diag([0.6, 0.6]))
        assert op.dim == 2


def _with_spectrum(values, seed=0):
    """U diag(values) U† for a Haar-random U: a Hermitian matrix whose
    eigenvalues are ``values`` up to round-off of order 1e-16 * max|value|."""
    u = random_unitary(len(values), seed=seed)
    return hermitian_part((u * np.asarray(values)) @ u.conj().T)


def _threshold_matrix(threshold, top, side):
    """Eigenvalues top, ..., lambda_min, with lambda_min 1% of |threshold|
    above (side +1) or below (side -1) the threshold."""
    lam_min = threshold + side * 1e-2 * abs(threshold)
    return _with_spectrum(np.r_[top, np.linspace(top / 2, top / 8, 6), lam_min])


THRESHOLDS = {
    # validation rejects below -POSITIVITY_TOL * max(1, lambda_max)
    "negative": lambda top: -POSITIVITY_TOL * max(1.0, top),
    # positive definite above POSITIVITY_TOL
    "definite": lambda top: POSITIVITY_TOL,
    # the support keeps values above 1e-12 * lambda_max
    "support": lambda top: 1e-12 * top,
}


class TestPositivityCertificate:
    """Validation certifies positivity with a Cholesky factor of the shifted
    Hermitian part and computes eigenvalues only when that fails.  Each
    decision must be the one the eigenvalue rule makes, computed here with
    ``np.linalg.eigvalsh`` of (M + M†)/2, on matrices whose smallest
    eigenvalue sits 1% either side of each threshold; lambda_max = 0.1 has
    ||M||_inf < 1, so the shift is exactly POSITIVITY_TOL, and
    lambda_max = 4 exceeds 1."""

    @staticmethod
    def _assert_as_the_eigenvalue_rule(m):
        eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if eigs[0] < -POSITIVITY_TOL * max(1.0, abs(eigs[-1])):
            with pytest.raises(ValidationError) as err:
                PositiveOperator(m)
            assert err.value.reason == "not-positive"
            assert str(err.value) == f"negative eigenvalue {eigs[0]:.3e} below tolerance"
            return eigs
        op = PositiveOperator(m)
        assert op.is_positive_definite() == bool(eigs[0] > POSITIVITY_TOL)
        expected_root = None
        if support_mask(eigs).all():
            try:
                expected_root = np.linalg.cholesky(hermitian_part(m))
            except np.linalg.LinAlgError:
                pass
        if expected_root is None:
            expected_root = hermitian_eig(m).power(0.5)
        assert np.array_equal(op.root(), expected_root)
        assert (op.eigenvalues == eigs).all()
        return eigs

    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    @pytest.mark.parametrize("top", [0.1, 4.0])
    @pytest.mark.parametrize("threshold", sorted(THRESHOLDS))
    def test_threshold(self, threshold, top, side):
        t = THRESHOLDS[threshold](top)
        m = _threshold_matrix(t, top, side)
        assert top > 1.0 or np.linalg.norm(m, np.inf) < 1.0
        eigs = self._assert_as_the_eigenvalue_rule(m)
        # round-off left lambda_min on the intended side
        assert (eigs[0] > t) == (side > 0)

    @pytest.mark.parametrize("rank", [1, 8])
    def test_marginal_times_identity(self, rank):
        # sigma = rho_AC x I_B of the CMI triple, of a pure and a full-rank state
        for seed in range(3):
            state = TripartiteState(random_density((2, 2, 2), rank=rank, seed=seed))
            self._assert_as_the_eigenvalue_rule(cmi_as_triple(state).sigma.matrix)

    def test_certified_operator_computes_no_eigenvalues(self, monkeypatch):
        m = _with_spectrum(np.linspace(4.0, 0.5, 8))

        def failing(*args, **kwargs):
            raise AssertionError("eigenvalues computed")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        monkeypatch.setattr(np.linalg, "eigh", failing)
        op = PositiveOperator(m)
        assert op.is_positive_definite()
        assert np.allclose(op.root() @ op.root().conj().T, op.matrix)


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

    def test_dims_are_not_coerced(self):
        for dims in BAD_DIMS:
            with pytest.raises(DimensionMismatchError, match="must be integers"):
                random_density(dims)
        with pytest.raises(DimensionMismatchError, match=">= 1"):
            random_density((0, 2))
        assert random_density((2.0, 2, 2)).dims == (2, 2, 2)

    def test_bad_rank(self):
        with pytest.raises(ValidationError) as err:
            random_density((2,), rank=5, seed=0)
        assert err.value.reason == "bad-rank"

    @pytest.mark.parametrize("seed", [-1, np.int64(-3)])
    def test_negative_seed(self, seed):
        with pytest.raises(ValidationError) as err:
            random_density((2,), seed=seed)
        assert err.value.reason == "bad-spec"

    @pytest.mark.parametrize("draw", [
        lambda seed: random_density((2,), seed=seed),
        lambda seed: random_unitary(2, seed=seed),
        lambda seed: random_channel(2, 2, seed=seed),
        lambda seed: random_strict_channel(2, 2, seed=seed),
    ], ids=["random_density", "random_unitary", "random_channel", "random_strict_channel"])
    @pytest.mark.parametrize("seed", [True, False, np.True_])
    def test_bool_seed(self, draw, seed):
        # default_rng reads True as the seed 1, a silent alias
        with pytest.raises(ValidationError) as err:
            draw(seed)
        assert err.value.reason == "bad-spec"


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
