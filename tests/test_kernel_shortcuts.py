"""The small-matrix kernels' shortcuts equal the numpy forms they replace, bit for bit.

``support_mask`` without an axis takes a Python maximum, which
``singular_values`` reads.
``_inf_norms`` sums rows as ``np.linalg.norm(., inf)`` does.
``hermitian_eig`` reverses eigh's order when no eigenvalue repeats.
``hermitian_part`` sums in place on a contiguous copy of M†, which
``checked_hermitian_part``, the Hermiticity rule of ``hermitian_eig`` and of
validation, also reads its residual from.
Validation shifts the diagonal through a strided view.  Each is compared with
the form it replaced, which the ``reference_*`` functions below restate.
"""

import numpy as np
import pytest

from qmarkov.errors import NonHermitianError, ValidationError
from qmarkov.linalg import (
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    SUPPORT_CUTOFF,
    _inf_norms,
    hermitian_eig,
    hermitian_part,
    singular_values,
    support_mask,
)
from qmarkov.states import _validated_eigs

from conftest import random_hermitian


def reference_mask(values, axis=None):
    values = np.asarray(values)
    top = np.max(np.abs(values), axis=axis, keepdims=True, initial=0.0)
    return (values > SUPPORT_CUTOFF * top) | (values < -POSITIVITY_TOL * np.fmax(1.0, top))


def reference_sorted_eigh(a):
    vals, vecs = np.linalg.eigh(hermitian_part(a))
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def reference_validated_eigs(matrix):
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("not-finite", "matrix entries must be finite")
    scale = np.linalg.norm(matrix, np.inf)
    residual = np.linalg.norm(matrix - matrix.conj().T, np.inf)
    if scale > 0 and residual > HERMITICITY_TOL * scale:
        raise ValidationError(
            "not-hermitian",
            f"anti-Hermitian residual {residual:.3e} exceeds "
            f"{HERMITICITY_TOL:.1e} * norm {scale:.3e}",
        )
    shifted = hermitian_part(matrix)
    shifted[np.diag_indices_from(shifted)] -= POSITIVITY_TOL * max(1.0, scale)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(hermitian_part(matrix))
        if eigs[0] < -POSITIVITY_TOL * max(1.0, abs(eigs[-1])):
            raise ValidationError(
                "not-positive", f"negative eigenvalue {eigs[0]:.3e} below tolerance"
            )
        return eigs
    return None


def _mask_rows():
    """Rows of four values around both thresholds, for tops below and above 1."""
    rows = [np.zeros(4), np.full(4, -0.0)]
    for top in (0.25, 1.0, 7.5):
        floor = POSITIVITY_TOL * max(1.0, top)
        cut = SUPPORT_CUTOFF * top
        for tail in (-floor, -floor * (1 + 1e-6), -floor * (1 - 1e-6),
                     np.nextafter(-floor, 0.0), np.nextafter(-floor, -1.0),
                     cut, np.nextafter(cut, 0.0), np.nextafter(cut, 1.0), 0.0):
            rows.append(np.array([top, 0.5 * top, tail, -0.0]))
            rows.append(np.array([tail, -top, 0.0, cut]))
    return np.array(rows)


class TestSupportMask:
    def test_row_path_equals_axis_path_and_reference(self):
        rows = _mask_rows()
        by_axis = support_mask(rows, axis=1)
        assert np.array_equal(by_axis, reference_mask(rows, axis=1))
        for row, expected in zip(rows, by_axis):
            mask = support_mask(row)
            assert mask.dtype == bool and mask.shape == row.shape
            assert np.array_equal(mask, expected)
            assert np.array_equal(mask, reference_mask(row))

    def test_thresholds_are_exclusive(self):
        floor = POSITIVITY_TOL * 7.5
        row = np.array([7.5, SUPPORT_CUTOFF * 7.5, -floor, np.nextafter(-floor, -1.0)])
        assert support_mask(row).tolist() == [True, False, False, True]

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4)])
    def test_empty(self, shape):
        values = np.zeros(shape)
        assert np.array_equal(support_mask(values), reference_mask(values))
        assert support_mask(values).shape == shape

    def test_matrix_without_axis_uses_the_global_maximum(self):
        rows = _mask_rows()
        assert np.array_equal(support_mask(rows), reference_mask(rows))


class TestSingularValues:
    def test_equals_the_reference_mask(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((6, 4, 3)) + 1j * rng.standard_normal((6, 4, 3))
        stack[1] = np.outer(stack[1][:, 0], stack[1][0])  # rank one
        stack[2] = 0.0
        stack[3] *= 1e-13
        kept = [singular_values(x) for x in stack]
        for x, got in zip(stack, kept):
            sv = np.linalg.svd(x, compute_uv=False)
            assert np.array_equal(got, sv[reference_mask(sv)])
        assert [got.size for got in kept[:3]] == [3, 1, 0]


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _read_only_copy(m):
    m = m.copy()
    m.flags.writeable = False
    return m


class TestHermitianPart:
    """(M + M†)/2 is summed in place on a contiguous copy of M†."""

    @pytest.mark.parametrize("shape", [(1, 1), (2, 1, 1), (3, 3), (8, 8), (64, 64), (5, 8, 8)])
    def test_equals_the_swapped_view_form(self, shape):
        rng = np.random.default_rng(11)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        before = m.copy()
        for x in (m, m.swapaxes(-1, -2), _read_only_copy(m)):
            got = hermitian_part(x)
            assert got.flags.c_contiguous
            assert np.array_equal(_bits(got), _bits((x + x.conj().swapaxes(-1, -2)) / 2))
        assert np.array_equal(_bits(m), _bits(before))  # d = 1 included: M is not conjugated


class TestInfNorms:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (8, 8), (64, 64)])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_numpy_norm(self, shape, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert _inf_norms(m) == np.linalg.norm(m, np.inf)
        if shape[0] == shape[1]:
            residual = m - m.conj().T
            assert _inf_norms(residual) == np.linalg.norm(residual, np.inf)

    def test_stack_equals_each_slice(self):
        rng = np.random.default_rng(9)
        stack = rng.standard_normal((5, 8, 8)) + 1j * rng.standard_normal((5, 8, 8))
        norms = _inf_norms(stack)
        assert [float(n) for n in norms] == [np.linalg.norm(x, np.inf) for x in stack]


def _degenerate_matrices():
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    return [
        np.diag([0.5, 0.25, 0.25, 0.0, 0.0, 0.0]).astype(complex),
        np.eye(6, dtype=complex),
        u @ np.diag([1.0, 1.0, 2.0, 3.0, 3.0, 3.0]) @ u.conj().T,
    ]


class TestSortedEigh:
    @pytest.mark.parametrize("matrices", [
        [random_hermitian(8, seed) for seed in range(4)],
        [random_hermitian(3, 7)],
        _degenerate_matrices(),
        _degenerate_matrices()[:1] + [random_hermitian(6, 1)],
    ], ids=["distinct", "one", "ties", "mixed"])
    def test_equals_stable_argsort(self, matrices):
        for m in matrices:
            dec = hermitian_eig(m)
            ref_vals, ref_vecs = reference_sorted_eigh(m)
            assert np.array_equal(dec.eigenvalues, ref_vals)
            assert np.array_equal(dec.eigenvectors, ref_vecs)
            assert dec.eigenvalues.flags.c_contiguous and dec.eigenvectors.flags.c_contiguous

    def test_residual_message(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 1e-8
        scale = np.linalg.norm(m, np.inf)
        residual = np.linalg.norm(m - m.conj().T, np.inf)
        with pytest.raises(NonHermitianError) as err:
            hermitian_eig(m)
        assert str(err.value) == (
            f"anti-Hermitian residual {residual:.3e} exceeds "
            f"{HERMITICITY_TOL:.1e} * norm {scale:.3e}"
        )


def _with_spectrum(values, seed):
    rng = np.random.default_rng(seed)
    d = len(values)
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    return np.ascontiguousarray(u @ np.diag(values) @ u.conj().T)


def _validation_inputs():
    yield "density", _with_spectrum([0.4, 0.3, 0.2, 0.1], 0)
    yield "scaled", _with_spectrum([40.0, 30.0, 20.0, 1e-3], 1)
    yield "rank-deficient", _with_spectrum([0.6, 0.4, 0.0, 0.0], 2)
    # smallest eigenvalue on either side of the shift tau = POSITIVITY_TOL
    yield "below-shift", _with_spectrum([0.7, 0.3 - 5e-11, 5e-11], 3)
    yield "above-shift", _with_spectrum([0.7, 0.3 - 2e-10, 2e-10], 3)
    yield "round-off", _with_spectrum([0.7, 0.3, -5e-11], 4)
    yield "not-positive", _with_spectrum([0.7, 0.3 + 1e-7, -1e-7], 4)
    off = np.diag([0.5, 0.5]).astype(complex)
    off[0, 1] = 1e-8
    yield "not-hermitian", off
    yield "barely-hermitian", np.array([[0.5, 5e-11], [0.0, 0.5]], dtype=complex)
    nan = np.eye(3, dtype=complex)
    nan[1, 2] = np.nan
    yield "nan", nan
    yield "inf", np.diag([np.inf, 1.0]).astype(complex)
    yield "zero", np.zeros((3, 3), dtype=complex)


class TestValidation:
    @pytest.mark.parametrize("name, matrix", list(_validation_inputs()),
                             ids=[name for name, _ in _validation_inputs()])
    def test_equals_the_norm_and_fancy_index_form(self, name, matrix):
        try:
            expected = reference_validated_eigs(matrix)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as err:
                _validated_eigs(matrix)
            assert (err.value.reason, str(err.value)) == (exc.reason, str(exc))
            return
        got = _validated_eigs(matrix)
        if expected is None:
            assert got is None
        else:
            assert np.array_equal(got, expected)

    def test_both_sides_of_the_shift_are_covered(self):
        outcomes = {}
        for name, matrix in _validation_inputs():
            try:
                outcomes[name] = _validated_eigs(matrix) is None
            except ValidationError as exc:
                outcomes[name] = exc.reason
        assert outcomes["above-shift"] is True and outcomes["below-shift"] is False
        assert outcomes["not-positive"] == "not-positive"
        assert outcomes["not-hermitian"] == "not-hermitian"
        assert outcomes["nan"] == outcomes["inf"] == "not-finite"

    def test_input_is_not_modified(self):
        matrix = _with_spectrum([0.5, 0.5], 6)
        before = matrix.copy()
        _validated_eigs(matrix)
        assert np.array_equal(matrix, before)
