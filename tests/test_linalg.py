import math
import warnings

import numpy as np
import pytest

from qmarkov.errors import (
    DimensionMismatchError,
    MatrixFunctionDomainError,
    NonHermitianError,
    QmarkovError,
    RankDeficientError,
    ValidationError,
)
from qmarkov.divergences import rel_entropy, von_neumann_entropy
from qmarkov.channels import (
    Channel,
    adjoint_apply,
    partial_trace_channel,
    random_channel,
    random_unitary,
)
from qmarkov.linalg import (
    alpha_norm,
    embed_operator,
    finite_powers,
    finite_rows,
    gram_pows,
    herm_exp,
    herm_pow,
    hermitian_eig,
    kron,
    partial_trace,
    singular_values,
    spectral_norm,
    spectral_norms,
)
from qmarkov.measures import (
    ChannelTriple,
    TripartiteState,
    cmi_as_triple,
    minmax_cmi,
    minmax_rel_ent_diff,
)
from qmarkov.states import PositiveOperator, perturb_positive, random_density, trace_distance
from qmarkov.structured import random_markov_spec, random_sufficiency_spec
from qmarkov.suites import SuiteConfig

from conftest import BAD_DIMS, BAD_INDICES, random_hermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)

# every public reader of the one singular-value path, on a square matrix m
SCHATTEN_CALLS = [
    singular_values, lambda m: alpha_norm(m, 2.0), spectral_norm,
    lambda m: spectral_norms(m[None]), lambda m: gram_pows(m[None], (0.5,)),
    lambda m: trace_distance(m, np.eye(len(m))),
]
SCHATTEN_IDS = ["singular-values", "norm", "spectral-norm", "spectral-norms", "gram", "distance"]


class TestHermitianEig:
    def test_diagonal(self):
        dec = hermitian_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-14)

    def test_pauli_x(self):
        dec = hermitian_eig(PAULI_X)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-14)
        # eigenvectors are (|0> +- |1>)/sqrt(2) up to phase
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.full((2, 2), 2**-0.5),
                                   atol=1e-14)

    def test_roundtrip_random(self):
        m = random_hermitian(4, seed=5)
        dec = hermitian_eig(m)
        v = dec.eigenvectors
        assert np.linalg.norm((v * dec.eigenvalues) @ v.conj().T - m, np.inf) <= 1e-12
        np.testing.assert_allclose(
            dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(4), atol=1e-12
        )
        assert list(dec.eigenvalues) == sorted(dec.eigenvalues, reverse=True)

    def test_non_hermitian_raises(self):
        with pytest.raises(NonHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatchError):
            hermitian_eig(np.zeros((2, 3)))

    @pytest.mark.parametrize("call", [hermitian_eig, herm_exp, lambda m: herm_pow(m, 0.5)]
                             + SCHATTEN_CALLS, ids=["eig", "exp", "pow"] + SCHATTEN_IDS)
    def test_empty_raises(self, call):
        with pytest.raises(DimensionMismatchError, match="nonempty"):
            call(np.zeros((0, 0)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                       complex(np.nan, np.inf)],
                             ids=["nan", "inf", "-inf", "nan-imag", "nan-inf"])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("call", [hermitian_eig, herm_exp, lambda m: herm_pow(m, 0.5)]
                             + SCHATTEN_CALLS, ids=["eig", "exp", "pow"] + SCHATTEN_IDS)
    def test_non_finite_raises_without_warning(self, call, where, entry):
        # before, herm_pow returned the zero matrix on a nan diagonal, the
        # decomposition a nan eigenvalue, and an inf entry a RuntimeWarning;
        # the singular-value path raised a raw LinAlgError on nan, and on
        # inf alpha_norm and trace_distance returned 0.0, spectral_norm nan
        m = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        m[where] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as err:
                call(m)
        assert (err.value.reason, str(err.value)) == ("not-finite", "matrix entries must be finite")


class TestMatrixFunction:
    def test_support_inverse(self):
        out = hermitian_eig(np.diag([2.0, 0.0])).apply(lambda x: 1.0 / x)
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-14)

    def test_sqrt(self):
        out = hermitian_eig(np.diag([4.0, 9.0])).apply(np.sqrt)
        np.testing.assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-14)

    def test_log2(self):
        out = hermitian_eig(np.diag([0.5, 0.5])).apply(np.log2)
        np.testing.assert_allclose(out, -np.eye(2), atol=1e-14)

    def test_domain_error(self):
        with pytest.raises(MatrixFunctionDomainError, match="undefined"):
            hermitian_eig(np.diag([1.0, -1.0])).apply(np.log2)

    def test_overflow_is_named(self):
        # 1e-5 is on the support, and its power -100 exceeds the float64 range
        with pytest.raises(MatrixFunctionDomainError, match=r"overflows float64 .*\[1\.e-05\]"):
            herm_pow(np.diag([1.0, 1e-5]), -100.0)

    @pytest.mark.parametrize("kepts", [
        [np.array([1.0, 2.0]), np.array([0.5, 3.0]), np.array([1e-5, 4.0]), np.array([-1.0, 5.0])],
        [np.array([1.0]), np.array([0.5, 3.0, 2.0]), np.array([1e-5, 4.0]), np.array([-1.0])],
    ], ids=["stacked", "ragged"])
    def test_first_non_finite_row_is_named(self, kepts):
        # the third row overflows and the fourth is undefined: the third is named
        fs = [np.sqrt, np.sqrt, lambda x: np.power(x, -100.0), np.log]
        with pytest.raises(MatrixFunctionDomainError) as err:
            finite_rows(kepts, fs)
        assert str(err.value) == "function overflows float64 on retained eigenvalue(s) [1.e-05]"
        rows = finite_rows(kepts[:2], fs[:2])
        assert all(np.array_equal(row, np.sqrt(kept)) for row, kept in zip(rows, kepts))
        assert finite_rows([], []) == []

    def test_finite_powers_rows_are_scalar_powers(self):
        # each row is np.power with a scalar exponent, which at p = 0.5 is
        # np.sqrt; one np.power over a column of exponents need not be
        ps = (0.25, 0.5, -0.5, 1.0, 2.0, -1.0, 0.0, 1.75)
        rng = np.random.default_rng(11)
        for _ in range(50):
            values = rng.random(int(rng.integers(1, 30))) * 10.0 ** rng.integers(-8, 3)
            rows = finite_powers(values, ps)
            assert rows.shape == (len(ps), values.size)
            assert all(np.array_equal(row, np.power(values, p)) for row, p in zip(rows, ps))
            assert np.array_equal(rows[ps.index(0.5)], np.sqrt(values))
            # a (k, n) array raises row i to ps[i]
            stack = rng.random((len(ps), values.size))
            rows = finite_powers(stack, ps)
            assert all(np.array_equal(r, np.power(x, p)) for r, x, p in zip(rows, stack, ps))
        assert finite_powers(np.ones(3), ()).shape == (0, 3)

    @pytest.mark.parametrize("ps, message", [
        ((2.0, -100.0, 0.5), "function overflows float64 on retained eigenvalue(s) [1.e-05]"),
        ((2.0, 0.5, -100.0), "function undefined on retained eigenvalue(s) [-1.]"),
    ], ids=["overflow-first", "nan-first"])
    def test_finite_powers_name_the_first_non_finite_row(self, ps, message):
        with pytest.raises(MatrixFunctionDomainError) as err:
            finite_powers(np.array([1e-5, -1.0, 4.0]), ps)
        assert str(err.value) == message

    def test_identity_function_projects_to_support(self):
        for seed in range(4):
            m = random_hermitian(4, seed=seed)
            np.testing.assert_allclose(hermitian_eig(m).apply(lambda x: x), m, atol=1e-12)

    @pytest.mark.parametrize("p", [-1.0, -0.5, 0.5, 1.0])
    @pytest.mark.parametrize("q", [-1.0, -0.5, 0.5, 1.0])
    def test_power_composition(self, p, q):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T + 0.1 * np.eye(4)
        np.testing.assert_allclose(
            herm_pow(m, p) @ herm_pow(m, q), herm_pow(m, p + q), atol=1e-9
        )

    def test_zero_matrix(self):
        np.testing.assert_allclose(herm_pow(np.zeros((3, 3)), 0.5), np.zeros((3, 3)))

    def test_exp_keeps_kernel(self):
        # herm_exp is the full exponential: exp(0) = 1 on the kernel
        out = herm_exp(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([np.e, 1.0]), atol=1e-12)

    def test_fixed_cutoff(self):
        # 1e-11 * max lies in the support and 1e-13 * max does not, for every
        # function that reads a support
        m = np.diag([1.0, 1e-11, 1e-13])
        kept, dropped = np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])
        np.testing.assert_allclose(herm_pow(m, -1.0), np.diag([1.0, 1e11, 0.0]), rtol=1e-12)
        assert hermitian_eig(m).supports(kept)
        assert not hermitian_eig(m).supports(dropped)
        assert von_neumann_entropy(m) == pytest.approx(-1e-11 * np.log2(1e-11), rel=1e-12)
        np.testing.assert_allclose(singular_values(m), [1.0, 1e-11], rtol=1e-12)
        assert rel_entropy(kept, m) == pytest.approx(-np.log2(1e-11), rel=1e-12)
        assert rel_entropy(dropped, m) == math.inf
        # a negative eigenvalue that positivity validation accepts is dropped
        np.testing.assert_allclose(hermitian_eig(np.diag([0.5, 0.5, -5e-11])).apply(np.log2),
                                   np.diag([-1.0, -1.0, 0.0]))


class TestKron:
    def test_identity(self):
        np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(
            kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])), np.diag([3.0, 4.0, 6.0, 8.0])
        )

    def test_mixed_product(self, rng):
        a, b, c, d = (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(4)
        )
        np.testing.assert_allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12)


def partial_trace_oracle(m, dims, traced_out):
    """Element-index summation, as slow and explicit as possible."""
    dims = tuple(dims)
    kept = [i for i in range(len(dims)) if i not in traced_out]
    d_kept = int(np.prod([dims[i] for i in kept])) if kept else 1
    out = np.zeros((d_kept, d_kept), dtype=complex)
    for row in np.ndindex(*dims):
        for col in np.ndindex(*dims):
            if any(row[i] != col[i] for i in traced_out):
                continue
            r = 0
            c = 0
            for i in kept:
                r = r * dims[i] + row[i]
                c = c * dims[i] + col[i]
            flat_r = int(np.ravel_multi_index(row, dims))
            flat_c = int(np.ravel_multi_index(col, dims))
            out[r, c] += m[flat_r, flat_c]
    return out


class TestPartialTrace:
    def test_product_state(self, rng):
        a = np.diag([0.25, 0.75]).astype(complex)
        b = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        np.testing.assert_allclose(partial_trace(kron(a, b), (2, 2), {0}), b, atol=1e-14)

    def test_bell_state(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 2**-0.5
        rho = np.outer(phi, phi.conj())
        np.testing.assert_allclose(
            partial_trace(rho, (2, 2), {0}), np.eye(2) / 2, atol=1e-14
        )

    def test_against_oracle_and_composition(self, rng):
        dims = (2, 2, 2)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = g @ g.conj().T
        np.testing.assert_allclose(
            partial_trace(m, dims, {0, 1}), partial_trace_oracle(m, dims, {0, 1}), atol=1e-12
        )
        composed = partial_trace(partial_trace(m, dims, {0}), (2, 2), {0})
        np.testing.assert_allclose(partial_trace(m, dims, {0, 1}), composed, atol=1e-12)

    def test_trace_preserved(self, rng):
        g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        m = g @ g.conj().T
        reduced = partial_trace(m, (2, 3, 2), {1})
        assert abs(np.trace(m) - np.trace(reduced)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(6), (2, 2), {0})

    def test_dims_are_not_coerced(self):
        for dims in BAD_DIMS:
            with pytest.raises(DimensionMismatchError, match="must be integers"):
                partial_trace(np.eye(8), dims, {0})
        np.testing.assert_array_equal(partial_trace(np.eye(8), (2.0, 2, 2), {0}), 2 * np.eye(4))

    def test_indices_are_not_coerced(self):
        for traced in BAD_INDICES:
            with pytest.raises(DimensionMismatchError, match="must be integers"):
                partial_trace(np.eye(8), (2, 2, 2), set(traced))
        np.testing.assert_array_equal(partial_trace(np.eye(8), (2, 2, 2), {0.0}), 2 * np.eye(4))


class TestAlphaNorm:
    def test_identity_two_norm(self):
        assert alpha_norm(np.eye(2), 2.0) == pytest.approx(np.sqrt(2.0))

    def test_absolute_eigenvalues(self):
        assert alpha_norm(np.diag([1.0, -2.0]), 1.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7, 3.0])
    def test_direct_sum_additivity(self, alpha, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        stacked = np.zeros((5, 5), dtype=complex)
        stacked[:3, :3] = a
        stacked[3:, 3:] = b
        assert alpha_norm(stacked, alpha) ** alpha == pytest.approx(
            alpha_norm(a, alpha) ** alpha + alpha_norm(b, alpha) ** alpha, rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_unitary_invariance(self, alpha, rng):
        from qmarkov.channels import random_unitary

        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = random_unitary(4, seed=3)
        v = random_unitary(4, seed=4)
        assert alpha_norm(u @ x @ v, alpha) == pytest.approx(alpha_norm(x, alpha), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.5])
    def test_gram_symmetry(self, alpha, rng):
        # Tr{(A A†)^(1/(1-alpha))} equals Tr{(A† A)^(1/(1-alpha))}
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        exponent = 1.0 / (1.0 - alpha)
        lhs = np.trace(herm_pow(a @ a.conj().T, exponent)).real
        rhs = np.trace(herm_pow(a.conj().T @ a, exponent)).real
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            alpha_norm(np.eye(2), 0.0)


class TestEmbedOperator:
    def test_middle_site(self, rng):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        full = embed_operator(x, (2, 3, 2), (1,))
        expected = kron(np.eye(2), kron(x, np.eye(2)))
        np.testing.assert_allclose(full, expected, atol=1e-14)

    def test_skip_site(self, rng):
        # operator on sites (0, 2) of a three-factor space
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        full = embed_operator(x, (2, 3, 2), (0, 2))
        t = x.reshape(2, 2, 2, 2)
        expected = np.einsum("acAC,bB->abcABC", t, np.eye(3)).reshape(12, 12)
        np.testing.assert_allclose(full, expected, atol=1e-14)

    def test_bad_shape(self):
        with pytest.raises(DimensionMismatchError):
            embed_operator(np.eye(3), (2, 2), (0,))

    def test_dims_are_not_coerced(self):
        for dims in BAD_DIMS:
            with pytest.raises(DimensionMismatchError, match="must be integers"):
                embed_operator(np.eye(2), dims, (1,))
        np.testing.assert_array_equal(embed_operator(np.eye(2), (2.0, 2, 2), (1,)), np.eye(8))

    def test_sites_are_not_coerced(self):
        for sites in BAD_INDICES:
            with pytest.raises(DimensionMismatchError, match="must be integers"):
                embed_operator(np.eye(2), (2, 2, 2), sites)
        np.testing.assert_array_equal(embed_operator(np.eye(2), (2, 2, 2), (1.0,)), np.eye(8))


@pytest.mark.parametrize("call, error, reason", [
    (lambda: embed_operator(np.eye(2), (2, 2), (5,)), DimensionMismatchError, None),
    (lambda: embed_operator(np.eye(2), (2, 2), (-1,)), DimensionMismatchError, None),
    (lambda: random_density((2, 2), rank=1.5), ValidationError, "bad-rank"),
    (lambda: random_density((2,), rank=True), ValidationError, "bad-rank"),
    (lambda: trace_distance(np.eye(2), np.eye(3)), DimensionMismatchError, None),
    (lambda: random_unitary(True), ValidationError, "bad-spec"),
    (lambda: random_unitary(-1), ValidationError, "bad-spec"),
    (lambda: random_unitary(0), ValidationError, "bad-spec"),
    (lambda: random_channel(2.5, 2), ValidationError, "bad-spec"),
    (lambda: random_channel(0, 2), ValidationError, "bad-spec"),
    (lambda: Channel(()), ValidationError, "bad-spec"),
    (lambda: Channel((np.eye(2), np.zeros((2, 3)))), DimensionMismatchError, None),
    (lambda: adjoint_apply(partial_trace_channel((3, 2), {0}), np.eye(3)),
     DimensionMismatchError, None),
    (lambda: SuiteConfig(trials=True), ValidationError, "bad-spec"),
    (lambda: SuiteConfig(seed=False), ValidationError, "bad-spec"),
    # a scalar is a finite real number (check_real); before, alpha_norm
    # returned nan at inf and nan, herm_pow diag(1, 0) at inf, SuiteConfig
    # took tol=True, and a string raised a raw TypeError
    (lambda: alpha_norm(np.eye(2), math.inf), ValidationError, "bad-spec"),
    (lambda: alpha_norm(np.eye(2), math.nan), ValidationError, "bad-spec"),
    (lambda: alpha_norm(np.eye(2), "2"), ValidationError, "bad-spec"),
    (lambda: herm_pow(np.diag([1.0, 0.5]), "2"), ValidationError, "bad-spec"),
    (lambda: herm_pow(np.diag([1.0, 0.5]), math.inf), ValidationError, "bad-spec"),
    (lambda: finite_powers(np.ones(2), (True,)), ValidationError, "bad-spec"),
    (lambda: SuiteConfig(tol=True), ValidationError, "bad-spec"),
    (lambda: SuiteConfig(tol="1e-8"), ValidationError, "bad-spec"),
    (lambda: SuiteConfig(tol=10**400), ValidationError, "bad-spec"),
    (lambda: perturb_positive(random_density((2,), seed=0), "0.1"), ValidationError, "bad-spec"),
    # herm_exp evaluates exp through finite_rows; before, it warned and
    # returned inf entries
    (lambda: herm_exp(np.diag([1000.0, 0.0])), MatrixFunctionDomainError, None),
    # the spec generators read dims by subsystem_dims; before, a bad-rank
    # error or a raw tuple-unpacking ValueError
    (lambda: random_markov_spec(2.5, 2, [(1, 1)]), DimensionMismatchError, None),
    (lambda: random_markov_spec(0, 2, [(1, 1)]), DimensionMismatchError, None),
    (lambda: random_markov_spec(2, 2, [(1, 1, 1)]), DimensionMismatchError, None),
    (lambda: random_sufficiency_spec([(2, 2)]), DimensionMismatchError, None),
    (lambda: TripartiteState(random_density((2, 4), seed=0)), DimensionMismatchError, None),
    (lambda: ChannelTriple(rho=random_density((2,), seed=0), sigma=PositiveOperator(np.eye(2)),
                           channel=random_channel(3, 2)), DimensionMismatchError, None),
    (lambda: minmax_rel_ent_diff(
        cmi_as_triple(TripartiteState(random_density((2, 2, 2), rank=2, seed=0))), "max"),
     RankDeficientError, None),
], ids=["site-past-the-end", "negative-site", "fractional-rank", "bool-rank",
        "distance-mismatch", "unitary-bool", "unitary-negative", "unitary-zero", "channel-fraction",
        "channel-zero", "no-kraus-operator", "two-kraus-shapes", "adjoint-shape", "trials-bool",
        "seed-bool", "norm-inf", "norm-nan", "norm-str", "pow-str", "pow-inf", "exponent-bool",
        "tol-bool", "tol-str", "tol-huge-int", "eps-str", "exp-overflow", "markov-fractional-dim",
        "markov-zero-dim", "markov-triple-block", "sufficiency-pair-block", "two-factor-state",
        "triple-dims", "strict-rank-deficient"])
def test_out_of_range_argument_is_a_typed_error(call, error, reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as err:
            call()
    assert getattr(err.value, "reason", None) == reason


def _state():
    return TripartiteState(random_density((2, 2, 2), seed=0))


@pytest.mark.parametrize("call", [
    lambda: perturb_positive(random_density((2,), seed=0), 1.5),
    lambda: perturb_positive(random_density((2,), seed=0), 0.0),
    lambda: alpha_norm(np.eye(2), 0),
    lambda: minmax_cmi(_state(), "mid"),
    lambda: minmax_rel_ent_diff(cmi_as_triple(_state()), "mid"),
], ids=["eps-above-one", "eps-zero", "alpha-zero", "cmi-kind", "difference-kind"])
def test_out_of_range_spec_is_a_typed_error(call):
    # a package error, still a ValueError for callers that catch that
    with pytest.raises(QmarkovError) as err:
        call()
    assert isinstance(err.value, ValueError) and err.value.reason == "bad-spec"
