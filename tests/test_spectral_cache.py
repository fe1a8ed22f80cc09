"""Cached decompositions: each operator is decomposed once, and caching
changes no value.

Operators cache their eigendecomposition on first use (``rho.spectrum``,
``out_rho_spectrum``, ...), a decomposition caches its support, and a triple
or state caches its recovered operator and its exp-log operator.  These
tests count the matrices ``eigh`` decomposes (a stack of k counts k), the
``eigh`` calls, and the ``support_mask`` and ``herm_exp`` calls a sweep over
orders makes, check that evaluation order cannot change a value, check
the kron-free embedding against the kron formula, and check that the cached
arrays are read-only.
"""

import itertools
import random

import numpy as np
import pytest

from qmarkov import divergences as dv
from qmarkov import linalg
from qmarkov import measures as ms
from qmarkov.channels import random_strict_channel
from qmarkov.errors import MatrixFunctionDomainError
from qmarkov.functionals import (
    channel_trace_value,
    channel_trace_value_grid,
    exp_trace_channel_value,
    lie_trotter_deviation,
    log_identity_residual,
    output_fixed_point_residual,
    recovery_fixed_point_residual,
    sandwiched_fixed_point_residual,
)
from qmarkov.linalg import embed_operator, hermitian_eig
from qmarkov.measures import (
    PETZ_ALPHA_GRID,
    ChannelTriple,
    TripartiteState,
    minmax_cmi,
    minmax_rel_ent_diff,
    rel_ent_diff,
    renyi_cmi,
    renyi_rel_ent_diff,
    sandwiched_cmi,
    sandwiched_rel_ent_diff,
    von_neumann_cmi,
)
from qmarkov.states import PositiveOperator, random_density
from qmarkov.suites import SUITE_NAMES, SuiteConfig, run_suites

SIX_ORDERS = (0.6, 0.75, 0.9, 1.25, 1.5, 1.75)


def _triple(seed=0):
    return ChannelTriple(
        rho=random_density((4,), seed=seed),
        sigma=PositiveOperator(random_density((4,), seed=seed + 1).matrix),
        channel=random_strict_channel(4, 3, seed=seed + 2),
    )


def _state(seed=0):
    return TripartiteState(random_density((2, 3, 2), seed=seed))


def _spy(monkeypatch, name):
    """Record a copy of the matrix (or stack) passed to each later call of
    ``np.linalg.<name>``."""
    args = []
    original = getattr(np.linalg, name)

    def recorded(a, *rest, **kwargs):
        args.append(np.array(a))
        return original(a, *rest, **kwargs)

    monkeypatch.setattr(np.linalg, name, recorded)
    return args


def _slices_equal_to(args, m):
    """How many recorded matrices, or slices of stacks, equal (M + M†)/2."""
    h = linalg.hermitian_part(m)
    return sum(
        np.array_equal(x, h) for a in args if a.shape[-2:] == h.shape
        for x in a.reshape(-1, *h.shape)
    )


class EighCalls(list):
    """One entry (the matrix shape) per matrix decomposed; ``calls`` counts
    the ``eigh`` calls, so a call on a (k, d, d) stack adds k entries and one
    call."""

    calls = 0


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts the matrices numpy's eigh decomposes after the fixture is
    requested, and the calls it takes."""
    counted_calls = EighCalls()
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shape = np.shape(a)
        counted_calls.calls += 1
        counted_calls.extend([shape[-2:]] * int(np.prod(shape[:-2], dtype=int)))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return counted_calls


class TestDecompositionCounts:
    @pytest.mark.parametrize("orders", [(0.5,), SIX_ORDERS])
    def test_renyi_difference_decomposes_four_operators(self, eigh_calls, orders):
        triple = _triple()
        for a in orders:
            renyi_rel_ent_diff(triple, a)
        # rho, sigma, N(rho), N(sigma): once each, whatever the number of orders
        assert len(eigh_calls) == 4

    @pytest.mark.parametrize("orders", [(2.0,), SIX_ORDERS])
    def test_sandwiched_difference_decomposes_four_operators(self, eigh_calls, orders):
        triple = _triple()
        for a in orders:
            sandwiched_rel_ent_diff(triple, a)
        # of the four operators read, sigma, N(rho) and N(sigma) are
        # decomposed: rho is read through its Cholesky factor, and the root
        # of N†(y y†) is the stack of K_i† y, so no order adds one
        assert len(eigh_calls) == 3

    @pytest.mark.parametrize("measure", [renyi_cmi, sandwiched_cmi])
    def test_cmi_decomposes_four_operators(self, eigh_calls, measure):
        state = _state()
        for a in SIX_ORDERS:
            measure(state, a)
        # rho_AC, rho_BC and I_B x rho_C; rho_ABC only for the plain Renyi
        # CMI, since the sandwiched one reads it through its Cholesky factor
        assert len(eigh_calls) == {renyi_cmi: 4, sandwiched_cmi: 3}[measure]

    @pytest.mark.parametrize("measure", [
        lambda s: minmax_cmi(s, "min"),
        lambda s: minmax_cmi(s, "max"),
        lambda s: sandwiched_cmi(s, 0.75),
        lambda s: sandwiched_cmi(s, 2.0),
    ], ids=["min", "max", "sandwiched-0.75", "sandwiched-2"])
    def test_full_rank_state_is_not_decomposed(self, eigh_calls, measure):
        state = TripartiteState(random_density((4, 4, 4), seed=1))
        measure(state)
        # neither rho_ABC nor the recovered operator, both 64 x 64: the
        # marginals rho_AC, rho_BC and I_B x rho_C only
        assert sorted(eigh_calls) == [(16, 16), (16, 16), (16, 16)]

    def test_relative_entropy_difference_reuses_the_sweep(self, eigh_calls):
        triple = _triple()
        for a in PETZ_ALPHA_GRID:
            renyi_rel_ent_diff(triple, a)
        rel_ent_diff(triple)
        assert len(eigh_calls) == 4

    def test_von_neumann_cmi_reuses_validation(self, eigh_calls, monkeypatch):
        eigvalsh_args = _spy(monkeypatch, "eigvalsh")
        state = _state()
        von_neumann_cmi(state)
        # rho_ABC (12 x 12) once, whether validation or the entropy computes
        # its eigenvalues, and the marginals rho_C, rho_AC and rho_BC
        assert sorted(a.shape for a in eigvalsh_args) == [(2, 2), (4, 4), (6, 6), (12, 12)]
        assert eigh_calls == []

    @pytest.mark.parametrize("measure, rho_eighs", [
        (lambda s: sandwiched_cmi(s, 0.75), 0),
        (lambda s: minmax_cmi(s, "min"), 0),
        (lambda s: minmax_cmi(s, "max"), 0),
        (lambda s: renyi_cmi(s, 0.5), 1),
    ], ids=["sand-cmi", "imin", "imax", "renyi-cmi"])
    def test_full_rank_state_is_validated_by_one_cholesky(self, monkeypatch, measure, rho_eighs):
        args = {name: _spy(monkeypatch, name) for name in ("cholesky", "eigvalsh", "eigh")}
        rho = random_density((2, 3, 2), seed=3)
        assert [a.shape for a in args["cholesky"]] == [(12, 12)]
        assert args["eigvalsh"] == [] and args["eigh"] == []
        state = TripartiteState(rho)
        measure(state)
        # only the plain Renyi CMI decomposes rho_ABC, and nothing computes
        # its eigenvalues alone
        assert _slices_equal_to(args["eigvalsh"], rho.matrix) == 0
        assert _slices_equal_to(args["eigh"], rho.matrix) == rho_eighs


    @pytest.mark.parametrize("make", [_triple, _state])
    def test_recovered_operator_decomposed_once(self, eigh_calls, make):
        x = make()
        minmax = minmax_rel_ent_diff if isinstance(x, ChannelTriple) else minmax_cmi
        minmax(x, "min")
        minmax(x, "max")
        # sigma (rho_AC), N(rho) and N(sigma), once each: on full-rank input
        # the max measure reads the recovered N(rho) through its Cholesky
        # factor, so it is never decomposed
        assert len(eigh_calls) == 3

    def test_one_trial_verify(self, eigh_calls):
        run_suites(SUITE_NAMES, SuiteConfig(trials=1, seed=42))
        # each order grid closes its brackets with one stacked svd
        assert len(eigh_calls) <= 150
        assert eigh_calls.calls <= 68

    def test_grid_closes_its_brackets_in_one_svd(self, eigh_calls, monkeypatch):
        svd_args = _spy(monkeypatch, "svd")
        state = _state()
        channel_trace_value_grid(state, SIX_ORDERS)
        # rho_AC, rho_BC and I_B x rho_C, then one svd of the six closing
        # factors; no bracket is decomposed by eigh
        assert len(eigh_calls) == eigh_calls.calls == 3
        assert [a.shape for a in svd_args] == [(6, 12, 12)]


class TestSupportCache:
    def test_support_mask_once_per_decomposition(self, eigh_calls, monkeypatch):
        masks = []
        original = linalg.support_mask
        monkeypatch.setattr(
            linalg, "support_mask", lambda v: masks.append(1) or original(v)
        )
        triple = _triple()
        for a in SIX_ORDERS:
            renyi_rel_ent_diff(triple, a)
        assert len(eigh_calls) == 4
        assert len(masks) == len(eigh_calls)

    def test_full_rank_support_is_the_decomposition(self):
        dec = hermitian_eig(random_density((4,), seed=8).matrix)
        keep, values, vectors = dec.support
        assert keep.all()
        assert np.shares_memory(vectors, dec.eigenvectors)
        assert np.shares_memory(values, dec.eigenvalues)

    def test_rank_deficient_support_drops_the_kernel(self):
        m = random_density((4,), rank=2, seed=9).matrix
        dec = hermitian_eig(m)
        keep, values, vectors = dec.support
        assert keep.tolist() == [True, True, False, False]
        assert vectors.shape == (4, 2)
        np.testing.assert_array_equal(vectors, dec.eigenvectors[:, :2])
        with pytest.raises(ValueError):
            vectors[0, 0] = 0.0
        np.testing.assert_allclose(dec.power(0) @ m, m, atol=1e-12)

    @pytest.mark.parametrize("values, f, message", [
        ([1.0, -0.5], np.log, "undefined"),
        ([1.0, 1e-5], lambda x: x**-100.0, "overflows float64"),
    ])
    def test_domain_error_on_every_call(self, values, f, message):
        dec = hermitian_eig(np.diag(values))
        for _ in range(2):
            with pytest.raises(MatrixFunctionDomainError, match=message):
                dec.apply(f)


def _kron_embedding(x, dims, sites):
    """The kron-and-transpose formula: x tensor I in (sites, rest) order, permuted back."""
    rest = [i for i in range(len(dims)) if i not in sites]
    d_rest = int(np.prod([dims[i] for i in rest])) if rest else 1
    full = np.kron(x, np.eye(d_rest, dtype=complex))
    perm = list(sites) + rest
    inv = np.argsort(perm)
    n = len(dims)
    cur = [dims[p] for p in perm]
    t = np.transpose(full.reshape(cur + cur), list(inv) + [n + i for i in inv])
    total = int(np.prod(dims))
    return t.reshape(total, total)


class TestEmbedding:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 4), (1, 2, 2)])
    def test_equals_kron_formula(self, dims):
        rng = np.random.default_rng(11)
        # every ascending site set of three factors, including (0, 2) and (1, 2)
        for k in range(4):
            for sites in itertools.combinations(range(3), k):
                d = int(np.prod([dims[s] for s in sites]))
                x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                assert np.array_equal(
                    embed_operator(x, dims, sites), _kron_embedding(x, dims, sites)
                ), sites


class TestBuiltOnce:
    @pytest.mark.parametrize("make", [_triple, _state])
    def test_exp_log_operator_exponentiated_once(self, make, monkeypatch):
        exps = []
        original = ms.herm_exp
        monkeypatch.setattr(ms, "herm_exp", lambda m: exps.append(1) or original(m))
        x = make()
        for a in (0.5, 0.7, 0.9, 0.99, 1.01, 1.1, 1.3, 1.5):
            lie_trotter_deviation(x, a)
        exp_trace_channel_value(x)
        assert len(exps) == 1

    @pytest.mark.parametrize("make", [_triple, _state])
    def test_kraus_wedge_squares_to_the_wedged_pull(self, make):
        # sum_i (K_i w v)† y y† (K_i w v) = v† w N†(y y†) w v
        x = make()
        y = x.out_sigma_spectrum.power(0.3) @ x.out_rho_spectrum.power(-0.2)
        f = lambda v: v**0.4  # noqa: E731
        v = x.rho.root()
        blocks = y.conj().T @ x.kraus_wedge([f], v)[0]
        np.testing.assert_allclose(
            np.sum(blocks.conj().swapaxes(-1, -2) @ blocks, axis=0),
            v.conj().T @ x.wedged_pull(f, y @ y.conj().T) @ v,
            atol=1e-12,
        )


class TestKrausWedge:
    """Both Renyi differences read the channel and sigma through
    ``kraus_wedge``: rho through its kept eigenpairs or its root factor,
    sigma through its kept eigenpairs, and on a triple through the cached
    K U, so f(sigma) and the powers of rho are never formed."""

    GRIDS = [ms.renyi_rel_ent_diff_grid, ms.sandwiched_rel_ent_diff_grid]

    @pytest.mark.parametrize("make", [_triple, _state])
    def test_petz_grid_reads_no_power_of_rho(self, make, monkeypatch):
        x = make()
        read = []
        for name in ("apply_all", "powers"):
            original = getattr(linalg.SpectralDecomposition, name)

            def spy(self, fs, _original=original, _name=name):
                if self is x.rho.spectrum:
                    read.append(_name)
                return _original(self, fs)

            monkeypatch.setattr(linalg.SpectralDecomposition, name, spy)
        ms.renyi_rel_ent_diff_grid(x, SIX_ORDERS)
        assert read == []

    @pytest.mark.parametrize("grid", GRIDS, ids=["renyi", "sandwiched"])
    def test_triple_never_forms_f_of_sigma(self, grid, monkeypatch):
        calls = []
        original = ChannelTriple.sigma_fn
        monkeypatch.setattr(ChannelTriple, "sigma_fn",
                            lambda self, fs: calls.append(fs) or original(self, fs))
        grid(_triple(), SIX_ORDERS)
        assert calls == []

    def test_one_kraus_basis_for_every_order(self, monkeypatch):
        built = []
        descriptor = ChannelTriple.__dict__["kraus_sigma_basis"]
        original = descriptor.func
        monkeypatch.setattr(descriptor, "func", lambda self: built.append(1) or original(self))
        triple = _triple()
        bases = []
        for a in np.linspace(0.55, 2.5, 10):
            sandwiched_rel_ent_diff(triple, a)
            bases.append(triple.kraus_sigma_basis)
        assert len(built) == 1
        assert all(b is bases[0] for b in bases)
        assert not bases[0].flags.writeable

    @pytest.mark.parametrize("make", [_triple, _state])
    def test_decomposition_counts_are_unchanged(self, make, monkeypatch):
        args = {name: _spy(monkeypatch, name) for name in ("eigh", "svd")}
        x = make()
        for a in SIX_ORDERS:
            renyi_rel_ent_diff(x, a)
            sandwiched_rel_ent_diff(x, a)
        for grid in self.GRIDS:
            grid(x, SIX_ORDERS)
        # rho, sigma, N(rho) and N(sigma) once each; one svd per call
        assert len(args["eigh"]) == 4
        assert len(args["svd"]) == len(SIX_ORDERS) + 1


def _triple_measures():
    return [
        ("renyi", lambda t: renyi_rel_ent_diff(t, 1.5)),
        ("renyi-low", lambda t: renyi_rel_ent_diff(t, 0.5)),
        ("sandwiched", lambda t: sandwiched_rel_ent_diff(t, 2.0)),
        ("sandwiched-low", lambda t: sandwiched_rel_ent_diff(t, 0.75)),
        ("red", rel_ent_diff),
        ("min", lambda t: minmax_rel_ent_diff(t, "min")),
        ("max", lambda t: minmax_rel_ent_diff(t, "max")),
        ("trace", lambda t: channel_trace_value(t, 0.5)),
        ("trace-sandwiched", lambda t: channel_trace_value(t, 1.5, sandwiched=True)),
        ("exp-trace", exp_trace_channel_value),
        ("lie-trotter", lambda t: lie_trotter_deviation(t, 0.9)),
        ("output-fixed-point", lambda t: output_fixed_point_residual(t, 0.5)),
        ("recovery-fixed-point", lambda t: recovery_fixed_point_residual(t, 1.5)),
        ("sandwiched-fixed-point", lambda t: sandwiched_fixed_point_residual(t, 2.0)),
        ("log-identity", log_identity_residual),
        ("definite", lambda t: t.is_positive_definite()),
    ]


def _state_measures():
    return [
        ("cmi", von_neumann_cmi),
        ("renyi", lambda s: renyi_cmi(s, 1.5)),
        ("renyi-low", lambda s: renyi_cmi(s, 0.5)),
        ("sandwiched", lambda s: sandwiched_cmi(s, 2.0)),
        ("sandwiched-low", lambda s: sandwiched_cmi(s, 0.75)),
        ("min", lambda s: minmax_cmi(s, "min")),
        ("max", lambda s: minmax_cmi(s, "max")),
        ("trace", lambda s: channel_trace_value(s, 0.5)),
        ("trace-sandwiched", lambda s: channel_trace_value(s, 1.5, sandwiched=True)),
        ("exp-trace", exp_trace_channel_value),
        ("lie-trotter", lambda s: lie_trotter_deviation(s, 1.1)),
    ]


class TestEvaluationOrder:
    @pytest.mark.parametrize("shuffle_seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["triple", "state"])
    def test_reused_object_equals_fresh_object(self, kind, shuffle_seed):
        make, measures = {
            "triple": (_triple, _triple_measures),
            "state": (_state, _state_measures),
        }[kind]
        measures = measures()
        random.Random(shuffle_seed).shuffle(measures)
        reused = make()
        for name, measure in measures:
            assert measure(reused) == measure(make()), name

    def test_divergences_equal_on_operators_and_matrices(self):
        rho = random_density((4,), seed=3)
        sigma = PositiveOperator(random_density((4,), seed=4).matrix)
        rho.spectrum, sigma.spectrum  # populate the caches first
        m_rho, m_sigma = np.array(rho.matrix), np.array(sigma.matrix)
        assert dv.rel_entropy(rho, sigma) == dv.rel_entropy(m_rho, m_sigma)
        assert dv.max_rel_entropy(rho, sigma) == dv.max_rel_entropy(m_rho, m_sigma)
        assert dv.min_rel_entropy(rho, sigma) == dv.min_rel_entropy(m_rho, m_sigma)
        assert dv.von_neumann_entropy(rho) == dv.von_neumann_entropy(m_rho)
        for a in (0.5, 1.5, 3.0):
            assert dv.renyi_rel_entropy(rho, sigma, a) == dv.renyi_rel_entropy(m_rho, m_sigma, a)
            assert (dv.sandwiched_rel_entropy(rho, sigma, a)
                    == dv.sandwiched_rel_entropy(m_rho, m_sigma, a))


class TestReadOnly:
    def test_channel_outputs(self):
        triple = _triple()
        for out in (triple.out_rho, triple.out_sigma):
            with pytest.raises(ValueError):
                out[0, 0] = 0.0

    def test_marginals(self):
        state = _state()
        for m in (state.rho_ac, state.rho_bc, state.rho_c, state.out_sigma):
            with pytest.raises(ValueError):
                m[0, 0] = 0.0

    def test_decomposition(self):
        dec = hermitian_eig(random_density((3,), seed=5).matrix)
        with pytest.raises(ValueError):
            dec.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            dec.eigenvectors[0, 0] = 0.0

    def test_operator(self):
        rho = random_density((3,), seed=6)
        for arr in (rho.matrix, rho.eigenvalues, rho.spectrum.eigenvalues):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_input_array_stays_writeable(self):
        m = np.array(random_density((3,), seed=7).matrix)
        PositiveOperator(m)
        m[0, 0] += 0.0
        assert m.flags.writeable
