"""Cached decompositions: each operator is decomposed once, and caching
changes no value.

Operators cache their eigendecomposition on first use (``rho.spectrum``,
``out_rho_spectrum``, ...), a decomposition caches its support, and a triple
or state caches its recovered operator and its exp-log operator.  These
tests count the ``eigh``, ``support_mask`` and ``herm_exp`` calls a sweep
over orders makes, check that evaluation order cannot change a value, check
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


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts the numpy eigh calls made after the fixture is requested."""
    calls = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


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
        # the root of N†(y y†) is the stack of K_i† y, so no order adds one
        assert len(eigh_calls) == 4

    @pytest.mark.parametrize("measure", [renyi_cmi, sandwiched_cmi])
    def test_cmi_decomposes_four_operators(self, eigh_calls, measure):
        state = _state()
        for a in SIX_ORDERS:
            measure(state, a)
        # rho_ABC, rho_AC, rho_BC and I_B x rho_C
        assert len(eigh_calls) == 4

    def test_relative_entropy_difference_reuses_the_sweep(self, eigh_calls):
        triple = _triple()
        for a in PETZ_ALPHA_GRID:
            renyi_rel_ent_diff(triple, a)
        rel_ent_diff(triple)
        assert len(eigh_calls) == 4

    def test_von_neumann_cmi_reuses_validation(self, eigh_calls, monkeypatch):
        state = _state()
        eigvalsh_calls = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh",
            lambda a, *r, **k: eigvalsh_calls.append(1) or original(a, *r, **k),
        )
        von_neumann_cmi(state)
        # the three marginals only; rho_ABC's eigenvalues come from validation
        assert len(eigvalsh_calls) == 3
        assert eigh_calls == []


    @pytest.mark.parametrize("make", [_triple, _state])
    def test_recovered_operator_decomposed_once(self, eigh_calls, make):
        x = make()
        minmax = minmax_rel_ent_diff if isinstance(x, ChannelTriple) else minmax_cmi
        minmax(x, "min")
        minmax(x, "max")
        # rho, sigma (rho_AC), N(sigma) and the recovered N(rho), once each
        assert len(eigh_calls) == 4

    def test_one_trial_verify(self, eigh_calls):
        run_suites(SUITE_NAMES, SuiteConfig(trials=1, seed=42))
        assert len(eigh_calls) <= 152


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
        dec = hermitian_eig(random_density((4,), rank=2, seed=9).matrix)
        keep, values, vectors = dec.support
        assert keep.tolist() == [True, True, False, False]
        assert vectors.shape == (4, 2)
        np.testing.assert_array_equal(vectors, dec.eigenvectors[:, :2])
        with pytest.raises(ValueError):
            vectors[0, 0] = 0.0
        np.testing.assert_allclose(dec.power(0) @ dec.reconstruct(), dec.reconstruct(),
                                   atol=1e-12)

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
    def test_pull_root_squares_to_the_pulled_gram(self, make):
        x = make()
        y = x.out_sigma_spectrum.power(0.3) @ x.out_rho_spectrum.power(-0.2)
        z = x.pull_root(y)
        np.testing.assert_allclose(z @ z.conj().T, x.pull(y @ y.conj().T), atol=1e-12)


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
        assert dv.support_contained(rho, sigma) == dv.support_contained(m_rho, m_sigma)
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
