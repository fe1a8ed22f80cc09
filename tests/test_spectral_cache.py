"""Cached decompositions: each operator is decomposed once, and caching
changes no value.

Operators cache their eigendecomposition on first use (``rho.spectrum``,
``out_rho_spectrum``, ...).  These tests count the ``eigh`` calls a sweep
over orders makes, check that evaluation order cannot change a value, and
check that the cached arrays are read-only.
"""

import random

import numpy as np
import pytest

from qmarkov import divergences as dv
from qmarkov.channels import random_strict_channel
from qmarkov.functionals import (
    channel_trace_value,
    exp_trace_channel_value,
    lie_trotter_deviation,
    log_identity_residual,
    output_fixed_point_residual,
    recovery_fixed_point_residual,
    sandwiched_fixed_point_residual,
)
from qmarkov.linalg import hermitian_eig
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

    def test_sandwiched_difference_adds_one_root_per_order(self, eigh_calls):
        triple = _triple()
        for a in SIX_ORDERS:
            sandwiched_rel_ent_diff(triple, a)
        assert len(eigh_calls) == 4 + len(SIX_ORDERS)

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
