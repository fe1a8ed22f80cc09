"""The max measures through ``whitened_rho``, and the state's products with
f(rho_AC) x I_B and I_A x x in factored form.

D_max(rho || R) with R the Petz-recovered N(rho) is read as log2 of the
largest eigenvalue of ``whitened_rho`` whenever the cached spectra bound
cond(R) by 1/SUPPORT_CUTOFF: on a ChannelTriple Y† Y, Y = L^(-1) G with
R = L L† and G G† = rho; on a TripartiteState W rho W†, W† W = R^(-1), from
the marginals' decompositions alone.  Otherwise it is the eigen path
``max_rel_entropy(rho, Decomposed(R, R's decomposition))``.  These tests pin
that guard: inputs whose R is rank deficient or whose bound is too large
give the eigen path's value exactly (``==``, and on a ChannelTriple its
recorded value, as a hex literal), and on
well-conditioned inputs the paths agree within 1e-12, and with a 50-digit
D_max (``mp_oracles``).  A TripartiteState forms the Kraus blocks
<i|_A (w x I_B) v by reshaped matmuls; they must equal the dense products
of the embedded factors and the blocks of the CMI triple, and the recovered
operator read through them must equal the CMI triple's.
"""

import numpy as np
import pytest

import mp_oracles as mo
from qmarkov.channels import random_strict_channel
from qmarkov.divergences import max_rel_entropy
from qmarkov.errors import RankDeficientError
from qmarkov.linalg import SUPPORT_CUTOFF, embed_operator, kron
from qmarkov.measures import (
    ChannelTriple,
    TripartiteState,
    cmi_as_triple,
    minmax_cmi,
    minmax_rel_ent_diff,
)
from qmarkov.states import (
    Decomposed,
    DensityOperator,
    PositiveOperator,
    perturb_positive,
    random_density,
)


def _max(x, strict=True):
    if isinstance(x, ChannelTriple):
        return minmax_rel_ent_diff(x, "max", strict)
    return minmax_cmi(x, "max", strict)


def _eigen_path(x):
    return max_rel_entropy(x.rho, Decomposed(x.recovered, x.recovered_spectrum))


def _condition_product(x):
    product = 1.0
    for dec in (x.sigma_spectrum, x.out_rho_spectrum, x.out_sigma_spectrum):
        product *= dec.eigenvalues[0] / dec.eigenvalues[-1]
    return product


@pytest.fixture
def cholesky_calls(monkeypatch):
    calls = []
    original = np.linalg.cholesky

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


def _sigma_inside_triple(seed):
    """sigma of rank 2 on C^4, and rho supported inside supp(sigma)."""
    sigma = random_density((4,), rank=2, seed=seed + 1)
    p = sigma.spectrum.power(0)
    rho = p @ random_density((4,), seed=seed).matrix @ p
    rho = (rho + rho.conj().T) / 2
    return ChannelTriple(
        rho=DensityOperator(rho / np.trace(rho).real),
        sigma=PositiveOperator(sigma.matrix),
        channel=random_strict_channel(4, 3, seed=seed + 2),
    )


def _near_pure_state():
    """A pure 2x2x2 state mixed with 1e-8 of the flat state: positive
    definite, with a numerically singular recovered operator."""
    return TripartiteState(perturb_positive(random_density((2, 2, 2), rank=1, seed=0), 1e-8))


def _skewed_state(seed):
    """rho_A x rho_B x diag(1 - 1e-5, 1e-5), mixed with 1e-7 of a random state:
    full rank, with a condition-number product of about 2e16 to 4e16 while
    the recovered operator's own is below 4e6."""
    rho_a = random_density((2,), seed=seed).matrix
    rho_b = random_density((2,), seed=seed + 1).matrix
    product = kron(kron(rho_a, rho_b), np.diag([1.0 - 1e-5, 1e-5]))
    m = (1.0 - 1e-7) * product + 1e-7 * random_density((8,), seed=seed + 2).matrix
    return TripartiteState(DensityOperator(m, (2, 2, 2)))


class TestMaxGuard:
    # D_max of each input on the eigen path, as float.hex: within 2.2e-15 of
    # the 50-digit value on the support for the rank-deficient inputs, and
    # within 1.4e-10 of it for the skewed ones, whose R has cond about 4e6
    PURE_CMI_TRIPLE = ["0x1.4cf636174d6a4p+1", "0x1.e82ea18111091p-2", "0x1.553dc94d9adc7p+0"]
    SIGMA_INSIDE = ["0x1.fd7432a62b9cap-4", "0x1.bf4742a8f0088p-1", "0x1.bebf97c633959p-2"]
    SKEWED_CMI_TRIPLE = ["0x1.5b755a2f79531p-5", "0x1.051eddfba1879p-5", "0x1.a1e59f2b01461p-5"]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_deficient_recovered_operator_takes_the_eigen_path(self, seed, request):
        # a pure 2x2x2 state has rank-2 marginals rho_AC and rho_BC on C^4,
        # so sigma = rho_AC x I_B and the recovered operator are rank deficient
        state = TripartiteState(random_density((2, 2, 2), rank=1, seed=seed))
        inputs = ((cmi_as_triple(state), self.PURE_CMI_TRIPLE[seed]),
                  (_sigma_inside_triple(seed), self.SIGMA_INSIDE[seed]),
                  (state, None))
        # validation may factor the inputs; D_max itself must not
        cholesky_calls = request.getfixturevalue("cholesky_calls")
        for x, expected in inputs:
            assert not x.recovered_is_well_conditioned()
            value = _max(x, strict=False)
            assert value == _eigen_path(x)
            if expected is not None:
                assert value == float.fromhex(expected)
        assert cholesky_calls == []

    def test_rho_outside_a_rank_deficient_sigma_is_infinite(self):
        x = ChannelTriple(
            rho=random_density((4,), seed=0),
            sigma=PositiveOperator(random_density((4,), rank=2, seed=1).matrix),
            channel=random_strict_channel(4, 3, seed=2),
        )
        assert not x.recovered_is_well_conditioned()
        assert _max(x, strict=False) == _eigen_path(x) == np.inf

    def test_positive_definite_rho_outside_a_singular_recovered_operator_raises(self):
        # rho is positive definite, but the computed R has a round-off
        # eigenvalue below zero that the support drops, and rho has weight
        # there: R is numerically singular, and D_max is not +inf
        state = _near_pure_state()
        for x in (state, cmi_as_triple(state)):
            assert x.is_positive_definite()
            assert not x.recovered_is_well_conditioned()
            assert _eigen_path(x) == np.inf
            for strict in (True, False):
                with pytest.raises(RankDeficientError, match="numerically singular"):
                    _max(x, strict)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ill_conditioned_full_rank_input_takes_the_eigen_path(self, seed, request):
        state = _skewed_state(seed)
        triple = cmi_as_triple(state)
        # validation may factor the inputs; D_max itself must not
        cholesky_calls = request.getfixturevalue("cholesky_calls")
        for x in (state, triple):
            assert x.is_positive_definite()
            assert all(dec.support[0].all() for dec in
                       (x.sigma_spectrum, x.out_rho_spectrum, x.out_sigma_spectrum))
            assert _condition_product(x) > 1.0 / SUPPORT_CUTOFF
            assert not x.recovered_is_well_conditioned()
            assert _max(x) == _eigen_path(x)
        assert _max(triple) == float.fromhex(self.SKEWED_CMI_TRIPLE[seed])
        assert cholesky_calls == []

    def test_failed_cholesky_falls_back(self, monkeypatch):
        # only the triple factors R; the state reads its marginals alone
        state = TripartiteState(random_density((2, 2, 2), seed=4))
        triple = cmi_as_triple(state)
        expected = _max(state)
        assert state.recovered_is_well_conditioned() and triple.recovered_is_well_conditioned()

        def failing(a, *args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        assert _max(triple) == _eigen_path(triple)
        assert _max(state) == expected


def _full_rank_inputs(dims, seed):
    state = TripartiteState(random_density(dims, seed=seed))
    return [state, cmi_as_triple(state)]


class TestMaxByCholesky:
    @pytest.mark.parametrize("dims, seeds", [((2, 2, 2), (0, 1, 2)), ((3, 2, 4), (0, 1)),
                                             ((8, 8, 8), (0,))])
    def test_agrees_with_the_eigen_path(self, dims, seeds, cholesky_calls):
        for seed in seeds:
            for x in _full_rank_inputs(dims, seed):
                d = x.rho.dim
                assert x.recovered_is_well_conditioned()
                cholesky_calls.clear()
                value = _max(x)
                # on the triple one factor of the recovered operator and one
                # of rho; the state factors neither
                expected = [(d, d)] * 2 if isinstance(x, ChannelTriple) else []
                assert cholesky_calls == expected
                assert abs(value - _eigen_path(x)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_channel_triple(self, seed):
        x = ChannelTriple(
            rho=random_density((4,), seed=seed),
            sigma=PositiveOperator(random_density((4,), seed=seed + 1).matrix),
            channel=random_strict_channel(4, 3, seed=seed + 2),
        )
        assert x.recovered_is_well_conditioned()
        assert abs(_max(x) - _eigen_path(x)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_deficient_rho_with_full_rank_recovered_operator(self, seed):
        # rank-3 rho_ABC on 2x2x2 still has full-rank marginals, so the
        # recovered operator is full rank and G is rho's support square root
        state = TripartiteState(random_density((2, 2, 2), rank=3, seed=seed))
        for x in (state, cmi_as_triple(state)):
            assert x.recovered_is_well_conditioned()
            assert abs(_max(x, strict=False) - _eigen_path(x)) <= 1e-12


@pytest.fixture
def linalg_calls(monkeypatch):
    """The shapes of the arguments of every np.linalg.cholesky and solve."""
    calls = []
    for name in ("cholesky", "solve"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestWhitenedState:
    """A state's max CMI from W rho W†, against the dense triple's Cholesky
    path and a 50-digit D_max (rank None: full rank; rank d_A d_C: rank
    deficient, with full-rank marginals)."""

    @pytest.mark.parametrize("dims, rank, oracle", [
        ((2, 2, 2), None, True), ((2, 3, 2), None, True), ((3, 3, 3), None, True),
        ((2, 2, 2), 4, True), ((2, 3, 2), 4, True), ((3, 3, 3), 9, False),
        ((1, 2, 2), None, True), ((2, 1, 2), None, True), ((2, 2, 1), None, True),
    ], ids=["222", "232", "333", "222-rank4", "232-rank4", "333-rank9", "122", "212", "221"])
    def test_agrees_with_the_triple_and_the_oracle(self, dims, rank, oracle):
        state = TripartiteState(random_density(dims, rank=rank, seed=0))
        triple = cmi_as_triple(state)
        assert state.recovered_is_well_conditioned()
        assert state.is_positive_definite() == (rank is None)
        value = minmax_cmi(state, "max", strict=False)
        assert abs(value - minmax_rel_ent_diff(triple, "max", strict=False)) <= 1e-12
        if oracle:
            assert abs(value - mo.max_recovery_divergence(mo.MpTriple(triple))) <= 1e-12

    def test_near_kernel_state_keeps_the_parent_value(self):
        # 1e-11 of the flat state on a rank-2 state: rho is not positive
        # definite but its marginals are, so the cached spectra pass the
        # guard and the state is whitened, where R was Cholesky factored
        # before; the value moves by 5e-15, onto the 50-digit one
        state = TripartiteState(perturb_positive(random_density((2, 2, 2), rank=2, seed=3), 1e-11))
        assert state.recovered_is_well_conditioned()
        with pytest.raises(RankDeficientError):
            minmax_cmi(state, "max")
        value = minmax_cmi(state, "max", strict=False)
        assert abs(value - float.fromhex("0x1.39e92f8488617p+2")) <= 1e-14
        assert abs(value - mo.max_recovery_divergence(mo.MpTriple(cmi_as_triple(state)))) <= 1e-14

    def test_forms_no_recovered_operator_or_dense_factor(self, linalg_calls):
        state = TripartiteState(random_density((4, 4, 4), seed=0))
        d = state.rho.dim
        linalg_calls.clear()  # validation factors rho once
        value = minmax_cmi(state, "max")
        assert [call for call in linalg_calls if call[1] == (d, d)] == []
        assert "recovered" not in state.__dict__
        assert "recovered_spectrum" not in state.__dict__
        assert abs(value - _eigen_path(state)) <= 1e-12


PRODUCT_DIMS = [(2, 2, 2), (2, 3, 2), (3, 2, 4), (1, 2, 2), (2, 1, 2), (2, 2, 1)]


def _close(got, expected):
    scale = np.max(np.abs(expected))
    return np.max(np.abs(got - expected)) <= 1e-13 * scale


class TestStructuredProducts:
    HS = [0.3, -0.2, 0.5]

    @pytest.mark.parametrize("dims", PRODUCT_DIMS)
    def test_kraus_wedge_equals_the_dense_product(self, dims):
        state = TripartiteState(random_density(dims, seed=2))
        rng = np.random.default_rng(4)
        d = state.rho.dim
        v = rng.standard_normal((d, 5)) + 1j * rng.standard_normal((d, 5))
        wedge = embed_operator(state.sigma_spectrum.powers(self.HS), dims, (0, 2))
        # K_i = <i|_A x I_BC picks the rows whose A index is i
        expected = (wedge @ v).reshape(len(self.HS), dims[0], dims[1] * dims[2], 5)
        chunks = list(state.kraus_wedges(self.HS, v))
        # the chunks hold the orders in turn, one slice of a stack per order
        orders = range(len(self.HS))
        assert [i for part, _ in chunks for i in orders[part]] == list(orders)
        assert [len(w) for _, w in chunks] == [len(orders[part]) for part, _ in chunks]
        got = np.concatenate([w for _, w in chunks])
        assert got.shape == expected.shape
        assert _close(got, expected)

    @pytest.mark.parametrize("dims", PRODUCT_DIMS)
    def test_members_agree_with_the_cmi_triple(self, dims):
        state = TripartiteState(random_density(dims, seed=5))
        triple = cmi_as_triple(state)
        rng = np.random.default_rng(6)
        assert _close(state.recovered, triple.recovered)
        v = rng.standard_normal((state.rho.dim, 4)) + 1j * rng.standard_normal((state.rho.dim, 4))
        # the triple's Kraus operators of Tr_A are <i|_A x I_BC in the same order
        chunks = zip(state.kraus_wedges(self.HS, v), triple.kraus_wedges(self.HS, v), strict=True)
        for (part, got), (expected_part, expected) in chunks:
            assert part == expected_part
            assert _close(got, expected)
