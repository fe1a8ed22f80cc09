"""Order grids equal the loop over orders, and hold one order's product at a time.

Every grid family must return, at each order, a value ``==`` to the per-order
evaluation in ``loop_oracles`` (two-dimensional numpy calls, one ``svd`` per
closing factor): on both readings of a triple, on the four dims of the
embedding tests, on rank-deficient inputs whose closing factors keep
different ranks at different orders, and on the errors a grid raises.  The
Renyi difference and the closings also stay within 1e-12 of the dense
bracket on full-rank inputs.  On a rank-deficient Markov chain the
differences are zero and the trace values one, where the dense bracket was
not.  A grid stacks as many orders as fit in ``GRID_CHUNK_ENTRIES`` of
Kraus-block product, and every grid equals its one-order evaluations bit for
bit at chunks of ten, four and one orders.  A difference grid's peak memory
does not grow with its number of orders beyond the small stacked factors,
and neither does a divergence grid's, which is a difference grid on the
trace channel.
"""

import math
import tracemalloc

import numpy as np
import pytest

import loop_oracles as lo
from qmarkov import functionals as fn
from qmarkov import measures as ms
from qmarkov.channels import (
    Channel,
    adjoint_apply,
    apply_channel,
    random_strict_channel,
    random_unitary,
)
from qmarkov.errors import DimensionMismatchError, InfiniteTermError, RankDeficientError
from qmarkov.linalg import (
    embed_operator,
    gram_pows,
    herm_pow,
    hermitian_eig,
    kron,
    spectral_norm,
    spectral_norms,
    singular_values,
    support_mask,
)
from qmarkov.measures import (
    PETZ_ALPHA_GRID,
    SANDWICHED_ALPHA_GRID,
    ChannelTriple,
    TripartiteState,
    cmi_as_triple,
)
from qmarkov.states import DensityOperator, PositiveOperator, random_density
from qmarkov.suites import SLACK_FLOOR

DIMS = [(2, 2, 2), (2, 3, 2), (3, 2, 4), (1, 2, 2)]
LIMIT_ORDERS = (1.0 - 1e-4, 1.0 + 1e-4)
TROTTER_ORDERS = tuple(1.0 + s * 10.0**-k for s in (-1.0, 1.0) for k in range(1, 5))

# (grid, scalar, oracle, orders): the families that read a state or a triple
DIFFERENCE_FAMILIES = [
    (ms.renyi_rel_ent_diff_grid, ms.renyi_rel_ent_diff, lo.renyi_rel_ent_diff,
     PETZ_ALPHA_GRID + LIMIT_ORDERS),
    (ms.sandwiched_rel_ent_diff_grid, ms.sandwiched_rel_ent_diff,
     lo.sandwiched_rel_ent_diff, SANDWICHED_ALPHA_GRID + LIMIT_ORDERS),
]
TRACE_FAMILIES = [
    (fn.channel_trace_value_grid, fn.channel_trace_value, lo.channel_trace_value,
     PETZ_ALPHA_GRID),
    (lambda x, orders: fn.channel_trace_value_grid(x, orders, sandwiched=True),
     lambda x, a: fn.channel_trace_value(x, a, sandwiched=True),
     lambda x, a, **kwargs: lo.channel_trace_value(x, a, sandwiched=True, **kwargs),
     SANDWICHED_ALPHA_GRID),
    (fn.lie_trotter_deviation_grid, fn.lie_trotter_deviation, lo.lie_trotter_deviation,
     TROTTER_ORDERS),
]
TRIPLE_FAMILIES = [
    (fn.recovery_fixed_point_residual_grid, fn.recovery_fixed_point_residual,
     lo.recovery_fixed_point_residual, PETZ_ALPHA_GRID),
    (fn.sandwiched_fixed_point_residual_grid, fn.sandwiched_fixed_point_residual,
     lo.sandwiched_fixed_point_residual, SANDWICHED_ALPHA_GRID),
    (fn.output_fixed_point_residual_grid, fn.output_fixed_point_residual,
     lo.output_fixed_point_residual, PETZ_ALPHA_GRID),
]
DIVERGENCE_FAMILIES = [
    (ms.renyi_rel_entropy_grid, ms.renyi_rel_entropy, lo.renyi_rel_entropy,
     PETZ_ALPHA_GRID + (2.5, 0.9)),
    (ms.sandwiched_rel_entropy_grid, ms.sandwiched_rel_entropy, lo.sandwiched_rel_entropy,
     SANDWICHED_ALPHA_GRID + (0.5, 1e3)),
]


def _state(dims, seed, rank=None):
    return TripartiteState(random_density(dims, rank=rank, seed=seed))


def _triple(seed, rho_rank=None, sigma_rank=None):
    return ChannelTriple(
        rho=random_density((4,), rank=rho_rank, seed=seed),
        sigma=PositiveOperator(random_density((4,), rank=sigma_rank, seed=seed + 1).matrix),
        channel=random_strict_channel(4, 3, seed=seed + 2),
    )


def _both_readings(dims, seed):
    state = _state(dims, seed)
    return [state, cmi_as_triple(state)]


def _grid_ids(families):
    return [f[1].__name__ for f in families]


class TestGridEqualsLoop:
    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("family", DIFFERENCE_FAMILIES + TRACE_FAMILIES,
                             ids=_grid_ids(DIFFERENCE_FAMILIES + TRACE_FAMILIES))
    def test_state_and_triple(self, family, dims):
        grid, _, oracle, orders = family
        for seed in (0, 1):
            for x in _both_readings(dims, seed):
                assert grid(x, orders) == [oracle(x, a) for a in orders]

    @pytest.mark.parametrize("family", DIFFERENCE_FAMILIES + TRACE_FAMILIES + TRIPLE_FAMILIES,
                             ids=_grid_ids(DIFFERENCE_FAMILIES + TRACE_FAMILIES
                                           + TRIPLE_FAMILIES))
    def test_channel_triple(self, family):
        grid, _, oracle, orders = family
        for seed in range(4):
            x = _triple(seed)
            assert grid(x, orders) == [oracle(x, a) for a in orders]

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("family", TRIPLE_FAMILIES, ids=_grid_ids(TRIPLE_FAMILIES))
    def test_fixed_points_on_the_cmi_triple(self, family, dims):
        grid, _, oracle, orders = family
        x = cmi_as_triple(_state(dims, 5))
        assert grid(x, orders) == [oracle(x, a) for a in orders]

    @pytest.mark.parametrize("family", DIVERGENCE_FAMILIES, ids=_grid_ids(DIVERGENCE_FAMILIES))
    def test_divergences(self, family):
        grid, _, oracle, orders = family
        for seed in range(3):
            x = _triple(seed)
            for rho, sigma in ((x.rho, x.sigma),
                               (np.array(x.out_rho), np.array(x.out_sigma))):
                assert grid(rho, sigma, orders) == [oracle(rho, sigma, a) for a in orders]

    @pytest.mark.parametrize("family", DIVERGENCE_FAMILIES, ids=_grid_ids(DIVERGENCE_FAMILIES))
    def test_divergences_off_support(self, family):
        grid, _, oracle, orders = family
        x = _triple(3, sigma_rank=2)
        values = grid(x.rho, x.sigma, orders)
        assert values == [oracle(x.rho, x.sigma, a) for a in orders]
        assert math.inf in values


def _product_state():
    """rho_A x |0><0| x rho_C with a 1e-7 eigenvalue of rho_A: rank deficient.
    Its closing factors keep 4 singular values at alpha = 0.5, 1.5 and 3 and
    2 at alpha = 5; the dense bracket at alpha = 3 keeps only 2 of its 4
    nonzero eigenvalues, because they are the squares of the singular
    values."""
    u = random_unitary(2, seed=1)
    rho_a = u @ np.diag([1.0 - 1e-7, 1e-7]) @ u.conj().T
    rho_c = random_density((2,), seed=3).matrix
    matrix = kron(kron(rho_a, np.diag([1.0, 0.0])), rho_c)
    return TripartiteState(DensityOperator(matrix, (2, 2, 2)))


def _identity_triple():
    """N(rho) = rho with a 1e-8 eigenvalue, under the identity channel, which
    is sufficient for any pair: every fixed-point residual is round-off."""
    v = random_unitary(4, seed=5)
    rho = DensityOperator(v @ np.diag([0.5, 0.3, 0.2 - 1e-8, 1e-8]) @ v.conj().T)
    sigma = PositiveOperator(random_density((4,), seed=6).matrix)
    return ChannelTriple(rho=rho, sigma=sigma, channel=Channel((np.eye(4),)))


def _kept_count(w):
    return int(support_mask(np.linalg.svd(w, compute_uv=False)).sum())


def _closing_ranks(x, orders):
    """How many singular values each order's closing factor keeps."""
    eye, hs = np.eye(x.rho.dim), [(1.0 - a) / 2.0 for a in orders]
    return [_kept_count(lo._kraus_products(x, h, eye, lo._output_y(x, h))) for h in hs]


class TestRankDeficient:
    ORDERS = (0.5, 1.5, 3.0, 5.0)

    @pytest.mark.parametrize("reading", ["state", "triple"])
    def test_supports_differ_between_slices(self, reading):
        state = _product_state()
        x = state if reading == "state" else cmi_as_triple(state)
        assert not state.is_positive_definite()
        assert _closing_ranks(x, self.ORDERS) == [4, 4, 4, 2]
        assert fn.channel_trace_value_grid(x, self.ORDERS) == [
            lo.channel_trace_value(x, a) for a in self.ORDERS
        ]
        assert fn.lie_trotter_deviation_grid(x, self.ORDERS) == [
            lo.lie_trotter_deviation(x, a) for a in self.ORDERS
        ]
        for grid, _, oracle, orders in DIFFERENCE_FAMILIES:
            assert grid(x, orders + self.ORDERS, strict=False) == [
                oracle(x, a, strict=False) for a in orders + self.ORDERS
            ]

    def test_output_fixed_point_keeps_a_small_value_at_every_order(self):
        # rho^1.75 has a 1e-14 eigenvalue, which a cutoff on the formed
        # operator dropped at that order; V's singular value is 1e-7
        x = _identity_triple()
        ranks = [_kept_count(lo.output_factor(x, a)) for a in PETZ_ALPHA_GRID]
        assert ranks == [4] * 6
        residuals = fn.output_fixed_point_residual_grid(x, PETZ_ALPHA_GRID)
        assert residuals == [lo.output_fixed_point_residual(x, a) for a in PETZ_ALPHA_GRID]
        assert max(residuals) <= 1e-14

    def test_rank_deficient_triple_off_strict(self):
        x = _triple(7, rho_rank=2, sigma_rank=3)
        for grid, _, oracle, orders in DIFFERENCE_FAMILIES:
            below_one = tuple(a for a in orders if a < 1.0)
            assert grid(x, below_one, strict=False) == [
                oracle(x, a, strict=False) for a in below_one
            ]
        for grid, _, oracle, orders in TRACE_FAMILIES + TRIPLE_FAMILIES:
            assert grid(x, orders) == [oracle(x, a) for a in orders]


class TestAgainstTheBracket:
    """The dense bracket is an independent reading: of the Renyi difference
    through Tr{rho^alpha bracket}, and of every closing family through the
    bracket's own eigh.  On full-rank inputs they agree with the library
    within 1e-12 (times the closing exponent, for the closings)."""

    @staticmethod
    def _gap(x, orders):
        got = ms.renyi_rel_ent_diff_grid(x, orders)
        return max(abs(g - lo.renyi_rel_ent_diff_by_bracket(x, a)) for g, a in zip(got, orders))

    @pytest.mark.parametrize("dims", DIMS)
    def test_full_rank_states(self, dims):
        for seed in (0, 1):
            for x in _both_readings(dims, seed):
                assert self._gap(x, PETZ_ALPHA_GRID) <= 1e-12

    def test_channel_triples(self):
        for seed in range(4):
            assert self._gap(_triple(seed), PETZ_ALPHA_GRID) <= 1e-12

    @pytest.mark.parametrize("family", TRACE_FAMILIES + TRIPLE_FAMILIES,
                             ids=_grid_ids(TRACE_FAMILIES + TRIPLE_FAMILIES))
    def test_closings_against_the_dense_bracket(self, family):
        # the dense bracket raised to its closing power through its own eigh;
        # the closing exponent, up to 1e4 at 1 +- 1e-4, scales its round-off
        grid, _, oracle, orders = family
        xs = [_triple(seed) for seed in range(4)]
        if family in TRACE_FAMILIES:
            xs += [x for dims in DIMS for x in _both_readings(dims, 0)]
        else:
            xs += [cmi_as_triple(_state(dims, 5)) for dims in DIMS]
        for x in xs:
            for got, a in zip(grid(x, orders), orders):
                budget = 1e-12 * max(1.0, 1.0 / abs(1.0 - a))
                assert abs(got - oracle(x, a, dense=True)) <= budget


class TestMarkovChainIsZero:
    """rho_A x |0><0| x rho_C is a Markov chain, so every Renyi difference of
    its CMI triple is zero, on either reading.  Its rho_AC has a 1e-7
    eigenvalue; formed densely, sigma^h carries the round-off of the largest
    values into every direction, and the bracket formula returned -0.02 on
    the triple at alpha = 3."""

    @pytest.mark.parametrize("reading", ["state", "triple"])
    @pytest.mark.parametrize("family", DIFFERENCE_FAMILIES, ids=_grid_ids(DIFFERENCE_FAMILIES))
    def test_rank_deficient_chain(self, family, reading):
        state = _product_state()
        x = state if reading == "state" else cmi_as_triple(state)
        values = family[0](x, (0.5, 1.5, 1.75, 3.0), strict=False)
        assert max(abs(v) for v in values) <= SLACK_FLOOR


class TestMarkovChainTraceIsOne:
    """The same chain's trace values are one, on either reading and in
    either form.  Closed through the dense bracket they were 1e-7 at
    alpha = 3: the cutoff on the bracket's eigenvalues, the squares of the
    factor's singular values, dropped two of its four directions."""

    @pytest.mark.parametrize("reading", ["state", "triple"])
    @pytest.mark.parametrize("sandwiched", [False, True], ids=["plain", "sandwiched"])
    def test_rank_deficient_chain(self, reading, sandwiched):
        state = _product_state()
        x = state if reading == "state" else cmi_as_triple(state)
        values = fn.channel_trace_value_grid(x, (1.75, 3.0), sandwiched=sandwiched)
        assert max(abs(v - 1.0) for v in values) <= 1e-8


def _loop_error(oracle, x, orders, **kwargs):
    with pytest.raises(Exception) as loop:
        for a in orders:
            oracle(x, a, **kwargs)
    return loop


class TestGridErrors:
    @pytest.mark.parametrize("family", DIFFERENCE_FAMILIES, ids=_grid_ids(DIFFERENCE_FAMILIES))
    def test_off_support_order_raises_infinite_term(self, family):
        grid, _, oracle, _ = family
        x = _triple(4, sigma_rank=2)  # supp(rho) is not in supp(sigma)
        orders = (0.5, 0.75, 1.5, 2.0)
        loop = _loop_error(oracle, x, orders, strict=False)
        with pytest.raises(InfiniteTermError) as stacked:
            grid(x, orders, strict=False)
        assert loop.type is InfiniteTermError
        assert str(stacked.value) == str(loop.value)

    @pytest.mark.parametrize("family", DIFFERENCE_FAMILIES, ids=_grid_ids(DIFFERENCE_FAMILIES))
    def test_strict_rank_deficient_order_raises(self, family):
        grid, _, oracle, _ = family
        x = _state((2, 2, 2), 2, rank=3)
        orders = (0.75, 0.9, 1.5, 3.0)
        loop = _loop_error(oracle, x, orders)
        with pytest.raises(RankDeficientError) as stacked:
            grid(x, orders)
        assert loop.type is RankDeficientError
        assert str(stacked.value) == str(loop.value)

    def test_orders_are_checked_before_evaluation(self, monkeypatch):
        x = _state((2, 2, 2), 2, rank=3)
        wedges = []
        original = type(x).kraus_wedges
        monkeypatch.setattr(type(x), "kraus_wedges",
                            lambda self, hs, v: wedges.append(hs) or original(self, hs, v))
        with pytest.raises(RankDeficientError):
            ms.renyi_rel_ent_diff_grid(x, (0.5, 1.5))
        assert wedges == []
        ms.renyi_rel_ent_diff_grid(x, (0.5, 0.75))
        assert len(wedges) == 1


class TestOneOrder:
    @pytest.mark.parametrize("family", DIFFERENCE_FAMILIES + TRACE_FAMILIES + TRIPLE_FAMILIES,
                             ids=_grid_ids(DIFFERENCE_FAMILIES + TRACE_FAMILIES
                                           + TRIPLE_FAMILIES))
    def test_equals_scalar(self, family):
        grid, scalar, _, orders = family
        x = _triple(9)
        for a in orders:
            assert grid(x, (a,)) == [scalar(x, a)]

    @pytest.mark.parametrize("family", DIFFERENCE_FAMILIES + TRACE_FAMILIES + TRIPLE_FAMILIES,
                             ids=_grid_ids(DIFFERENCE_FAMILIES + TRACE_FAMILIES
                                           + TRIPLE_FAMILIES))
    def test_no_orders(self, family):
        assert family[0](_triple(9), ()) == []

    @pytest.mark.parametrize("family", DIVERGENCE_FAMILIES, ids=_grid_ids(DIVERGENCE_FAMILIES))
    def test_divergence_equals_scalar(self, family):
        grid, scalar, _, orders = family
        x = _triple(9)
        for a in orders:
            assert grid(x.rho, x.sigma, (a,)) == [scalar(x.rho, x.sigma, a)]


class TestPeakMemory:
    """A difference grid forms its order-free factors once and one order's
    Kraus-block product at a time.  On the CMI triple of a 4x4x4 state
    (d = 64, four 16x64 Kraus operators) its traced peak grows 2.5x from 2
    to 40 orders, where a stack of the 40 products grew it 10-14x.  The
    divergence grids are difference grids on the trace channel, so they are
    bounded the same way; on a 64-dimensional pair their own stacks of
    powers grew the peak 15x and 20x."""

    @staticmethod
    def _peaks(grid, *operands):
        """The traced peaks of ``grid`` at 2 and at 40 orders."""
        grid(*operands, (1.1,))  # every cached decomposition is made before tracing
        peaks = []
        for k in (2, 40):
            tracemalloc.start()
            try:
                grid(*operands, [1.1 + 0.02 * i for i in range(k)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    @pytest.mark.parametrize("grid", [ms.renyi_rel_ent_diff_grid,
                                      ms.sandwiched_rel_ent_diff_grid],
                             ids=["renyi", "sandwiched"])
    def test_peak_does_not_grow_with_the_orders(self, grid):
        x = cmi_as_triple(TripartiteState(random_density((4, 4, 4), seed=1)))
        peaks = self._peaks(grid, x)
        assert peaks[1] < 4 * peaks[0]

    @pytest.mark.parametrize("grid", [ms.renyi_rel_entropy_grid,
                                      ms.sandwiched_rel_entropy_grid],
                             ids=["renyi", "sandwiched"])
    def test_divergence_peak_does_not_grow_with_the_orders(self, grid):
        rho = random_density((64,), seed=1)
        sigma = PositiveOperator(random_density((64,), seed=2).matrix)
        peaks = self._peaks(grid, rho, sigma)
        assert peaks[1] < 4 * peaks[0]


def _chunk(x):
    """How many orders one chunk of a grid on ``x`` stacks: its Kraus-block
    products are d x d (closings) or d x rank(rho) with rank d here."""
    return max(1, ms.GRID_CHUNK_ENTRIES // x.rho.dim**2)


class TestChunks:
    """A grid stacks as many orders as fit in GRID_CHUNK_ENTRIES of product,
    and one order at a time above it; every value equals its one-order
    evaluation bit for bit, whatever the chunk.  On 2x2x2 the products have
    64 entries (one chunk of ten orders), on 2x4x4 1,024 (chunks of 4, 4
    and 2), on 4x4x4 4,096 (chunks of one)."""

    ORDERS = {
        "petz": (0.3, 0.45, 0.6, 0.75, 0.9, 1.1, 1.25, 1.4, 1.55, 1.7),
        "sandwiched": (0.55, 0.7, 0.85, 1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 5.0),
    }
    STATE_GRIDS = [
        (ms.renyi_rel_ent_diff_grid, "petz"),
        (ms.sandwiched_rel_ent_diff_grid, "sandwiched"),
        (fn.channel_trace_value_grid, "petz"),
        (lambda x, orders: fn.channel_trace_value_grid(x, orders, sandwiched=True), "sandwiched"),
        (fn.lie_trotter_deviation_grid, "petz"),
    ]
    TRIPLE_GRIDS = STATE_GRIDS + [
        (fn.recovery_fixed_point_residual_grid, "petz"),
        (fn.sandwiched_fixed_point_residual_grid, "sandwiched"),
        (fn.output_fixed_point_residual_grid, "petz"),
    ]

    @pytest.mark.parametrize("dims, chunk", [((2, 2, 2), 64), ((2, 4, 4), 4), ((4, 4, 4), 1)],
                             ids=["2x2x2", "2x4x4", "4x4x4"])
    def test_every_grid_equals_its_one_order_evaluations(self, dims, chunk):
        state = _state(dims, 12)
        triple = cmi_as_triple(state)
        assert _chunk(state) == chunk
        for x, grids in ((state, self.STATE_GRIDS), (triple, self.TRIPLE_GRIDS)):
            for grid, family in grids:
                orders = self.ORDERS[family]
                assert grid(x, orders) == [grid(x, (a,))[0] for a in orders]

    @pytest.mark.parametrize("dims, calls", [((2, 2, 2), 1), ((2, 4, 4), 3), ((4, 4, 4), 10)],
                             ids=["2x2x2", "2x4x4", "4x4x4"])
    def test_sandwiched_grid_makes_one_svd_per_chunk(self, dims, calls, monkeypatch):
        for x in _both_readings(dims, 12):
            orders = self.ORDERS["sandwiched"]
            ms.sandwiched_rel_ent_diff_grid(x, orders[:1])  # decompositions and root made
            shapes = []
            original = np.linalg.svd
            monkeypatch.setattr(np.linalg, "svd",
                                lambda a, **kw: shapes.append(a.shape) or original(a, **kw))
            ms.sandwiched_rel_ent_diff_grid(x, orders)
            monkeypatch.setattr(np.linalg, "svd", original)
            assert len(shapes) == math.ceil(len(orders) / _chunk(x)) == calls
            assert sum(shape[0] for shape in shapes) == len(orders)
            assert all(shape[1:] == (x.rho.dim, x.rho.dim) for shape in shapes)

    def test_chunks_hold_their_orders_in_turn(self):
        state = _state((2, 4, 4), 12)
        hs = [(1.0 - a) / 2.0 for a in self.ORDERS["petz"]]
        chunks = list(ms._kraus_products(state, hs, np.eye(state.rho.dim),
                                         state.output_factors(hs)))
        assert [range(10)[part] for part, _ in chunks] == [range(0, 4), range(4, 8), range(8, 10)]
        assert [len(products) for _, products in chunks] == [4, 4, 2]


class TestStackedKernel:
    def test_powers_equal_two_dimensional_powers(self):
        dec = hermitian_eig(random_density((6,), rank=4, seed=2).matrix)
        ps = (0.5, -0.5, 0.25, 1.5, 0.0, 2.0)
        stack = dec.powers(ps)
        for p, power in zip(ps, stack):
            assert np.array_equal(power, lo.power(dec, p))
            assert np.array_equal(power, dec.power(p))

    def test_herm_pow_keeps_each_support(self):
        rng = np.random.default_rng(4)
        u = random_unitary(5, seed=8)
        spectra = ([1.0, 0.5, 0.2, 0.1, 0.05], [1.0, 0.3, 0.0, 0.0, 0.0],
                   [2.0, 1e-13, 1e-3, 0.0, 0.4], [0.0] * 5)
        stack = np.stack([u @ np.diag(s) @ u.conj().T for s in spectra])
        stack += 1e-17 * rng.standard_normal(stack.shape)
        stack = (stack + stack.conj().swapaxes(1, 2)) / 2
        for m, p in zip(stack, (0.5, -1.0, 1.75, 2.0)):
            assert np.array_equal(herm_pow(m, p), lo.herm_pow(m, p))

    def test_gram_pows_needs_one_exponent_per_slice(self):
        with pytest.raises(DimensionMismatchError):
            gram_pows(np.stack([np.eye(2)] * 3), (0.5, 2.0))

    @pytest.mark.parametrize("dims, sites", [((2, 3, 2), (0, 2)), ((3, 2, 4), (1, 2)),
                                             ((1, 2, 2), (2,))])
    def test_embedding_of_a_stack(self, dims, sites):
        rng = np.random.default_rng(5)
        d = int(np.prod([dims[s] for s in sites]))
        stack = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        embedded = embed_operator(stack, dims, sites)
        for x, got in zip(stack, embedded):
            assert np.array_equal(got, embed_operator(x, dims, sites))

    def test_channel_of_a_stack(self):
        channel = random_strict_channel(4, 3, seed=6)
        rng = np.random.default_rng(6)
        inputs = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        outputs = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        for x, got in zip(inputs, apply_channel(channel, inputs)):
            assert np.array_equal(got, apply_channel(channel, x))
        for x, got in zip(outputs, adjoint_apply(channel, outputs)):
            assert np.array_equal(got, adjoint_apply(channel, x))

    def test_singular_values_of_a_stack(self):
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((4, 6, 3)) + 1j * rng.standard_normal((4, 6, 3))
        stack[1, :, 2] = 0.0
        for x, norm in zip(stack, spectral_norms(stack)):
            assert norm == spectral_norm(x) == singular_values(x)[0]
