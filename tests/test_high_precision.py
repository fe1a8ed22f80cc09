"""Both Renyi differences and the closed-bracket functionals against a
50-digit evaluation (``mp_oracles``).

On the golden CMI triple (both readings), the golden 4 -> 3 triple, the
first screened non-sufficient triple of a one-trial verify at seed 42 and the
CMI triple of a rank-deficient Markov chain, every value at the certified
grid orders lies within 2e-13 of the 50-digit value of the dense formula:
the differences, the trace values and the three fixed-point residuals.  The
Lie-Trotter deviation at 1 -+ 10^-k raises the bracket to 1/(1-alpha), up
to 1e4, and stays within 2e-15 per unit of that exponent (9.5e-16 measured).
On the rank-deficient chain it does not vanish: it is 1 - 1e-7 at every
order, at 50 digits as in float64 (within 1e-14, 1.9e-15 measured).
The chain's plain trace value at alpha = 3 reads sigma^(-1), and
cond(sigma) is 1e7 there: it stays within 5e-9 (1.9e-9 measured), where a
cutoff on the dense bracket made it 1e-7 instead of 1.

The two Renyi divergences, read on the trace channel, lie within 2e-13 of
the dense 50-digit formulas on the golden 4 -> 3 triple's (rho, sigma) and
(N(rho), N(sigma)) pairs (9.4e-14 measured).  On states with two
eigenvalues of 1e-10 the sandwiched divergence below 1 stays within 2e-12
(7.0e-13 measured); the eigenvalues of the dense core sigma^h rho sigma^h,
as formerly read, were 4.3e-12 off.

Both Renyi differences stay within 2e-13 of the 50-digit values when every
decomposition goes block by block (``linalg.sorted_eigh``): on the CMI
triple of a 4 x 4 x 2 state, whose sigma = rho_AC x I_B is 4 blocks of 8,
on a two-block Markov chain and on a two-block sufficiency triple (1.4e-14
measured).  A 50-digit evaluation at the order EIGH_SPLIT_MIN = 64 takes
minutes, so these cases lower the gate to 1.
"""

import numpy as np
import pytest

import mp_oracles as mo
from qmarkov import functionals as fn
from qmarkov import linalg
from qmarkov.channels import random_strict_channel, random_unitary
from qmarkov.measures import (
    PETZ_ALPHA_GRID,
    SANDWICHED_ALPHA_GRID,
    ChannelTriple,
    TripartiteState,
    cmi_as_triple,
    renyi_rel_ent_diff_grid,
    renyi_rel_entropy_grid,
    sandwiched_rel_ent_diff_grid,
    sandwiched_rel_entropy_grid,
)
from qmarkov.states import Decomposed, DensityOperator, random_density
from qmarkov.structured import (
    build_markov_chain,
    build_sufficiency_triple,
    random_markov_spec,
    random_sufficiency_spec,
)
from qmarkov.suites import SuiteConfig, _screened_nonsufficient_triple
from test_grids import TROTTER_ORDERS, _product_state

BUDGET = 2e-13


def _golden_state():
    return TripartiteState(random_density((2, 2, 2), seed=7))


def _golden_4to3():
    return ChannelTriple(
        rho=random_density((4,), seed=11),
        sigma=random_density((4,), seed=12),
        channel=random_strict_channel(4, 3, seed=13),
    )


def _screened():
    """The first screened non-sufficient triple of a one-trial verify, seed 42."""
    return _screened_nonsufficient_triple(SuiteConfig(trials=1, seed=42), 0)


CASES = {
    "cmi": _golden_state,
    "4to3": _golden_4to3,
    "markov-chain": _product_state,
    "screened": _screened,
}


@pytest.fixture(scope="module", params=sorted(CASES))
def readings(request):
    """The library's readings of one case, and its 50-digit triple."""
    x = CASES[request.param]()
    triple = cmi_as_triple(x) if isinstance(x, TripartiteState) else x
    return [x, triple] if x is not triple else [x], mo.MpTriple(triple)


def test_renyi_difference(readings):
    xs, exact = readings
    want = [mo.renyi_rel_ent_diff(exact, a) for a in PETZ_ALPHA_GRID]
    for x in xs:
        got = renyi_rel_ent_diff_grid(x, PETZ_ALPHA_GRID, strict=False)
        assert max(abs(g - w) for g, w in zip(got, want)) <= BUDGET


def test_sandwiched_difference(readings):
    xs, exact = readings
    want = [mo.sandwiched_rel_ent_diff(exact, a) for a in SANDWICHED_ALPHA_GRID]
    for x in xs:
        got = sandwiched_rel_ent_diff_grid(x, SANDWICHED_ALPHA_GRID, strict=False)
        assert max(abs(g - w) for g, w in zip(got, want)) <= BUDGET


def _within(got, want, budgets):
    return all(abs(g - w) <= b for g, w, b in zip(got, want, budgets))


@pytest.mark.parametrize("sandwiched", [False, True], ids=["plain", "sandwiched"])
def test_trace_value(readings, sandwiched):
    xs, exact = readings
    orders = SANDWICHED_ALPHA_GRID if sandwiched else PETZ_ALPHA_GRID
    want = [mo.channel_trace_value(exact, a, sandwiched) for a in orders]
    for x in xs:
        got = fn.channel_trace_value_grid(x, orders, sandwiched)
        assert _within(got, want, [BUDGET] * len(orders))


def test_lie_trotter_deviation(readings):
    xs, exact = readings
    want = [mo.lie_trotter_deviation(exact, a) for a in TROTTER_ORDERS]
    budgets = [2e-15 / abs(1.0 - a) for a in TROTTER_ORDERS]
    for x in xs:
        assert _within(fn.lie_trotter_deviation_grid(x, TROTTER_ORDERS), want, budgets)


@pytest.mark.parametrize("grid, oracle, orders", [
    (fn.recovery_fixed_point_residual_grid, mo.fixed_point_residual, PETZ_ALPHA_GRID),
    (fn.sandwiched_fixed_point_residual_grid,
     lambda x, a: mo.fixed_point_residual(x, a, sandwiched=True), SANDWICHED_ALPHA_GRID),
    (fn.output_fixed_point_residual_grid, mo.output_fixed_point_residual, PETZ_ALPHA_GRID),
], ids=["recovery", "sandwiched", "output"])
def test_fixed_point_residual(readings, grid, oracle, orders):
    xs, exact = readings
    got = grid(xs[-1], orders)  # the triple reading
    assert _within(got, [oracle(exact, a) for a in orders], [BUDGET] * len(orders))


def test_lie_trotter_deviation_stays_on_a_rank_deficient_chain():
    # the closed bracket is zero on its kernel, where exp_log_sum is 1, so
    # the gap does not vanish as alpha -> 1 unless the inputs are positive
    # definite: on the chain it is 1 - 1e-7 at every order, at 50 digits too
    state = _product_state()
    exact = mo.MpTriple(cmi_as_triple(state))
    want = [mo.lie_trotter_deviation(exact, a) for a in TROTTER_ORDERS]
    assert all(abs(w - (1.0 - 1e-7)) <= 1e-15 for w in want)
    for x in (state, cmi_as_triple(state)):
        got = fn.lie_trotter_deviation_grid(x, TROTTER_ORDERS)
        assert _within(got, want, [1e-14] * len(TROTTER_ORDERS))


@pytest.mark.parametrize("sandwiched", [False, True], ids=["plain", "sandwiched"])
def test_chain_trace_value_at_three(sandwiched):
    state = _product_state()
    exact = mo.MpTriple(cmi_as_triple(state))
    want = mo.channel_trace_value(exact, 3.0, sandwiched)
    assert abs(want - 1.0) <= 1e-15
    for x in (state, cmi_as_triple(state)):
        assert abs(fn.channel_trace_value(x, 3.0, sandwiched) - want) <= 5e-9


def _golden_pairs():
    """The golden 4 -> 3 triple's inputs and its outputs, the latter with the
    triple's decompositions, as the inequality suite hands them over."""
    x = _golden_4to3()
    return [(x.rho, x.sigma), (Decomposed(x.out_rho, x.out_rho_spectrum),
                               Decomposed(x.out_sigma, x.out_sigma_spectrum))]


@pytest.mark.parametrize("grid, oracle, orders", [
    (renyi_rel_entropy_grid, mo.renyi_rel_entropy, PETZ_ALPHA_GRID),
    (sandwiched_rel_entropy_grid, mo.sandwiched_rel_entropy, SANDWICHED_ALPHA_GRID),
], ids=["renyi", "sandwiched"])
def test_divergences_of_the_golden_pairs(grid, oracle, orders):
    for rho, sigma in _golden_pairs():
        want = [oracle(rho.matrix, sigma.matrix, a) for a in orders]
        assert _within(grid(rho, sigma, orders), want, [BUDGET] * len(orders))


def test_sandwiched_divergence_of_nearly_singular_states():
    orders = (0.6, 0.75, 0.9)
    values = np.diag([0.6, 0.4 - 2e-10, 1e-10, 1e-10])
    for k in range(12):
        u = random_unitary(4, seed=k)
        rho = DensityOperator(u @ values @ u.conj().T)
        sigma = random_density((4,), seed=100 + k)
        want = [mo.sandwiched_rel_entropy(rho.matrix, sigma.matrix, a) for a in orders]
        assert _within(sandwiched_rel_entropy_grid(rho, sigma, orders), want, [2e-12] * 3)


# cases whose operators split into blocks; a 50-digit order takes seconds on
# the 32-dimensional CMI triple and 0.3 s on the 16-dimensional chain, so
# they are read at one order and at every other order of each grid
SPLIT_CASES = {
    "cmi-442": (lambda: TripartiteState(random_density((4, 4, 2), seed=1)), (0.5,), (2.0,)),
    "markov-blocks": (
        lambda: build_markov_chain(random_markov_spec(2, 2, [(1, 2), (2, 1)], seed=3)),
        PETZ_ALPHA_GRID[::2], SANDWICHED_ALPHA_GRID[::2]),
    "sufficiency-blocks": (
        lambda: build_sufficiency_triple(random_sufficiency_spec([(2, 3, 2), (2, 2, 2)], seed=4)),
        PETZ_ALPHA_GRID, SANDWICHED_ALPHA_GRID),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_block_split_against_50_digits(case, monkeypatch):
    make, petz, sandwiched = SPLIT_CASES[case]
    monkeypatch.setattr(linalg, "EIGH_SPLIT_MIN", 1)
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    x = make()
    triple = cmi_as_triple(x) if isinstance(x, TripartiteState) else x
    exact = mo.MpTriple(triple)
    for orders, grid, oracle in ((petz, renyi_rel_ent_diff_grid, mo.renyi_rel_ent_diff),
                                 (sandwiched, sandwiched_rel_ent_diff_grid,
                                  mo.sandwiched_rel_ent_diff)):
        want = [oracle(exact, a) for a in orders]
        for y in {id(x): x, id(triple): triple}.values():
            assert _within(grid(y, orders, strict=False), want, [BUDGET] * len(orders))
    # sigma splits, and the library's decompositions went block by block
    assert linalg._blocks(linalg.hermitian_part(triple.sigma.matrix)) is not None
    assert any(len(shape) == 3 for shape in shapes)
