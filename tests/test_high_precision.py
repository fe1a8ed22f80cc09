"""Both Renyi differences and the closed-bracket functionals against a
50-digit evaluation (``mp_oracles``).

On the golden CMI triple (both readings), the golden 4 -> 3 triple and the
CMI triple of a rank-deficient Markov chain, every value at the certified
grid orders lies within 2e-13 of the 50-digit value of the dense formula:
the differences, the trace values and the three fixed-point residuals.  The
Lie-Trotter deviation at 1 -+ 10^-k raises the bracket to 1/(1-alpha), up
to 1e4, and stays within 2e-15 per unit of that exponent (9.5e-16 measured).
The chain's plain trace value at alpha = 3 reads sigma^(-1), and
cond(sigma) is 1e7 there: it stays within 5e-9 (1.9e-9 measured), where a
cutoff on the dense bracket made it 1e-7 instead of 1.
"""

import pytest

import mp_oracles as mo
from qmarkov import functionals as fn
from qmarkov.channels import random_strict_channel
from qmarkov.measures import (
    PETZ_ALPHA_GRID,
    SANDWICHED_ALPHA_GRID,
    ChannelTriple,
    TripartiteState,
    cmi_as_triple,
    renyi_rel_ent_diff_grid,
    sandwiched_rel_ent_diff_grid,
)
from qmarkov.states import random_density
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


CASES = {
    "cmi": _golden_state,
    "4to3": _golden_4to3,
    "markov-chain": _product_state,
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


@pytest.mark.parametrize("sandwiched", [False, True], ids=["plain", "sandwiched"])
def test_chain_trace_value_at_three(sandwiched):
    state = _product_state()
    exact = mo.MpTriple(cmi_as_triple(state))
    want = mo.channel_trace_value(exact, 3.0, sandwiched)
    assert abs(want - 1.0) <= 1e-15
    for x in (state, cmi_as_triple(state)):
        assert abs(fn.channel_trace_value(x, 3.0, sandwiched) - want) <= 5e-9
