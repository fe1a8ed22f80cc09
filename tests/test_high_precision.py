"""Both Renyi differences against a 50-digit evaluation (``mp_oracles``).

On the golden CMI triple (both readings), the golden 4 -> 3 triple and the
CMI triple of a rank-deficient Markov chain, every value at the certified
grid orders lies within 2e-13 of the 50-digit value of the dense formula.
"""

import pytest

import mp_oracles as mo
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
from test_grids import _product_state

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
