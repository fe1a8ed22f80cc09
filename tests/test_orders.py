"""Every public function that takes a Renyi order checks it.

The order is checked by ``as_alpha`` before anything is evaluated: an order
that is not a positive finite number, or lies within 1e-6 of 1, raises
``ValidationError("bad-spec")``.  ``ORDER_FUNCTIONS`` lists every public
``qmarkov`` function with an order parameter (``a``, ``alpha`` or
``alphas``), and a test keeps the list complete, so a new function cannot
skip the check: a public function with such a parameter is either in it or
in ``NOT_ORDERS``.
"""

import inspect

import pytest

import qmarkov
from qmarkov.divergences import as_alpha
from qmarkov.errors import ValidationError
from qmarkov.measures import PETZ_ALPHA_GRID, SANDWICHED_ALPHA_GRID, cmi_as_triple
from qmarkov.states import random_density

ORDER_PARAMETERS = {"a", "alpha", "alphas"}

# name -> what the function reads: a state, a triple, or a (rho, sigma) pair
ORDER_FUNCTIONS = {
    "renyi_rel_entropy": "pair",
    "renyi_rel_entropy_grid": "pair",
    "sandwiched_rel_entropy": "pair",
    "sandwiched_rel_entropy_grid": "pair",
    "renyi_cmi": "state",
    "sandwiched_cmi": "state",
    "renyi_rel_ent_diff": "triple",
    "renyi_rel_ent_diff_grid": "triple",
    "sandwiched_rel_ent_diff": "triple",
    "sandwiched_rel_ent_diff_grid": "triple",
    "channel_trace_value": "triple",
    "channel_trace_value_grid": "triple",
    "lie_trotter_deviation": "triple",
    "lie_trotter_deviation_grid": "triple",
    "recovery_fixed_point_residual": "triple",
    "recovery_fixed_point_residual_grid": "triple",
    "sandwiched_fixed_point_residual": "triple",
    "sandwiched_fixed_point_residual_grid": "triple",
    "output_fixed_point_residual": "triple",
    "output_fixed_point_residual_grid": "triple",
}

# functions whose ``a`` or ``alpha`` is not a Renyi order
NOT_ORDERS = {
    "alpha_norm": "a Schatten index, at which alpha = 1 is the trace norm",
    "apply_channel": "an operator",
    "kron": "an operator",
    "trace_distance": "an operator",
}

# alpha = 1 divided by zero in the functionals, alpha = 0 in their sandwiched
# forms and the output fixed point, and the trace value at -0.5 was 1.003,
# above its bound of 1
BAD_ORDERS = [1.0, 0.0, -0.5, 1.0 + 1e-7, float("nan"), float("inf"), "x", None]


def _inputs(kind):
    state = qmarkov.TripartiteState(random_density((2, 2, 2), seed=7))
    if kind == "state":
        return (state,)
    triple = cmi_as_triple(state)
    if kind == "triple":
        return (triple,)
    return (triple.rho, triple.sigma)


def _call(name, order):
    fn = getattr(qmarkov, name)
    orders = (0.5, order) if name.endswith("_grid") else order
    return fn(*_inputs(ORDER_FUNCTIONS[name]), orders)


def test_the_list_is_complete():
    found = set()
    for name in dir(qmarkov):
        obj = getattr(qmarkov, name)
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if ORDER_PARAMETERS & set(inspect.signature(obj).parameters):
            found.add(name)
    assert found - set(NOT_ORDERS) == set(ORDER_FUNCTIONS)
    assert len(ORDER_FUNCTIONS) == 20


@pytest.mark.parametrize("order", BAD_ORDERS, ids=repr)
@pytest.mark.parametrize("name", sorted(ORDER_FUNCTIONS))
def test_bad_order_is_a_validation_error(name, order):
    with pytest.raises(ValidationError) as info:
        _call(name, order)
    assert info.value.reason == "bad-spec"


@pytest.mark.parametrize("order", sorted(set(
    PETZ_ALPHA_GRID + SANDWICHED_ALPHA_GRID + (0.5, 2.0)
    + tuple(1.0 + s * 10.0**-k for s in (-1.0, 1.0) for k in range(1, 5))
)))
def test_the_orders_the_suites_and_demos_read_are_valid(order):
    assert as_alpha(order).alpha == order
