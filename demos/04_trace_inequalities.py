#!/usr/bin/env python3
# The trace bounds behind non-negativity.
#
# Each Renyi difference measure is (1/(alpha-1)) log of a trace functional,
# so non-negativity is equivalent to that trace staying at or below one
# (at or above one for alpha < 1 -- the log prefactor flips).  This samples
# the functionals over random states and channels and reports how close to
# the bound they come; recoverable instances saturate it exactly.

import numpy as np

import qmarkov as qm
from qmarkov.functionals import channel_trace_value, exp_trace_channel_value

ORDERS = (0.25, 0.5, 0.75, 1.25, 1.5, 1.75)
TRIALS = 200

print(f"{TRIALS} random three-qubit states, marginal-chain trace:")
values = []
for seed in range(TRIALS):
    state = qm.TripartiteState(qm.random_density((2, 2, 2), seed=seed))
    values.extend(channel_trace_value(state, a) for a in ORDERS)
values = np.array(values)
print(f"  max {values.max():.6f}  mean {values.mean():.4f}  (bound: 1)")

print(f"\n{TRIALS} random triples with strict channels (4 -> 3):")
values = []
for seed in range(TRIALS):
    triple = qm.ChannelTriple(
        rho=qm.random_density((4,), seed=seed),
        sigma=qm.PositiveOperator(qm.random_density((4,), seed=seed + 1000).matrix),
        channel=qm.random_strict_channel(4, 3, seed=seed),
    )
    values.extend(channel_trace_value(triple, a) for a in ORDERS)
values = np.array(values)
print(f"  max {values.max():.6f}  mean {values.mean():.4f}  (bound: 1)")

# The alpha -> 1 limit of the same bound is an exponential-of-logs trace.
state = qm.TripartiteState(qm.random_density((2, 2, 2), seed=0))
print("\nexponential trace, marginal form:  ", f"{exp_trace_channel_value(state):.6f}")
triple = qm.ChannelTriple(
    rho=qm.random_density((4,), seed=1),
    sigma=qm.PositiveOperator(qm.random_density((4,), seed=2).matrix),
    channel=qm.random_strict_channel(4, 3, seed=3),
)
print("exponential trace, channel form:   ", f"{exp_trace_channel_value(triple):.6f}")

# Markov chains pin every one of these traces exactly at one.
chain = qm.build_markov_chain(qm.random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=4))
gaps = [abs(channel_trace_value(chain, a) - 1.0) for a in ORDERS]
print("\nMarkov chain saturation, worst |trace - 1|:", f"{max(gaps):.2e}")
