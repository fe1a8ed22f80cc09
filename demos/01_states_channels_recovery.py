#!/usr/bin/env python3
# States, channels, and the Petz recovery map.
#
# Walks through the basic objects: build a random two-qubit state, trace out
# half of it, and then undo the damage (exactly where that is possible) with
# the recovery map built from a reference state.

import numpy as np

import qmarkov as qm

rng_seed = 7

# A full-rank two-qubit state and its marginals
rho = qm.random_density((2, 2), seed=rng_seed)
print("two-qubit state, eigenvalues:", np.round(np.sort(rho.eigenvalues), 4))

rho_b = qm.partial_trace(rho.matrix, (2, 2), {0})
print("reduced state on B:\n", np.round(rho_b.real, 4))

# Channels are Kraus families.  Tracing out A is itself a channel:
trace_a = qm.partial_trace_channel((2, 2), {0})
print("partial trace is trace preserving:",
      np.allclose(np.trace(qm.apply_channel(trace_a, rho.matrix)), 1.0))

# The adjoint of a channel is unital: it sends the identity to the identity.
print("adjoint unitality:",
      np.allclose(qm.adjoint_apply(trace_a, np.eye(2)), np.eye(4)))

# The Petz recovery map of (sigma, N) undoes N on sigma always, and on
# everything else exactly when N keeps enough information.  It is read from
# a ChannelTriple (rho, sigma, N): triple.recovered is R(N(rho)), and
# is_sufficient_petz returns both round-trip distances.
sigma = qm.random_density((2, 2), seed=rng_seed + 1)
ok, d_rho, d_sigma = qm.is_sufficient_petz(qm.ChannelTriple(rho, sigma, trace_a))
print("recovery restores its own reference:", d_sigma < 1e-10)
print("but a generic state is damaged, trace distance:", round(d_rho, 4))
print("so tracing out A is not sufficient for (rho, sigma):", not ok)
