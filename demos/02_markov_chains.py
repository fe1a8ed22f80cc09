#!/usr/bin/env python3
# Short quantum Markov chains: zero conditional mutual information in every
# flavor, and perfect recovery of the lost system from the middle one.
#
# A Markov chain A-C-B is assembled as a direct sum over a splitting of C
# into left/right factors, with one product state per block.  Conditional
# mutual information vanishes identically on such states, in the von
# Neumann, Renyi, sandwiched, and min/max versions alike.

import numpy as np

import qmarkov as qm

spec = qm.random_markov_spec(dim_a=2, dim_b=2, block_dims=((2, 1), (1, 2)), seed=11)
chain = qm.build_markov_chain(spec)
print("dims (A, B, C):", chain.dims)
print("state is positive definite:", chain.is_positive_definite())

print("\nconditional mutual information, all flavors:")
print(f"  von Neumann     {qm.von_neumann_cmi(chain):+.2e}")
for a in (0.5, 1.5):
    print(f"  Renyi {a:<4}      {qm.renyi_cmi(chain, a):+.2e}")
for a in (0.75, 2.0):
    print(f"  sandwiched {a:<4} {qm.sandwiched_cmi(chain, a):+.2e}")
print(f"  min             {qm.minmax_cmi(chain, 'min'):+.2e}")
print(f"  max             {qm.minmax_cmi(chain, 'max'):+.2e}")

ok, distance = qm.is_markov_petz(chain)
print("\nPetz recovery of A from C alone, trace-norm error:", f"{distance:.2e}")

# Contrast: classically correlated A and B with a trivial C.  Nothing about
# C can mediate the correlation, so recovery fails and the measures are
# pinned at one bit.
ab = np.zeros((4, 4))
ab[0, 0] = ab[3, 3] = 0.5
corr = qm.TripartiteState(qm.DensityOperator(np.kron(ab, np.diag([1.0, 0.0])), (2, 2, 2)))
print("\ncorrelated pair with spectator C:")
print("  von Neumann CMI:", qm.von_neumann_cmi(corr))
print("  Renyi CMI (order 0.5):", qm.renyi_cmi(corr, 0.5))
ok, distance = qm.is_markov_petz(corr)
print("  Petz recovery error:", round(distance, 3), "-> recoverable:", ok)

# The log identity is another face of the same structure:
# log rho_ABC = log rho_AC + log rho_BC - log rho_C exactly on chains.
residual = qm.log_identity_residual(qm.cmi_as_triple(chain))
print("\nlogarithm identity residual on the chain:", f"{residual:.2e}")
