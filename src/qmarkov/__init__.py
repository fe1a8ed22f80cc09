"""Quantum Markov chains, channel sufficiency, and Renyi information measures.

A numpy-backed toolkit for conditional mutual information and
relative-entropy differences in von Neumann, Renyi, sandwiched, and min/max
flavors, the Petz recovery map, constructors for exactly recoverable
instances, and verification suites that certify the trace inequalities and
equality characterizations these measures satisfy.  All entropic quantities
are in bits.
"""

from .channels import (
    Channel,
    adjoint_apply,
    apply_channel,
    is_strict_cptp,
    partial_trace_channel,
    random_channel,
    random_strict_channel,
    random_unitary,
)
from .divergences import (
    AlphaParameter,
    max_rel_entropy,
    min_rel_entropy,
    rel_entropy,
    von_neumann_entropy,
)
from .errors import (
    DimensionMismatchError,
    InfiniteTermError,
    MatrixFunctionDomainError,
    NonHermitianError,
    NotStrictError,
    QmarkovError,
    RankDeficientError,
    ValidationError,
)
from .functionals import (
    channel_trace_value,
    channel_trace_value_grid,
    exp_trace_channel_value,
    lie_trotter_deviation,
    lie_trotter_deviation_grid,
    log_identity_residual,
    output_fixed_point_residual,
    output_fixed_point_residual_grid,
    recovery_fixed_point_residual,
    recovery_fixed_point_residual_grid,
    sandwiched_fixed_point_residual,
    sandwiched_fixed_point_residual_grid,
)
from .linalg import (
    SpectralDecomposition,
    alpha_norm,
    embed_operator,
    herm_exp,
    herm_pow,
    hermitian_eig,
    kron,
    partial_trace,
    spectral_norm,
)
from .measures import (
    PETZ_ALPHA_GRID,
    SANDWICHED_ALPHA_GRID,
    ChannelTriple,
    TripartiteState,
    cmi_as_triple,
    minmax_cmi,
    minmax_rel_ent_diff,
    rel_ent_diff,
    renyi_cmi,
    renyi_rel_ent_diff,
    renyi_rel_ent_diff_grid,
    renyi_rel_entropy,
    renyi_rel_entropy_grid,
    sandwiched_cmi,
    sandwiched_rel_ent_diff,
    sandwiched_rel_ent_diff_grid,
    sandwiched_rel_entropy,
    sandwiched_rel_entropy_grid,
    von_neumann_cmi,
)
from .serialization import (
    load_channel,
    load_markov_spec,
    load_state,
    load_sufficiency_spec,
    save_channel,
    save_markov_spec,
    save_state,
    save_sufficiency_spec,
)
from .states import (
    DensityOperator,
    PositiveOperator,
    fidelity,
    perturb_positive,
    random_density,
    trace_distance,
)
from .structured import (
    MarkovBlock,
    MarkovBlockSpec,
    SufficiencyBlock,
    SufficiencyBlockSpec,
    build_markov_chain,
    build_sufficiency_triple,
    is_markov_petz,
    is_sufficient_petz,
    random_markov_spec,
    random_sufficiency_spec,
)
from .suites import (
    SuiteConfig,
    VerificationReport,
    characterization_suite,
    inequality_suite,
    limit_suite,
    run_suite,
    run_suites,
    trace_inequality_suite,
)

__version__ = "0.1.0"
