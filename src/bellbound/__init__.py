"""Certified upper bounds on quantum violations of bipartite Bell inequalities.

The package analyzes pure bipartite states: Schmidt decompositions, explicit
multi-copy source operators with verifiable dilation properties, closed-form
violation bounds (Schmidt-coefficient, dimension, and projective variants),
the four entangled binary-coherent-state families, exact classical extrema of
finite Bell functionals, and a see-saw search whose findings are certified
against the bounds.
"""

from .bell import (
    Assemblage,
    BellFunctional,
    LhvExtrema,
    OutcomeSet,
    ViolationReport,
    bell_value,
    certify,
    chsh_functional,
    lhv_extrema,
    quantum_probabilities,
    seesaw_maximize,
    strategy_value,
)
from .bounds import (
    INFINITE,
    BoundReport,
    bound_report,
    dimension_settings_bound,
    projective_bound,
    quantum_band,
    schmidt_settings_bound,
    schmidt_sum_bound,
)
from .coherent import (
    CoherentFamily,
    FockTruncation,
    TwoModeAmplitudes,
    bell_limit_fidelity,
    bound_curve,
    coherent_fock_vector,
    coherent_violation_bound,
    fock_state,
    fock_truncation,
    gram_schmidt_basis,
    reduced_eigenvalues,
    two_mode_amplitudes,
)
from .errors import (
    BellboundError,
    CapacityError,
    DegeneracyError,
    UnsupportedFunctionalError,
    ValidationError,
)
from .qstate import (
    DensityOperator,
    PureState,
    SchmidtData,
    bell_like_state,
    reconstruct,
    reduced_state,
    schmidt_decompose,
    schmidt_sum_squared,
)
from .serialize import source_operator_from_json, source_operator_to_json
from .source_op import (
    SourceOperator,
    build_source_1xs,
    build_source_sx1,
    max_tensor_dim,
    trace_norm,
    verify_dilation,
)

__version__ = "0.1.0"

__all__ = [
    "Assemblage",
    "BellFunctional",
    "BellboundError",
    "BoundReport",
    "CapacityError",
    "CoherentFamily",
    "DegeneracyError",
    "DensityOperator",
    "FockTruncation",
    "INFINITE",
    "LhvExtrema",
    "OutcomeSet",
    "PureState",
    "SchmidtData",
    "SourceOperator",
    "TwoModeAmplitudes",
    "UnsupportedFunctionalError",
    "ValidationError",
    "ViolationReport",
    "bell_like_state",
    "bell_limit_fidelity",
    "bell_value",
    "bound_curve",
    "bound_report",
    "build_source_1xs",
    "build_source_sx1",
    "certify",
    "chsh_functional",
    "coherent_fock_vector",
    "coherent_violation_bound",
    "dimension_settings_bound",
    "fock_state",
    "fock_truncation",
    "gram_schmidt_basis",
    "lhv_extrema",
    "max_tensor_dim",
    "projective_bound",
    "quantum_band",
    "quantum_probabilities",
    "reconstruct",
    "reduced_eigenvalues",
    "reduced_state",
    "schmidt_decompose",
    "schmidt_settings_bound",
    "schmidt_sum_bound",
    "schmidt_sum_squared",
    "seesaw_maximize",
    "source_operator_from_json",
    "source_operator_to_json",
    "strategy_value",
    "trace_norm",
    "two_mode_amplitudes",
    "verify_dilation",
]
