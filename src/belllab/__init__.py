"""Conditional two-particle entanglement toolkit for triorthogonal n-qubit states."""

from .qlinalg import (
    BadNorm,
    BadSubset,
    DensityMatrix,
    NotHermitian,
    NumericalFault,
    PureState,
    hermitian_eigen,
    partial_trace,
    spin_operator,
    tensor_product,
)
from .states import (
    ConditionalResult,
    Direction,
    TriorthogonalSpec,
    ZeroProbability,
    branch_probability,
    branch_selection,
    condition_on,
    conditional_closed_form,
    make_triorthogonal,
    reduced_density,
)
from .correlations import (
    DimensionMismatch,
    conditional_correlation_closed,
    correlation_tensor,
    expectation,
    spin_product_operator,
)
from .bell import (
    ChshSettings,
    HardySettings,
    bell_operator,
    chsh_condition_lhs,
    chsh_horodecki_max,
    chsh_operator,
    chsh_special_case_lhs,
    flip_first_particle,
    hardy_operator,
    included_angle,
    lambda_closed,
    maximal_family,
    optimize_settings,
    oriented_included_angles,
    singlet_equality_lhs,
    triplet_equality_lhs,
)
from .experiment import (
    EmptySubensemble,
    SubensembleStats,
    outcome_probabilities,
    postselect,
    sample_shots,
)

__all__ = [name for name in dir() if not name.startswith("_")]
