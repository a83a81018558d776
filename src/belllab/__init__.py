"""Conditional two-particle entanglement toolkit for triorthogonal n-qubit states."""

from .qlinalg import (
    BadNorm,
    BadSubset,
    DensityMatrix,
    NotHermitian,
    NumericalFault,
    PureState,
    hermitian_eigen,
    spin_operator,
    tensor_product,
)
from .states import (
    ConditionalResult,
    Direction,
    TriorthogonalSpec,
    ZeroProbability,
    born_table,
    branch_probability,
    branch_selection,
    condition_on,
    conditional_closed_form,
    make_triorthogonal,
    reduced_density,
)
from .correlations import (
    DimensionMismatch,
    born_table_correlation,
    conditional_correlation_closed,
    correlation_tensor_closed,
    expectation,
)
from .bell import (
    bell_operator,
    chsh_condition_lhs,
    chsh_horodecki_max,
    chsh_operator,
    chsh_special_case_lhs,
    flip_first_particle,
    hardy_maximum,
    hardy_operator,
    included_angle,
    lambda_closed,
    maximal_family,
    optimize_settings,
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
