"""Metrics and pseudometrics on groups of unitary operators.

The sup-metric over states has a closed form through the eigenvalue arc
of the relative operator; around it sit per-state pseudometrics, subset
pseudometrics (faces, separable states), Pauli stabilizer extraction,
and a search-as-approximation analysis.
"""

from .circlegeom import (
    SpectralArc,
    WitnessWeights,
    distance_from_arc,
    polygon_distance_to_origin,
    smallest_covering_arc,
)
from .errors import UnimetricError
from .linalg import (
    DensityState,
    UnitaryOperator,
    haar_random_unitary,
    kron,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    save_matrix,
    schatten_norm,
    trace_distance,
    validate_unitary,
)
from .metrics import (
    DistinguishabilityResult,
    MetricResult,
    check_sandwich,
    d_psi,
    d_rho,
    distinguishability,
    schatten_sup_distance,
    sup_distance,
    tensor_distance,
)
from .numrange import numrange_origin_distance
from .pauli import (
    PauliElement,
    PauliSubgroup,
    parse_pauli,
    pauli_distance,
    pauli_product,
    stabilizer_subspace,
)
from .search import SearchProblem, build_operators, distance_after_k, minimal_k
from .subsets import (
    NullSpaceResult,
    SeparableProblem,
    SubspaceFace,
    face_distance,
    null_space,
    separable_distance,
)

__version__ = "0.1.0"

__all__ = [
    "DensityState",
    "DistinguishabilityResult",
    "MetricResult",
    "NullSpaceResult",
    "PauliElement",
    "PauliSubgroup",
    "SearchProblem",
    "SeparableProblem",
    "SpectralArc",
    "SubspaceFace",
    "UnimetricError",
    "UnitaryOperator",
    "WitnessWeights",
    "build_operators",
    "check_sandwich",
    "d_psi",
    "d_rho",
    "distance_after_k",
    "distance_from_arc",
    "distinguishability",
    "face_distance",
    "haar_random_unitary",
    "kron",
    "load_matrix",
    "matrix_from_json",
    "matrix_to_json",
    "minimal_k",
    "null_space",
    "numrange_origin_distance",
    "parse_pauli",
    "pauli_distance",
    "pauli_product",
    "polygon_distance_to_origin",
    "save_matrix",
    "schatten_norm",
    "schatten_sup_distance",
    "separable_distance",
    "smallest_covering_arc",
    "stabilizer_subspace",
    "sup_distance",
    "tensor_distance",
    "trace_distance",
    "validate_unitary",
]
