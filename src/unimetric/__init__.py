"""Metrics and pseudometrics on groups of unitary operators.

The sup-metric over states has a closed form through the eigenvalue arc
of the relative operator; around it sit per-state pseudometrics, subset
pseudometrics (faces, separable states), Pauli stabilizer extraction,
and a search-as-approximation analysis.

Exported names and submodules load on first access (PEP 562), so
``import unimetric`` imports no submodule and a caller pays only for
the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name and the submodule that defines it
_EXPORTS = {
    "DensityState": "linalg",
    "DistinguishabilityResult": "metrics",
    "MetricResult": "metrics",
    "NullSpaceResult": "subsets",
    "PauliElement": "pauli",
    "PauliSubgroup": "pauli",
    "SearchProblem": "search",
    "SeparableProblem": "subsets",
    "SpectralArc": "circlegeom",
    "SubspaceFace": "subsets",
    "UnimetricError": "errors",
    "UnitaryOperator": "linalg",
    "WitnessWeights": "circlegeom",
    "build_operators": "search",
    "check_sandwich": "metrics",
    "d_psi": "metrics",
    "d_rho": "metrics",
    "distance_after_k": "search",
    "distance_from_arc": "circlegeom",
    "distinguishability": "metrics",
    "face_distance": "subsets",
    "haar_random_unitary": "linalg",
    "kron": "linalg",
    "load_matrix": "linalg",
    "matrix_from_json": "linalg",
    "matrix_to_json": "linalg",
    "minimal_k": "search",
    "null_space": "subsets",
    "numrange_origin_distance": "numrange",
    "parse_pauli": "pauli",
    "pauli_distance": "pauli",
    "pauli_product": "pauli",
    "polygon_distance_to_origin": "circlegeom",
    "save_matrix": "linalg",
    "schatten_norm": "linalg",
    "schatten_sup_distance": "metrics",
    "separable_distance": "subsets",
    "smallest_covering_arc": "circlegeom",
    "stabilizer_subspace": "pauli",
    "sup_distance": "metrics",
    "tensor_distance": "metrics",
    "trace_distance": "linalg",
    "validate_unitary": "linalg",
}

_SUBMODULES = frozenset(_EXPORTS.values()) | {"acceptance", "cli"}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _EXPORTS.keys() | _SUBMODULES)
