"""Independent checks of the program's outputs.

Every check recomputes what it needs with plain numpy, apart from the
package's own code paths: arcs come from ``numpy.linalg.eigvals`` (a
general eigensolver, not the package's Hermitian split), overlaps are
evaluated directly, and stabilizer generators are rebuilt here from the
Pauli matrices.  Nothing is compared with a stored copy of an earlier
output.  A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

VERDICT_TOL = 1e-9  # distinguishable exactly when d >= 1 - VERDICT_TOL
WITNESS_OVERLAP_TOL = 1e-8
SUBSET_TOL = 1e-6
NORM_TOL = 1e-9

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class CheckError(Exception):
    """An output disagrees with its independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def value_tol(n: int) -> float:
    """Tolerance on a closed-form distance; eigenvalue error grows with n."""
    return 1e-11 * n


def arc_length(angles) -> float:
    """Length of the smallest arc holding every angle (2pi minus the widest gap)."""
    a = np.sort(np.mod(np.asarray(angles, dtype=float), 2 * math.pi))
    if a.size < 2:
        return 0.0
    gaps = np.diff(a, append=a[0] + 2 * math.pi)
    return float(2 * math.pi - gaps.max())


def distance_of_arc(alpha: float) -> float:
    return 1.0 if alpha >= math.pi else math.sin(alpha / 2)


def reference_arc(u: np.ndarray, v: np.ndarray) -> float:
    """Covering arc of the eigenvalues of U'V, from a general eigensolver."""
    return arc_length(np.angle(np.linalg.eigvals(u.conj().T @ v)))


def overlap_distance(w: np.ndarray, psi: np.ndarray) -> float:
    """sqrt(1 - |<psi|W|psi>|^2), evaluated directly."""
    m = complex(np.vdot(psi, w @ psi))
    return math.sqrt(max(0.0, 1.0 - abs(m) ** 2))


def check_unit(psi, n: int, what: str) -> np.ndarray:
    _require(psi is not None, f"{what} is missing")
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    _require(vec.size == n, f"{what} has dimension {vec.size}, expected {n}")
    _require(abs(np.linalg.norm(vec) - 1.0) <= NORM_TOL, f"{what} is not a unit vector")
    return vec


def check_value(value: float, expected: float, tol: float, what: str) -> None:
    _require(
        abs(value - expected) <= tol,
        f"{what} = {value!r}, expected {expected!r} (tolerance {tol:.1e})",
    )


def check_symmetric(d_uv: float, d_vu: float) -> None:
    _require(d_uv == d_vu, f"d(U, V) = {d_uv!r} but d(V, U) = {d_vu!r}")


def check_sup(u, v, value: float, maximizer, expected_alpha: float | None = None) -> None:
    """Closed-form d against the eigvals arc, the constructed arc and its maximizer."""
    n = u.shape[0]
    tol = value_tol(n)
    check_value(value, distance_of_arc(reference_arc(u, v)), tol, "d from the eigvals arc")
    if expected_alpha is not None:
        check_value(value, distance_of_arc(expected_alpha), tol, "d from the constructed arc")
    vec = check_unit(maximizer, n, "maximizer")
    # 1 - |m|^2 loses digits as |m| -> 1, so this tolerance is looser
    check_value(
        overlap_distance(u.conj().T @ v, vec), value, math.sqrt(n) * 1e-7, "d at the maximizer"
    )


def check_distinguishability(
    u,
    v,
    distinguishable: bool,
    value: float,
    witness,
    min_overlap_bound,
    expected_alpha: float | None = None,
) -> None:
    """Verdict, witness overlap and overlap bound of a distinguishability report."""
    n = u.shape[0]
    tol = value_tol(n)
    alpha = reference_arc(u, v)
    check_value(value, distance_of_arc(alpha), tol, "d from the eigvals arc")
    if expected_alpha is not None:
        check_value(value, distance_of_arc(expected_alpha), tol, "d from the constructed arc")
    _require(
        bool(distinguishable) == (value >= 1.0 - VERDICT_TOL),
        f"verdict {distinguishable} disagrees with d = {value!r}",
    )
    if distinguishable:
        vec = check_unit(witness, n, "witness")
        overlap = abs(complex(np.vdot(u @ vec, v @ vec)))
        _require(
            overlap <= WITNESS_OVERLAP_TOL,
            f"witness overlap {overlap:.3e} exceeds {WITNESS_OVERLAP_TOL:.0e}",
        )
    else:
        _require(min_overlap_bound is not None, "min_overlap_bound is missing")
        check_value(min_overlap_bound, math.cos(alpha / 2), tol, "min_overlap_bound")


def factor_margin(w_factor: np.ndarray) -> float:
    """Distance from 0 to the numerical range of a unitary factor.

    The range of a normal matrix is the hull of its eigenvalues, so the
    distance is cos(alpha/2) below a semicircle and 0 from there on.
    """
    alpha = arc_length(np.angle(np.linalg.eigvals(w_factor)))
    return 0.0 if alpha >= math.pi else math.cos(alpha / 2)


def check_subset(
    u,
    v,
    value: float,
    maximizer,
    dims: tuple[int, int] | None = None,
    face=None,
    expected: float | None = None,
) -> None:
    """A separable or face value: bounded by d, achieved by an admissible state.

    ``dims`` marks a separable result, whose maximizer must be a product
    state; ``face`` (orthonormal columns) marks a face result, whose
    maximizer must lie in the face.  ``expected`` is the closed value of
    an engineered input.
    """
    n = u.shape[0]
    full = distance_of_arc(reference_arc(u, v))
    _require(value <= full + SUBSET_TOL, f"value {value!r} exceeds the full-space d {full!r}")
    vec = check_unit(maximizer, n, "maximizer")
    if dims is not None:
        sv = np.linalg.svd(vec.reshape(dims), compute_uv=False)
        _require(sv[1] <= 1e-8, f"maximizer is not a product state (Schmidt value {sv[1]:.3e})")
    if face is not None:
        outside = np.linalg.norm(vec - face @ (face.conj().T @ vec))
        _require(outside <= 1e-8, f"maximizer leaves the face by {outside:.3e}")
    check_value(overlap_distance(u.conj().T @ v, vec), value, SUBSET_TOL, "value at the maximizer")
    if expected is not None:
        check_value(value, expected, SUBSET_TOL, "value of the engineered input")


def pauli_matrix(letters: str) -> np.ndarray:
    return reduce(np.kron, (PAULI[c] for c in letters))


def check_stabilizer(faces, generators: list[str], expected_faces: int) -> None:
    """Every face is orthonormal and each generator acts on it as its character.

    ``faces`` holds (basis matrix, list of complex characters) pairs.
    Generators are '+LETTERS' strings, rebuilt here from the Pauli
    matrices.  Character tuples must be distinct and the faces must
    together span the whole space.
    """
    _require(len(faces) == expected_faces, f"{len(faces)} faces, expected {expected_faces}")
    mats = [pauli_matrix(g.lstrip("+")) for g in generators]
    n = mats[0].shape[0]
    seen = set()
    total = 0
    for basis, chars in faces:
        b = np.asarray(basis, dtype=complex)
        _require(b.shape[0] == n, f"face basis has {b.shape[0]} rows, expected {n}")
        gram_dev = np.abs(b.conj().T @ b - np.eye(b.shape[1])).max()
        _require(gram_dev <= 1e-8, f"face basis is not orthonormal ({gram_dev:.3e})")
        _require(len(chars) == len(mats), "one character per generator expected")
        for g, c in zip(mats, chars):
            dev = np.abs(g @ b - c * b).max()
            _require(dev <= 1e-8, f"a generator does not act as its character {c} ({dev:.3e})")
        key = tuple((round(c.real), round(c.imag)) for c in chars)
        _require(key not in seen, f"character tuple {key} repeats")
        seen.add(key)
        total += b.shape[1]
    _require(total == n, f"faces span dimension {total}, expected {n}")


def reference_minimal_k(N: int, epsilon: float) -> int:
    """Smallest k with |cos(alpha + k gamma)| <= epsilon, gamma = alpha = asin(1/sqrt N)."""
    alpha = math.asin(1.0 / math.sqrt(N))
    k = 0
    while abs(math.cos(alpha + k * alpha)) > epsilon:
        k += 1
    return k


def check_search(k: int, achieved: float, N: int, epsilon: float) -> None:
    ref = reference_minimal_k(N, epsilon)
    _require(k == ref, f"search k = {k}, expected {ref}")
    _require(k <= math.ceil((math.pi / 2) * math.sqrt(N)), f"k = {k} exceeds (pi/2) sqrt(N)")
    alpha = math.asin(1.0 / math.sqrt(N))
    check_value(achieved, abs(math.cos(alpha + k * alpha)), 1e-9, "achieved distance")
