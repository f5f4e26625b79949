"""Pseudometrics restricted to subsets of the state body.

Two cases have usable structure and are implemented here:

* faces of the density-matrix body, i.e. states supported in a fixed
  subspace, where the supremum reduces to the numerical range of the
  compressed operator;
* separable states on a tensor product, where the extreme points are
  pure product states.  When W is a Kronecker product up to less than
  1e-13, the minimum overlap is the product of the factors'
  numerical-range distances, read from the nearest Kronecker product
  (the product numerical range of Puchala et al., Linear Algebra Appl.
  434, 2011; C. Van Loan and N. Pitsianis, Approximation with Kronecker
  products, 1993), and the factors' witnesses reach it with no restart.
  Otherwise it is approached by alternating exact single-factor
  minimizations, whose restarts stop once the best overlap is below
  1e-13.

Null spaces of commuting unitary families (the states every group
element fixes under conjugation) are computed by simultaneous
diagonalization.  Pauli stabilizer faces do not need it: ``pauli``
splits them exactly from the generators' monomial action.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyGeneratorsError,
    NotAFaceError,
    NotCommutingError,
    OutOfRangeError,
)
from .linalg import (
    _freeze,
    _joint_eigenbasis,
    as_matrix,
    gram_deviation,
    haar_random_state,
    matrix_to_json,
    unitary_matrix,
)
from .metrics import MetricResult, _pair_matrices
from .numrange import numrange_origin_distance

COMMUTATION_TOL = 1e-8
_FACE_TOL = 1e-10
_SUBSET_RESULT_TOL = 1e-6
# an alternation that lowers the objective by less than this ends the run
ALTERNATION_TOL = 1e-10
# an objective below this is the global minimum 0: it ends the run; within
# this of the certified floor, it ends the restarts
_ZERO_OVERLAP = 1e-13


@dataclass(frozen=True)
class SubspaceFace:
    """Orthonormal columns spanning the supporting subspace of a face."""

    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis)
        if b.ndim != 2 or b.shape[1] < 1 or b.shape[1] > b.shape[0]:
            raise NotAFaceError(f"basis must be n x k with 1 <= k <= n, got {b.shape}")
        dev = gram_deviation(b.conj().T @ b)
        if dev > _FACE_TOL:
            raise NotAFaceError(f"basis columns not orthonormal (deviation {dev:.3e})", dev)
        object.__setattr__(self, "basis", _freeze(b))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class SeparableProblem:
    """Bipartite split and optimizer knobs for the separable pseudometric."""

    dim_a: int
    dim_b: int
    restarts: int = 32
    max_alternations: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("dim_a", "dim_b", "restarts", "max_alternations", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise OutOfRangeError(f"{name} must be an integer") from None
        if self.dim_a < 1 or self.dim_b < 1:
            raise OutOfRangeError("dim_a and dim_b must be positive")
        if self.restarts < 1 or self.max_alternations < 1:
            raise OutOfRangeError("restarts and max_alternations must be positive")
        if self.seed < 0:
            raise OutOfRangeError("seed must be nonnegative")


@dataclass(frozen=True)
class NullSpaceResult:
    """Simultaneous eigenbasis of a commuting family, grouped by character.

    ``blocks[i]`` lists the basis columns of the i-th joint eigenspace and
    ``characters[i]`` the unit-modulus eigenvalue of each generator there.
    The null space itself is the convex hull of the per-column projectors.
    """

    common_eigenbasis: np.ndarray
    blocks: tuple[tuple[int, ...], ...]
    characters: tuple[tuple[complex, ...], ...]

    def to_json(self) -> dict:
        return {
            "blocks": [
                {
                    "character": [[c.real, c.imag] for c in chars],
                    "basis_columns": list(cols),
                }
                for cols, chars in zip(self.blocks, self.characters)
            ],
            "basis": matrix_to_json(self.common_eigenbasis),
        }


def _overlap_result(overlap: float, state: np.ndarray) -> MetricResult:
    """Value sqrt(1 - overlap^2), clamped, at ``state`` normalized."""
    value = math.sqrt(min(1.0, max(0.0, 1.0 - overlap * overlap)))
    return MetricResult(
        value=value,
        maximizer=state / np.linalg.norm(state),
        method="optimization",
        tolerance=_SUBSET_RESULT_TOL,
    )


def face_distance(u, v, face) -> MetricResult:
    """Sup of d_rho over states supported in the face's subspace.

    Compresses U'V onto the subspace; the value is
    sqrt(1 - dist(0, F(compression))^2) and the maximizer lifts the
    numerical-range witness back to the ambient space.
    """
    if not isinstance(face, SubspaceFace):
        face = SubspaceFace(face)
    mu, mv = _pair_matrices(u, v)
    if face.ambient_dim != mu.shape[0]:
        raise DimensionMismatchError(
            f"face lives in dimension {face.ambient_dim}, operators in {mu.shape[0]}"
        )
    w = mu.conj().T @ mv
    comp = face.basis.conj().T @ w @ face.basis
    dist, witness = numrange_origin_distance(comp)
    return _overlap_result(dist, face.basis @ witness)


def product_state(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """alpha x beta as a flat vector: np.kron(alpha, beta) bit for bit,
    with each entry one product, at a tenth of its cost."""
    return (alpha[:, None] * beta).ravel()


def product_overlap(w: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> float:
    """|<alpha x beta| W |alpha x beta>| for a bipartite W."""
    vec = product_state(alpha, beta)
    return abs(complex(vec.conj() @ w @ vec))


def alternating_product_minimization(
    w: np.ndarray,
    dim_a: int,
    dim_b: int,
    alpha0: np.ndarray,
    beta0: np.ndarray,
    max_alternations: int,
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    """Minimize |<a x b|W|a x b>| by exact single-factor sweeps.

    Each alternation takes alpha, then beta, from the numerical-range
    witness of W compressed onto the other factor, which minimizes the
    objective over that factor globally; beta reads W through the view
    that swaps the two factors' axes.  Steps that fail to improve
    (degenerate witnesses) are skipped, so the recorded objective
    history, one entry per half step, is nonincreasing.
    """
    w4 = w.reshape(dim_a, dim_b, dim_a, dim_b)
    views = (w4, w4.transpose(1, 0, 3, 2))
    factors = [alpha0, beta0]
    obj = product_overlap(w, alpha0, beta0)
    history = [obj]
    for _ in range(max_alternations):
        prev = obj
        for i, view in enumerate(views):
            other = factors[1 - i]
            comp = np.einsum("j,ijkl,l->ik", other.conj(), view, other)
            _, wit = numrange_origin_distance(comp)
            cand = abs(complex(wit.conj() @ comp @ wit))
            if cand <= obj:
                factors[i], obj = wit, cand
            history.append(obj)
        if prev - obj < ALTERNATION_TOL or obj < _ZERO_OVERLAP:
            break
    return factors[0], factors[1], obj, history


def _product_floor(
    w: np.ndarray, dim_a: int, dim_b: int
) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
    """Lower bound on every product-state overlap, from the nearest
    Kronecker product, and the factor witnesses that reach it; 0 and
    None unless W is one up to less than 1e-13.

    The realignment R[(i,k),(j,l)] = W[(i,j),(k,l)] is vec(Y) vec(Z)^T
    for W = Y x Z, so its leading singular triple gives sigma_1 Y' x Z'
    with ||W - sigma_1 Y' x Z'||_F = eps = sqrt(sum_{k>=2} sigma_k^2)
    (Van Loan and Pitsianis, 1993).  Every product state then has
    overlap at least sigma_1 d(Y') d(Z') - eps, with d the distance from
    0 to the numerical range, and a x b, with a and b the states that
    reach d(Y') and d(Z'), has overlap at most sigma_1 d(Y') d(Z') + eps.
    """
    r = w.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 2, 1, 3)
    left, sigma, right = np.linalg.svd(r.reshape(dim_a * dim_a, dim_b * dim_b))
    eps = math.sqrt(float(sigma[1:] @ sigma[1:]))
    if eps >= _ZERO_OVERLAP:
        return 0.0, None
    m1, a = numrange_origin_distance(left[:, 0].reshape(dim_a, dim_a))
    m2, b = numrange_origin_distance(right[0].reshape(dim_b, dim_b))
    return max(0.0, float(sigma[0]) * m1 * m2 - eps), (a, b)


def separable_distance(u, v, prob: SeparableProblem) -> MetricResult:
    """Pseudometric over separable states, from the best product witness.

    Multistart alternating optimization over pure product states; the
    reported value sqrt(1 - min^2) is achieved by the returned maximizer,
    hence certifies the true separable distance from below.  The
    certificate comes first: :func:`_product_floor` gives a floor, 0
    unless W = U'V is a Kronecker product, and then also the product of
    the factors' witnesses as the first candidate.  Before each restart,
    the restarts end once the best overlap is below floor + 1e-13, so a
    certified product runs none, and its overlap is within 1e-13 of the
    global minimum.  Ties resolve to the earliest candidate, so output is
    scheduling-independent.
    """
    mu, mv = _pair_matrices(u, v)
    n = mu.shape[0]
    if prob.dim_a * prob.dim_b != n:
        raise DimensionMismatchError(
            f"{prob.dim_a} x {prob.dim_b} split does not match dimension {n}"
        )
    w = mu.conj().T @ mv
    floor, witnesses = _product_floor(w, prob.dim_a, prob.dim_b)
    best = None if witnesses is None else (*witnesses, product_overlap(w, *witnesses))
    rng = np.random.default_rng(prob.seed)
    for _ in range(prob.restarts):
        if best is not None and best[2] < floor + _ZERO_OVERLAP:
            break
        a0 = haar_random_state(prob.dim_a, rng)
        b0 = haar_random_state(prob.dim_b, rng)
        run = alternating_product_minimization(
            w, prob.dim_a, prob.dim_b, a0, b0, prob.max_alternations
        )
        # a tie keeps the earlier candidate
        if best is None or run[2] < best[2]:
            best = run
    alpha, beta, best_obj = best[:3]
    return _overlap_result(best_obj, product_state(alpha, beta))


def null_space(generators) -> NullSpaceResult:
    """Simultaneous eigenstructure of pairwise-commuting unitaries.

    The basis and blocks come from linalg's joint-eigenbasis kernel, with
    Hermitian-part eigenvalues within 1e-8 taken as equal.  A block's
    character for a generator is the sum of the generator's Rayleigh
    quotients on the block's columns, scaled to modulus one.
    """
    gens = list(generators)
    if not gens:
        raise EmptyGeneratorsError("need at least one generator")
    mats = [unitary_matrix(g) for g in gens]
    n = mats[0].shape[0]
    for g in mats[1:]:
        if g.shape[0] != n:
            raise DimensionMismatchError("generators have mixed dimensions")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            dev = float(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i]).max())
            if dev > COMMUTATION_TOL:
                raise NotCommutingError((i, j), dev)
    basis, blocks = _joint_eigenbasis(mats)
    rays = np.array([np.einsum("ij,ij->j", basis.conj(), g @ basis) for g in mats])
    sums = np.add.reduceat(rays, [cols[0] for cols in blocks], axis=1)
    characters = (sums / np.abs(sums)).T.tolist()
    return NullSpaceResult(
        common_eigenbasis=_freeze(basis),
        blocks=tuple(tuple(cols) for cols in blocks),
        characters=tuple(map(tuple, characters)),
    )
