"""Search as approximation of a target rotation by powers of a step.

The two-dimensional invariant plane spanned by the target state and its
complement carries the whole analysis: a state at angle alpha from the
marked direction, a step operator rotating by gamma per application, and
the distance d(U, V^k) = |cos(alpha + k gamma)|.  Driving the distance
below epsilon therefore takes k ~ (pi/2 - alpha) / gamma steps, which is
O(sqrt(N)) when sin(alpha) = 1/sqrt(N) and gamma = alpha.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalCheckError,
    InvalidAnglesError,
    OutOfRangeError,
    UnreachableToleranceError,
)
from .linalg import UnitaryOperator, validate_unitary
from .metrics import sup_distance


@dataclass(frozen=True)
class SearchProblem:
    """Angles of the two-dimensional search plane.

    ``alpha`` is the initial overlap angle (sin(alpha) = |<psi1|phi>|),
    ``gamma`` the per-step rotation, ``theta`` a relative phase.  When a
    database size N is given, alpha must equal arcsin(1/sqrt(N)).
    """

    alpha: float
    gamma: float
    theta: float = 0.0
    N: int | None = None

    def __post_init__(self):
        if not (0.0 < self.alpha < math.pi / 2):
            raise InvalidAnglesError(f"alpha must lie in (0, pi/2), got {self.alpha}")
        if not (0.0 < self.gamma < math.pi / 2):
            raise InvalidAnglesError(f"gamma must lie in (0, pi/2), got {self.gamma}")
        if not math.isfinite(self.theta):
            raise InvalidAnglesError(f"theta must be finite, got {self.theta}")
        if self.N is not None:
            if self.N < 2:
                raise InvalidAnglesError("N must be at least 2")
            if self.N > sys.float_info.max:
                raise InvalidAnglesError("N must be at most the largest float")
            if abs(math.sin(self.alpha) - 1.0 / math.sqrt(self.N)) > 1e-12:
                raise InvalidAnglesError(
                    f"alpha inconsistent with N: sin(alpha) = {math.sin(self.alpha)!r}, "
                    f"1/sqrt(N) = {1.0 / math.sqrt(self.N)!r}"
                )

    @classmethod
    def from_size(cls, N: int, gamma: float | None = None, theta: float = 0.0) -> "SearchProblem":
        # clamped so that __post_init__, not the square root, rejects N out of range
        alpha = math.asin(1.0 / math.sqrt(min(max(N, 2), sys.float_info.max)))
        return cls(alpha=alpha, gamma=alpha if gamma is None else gamma, theta=theta, N=N)


def _search_matrices(p: SearchProblem) -> tuple[np.ndarray, np.ndarray]:
    """Raw matrices of the target U and the step V; unitary by construction."""
    a, g, th = p.alpha, p.gamma, p.theta
    eith = complex(math.cos(th), math.sin(th))
    u = np.array(
        [
            [math.sin(a), math.cos(a) * eith.conjugate()],
            [-math.cos(a) * eith, math.sin(a)],
        ],
        dtype=complex,
    )
    v = np.array(
        [
            [math.cos(g), math.sin(g) * eith.conjugate()],
            [-math.sin(g) * eith, math.cos(g)],
        ],
        dtype=complex,
    )
    return u, v


def build_operators(p: SearchProblem) -> tuple[UnitaryOperator, UnitaryOperator]:
    """Target U and step V in the {psi1, psi2} basis.

    U is the phase-decorated rotation sending the prepared state
    (sin a, e^{i theta} cos a) to psi1; V rotates by gamma with the same
    phase convention.  U'V^k then has eigenvalues
    exp(+-i[pi/2 - (alpha + k gamma)]).
    """
    u, v = _search_matrices(p)
    return validate_unitary(u), validate_unitary(v)


def prepared_state(p: SearchProblem) -> np.ndarray:
    """The initial superposition sin(a) psi1 + e^{i theta} cos(a) psi2."""
    eith = complex(math.cos(p.theta), math.sin(p.theta))
    return np.array([math.sin(p.alpha), eith * math.cos(p.alpha)], dtype=complex)


def distance_after_k(p: SearchProblem, k: int) -> float:
    """sup-metric distance between the target and the k-fold step."""
    if k < 0:
        raise OutOfRangeError(f"k must be nonnegative, got {k}")
    u, v = _search_matrices(p)
    return sup_distance(u, np.linalg.matrix_power(v, k)).value


def _formula_distance(p: SearchProblem, k: np.ndarray) -> np.ndarray:
    return np.abs(np.cos(p.alpha + k * p.gamma))


def minimal_k(p: SearchProblem, epsilon: float) -> tuple[int, float]:
    """Smallest k >= 0 with distance_after_k(p, k) <= epsilon.

    The closed form |cos(alpha + k gamma)| <= epsilon solves to the
    window [pi/2 - arcsin(eps), pi/2 + arcsin(eps)] for alpha + k gamma;
    the first integer in the window is verified by evaluation.  Only the
    first period k <= ceil(pi/gamma) is searched; beyond it the distance
    repeats.  Raises UnreachableToleranceError (carrying the best k and
    its achieved distance) when the window contains no integer, and
    InternalCheckError when gamma = alpha = arcsin(1/sqrt(N)) and the
    k found exceeds ceil((pi/2) sqrt(N)).
    """
    if not (0.0 < epsilon < 1.0):
        raise OutOfRangeError(f"epsilon must lie in (0, 1), got {epsilon}")
    if math.pi / p.gamma == math.inf:
        raise OutOfRangeError(f"gamma = {p.gamma!r} gives no finite period")
    period_max = math.ceil(math.pi / p.gamma)
    delta = math.asin(epsilon)
    lo = (math.pi / 2 - delta - p.alpha) / p.gamma
    hi = (math.pi / 2 + delta - p.alpha) / p.gamma
    k0 = max(0, math.ceil(lo - 1e-12))
    if k0 <= hi + 1e-12:
        # verify by evaluation, stepping over float fenceposts if needed
        for k in range(k0, min(k0 + 3, period_max + 1)):
            achieved = distance_after_k(p, k)
            if achieved <= epsilon + 1e-9:
                if p.N is not None and p.gamma == p.alpha:
                    bound = math.ceil((math.pi / 2) * math.sqrt(p.N))
                    if k > bound:
                        raise InternalCheckError("minimal k", k, bound)
                return k, achieved
    # |cos(alpha + k gamma)| falls to each zero of cos and rises past it, so
    # over 0..period_max it is least next to pi/2 or 3pi/2, or at an end
    ks = {0, period_max}
    for zero in (math.pi / 2, 3 * math.pi / 2):
        at = (zero - p.alpha) / p.gamma
        ks.update(min(max(f(at), 0), period_max) for f in (math.floor, math.ceil))
    ks = np.array(sorted(ks), dtype=float)
    best = int(ks[np.argmin(_formula_distance(p, ks))])
    raise UnreachableToleranceError(best, distance_after_k(p, best), epsilon)
