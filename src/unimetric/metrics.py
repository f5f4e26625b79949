"""Distances between unitary operators.

The central object is the sup-metric ``d(U, V)``: the largest trace
distance between U rho U' and V rho V' over all states rho.  Convexity
puts the supremum on pure states, where it reduces to
sqrt(1 - |<psi|U'V|psi>|^2), and the spectrum of U'V gives the closed
form: d = sin(alpha/2) for covering arc alpha < pi, else 1.  The value
is a metric on the projective unitary group: zero on U = cV, where the
arc of U'V is no longer than the rounding of its angles.

At n = 2 the formula is explicit and needs no eigensolve: the
eigenvalues of W are tr(W)/2 +- mu, so d = |mu|, and the adjugate of
W - lambda I gives the eigenvectors and so the maximizer.  From n = 3
W is eigensolved once, repeated eigenvalues included, unless two
distinct ones have real parts within 1e-6; :func:`circlegeom.arc_witness`
weights the eigenvectors: the arc's two ends, or, once the arc is
saturated (alpha >= pi), three eigenvalues whose convex combination is
0.  One kernel, :func:`_closed_form_w`, turns W into the value, the arc
and the maximizer; ``distinguishability`` and the numerical range of a
multiple of a unitary read it too.

Per-state pseudometrics (:func:`d_psi`, :func:`d_rho`), the Schatten-p
rescaling, and the tensor composition rule live here too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from . import circlegeom
from .errors import (
    DimensionMismatchError,
    InternalCheckError,
    InvalidPError,
    MalformedInputError,
    NotNormalizedError,
    OutOfRangeError,
)
from .linalg import (
    EIGEN_TOL,
    TAU,
    _density_matrix,
    checked_eigen_fit,
    trace_distance_matrices,
    unitary_matrix,
    vector_to_json,
)

NORM_TOL = 1e-10
RESULT_TOL = 1e-9
# The computed angles of one eigenvalue of an n x n W lie up to 2 ulp(2pi)
# apart (Haar U, V = cU, n = 2..128); an arc of at most 2n ulp(2pi) reads d = 0.
ROUNDING_ARC_ULPS = 2

Method = Literal["closed_form", "optimization", "oracle"]


@dataclass(frozen=True)
class MetricResult:
    """A metric value in [0, 1] with an optional maximizing pure state."""

    value: float
    maximizer: np.ndarray | None
    method: Method
    tolerance: float = RESULT_TOL

    def to_json(self) -> dict:
        return {
            "value": float(self.value),
            "method": self.method,
            "maximizer": None if self.maximizer is None else vector_to_json(self.maximizer),
            "tolerance": float(self.tolerance),
        }


@dataclass(frozen=True)
class SandwichBounds:
    """The chain (1/2)||(U - e^{ix}V)psi||^2 <= d_psi^2 <= ||(U - V)psi||^2."""

    lower: float
    mid: float
    upper: float
    holds: bool


@dataclass(frozen=True)
class DistinguishabilityResult:
    """One-shot discrimination verdict for a pair of unitaries.

    Distinguishable exactly when d(U, V) = 1; the witness then has
    orthogonal images U alpha and V alpha (residual is their overlap).
    Otherwise ``min_overlap_bound`` = cos(alpha/2) is the smallest
    achievable |<psi|U'V|psi>| over all pure states.
    """

    distinguishable: bool
    value: float
    witness: np.ndarray | None
    residual: float | None
    min_overlap_bound: float | None
    arc_alpha: float


def _pair_matrices(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Operand matrices, each raw one checked for unitarity (no eigensolve)."""
    mu = unitary_matrix(u)
    mv = unitary_matrix(v)
    if mu.shape != mv.shape:
        raise DimensionMismatchError(f"operator shapes differ: {mu.shape} vs {mv.shape}")
    return mu, mv


def _unit_vector(psi, n: int) -> np.ndarray:
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if not np.isfinite(v).all():
        raise MalformedInputError("state entries must be finite")
    if v.size != n:
        raise DimensionMismatchError(f"state has dimension {v.size}, operators {n}")
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > NORM_TOL:
        raise NotNormalizedError(f"state norm is {nrm:.12g}")
    return v


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def d_psi(u, v, psi) -> float:
    """Pure-state pseudometric sqrt(1 - |<psi|U'V|psi>|^2).

    Evaluated as the norm of V psi minus its projection onto U psi,
    which equals the same quantity for unitary arguments but avoids the
    cancellation in 1 - |m|^2 when the overlap is close to one.
    """
    mu, mv = _pair_matrices(u, v)
    vec = _unit_vector(psi, mu.shape[0])
    uvec = mu @ vec
    vvec = mv @ vec
    overlap = np.vdot(uvec, vvec)
    residual = vvec - overlap * uvec
    return min(1.0, float(np.linalg.norm(residual)))


def d_rho(u, v, rho) -> float:
    """Trace distance between U rho U' and V rho V'."""
    mu, mv = _pair_matrices(u, v)
    rm = _density_matrix(rho)
    if rm.shape[0] != mu.shape[0]:
        raise DimensionMismatchError(
            f"state dimension {rm.shape[0]} differs from operators {mu.shape[0]}"
        )
    return trace_distance_matrices(mu @ rm @ mu.conj().T, mv @ rm @ mv.conj().T)


def _closed_form_2x2(w: np.ndarray) -> tuple[float, list[float], np.ndarray]:
    """|mu|, the eigenangles and the maximizer of a 2x2 W, with no eigensolve.

    With t = tr(W)/2, h = (w00 - w11)/2 and mu = sqrt(h^2 + w01 w10), the
    eigenvalues are t +- mu, so d = |mu|; the discriminant form
    sqrt(tr^2 - 4 det)/2 loses half the digits to cancellation.  Each
    eigenvector v+- is the longer column of adj(W - (t +- mu) I),
    (w01, +-mu - h) or (+-mu + h, w10), normalized; both vanish only for
    a scalar W, whose eigenvectors are the standard basis.  The maximizer
    is v+ + v-, normalized.  A residual |W v - lambda v| above
    ``EIGEN_TOL`` raises ``InternalCheckError``.
    """
    (w00, w01), (w10, w11) = w.tolist()
    t = (w00 + w11) / 2
    h = (w00 - w11) / 2
    mu = cmath.sqrt(h * h + w01 * w10)
    angles, vecs = [], []
    for s, basis in ((mu, (1.0, 0.0)), (-mu, (0.0, 1.0))):
        cols = ((w01, s - h), (s + h, w10))
        norms = [math.hypot(abs(x), abs(y)) for x, y in cols]
        nrm = max(norms)
        x, y = basis if nrm == 0.0 else (z / nrm for z in cols[norms.index(nrm)])
        lam = t + s
        resid = math.hypot(abs(w00 * x + w01 * y - lam * x), abs(w10 * x + w11 * y - lam * y))
        if resid > EIGEN_TOL:
            raise InternalCheckError("eigendecomposition residual", resid, EIGEN_TOL)
        angles.append(cmath.phase(lam))
        vecs.append((x, y))
    (x1, y1), (x2, y2) = vecs
    x, y = x1 + x2, y1 + y2
    nrm = math.hypot(abs(x), abs(y))
    return min(1.0, abs(mu)), angles, np.array([x / nrm, y / nrm])


def _closed_form_w(w: np.ndarray) -> tuple[MetricResult, circlegeom.SpectralArc]:
    """Closed-form d(I, W) of a unitary W, its maximizer and the arc of
    its eigenvalues.

    A 2x2 W takes the explicit formulas of :func:`_closed_form_2x2`.  A
    larger W is fitted once by :func:`checked_eigen_fit` and not
    re-judged at the operands' unitarity tolerance; the arc reads its
    angles sorted in [0, 2pi), and the sort order maps the arc's indices
    to the eigenvectors that :func:`circlegeom.arc_witness` weights: the
    arc's two ends, or three vertices once it covers a semicircle.  Only
    those columns are gathered.  The maximizer sum_k sqrt(w_k) v_k,
    normalized, is also the state of the point of W's numerical range,
    the polygon of its eigenvalues, nearest 0.
    """
    n = w.shape[0]
    if n == 2:
        value, angles, psi = _closed_form_2x2(w)
        arc = circlegeom.smallest_covering_arc(angles)
    else:
        vecs, angles = checked_eigen_fit(w)
        order = np.argsort(angles, kind="stable")
        arc = circlegeom.smallest_covering_arc(angles[order])
        value = circlegeom.distance_from_arc(arc)
        witness = circlegeom.arc_witness(arc)
        psi = vecs[:, order[list(witness.support)]] @ np.sqrt(witness.weights)
        psi = psi / np.linalg.norm(psi)
    if arc.alpha <= ROUNDING_ARC_ULPS * n * math.ulp(TAU):
        value = 0.0
    return MetricResult(value=value, maximizer=psi, method="closed_form"), arc


def _closed_form(u, v) -> tuple[MetricResult, circlegeom.SpectralArc, bool, np.ndarray]:
    """Closed-form d(U, V) and its maximizer, with the arc of the canonical
    W, whether that W is V'U rather than U'V, and W itself.

    Arguments are reordered by a deterministic byte comparison before
    forming W, so d(U, V) and d(V, U) run the identical computation and
    return bitwise-equal values, maximizers and arcs.
    """
    mu, mv = _pair_matrices(u, v)
    swapped = mv.tobytes() < mu.tobytes()
    w = mv.conj().T @ mu if swapped else mu.conj().T @ mv
    return *_closed_form_w(w), swapped, w


def sup_distance_with_arc(u, v) -> tuple[MetricResult, circlegeom.SpectralArc]:
    """Closed-form d(U, V) with a maximizing pure state, and the arc of U'V.

    The arc's angles are U'V's, sorted in [0, 2pi).  When the byte order
    of the operands puts V'U first, they are V'U's angles mirrored, and
    ``start`` and ``end`` index those; ``alpha`` and ``covers_semicircle``
    are always the canonical W's, so they are bitwise equal for (U, V)
    and (V, U).
    """
    result, arc, swapped, _ = _closed_form(u, v)
    if swapped:
        mirrored = circlegeom.smallest_covering_arc(TAU - arc.angles)
        arc = replace(mirrored, alpha=arc.alpha, covers_semicircle=arc.covers_semicircle)
    return result, arc


def sup_distance(u, v) -> MetricResult:
    """Sup-metric d(U, V) with a maximizing pure state, closed form."""
    return _closed_form(u, v)[0]


def schatten_sup_distance(u, v, p: float) -> float:
    """Schatten-p variant 2^{1/p} d(U, V).

    The scaling comes from the pure-state identity
    || |psi><psi| - |phi><phi| ||_p = 2^{1/p} (1 - |<psi|phi>|^2)^{1/2},
    i.e. it rescales the unnormalized pure-state p-norm distance.  Note
    the p = 1 case is therefore 2 d(U, V), a factor 2 above the
    trace-distance pseudometric, which carries a 1/2 normalization; the
    two conventions are deliberately not reconciled here.
    """
    if not (p == math.inf or p >= 1.0):
        raise InvalidPError(f"p must be >= 1 or inf, got {p}")
    factor = 1.0 if p == math.inf else 2.0 ** (1.0 / p)
    return factor * sup_distance(u, v).value


def tensor_distance(d1: float, d2: float) -> float:
    """Distance of a tensor pair from the factor distances.

    Sine addition delta1*sqrt(1-delta2^2) + delta2*sqrt(1-delta1^2) while
    d1^2 + d2^2 < 1, saturating at 1 otherwise (the factor arcs then
    jointly cover a semicircle).
    """
    for name, val in (("d1", d1), ("d2", d2)):
        if not (0.0 <= val <= 1.0):
            raise OutOfRangeError(f"{name} must lie in [0, 1], got {val}")
    if d1 * d1 + d2 * d2 >= 1.0:
        return 1.0
    return _clamp01(d1 * math.sqrt(1.0 - d2 * d2) + d2 * math.sqrt(1.0 - d1 * d1))


def check_sandwich(u, v, psi) -> SandwichBounds:
    """Evaluate the pure-state sandwich inequality at one triple.

    The phase x = -arg<psi|U'V|psi> aligns the overlap to be real
    nonnegative; the inequality then reads 1 - |m| <= 1 - |m|^2
    <= ||(U-V)psi||^2 with m the overlap.
    """
    mu, mv = _pair_matrices(u, v)
    vec = _unit_vector(psi, mu.shape[0])
    uvec = mu @ vec
    vvec = mv @ vec
    m = np.vdot(uvec, vvec)
    x = -np.angle(m) if m != 0 else 0.0
    lower = 0.5 * float(np.linalg.norm(uvec - np.exp(1j * x) * vvec) ** 2)
    mid = _clamp01(1.0 - abs(m) ** 2)
    upper = float(np.linalg.norm(uvec - vvec) ** 2)
    holds = lower <= mid + 1e-10 and mid <= upper + 1e-10
    return SandwichBounds(lower=lower, mid=mid, upper=upper, holds=holds)


def distinguishability(u, v) -> DistinguishabilityResult:
    """Decide one-shot distinguishability; d(U, V) = 1 is the criterion.

    The residual |<psi|W|psi>| of the canonical W has the same modulus
    for U'V and V'U, so it is |<U psi, V psi>| in either order.
    """
    result, arc, _, w = _closed_form(u, v)
    distinguishable = result.value >= 1.0 - RESULT_TOL
    psi = result.maximizer
    return DistinguishabilityResult(
        distinguishable=distinguishable,
        value=result.value,
        witness=psi if distinguishable else None,
        residual=float(abs(np.vdot(psi, w @ psi))) if distinguishable else None,
        min_overlap_bound=None if distinguishable else math.cos(arc.alpha / 2.0),
        arc_alpha=arc.alpha,
    )
