"""Geometry of point sets on the unit circle.

Three operations drive the closed-form unitary metric:

* :func:`smallest_covering_arc` finds the shortest arc containing every
  point, 2pi minus the largest circular gap between consecutive angles;
  no angles merge, so the arc is monotone and continuous in them.
* :func:`polygon_distance_to_origin` measures the distance from 0 to the
  convex hull of the points exp(i*theta).  It is computed with plain 2-d
  segment geometry, independently of the arc formula, so the identity
  dist = cos(alpha/2) (0 once alpha >= pi) can be used as a cross-check
  between two genuinely different code paths.
* :func:`distance_from_arc` is the closed form itself: sin(alpha/2) for
  arcs shorter than a semicircle, 1 once a semicircle is covered.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, MalformedInputError
from .linalg import TAU, _freeze, reduce_angles

# angles this close share one run of the display grouping
RUN_TOL = 1e-9
ARC_TOL = 1e-9


@dataclass(frozen=True)
class SpectralArc:
    """Sorted angles in [0, 2pi) with the smallest arc that covers them.

    ``alpha`` is 2pi minus the largest circular gap between consecutive
    angles, 0 for a single angle; the arc runs counterclockwise from
    ``angles[start]`` to ``angles[end]``.  ``covers_semicircle`` is
    alpha >= pi - ARC_TOL.  Repeated angles are all kept.
    """

    angles: np.ndarray
    alpha: float
    covers_semicircle: bool
    start: int
    end: int


@dataclass(frozen=True)
class WitnessWeights:
    """Convex weights over angle indices certifying a polygon distance."""

    support: tuple[int, ...]
    weights: np.ndarray

    def combination(self, angles: np.ndarray) -> complex:
        zs = np.exp(1j * angles[list(self.support)])
        return complex(np.sum(self.weights * zs))


def circular_runs(angles: np.ndarray, tol: float) -> list[list[int]]:
    """Group ascending angles in [0, 2pi) into runs of ascending indices.

    A run holds the angles within ``tol`` of its first angle, its anchor
    ``run[0]``; the last run joins the first when its anchor lies within
    ``tol`` of the first anchor plus 2pi.
    """
    vals = angles.tolist()
    starts = [0]
    for i in range(1, len(vals)):
        if vals[i] - vals[starts[-1]] > tol:
            starts.append(i)
    runs = [list(range(s, e)) for s, e in zip(starts, starts[1:] + [len(vals)])]
    if len(runs) > 1 and (vals[0] + TAU) - vals[starts[-1]] <= tol:
        runs[0] += runs.pop()
    return runs


def smallest_covering_arc(angles) -> SpectralArc:
    """Shortest arc of the unit circle containing all the given angles.

    Angles already sorted in [0, 2pi) keep their positions, so ``start``
    and ``end`` index the input itself.
    """
    a = np.asarray(angles, dtype=float).reshape(-1)
    if a.size == 0:
        raise EmptyInputError("angle set is empty")
    if not np.all(np.isfinite(a)):
        raise MalformedInputError("angles must be finite")
    a = np.sort(reduce_angles(a))
    gaps = np.diff(a, append=a[0] + TAU)
    g = int(np.argmax(gaps))
    # with the closing gap widest the arc is the spread, exactly 0 for repeats
    alpha = float(a[-1] - a[0] if g == a.size - 1 else TAU - gaps[g])
    return SpectralArc(
        angles=_freeze(a),
        alpha=alpha,
        covers_semicircle=alpha >= math.pi - ARC_TOL,
        start=(g + 1) % a.size,
        end=g,
    )


def angle_runs(arc: SpectralArc) -> tuple[np.ndarray, np.ndarray]:
    """Display grouping: the first angle and the size of each ``RUN_TOL`` run."""
    runs = circular_runs(arc.angles, RUN_TOL)
    return arc.angles[[run[0] for run in runs]], np.array([len(run) for run in runs])


def distance_from_arc(arc: SpectralArc) -> float:
    """sin(alpha/2) for alpha < pi, saturating at 1 for alpha >= pi."""
    if arc.alpha >= math.pi:
        return 1.0
    return float(min(1.0, max(0.0, math.sin(arc.alpha / 2.0))))


def _antipodal_pair(angles: np.ndarray) -> tuple[int, int] | None:
    """Pair of indices separated by pi within ARC_TOL, if one exists."""
    k = len(angles)
    targets = np.mod(angles + math.pi, TAU)
    for i in range(k):
        j = int(np.searchsorted(angles, targets[i]))
        for jj in (j - 1, j % k):
            sep = abs(angles[jj % k] - targets[i])
            sep = min(sep, TAU - sep)
            if jj % k != i and sep <= ARC_TOL:
                return i, jj % k
    return None


def _inside_witness(arc: SpectralArc) -> WitnessWeights:
    """Convex weights summing (numerically) to zero when 0 is in the hull."""
    a = arc.angles
    pair = _antipodal_pair(a)
    if pair is not None:
        return WitnessWeights(support=pair, weights=_freeze(np.array([0.5, 0.5])))
    # No antipodal pair, so alpha > pi strictly: rotate the arc start to 0
    # and use an interior point with phase in (alpha - pi, pi); the triangle
    # {start, interior, end} contains the origin and the 3-weight linear
    # system p1 z1 + pj zj + pn zn = 0, sum p = 1 has a nonnegative solution.
    s_idx, e_idx = arc.start, arc.end
    rel = np.mod(a - a[s_idx], TAU)
    lo, hi = arc.alpha - math.pi, math.pi
    interior = [i for i in range(len(a)) if i not in (s_idx, e_idx) and lo < rel[i] < hi]
    if not interior:
        raise RuntimeError("no interior point for the containing triangle")
    # best-conditioned choice: deepest inside the admissible window
    j_idx = max(interior, key=lambda i: min(rel[i] - lo, hi - rel[i]))
    zs = np.exp(1j * a[[s_idx, j_idx, e_idx]])
    mat = np.vstack([zs.real, zs.imag, np.ones(3)])
    p = np.linalg.solve(mat, np.array([0.0, 0.0, 1.0]))
    p = np.maximum(p, 0.0)
    p = p / p.sum()
    return WitnessWeights(support=(s_idx, j_idx, e_idx), weights=_freeze(p))


def polygon_distance_to_origin(angles) -> tuple[float, WitnessWeights]:
    """Distance from 0 to the convex hull of the unit-circle points.

    Accepts raw angles or a precomputed :class:`SpectralArc`; indices in
    the returned witness refer to the arc's sorted ``angles``.
    When the hull contains the origin the distance is 0 and the witness
    is an antipodal pair or an acute containing triangle; otherwise the
    minimum is over hull edges, which for circle points are consecutive
    sorted pairs plus the closing edge.
    """
    arc = angles if isinstance(angles, SpectralArc) else smallest_covering_arc(angles)
    k = len(arc.angles)
    if k == 1:
        return 1.0, WitnessWeights(support=(0,), weights=_freeze(np.array([1.0])))
    if arc.covers_semicircle:
        return 0.0, _inside_witness(arc)
    zs = np.exp(1j * arc.angles)
    best = (math.inf, 0, 0, 0.0)
    for i in range(k if k > 2 else 1):
        j = (i + 1) % k
        za, zb = zs[i], zs[j]
        chord = zb - za
        denom = abs(chord) ** 2
        t = 0.5 if denom == 0.0 else min(1.0, max(0.0, -(za.conjugate() * chord).real / denom))
        dist = abs(za + t * chord)
        if dist < best[0]:
            best = (dist, i, j, t)
    dist, i, j, t = best
    w = WitnessWeights(support=(i, j), weights=_freeze(np.array([1.0 - t, t])))
    return float(dist), w


def polygon_csv(arc: SpectralArc) -> str:
    """CSV dump of the eigenangle polygon, one row per display run: theta,re,im,multiplicity."""
    lines = ["theta,re,im,multiplicity"]
    for theta, mult in zip(*angle_runs(arc)):
        z = complex(np.exp(1j * theta))
        lines.append(f"{float(theta)!r},{z.real!r},{z.imag!r},{int(mult)}")
    return "\n".join(lines) + "\n"
