"""Geometry of point sets on the unit circle.

Three operations drive the closed-form unitary metric:

* :func:`smallest_covering_arc` finds the shortest arc containing every
  point, 2pi minus the largest circular gap between consecutive angles;
  no angles merge, so the arc is monotone and continuous in them.  It
  checks, reduces and sorts its input, then scans the gaps with
  :func:`sorted_covering_arc`, which the closed form calls directly.
* :func:`distance_from_arc` is the closed form itself: sin(alpha/2) for
  arcs shorter than a semicircle, 1 once a semicircle is covered.
* :func:`arc_witness` gives every witness built from an eigenvalue arc,
  the closed form's and the numerical range's for a multiple of a
  unitary: weights 1/2 on the arc's ends below a semicircle, else three
  points around the widest gap whose convex combination is 0, weighted
  by the three-sine identity.

:func:`polygon_distance_to_origin` measures the distance from 0 to the
convex hull of the points exp(i*theta) with plain 2-d segment geometry,
independently of the arc formula, so the identity dist = cos(alpha/2)
(0 once alpha >= pi) is a cross-check between two genuinely different
code paths; no witness of the library calls it, so it is left as the
oracle.  Its witness comes from :func:`polygon_exit`, which also picks
the support states of the numerical range's zero witness.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, MalformedInputError
from .linalg import TAU, _freeze, runs

# angles this close share one run of the display grouping
RUN_TOL = 1e-9
ARC_TOL = 1e-9
# weights 1/2 on a chord's ends; read-only, so every witness can share them
_HALVES = _freeze(np.array([0.5, 0.5]))


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


def smallest_covering_arc(angles) -> SpectralArc:
    """Shortest arc of the unit circle containing all the given angles.

    Angles already sorted in [0, 2pi) keep their positions, so ``start``
    and ``end`` index the input itself.
    """
    # plain floats: most angle sets here are short, and numpy costs more than the loop
    a = np.asarray(angles, dtype=float).reshape(-1).tolist()
    if not a:
        raise EmptyInputError("angle set is empty")
    if not all(map(math.isfinite, a)):
        raise MalformedInputError("angles must be finite")
    return sorted_covering_arc(sorted_reduced(a))


def sorted_reduced(angles: list[float]) -> list[float]:
    """Finite angles reduced to [0, 2pi), ascending."""
    # Python's % rounds as np.mod does: a tiny negative angle goes to 2pi, read as 0
    return sorted([r if r < TAU else 0.0 for r in (x % TAU for x in angles)])


def sorted_covering_arc(a: list[float]) -> SpectralArc:
    """:func:`smallest_covering_arc` of a nonempty list of floats already
    reduced to [0, 2pi) and sorted ascending, with no checks: the closed
    form's angles arrive so."""
    gaps = [y - x for x, y in zip(a, a[1:])]
    gaps.append(a[0] + TAU - a[-1])
    g = gaps.index(max(gaps))
    # with the closing gap widest the arc is the spread, exactly 0 for repeats
    alpha = a[-1] - a[0] if g == len(a) - 1 else TAU - gaps[g]
    return SpectralArc(
        angles=_freeze(a),
        alpha=alpha,
        covers_semicircle=alpha >= math.pi - ARC_TOL,
        start=(g + 1) % len(a),
        end=g,
    )


def angle_runs(arc: SpectralArc) -> tuple[np.ndarray, np.ndarray]:
    """Display grouping: the first angle and the size of each ``RUN_TOL`` run around the circle."""
    groups = runs(arc.angles, RUN_TOL, TAU)
    return arc.angles[[run[0] for run in groups]], np.array([len(run) for run in groups])


def distance_from_arc(arc: SpectralArc) -> float:
    """sin(alpha/2) for alpha < pi, saturating at 1 for alpha >= pi."""
    if arc.alpha >= math.pi:
        return 1.0
    return float(min(1.0, max(0.0, math.sin(arc.alpha / 2.0))))


def polygon_exit(z: np.ndarray) -> tuple[int, int, int, float, bool]:
    """Where the ray from the farthest vertex through 0 leaves a convex
    polygon, or the polygon's point nearest 0.

    ``z`` holds the vertices in boundary order, either orientation,
    repeats allowed.  Returns ``(far, k, k1, t, inside)`` with k1 = k + 1
    cyclically and b = z[k] + t (z[k1] - z[k]) a point of edge k.  The ray
    from z[far] through 0 crosses the edges whose ends lie on either side
    of the line through z[far] and 0; a crossing beyond 0 is b, and 0
    lies between z[far] and b (``inside``).  When there is none, 0 is
    outside the polygon and b is its point nearest 0.
    """
    k1 = (np.arange(z.size) + 1) % z.size
    far = int(np.argmax(np.abs(z)))
    # coordinates across and along z[far], times |z[far]|
    rot = z * z[far].conjugate()
    across, along = rot.imag, rot.real
    across1 = across[k1]
    sides = (across * across1 <= 0.0) & (across != across1)
    t = np.divide(across, across - across1, out=np.zeros(z.size), where=sides)
    exits = np.where(sides, along + t * (along[k1] - along), np.inf)
    k = int(np.argmin(exits))
    inside = bool(exits[k] < 0.0)
    if not inside:
        d = z[k1] - z
        dd = (d.conj() * d).real
        t = np.clip(np.divide(-(d.conj() * z).real, dd, out=np.zeros(z.size), where=dd > 0.0), 0.0, 1.0)
        k = int(np.argmin(np.abs(z + t * d)))
    return far, k, int(k1[k]), float(t[k]), inside


def polygon_distance_to_origin(angles) -> tuple[float, WitnessWeights]:
    """Distance from 0 to the convex hull of the unit-circle points.

    Accepts raw angles or a precomputed :class:`SpectralArc`; indices in
    the returned witness refer to the arc's sorted ``angles``, which are
    the hull's vertices in boundary order.  The witness comes from
    :func:`polygon_exit`: weights over (far, k, k1) putting 0 between
    z[far] and the ray's exit point when the hull contains 0, else edge
    weights (1 - t, t) on (k, k1) for the hull's point nearest 0.  The
    distance is 0 once the arc covers a semicircle.
    """
    arc = angles if isinstance(angles, SpectralArc) else smallest_covering_arc(angles)
    if len(arc.angles) == 1:
        return 1.0, WitnessWeights(support=(0,), weights=_freeze(np.array([1.0])))
    z = np.exp(1j * arc.angles)
    far, k, k1, t, inside = polygon_exit(z)
    b = z[k] + t * (z[k1] - z[k])
    if inside:
        # s z[far] + (1 - s) b = 0
        s = abs(b) / (abs(b) + abs(z[far]))
        weights = np.array([s, (1.0 - s) * (1.0 - t), (1.0 - s) * t])
        return 0.0, WitnessWeights(support=(far, k, k1), weights=_freeze(weights))
    dist = 0.0 if arc.covers_semicircle else float(abs(b))
    return dist, WitnessWeights(support=(k, k1), weights=_freeze(np.array([1.0 - t, t])))


def arc_witness(arc: SpectralArc) -> WitnessWeights:
    """Convex weights on at most three vertices whose combination is the
    point of the vertices' convex hull nearest 0.

    For an arc shorter than a semicircle (alpha < pi) that point is the
    midpoint of the chord between the arc's ends, weights 1/2 on
    angles[start] and angles[end].  Once alpha >= pi it is 0, and every
    gap is at most pi.  The widest then runs from b = angles[end] to
    c = angles[start], and the anchor a is the vertex nearest the middle
    of the covering arc, found by bisection; so a + pi lies in that gap
    and 0 lies in the triangle (a, b, c).  The identity
    sin(c - b) e^{ia} + sin(a - c) e^{ib} + sin(b - a) e^{ic} = 0 gives
    the weights, each sine clamped at 0 against rounding: b and c share
    1 - s as sin(a - c) : sin(b - a), which puts their combination q on
    the ray from e^{ia} through 0, and s = |q| / (1 + |q|) is a's share,
    equal to sin(c - b) over the sum of the sines but exact to rounding
    even when the triangle is thin.  When the three vertices miss 0 by
    more than the chord bc, whose midpoint lies |cos((c - b)/2)| from 0
    (the anchor repeats b or c, or the triangle is flat), the weights
    are 1/2 on b and c.
    """
    if arc.alpha < math.pi:
        return WitnessWeights(support=(arc.start, arc.end), weights=_HALVES)
    angles = arc.angles.tolist()
    n = len(angles)
    b, c = angles[arc.end], angles[arc.start]
    mid = (c + arc.alpha / 2.0) % TAU
    i = bisect.bisect_left(angles, mid)
    k = min((i - 1) % n, i % n, key=lambda j: abs(math.remainder(angles[j] - mid, TAU)))
    a = angles[k]
    za, zb, zc = cmath.exp(1j * a), cmath.exp(1j * b), cmath.exp(1j * c)
    sin_ac, sin_ba = max(0.0, math.sin(a - c)), max(0.0, math.sin(b - a))
    if sin_ac + sin_ba > 0.0:
        t = sin_ba / (sin_ac + sin_ba)
        q = zb + t * (zc - zb)
        s = abs(q) / (1.0 + abs(q))
        p = [s, (1.0 - s) * (1.0 - t), (1.0 - s) * t]
        if abs(p[0] * za + p[1] * zb + p[2] * zc) <= abs(zb + zc) / 2.0:
            return WitnessWeights(support=(k, arc.end, arc.start), weights=_freeze(np.array(p)))
    return WitnessWeights(support=(arc.end, arc.start), weights=_HALVES)


def polygon_csv(arc: SpectralArc) -> str:
    """CSV dump of the eigenangle polygon, one row per display run: theta,re,im,multiplicity."""
    lines = ["theta,re,im,multiplicity"]
    for theta, mult in zip(*angle_runs(arc)):
        z = complex(np.exp(1j * theta))
        lines.append(f"{float(theta)!r},{z.real!r},{z.imag!r},{int(mult)}")
    return "\n".join(lines) + "\n"
