"""Distance from the origin to the numerical range of a square matrix.

The numerical range F(M) = {<psi|M|psi> : ||psi|| = 1} is convex, so its
distance from 0 is the best separating-halfplane margin (Johnson's
support-function method, C. R. Johnson, SIAM J. Numer. Anal. 15, 1978):

    dist(0, F(M)) = max(0, max_phi g(phi)),   g(phi) = lambda_min(A_phi),
    A_phi = Herm(e^{i phi} M) = cos(phi) H1 - sin(phi) H2,

where M = H1 + i H2 with H1 = (M + M')/2 and H2 = (M - M')/2i, the
split that linalg's joint eigenbasis uses.  With
K_phi = sin(phi) H1 + cos(phi) H2 = -dA_phi/dphi and the eigenpairs
(lambda_k, psi_k) of A_phi in ascending order,

    g'  = -psi_0' K_phi psi_0,
    g'' = -g - 2 sum_{k>0} |psi_k' K_phi psi_0|^2 / (lambda_k - lambda_0),

so one Hermitian eigensolve gives g and both derivatives.  g is positive
on at most one arc, and there g'' <= -g < 0.

* Principal pairs, n >= 3, unless M is a multiple of a unitary (below):
  the range of a principal compression M[{j,k},{j,k}] is a filled
  ellipse inside F(M), and whether it holds 0 is decided exactly on the
  Bloch sphere (see n = 2 below).  Its points lie within
  (|m_jk| + |m_kj|)/2 of the chord [m_jj, m_kk], so only the pairs whose
  chord lies that close to 0 can hold it; they are tried nearest first,
  at most n of them.  The first that holds 0 gives the zero witness on
  e_j, e_k, if its residual meets the zero rule below, with no bracket
  and no eigensolve.  Otherwise the bracket runs.
* Bracket: one batched eigensolve over 32 angles in [0, pi) gives g at
  64 angles of the whole circle, because
  lambda_min(A_{phi+pi}) = -lambda_max(A_phi).  |g'| is at most the
  numerical radius w, so the sample nearest a positive arc reads above
  -w * step / 2 even when the arc falls between samples.
* Refinement: every circular local maximum of the samples above that level
  is refined, highest first, until one is positive; when there is none, 0
  lies in F and nothing is refined.  Each step costs one eigensolve and
  stays inside a bracket whose ends hold g' > 0 and g' < 0.  The chord
  between the points <psi_0|M|psi_0> of the two ends lies in F, so its
  distance from 0 bounds the maximum from above.  The step is the shortest
  of three that stay inside the bracket, else the midpoint: the Newton
  step on g'; the step to the nearest kink, where lambda_0 meets another
  eigenvalue along their tangents, the usual maximum of a normal matrix
  whose nearest point lies inside an edge; and the step to the direction
  normal to the chord at its point nearest 0, exact when that point is the
  nearest point of F: a vertex, as for c I, whose tied eigenvalues refuse
  the other two, or a point of an edge whose two eigenvalues support the
  bracket ends.  Refinement stops when the bound is within 1e-13 of the
  best value found.  A candidate is rejected as soon as each end's
  tangent, taken at the far end, and g'' <= -g <= w show that g < 0 on its
  bracket, and a chord through 0 shows that 0 lies in F.
* Witness: every eigenvector the solver computes is a support state x
  of F, and its point z = <x|M|x> lies on the boundary of F.  The range
  of the 2x2 compression onto span(x, y) holds the segment between the
  points of x and y (Toeplitz-Hausdorff), and a point of that range is
  solved exactly on the Bloch sphere, so every witness is solved on the
  span of two support states, with no eigensolve of its own.  When 0
  lies outside F, the witness is one solve: the point of the final
  bracket's chord nearest 0, on the span of the bracket ends' states.
  When 0 lies in F, the bracket's states (the min eigenvector at phi,
  and the max one, which supports direction phi + pi) and every state
  the refinement evaluated, sorted by angle, trace the boundary of F in
  order and span a convex polygon inside F (Carden's inverse
  field-of-values construction, R. Carden, Inverse Problems 25, 2009).
  circlegeom.polygon_exit gives its farthest vertex z_a and a point b of
  an edge [z_k, z_k+1]: where the ray from z_a through 0 leaves the
  polygon, or the polygon's point nearest 0.  b is solved on
  span(x_k, x_k+1), then 0 on span(x_a, x_b): two solves.  A zero
  witness that misses |<psi|M|psi>| <= 1e-8 raises NumericalRangeError.
* n = 2: F is a filled ellipse (elliptical range theorem, C.-K. Li,
  Proc. AMS 124, 1996), so one exact 2x2 solve on the Bloch sphere gives
  the witness, a zero of the form or the state of the point of F nearest
  0.  The distance is |<x|M|x>|.  No bracket and no eigensolve.
* Scaled unitaries, n >= 3: when M'M = c I up to 1e-13 c, with
  c = tr(M'M)/n, M is sqrt(c) times a unitary, so it is normal and F is
  the polygon of its eigenvalues (the normality property of the field
  of values: Horn and Johnson, Topics in Matrix Analysis, 1991, sec.
  1.2).  Its witness is the closed form's: metrics._closed_form_w, on
  the polar step of M / sqrt(c), weighs the eigenvectors v_k by w_k,
  1/2 on the ends of the eigenvalues' arc, whose chord's midpoint is the
  polygon's point nearest 0, or three vertices around 0 once the arc
  covers a semicircle, and returns sum_k sqrt(w_k) v_k, normalized.
  The distance is |<x|M|x>|.  The invariant faces of a unitary and the
  factors of a Kronecker product take this path, with no bracket.
* Scale: for every n >= 2 the solve runs on M / 2^e with max |m_ij| < 2^e.
  A power of two scales exactly, and the squares the solve takes stay
  finite for entries up to 1e308.  The witness of n = 2 and of a scaled
  unitary does not depend on the scale; every distance is scaled back by
  2^e.
* Zero: for every n, the form rounds at about n eps 2^e, so a distance
  at or below the larger of that and min(1e-8, 1e-12 * max(1, max |m_ij|))
  reads as 0; a zero witness must meet the larger of it and 1e-8.

Needed because compressions of unitaries onto subspaces are no longer
normal, so the circle geometry of the full-space metric does not apply.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .circlegeom import polygon_exit
from .errors import NotSquareError, NumericalRangeError
from .linalg import _hermitian_parts, _polar_step, as_matrix, gram_deviation
from .metrics import _closed_form_w

_ZERO_TOL = 1e-12
_WITNESS_TOL = 1e-8
_BOUND_TOL = 1e-13
# bracket angles on the whole circle; half of them are eigensolved, in one batch
_PHI_SAMPLES = 64
# steps of one Newton iteration: refining a candidate maximum (one
# eigensolve each), or projecting onto the range of a 2x2 compression
_NEWTON_STEPS = 40


class _Point(NamedTuple):
    """g and its derivatives at one angle, with its support state.

    ``kink`` is the step in the direction of ascent to the nearest angle
    where the tangents of lambda_0 and another eigenvalue meet, nan when
    none does, so it never stays inside a bracket; ``z`` = <x|M|x> is the
    point of F that supports direction phi, with x = psi_0.
    """

    phi: float
    g: float
    dg: float
    d2g: float
    kink: float
    z: complex
    x: np.ndarray


def _kphi(h1: np.ndarray, h2: np.ndarray, phi: float) -> np.ndarray:
    return math.sin(phi) * h1 + math.cos(phi) * h2


def _point(phi: float, vals: np.ndarray, vecs: np.ndarray, kphi: np.ndarray) -> _Point:
    kk = vecs.conj().T @ kphi @ vecs
    g = float(vals[0])
    slopes = -kk.diagonal().real
    dg = float(slopes[0])
    gaps = vals[1:] - vals[0]
    # a zero gap makes d2g -inf or nan, which the Newton step refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        curv = float(np.sum(np.abs(kk[1:, 0]) ** 2 / gaps))
        crossings = gaps / (slopes[0] - slopes[1:])
        ahead = crossings[crossings * dg > 0.0]
    kink = float(ahead[np.argmin(np.abs(ahead))]) if ahead.size else math.nan
    z = complex(math.cos(phi), -math.sin(phi)) * complex(g, -dg)
    return _Point(phi, g, dg, -g - 2.0 * curv, kink, z, vecs[:, 0])


def _evaluate(h1: np.ndarray, h2: np.ndarray, phi: float) -> _Point:
    vals, vecs = np.linalg.eigh(math.cos(phi) * h1 - math.sin(phi) * h2)
    return _point(phi, vals, vecs, _kphi(h1, h2, phi))


def _segment_point(p: complex, q: complex) -> complex:
    """Point of the segment [p, q] nearest 0."""
    d = q - p
    dd = abs(d) ** 2
    t = 0.0 if dd == 0.0 else min(1.0, max(0.0, -(d.conjugate() * p).real / dd))
    return p + t * d


def _next_angle(x: _Point, a: _Point, b: _Point, chord: complex) -> float:
    """The nearest to x of the Newton step on g', the step to the nearest
    kink and the direction normal to the chord at its point ``chord``
    nearest 0, among those inside the bracket; the midpoint when none is."""
    # g(phi) supports direction e^{-i phi}, so the normal through c is -arg(c)
    normal = a.phi + (-cmath.phase(chord) - a.phi) % (2.0 * math.pi)
    angles = [x.phi + x.kink, normal]
    if x.d2g < 0.0:
        angles.append(x.phi - x.dg / x.d2g)
    inside = [phi for phi in angles if a.phi < phi < b.phi]
    return min(inside, key=lambda phi: abs(phi - x.phi), default=0.5 * (a.phi + b.phi))


def _refine(
    h1: np.ndarray, h2: np.ndarray, a: _Point, b: _Point, radius: float, zero_tol: float, seen: list
) -> tuple[_Point, _Point, _Point, float]:
    """Highest g found in [a.phi, b.phi], whose ends hold g' > 0 and g' < 0,
    the bracket's final ends, and the least distance from 0 of the chords
    between the ends, which bounds g over the whole circle from above.
    Every point evaluated is appended to ``seen``."""
    best = x = a if a.g >= b.g else b
    tol = _BOUND_TOL * max(1.0, radius)
    upper = math.inf
    for _ in range(_NEWTON_STEPS):
        width = b.phi - a.phi
        # both ends lie in F, so the chord between them does, and its
        # distance from 0 bounds every value of g from above
        chord = _segment_point(a.z, b.z)
        upper = min(upper, abs(chord))
        if upper - best.g <= tol or upper <= zero_tol:
            break
        # g'' <= -g <= radius, so each end's tangent taken at the far end,
        # plus radius * width^2 / 2, bounds g on the bracket: g < 0 on all of it
        if min(a.g + a.dg * width, b.g - b.dg * width) + 0.5 * radius * width * width < 0.0:
            break
        phi = _next_angle(x, a, b, chord)
        if not a.phi < phi < b.phi:
            break
        x = _evaluate(h1, h2, phi)
        seen.append(x)
        if x.g > best.g:
            best = x
        if x.dg > 0.0:
            a = x
        else:
            b = x
    return best, a, b, upper


def _bloch_state(n) -> np.ndarray:
    """Unit 2-vector whose projector has the given Bloch vector."""
    # acos(n_z) would lose half the digits of theta near the poles
    theta = math.atan2(math.hypot(n[0], n[1]), n[2])
    phi = math.atan2(n[1], n[0])
    return np.array(
        [math.cos(theta / 2), math.sin(theta / 2) * complex(math.cos(phi), math.sin(phi))],
        dtype=complex,
    )


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


class _BlochFrame(NamedTuple):
    """Zero set of a 2x2 form in Bloch coordinates (see
    :func:`_quadratic_form_zero_2x2`): s1 y1 = r1 and s2 y2 = r2 for the
    Bloch vector y1 v1 + y2 v2 + y3 v3, with ``axes`` = (v1, v2, v3)."""

    s1: float
    s2: float
    r1: float
    r2: float
    axes: tuple

    def point(self, mu: float) -> tuple[float, float]:
        """(y1, y2) = (s1 r1 / (s1^2 + mu), s2 r2 / (s2^2 + mu)); at mu = 0
        the zero, which lies on the sphere when y1^2 + y2^2 <= 1."""
        y1 = self.s1 * self.r1 / (self.s1 * self.s1 + mu)
        y2 = self.s2 * self.r2 / (self.s2 * self.s2 + mu) if self.s2 > 0.0 else 0.0
        return y1, y2

    def state(self, y1: float, y2: float) -> np.ndarray:
        y3 = math.sqrt(max(0.0, 1.0 - y1 * y1 - y2 * y2))
        return _bloch_state([y1 * p + y2 * q + y3 * r for p, q, r in zip(*self.axes)])


def _bloch_frame(c00: complex, c01: complex, c10: complex, c11: complex) -> _BlochFrame | None:
    """The frame of the 2x2 form with these entries; None when it is scalar."""
    # H = (C + C')/2 and K = (C - C')/2i from the entries of C
    sym, skew = c01 + c10.conjugate(), c01 - c10.conjugate()
    h0, k0 = (c00.real + c11.real) / 2, (c00.imag + c11.imag) / 2
    h = (sym.real / 2, -sym.imag / 2, (c00.real - c11.real) / 2)
    k = (skew.imag / 2, skew.real / 2, (c00.imag - c11.imag) / 2)
    w = 0.5 * math.atan2(2.0 * _dot(h, k), _dot(h, h) - _dot(k, k))
    cw, sw = math.cos(w), math.sin(w)
    g1 = [cw * x + sw * y for x, y in zip(h, k)]
    g2 = [cw * y - sw * x for x, y in zip(h, k)]
    r1, r2 = -(cw * h0 + sw * k0), sw * h0 - cw * k0
    s1 = math.sqrt(_dot(g1, g1))
    if s1 == 0.0:
        return None
    v1 = [x / s1 for x in g1]
    v2 = g2
    # twice: one pass leaves v2 far from orthogonal when g2 nearly lies along v1
    for _ in range(2):
        a = _dot(v2, v1)
        v2 = [x - a * y for x, y in zip(v2, v1)]
    s2 = math.sqrt(_dot(v2, v2))
    if s2 == 0.0:
        j = min(range(3), key=lambda i: abs(v1[i]))
        v2 = [float(i == j) - v1[j] * x for i, x in enumerate(v1)]
    norm2 = math.sqrt(_dot(v2, v2))
    v2 = [x / norm2 for x in v2]
    v3 = (
        v1[1] * v2[2] - v1[2] * v2[1],
        v1[2] * v2[0] - v1[0] * v2[2],
        v1[0] * v2[1] - v1[1] * v2[0],
    )
    return _BlochFrame(s1, s2, r1, r2, (v1, v2, v3))


def _quadratic_form_zero_2x2(c: np.ndarray) -> np.ndarray:
    """Unit x with x' C x = 0 for a 2x2 matrix whose range contains 0, or
    with x' C x the point of the range nearest 0 when it does not.

    In Bloch coordinates both Hermitian parts are affine:
    x'Hx = h0 + h.n with n the Bloch vector, so the zero set is the
    intersection of two planes with the unit sphere.  Rotating the two
    equations gives orthogonal normals g1, g2 with |g1| = s1 >= |g2| = s2,
    and in the frame v1 = g1/s1, v2, v3 = v1 x v2 they read s1 y1 = r1,
    s2 y2 = r2: solved exactly when y1^2 + y2^2 <= 1, else projected onto
    the ellipse {(s1 y1, s2 y2) : |y| = 1} by Newton on the multiplier mu
    of y_i = s_i r_i / (s_i^2 + mu).  Parallel planes (s2 = 0, or 0 up to
    rounding) need no threshold.  Plain floats: at this size numpy costs
    more than the arithmetic.
    """
    (c00, c01), (c10, c11) = c.tolist()
    frame = _bloch_frame(c00, c01, c10, c11)
    if frame is None:
        # C is scalar: every state has the same form value
        return np.array([1.0, 0.0], dtype=complex)
    s1, s2 = frame.s1, frame.s2
    mu = 0.0
    for _ in range(_NEWTON_STEPS):
        y1, y2 = frame.point(mu)
        norm = math.hypot(y1, y2)
        if norm <= 1.0:
            break
        slope = y1 * y1 / (s1 * s1 + mu) + (y2 * y2 / (s2 * s2 + mu) if s2 > 0.0 else 0.0)
        step = (norm - 1.0) * norm * norm / slope
        if mu + step == mu:
            break
        mu += step
    if norm > 1.0:
        y1, y2 = y1 / norm, y2 / norm
    return frame.state(y1, y2)


def _principal_zero(m: np.ndarray, zero_tol: float) -> np.ndarray | None:
    """Zero witness on two basis vectors e_j, e_k, or None.

    The range of the principal compression C = M[{j,k},{j,k}] is an
    ellipse inside F(M).  For x = (cos t, e^{i phi} sin t), x'Cx is a
    point of the chord [m_jj, m_kk] plus a term of modulus at most
    (|m_jk| + |m_kj|)/2, so a pair whose chord lies farther than that
    from 0 cannot hold 0.  The other pairs are tried nearest first, at
    most n of them; the first whose zero lies on the Bloch sphere
    (y1^2 + y2^2 <= 1, no projection) is lifted to e_j, e_k, and returned
    when its residual meets ``zero_tol``.  Plain floats, as in the 2x2 solve.
    """
    n = m.shape[0]
    rows = m.tolist()
    ranked = []
    for j in range(n):
        for k in range(j + 1, n):
            bound = abs(_segment_point(rows[j][j], rows[k][k]))
            bound -= 0.5 * (abs(rows[j][k]) + abs(rows[k][j]))
            if bound <= 0.0:
                ranked.append((bound, j, k))
    ranked.sort()
    for _, j, k in ranked[:n]:
        frame = _bloch_frame(rows[j][j], rows[j][k], rows[k][j], rows[k][k])
        if frame is None:
            # C = 0, as bound <= 0 leaves no other scalar
            x = np.array([1.0, 0.0], dtype=complex)
        else:
            y1, y2 = frame.point(0.0)
            if math.hypot(y1, y2) > 1.0:
                continue
            x = frame.state(y1, y2)
        psi = np.zeros(n, dtype=complex)
        psi[[j, k]] = x
        if _form_residual(m, psi) <= zero_tol:
            return psi
    return None


def _unit_scale(m: np.ndarray, e: int) -> np.ndarray:
    """M / 2^e, exactly.  With 2^(e-1) <= max |m_ij| < 2^e the entries
    fall below 1, so the squares the solve takes stay finite."""
    parts = np.ascontiguousarray(m).view(np.float64)
    return np.ldexp(parts, -e).view(complex)


def _span_state(m: np.ndarray, x: np.ndarray, y: np.ndarray, target: complex) -> np.ndarray:
    """Unit state of span(x, y) with <psi|M|psi> = target, or nearest it
    when the target lies outside the range of that 2x2 compression; every
    point between <x|M|x> and <y|M|y> lies inside (Toeplitz-Hausdorff)."""
    q = y - (x.conj() @ y) * x
    nrm = math.sqrt((q.conj() @ q).real)
    if nrm <= _ZERO_TOL:
        return x
    basis = np.array([x, q / nrm])
    c = basis.conj() @ m @ basis.T
    c[0, 0] -= target
    c[1, 1] -= target
    return _quadratic_form_zero_2x2(c) @ basis


def _form_residual(m: np.ndarray, psi: np.ndarray) -> float:
    return abs(complex(psi.conj() @ m @ psi))


def _polygon_witness(m: np.ndarray, z: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Zero witness from support points z_k = <x_k|M|x_k> in boundary order.

    :func:`~unimetric.circlegeom.polygon_exit` gives the farthest vertex
    z_a and a point b of edge [z_k, z_k+1]: the ray's exit beyond 0, or
    the polygon's point nearest 0.  b is solved on span(x_k, x_k+1), then
    0 on span(x_a, x_b), whose range holds the segment from z_a to b.
    """
    far, k, k1, t, _ = polygon_exit(z)
    b = z[k] + t * (z[k1] - z[k])
    return _span_state(m, states[far], _span_state(m, states[k], states[k1], b), 0.0)


def _scaled_unitary_witness(m: np.ndarray) -> np.ndarray | None:
    """Witness from the eigenvalue polygon when M = sqrt(c) U with U
    unitary, c = tr(M'M)/n, to max |M'M - c I| <= 1e-13 c; else None.

    F(M) is then the convex hull of M's eigenvalues, and the closed
    form's maximizer for U reaches its point nearest 0, or a zero.
    """
    n = m.shape[0]
    gram = m.conj().T @ m
    c = gram.trace().real / n
    if not (c > 0.0 and gram_deviation(gram, c) <= _BOUND_TOL * c):
        return None
    # the polar step's eigenvectors are exact to second order in A's
    # deviation from unitary, A's own only to first order over H1's gaps
    return _closed_form_w(_polar_step(m / math.sqrt(c)))[0].maximizer


def _solve(m: np.ndarray, zero_tol: float) -> tuple[float, np.ndarray]:
    """Distance and witness: a zero of a principal 2x2 compression when one
    holds 0 (n >= 3), else the bracket and its refinement."""
    if m.shape[0] >= 3:
        witness = _principal_zero(m, zero_tol)
        if witness is not None:
            return 0.0, witness
    h1, h2 = _hermitian_parts(m)
    half = _PHI_SAMPLES // 2
    step = math.pi / half
    phis = step * np.arange(half)
    cos, sin = np.cos(phis)[:, None, None], np.sin(phis)[:, None, None]
    vals, vecs = np.linalg.eigh(cos * h1 - sin * h2)
    # sample j + half is phi_j + pi, where A flips sign
    g = np.concatenate([vals[:, 0], -vals[:, -1]])
    # max |lambda| samples the support function of F, whose maximum, the
    # numerical radius w >= |g'|, is at most a factor 1 / cos(step / 2) higher
    radius = float(np.abs(vals).max()) / math.cos(step / 2)
    level = -0.5 * radius * step

    def sample(j: int) -> _Point:
        phi = j * step
        k = j % (2 * half)
        if k < half:
            return _point(phi, vals[k], vecs[k], _kphi(h1, h2, phi))
        return _point(phi, -vals[k - half, ::-1], vecs[k - half][:, ::-1], _kphi(h1, h2, phi))

    seen: list[_Point] = []
    ring = np.concatenate([g[-1:], g, g[:1]])
    peaks = np.flatnonzero((g >= ring[:-2]) & (g >= ring[2:]) & (g > level))
    for j in peaks[np.argsort(-g[peaks], kind="stable")]:
        p = sample(int(j))
        a, b = (p, sample(int(j) + 1)) if p.dg >= 0.0 else (sample(int(j) - 1), p)
        best, a, b, upper = _refine(h1, h2, a, b, radius, zero_tol, seen)
        if best.g > zero_tol:
            return best.g, _span_state(m, a.x, b.x, _segment_point(a.z, b.z))
        if upper <= zero_tol:
            break
    # support states: the min eigenvector at phi_j, the max one at phi_j + pi
    angles = np.concatenate([phis, phis + math.pi, [p.phi % (2 * math.pi) for p in seen]])
    states = np.concatenate([vecs[..., 0], vecs[..., -1], *(p.x[None] for p in seen)])
    order = np.argsort(angles, kind="stable")
    states = states[order]
    z = np.einsum("bi,ij,bj->b", states.conj(), m, states)
    return 0.0, _polygon_witness(m, z, states)


def numrange_origin_distance(m) -> tuple[float, np.ndarray]:
    """Distance from 0 to the numerical range of a square matrix, with an
    achieving state.

    Returns ``(distance, witness)`` where |<witness|M|witness>| equals
    the distance within 1e-6 (typically far better).  From n = 3, a
    principal 2x2 compression whose elliptical range holds 0 gives the
    zero witness on two basis vectors in one exact solve, with no
    eigensolve.  Otherwise the witness is solved on the span of two
    support states the bracket already holds: one exact 2x2 solve when
    0 lies outside F, two when it lies inside.  A 2x2 matrix is that one
    solve alone, and a multiple of a unitary is solved on its
    eigenvectors; for both, the distance is |<witness|M|witness>|.  A distance at or below max(min(1e-8, 1e-12 *
    max(1, max |m_ij|)), n eps 2^e), with 2^(e-1) <= max |m_ij| < 2^e,
    reads 0.0, with |<witness|M|witness>| at or below the larger of that
    bound and 1e-8.

    Raises
    ------
    NotSquareError
        If the matrix is not square.
    NumericalRangeError
        If the zero witness misses that bound.
    """
    m = as_matrix(m)
    n, k = m.shape
    if n != k:
        raise NotSquareError(f"numerical range needs a square matrix, got {m.shape}")
    # plain floats: at n = 2 a numpy pass costs more than the scan
    big = max(map(abs, m.ravel().tolist()))
    e = math.frexp(big)[1]
    # the form itself rounds at about n eps 2^e
    zero_tol = max(min(_WITNESS_TOL, _ZERO_TOL * max(1.0, big)), math.ldexp(n * math.ulp(1.0), e))
    scaled = _unit_scale(m, e)
    if n == 1:
        witness = np.ones(1, dtype=complex)
    elif n == 2:
        witness = _quadratic_form_zero_2x2(scaled)
    else:
        witness = _scaled_unitary_witness(scaled)
    if witness is None:
        dist, witness = _solve(scaled, math.ldexp(zero_tol, -e))
        dist = math.ldexp(dist, e)
    else:
        dist = math.ldexp(_form_residual(scaled, witness), e)
        if dist <= zero_tol:
            dist = 0.0
    if dist > 0.0:
        return dist, witness
    resid = _form_residual(m, witness)
    # no witness is checked below the form's rounding; a NaN residual fails too
    guard = max(_WITNESS_TOL, zero_tol)
    if not resid <= guard:
        raise NumericalRangeError(resid, guard)
    return 0.0, witness
