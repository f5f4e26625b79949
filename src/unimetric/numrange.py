"""Distance from the origin to the numerical range of a square matrix.

The numerical range F(M) = {<psi|M|psi> : ||psi|| = 1} is convex, so its
distance from 0 is the best separating-halfplane margin (Johnson's
support-function method, C. R. Johnson, SIAM J. Numer. Anal. 15, 1978):

    dist(0, F(M)) = max(0, max_phi g(phi)),   g(phi) = lambda_min(A_phi),
    A_phi = Herm(e^{i phi} M) = cos(phi) HA + sin(phi) HB.

With K_phi = sin(phi) HA - cos(phi) HB = -dA_phi/dphi and the eigenpairs
(lambda_k, psi_k) of A_phi in ascending order,

    g'  = -psi_0' K_phi psi_0,
    g'' = -g - 2 sum_{k>0} |psi_k' K_phi psi_0|^2 / (lambda_k - lambda_0),

so one Hermitian eigensolve gives g and both derivatives.  g is positive
on at most one arc, and there g'' <= -g < 0.

* Bracket: one batched eigensolve over ceil(phi_samples / 2) angles in
  [0, pi) gives g at phi_samples angles of the whole circle, because
  lambda_min(A_{phi+pi}) = -lambda_max(A_phi).  |g'| is at most the
  numerical radius w, so the sample nearest a positive arc reads above
  -w * step / 2 even when the arc falls between samples.
* Refinement: every circular local maximum of the samples above that
  level is refined, highest first, until one is positive; when there is
  none, 0 lies in F and nothing is refined.  Each step costs one
  eigensolve and stays inside a bracket whose ends hold g' > 0 and
  g' < 0.  It is the shorter of a Newton step on g' and the step to the
  nearest kink, where lambda_0 meets another eigenvalue along their
  tangents; the kink is the usual maximum of a normal matrix whose
  nearest point lies inside an edge.  When neither stays inside, the step
  goes to where the tangents of g at the two ends cross.  Once both ends
  have g > 0, those tangents bound the maximum from above, and so does
  the distance from 0 to the chord between the points <psi_0|M|psi_0> of
  the two ends, which lie in F.  Refinement stops when the bound is
  within 1e-13 of the best value found.  A candidate is rejected as soon
  as g'' <= -g <= w shows that g < 0 on its bracket, and a chord through
  0 shows that 0 lies in F.
* Zero witness: when 0 lies in F, the bracket's eigenvectors give at each
  angle a state that mixes the min and max eigenvectors of A_phi so that
  <psi|A_phi|psi> = 0, with the relative phase that brings the transverse
  part y = <psi|K_phi|psi> closest to 0.  y(phi + pi) = -y(phi), so y
  changes sign on [0, pi].  Where it does, the 2x2 compression onto the
  two states on either side has a numerical range holding both their
  form values and, usually, 0, which it solves exactly; when it does
  not, Illinois regula falsi on y narrows the pair.  A witness that misses
  |<psi|M|psi>| <= 1e-8 is solved once more on a doubled grid, and
  NumericalRangeError is raised if that misses too.

Needed because compressions of unitaries onto subspaces are no longer
normal, so the circle geometry of the full-space metric does not apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NotSquareError, NumericalRangeError, OutOfRangeError
from .linalg import as_matrix

_ZERO_TOL = 1e-12
_WITNESS_TOL = 1e-8
_BOUND_TOL = 1e-13
_FALSI_ITERS = 64


@dataclass(frozen=True)
class NumericalRangeQuery:
    """Input matrix plus solver knobs.

    ``phi_samples`` is the number of bracket angles on the whole circle;
    half of them are eigensolved, in one batch.  ``refine_iters`` caps the
    eigensolves spent refining one candidate maximum.
    """

    matrix: np.ndarray = field(repr=False)
    phi_samples: int = 64
    refine_iters: int = 40

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise NotSquareError(f"numerical range needs a square matrix, got {m.shape}")
        if self.phi_samples < 8:
            raise OutOfRangeError("phi_samples must be at least 8")
        if self.refine_iters < 0:
            raise OutOfRangeError("refine_iters must be nonnegative")
        object.__setattr__(self, "matrix", m)


class _Point(NamedTuple):
    """g and its derivatives at one angle, with the eigensolve behind them.

    ``kink`` is the step in the direction of ascent to the nearest angle
    where lambda_0 meets another eigenvalue, by their tangents (nan if
    none meets it), and ``z`` = <psi_0|M|psi_0> is the point of F that
    supports direction phi.
    """

    phi: float
    g: float
    dg: float
    d2g: float
    kink: float
    z: complex
    vals: np.ndarray
    vecs: np.ndarray
    kphi: np.ndarray


def _herm_parts(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ha = (m + m.conj().T) / 2
    hb = 1j * (m - m.conj().T) / 2
    return ha, hb


def _kphi(ha: np.ndarray, hb: np.ndarray, phi: float) -> np.ndarray:
    return math.sin(phi) * ha - math.cos(phi) * hb


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
    return _Point(phi, g, dg, -g - 2.0 * curv, kink, z, vals, vecs, kphi)


def _evaluate(ha: np.ndarray, hb: np.ndarray, phi: float) -> _Point:
    vals, vecs = np.linalg.eigh(math.cos(phi) * ha + math.sin(phi) * hb)
    return _point(phi, vals, vecs, _kphi(ha, hb, phi))


def _tangent_bound(a: _Point, b: _Point) -> tuple[float, float | None]:
    """Max over [a.phi, b.phi] of the lower of the tangents at a and b,
    and the angle where they cross inside (None if they do not).

    Tangents lie above a concave function, so this bounds g on the
    bracket when both ends have g > 0.
    """
    width = b.phi - a.phi
    slope = a.dg - b.dg
    if slope > 0.0:
        s = (b.g - a.g - b.dg * width) / slope
        if 0.0 < s < width:
            return a.g + a.dg * s, a.phi + s
    return max(min(a.g, b.g - b.dg * width), min(a.g + a.dg * width, b.g)), None


def _chord_bound(a: _Point, b: _Point) -> float:
    """Distance from 0 to the segment [a.z, b.z], 0 when it meets 0.

    Both ends lie in F, so their convex hull bounds the distance to F,
    and so every value of g, from above.
    """
    d = b.z - a.z
    dd = abs(d) ** 2
    t = 0.0 if dd == 0.0 else min(1.0, max(0.0, -(d.conjugate() * a.z).real / dd))
    return abs(a.z + t * d)


def _next_angle(x: _Point, a: _Point, b: _Point, cross: float | None) -> float:
    """The shorter of the Newton step on g' and the step to the nearest
    kink, if it stays inside the bracket; else the tangent crossing, or
    the midpoint."""
    steps = [x.kink]
    if x.d2g < 0.0:
        steps.append(-x.dg / x.d2g)
    for step in sorted(steps, key=abs):
        if a.phi < x.phi + step < b.phi:
            return x.phi + step
    return cross if cross is not None else 0.5 * (a.phi + b.phi)


def _refine(
    ha: np.ndarray, hb: np.ndarray, a: _Point, b: _Point, iters: int, radius: float
) -> tuple[_Point, float]:
    """Highest g found in [a.phi, b.phi], whose ends hold g' > 0 and g' < 0,
    and an upper bound on g over the whole circle."""
    best = x = a if a.g >= b.g else b
    tol = _BOUND_TOL * max(1.0, radius)
    upper = _chord_bound(a, b)
    for _ in range(iters):
        width = b.phi - a.phi
        tangent, cross = _tangent_bound(a, b)
        upper = min(upper, _chord_bound(a, b))
        if a.g > 0.0 and b.g > 0.0:
            upper = min(upper, tangent)
        if upper - best.g <= tol or upper <= _ZERO_TOL:
            break
        # g'' <= -g <= radius, so g < 0 on the whole bracket
        if tangent + 0.5 * radius * width * width < 0.0:
            break
        phi = _next_angle(x, a, b, cross)
        if not a.phi < phi < b.phi:
            break
        x = _evaluate(ha, hb, phi)
        if x.g > best.g:
            best = x
        if x.dg > 0.0:
            a = x
        else:
            b = x
    return best, upper


def _bloch_state(n: np.ndarray) -> np.ndarray:
    """Unit 2-vector whose projector has the given Bloch vector."""
    theta = math.acos(min(1.0, max(-1.0, n[2])))
    phi = math.atan2(n[1], n[0])
    return np.array(
        [math.cos(theta / 2), math.sin(theta / 2) * complex(math.cos(phi), math.sin(phi))],
        dtype=complex,
    )


def _quadratic_form_zero_2x2(c: np.ndarray) -> np.ndarray:
    """Unit x with x' C x = 0 for a 2x2 matrix whose range contains 0.

    In Bloch coordinates both Hermitian parts are affine:
    x'Hx = h0 + h.n with n the Bloch vector, so the zero set is the
    intersection of two planes with the unit sphere; solved exactly.
    """
    h = (c + c.conj().T) / 2
    k = (c - c.conj().T) / 2j
    def coeffs(a):
        a0 = a.trace().real / 2
        vec = np.array(
            [a[0, 1].real, -a[0, 1].imag, (a[0, 0].real - a[1, 1].real) / 2]
        )
        return a0, vec
    h0, hv = coeffs(h)
    k0, kv = coeffs(k)
    gram = np.array([[hv @ hv, hv @ kv], [hv @ kv, kv @ kv]])
    rhs = np.array([-h0, -k0])
    ab, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    n_plane = ab[0] * hv + ab[1] * kv
    u = np.cross(hv, kv)
    if np.linalg.norm(u) < 1e-13:
        # planes parallel (or one trivial): any direction orthogonal to both
        ref = hv if hv @ hv >= kv @ kv else kv
        if ref @ ref < 1e-26:
            u = np.array([0.0, 0.0, 1.0])
        else:
            b = np.eye(3)[int(np.argmin(np.abs(ref)))]
            u = b - (b @ ref) * ref / (ref @ ref)
    u = u / np.linalg.norm(u)
    rad = math.sqrt(max(0.0, 1.0 - float(n_plane @ n_plane)))
    n = n_plane + rad * u
    nn = np.linalg.norm(n)
    if nn > 0:
        n = n / nn
    return _bloch_state(n)


def _mixing_state(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Mix min/max eigenvectors so the quadratic form of A vanishes."""
    lam1, lamn = float(vals[0]), float(vals[-1])
    if lam1 >= -_ZERO_TOL:
        return vecs[:, 0]
    if lamn <= _ZERO_TOL:
        return vecs[:, -1]
    t = math.atan(math.sqrt(-lam1 / lamn))
    return math.cos(t) * vecs[:, 0] + math.sin(t) * vecs[:, -1]


def _balanced_states(
    vals: np.ndarray, vecs: np.ndarray, kphi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """States psi with <psi|A_phi|psi> = 0 and their transverse part
    y = <psi|K_phi|psi>, batched over leading axes.

    psi = c psi_min + s e^{i theta} psi_max with c^2 lambda_min + s^2
    lambda_max = 0.  theta moves y over [base - reach, base + reach], and
    is chosen to bring y closest to 0.  A sign-definite A_phi (0 on the
    boundary of F) takes the eigenvector itself.
    """
    lo, hi = vals[..., 0], vals[..., -1]
    v1, vn = vecs[..., :, 0], vecs[..., :, -1]
    spread = np.where(hi > lo, hi - lo, 1.0)
    c2 = np.where(lo >= -_ZERO_TOL, 1.0, np.where(hi <= _ZERO_TOL, 0.0, hi / spread))
    c, s = np.sqrt(c2), np.sqrt(1.0 - c2)
    k11 = np.einsum("...i,...ij,...j->...", v1.conj(), kphi, v1).real
    knn = np.einsum("...i,...ij,...j->...", vn.conj(), kphi, vn).real
    k1n = np.einsum("...i,...ij,...j->...", v1.conj(), kphi, vn)
    base = c2 * k11 + (1.0 - c2) * knn
    reach = 2.0 * c * s * np.abs(k1n)
    u = np.clip(np.divide(-base, reach, out=np.zeros_like(base), where=reach > 0.0), -1.0, 1.0)
    phase = np.exp(1j * (np.arccos(u) - np.angle(k1n)))
    psi = c[..., None] * v1 + (s * phase)[..., None] * vn
    return psi, base + reach * u


def _form_residual(m: np.ndarray, psi: np.ndarray) -> float:
    return abs(complex(psi.conj() @ m @ psi))


def _compressed_zero(m: np.ndarray, q1: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Zero of the form on the 2x2 compression onto span(q1, other)."""
    q2 = other - (q1.conj() @ other) * q1
    q2 = q2 / np.linalg.norm(q2)
    basis = np.column_stack([q1, q2])
    return basis @ _quadratic_form_zero_2x2(basis.conj().T @ m @ basis)


def _zero_between(m, ha, hb, lo, hi) -> np.ndarray:
    """Zero witness between two (phi, y, psi) ends where y changes sign.

    Each round first tries the 2x2 compression onto the two end states,
    whose range holds both their form values, on either side of 0; then
    one Illinois regula falsi step on y narrows the ends.  Returns the
    state with the smallest residual found.
    """
    (pa, ya, sa), (pb, yb, sb) = lo, hi
    best = min(sa, sb, key=lambda psi: _form_residual(m, psi))
    for _ in range(_FALSI_ITERS):
        if abs(complex(sa.conj() @ sb)) < 1.0 - 1e-8:
            psi = _compressed_zero(m, sa, sb)
            if _form_residual(m, psi) < _form_residual(m, best):
                best = psi
        if _form_residual(m, best) <= _WITNESS_TOL or ya == yb:
            break
        phi = (pa * yb - pb * ya) / (yb - ya)
        if not min(pa, pb) < phi < max(pa, pb):
            break
        vals, vecs = np.linalg.eigh(math.cos(phi) * ha + math.sin(phi) * hb)
        psi, y = _balanced_states(vals, vecs, _kphi(ha, hb, phi))
        if _form_residual(m, psi) < _form_residual(m, best):
            best = psi
        y = float(y)
        if y * yb < 0.0:
            pa, ya, sa = pb, yb, sb
        else:
            ya /= 2.0
        pb, yb, sb = phi, y, psi
    return best


def _zero_witness(
    m: np.ndarray, ha: np.ndarray, hb: np.ndarray, phis, vals, vecs
) -> np.ndarray:
    """State with |<psi|M|psi>| as small as found, for 0 in F."""
    if m.shape[0] == 2:
        return _quadratic_form_zero_2x2(m)
    kphis = np.sin(phis)[:, None, None] * ha - np.cos(phis)[:, None, None] * hb
    psis, ys = _balanced_states(vals, vecs, kphis)
    resid = np.abs(np.einsum("bi,ij,bj->b", psis.conj(), m, psis))
    best = psis[int(np.argmin(resid))]
    if resid.min() <= _WITNESS_TOL:
        return best
    # y(pi) = -y(0) closes the half circle
    ends = list(zip(np.append(phis, math.pi), np.append(ys, -ys[0]), [*psis, psis[0]]))
    flips = [j for j in range(len(phis)) if ends[j][1] * ends[j + 1][1] <= 0.0]
    flips.sort(key=lambda j: abs(ends[j][1]) + abs(ends[j + 1][1]))
    for j in flips:
        psi = _zero_between(m, ha, hb, ends[j], ends[j + 1])
        if _form_residual(m, psi) < _form_residual(m, best):
            best = psi
        if _form_residual(m, best) <= _WITNESS_TOL:
            break
    return best


def _positive_witness(p: _Point) -> np.ndarray:
    """Minimizing eigenvector at the optimal direction; on a degenerate
    support face, mix within the eigenspace to kill the transverse part."""
    scale = max(1.0, float(np.abs(p.vals).max()))
    cluster = p.vals <= p.vals[0] + 1e-8 * scale
    if int(cluster.sum()) == 1:
        return p.vecs[:, 0]
    block = p.vecs[:, cluster]
    comp = block.conj().T @ p.kphi @ block
    comp = (comp + comp.conj().T) / 2
    kvals, kvecs = np.linalg.eigh(comp)
    if kvals[0] <= 0.0 <= kvals[-1]:
        x = _mixing_state(kvals, kvecs)
    else:
        x = kvecs[:, int(np.argmin(np.abs(kvals)))]
    return block @ x


def _solve(
    m: np.ndarray, ha: np.ndarray, hb: np.ndarray, samples: int, iters: int
) -> tuple[float, np.ndarray]:
    """Distance and witness from a bracket of ``samples`` angles."""
    half = (samples + 1) // 2
    step = math.pi / half
    phis = step * np.arange(half)
    cos, sin = np.cos(phis)[:, None, None], np.sin(phis)[:, None, None]
    vals, vecs = np.linalg.eigh(cos * ha + sin * hb)
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
            return _point(phi, vals[k], vecs[k], _kphi(ha, hb, phi))
        return _point(phi, -vals[k - half, ::-1], vecs[k - half][:, ::-1], _kphi(ha, hb, phi))

    ring = np.concatenate([g[-1:], g, g[:1]])
    peaks = np.flatnonzero((g >= ring[:-2]) & (g >= ring[2:]) & (g > level))
    for j in peaks[np.argsort(-g[peaks], kind="stable")]:
        p = sample(int(j))
        a, b = (p, sample(int(j) + 1)) if p.dg >= 0.0 else (sample(int(j) - 1), p)
        best, upper = _refine(ha, hb, a, b, iters, radius)
        if best.g > _ZERO_TOL:
            return best.g, _positive_witness(best)
        if upper <= _ZERO_TOL:
            break
    return 0.0, _zero_witness(m, ha, hb, phis, vals, vecs)


def numrange_origin_distance(query) -> tuple[float, np.ndarray]:
    """Distance from 0 to the numerical range, with an achieving state.

    Accepts a :class:`NumericalRangeQuery` or a bare square matrix.
    Returns ``(distance, witness)`` where |<witness|M|witness>| equals
    the distance within 1e-6 (typically far better).  A distance of 0.0
    comes with a witness satisfying |<psi|M|psi>| <= 1e-8.

    Raises
    ------
    NumericalRangeError
        If neither the query's grid nor a doubled one yields such a zero
        witness.
    """
    q = query if isinstance(query, NumericalRangeQuery) else NumericalRangeQuery(query)
    m = q.matrix
    n = m.shape[0]
    if n == 1:
        return abs(complex(m[0, 0])), np.ones(1, dtype=complex)
    ha, hb = _herm_parts(m)
    for samples in (q.phi_samples, 2 * q.phi_samples):
        dist, witness = _solve(m, ha, hb, samples, q.refine_iters)
        if dist > 0.0:
            return dist, witness
        resid = _form_residual(m, witness)
        if resid <= _WITNESS_TOL:
            return 0.0, witness
    raise NumericalRangeError(resid, _WITNESS_TOL)
