"""Distance from the origin to the numerical range of a square matrix.

The numerical range F(M) = {<psi|M|psi> : ||psi|| = 1} is convex, so its
distance from 0 equals the best separating-halfplane margin:

    dist(0, F(M)) = max_phi  max(0, lambda_min(Herm(e^{i phi} M)))

The sweep over phi is exact in the limit and each evaluation is a stable
Hermitian eigenvalue problem.  A coarse grid locates the positive lobe
(on which the margin function is concave) and golden-section refinement
polishes the maximum.  When no direction separates, 0 lies inside the
range and a witness state with <psi|M|psi> ~= 0 is constructed by
zeroing the supported component along a min/max eigenvector mix, then
bisecting the support direction on the residual transverse component.

Needed because compressions of unitaries onto subspaces are no longer
normal, so the circle geometry of the full-space metric does not apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotSquareError, OutOfRangeError
from .linalg import as_matrix

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_ZERO_TOL = 1e-12
_WITNESS_TOL = 1e-8


@dataclass(frozen=True)
class NumericalRangeQuery:
    """Input matrix plus sweep resolution knobs."""

    matrix: np.ndarray = field(repr=False)
    phi_samples: int = 720
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


def _herm_parts(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ha = (m + m.conj().T) / 2
    hb = 1j * (m - m.conj().T) / 2
    return ha, hb


def _lambda_min_grid(ha: np.ndarray, hb: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """lambda_min(cos(phi) HA + sin(phi) HB) for every phi, batched."""
    n = ha.shape[0]
    cos = np.cos(phis)
    sin = np.sin(phis)
    if n == 2:
        a = cos * ha[0, 0].real + sin * hb[0, 0].real
        c = cos * ha[1, 1].real + sin * hb[1, 1].real
        b = cos * ha[0, 1] + sin * hb[0, 1]
        half = (a - c) / 2
        return (a + c) / 2 - np.sqrt(half * half + np.abs(b) ** 2)
    stack = cos[:, None, None] * ha[None] + sin[:, None, None] * hb[None]
    return np.linalg.eigvalsh(stack)[:, 0]


def _lambda_min_scalar(ha: np.ndarray, hb: np.ndarray, phi: float) -> float:
    return float(_lambda_min_grid(ha, hb, np.array([phi]))[0])


def _golden_max(f, lo: float, hi: float, iters: int) -> tuple[float, float]:
    a, b = lo, hi
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


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


def _zero_witness(m: np.ndarray, ha: np.ndarray, hb: np.ndarray, scan_points: int) -> np.ndarray:
    n = m.shape[0]
    if n == 2:
        return _quadratic_form_zero_2x2(m)

    def candidate(phi: float) -> tuple[np.ndarray, float, float]:
        aphi = math.cos(phi) * ha + math.sin(phi) * hb
        kphi = math.sin(phi) * ha - math.cos(phi) * hb
        vals, vecs = np.linalg.eigh(aphi)
        psi = _mixing_state(vals, vecs)
        y = float((psi.conj() @ kphi @ psi).real)
        resid = abs(complex(psi.conj() @ m @ psi))
        return psi, y, resid

    phis = np.linspace(0.0, math.pi, scan_points, endpoint=False)
    cands = [candidate(p) for p in phis]
    best = min(cands, key=lambda c: c[2])
    if best[2] <= _WITNESS_TOL:
        return best[0]
    # the transverse component flips sign across half a turn
    ys = [c[1] for c in cands] + [-cands[0][1]]
    edges = list(phis) + [math.pi]
    bracket = None
    for i in range(scan_points):
        if ys[i] == 0.0 or ys[i] * ys[i + 1] <= 0.0:
            bracket = (edges[i], edges[i + 1], ys[i])
            break
    if bracket is not None:
        lo, hi, ylo = bracket
        psi_lo = cands[int(np.searchsorted(phis, lo))][0]
        psi_hi = psi_lo
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            psi_mid, y_mid, resid_mid = candidate(mid)
            if resid_mid <= 1e-12:
                return psi_mid
            if ylo * y_mid <= 0.0:
                hi, psi_hi = mid, psi_mid
            else:
                lo, ylo, psi_lo = mid, y_mid, psi_mid
        psi_mid, _, resid_mid = candidate(0.5 * (lo + hi))
        if resid_mid <= _WITNESS_TOL:
            return psi_mid
        # bracketing states straddle 0 along a near-degenerate direction;
        # the 2x2 compression onto their span still contains 0
        q1 = psi_lo
        q2 = psi_hi - (q1.conj() @ psi_hi) * q1
        if np.linalg.norm(q2) < 1e-8:
            q2 = cands[0][0] - (q1.conj() @ cands[0][0]) * q1
        q2 = q2 / np.linalg.norm(q2)
        basis = np.column_stack([q1, q2])
        x = _quadratic_form_zero_2x2(basis.conj().T @ m @ basis)
        return basis @ x
    return best[0]


def _positive_witness(
    m: np.ndarray, ha: np.ndarray, hb: np.ndarray, phi_star: float
) -> np.ndarray:
    """Minimizing eigenvector at the optimal direction; on a degenerate
    support face, mix within the eigenspace to kill the transverse part."""
    aphi = math.cos(phi_star) * ha + math.sin(phi_star) * hb
    vals, vecs = np.linalg.eigh(aphi)
    scale = max(1.0, float(np.abs(vals).max()))
    cluster = vals <= vals[0] + 1e-8 * scale
    if int(cluster.sum()) == 1:
        return vecs[:, 0]
    block = vecs[:, cluster]
    kphi = math.sin(phi_star) * ha - math.cos(phi_star) * hb
    comp = block.conj().T @ kphi @ block
    comp = (comp + comp.conj().T) / 2
    kvals, kvecs = np.linalg.eigh(comp)
    if kvals[0] <= 0.0 <= kvals[-1]:
        x = _mixing_state(kvals, kvecs)
    else:
        x = kvecs[:, int(np.argmin(np.abs(kvals)))]
    return block @ x


def numrange_origin_distance(query) -> tuple[float, np.ndarray]:
    """Distance from 0 to the numerical range, with an achieving state.

    Accepts a :class:`NumericalRangeQuery` or a bare square matrix.
    Returns ``(distance, witness)`` where |<witness|M|witness>| equals
    the distance up to sweep resolution (1e-6 contract, typically far
    better), and the witness satisfies |<psi|M|psi>| <= 1e-8 when the
    range contains the origin.
    """
    q = query if isinstance(query, NumericalRangeQuery) else NumericalRangeQuery(query)
    m = q.matrix
    n = m.shape[0]
    if n == 1:
        return abs(complex(m[0, 0])), np.ones(1, dtype=complex)
    ha, hb = _herm_parts(m)
    phis = np.linspace(0.0, 2.0 * math.pi, q.phi_samples, endpoint=False)
    gvals = _lambda_min_grid(ha, hb, phis)
    i0 = int(np.argmax(gvals))
    step = 2.0 * math.pi / q.phi_samples
    phi_star, g_star = _golden_max(
        lambda p: _lambda_min_scalar(ha, hb, p),
        phis[i0] - step,
        phis[i0] + step,
        q.refine_iters,
    )
    if g_star <= float(gvals[i0]):
        phi_star, g_star = float(phis[i0]), float(gvals[i0])
    if g_star > _ZERO_TOL:
        witness = _positive_witness(m, ha, hb, phi_star)
        return float(g_star), witness
    witness = _zero_witness(m, ha, hb, scan_points=max(64, q.phi_samples // 8))
    return 0.0, witness
