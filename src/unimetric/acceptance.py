"""End-to-end verification suite for the toolkit's quantitative claims.

Each check pins a closed-form value against an independent oracle
(geometry against optimization, combinatorics against dense solves,
formulas against brute force) at a fixed tolerance.  The same checks
back the library test suite and the ``selftest`` CLI command; fixed
seeds make every run bit-reproducible.

A check returns only its margins: each names a measured value, a
comparison and the bound it is held to.  Every check runs to its end,
so a failing run still reports every margin, and :class:`CheckResult`
alone decides the verdict (every margin met) and renders the detail.

The two optimization oracles, #4 (sup via optimization) and #11 (the
separable grid oracle), share one numpy routine, :func:`_sphere_descent`:
Riemannian gradient descent on a product of unit spheres with
Barzilai-Borwein steps.  Neither calls an eigensolver or the library
code it checks.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import circlegeom, pauli, search, subsets
from .errors import OutOfRangeError
from .linalg import haar_random_state, haar_unitaries, kron, schatten_norm, validate_unitary
from .metrics import check_sandwich, distinguishability, sup_distance, tensor_distance

TAU = 2.0 * math.pi
_COMPARISONS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class Margin:
    """A measured value against its bound: ``measured op bound`` is met.

    ``fmt`` formats both numbers; a NaN meets no bound.
    """

    label: str
    measured: float
    op: str
    bound: float
    fmt: str = ".3e"

    @property
    def met(self) -> bool:
        return _COMPARISONS[self.op](self.measured, self.bound)

    def __str__(self) -> str:
        text = f"{self.label} = {self.measured:{self.fmt}} {self.op} {self.bound:{self.fmt}}"
        return text if self.met else f"{text} (missed)"


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    margins: tuple[Margin, ...]
    seconds: float

    @property
    def passed(self) -> bool:
        return all(m.met for m in self.margins)

    @property
    def detail(self) -> str:
        return ", ".join(map(str, self.margins))


def _rotated_spectrum_unitary(rng: np.random.Generator, angles: np.ndarray) -> np.ndarray:
    q = haar_unitaries(rng, 1, len(angles))[0]
    return (q * np.exp(1j * angles)) @ q.conj().T


def _check_arc_formula(seed: int) -> list[Margin]:
    thetas = np.arange(1, 51) / 51.0 * math.pi
    worst = 0.0
    for th in thetas:
        val = sup_distance(np.eye(2), np.diag([1.0, np.exp(1j * th)])).value
        worst = max(worst, abs(val - math.sin(th / 2.0)))
    return [Margin("max |d - sin(theta/2)| over 50 angles in (0, pi)", worst, "<=", 1e-12)]


def _check_semicircle_saturation(seed: int) -> list[Margin]:
    # Two eigenvalues at separation theta > pi sit on an arc of length
    # 2pi - theta < pi, so the literal pair never saturates; a middle
    # eigenvalue pins the covering arc at theta and forces d = 1.
    thetas = math.pi + np.arange(50) / 50.0 * math.pi
    worst_sat = 0.0
    worst_pair = 0.0
    for th in thetas:
        pinned = np.diag([1.0, np.exp(1j * th / 2.0), np.exp(1j * th)])
        worst_sat = max(worst_sat, abs(sup_distance(np.eye(3), pinned).value - 1.0))
        pair = np.diag([1.0, np.exp(1j * th)])
        worst_pair = max(
            worst_pair, abs(sup_distance(np.eye(2), pair).value - math.sin(th / 2.0))
        )
    antipodal = abs(sup_distance(np.eye(2), np.diag([1.0, -1.0 + 0j])).value - 1.0)
    return [
        Margin("saturation err", worst_sat, "<=", 1e-12),
        Margin("antipodal err", antipodal, "<=", 1e-12),
        Margin("two-point sin(theta/2) err", worst_pair, "<=", 1e-12),
    ]


def _check_polygon_oracle(seed: int) -> list[Margin]:
    worst = 0.0
    for n in (2, 3, 4, 6):
        rng = np.random.default_rng([seed, 3, n])
        for _ in range(200):
            u = validate_unitary(haar_unitaries(rng, 1, n)[0])
            closed = sup_distance(np.eye(n), u.matrix).value
            poly, _ = circlegeom.polygon_distance_to_origin(u.eigen_angles)
            oracle = math.sqrt(max(0.0, 1.0 - poly * poly))
            worst = max(worst, abs(closed - oracle))
    return [Margin("max |d - sqrt(1 - poly^2)| over 800 unitaries", worst, "<=", 1e-9)]


# safety cap on descent steps; no descent in checks 4 and 11 comes near it
_DESCENT_STEPS = 2000
# squared norm of the tangent gradient at which a descent has converged
_GRADIENT_TOL = 1e-28
_ARMIJO = 1e-4
_OPTIMIZER_STARTS = 6


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt((x.conj() * x).real.sum(axis=-1, keepdims=True))


def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    return float((a.conj() * b).real.sum())


def _sphere_descent(
    grad: Callable[[np.ndarray], tuple[float, np.ndarray]], x: np.ndarray
) -> float:
    """Minimum of f found from x over arrays whose rows are unit vectors.

    ``grad(x)`` returns f(x) and its Euclidean gradient, the complex array
    df/dRe(x) + i df/dIm(x).  Riemannian gradient descent on the product
    of the rows' spheres (Absil, Mahony & Sepulchre, Optimization
    Algorithms on Matrix Manifolds, 2008, ch. 4): each step moves against
    the gradient's tangent part and renormalizes each row.  The trial step
    is the Barzilai-Borwein ratio |s|^2 / |<s, y>| of the last move s and
    the change y of the tangent gradient (Barzilai & Borwein, IMA J.
    Numer. Anal. 8, 1988), halved until the Armijo condition holds.  The
    descent stops when the squared tangent-gradient norm is at most 1e-28,
    when f stops falling (no move longer than rounding lowers it), or after
    2000 steps.
    """

    def tangent_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        f, g = grad(x)
        return f, g - (x.conj() * g).real.sum(axis=-1, keepdims=True) * x

    f, g = tangent_grad(x)
    step = 1.0
    for _ in range(_DESCENT_STEPS):
        gg = _real_dot(g, g)
        if gg <= _GRADIENT_TOL:
            break
        while True:
            y = _unit_rows(x - step * g)
            fy, gy = tangent_grad(y)
            if fy <= f - _ARMIJO * step * gg:
                break
            step *= 0.5
            # unit rows move by step * |g|, which below eps is rounding
            if step * math.sqrt(gg) < np.finfo(float).eps:
                return f
        s = y - x
        sy = _real_dot(s, gy - g)
        step = _real_dot(s, s) / abs(sy) if sy else 1.0
        x, f, g = y, fy, gy
    return f


def _overlap_gradient(w: np.ndarray, psi: np.ndarray) -> tuple[float, np.ndarray]:
    """|<psi|W|psi>|^2 and its Euclidean gradient in psi."""
    wpsi = w @ psi
    s = psi.conj() @ wpsi
    return float((s * s.conjugate()).real), 2.0 * (s.conjugate() * wpsi + s * (psi.conj() @ w).conj())


def _optimized_distance(w: np.ndarray, rng: np.random.Generator) -> float:
    """sqrt(1 - min |<psi|W|psi>|^2) by :func:`_sphere_descent` on the unit
    sphere of C^n, from the best of six random starts."""
    n = w.shape[0]

    def grad(x):
        f, g = _overlap_gradient(w, x[0])
        return f, g[None]

    best = math.inf
    for _ in range(_OPTIMIZER_STARTS):
        x0 = rng.standard_normal(2 * n)
        best = min(best, _sphere_descent(grad, _unit_rows((x0[:n] + 1j * x0[n:])[None])))
    return math.sqrt(max(0.0, 1.0 - best))


def _check_sup_via_optimization(seed: int) -> list[Margin]:
    rng = np.random.default_rng([seed, 4])
    worst = 0.0
    for _ in range(50):
        u = haar_unitaries(rng, 1, 4)[0]
        v = haar_unitaries(rng, 1, 4)[0]
        closed = sup_distance(u, v).value
        opt = _optimized_distance(u.conj().T @ v, rng)
        worst = max(worst, abs(closed - opt))
    return [Margin("max |closed - optimized| over 50 pairs in U(4)", worst, "<=", 1e-6)]


def _check_tensor_rule(seed: int) -> list[Margin]:
    rng = np.random.default_rng([seed, 5])
    worst = 0.0
    saturated = 0
    smooth = 0
    for trial in range(100):
        u, v = haar_unitaries(rng, 1, 2)[0], haar_unitaries(rng, 1, 2)[0]
        w, x = haar_unitaries(rng, 1, 3)[0], haar_unitaries(rng, 1, 3)[0]
        if trial >= 60:
            # engineer small factor distances to reach the sine branch
            v = u @ _rotated_spectrum_unitary(rng, rng.uniform(0.0, 0.4, 2))
            x = w @ _rotated_spectrum_unitary(rng, rng.uniform(0.0, 0.4, 3))
        d1 = sup_distance(u, v).value
        d2 = sup_distance(w, x).value
        combined = tensor_distance(d1, d2)
        direct = sup_distance(kron(u, w), kron(v, x)).value
        worst = max(worst, abs(combined - direct))
        if d1 * d1 + d2 * d2 >= 1.0:
            saturated += 1
        else:
            smooth += 1
    return [
        Margin("max |rule - direct|", worst, "<=", 1e-9),
        Margin("sine-branch trials", smooth, ">=", 10, "d"),
        Margin("saturated trials", saturated, ">=", 10, "d"),
    ]


def _check_schatten_scaling(seed: int) -> list[Margin]:
    rng = np.random.default_rng([seed, 6])
    worst = 0.0
    dims = (2, 3, 5)
    for trial in range(50):
        n = dims[trial % len(dims)]
        psi = haar_random_state(n, rng)
        phi = haar_random_state(n, rng)
        diff = np.outer(psi, psi.conj()) - np.outer(phi, phi.conj())
        base = math.sqrt(max(0.0, 1.0 - abs(np.vdot(psi, phi)) ** 2))
        for p in (1.0, 2.0, 3.0):
            expected = 2.0 ** (1.0 / p) * base
            worst = max(worst, abs(schatten_norm(diff, p) - expected))
    return [Margin("max |norm - 2^(1/p) (1-|<psi|phi>|^2)^(1/2)|", worst, "<=", 1e-9)]


def _check_metric_axioms(seed: int) -> list[Margin]:
    rng = np.random.default_rng([seed, 7])
    stack = haar_unitaries(rng, 4000, 3)
    asymmetric = 0
    worst_tri = -math.inf
    worst_mono = -math.inf
    worst_proj = 0.0
    worst_bi = 0.0
    for t in range(1000):
        u, v, w, x = stack[4 * t : 4 * t + 4]
        duv = sup_distance(u, v).value
        asymmetric += sup_distance(v, u).value != duv
        duw = sup_distance(u, w).value
        dvw = sup_distance(v, w).value
        worst_tri = max(worst_tri, duv - (duw + dvw))
        worst_mono = max(
            worst_mono, sup_distance(u @ v, w @ x).value - (duw + sup_distance(v, x).value)
        )
        c = np.exp(1j * rng.uniform(0.0, TAU))
        worst_proj = max(worst_proj, abs(sup_distance(u, c * v).value - duv))
        worst_bi = max(
            worst_bi,
            abs(sup_distance(x @ u, x @ v).value - duv),
            abs(sup_distance(u @ x, v @ x).value - duv),
        )
    return [
        Margin("pairs with d(u, v) != d(v, u) over 1000 triples in U(3)", asymmetric, "<=", 0, "d"),
        Margin("triangle slack", worst_tri, "<=", 1e-9),
        Margin("product slack", worst_mono, "<=", 1e-9),
        Margin("projective", worst_proj, "<=", 1e-9),
        Margin("bi-invariance", worst_bi, "<=", 1e-9),
    ]


def _angles_with_wide_arc(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        angles = np.sort(rng.uniform(0.0, TAU, n))
        gaps = np.diff(angles, append=angles[0] + TAU)
        if TAU - gaps.max() >= math.pi + 0.1:
            return angles


def _check_distinguishability(seed: int) -> list[Margin]:
    rng = np.random.default_rng([seed, 8])
    worst_resid = 0.0
    worst_bound = 0.0
    missed_wide = missed_narrow = 0
    for _ in range(50):
        angles = _angles_with_wide_arc(rng, 4)
        u = haar_unitaries(rng, 1, 4)[0]
        v = u @ _rotated_spectrum_unitary(rng, angles)
        rep = distinguishability(u, v)
        if rep.distinguishable:
            worst_resid = max(worst_resid, rep.residual)
        else:
            missed_wide += 1
    for _ in range(50):
        width = rng.uniform(0.2, math.pi - 0.15)
        interior = rng.uniform(0.05, 0.95, 2) * width
        angles = np.concatenate([[0.0, width], interior]) + rng.uniform(0.0, TAU)
        u = haar_unitaries(rng, 1, 4)[0]
        v = u @ _rotated_spectrum_unitary(rng, angles)
        rep = distinguishability(u, v)
        if rep.distinguishable:
            missed_narrow += 1
        else:
            worst_bound = max(worst_bound, abs(rep.min_overlap_bound - math.cos(width / 2.0)))
    return [
        Margin("wide arcs read as indistinguishable", missed_wide, "<=", 0, "d"),
        Margin("narrow arcs read as distinguishable", missed_narrow, "<=", 0, "d"),
        Margin("witness residual over 50 wide arcs", worst_resid, "<=", 1e-8),
        Margin("bound error over 50 narrow arcs", worst_bound, "<=", 1e-10),
    ]


def _check_pauli_dichotomy(seed: int) -> list[Margin]:
    ident = pauli.PauliElement.identity(2)
    eye4 = np.eye(4)
    worst = 0.0
    other = 0
    for p1, l1, p2, l2 in itertools.product(range(4), "IXYZ", range(4), "IXYZ"):
        g = pauli.pauli_product(
            pauli.PauliElement.from_letters(l1 + "I", p1),
            pauli.PauliElement.from_letters("I" + l2, p2),
        )
        dist = pauli.pauli_distance(ident, g)
        other += dist not in (0.0, 1.0)
        dense = sup_distance(eye4, g.to_matrix()).value
        worst = max(worst, abs(dist - dense))
    return [
        Margin("values other than 0 and 1 over 256 elements", other, "<=", 0, "d"),
        Margin("max |combinatorial - dense|", worst, "<=", 1e-10),
    ]


_BELL = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
    ],
    dtype=complex,
).T / math.sqrt(2.0)


def _check_stabilizer_faces(seed: int) -> list[Margin]:
    dec = pauli.stabilizer_subspace(pauli.PauliSubgroup.from_generators(["+ZZ", "+XX"]))
    zz, xx = pauli.parse_pauli("+ZZ"), pauli.parse_pauli("+XX")
    # ZZ^a XX^b for each pair of exponents, the whole group
    group = {(0, 0): pauli.PauliElement.identity(2), (0, 1): xx, (1, 0): zz}
    group[1, 1] = pauli.pauli_product(zz, xx)
    worst_fid, worst_mult, used = 1.0, 0.0, set()
    for f in dec.faces:
        vec = f.face.basis[:, 0]
        fids = np.abs(_BELL.conj().T @ vec) ** 2
        used.add(int(np.argmax(fids)))
        worst_fid = min(worst_fid, float(fids.max()))
        # character multiplicativity over the whole group on each face
        for (a, b), g in group.items():
            expected = (f.characters[0] ** a) * (f.characters[1] ** b)
            worst_mult = max(worst_mult, float(np.abs(g.to_matrix() @ vec - expected * vec).max()))
    nonab = pauli.stabilizer_subspace(pauli.PauliSubgroup.from_generators(["+X", "+Z"]))
    return [
        Margin("misread abelian flags", (not dec.abelian) + nonab.abelian, "<=", 0, "d"),
        Margin("|faces of <ZZ, XX> - 4|", abs(len(dec.faces) - 4), "<=", 0, "d"),
        Margin("faces not one-dimensional", sum(f.face.dim != 1 for f in dec.faces), "<=", 0, "d"),
        Margin("Bell states matched", len(used), ">=", 4, "d"),
        Margin("Bell fidelity", worst_fid, ">=", 1.0 - 1e-10, ".12f"),
        Margin("multiplicativity err", worst_mult, "<=", 1e-10),
        Margin("faces of non-abelian <X, Z>", len(nonab.faces), "<=", 0, "d"),
    ]


def _product_state_grid(n_t: int = 22, n_phi: int = 46) -> np.ndarray:
    ts = np.linspace(0.0, math.pi / 2, n_t)
    phis = np.linspace(0.0, TAU, n_phi, endpoint=False)
    t_grid, p_grid = np.meshgrid(ts, phis, indexing="ij")
    states = np.stack(
        [np.cos(t_grid), np.sin(t_grid) * np.exp(1j * p_grid)], axis=-1
    )
    return states.reshape(-1, 2)


def _grid_min_overlap(w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Min |<a x b|W|a x b>| over ~10^6 gridded 2x2 product states."""
    states = _product_state_grid()
    w4 = w.reshape(2, 2, 2, 2)
    t = np.einsum("ai,ijkl,ak->ajl", states.conj(), w4, states)
    vals = np.abs(np.einsum("bj,ajl,bl->ab", states.conj(), t, states))
    a_idx, b_idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
    return float(vals[a_idx, b_idx]), states[a_idx], states[b_idx]


def _polished_grid_oracle(w: np.ndarray) -> float:
    """Min |<a x b|W|a x b>| over 2x2 product states: the grid minimum
    refined by :func:`_sphere_descent` on (a, b) jointly."""
    _, a0, b0 = _grid_min_overlap(w)

    def grad(x):
        a, b = x
        f, g = _overlap_gradient(w, np.kron(a, b))
        # the chain rule through psi = a x b contracts g with b for a, with a for b
        g = g.reshape(2, 2)
        return f, np.array([g @ b.conj(), a.conj() @ g])

    return math.sqrt(_sphere_descent(grad, np.array([a0, b0])))


def _check_separable(seed: int) -> list[Margin]:
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    prob = subsets.SeparableProblem(dim_a=2, dim_b=2, restarts=16, seed=seed)
    swap_err = abs(subsets.separable_distance(np.eye(4), swap, prob).value - 1.0)

    rng = np.random.default_rng([seed, 11])
    prob_small = subsets.SeparableProblem(dim_a=2, dim_b=2, restarts=12, seed=seed + 1)
    worst_oracle = 0.0
    worst_factor = 0.0
    for _ in range(20):
        y = validate_unitary(haar_unitaries(rng, 1, 2)[0])
        z = validate_unitary(haar_unitaries(rng, 1, 2)[0])
        w = kron(y.matrix, z.matrix)
        opt = subsets.separable_distance(np.eye(4), w, prob_small).value
        m_oracle = _polished_grid_oracle(w)
        oracle_val = math.sqrt(max(0.0, 1.0 - m_oracle * m_oracle))
        worst_oracle = max(worst_oracle, abs(opt - oracle_val))
        m1, _ = circlegeom.polygon_distance_to_origin(y.eigen_angles)
        m2, _ = circlegeom.polygon_distance_to_origin(z.eigen_angles)
        closed = math.sqrt(max(0.0, 1.0 - (m1 * m2) ** 2))
        worst_factor = max(worst_factor, abs(opt - closed))

    min_positive = math.inf
    evaluated = 0
    for _ in range(20):
        u = haar_unitaries(rng, 1, 4)[0]
        # non-scalar check: distance of u from the nearest phase of identity
        if sup_distance(np.eye(4), u).value < 1e-3:
            continue
        min_positive = min(min_positive, subsets.separable_distance(np.eye(4), u, prob_small).value)
        evaluated += 1
    return [
        Margin("SWAP err", swap_err, "<=", 1e-6),
        Margin("grid-oracle gap", worst_oracle, "<=", 2e-3),
        Margin("factor gap", worst_factor, "<=", 2e-3),
        Margin("non-scalar unitaries evaluated", evaluated, ">=", 15, "d"),
        Margin("min positivity", min_positive, ">", 1e-3),
    ]


def _check_search_closed_form(seed: int) -> list[Margin]:
    rng = np.random.default_rng([seed, 12])
    worst = 0.0
    for _ in range(100):
        alpha = rng.uniform(0.05, 1.2)
        gamma = rng.uniform(0.05, 1.2)
        theta = rng.uniform(0.0, TAU)
        kmax = int((math.pi / 2 - alpha - 0.02) // gamma)
        k = int(rng.integers(0, kmax + 1)) if kmax > 0 else 0
        p = search.SearchProblem(alpha=alpha, gamma=gamma, theta=theta)
        worst = max(
            worst, abs(search.distance_after_k(p, k) - math.cos(alpha + k * gamma))
        )
    exact = search.distance_after_k(
        search.SearchProblem(alpha=math.pi / 6, gamma=math.pi / 6), 2
    )
    p20 = search.SearchProblem.from_size(2**20)
    k, achieved = search.minimal_k(p20, 0.1)
    return [
        Margin("max |d - cos(a+kg)| over 100 draws", worst, "<=", 1e-10),
        Margin("exact case", exact, "<=", 1e-12),
        Margin("minimal k for N = 2^20", k, "<=", math.ceil((math.pi / 2) * math.sqrt(2**20)), "d"),
        Margin("achieved d", achieved, "<=", 0.1, ".4f"),
    ]


def _check_sandwich_inequality(seed: int) -> list[Margin]:
    rng = np.random.default_rng([seed, 13])
    worst = -math.inf
    rejected = 0
    for n in (2, 3, 4, 5, 6):
        us = haar_unitaries(rng, 2000, n)
        vs = haar_unitaries(rng, 2000, n)
        for t in range(2000):
            psi = haar_random_state(n, rng)
            b = check_sandwich(us[t], vs[t], psi)
            worst = max(worst, b.lower - b.mid, b.mid - b.upper)
            rejected += not b.holds
    return [
        Margin("triples check_sandwich rejects", rejected, "<=", 0, "d"),
        Margin("max violation over 10^4 triples in dims 2..6", worst, "<=", 1e-10),
    ]


_CHECKS: list[tuple[str, Callable[[int], list[Margin]]]] = [
    ("arc formula exactness", _check_arc_formula),
    ("semicircle saturation", _check_semicircle_saturation),
    ("polygon oracle equivalence", _check_polygon_oracle),
    ("sup via optimization", _check_sup_via_optimization),
    ("tensor composition rule", _check_tensor_rule),
    ("schatten scaling", _check_schatten_scaling),
    ("metric axioms", _check_metric_axioms),
    ("distinguishability witness", _check_distinguishability),
    ("pauli dichotomy", _check_pauli_dichotomy),
    ("stabilizer faces", _check_stabilizer_faces),
    ("separable pseudometric", _check_separable),
    ("search closed form", _check_search_closed_form),
    ("sandwich inequality", _check_sandwich_inequality),
]


def check_names() -> list[str]:
    return [name for name, _ in _CHECKS]


def run_checks(indices: list[int] | None = None, seed: int = 0) -> list[CheckResult]:
    """Run the numbered checks (1-based), all of them when ``indices`` is None.

    Raises
    ------
    OutOfRangeError
        If the seed is negative, or an index lies outside 1..13.
    """
    if seed < 0:
        raise OutOfRangeError("seed must be nonnegative")
    chosen = range(1, len(_CHECKS) + 1) if indices is None else indices
    bad = [idx for idx in chosen if not 1 <= idx <= len(_CHECKS)]
    if bad:
        raise OutOfRangeError(f"check indices must lie in 1..{len(_CHECKS)}, got {bad}")
    results = []
    for idx in chosen:
        name, fn = _CHECKS[idx - 1]
        start = time.perf_counter()
        margins = tuple(fn(seed))
        results.append(CheckResult(idx, name, margins, time.perf_counter() - start))
    return results


def format_table(results: list[CheckResult]) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.index:2d} {r.name:<{width}}  {r.seconds:7.2f}s  {r.detail}")
    total = sum(r.seconds for r in results)
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed in {total:.2f}s")
    return "\n".join(lines)
