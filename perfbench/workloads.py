"""Seeded inputs and operations of the library workloads.

A workload is a fixed list of operations (a round).  Every operation
names a public function of the program, its arguments, and a check that
validates the output with :mod:`checks`.  The make-up of a round (sizes,
kinds of pairs and their counts) is the same for every seed; the seed
only draws the matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

TAU = 2 * math.pi
SPECTRAL_KINDS = ("haar", "narrow", "wide", "degenerate")
SMALL_SIZES = (2, 3, 4, 8, 16)
SMALL_PAIRS_PER_KIND = 4
# n = 256 eigensolves cost ~30x the n = 64 ones; these counts give each
# size about half of the round's time.  n = 64 comes first, so the
# warm-up operation of set-up is a small one.
LARGE_COUNTS = {64: 30, 256: 1}
SEPARABLE_RESTARTS = 4
SEPARABLE_MAX_ALTERNATIONS = 50
FACE_DIM, FACE_AMBIENT = 3, 8
# Counts per subset_opt round.  Product pairs and eigenvector faces cost
# the same for every draw; random faces do not (0 may or may not lie in
# the numerical range), so there are many of them.  About 1 in 100
# generic 2x3 pairs costs ~18x the median (thousands of eigensolves), so
# only a few are kept: a seed that draws one moves the round's time by
# ~1%.  Over 20 seeds the round's eigensolve count varies by 1.4% (CV).
PRODUCT_PAIRS = {(2, 2): 8, (2, 3): 16}
HAAR_SEPARABLE = 4
RANDOM_FACES = 48
EIGENVECTOR_FACES = 24


@dataclass(frozen=True)
class Op:
    """One call into the program and the check of its result.

    ``expect_error`` names the exception class the call must raise; the
    operation fails when it returns instead.
    """

    label: str
    module: str
    func: str
    args: tuple
    check: Callable[[object], None] | None = None
    expect_error: str | None = None


def haar(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar unitary: QR of a complex Ginibre matrix, R diagonal made positive."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def with_spectrum(rng: np.random.Generator, angles) -> np.ndarray:
    """Q diag(exp(i angles)) Q' for a Haar Q."""
    q = haar(rng, len(angles))
    return (q * np.exp(1j * np.asarray(angles))) @ q.conj().T


def narrow_angles(rng: np.random.Generator, n: int, distinct: int | None = None) -> np.ndarray:
    """Angles on an arc of length in [0.2, 2.8], both ends occupied."""
    k = n if distinct is None else min(n, distinct)
    t = np.sort(rng.uniform(0.0, 1.0, k))
    t[0], t[-1] = 0.0, 1.0
    vals = rng.uniform(0.0, TAU) + rng.uniform(0.2, 2.8) * t
    return np.resize(vals, n) if k < n else vals


def wide_angles(rng: np.random.Generator, n: int, distinct: int | None = None) -> np.ndarray:
    """Angles whose widest gap is below pi - 0.4, so d saturates at 1.

    For n = 2 the only saturating pair is antipodal.
    """
    phi = rng.uniform(0.0, TAU)
    if n == 2:
        return np.array([phi, phi + math.pi])
    anchors = phi + np.array([0.0, TAU / 3, 2 * TAU / 3]) + np.r_[0.0, rng.uniform(-0.3, 0.3, 2)]
    k = n if distinct is None else min(n, max(3, distinct))
    vals = np.concatenate([anchors, rng.uniform(0.0, TAU, k - 3)])
    return np.resize(vals, n) if k < n else vals


def random_pauli(rng: np.random.Generator, qubits: int) -> str:
    return "".join(rng.choice(list("IXYZ"), size=qubits))


def spectral_pair(rng: np.random.Generator, n: int, kind: str, j: int):
    """(U, V, constructed arc or None) for one pair of the given kind.

    Degenerate pairs cycle through four shapes: distinct Pauli strings
    (W has two antipodal eigenvalues), a narrow spectrum with two
    repeated values, V a phase multiple of U (W is a scalar), and a wide
    spectrum with three repeated values.  n = 3 replaces the Pauli pair
    by another repeated wide spectrum.
    """
    u = haar(rng, n)
    if kind == "haar":
        return u, haar(rng, n), None
    if kind == "narrow":
        ang = narrow_angles(rng, n)
    elif kind == "wide":
        ang = wide_angles(rng, n)
    else:
        shape = j % 4
        qubits = int(round(math.log2(n)))
        if shape == 0 and 2**qubits == n:
            a = random_pauli(rng, qubits)
            b = random_pauli(rng, qubits)
            while b == a:
                b = random_pauli(rng, qubits)
            phase = np.exp(1j * rng.uniform(0.0, TAU))
            return phase * checks.pauli_matrix(a), checks.pauli_matrix(b), math.pi
        if shape == 1:
            ang = narrow_angles(rng, n, distinct=2)
        elif shape == 2:
            return u, np.exp(1j * rng.uniform(0.0, TAU)) * u, 0.0
        else:
            ang = wide_angles(rng, n, distinct=3)
    return u, u @ with_spectrum(rng, ang), checks.arc_length(ang)


def _spectral_ops(metrics, n: int, kind: str, u, v, alpha) -> list[Op]:
    label = f"n={n} {kind}"

    def check_sup(out):
        checks.check_sup(u, v, out.value, out.maximizer, alpha)
        checks.check_symmetric(out.value, metrics.sup_distance(v, u).value)

    def check_dist(out):
        checks.check_distinguishability(
            u, v, out.distinguishable, out.value, out.witness, out.min_overlap_bound, alpha
        )

    return [
        Op(f"sup_distance {label}", "metrics", "sup_distance", (u, v), check_sup),
        Op(f"distinguishability {label}", "metrics", "distinguishability", (u, v), check_dist),
    ]


def invalid_operand_ops() -> list[Op]:
    """Non-unitary operands 2U and V/2 whose product U'V is unitary.

    The inputs are fixed, not drawn from the seed, so these operations
    fail identically in every run until operands are validated.
    """
    pairs = [
        ("2I, I/2 n=2", 2 * np.eye(2, dtype=complex), 0.5 * np.eye(2, dtype=complex)),
        ("2XZ, YY/2 n=4", 2 * checks.pauli_matrix("XZ"), 0.5 * checks.pauli_matrix("YY")),
    ]
    ops = []
    for label, u, v in pairs:
        for func in ("sup_distance", "distinguishability"):
            ops.append(Op(f"{func} {label}", "metrics", func, (u, v), expect_error="NotUnitaryError"))
    return ops


def spectral_small(rng: np.random.Generator, program) -> list[Op]:
    ops = []
    for n in SMALL_SIZES:
        for kind in SPECTRAL_KINDS:
            for j in range(SMALL_PAIRS_PER_KIND):
                ops += _spectral_ops(program.metrics, n, kind, *spectral_pair(rng, n, kind, j))
    return ops + invalid_operand_ops()


def spectral_large(rng: np.random.Generator, program) -> list[Op]:
    ops = []
    for n, per_kind in LARGE_COUNTS.items():
        for kind in SPECTRAL_KINDS:
            for j in range(per_kind):
                ops += _spectral_ops(program.metrics, n, kind, *spectral_pair(rng, n, kind, j))
    return ops


def _separable_op(program, rng, label, u, v, dims, expected=None) -> Op:
    prob = program.subsets.SeparableProblem(
        dim_a=dims[0],
        dim_b=dims[1],
        restarts=SEPARABLE_RESTARTS,
        max_alternations=SEPARABLE_MAX_ALTERNATIONS,
        seed=int(rng.integers(2**31)),
    )

    def check(out):
        checks.check_subset(u, v, out.value, out.maximizer, dims=dims, expected=expected)

    return Op(f"separable_distance {label}", "subsets", "separable_distance", (u, v, prob), check)


def _product_pair(rng, dims):
    """U = A x B and V = A' x B' with narrow-arc factor products A^dag A'."""
    factors = []
    for d in dims:
        a = haar(rng, d)
        factors.append((a, a @ with_spectrum(rng, narrow_angles(rng, d))))
    (ua, va), (ub, vb) = factors
    m = checks.factor_margin(ua.conj().T @ va) * checks.factor_margin(ub.conj().T @ vb)
    return np.kron(ua, ub), np.kron(va, vb), math.sqrt(max(0.0, 1.0 - m * m))


def _face_op(label, u, v, basis, expected=None) -> Op:
    def check(out):
        checks.check_subset(u, v, out.value, out.maximizer, face=basis, expected=expected)

    return Op(f"face_distance {label}", "subsets", "face_distance", (u, v, basis), check)


def subset_opt(rng: np.random.Generator, program) -> list[Op]:
    """Separable splits 2x2 and 2x3 and 3-dimensional faces at n = 8.

    Product operators have the closed value sqrt(1 - (m1 m2)^2); Y x Z
    against the identity is the saturated product (m1 = m2 = 0).  Faces
    spanned by eigenvectors of U'V have the closed value of their three
    eigenangles; half of them cover a semicircle (the numerical range
    holds 0) and half do not, so both numrange branches run in every
    round.
    """
    ops = [
        _separable_op(
            program, rng, "2x2 I vs YxZ", np.eye(4, dtype=complex), checks.pauli_matrix("YZ"), (2, 2), 1.0
        )
    ]
    for dims, count in PRODUCT_PAIRS.items():
        for _ in range(count):
            u, v, expected = _product_pair(rng, dims)
            ops.append(_separable_op(program, rng, f"{dims[0]}x{dims[1]} product", u, v, dims, expected))
    for _ in range(HAAR_SEPARABLE):
        ops.append(_separable_op(program, rng, "2x3 haar", haar(rng, 6), haar(rng, 6), (2, 3)))
    for _ in range(RANDOM_FACES):
        u, v = haar(rng, FACE_AMBIENT), haar(rng, FACE_AMBIENT)
        basis = haar(rng, FACE_AMBIENT)[:, :FACE_DIM]
        ops.append(_face_op("n=8 random", u, v, basis))
    for j in range(EIGENVECTOR_FACES):
        face_angles = (wide_angles if j % 2 else narrow_angles)(rng, FACE_DIM)
        ang = np.concatenate([face_angles, rng.uniform(0.0, TAU, FACE_AMBIENT - FACE_DIM)])
        q = haar(rng, FACE_AMBIENT)
        u = haar(rng, FACE_AMBIENT)
        v = u @ (q * np.exp(1j * ang)) @ q.conj().T
        expected = checks.distance_of_arc(checks.arc_length(face_angles))
        ops.append(_face_op("n=8 eigenvector", u, v, q[:, :FACE_DIM], expected))
    return ops


BUILDERS = {
    "spectral_small": spectral_small,
    "spectral_large": spectral_large,
    "subset_opt": subset_opt,
}
WORKLOAD_IDS = {"spectral_small": 1, "spectral_large": 2, "subset_opt": 3, "cli_session": 4}


def build(workload: str, seed: int, program) -> list[Op]:
    rng = np.random.default_rng([seed, WORKLOAD_IDS[workload]])
    return BUILDERS[workload](rng, program)
