"""Each output check accepts a correct output and rejects a deliberately wrong one.

Run from the root of the repository: ``python3 -m pytest perfbench/test_checks.py``.
Correct outputs are built here by hand, not by the program.
"""

import math
from functools import reduce

import numpy as np
import pytest

import checks

THETA = 1.2  # U = I, V = diag(1, e^{i theta}): d = sin(theta/2), narrow arc
U = np.eye(2, dtype=complex)
V = np.diag([1.0, np.exp(1j * THETA)])
MAXIMIZER = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
D = math.sin(THETA / 2)


def random_unit(n, seed=7):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def test_sup_accepts_the_closed_form():
    checks.check_sup(U, V, D, MAXIMIZER, expected_alpha=THETA)


def test_sup_rejects_value_off_by_1e_5():
    with pytest.raises(checks.CheckError):
        checks.check_sup(U, V, D + 1e-5, MAXIMIZER)


def test_sup_rejects_value_off_the_constructed_arc():
    with pytest.raises(checks.CheckError):
        checks.check_sup(U, V, D, MAXIMIZER, expected_alpha=THETA + 1e-4)


def test_sup_rejects_random_maximizer():
    with pytest.raises(checks.CheckError):
        checks.check_sup(U, V, D, random_unit(2))


def test_symmetry_is_bitwise():
    checks.check_symmetric(D, D)
    with pytest.raises(checks.CheckError):
        checks.check_symmetric(D, math.nextafter(D, 1.0))


def test_distinguishability_narrow_pair():
    bound = math.cos(THETA / 2)
    checks.check_distinguishability(U, V, False, D, None, bound, THETA)
    with pytest.raises(checks.CheckError):
        checks.check_distinguishability(U, V, False, D + 1e-5, None, bound)
    with pytest.raises(checks.CheckError):
        checks.check_distinguishability(U, V, False, D, None, bound + 1e-5)
    with pytest.raises(checks.CheckError):
        checks.check_distinguishability(U, V, True, D, MAXIMIZER, None)


def test_distinguishability_witness_overlap():
    z = np.diag([1.0 + 0j, -1.0])  # antipodal spectrum: d = 1
    checks.check_distinguishability(U, z, True, 1.0, MAXIMIZER, None)
    with pytest.raises(checks.CheckError):
        checks.check_distinguishability(U, z, True, 1.0, random_unit(2), None)
    with pytest.raises(checks.CheckError):
        checks.check_distinguishability(U, z, True, 1.0 - 1e-5, MAXIMIZER, None)


def product_case():
    """I x I against diag(1, e^{ia}) x diag(1, e^{ib}); best product state |+>|+>."""
    a, b = 0.8, 1.4
    u = np.eye(4, dtype=complex)
    v = np.kron(np.diag([1.0, np.exp(1j * a)]), np.diag([1.0, np.exp(1j * b)]))
    m = math.cos(a / 2) * math.cos(b / 2)
    psi = np.full(4, 0.5, dtype=complex)
    return u, v, math.sqrt(1 - m * m), psi


def test_separable_accepts_the_product_formula():
    u, v, value, psi = product_case()
    checks.check_subset(u, v, value, psi, dims=(2, 2), expected=value)


def test_separable_rejects_value_off_by_1e_5():
    u, v, value, psi = product_case()
    with pytest.raises(checks.CheckError):
        checks.check_subset(u, v, value + 1e-5, psi, dims=(2, 2), expected=value)


def test_separable_rejects_random_maximizer():
    u, v, value, _ = product_case()
    with pytest.raises(checks.CheckError):
        checks.check_subset(u, v, value, random_unit(4), dims=(2, 2))


def test_face_rejects_maximizer_outside_the_face():
    u, v, value, psi = product_case()
    face = np.eye(4, dtype=complex)[:, :2]
    inside = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / math.sqrt(2)
    value_in = checks.overlap_distance(u.conj().T @ v, inside)
    checks.check_subset(u, v, value_in, inside, face=face)
    with pytest.raises(checks.CheckError):
        checks.check_subset(u, v, value, psi, face=face)


def stabilizer_faces(generators):
    """Joint eigenspaces from the projectors prod (I + s g)/2, one per sign tuple."""
    mats = [checks.pauli_matrix(g.lstrip("+")) for g in generators]
    n = mats[0].shape[0]
    faces = []
    for signs in np.ndindex(*(2,) * len(mats)):
        chars = [1.0 - 2.0 * s for s in signs]
        proj = reduce(
            lambda acc, gc: acc @ (np.eye(n) + gc[1] * gc[0]) / 2, zip(mats, chars), np.eye(n)
        )
        vals, vecs = np.linalg.eigh((proj + proj.conj().T) / 2)
        faces.append((vecs[:, vals > 0.5], [complex(c) for c in chars]))
    return faces


@pytest.mark.parametrize(
    "generators, count",
    [(["+ZZ", "+XX"], 4), (["+XZZXI", "+IXZZX", "+XIXZZ", "+ZXIXZ"], 16)],
)
def test_stabilizer_rejects_flipped_character(generators, count):
    faces = stabilizer_faces(generators)
    checks.check_stabilizer(faces, generators, expected_faces=count)
    basis, chars = faces[1]
    flipped = [-chars[0]] + chars[1:]
    with pytest.raises(checks.CheckError):
        checks.check_stabilizer(
            faces[:1] + [(basis, flipped)] + faces[2:], generators, expected_faces=count
        )


def test_search_rejects_k_off_by_one():
    n, eps = 1048576, 0.1
    alpha = math.asin(1 / math.sqrt(n))
    k = checks.reference_minimal_k(n, eps)
    assert abs(math.cos(alpha + k * alpha)) <= eps < abs(math.cos(alpha + (k - 1) * alpha))
    checks.check_search(k, abs(math.cos(alpha + k * alpha)), n, eps)
    for wrong in (k - 1, k + 1):
        with pytest.raises(checks.CheckError):
            checks.check_search(wrong, abs(math.cos(alpha + wrong * alpha)), n, eps)
