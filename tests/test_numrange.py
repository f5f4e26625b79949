import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unimetric import circlegeom, numrange
from unimetric.circlegeom import WitnessWeights, polygon_distance_to_origin
from unimetric.errors import EmptyInputError, NotSquareError, NumericalRangeError
from unimetric.linalg import haar_random_unitary, haar_unitaries
from unimetric.numrange import numrange_origin_distance

seeds = st.integers(0, 10_000)


def form_value(m, psi):
    return complex(psi.conj() @ m @ psi)


def bracket_solve(m):
    """The n >= 3 bracket on a matrix of any size, with the entry point's
    zero rule and no principal-pair step."""
    zero_tol = numrange._ZERO_TOL * max(1.0, np.abs(m).max())
    with mock.patch.object(numrange, "_principal_zero", lambda m, tol: None):
        return numrange._solve(m, min(numrange._WITNESS_TOL, zero_tol))


class TestQueryValidation:
    def test_rejects_rectangular(self):
        with pytest.raises(NotSquareError):
            numrange_origin_distance(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(EmptyInputError):
            numrange_origin_distance(np.zeros((0, 0)))


class TestKnownValues:
    def test_identity(self):
        dist, wit = numrange_origin_distance(np.eye(3))
        assert dist == pytest.approx(1.0, abs=1e-10)
        assert abs(np.linalg.norm(wit) - 1.0) <= 1e-10

    def test_antipodal_diagonal(self):
        m = np.diag([1.0, -1.0]).astype(complex)
        dist, wit = numrange_origin_distance(m)
        assert dist == 0.0
        assert abs(form_value(m, wit)) <= 1e-8

    def test_scalar_matrix(self):
        dist, wit = numrange_origin_distance(np.array([[0.3 - 0.4j]]))
        assert dist == pytest.approx(0.5, abs=1e-12)
        assert abs(form_value(np.array([[0.3 - 0.4j]]), wit)) == pytest.approx(0.5, abs=1e-12)

    def test_quarter_arc_unitary(self):
        m = np.diag([1.0, 1j])
        dist, _ = numrange_origin_distance(m)
        assert dist == pytest.approx(math.cos(math.pi / 4), abs=1e-6)

    def test_degenerate_support_face_witness(self):
        # the closest boundary point lies strictly inside an edge, so the
        # minimizing eigenspace is two-dimensional and needs the mix
        m = np.diag([1.0, 1j])
        dist, wit = numrange_origin_distance(m)
        assert abs(form_value(m, wit)) == pytest.approx(dist, abs=1e-6)

    def test_nonnormal_compression(self):
        # upper-left 2x2 compression of a 3x3 permutation is a Jordan-like
        # block whose range is the disk of radius 1/2 around 0
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        dist, wit = numrange_origin_distance(m)
        assert dist == 0.0
        assert abs(form_value(m, wit)) <= 1e-8

    def test_shifted_nonnormal_positive(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex) + 0.75 * np.eye(2)
        dist, wit = numrange_origin_distance(m)
        assert dist == pytest.approx(0.25, abs=1e-8)
        assert abs(form_value(m, wit)) == pytest.approx(0.25, abs=1e-6)


class TestAgainstCircleGeometry:
    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(2, 6))
    def test_normal_case_agreement(self, seed, n):
        u = haar_random_unitary(n, seed=seed)
        poly, _ = polygon_distance_to_origin(u.eigen_angles)
        sweep, _ = numrange_origin_distance(u.matrix)
        assert sweep == pytest.approx(poly, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_witness_consistency(self, seed):
        u = haar_random_unitary(4, seed=seed)
        dist, wit = numrange_origin_distance(u.matrix)
        assert abs(form_value(u.matrix, wit)) == pytest.approx(dist, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(seeds, st.floats(0.0, 6.28))
    def test_rotation_equivariance(self, seed, phi):
        u = haar_random_unitary(3, seed=seed)
        base, _ = numrange_origin_distance(u.matrix)
        rotated, _ = numrange_origin_distance(np.exp(1j * phi) * u.matrix)
        assert rotated == pytest.approx(base, abs=1e-8)


class TestZeroWitness:
    @settings(max_examples=40, deadline=None)
    @given(seeds, st.integers(2, 6))
    def test_interior_shift_has_witness(self, seed, n):
        # shifting by any attained value drags 0 into the range
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi /= np.linalg.norm(psi)
        shifted = m - form_value(m, psi) * np.eye(n)
        dist, wit = numrange_origin_distance(shifted)
        assert dist == 0.0
        assert abs(form_value(shifted, wit)) <= 1e-8
        assert abs(np.linalg.norm(wit) - 1.0) <= 1e-8

    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e3])
    def test_segment_range_at_any_scale(self, scale):
        # a rotated Hermitian 2x2 has a segment for its range, so the two
        # Bloch planes of the 2x2 solve are parallel up to rounding
        rng = np.random.default_rng([23, round(math.log10(scale)) + 4])
        for _ in range(20):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h = g + g.conj().T
            h -= np.linalg.eigvalsh(h).mean() * np.eye(2)
            m = scale * np.exp(1j * rng.uniform(0, 2 * math.pi)) * h
            dist, wit = numrange_origin_distance(m)
            assert dist == 0.0
            assert abs(form_value(m, wit)) <= 1e-8

    def test_segment_through_zero_reads_zero_at_large_scale(self):
        # the form's rounding, about eps * max|m|, exceeds 1e-12 here, so
        # 0.0 is read relative to the matrix's scale, for every n
        rng = np.random.default_rng(29)
        for _ in range(200):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h = g + g.conj().T
            h -= np.linalg.eigvalsh(h).mean() * np.eye(2)
            # embedded at n = 3 with a third point on the segment, so F is unchanged
            h3 = np.zeros((3, 3), dtype=complex)
            h3[:2, :2] = h
            h3[2, 2] = rng.uniform(-1, 1) * np.linalg.eigvalsh(h)[1]
            q = haar_unitaries(rng, 1, 3)[0]
            phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
            for m in (h, q @ h3 @ q.conj().T):
                m = phase * m * 10 ** rng.uniform(3, 4) / np.abs(m).max()
                dist, wit = numrange_origin_distance(m)
                assert dist == 0.0
                assert abs(form_value(m, wit)) <= 1e-8
        assert numrange_origin_distance([[1e-13j]])[0] == 0.0
        assert numrange_origin_distance([[2e-12 + 0j]])[0] == 2e-12

    @pytest.mark.parametrize("m", [np.diag([1e5, 5e-8]), np.diag([1e5, 5e-8, 1.0])])
    def test_zero_rule_capped_at_witness_bound(self, m):
        # 1e-12 * 1e5 exceeds the 1e-8 a zero witness must meet, so a
        # distance of 5e-8 is returned, neither read as 0 nor raised on
        dist, wit = numrange_origin_distance(m)
        assert dist == pytest.approx(5e-8, rel=1e-6)
        assert abs(form_value(m, wit)) == pytest.approx(dist, rel=1e-6)

    def test_boundary_shift_at_small_scale(self):
        # the residual is judged against the matrix's own scale, not the
        # absolute 1e-8 guard, which a matrix of size 1e-4 passes trivially
        rng = np.random.default_rng(24)
        for k in range(300):
            n = 2 + k % 5
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = 1e-4 * at_distance(g, rng.uniform(0, 2 * math.pi), 0.0)
            dist, wit = numrange_origin_distance(m)
            if dist == 0.0:
                assert abs(form_value(m, wit)) <= 1e-7 * np.abs(m).max()


class TestPositiveWitness:
    # |<w|M|w>| must equal the distance within 1e-6, as documented

    def test_thin_ellipse(self):
        # F is an ellipse of half-length ~L and half-width eps centred at
        # i d0, rotated; its support states at the optimum nearly coincide
        rng = np.random.default_rng(25)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        for _ in range(200):
            big = rng.uniform(1e2, 3e3)
            eps = 10 ** rng.uniform(-10, -6)
            d0 = rng.uniform(0.1, 2.0)
            q = haar_unitaries(rng, 1, 2)[0]
            inner = q @ (np.diag([big, -big]) + 1j * eps * sx) @ q.conj().T
            m = np.exp(1j * rng.uniform(0, 2 * math.pi)) * (inner + 1j * d0 * np.eye(2))
            dist, wit = numrange_origin_distance(m)
            assert dist == pytest.approx(d0 - eps, abs=1e-9)
            assert abs(abs(form_value(m, wit)) - dist) <= 1e-6

    def test_near_boundary_at_large_scale(self):
        # a bracket a few 1e-9 wide puts the chord's solve next to a pole
        # of the Bloch sphere
        rng = np.random.default_rng(26)
        for k in range(300):
            n = 2 + k % 5
            d = 10 ** rng.uniform(-9, -2)
            m = 1e3 * at_distance(random_matrix(rng, n, False), rng.uniform(0, 2 * math.pi), d)
            dist, wit = numrange_origin_distance(m)
            if dist > 0.0:
                assert abs(abs(form_value(m, wit)) - dist) <= 1e-6


def segment_distance(p, q):
    """Distance from 0 to the segment [p, q] of the complex plane."""
    d = q - p
    t = min(1.0, max(0.0, -(d.conjugate() * p).real / abs(d) ** 2))
    return abs(p + t * d)


def at_distance(m0, phi, d):
    """Shift of m0 whose numerical range lies at distance exactly d from 0.

    psi minimizes Herm(e^{i phi} m0), so z = <psi|m0|psi> supports F(m0)
    in direction phi and F(m0) - z lies in Re(e^{i phi} w) >= 0 with 0 on
    its edge; adding d e^{-i phi} moves that edge to distance d, and the
    point d e^{-i phi} of the shifted range attains it.
    """
    n = m0.shape[0]
    herm = (np.exp(1j * phi) * m0 + np.exp(-1j * phi) * m0.conj().T) / 2
    psi = np.linalg.eigh(herm)[1][:, 0]
    z = psi.conj() @ m0 @ psi
    return m0 - (z - d * np.exp(-1j * phi)) * np.eye(n)


def random_matrix(rng, n, normal):
    if normal:
        q = haar_unitaries(rng, 1, n)[0]
        eigs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return (q * eigs) @ q.conj().T
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def thin_triangle(rng):
    """Normal 3x3 whose nearest point lies inside an edge, at d in [1e-6, 1e-2].

    The edge [p, q] passes at distance d from 0; the third eigenvalue r
    lies beyond it, often nearly on the edge's line, where a coarse grid
    sees the far kink higher than the thin positive lobe.
    """
    d = 10 ** rng.uniform(-6, -2)
    normal = np.exp(1j * rng.uniform(0, 2 * math.pi))
    near = d * normal
    p = near + rng.uniform(0.05, 2) * 1j * normal
    q = near - rng.uniform(0.05, 2) * 1j * normal
    r = near + 10 ** rng.uniform(-4, 0.5) * normal + rng.uniform(-3, 3) * 1j * normal
    u = haar_unitaries(rng, 1, 3)[0]
    return (u * np.array([p, q, r])) @ u.conj().T, d


class TestThinLobe:
    # the positive lobe of g(phi) is ~d wide, far narrower than a grid step
    REPRODUCER = np.diag(
        [1.03101999 - 0.21899796j, -0.98468951 + 0.20709732j, 1.81873671 - 0.38256091j]
    )

    def test_reproducer(self):
        # 0 lies just outside the triangle, nearest to the edge from the
        # second eigenvalue to the third
        eigs = np.diag(self.REPRODUCER)
        exact = segment_distance(eigs[1], eigs[2])
        dist, wit = numrange_origin_distance(self.REPRODUCER)
        assert exact == pytest.approx(1.683e-5, abs=1e-8)
        assert dist == pytest.approx(exact, abs=1e-9)
        assert abs(form_value(self.REPRODUCER, wit)) == pytest.approx(exact, abs=1e-9)

    def test_seeded_corpus(self):
        rng = np.random.default_rng(20241019)
        misses = []
        for k in range(1000):
            m, d = thin_triangle(rng)
            dist, wit = numrange_origin_distance(m)
            if abs(dist - d) > 1e-9 or abs(abs(form_value(m, wit)) - d) > 1e-6:
                misses.append((k, d, dist))
        assert misses == []


class TestExactOracle:
    @pytest.mark.parametrize("d", [0.3, 1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("normal", [True, False], ids=["normal", "nonnormal"])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_distance_and_witness(self, n, normal, d):
        rng = np.random.default_rng([n, int(normal), int(-math.log10(d))])
        for _ in range(8):
            m = at_distance(random_matrix(rng, n, normal), rng.uniform(0, 2 * math.pi), d)
            dist, wit = numrange_origin_distance(m)
            assert dist == pytest.approx(d, abs=1e-9)
            assert abs(form_value(m, wit)) == pytest.approx(d, abs=1e-6)
            assert abs(np.linalg.norm(wit) - 1.0) <= 1e-10

    @pytest.mark.parametrize("normal", [True, False], ids=["normal", "nonnormal"])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_origin_on_the_boundary_or_inside(self, n, normal):
        rng = np.random.default_rng([n, int(normal), 99])
        for _ in range(8):
            m0 = random_matrix(rng, n, normal)
            boundary = at_distance(m0, rng.uniform(0, 2 * math.pi), 0.0)
            # midpoint of two boundary points, inside F unless F is a segment
            other = at_distance(m0, rng.uniform(0, 2 * math.pi), 0.0)
            inside = boundary + (other[0, 0] - boundary[0, 0]) / 2 * np.eye(n)
            for m in (boundary, inside):
                dist, wit = numrange_origin_distance(m)
                assert dist <= 1e-12
                assert abs(form_value(m, wit)) <= 1e-8


def test_eigensolves_per_positive_call(counted_eigensolves):
    # one batched bracket plus a few refinement steps, no per-angle sweep
    rng = np.random.default_rng(7)
    cases = []
    for k in range(60):
        n = 2 + k % 3
        d = 10 ** rng.uniform(-6, -0.5)
        cases.append(at_distance(random_matrix(rng, n, k % 2 == 0), rng.uniform(0, 6.3), d))
    worst = 0
    for m in cases:
        counted_eigensolves.clear()
        dist, _ = numrange_origin_distance(m)
        assert dist > 0.0
        worst = max(worst, len(counted_eigensolves))
    assert worst <= 8


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e3])
@pytest.mark.parametrize("n", range(2, 7))
def test_scalar_matrix_is_exact_in_few_eigensolves(n, scale, counted_eigensolves):
    # the entry point reads c I from its eigenvalue; in the bracket, every
    # eigenvalue of A_phi ties, so the Newton and kink steps are refused;
    # F is the single point c, and the chord's normal points at it
    rng = np.random.default_rng([31, n])
    phases = [0.0, math.pi / 2, math.pi, -math.pi / 2, *rng.uniform(0, 2 * math.pi, 4)]
    for phase in phases:
        c = scale * rng.uniform(0.5, 2.0) * complex(math.cos(phase), math.sin(phase))
        counted_eigensolves.clear()
        dist, wit = bracket_solve(c * np.eye(n))
        assert abs(dist - abs(c)) <= 4 * np.finfo(float).eps * abs(c)
        assert len(counted_eigensolves) <= 3
        assert abs(np.linalg.norm(wit) - 1.0) <= 1e-12


def test_narrow_arc_unitary_is_exact_after_one_step(counted_eigensolves):
    # F is the polygon of the eigenvalues c e^{i theta_k}, nearest 0 at the
    # midpoint of the chord between the arc's ends; the entry point reads it
    # from the polygon, and in the bracket the ends' support points span
    # that chord, so the step normal to it is exact
    rng = np.random.default_rng(32)
    for k in range(400):
        n = 3 + k % 3
        arc = rng.uniform(0.1, 3.0)
        theta = rng.uniform(0, 2 * math.pi) + arc * np.r_[0.0, 1.0, rng.uniform(0, 1, n - 2)]
        q = haar_unitaries(rng, 1, n)[0]
        c = 10 ** rng.uniform(-1, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        counted_eigensolves.clear()
        dist, _ = bracket_solve(c * (q * np.exp(1j * theta)) @ q.conj().T)
        assert abs(dist - abs(c) * math.cos(arc / 2)) <= 1e-12
        assert len(counted_eigensolves) <= 2


def zero_calls():
    """60 boundary and 60 interior-zero matrices, n = 3..6."""
    rng = np.random.default_rng(8)
    cases = []
    for k in range(60):
        n = 3 + k % 4
        m0 = random_matrix(rng, n, k % 2 == 0)
        boundary = at_distance(m0, rng.uniform(0, 2 * math.pi), 0.0)
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi /= np.linalg.norm(psi)
        cases += [boundary, m0 - form_value(m0, psi) * np.eye(n)]
    return cases


def test_eigensolves_per_zero_call(counted_eigensolves):
    # the witness reuses the bracket's and the refinement's eigenvectors
    cases = zero_calls()
    worst = 0
    for m in cases:
        counted_eigensolves.clear()
        dist, wit = numrange_origin_distance(m)
        assert dist == 0.0 and abs(form_value(m, wit)) <= 1e-8
        worst = max(worst, len(counted_eigensolves))
    assert worst <= 8


def test_eigensolves_per_zero_call_in_the_bracket(counted_eigensolves, monkeypatch):
    # the same pin with the principal-pair step out, so every interior
    # zero is found by the bracket's own witness
    monkeypatch.setattr(numrange, "_principal_zero", lambda m, tol: None)
    cases = zero_calls()
    worst = 0
    for m in cases:
        counted_eigensolves.clear()
        dist, wit = numrange_origin_distance(m)
        assert dist == 0.0 and abs(form_value(m, wit)) <= 1e-8
        assert counted_eigensolves
        worst = max(worst, len(counted_eigensolves))
    assert worst <= 8


class TestQuadraticFormZero2x2:
    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e3])
    def test_exact_when_zero_in_range(self, scale):
        # odd draws are normal, so their range is a segment and the two
        # Bloch planes are parallel up to rounding
        rng = np.random.default_rng([21, round(math.log10(scale)) + 4])
        for k in range(200):
            c = random_matrix(rng, 2, k % 2 == 1)
            psi = haar_unitaries(rng, 1, 2)[0][:, 0]
            c = scale * (c - form_value(c, psi) * np.eye(2))
            x = numrange._quadratic_form_zero_2x2(c)
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-14
            assert abs(form_value(c, x)) <= 1e-13 * np.abs(c).max()

    def test_segment_through_zero_to_rounding(self):
        # a Hermitian times a phase has nearly parallel Bloch planes, and
        # the second plane's normal must still come out orthogonal to the first
        rng = np.random.default_rng(28)
        for _ in range(500):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h = g + g.conj().T
            h -= np.linalg.eigvalsh(h).mean() * np.eye(2)
            c = np.exp(1j * rng.uniform(0, 2 * math.pi)) * h
            x = numrange._quadratic_form_zero_2x2(c)
            assert abs(form_value(c, x)) <= 4 * np.finfo(float).eps * np.abs(c).max()

    def test_nearest_point_when_zero_outside(self):
        # the form value is the point of the range nearest 0, whose
        # distance the support-function solver gives independently
        rng = np.random.default_rng(22)
        for k in range(200):
            c = random_matrix(rng, 2, k % 2 == 1)
            c = at_distance(c, rng.uniform(0, 2 * math.pi), 10 ** rng.uniform(-6, 0))
            x = numrange._quadratic_form_zero_2x2(c)
            dist, _ = bracket_solve(c)
            assert abs(form_value(c, x)) == pytest.approx(dist, abs=1e-9)


def two_by_two_corpus(rng, count):
    """2x2 matrices of every kind, each as drawn and shifted to 1e-9 outside
    and inside its boundary, scaled so that max |m| is 1e-4, 1 and 1e3."""
    for scale in (1e-4, 1.0, 1e3):
        for k in range(count):
            kind = k % 5
            if kind < 3:
                m = random_matrix(rng, 2, kind == 1)
                if kind == 2:
                    m = m - np.trace(m) / 2 * np.eye(2)
            elif kind == 3:
                g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                h = g + g.conj().T + rng.standard_normal() * np.eye(2)
                m = np.exp(1j * rng.uniform(0, 2 * math.pi)) * h
            else:
                m = complex(*rng.standard_normal(2)) * np.eye(2)
            m = m / np.abs(m).max()
            yield scale * m
            for d in (1e-9, -1e-9):
                yield scale * at_distance(m, rng.uniform(0, 2 * math.pi), d)


class TestTwoByTwo:
    # n = 2 is one exact 2x2 solve; the bracket solver, which every n >= 3
    # takes, is the oracle
    CORPUS = list(two_by_two_corpus(np.random.default_rng(27), 40))

    def test_agrees_with_bracket_solver(self):
        for m in self.CORPUS:
            dist, wit = numrange_origin_distance(m)
            ref, _ = bracket_solve(m)
            assert abs(dist - ref) <= 1e-12 * max(1.0, np.abs(m).max())
            assert (dist == 0.0) == (ref == 0.0)
            if dist > 0.0:
                assert abs(form_value(m, wit)) == pytest.approx(dist, rel=1e-14)
            else:
                assert abs(form_value(m, wit)) <= 1e-8
            assert abs(np.linalg.norm(wit) - 1.0) <= 1e-14

    def test_no_eigensolve(self, counted_eigensolves):
        for m in self.CORPUS:
            numrange_origin_distance(m)
        assert counted_eigensolves == []

    @pytest.mark.parametrize("s", [1e155, 1e200, 1e308])
    def test_large_entries(self, s):
        # the Bloch coefficients' squares would overflow at this scale
        dist, wit = numrange_origin_distance([[s, s], [0.0, s]])
        assert dist == pytest.approx(s / 2, rel=1e-15)
        assert np.isfinite(wit).all()

    @settings(max_examples=40, deadline=None)
    @given(seeds, st.integers(-60, 60))
    def test_power_of_two_scale_keeps_witness_bits(self, seed, k):
        rng = np.random.default_rng(seed)
        c = random_matrix(rng, 2, seed % 2 == 0)
        _, wit = numrange_origin_distance(c)
        _, scaled = numrange_origin_distance(math.ldexp(1.0, k) * c)
        assert wit.tobytes() == scaled.tobytes()


@pytest.mark.parametrize("s", [1e155, 1e200, 1e300])
def test_large_entries_above_two_by_two(s):
    # n >= 3 solves on M / 2^e as n = 2 does, so the chord's squares stay finite
    dist, wit = numrange_origin_distance(s * np.diag([1.0, 2.0, 3.0 + 1j]))
    assert dist == pytest.approx(s, rel=1e-15)
    assert np.isfinite(wit).all()


class TestWitnessGuard:
    # not normal, and F holds its mean diagonal entry 0, but no principal
    # ellipse holds 0: each lies within 0.05 of a chord 0.5 away from 0,
    # so the bracket solves it; e_0 has residual 1
    M = np.diag(np.exp(2j * math.pi * np.arange(3) / 3)) + 0.1 * np.triu(np.ones((3, 3)), 1)

    def test_nan_witness_raises(self, monkeypatch):
        # a NaN residual is no zero witness
        monkeypatch.setattr(
            numrange, "_quadratic_form_zero_2x2", lambda c: np.full(2, math.nan, dtype=complex)
        )
        with pytest.raises(NumericalRangeError):
            numrange_origin_distance(np.eye(2))

    def test_second_miss_raises(self, monkeypatch):
        # a missed zero witness raises at once; nothing is solved again
        solves = []
        solve = numrange._solve

        def counted(*args):
            solves.append(1)
            return solve(*args)

        monkeypatch.setattr(numrange, "_solve", counted)
        monkeypatch.setattr(
            numrange, "_polygon_witness", lambda m, z, states: np.eye(m.shape[0], dtype=complex)[0]
        )
        with pytest.raises(NumericalRangeError) as exc:
            numrange_origin_distance(self.M)
        assert solves == [1]
        assert exc.value.residual == pytest.approx(1.0)

    def test_guard_matrix_has_no_principal_zero(self):
        scale = math.ldexp(1.0, -math.frexp(np.abs(self.M).max())[1])
        assert numrange._principal_zero(scale * self.M, 1e-12) is None
        dist, wit = numrange_origin_distance(self.M)
        assert dist == 0.0 and abs(form_value(self.M, wit)) <= 1e-8

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_principal_miss_is_never_a_zero(self, n, monkeypatch):
        # i d I + H: every principal range is a segment at distance d from
        # 0, whose two Bloch planes are parallel, so the sphere test passes
        # for the pairs whose H-segment straddles 0 although no zero
        # exists; only the residual d keeps them from reading as a zero
        rng = np.random.default_rng([33, n])
        passed = []
        frame = numrange._bloch_frame

        def spied(*entries):
            f = frame(*entries)
            passed.append(f is not None and math.hypot(*f.point(0.0)) <= 1.0)
            return f

        monkeypatch.setattr(numrange, "_bloch_frame", spied)
        for _ in range(10):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = g + g.conj().T
            h -= np.trace(h).real / n * np.eye(n)
            d = 10 ** rng.uniform(-3, 0)
            m = 1j * d * np.eye(n) + h
            dist, wit = numrange_origin_distance(m)
            assert dist == pytest.approx(d, rel=1e-12)
            assert abs(form_value(m, wit)) == pytest.approx(d, rel=1e-12)
        assert sum(passed) >= 10

    def test_nan_polygon_witness_raises(self, monkeypatch):
        # the scaled-unitary path meets the same guard, and never falls
        # back to the bracket
        solves = []
        monkeypatch.setattr(numrange, "_solve", lambda *args: solves.append(1))
        monkeypatch.setattr(
            circlegeom,
            "arc_witness",
            lambda arc: WitnessWeights(support=(0, 1), weights=np.full(2, math.nan)),
        )
        # the NaN weights make the witness's normalization divide NaN by NaN
        with pytest.raises(NumericalRangeError), np.errstate(invalid="ignore"):
            numrange_origin_distance(np.diag([1.0, 1j, -1.0, -1j]))
        assert solves == []


def zero_case(rng, n):
    """Ginibre matrix shifted by the point of a random state, so 0 lies in F."""
    m = random_matrix(rng, n, False)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi /= np.linalg.norm(psi)
    return m - form_value(m, psi) * np.eye(n)


def on_two_basis_vectors(wit):
    return np.count_nonzero(wit) == 2


class TestPrincipalPairs:
    """n >= 3: a principal 2x2 compression whose ellipse holds 0 gives the
    zero witness before the bracket runs."""

    @staticmethod
    def corpus():
        rng = np.random.default_rng(35)
        for n in range(3, 9):
            for _ in range(12):
                g = random_matrix(rng, n, False)
                yield g
                yield zero_case(rng, n)
                yield 1e-6 * g
                yield 1e-6 * zero_case(rng, n)
                yield at_distance(g, rng.uniform(0, 2 * math.pi), 0.0)

    def test_distances_equal_the_bracket_alone(self, monkeypatch):
        cases = list(self.corpus())
        first = [numrange_origin_distance(m) for m in cases]
        monkeypatch.setattr(numrange, "_principal_zero", lambda m, tol: None)
        hits = 0
        for m, (dist, wit) in zip(cases, first):
            alone, _ = numrange_origin_distance(m)
            assert dist == alone
            if dist == 0.0:
                assert abs(form_value(m, wit)) <= 1e-12 * max(1.0, np.abs(m).max())
                assert abs(np.linalg.norm(wit) - 1.0) <= 1e-14
                hits += on_two_basis_vectors(wit)
        # most of the zeros end on a principal pair
        assert hits >= len(cases) // 2

    def test_hit_makes_no_eigensolve(self, counted_eigensolves):
        # m_00 = 1 and m_11 = -1 put the chord through 0 inside the
        # ellipse of the pair (0, 1), so some pair always holds 0
        rng = np.random.default_rng(36)
        for k in range(60):
            m = random_matrix(rng, 3 + k % 6, k % 2 == 0)
            m[0, 0], m[1, 1] = 1.0, -1.0
            dist, wit = numrange_origin_distance(m)
            assert dist == 0.0 and on_two_basis_vectors(wit)
            assert abs(form_value(m, wit)) <= 1e-14
        assert counted_eigensolves == []

    def test_zero_principal_block(self, counted_eigensolves):
        # C = 0 is the one scalar compression that passes the filter; every
        # pair's bound is 0 here, and the tie goes to the pair (0, 1)
        m = np.diag([0.0, 0.0, 1.0 + 1j])
        dist, wit = numrange_origin_distance(m)
        assert dist == 0.0 and wit.tolist() == [1, 0, 0]
        assert counted_eigensolves == []

    def test_no_pair_tried_beyond_its_bound(self, monkeypatch):
        # every pair whose chord lies farther from 0 than (|m_jk| + |m_kj|)/2
        # is skipped, and at most n are tried
        rng = np.random.default_rng(37)
        tried = []
        frame = numrange._bloch_frame
        monkeypatch.setattr(
            numrange, "_bloch_frame", lambda *c: tried.append(c) or frame(*c)
        )
        for k in range(40):
            n = 3 + k % 6
            m = random_matrix(rng, n, False) + rng.uniform(0, 4) * np.eye(n)
            tried.clear()
            numrange._principal_zero(m, 1e-12)
            assert len(tried) <= n
            for c00, c01, c10, c11 in tried:
                assert segment_distance(c00, c11) <= (abs(c01) + abs(c10)) / 2


SPECTRA = ("zero", "positive", "near_mirror")


def scaled_unitary(rng, n, spectrum, deviation):
    """c Q diag(e^{i theta}) Q' + a perturbation that leaves max |M'M - |c|^2 I|
    near ``deviation`` |c|^2, with the eigenvalues of ``spectrum``: spread
    past a semicircle, on an arc shorter than pi, or holding a nearly
    mirrored pair e^{i theta}, e^{-i(theta + g)}."""
    start = rng.uniform(0, 2 * math.pi)
    if spectrum == "zero":
        theta = start + 2 * math.pi * np.r_[0.0, 1 / 3, 2 / 3, rng.uniform(0, 1, n - 3)]
    elif spectrum == "positive":
        theta = start + rng.uniform(0.1, 3.0) * np.r_[0.0, 1.0, rng.uniform(0, 1, n - 2)]
    else:
        gap = 10 ** rng.uniform(-8, -6)
        theta = np.r_[start, -start - gap, rng.uniform(0, 2 * math.pi, n - 2)]
    q = haar_unitaries(rng, 1, n)[0]
    u = (q * np.exp(1j * theta)) @ q.conj().T
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    first_order = np.abs(u.conj().T @ e + e.conj().T @ u).max()
    c = 10 ** rng.uniform(-3, 3) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    return c * (u + deviation / first_order * e)


def gram_deviation(m):
    gram = m.conj().T @ m
    c = gram.trace().real / m.shape[0]
    return np.abs(gram - c * np.eye(m.shape[0])).max() / c


class TestScaledUnitary:
    """n >= 3 inputs sqrt(c) U answered by the eigenvalue polygon."""

    @pytest.mark.parametrize("spectrum", SPECTRA)
    def test_agrees_with_the_bracket(self, spectrum, monkeypatch):
        rng = np.random.default_rng([47, SPECTRA.index(spectrum)])
        cases = []
        while len(cases) < 60:
            n = 3 + len(cases) % 6
            m = scaled_unitary(rng, n, spectrum, 1e-13 * rng.uniform(0.0, 0.9))
            if gram_deviation(m) <= numrange._BOUND_TOL:
                cases.append(m)
        # most of the cases lie within a factor 3 of the threshold
        assert sum(gram_deviation(m) > 3e-14 for m in cases) >= 30
        solves = []
        solve = numrange._solve
        monkeypatch.setattr(numrange, "_solve", lambda *args: solves.append(1) or solve(*args))
        polygon = [numrange_origin_distance(m) for m in cases]
        assert solves == []
        monkeypatch.setattr(numrange, "_scaled_unitary_witness", lambda m: None)
        monkeypatch.setattr(numrange, "_principal_zero", lambda m, tol: None)
        for m, (dist, wit) in zip(cases, polygon):
            scale = np.abs(m).max()
            bracket, _ = numrange_origin_distance(m)
            assert abs(dist - bracket) <= 1e-11 * scale
            if spectrum != "near_mirror":
                assert (dist == 0.0) == (spectrum == "zero")
            if dist > 0.0:
                assert abs(form_value(m, wit)) == pytest.approx(dist, rel=1e-14)
            else:
                assert abs(form_value(m, wit)) <= 1e-12 * scale
            assert abs(np.linalg.norm(wit) - 1.0) <= 1e-14
        assert len(solves) == len(cases)

    def test_other_inputs_keep_the_bracket(self, monkeypatch):
        rng = np.random.default_rng(48)
        cases = []
        for k in range(30):
            n = 3 + k % 4
            cases.append(random_matrix(rng, n, k % 2 == 0))
            # a scaled unitary perturbed past the threshold
            cases.append(scaled_unitary(rng, n, SPECTRA[k % 3], 1e-12))
        assert min(gram_deviation(m) for m in cases) > numrange._BOUND_TOL
        first = [numrange_origin_distance(m) for m in cases]
        monkeypatch.setattr(numrange, "_scaled_unitary_witness", lambda m: None)
        for m, (dist, wit) in zip(cases, first):
            again, again_wit = numrange_origin_distance(m)
            assert dist == again
            assert wit.tobytes() == again_wit.tobytes()
