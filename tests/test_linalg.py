import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unimetric.errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidPError,
    MalformedInputError,
    NotAFaceError,
    NotDensityError,
    NotSquareError,
    NotUnitaryError,
    OutOfRangeError,
)
from unimetric import linalg
from unimetric.linalg import (
    _CLUSTER_TOL,
    DensityState,
    _split,
    as_matrix,
    gram_deviation,
    haar_random_unitary,
    haar_unitaries,
    kron,
    matrix_from_json,
    matrix_to_json,
    runs,
    schatten_norm,
    trace_distance,
    validate_unitary,
)
from unimetric.metrics import sup_distance_with_arc
from unimetric.pauli import PauliElement
from unimetric.subsets import SubspaceFace
from unimetric.subsets import null_space

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / math.sqrt(2)


class TestValidateUnitary:
    def test_identity_angles(self):
        u = validate_unitary(np.eye(2))
        assert np.allclose(u.eigen_angles, [0.0, 0.0])

    def test_diagonal_phase_angles(self):
        u = validate_unitary(np.diag([1.0, 1j]))
        assert np.allclose(u.eigen_angles, [0.0, math.pi / 2])

    def test_hadamard_angles(self):
        # characteristic polynomial is lambda^2 - 1, so eigenvalues +-1
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        u = validate_unitary(h)
        assert np.allclose(np.sort(u.eigen_angles), [0.0, math.pi], atol=1e-12)

    def test_angles_sorted_and_in_range(self):
        u = haar_random_unitary(6, seed=7)
        assert np.all(np.diff(u.eigen_angles) >= 0)
        assert np.all(u.eigen_angles >= 0) and np.all(u.eigen_angles < 2 * math.pi)

    def test_tiny_negative_phase_reduces_to_zero(self):
        # np.mod rounds the phase -1e-17 up to exactly 2pi
        u = validate_unitary(np.diag(np.exp(1j * np.array([-1e-17, 1.0, 2.0]))))
        assert u.eigen_angles.tolist() == [0.0, 1.0, 2.0]

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            validate_unitary(np.ones((2, 3)))

    def test_not_unitary_carries_deviation(self):
        with pytest.raises(NotUnitaryError) as exc:
            validate_unitary(np.ones((2, 2)))
        assert exc.value.deviation > 1.0

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_carried_deviations_match_the_identity_formula(self, n):
        # the former max |G - I| with an identity matrix built, kept as the oracle
        rng = np.random.default_rng([n, 15])
        for scale in (1e-9, 1e-3, 1.0):
            a = haar_unitaries(rng, 1, n)[0] + scale * (
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            )
            oracle = float(np.abs(a.conj().T @ a - np.eye(n)).max())
            with pytest.raises(NotUnitaryError) as exc:
                validate_unitary(a)
            assert exc.value.deviation == oracle
            basis = a[:, : max(1, n // 2)]
            gram = basis.conj().T @ basis
            oracle = float(np.abs(gram - np.eye(gram.shape[0])).max())
            with pytest.raises(NotAFaceError) as exc:
                SubspaceFace(basis)
            assert exc.value.deviation == oracle
            c = gram.trace().real / gram.shape[0]
            oracle = float(np.abs(gram - c * np.eye(gram.shape[0])).max())
            assert gram_deviation(gram.copy(), c) == oracle

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10_000))
    def test_reconstruction(self, n, seed):
        u = haar_random_unitary(n, seed=seed)
        rebuilt = (u.eigen_vectors * np.exp(1j * u.eigen_angles)) @ u.eigen_vectors.conj().T
        assert np.abs(rebuilt - u.matrix).max() <= 1e-8

    def test_degenerate_spectrum_reconstruction(self):
        # +-i pair shares the real part of its eigenvalues, exercising the
        # second Hermitian pass inside a degenerate cluster
        q = haar_random_unitary(4, seed=3).matrix
        w = (q * np.array([1j, -1j, 1j, -1])) @ q.conj().T
        u = validate_unitary(w)
        rebuilt = (u.eigen_vectors * np.exp(1j * u.eigen_angles)) @ u.eigen_vectors.conj().T
        assert np.abs(rebuilt - w).max() <= 1e-8


def test_validation_leaves_caller_arrays_writeable():
    a = np.eye(2, dtype=complex)
    u = validate_unitary(a)
    vec = PLUS.astype(complex)
    rho = DensityState.pure(vec)
    assert a.flags.writeable and vec.flags.writeable
    assert not u.matrix.flags.writeable and not rho.pure_vector.flags.writeable
    a[0, 0] = 2.0
    assert u.matrix[0, 0] == 1.0


class TestSchattenNorm:
    def test_zero_matrix(self):
        for p in (1, 2, 3, math.inf):
            assert schatten_norm(np.zeros((3, 3)), p) == 0.0

    def test_diagonal_singular_values(self):
        m = np.diag([3.0, 4.0])
        assert schatten_norm(m, 1) == pytest.approx(7.0, abs=1e-12)
        assert schatten_norm(m, 2) == pytest.approx(5.0, abs=1e-12)
        assert schatten_norm(m, math.inf) == pytest.approx(4.0, abs=1e-12)

    def test_pure_state_half_overlap(self):
        # |<psi|phi>|^2 = 1/2 gives 2^(1/2) * (1/2)^(1/2) = 1 at p = 2
        diff = np.outer(KET0, KET0) - np.outer(PLUS, PLUS)
        assert schatten_norm(diff, 2) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_p(self):
        with pytest.raises(InvalidPError):
            schatten_norm(np.eye(2), 0.5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_frobenius_cross_check(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert schatten_norm(m, 2) ** 2 == pytest.approx(np.sum(np.abs(m) ** 2), abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([1.0, 2.0, 3.0]))
    def test_pure_state_identity(self, seed, p):
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        phi /= np.linalg.norm(phi)
        diff = np.outer(psi, psi.conj()) - np.outer(phi, phi.conj())
        expected = 2 ** (1 / p) * math.sqrt(1 - abs(np.vdot(psi, phi)) ** 2)
        assert schatten_norm(diff, p) == pytest.approx(expected, abs=1e-9)


class TestTraceDistance:
    def test_same_state(self):
        rho = DensityState.pure(PLUS)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert trace_distance(DensityState.pure(KET0), DensityState.pure(KET1)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_zero_vs_plus(self):
        # eigenvalues of the difference are +-sqrt(1/2)
        value = trace_distance(DensityState.pure(KET0), DensityState.pure(PLUS))
        assert value == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_distance(np.eye(2) / 2, np.eye(3) / 3)

    def test_rejects_non_density(self):
        with pytest.raises(NotDensityError):
            trace_distance(np.eye(2), np.eye(2) / 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetry_and_triangle(self, seed):
        rng = np.random.default_rng(seed)

        def random_density(n=3):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m = a @ a.conj().T
            return DensityState.from_matrix(m / m.trace())

        r1, r2, r3 = random_density(), random_density(), random_density()
        assert trace_distance(r1, r2) == pytest.approx(trace_distance(r2, r1), abs=1e-12)
        assert trace_distance(r1, r3) <= trace_distance(r1, r2) + trace_distance(r2, r3) + 1e-9


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_signs(self):
        z = np.diag([1.0, -1.0])
        assert np.array_equal(kron(z, z), np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_z_tensor_x_eigenvalues(self):
        z = np.diag([1.0, -1.0])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        vals = np.sort(np.linalg.eigvals(kron(z, x)).real)
        assert np.allclose(vals, [-1, -1, 1, 1], atol=1e-12)


class TestHaarRandomUnitary:
    def test_scalar_case(self):
        u = haar_random_unitary(1, seed=5)
        assert abs(abs(u.matrix[0, 0]) - 1.0) <= 1e-12

    def test_unitary_within_tolerance(self):
        u = haar_random_unitary(4, seed=11)
        dev = np.abs(u.matrix.conj().T @ u.matrix - np.eye(4)).max()
        assert dev <= 1e-10

    def test_seed_determinism(self):
        a = haar_random_unitary(3, seed=42).matrix
        b = haar_random_unitary(3, seed=42).matrix
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = haar_random_unitary(4, seed=1).matrix
        b = haar_random_unitary(4, seed=2).matrix
        assert np.abs(a - b).max() > 1e-3


class TestDensityState:
    def test_pure_detection_from_matrix(self):
        rho = DensityState.from_matrix(np.outer(PLUS, PLUS))
        assert rho.pure_vector is not None
        assert abs(abs(np.vdot(rho.pure_vector, PLUS)) - 1.0) <= 1e-10

    def test_mixed_has_no_pure_vector(self):
        assert DensityState.from_matrix(np.eye(2) / 2).pure_vector is None

    def test_pure_outer_product_consistency(self):
        rho = DensityState.pure(PLUS)
        assert np.abs(rho.matrix - np.outer(PLUS, PLUS)).max() <= 1e-10

    def test_rejects_unnormalized_vector(self):
        with pytest.raises(NotDensityError):
            DensityState.pure([1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_vector(self, bad):
        with pytest.raises(MalformedInputError):
            DensityState.pure([1.0, bad])


class TestMatrixJson:
    def test_round_trip_bit_exact(self):
        m = haar_random_unitary(3, seed=9).matrix
        text = json.dumps(matrix_to_json(m))
        back = matrix_from_json(json.loads(text))
        assert np.array_equal(back, m)

    def test_shape_and_layout(self):
        obj = matrix_to_json(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["data"][1] == [2.0, 0.0]

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"rows": -1, "cols": 0, "data": []},
            {"rows": -2, "cols": -3, "data": [[0, 0]] * 6},
        ],
    )
    def test_negative_shape_rejected(self, obj):
        # rows * cols matches the data length, so only the sign check catches these
        with pytest.raises(MalformedInputError):
            matrix_from_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {"rows": 1, "cols": 1, "data": [5]},
            {"rows": 1, "cols": 1, "data": [["a", "b"]]},
            {"rows": 1, "cols": 1, "data": None},
            {"rows": 1, "cols": 1, "data": [[0, 0, 0]]},
            {"rows": "x", "cols": 1, "data": [[0, 0]]},
            {"rows": 1.5, "cols": 1, "data": [[0, 0]]},
        ],
    )
    def test_malformed_fields_raise_typed_error(self, obj):
        with pytest.raises(MalformedInputError):
            matrix_from_json(obj)


def mirror_pair_unitary(rng, theta, gap, third):
    """Unitary with eigenvalues e^{i theta} and e^{-i(theta + gap)}, whose
    Hermitian-part values cos(theta) and cos(theta + gap) nearly tie."""
    q = haar_unitaries(rng, 1, 3)[0]
    return (q * np.exp(1j * np.array([theta, 2 * math.pi - theta - gap, third]))) @ q.conj().T


def eigen_residual(w, op):
    return np.linalg.norm(w @ op.eigen_vectors - op.eigen_vectors * op.eigenvalues(), axis=0).max()


class TestMirrorPairs:
    def test_reproducer_decomposes(self):
        w = mirror_pair_unitary(np.random.default_rng(9), 1.0, 1.5e-8, 2.5)
        assert eigen_residual(w, validate_unitary(w)) <= 1e-9

    def test_seeded_corpus_decomposes(self):
        rng = np.random.default_rng([9, 3])
        for _ in range(30):
            theta, gap = rng.uniform(0.0, math.pi), 10 ** rng.uniform(-8, -6)
            w = mirror_pair_unitary(rng, theta, gap, rng.uniform(0.0, 2 * math.pi))
            assert eigen_residual(w, validate_unitary(w)) <= 1e-9

    @pytest.mark.parametrize("mirror_first", [False, True], ids=["identity-first", "mirror-first"])
    def test_null_space_of_every_generator_order(self, mirror_first):
        # the coarse split applies to each generator, not only the first
        rng = np.random.default_rng([9, 5])
        draws = [(1.0, 1.5e-8, 2.5)]
        draws += [(rng.uniform(0.0, math.pi), 10 ** rng.uniform(-8, -6), 2.5) for _ in range(10)]
        for theta, gap, third in draws:
            w = mirror_pair_unitary(rng, theta, gap, third)
            gens = [w, np.eye(3)] if mirror_first else [np.eye(3), w]
            res = null_space(gens)
            for cols, chars in zip(res.blocks, res.characters):
                v = res.common_eigenbasis[:, list(cols)]
                for g, chi in zip(gens, chars):
                    assert np.linalg.norm(g @ v - chi * v, axis=0).max() <= 1e-13


    def test_near_mirror_family_at_n4(self, monkeypatch):
        # the family's worst residual is 2.497e-10 whether or not scalar
        # blocks skip their solve: H2 is never scalar on a mirror block.
        # A first basis that H1 does not separate mixes the mirrored pair
        # beyond the residual gate (1.4e-11 at least), so it takes the split
        splits = []
        monkeypatch.setattr(linalg, "_split", lambda *args: splits.append(1) or _split(*args))
        rng = np.random.default_rng(3)
        worst, split = 0.0, 0
        for _ in range(200):
            theta, gap = rng.uniform(0.0, math.pi), 10 ** rng.uniform(-9, -5)
            angles = [theta, 2 * math.pi - theta - gap, *rng.uniform(0.0, 2 * math.pi, 2)]
            q = haar_unitaries(rng, 1, 4)[0]
            w = (q * np.exp(1j * np.array(angles))) @ q.conj().T
            splits.clear()
            worst = max(worst, eigen_residual(w, validate_unitary(w)))
            separated = linalg._separated(np.linalg.eigvalsh((w + w.conj().T) / 2))
            assert bool(splits) != separated
            split += bool(splits)
        assert worst <= 2.5e-10
        assert split == 163


def forced_split(basis, blocks, h, tol):
    """_split with every block of more than one column solved, one at a time."""
    basis, out = basis.copy(), []
    for cols in blocks:
        if len(cols) > 1:
            sub = basis[:, cols]
            comp = sub.conj().T @ h @ sub
            vals, vecs = np.linalg.eigh((comp + comp.conj().T) / 2)
            basis[:, cols] = sub @ vecs
            out += [[cols[i] for i in run] for run in runs(vals, tol)]
        else:
            out.append(cols)
    return basis, out


class TestScalarBlockSkip:
    """A block is solved unless size * max|C - cI| <= _CLUSTER_TOL / 2."""

    BOUND = _CLUSTER_TOL / 2

    def scaled_block(self, rng, size, factor):
        """0.3 I plus a Hermitian part whose size * max deviation is factor * BOUND."""
        q = haar_unitaries(rng, 1, size)[0]
        d = (q * rng.uniform(-1.0, 1.0, size)) @ q.conj().T
        d = (d + d.conj().T) / 2
        d -= np.trace(d).real / size * np.eye(size)
        return 0.3 * np.eye(size) + d * (factor * self.BOUND / (size * np.abs(d).max()))

    def case(self, rng):
        """A random basis of each block and an h whose compressions on the
        blocks are: [0..2] at half the bound, [3..5] at twice it, [6, 7]
        spread far beyond it."""
        blocks = [[0, 1, 2], [3, 4, 5], [6, 7]]
        comps = [self.scaled_block(rng, 3, 0.5), self.scaled_block(rng, 3, 2.0)]
        comps.append(np.diag([0.1, 0.2]).astype(complex))
        basis = np.zeros((8, 8), dtype=complex)
        h = np.zeros((8, 8), dtype=complex)
        for cols, comp in zip(blocks, comps):
            b = haar_unitaries(rng, 1, len(cols))[0]
            basis[np.ix_(cols, cols)] = b
            h[np.ix_(cols, cols)] = b @ comp @ b.conj().T
        return basis, blocks, h

    @pytest.mark.parametrize("tol", [_CLUSTER_TOL, 1e-6])
    def test_only_the_scalar_block_skips(self, tol, counted_eigensolves):
        basis, blocks, h = self.case(np.random.default_rng(96))
        want_basis, want_blocks = forced_split(basis, blocks, h, tol)
        got = basis.copy()
        counted_eigensolves.clear()
        got_blocks, uneven = _split(got, blocks, h, tol)
        # one batched solve per block size: [3..5] for size 3, [6, 7] for size 2
        assert len(counted_eigensolves) == 2
        assert got_blocks == want_blocks == [[0, 1, 2], [3, 4, 5], [6], [7]]
        assert uneven == set()
        assert got[:, :3].tobytes() == basis[:, :3].tobytes()
        np.testing.assert_allclose(got[:, 3:], want_basis[:, 3:], rtol=0, atol=1e-14)

    def test_skipped_columns_are_eigenvectors_within_the_bound(self):
        basis, blocks, h = self.case(np.random.default_rng(97))
        _split(basis, blocks, h, _CLUSTER_TOL)
        sub = basis[:, :3]
        assert np.abs(h @ sub - 0.3 * sub).max() <= self.BOUND


def gate_pairs() -> dict:
    """(U, V) whose W = U'V the first basis fits to rounding though H1
    does not separate it: a phase times a Pauli string at n = 4, 8 and
    16 (two antipodal eigenvalues), repeated spectra, a scalar W and a
    diagonal W with a mirrored pair."""
    rng = np.random.default_rng(98)
    pairs = {}
    for a, b in (("XZ", "ZY"), ("XYZ", "ZZI"), ("XYZI", "ZIXY")):
        u = np.exp(0.7j) * PauliElement.from_letters(a).to_matrix()
        pairs[f"pauli-{2 ** len(a)}"] = (u, PauliElement.from_letters(b).to_matrix())
    for n, angles in ((8, [0.2, 1.4]), (7, [0.3, 2.3, 4.3])):
        u, q = haar_unitaries(rng, 2, n)
        w = (q * np.exp(1j * np.resize(angles, n))) @ q.conj().T
        pairs[f"repeated-{len(angles)}"] = (u, u @ w)
    pairs["scalar"] = (np.eye(5, dtype=complex), np.exp(0.4j) * np.eye(5))
    diagonal = np.diag(np.exp(1j * np.array([0.1, 0.1, 2.0, -2.0, 3.0, 3.0])))
    pairs["diagonal"] = (np.eye(6, dtype=complex), diagonal)
    return pairs


class TestResidualGate:
    """A first basis whose columns all fit W to rounding is kept, whatever H1's gaps."""

    @pytest.mark.parametrize("kind", list(gate_pairs()))
    def test_first_basis_is_kept(self, kind, counted_eigensolves, monkeypatch):
        u, v = gate_pairs()[kind]
        splits = []
        monkeypatch.setattr(linalg, "_split", lambda *args: splits.append(1) or _split(*args))
        counted_eigensolves.clear()
        result, arc = sup_distance_with_arc(u, v)
        assert len(counted_eigensolves) <= 1
        assert splits == []

        # the kernel's block split reads the same arc bit for bit: it skips
        # every block, on which H2 is scalar
        def split_fit(a, w):
            vecs, _ = linalg._joint_eigenbasis([w])
            angles, resid2 = linalg._fit(a, vecs)
            return vecs, angles, math.sqrt(resid2)

        monkeypatch.setattr(linalg, "_eigen_fit", split_fit)
        split_result, split_arc = sup_distance_with_arc(u, v)
        assert split_result.value == result.value
        assert split_arc.angles.tobytes() == arc.angles.tobytes()
        assert (split_arc.alpha, split_arc.start, split_arc.end) == (arc.alpha, arc.start, arc.end)

        # with every block solved, the value and the arc's length are the
        # same too; the basis turns within each eigenspace, which moves a
        # repeated angle by up to 4 ulp here
        def forced(basis, blocks, h, tol):
            splits.append(1)
            basis[...], out = forced_split(basis, blocks, h, tol)
            return out, set()

        splits.clear()
        monkeypatch.setattr(linalg, "_split", forced)
        split_result, split_arc = sup_distance_with_arc(u, v)
        assert splits
        assert split_result.value == result.value
        assert split_arc.alpha == arc.alpha
        ulps = 4 * math.ulp(2 * math.pi)
        np.testing.assert_allclose(split_arc.angles, arc.angles, rtol=0, atol=ulps)


class TestRuns:
    TOL = 1e-9

    def test_splits_only_at_gaps_above_tol(self):
        # a chain of small steps is one run, however far it reaches
        assert runs([0.0, 0.6 * self.TOL, 1.2 * self.TOL], self.TOL) == [[0, 1, 2]]
        assert runs([0.0, 0.6 * self.TOL, 1.7 * self.TOL], self.TOL) == [[0, 1], [2]]

    def test_period_joins_runs_across_the_wrap(self):
        values = [0.5 * self.TOL, 1.0, 2 * math.pi - 0.4 * self.TOL]
        assert runs(values, self.TOL) == [[0], [1], [2]]
        assert runs(values, self.TOL, 2 * math.pi) == [[0, 2], [1]]


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_matrices_raise_empty_input(shape):
    empty = np.zeros(shape, dtype=complex)
    calls = [
        as_matrix,
        validate_unitary,
        DensityState.from_matrix,
        lambda m: trace_distance(m, m),
        lambda m: null_space([m]),
        lambda m: schatten_norm(m, 2),
        lambda m: matrix_from_json({"rows": shape[0], "cols": shape[1], "data": []}),
    ]
    for call in calls:
        with pytest.raises(EmptyInputError):
            call(empty)


@pytest.mark.parametrize(
    "call, arg, error, match",
    [
        (as_matrix, np.zeros(3), NotSquareError, "ndim=1"),
        (as_matrix, [[math.nan]], MalformedInputError, "finite"),
        (DensityState.from_matrix, np.ones((2, 3)) / 2, NotSquareError, "square"),
        (DensityState.from_matrix, [[0.5, 0.1], [0.0, 0.5]], NotDensityError, "Hermitian"),
        (DensityState.from_matrix, np.diag([1.5, -0.5]), NotDensityError, "eigenvalue"),
        (haar_random_unitary, 0, OutOfRangeError, "dimension"),
    ],
    ids=["vector", "nan", "non-square", "non-hermitian", "negative", "haar-zero"],
)
def test_invalid_inputs_raise_typed_errors(call, arg, error, match):
    with pytest.raises(error, match=match):
        call(arg)
