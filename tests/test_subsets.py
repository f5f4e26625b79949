import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unimetric import acceptance, subsets
from unimetric.circlegeom import polygon_distance_to_origin
from unimetric.errors import (
    DimensionMismatchError,
    EmptyGeneratorsError,
    NotAFaceError,
    NotCommutingError,
    OutOfRangeError,
)
from unimetric.linalg import haar_random_unitary, haar_unitaries, kron, validate_unitary
from unimetric.metrics import d_psi, sup_distance
from unimetric.subsets import (
    SeparableProblem,
    SubspaceFace,
    alternating_product_minimization,
    face_distance,
    null_space,
    product_overlap,
    product_state,
    separable_distance,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

seeds = st.integers(0, 10_000)


def haar(n, seed):
    return haar_random_unitary(n, seed=seed).matrix


class TestSubspaceFace:
    def test_rejects_nonorthonormal(self):
        with pytest.raises(NotAFaceError):
            SubspaceFace(np.ones((3, 2)))

    def test_rejects_more_columns_than_rows(self):
        with pytest.raises(NotAFaceError):
            SubspaceFace(np.eye(2, 3))

    def test_accepts_standard_columns(self):
        f = SubspaceFace(np.eye(4)[:, :2])
        assert f.dim == 2 and f.ambient_dim == 4


class TestFaceDistance:
    def test_full_space_equals_sup(self):
        u, v = haar(3, 1), haar(3, 2)
        full = face_distance(u, v, np.eye(3))
        assert full.value == pytest.approx(sup_distance(u, v).value, abs=1e-6)

    def test_invariant_eigenvector_face_is_zero(self):
        u, v = haar(3, 3), haar(3, 4)
        w = u.conj().T @ v
        _, vecs = np.linalg.eigh((w + w.conj().T) / 2)
        # eigenvector of the relative operator spans an invariant face
        from unimetric.linalg import validate_unitary

        wop = validate_unitary(w)
        face = wop.eigen_vectors[:, [0]]
        assert face_distance(u, v, face).value <= 1e-7

    def test_diagonal_compression(self):
        w = np.diag([1.0, 1j, -1.0])
        res = face_distance(np.eye(3), w, np.eye(3)[:, :2])
        assert res.value == pytest.approx(math.sin(math.pi / 4), abs=1e-6)

    def test_maximizer_reproduces_value(self):
        u, v = haar(4, 5), haar(4, 6)
        res = face_distance(u, v, np.eye(4)[:, :3])
        assert d_psi(u, v, res.maximizer) == pytest.approx(res.value, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            face_distance(np.eye(3), haar(3, 7), np.eye(4)[:, :2])

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_never_exceeds_sup(self, seed):
        u, v = haar(4, seed), haar(4, seed + 1)
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        q, _ = np.linalg.qr(g)
        assert face_distance(u, v, q).value <= sup_distance(u, v).value + 1e-6

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_pseudometric_axioms(self, seed):
        basis = np.eye(4)[:, :2]
        u, v, w = haar(4, seed), haar(4, seed + 1), haar(4, seed + 2)
        duv = face_distance(u, v, basis).value
        assert duv == pytest.approx(face_distance(v, u, basis).value, abs=1e-5)
        assert duv <= face_distance(u, w, basis).value + face_distance(w, v, basis).value + 1e-5


class TestSeparableDistance:
    def test_phase_pair_is_zero(self):
        u = haar(4, 8)
        prob = SeparableProblem(dim_a=2, dim_b=2, restarts=4, seed=0)
        assert separable_distance(u, np.exp(0.7j) * u, prob).value <= 1e-6

    def test_swap_saturates_with_orthogonal_witness(self):
        prob = SeparableProblem(dim_a=2, dim_b=2, restarts=8, seed=1)
        res = separable_distance(np.eye(4), SWAP, prob)
        assert res.value == pytest.approx(1.0, abs=1e-6)
        overlap = res.maximizer.conj() @ SWAP @ res.maximizer
        assert abs(overlap) <= 1e-6

    def test_product_factors_match_tensor_of_minima(self):
        y, z = haar_random_unitary(2, seed=10), haar_random_unitary(2, seed=11)
        from unimetric.circlegeom import polygon_distance_to_origin

        m1, _ = polygon_distance_to_origin(y.eigen_angles)
        m2, _ = polygon_distance_to_origin(z.eigen_angles)
        expected = math.sqrt(max(0.0, 1.0 - (m1 * m2) ** 2))
        prob = SeparableProblem(dim_a=2, dim_b=2, restarts=12, seed=2)
        res = separable_distance(np.eye(4), kron(y.matrix, z.matrix), prob)
        assert res.value == pytest.approx(expected, abs=1e-6)

    def test_positivity_on_random_unitary(self):
        prob = SeparableProblem(dim_a=2, dim_b=2, restarts=8, seed=3)
        for seed in (21, 22, 23):
            u = haar(4, seed)
            assert separable_distance(np.eye(4), u, prob).value > 1e-3

    def test_never_exceeds_sup(self):
        prob = SeparableProblem(dim_a=2, dim_b=2, restarts=8, seed=4)
        for seed in (31, 32):
            u, v = haar(4, seed), haar(4, seed + 100)
            assert separable_distance(u, v, prob).value <= sup_distance(u, v).value + 1e-6

    def test_monotone_descent_history(self):
        rng = np.random.default_rng(9)
        u, v = haar(4, 41), haar(4, 42)
        w = u.conj().T @ v
        a0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a0 /= np.linalg.norm(a0)
        b0 /= np.linalg.norm(b0)
        _, _, _, history = alternating_product_minimization(w, 2, 2, a0, b0, 200)
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-12)

    def test_dimension_mismatch(self):
        prob = SeparableProblem(dim_a=2, dim_b=3)
        with pytest.raises(DimensionMismatchError):
            separable_distance(np.eye(4), haar(4, 50), prob)

    @settings(max_examples=8, deadline=None)
    @given(seeds)
    def test_pseudometric_axioms(self, seed):
        prob = SeparableProblem(dim_a=2, dim_b=2, restarts=8, seed=0)
        u, v, w = haar(4, seed), haar(4, seed + 1), haar(4, seed + 2)
        duv = separable_distance(u, v, prob).value
        assert duv == pytest.approx(separable_distance(v, u, prob).value, abs=1e-5)
        duw = separable_distance(u, w, prob).value
        dwv = separable_distance(w, v, prob).value
        assert duv <= duw + dwv + 1e-5

    def test_seed_reproducibility(self):
        # a generic pair, and a product pair that stops at the certified floor
        rng = np.random.default_rng(44)
        product = np.kron(narrow_unitary(rng, 2), narrow_unitary(rng, 3))
        cases = [
            (haar(4, 60), haar(4, 61), SeparableProblem(dim_a=2, dim_b=2, restarts=6, seed=7)),
            (np.eye(6), product, SeparableProblem(dim_a=2, dim_b=3, restarts=4, seed=9)),
        ]
        for u, v, prob in cases:
            a = separable_distance(u, v, prob)
            b = separable_distance(u, v, prob)
            assert a.value == b.value
            assert np.array_equal(a.maximizer, b.maximizer)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (4, 5)])
def test_product_state_is_kron_bitwise(dims):
    rng = np.random.default_rng([dims[0], dims[1], 95])
    for _ in range(20):
        a, b = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims)
        w = haar_unitaries(rng, 1, dims[0] * dims[1])[0]
        vec = np.kron(a, b)
        assert product_state(a, b).tobytes() == vec.tobytes()
        assert product_overlap(w, a, b) == abs(complex(vec.conj() @ w @ vec))


class TestSeparableProblem:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("dim_a", 2.0),
            ("dim_a", 0),
            ("dim_b", "3"),
            ("restarts", 2.5),
            ("restarts", 0),
            ("max_alternations", 3.5),
            ("seed", 1.5),
            ("seed", -1),
        ],
    )
    def test_rejects_bad_field(self, field, value):
        fields = {"dim_a": 2, "dim_b": 2, field: value}
        with pytest.raises(OutOfRangeError, match=field):
            SeparableProblem(**fields)

    def test_numpy_integers_become_ints(self):
        prob = SeparableProblem(np.int64(2), np.int32(3), restarts=np.int64(4), seed=np.uint8(7))
        assert (prob.dim_a, prob.dim_b, prob.restarts, prob.seed) == (2, 3, 4, 7)
        assert all(type(x) is int for x in (prob.dim_a, prob.dim_b, prob.restarts, prob.seed))


def narrow_unitary(rng, d):
    """Q diag(e^{i theta}) Q' with its angles on an arc shorter than pi, so
    the distance from 0 to its numerical range is positive."""
    q = haar_unitaries(rng, 1, d)[0]
    return (q * np.exp(1j * rng.uniform(0.0, 2.5, d))) @ q.conj().T


def realignment_singular_values(w, dim_a, dim_b):
    r = w.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 2, 1, 3)
    return np.linalg.svd(r.reshape(dim_a * dim_a, dim_b * dim_b), compute_uv=False)


@pytest.fixture
def restart_log(monkeypatch):
    """Objective of every restart that separable_distance runs."""
    log = []
    inner = subsets.alternating_product_minimization

    def counting(*args):
        run = inner(*args)
        log.append(run[2])
        return run

    monkeypatch.setattr(subsets, "alternating_product_minimization", counting)
    return log


class TestCertifiedStop:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_product_pairs_run_no_restart(self, dims, restart_log):
        rng = np.random.default_rng([41, *dims])
        for k in range(8):
            a, b = (haar_unitaries(rng, 1, d)[0] for d in dims)
            y, z = (validate_unitary(narrow_unitary(rng, d)) for d in dims)
            m1, _ = polygon_distance_to_origin(y.eigen_angles)
            m2, _ = polygon_distance_to_origin(z.eigen_angles)
            prob = SeparableProblem(*dims, restarts=4, seed=k)
            restart_log.clear()
            res = separable_distance(kron(a, b), kron(a @ y.matrix, b @ z.matrix), prob)
            assert restart_log == []
            assert m1 * m2 > 1e-3
            assert res.value == pytest.approx(math.sqrt(1.0 - (m1 * m2) ** 2), abs=1e-14)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_product_pairs_with_zero_minimum_run_no_restart(self, dims, restart_log):
        # a factor whose numerical range holds 0 makes the floor 0; the
        # factors' witnesses still reach it
        rng = np.random.default_rng([44, *dims])
        half_circle = np.diag(np.exp(1j * np.pi * np.arange(dims[0]) / (dims[0] - 1)))
        for k in range(8):
            w = kron(half_circle, narrow_unitary(rng, dims[1]))
            restart_log.clear()
            res = separable_distance(np.eye(w.shape[0]), w, SeparableProblem(*dims, seed=k))
            assert restart_log == []
            assert res.value == pytest.approx(1.0, abs=1e-14)
            assert d_psi(np.eye(w.shape[0]), w, res.maximizer) == pytest.approx(1.0, abs=1e-14)

    def test_near_product_runs_every_restart(self, restart_log):
        rng = np.random.default_rng(42)
        w = np.kron(narrow_unitary(rng, 2), narrow_unitary(rng, 3))
        w = w + 1e-9 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        left, _, right = np.linalg.svd(w)
        w = left @ right
        sigma = realignment_singular_values(w, 2, 3)
        assert 1e-10 < sigma[1] / sigma[0] < 1e-8
        assert subsets._product_floor(w, 2, 3) == (0.0, None)
        separable_distance(np.eye(6), w, SeparableProblem(2, 3, restarts=4, seed=0))
        assert len(restart_log) == 4
        assert min(restart_log) > 1e-3

    def test_haar_pairs_run_every_restart_unless_zero(self, restart_log):
        rng = np.random.default_rng(43)
        full = 0
        for k in range(30):
            dims = ((2, 2), (2, 3))[k % 2]
            u = haar_unitaries(rng, 1, dims[0] * dims[1])[0]
            restart_log.clear()
            separable_distance(np.eye(u.shape[0]), u, SeparableProblem(*dims, restarts=3, seed=k))
            assert len(restart_log) == 3 or restart_log[-1] < subsets._ZERO_OVERLAP
            full += len(restart_log) == 3
        # some of these pairs have a positive minimum
        assert full >= 1


class TestAlternationAgainstOracle:
    def test_generic_two_qubit_pairs_match_the_grid_oracle(self):
        # the acceptance check's product pairs no longer reach the
        # alternation, so generic pairs pin it at its default knobs
        rng = np.random.default_rng(45)
        positive = 0
        for k in range(40):
            w = haar_unitaries(rng, 1, 4)[0]
            res = separable_distance(np.eye(4), w, SeparableProblem(2, 2, seed=k))
            m = acceptance._polished_grid_oracle(w)
            assert res.value == pytest.approx(math.sqrt(max(0.0, 1.0 - m * m)), abs=1e-6)
            positive += m > 1e-6
        assert positive >= 2


class TestNullSpace:
    def test_identity_generator(self):
        res = null_space([np.eye(2)])
        assert len(res.blocks) == 1
        assert res.characters[0][0] == pytest.approx(1.0)

    def test_single_z(self):
        res = null_space([Z])
        chars = sorted(c[0].real for c in res.characters)
        assert chars == pytest.approx([-1.0, 1.0])
        assert sorted(len(b) for b in res.blocks) == [1, 1]

    def test_bell_basis_from_zz_xx(self):
        res = null_space([kron(Z, Z), kron(X, X)])
        assert len(res.blocks) == 4
        bell = np.array(
            [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex
        ).T / math.sqrt(2)
        for cols in res.blocks:
            assert len(cols) == 1
            vec = res.common_eigenbasis[:, cols[0]]
            assert np.max(np.abs(bell.conj().T @ vec) ** 2) >= 1 - 1e-10

    def test_zz_xx_blocks_in_two_eigensolves(self, counted_eigensolves):
        # ZZ's second Hermitian part is 0, so its two blocks are not solved
        # again: H1(ZZ) makes them and H1(XX) splits them
        counted_eigensolves.clear()
        res = null_space([kron(Z, Z), kron(X, X)])
        assert len(counted_eigensolves) == 2
        assert res.blocks == ((0,), (1,), (2,), (3,))
        np.testing.assert_allclose(
            res.characters, [[-1, -1], [-1, 1], [1, -1], [1, 1]], rtol=0, atol=1e-12
        )

    def test_simultaneous_eigenvectors(self):
        gens = [kron(Z, Z), kron(X, X)]
        res = null_space(gens)
        for cols, chars in zip(res.blocks, res.characters):
            for col in cols:
                vec = res.common_eigenbasis[:, col]
                for g, c in zip(gens, chars):
                    assert np.linalg.norm(g @ vec - c * vec) <= 1e-8

    def test_block_states_commute_with_generators(self):
        gens = [kron(Z, Z), kron(X, X)]
        res = null_space(gens)
        rng = np.random.default_rng(3)
        weights = rng.dirichlet(np.ones(4))
        rho = sum(
            w * np.outer(res.common_eigenbasis[:, b[0]], res.common_eigenbasis[:, b[0]].conj())
            for w, b in zip(weights, res.blocks)
        )
        for g in gens:
            assert np.abs(g @ rho - rho @ g).max() <= 1e-8

    def test_repeated_eigenvalue_straddling_angle_zero(self):
        # the first generator repeats e^{+-1e-10 i}, on either side of angle
        # 0, and the second splits that eigenspace
        q = haar(5, 60)
        phases = np.array([[1e-10, -1e-10, 1e-10, 2.0, 2.0], [0.5, 1.5, 1.5, 3.0, 4.0]])
        res = null_space([q * np.exp(1j * p) @ q.conj().T for p in phases])
        found = []
        for cols, chars in zip(res.blocks, res.characters):
            basis = res.common_eigenbasis[:, list(cols)]
            found.append((basis @ basis.conj().T, np.array(chars)))
        groups = ([0], [1, 2], [3], [4])
        assert len(found) == len(groups)
        for group in groups:
            proj = q[:, group] @ q[:, group].conj().T
            chars = np.exp(1j * phases[:, group]).mean(axis=1)
            hits = [c for p, c in found if np.abs(p - proj).max() <= 1e-8]
            assert len(hits) == 1
            assert np.abs(hits[0] - chars / np.abs(chars)).max() <= 1e-12

    def test_noncommuting_rejected(self):
        with pytest.raises(NotCommutingError) as exc:
            null_space([X, Z])
        assert exc.value.pair == (0, 1)

    def test_empty_rejected(self):
        with pytest.raises(EmptyGeneratorsError):
            null_space([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            null_space([Z, np.kron(Z, Z)])

    def test_json_shape(self):
        res = null_space([Z])
        obj = res.to_json()
        assert {"blocks", "basis"} <= set(obj)
        assert {"character", "basis_columns"} <= set(obj["blocks"][0])
