import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unimetric.errors import (
    DimensionMismatchError,
    InternalCheckError,
    InvalidPError,
    MalformedInputError,
    NotNormalizedError,
    NotUnitaryError,
    OutOfRangeError,
)
from unimetric import circlegeom
from unimetric.linalg import (
    DensityState,
    haar_random_unitary,
    haar_unitaries,
    kron,
    validate_unitary,
)
from unimetric.metrics import (
    check_sandwich,
    d_psi,
    d_rho,
    distinguishability,
    schatten_sup_distance,
    sup_distance,
    tensor_distance,
)
from unimetric.subsets import SeparableProblem, face_distance, separable_distance

TAU = 2 * math.pi
I2 = np.eye(2)
Z = np.diag([1.0, -1.0])
KET0 = np.array([1.0, 0.0])
PLUS = np.array([1.0, 1.0]) / math.sqrt(2)
CNOT = np.eye(4)[[0, 1, 3, 2]].astype(complex)

seeds = st.integers(0, 10_000)


def haar(n, seed):
    return haar_random_unitary(n, seed=seed).matrix


def random_state(n, rng):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


class TestDPsi:
    def test_same_operator(self):
        u = haar(3, 1)
        rng = np.random.default_rng(0)
        assert d_psi(u, u, random_state(3, rng)) <= 1e-12

    def test_eigenvector_gives_zero(self):
        assert d_psi(I2, Z, KET0) == 0.0

    def test_plus_state_maximal(self):
        # <+|Z|+> = 0
        assert d_psi(I2, Z, PLUS) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            d_psi(I2, Z, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        # abs(norm - 1) > tol is False for a NaN norm, so the norm check alone lets it through
        with pytest.raises(MalformedInputError):
            d_psi(I2, Z, np.array([bad, 0.0]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            d_psi(I2, np.eye(3), KET0)
        with pytest.raises(DimensionMismatchError):
            d_psi(I2, Z, np.array([1.0, 0.0, 0.0]))


class TestDRho:
    def test_maximally_mixed_is_blind(self):
        u, v = haar(3, 2), haar(3, 3)
        assert d_rho(u, v, np.eye(3) / 3) <= 1e-12

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            d_rho(I2, Z, np.eye(3) / 3)

    def test_pure_state_agrees_with_d_psi(self):
        rng = np.random.default_rng(5)
        u, v = haar(4, 4), haar(4, 5)
        psi = random_state(4, rng)
        assert d_rho(u, v, DensityState.pure(psi)) == pytest.approx(
            d_psi(u, v, psi), abs=1e-10
        )

    def test_mixed_example_half(self):
        # rho = (|0><0| + |+><+|)/2 against (I, Z): difference has
        # eigenvalues +-1/2, so the trace distance is exactly 1/2
        rho = (np.outer(KET0, KET0) + np.outer(PLUS, PLUS)) / 2
        assert d_rho(I2, Z, DensityState.from_matrix(rho)) == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_left_invariance(self, seed):
        rng = np.random.default_rng(seed)
        u, v, w = (haar(3, seed + k) for k in range(3))
        rho = DensityState.pure(random_state(3, rng))
        assert d_rho(w @ u, w @ v, rho) == pytest.approx(d_rho(u, v, rho), abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_pseudometric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        u, v, w = (haar(3, seed + k) for k in range(3))
        rho = DensityState.pure(random_state(3, rng))
        duv = d_rho(u, v, rho)
        assert duv == pytest.approx(d_rho(v, u, rho), abs=1e-12)
        assert duv <= d_rho(u, w, rho) + d_rho(w, v, rho) + 1e-9


class TestSupDistance:
    def test_projective_zero(self):
        u = haar(3, 8)
        assert sup_distance(u, np.exp(1j * 0.7) * u).value == 0.0

    def test_quarter_rotation(self):
        res = sup_distance(I2, np.diag([1.0, 1j]))
        assert res.value == pytest.approx(math.sin(math.pi / 4), abs=1e-12)
        assert res.method == "closed_form"

    def test_cnot_saturates(self):
        res = sup_distance(np.eye(4), CNOT)
        assert res.value == 1.0
        assert abs(np.vdot(res.maximizer, CNOT @ res.maximizer)) <= 1e-8

    @pytest.mark.parametrize("order", [0, 1])
    def test_maximizer_with_phase_near_2pi(self, order):
        # W's angles must be sorted in [0, 2pi) for the arc's indices to
        # address its eigenvectors; -1e-17 used to reduce to exactly 2pi
        w = np.diag(np.exp(1j * np.array([-1e-17, 1.0, 2.0])))
        u, v = (np.eye(3), w) if order == 0 else (w, np.eye(3))
        res = sup_distance(u, v)
        assert res.value == pytest.approx(math.sin(1.0), abs=1e-12)
        assert d_psi(u, v, res.maximizer) == pytest.approx(res.value, abs=1e-12)

    def test_closed_form_never_groups_angles(self, monkeypatch):
        from unimetric import circlegeom

        def fail(*args, **kwargs):
            raise AssertionError("angle_runs called")

        monkeypatch.setattr(circlegeom, "angle_runs", fail)
        u, v = haar(3, 40), haar(3, 41)
        sup_distance(u, v)
        distinguishability(u, v)
        distinguishability(np.eye(4), CNOT)

    def test_symmetry_exact(self):
        u, v = haar(4, 21), haar(4, 22)
        assert sup_distance(u, v).value == sup_distance(v, u).value

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_maximizer_achieves_value(self, seed):
        u, v = haar(4, seed), haar(4, seed + 77)
        res = sup_distance(u, v)
        assert d_psi(u, v, res.maximizer) == pytest.approx(res.value, abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_dominates_sampled_states(self, seed):
        rng = np.random.default_rng(seed)
        u, v = haar(3, seed + 1), haar(3, seed + 2)
        bound = sup_distance(u, v).value
        for _ in range(50):
            assert d_psi(u, v, random_state(3, rng)) <= bound + 1e-9

    def test_positivity_zero_implies_phase(self):
        from unimetric.linalg import validate_unitary

        u = haar(3, 30)
        v = np.exp(0.31j) * u
        res = sup_distance(u, v)
        assert res.value == 0.0
        # d = 0 forces U'V to be a phase; recover it from the spectrum
        wop = validate_unitary(u.conj().T @ v)
        phase = np.exp(1j * np.mean(wop.eigen_angles))
        assert np.abs(v - phase * u).max() <= 1e-7

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_bi_invariance(self, seed):
        u, v, x = haar(3, seed), haar(3, seed + 5), haar(3, seed + 9)
        base = sup_distance(u, v).value
        assert sup_distance(x @ u, x @ v).value == pytest.approx(base, abs=1e-9)
        assert sup_distance(u @ x, v @ x).value == pytest.approx(base, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_product_submultiplicative(self, seed):
        u, v, w, x = (haar(3, seed + k) for k in range(4))
        lhs = sup_distance(u @ v, w @ x).value
        assert lhs <= sup_distance(u, w).value + sup_distance(v, x).value + 1e-9


class TestSchattenSup:
    def test_p2_saturated(self):
        assert schatten_sup_distance(I2, Z, 2) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_p1_doubles(self):
        v = np.diag([1.0, np.exp(0.9j)])
        assert schatten_sup_distance(I2, v, 1) == pytest.approx(
            2 * sup_distance(I2, v).value, abs=1e-12
        )

    def test_infinite_p_is_plain_distance(self):
        v = np.diag([1.0, np.exp(0.9j)])
        assert schatten_sup_distance(I2, v, math.inf) == sup_distance(I2, v).value

    def test_invalid_p(self):
        with pytest.raises(InvalidPError):
            schatten_sup_distance(I2, Z, 0.3)


class TestTensorDistance:
    def test_zero_factor_is_identity(self):
        for x in (0.0, 0.3, 1.0):
            assert tensor_distance(0.0, x) == pytest.approx(x, abs=1e-15)

    def test_half_half(self):
        assert tensor_distance(0.5, 0.5) == pytest.approx(0.8660254037844386, abs=1e-12)

    def test_saturation(self):
        assert tensor_distance(0.8, 0.8) == 1.0

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            tensor_distance(-0.1, 0.5)
        with pytest.raises(OutOfRangeError):
            tensor_distance(0.5, 1.2)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_matches_direct_tensor_metric(self, seed):
        u, v = haar(2, seed), haar(2, seed + 1)
        w, x = haar(3, seed + 2), haar(3, seed + 3)
        rule = tensor_distance(sup_distance(u, v).value, sup_distance(w, x).value)
        direct = sup_distance(kron(u, w), kron(v, x)).value
        assert rule == pytest.approx(direct, abs=1e-9)


class TestSandwich:
    def test_identical_operators(self):
        u = haar(3, 40)
        rng = np.random.default_rng(2)
        b = check_sandwich(u, u, random_state(3, rng))
        assert (b.lower, b.mid, b.upper) == (0.0, 0.0, 0.0)
        assert b.holds

    def test_plus_state_case(self):
        b = check_sandwich(I2, Z, PLUS)
        assert b.lower == pytest.approx(1.0, abs=1e-12)
        assert b.mid == pytest.approx(1.0, abs=1e-12)
        assert b.upper == pytest.approx(2.0, abs=1e-12)
        assert b.holds

    def test_rejects_non_finite(self):
        with pytest.raises(MalformedInputError):
            check_sandwich(I2, Z, np.array([math.nan, 0.0]))

    @settings(max_examples=50, deadline=None)
    @given(seeds, st.integers(2, 6))
    def test_random_triples_hold(self, seed, n):
        rng = np.random.default_rng(seed)
        b = check_sandwich(haar(n, seed), haar(n, seed + 13), random_state(n, rng))
        assert b.holds


class TestDistinguishability:
    def test_cnot_distinguishable(self):
        rep = distinguishability(np.eye(4), CNOT)
        assert rep.distinguishable
        assert rep.residual <= 1e-8
        assert rep.min_overlap_bound is None

    def test_small_rotation_bound(self):
        rep = distinguishability(I2, np.diag([1.0, np.exp(1j * math.pi / 4)]))
        assert not rep.distinguishable
        assert rep.min_overlap_bound == pytest.approx(0.9238795325112867, abs=1e-12)

    def test_phase_pair_bound_is_one(self):
        u = haar(3, 50)
        rep = distinguishability(u, np.exp(0.4j) * u)
        assert not rep.distinguishable
        assert rep.min_overlap_bound == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_bitwise(self):
        # the arc, the witness and the residual are all those of the
        # canonically ordered W, so every field is the same computation
        # in both orders
        for u, v in verdict_pairs():
            a, b = distinguishability(u, v), distinguishability(v, u)
            assert a.value == b.value
            assert a.distinguishable == b.distinguishable
            assert a.arc_alpha == b.arc_alpha
            assert a.min_overlap_bound == b.min_overlap_bound
            assert a.residual == b.residual
            if a.witness is not None:
                assert a.witness.tobytes() == b.witness.tobytes()

    def test_residual_is_the_operand_overlap(self):
        # |<psi|W|psi>| has the modulus of |<U psi, V psi>| for W = U'V or V'U
        eps = np.finfo(float).eps
        found = 0
        for u, v in verdict_pairs():
            for a, b in ((u, v), (v, u)):
                rep = distinguishability(a, b)
                if rep.distinguishable:
                    found += 1
                    psi = rep.witness
                    overlap = abs(np.vdot(a @ psi, b @ psi))
                    assert abs(rep.residual - overlap) <= 4 * eps
        assert found >= 100


def verdict_pairs():
    """Haar pairs for n = 2..16, saturated pairs from n = 3, and three fixed pairs."""
    pairs = [(haar(4, 60), haar(4, 61)), (np.eye(4), CNOT), (I2, Z)]
    for n in range(2, 17):
        rng = np.random.default_rng([n, 15])
        us = haar_unitaries(rng, 20, n)
        pairs += zip(us[:10], us[10:])
        if n >= 3:
            # every gap below 3pi/n <= pi: the arc covers a semicircle
            for u, q in zip(us[:5], haar_unitaries(rng, 5, n)):
                angles = (np.arange(n) + rng.uniform(0.0, 0.5, n)) * TAU / n
                pairs.append((u, u @ spectrum(q, angles)))
    return pairs


def spectrum(q, angles):
    """The unitary with eigenvalues e^{i angles} on the columns of q."""
    return (q * np.exp(1j * np.asarray(angles))) @ q.conj().T


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULIS = [I2.astype(complex), PAULI_X, PAULI_Y, Z.astype(complex)]


def exact_2x2_distance(w):
    """min(1, |mu|) of the float 2x2 W, evaluated with 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        (a, b), (c, d) = [[mpmath.mpc(z.real, z.imag) for z in row] for row in w]
        h = (a - d) / 2
        return float(min(1, abs(mpmath.sqrt(h * h + b * c))))


def two_by_two_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for kind in ("random", "near-scalar", "antipodal"):
        for _ in range(100):
            q = haar_unitaries(rng, 1, 2)[0]
            theta = rng.uniform(0.0, TAU)
            if kind == "random":
                gap = rng.uniform(0.0, TAU)
            elif kind == "near-scalar":
                gap = 10.0 ** rng.uniform(-14.0, -12.0)
            else:
                gap = math.pi
            cases.append((kind, spectrum(q, [theta, theta + gap])))
    cases += [("pauli", p.conj().T @ r) for p in PAULIS for r in PAULIS]
    return cases


class TestTwoByTwo:
    """The explicit 2x2 closed form: t +- mu, with no eigensolve."""

    def test_value_within_four_eps_of_50_digits(self):
        eps = np.finfo(float).eps
        worst = {}
        for kind, w in two_by_two_cases():
            # U = I makes the canonical W this W or its adjoint, both exact
            err = abs(sup_distance(I2, w).value - exact_2x2_distance(w))
            worst[kind] = max(worst.get(kind, 0.0), err)
        assert worst.keys() == {"random", "near-scalar", "antipodal", "pauli"}
        assert max(worst.values()) <= 4 * eps, worst

    def test_maximizer_reaches_the_value(self):
        for kind, w in two_by_two_cases():
            res = sup_distance(I2, w)
            assert d_psi(I2, w, res.maximizer) == pytest.approx(res.value, abs=1e-8), kind
            rep = distinguishability(I2, w)
            if rep.distinguishable:
                assert rep.residual <= 1e-8, kind

    @pytest.mark.parametrize("func", [sup_distance, distinguishability])
    def test_no_eigensolve(self, func, counted_eigensolves):
        pairs = [(haar(2, 80), haar(2, 81)), (I2, Z), (I2, np.exp(0.3j) * I2)]
        counted_eigensolves.clear()
        for u, v in pairs:
            func(u, v)
        assert counted_eigensolves == []

    def test_residual_check_raises(self, monkeypatch):
        # an eigenvalue off by 1e-6 leaves its eigenvector's residual far above EIGEN_TOL
        from unimetric import metrics

        class OffSqrt:
            phase = staticmethod(cmath.phase)

            @staticmethod
            def sqrt(z):
                return cmath.sqrt(z) * (1.0 + 1e-6)

        monkeypatch.setattr(metrics, "cmath", OffSqrt)
        with pytest.raises(InternalCheckError):
            sup_distance(haar(2, 82), haar(2, 83))


class TestSaturatedWitnessEdges:
    """Witnesses of arcs at and around a semicircle at n >= 3."""

    @pytest.mark.parametrize(
        "angles",
        [
            [0.0, 0.0, math.pi],
            [0.0, math.pi, math.pi, math.pi],
            [0.4, 0.4, 0.4 + math.pi, 0.4 + math.pi, 0.4, 0.4 + math.pi],
            [0.0, 0.0, TAU / 3, TAU / 3, 2 * TAU / 3],
            [1.0, 1.0 + 1e-10, 1.0 + math.pi],
        ],
        ids=["pm1-3", "pm1-4", "antipodal-6", "repeated", "thin"],
    )
    def test_edge_spectra(self, angles):
        n = len(angles)
        u, q = haar_unitaries(np.random.default_rng([n, 90]), 2, n)
        rep = distinguishability(u, u @ spectrum(q, angles))
        assert rep.value == 1.0 and rep.distinguishable
        assert rep.residual <= 1e-8

    @pytest.mark.parametrize("qubits", [2, 3])
    def test_pauli_products(self, qubits):
        # U'V is a Pauli string up to phase: d = 0 for equal strings, else
        # antipodal eigenvalues, each repeated 2^(qubits - 1) times
        rng = np.random.default_rng([qubits, 91])
        strings = [
            functools.reduce(np.kron, [PAULIS[k] for k in row])
            for row in rng.integers(0, 4, size=(12, qubits))
        ]
        for p, r in zip(strings[::2], strings[1::2]):
            rep = distinguishability(p, r)
            if np.array_equal(p, r):
                assert rep.value == 0.0
            else:
                assert rep.value == 1.0 and rep.distinguishable
                assert rep.residual <= 1e-8

    @pytest.mark.parametrize("ulps", [-4, -2, -1, 0, 1, 2, 4])
    def test_gap_ulps_around_pi(self, ulps):
        # the widest gap of W's spectrum, 0 to pi + ulps * ulp(pi), reads d = 1
        # on both sides of pi, with the semicircle witness or the chord
        u, q = haar_unitaries(np.random.default_rng([ulps + 10, 92]), 2, 3)
        angles = [0.0, math.pi + ulps * math.ulp(math.pi), math.pi + 1.0]
        rep = distinguishability(u, u @ spectrum(q, angles))
        assert rep.value == 1.0 and rep.distinguishable
        assert rep.residual <= 1e-8


# U'V is unitary for both pairs although neither operand is
NON_UNITARY_PAIRS = [
    (2 * np.eye(4), 0.5 * np.eye(4)),
    (2 * np.kron(PAULI_X, Z), 0.5 * np.kron(PAULI_Y, PAULI_Y)),
]
PAIR_FUNCTIONS = {
    "sup_distance": sup_distance,
    "distinguishability": distinguishability,
    "d_psi": lambda u, v: d_psi(u, v, np.eye(4)[0]),
    "d_rho": lambda u, v: d_rho(u, v, np.eye(4) / 4),
    "check_sandwich": lambda u, v: check_sandwich(u, v, np.eye(4)[0]),
    "face_distance": lambda u, v: face_distance(u, v, np.eye(4)[:, :2]),
    "separable_distance": lambda u, v: separable_distance(
        u, v, SeparableProblem(dim_a=2, dim_b=2, restarts=1)
    ),
}


@pytest.mark.parametrize("pair", range(len(NON_UNITARY_PAIRS)))
@pytest.mark.parametrize("name", sorted(PAIR_FUNCTIONS))
def test_pair_functions_reject_non_unitary_operands(name, pair):
    with pytest.raises(NotUnitaryError):
        PAIR_FUNCTIONS[name](*NON_UNITARY_PAIRS[pair])


def fields(out):
    """Every field of a result, arrays as bytes; a float as itself."""
    values = vars(out).values() if hasattr(out, "__dict__") else [out]
    return [x.tobytes() if isinstance(x, np.ndarray) else x for x in values]


@pytest.mark.parametrize("name", sorted(PAIR_FUNCTIONS))
def test_pair_functions_take_validated_operators(name):
    # a UnitaryOperator was checked when it was built, so its matrix is
    # used as is, and the result is the raw matrices' bit for bit
    func = PAIR_FUNCTIONS[name]
    for u, v in [(haar(4, 72), haar(4, 73)), (np.eye(4, dtype=complex), CNOT)]:
        raw = fields(func(u, v))
        assert fields(func(validate_unitary(u), validate_unitary(v))) == raw
        assert fields(func(validate_unitary(u), v)) == raw


@pytest.mark.parametrize("func", [sup_distance, distinguishability])
def test_one_eigensolve_per_pair(func, counted_eigensolves):
    u, v = haar(5, 70), haar(5, 71)
    counted_eigensolves.clear()
    func(u, v)
    assert len(counted_eigensolves) == 1


def pauli_string(letters: str) -> np.ndarray:
    return functools.reduce(np.kron, [PAULIS["IXYZ".index(c)] for c in letters])


def degenerate_pairs() -> dict:
    """(U, V, d) for pairs whose W = U'V repeats eigenvalues with distinct
    real parts: a phase times a Pauli string (two antipodal values), V a
    phase multiple of U (one value) and two or three distinct angles, the
    last in blocks of two sizes."""
    rng = np.random.default_rng(94)
    pairs = {}
    for a, b in (("XZ", "ZY"), ("XYZ", "ZZI"), ("XYZIXY", "ZZXYIX")):
        pairs[f"pauli-{2 ** len(a)}"] = (np.exp(0.7j) * pauli_string(a), pauli_string(b), 1.0)
    for n in (3, 16, 64):
        u = haar_unitaries(rng, 1, n)[0]
        pairs[f"phase-{n}"] = (u, np.exp(1.1j) * u, 0.0)
    for n, angles, d in ((8, [0.2, 1.4], math.sin(0.6)), (7, [0.3, 2.3, 4.3], 1.0)):
        u, q = haar_unitaries(rng, 2, n)
        pairs[f"repeated-{len(angles)}"] = (u, u @ spectrum(q, np.resize(angles, n)), d)
    return pairs


@pytest.mark.parametrize("func", [sup_distance, distinguishability])
@pytest.mark.parametrize("kind", list(degenerate_pairs()))
def test_one_eigensolve_per_degenerate_pair(func, kind, counted_eigensolves):
    # every block of W's first Hermitian part holds one eigenvalue, so the
    # second part is scalar on each and no block is solved again; a phase
    # pair's W = e^{i phi} I is scalar in both parts and is not solved at all
    u, v, d = degenerate_pairs()[kind]
    counted_eigensolves.clear()
    res = func(u, v)
    assert len(counted_eigensolves) == (0 if kind.startswith("phase") else 1)
    assert res.value == pytest.approx(d, abs=1e-12)


def scalar_first_part_pairs() -> dict:
    """(U, V, d) for pairs whose W = U'V has first Hermitian part cI: a
    spectrum of e^{i theta} and e^{-i theta} only, {+i, -i} included."""
    rng = np.random.default_rng(95)
    pairs = {"XX-YX": (pauli_string("XX"), pauli_string("YX"), 1.0)}
    for n, theta, d in ((3, math.pi / 2, 1.0), (8, 0.4, math.sin(0.4)), (16, 1.2, math.sin(1.2))):
        u, q = haar_unitaries(rng, 2, n)
        pairs[f"pm{theta:.2f}-{n}"] = (u, u @ spectrum(q, np.resize([theta, -theta], n)), d)
    return pairs


@pytest.mark.parametrize("func", [sup_distance, distinguishability])
@pytest.mark.parametrize("kind", list(scalar_first_part_pairs()))
def test_one_eigensolve_when_first_part_is_scalar(func, kind, counted_eigensolves):
    # no solve of H1 = cI splits anything, so the second part splits the whole space
    u, v, d = scalar_first_part_pairs()[kind]
    counted_eigensolves.clear()
    res = func(u, v)
    assert len(counted_eigensolves) == 1
    assert res.value == pytest.approx(d, abs=1e-12)


def test_one_dimensional_pair_needs_no_eigensolve(counted_eigensolves):
    res = distinguishability(np.array([[1j]]), np.array([[np.exp(0.3j)]]))
    assert counted_eigensolves == []
    assert res.value == 0.0 and not res.distinguishable


@pytest.mark.parametrize("func", [sup_distance, distinguishability])
def test_one_arc_per_pair(func, monkeypatch):
    u, v = haar(5, 70), haar(5, 71)
    if not v.tobytes() < u.tobytes():
        u, v = v, u  # the byte order swaps, so W is V'U
    calls = []
    arc = circlegeom.smallest_covering_arc
    monkeypatch.setattr(circlegeom, "smallest_covering_arc", lambda a: calls.append(1) or arc(a))
    func(u, v)
    assert len(calls) == 1


@pytest.mark.parametrize("pair", [0, 1], ids=["mirror-n3", "haar-n16"])
def test_noisy_operands_decompose(pair, noisy_pairs):
    # the kernel's first basis mixes the mirrored pair; the polar step's does not
    u, v = noisy_pairs[pair]
    res = sup_distance(u, v)
    assert d_psi(u, v, res.maximizer) == pytest.approx(res.value, abs=1e-7)
    verdict = distinguishability(u, v)
    assert verdict.value == res.value
    if verdict.distinguishable:
        assert verdict.residual <= 1e-7
