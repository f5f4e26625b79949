import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unimetric.errors import LengthMismatchError, PauliParseError, UnimetricError
from unimetric.metrics import sup_distance
from unimetric.pauli import (
    PauliElement,
    PauliSubgroup,
    parse_pauli,
    parse_pauli_list,
    pauli_distance,
    pauli_product,
    stabilizer_subspace,
    symplectic_form,
)
from unimetric.subsets import null_space

CODES = {
    "five-qubit": (["+XZZXI", "+IXZZX", "+XIXZZ", "+ZXIXZ"], 16),
    "steane": (
        ["+IIIXXXX", "+IXXIIXX", "+XIXIXIX", "+IIIZZZZ", "+IZZIIZZ", "+ZIZIZIZ"],
        64,
    ),
}

elements = st.builds(
    PauliElement.from_letters,
    st.text(alphabet="IXYZ", min_size=1, max_size=3),
    st.integers(0, 3),
)


class TestParse:
    def test_plain(self):
        p = parse_pauli("+ZZ")
        assert p.phase == 1 and p.letters == "ZZ"

    def test_negative_imaginary(self):
        p = parse_pauli("-iXY")
        assert p.phase == -1j and p.letters == "XY"

    def test_bare_letters(self):
        assert parse_pauli("XYZ").letters == "XYZ"

    def test_bad_letter_position(self):
        with pytest.raises(PauliParseError) as exc:
            parse_pauli("XQ")
        assert exc.value.position == 1

    def test_empty_rejected(self):
        with pytest.raises(PauliParseError):
            parse_pauli("-i")

    def test_list_parsing(self):
        gens = parse_pauli_list("+ZZ, +XX")
        assert [g.letters for g in gens] == ["ZZ", "XX"]

    @settings(max_examples=60, deadline=None)
    @given(elements)
    def test_string_round_trip(self, p):
        q = parse_pauli(str(p))
        assert q == p


class TestProduct:
    def test_xy_is_iz(self):
        p = pauli_product(parse_pauli("X"), parse_pauli("Y"))
        assert str(p) == "+iZ"

    def test_involution(self):
        p = pauli_product(parse_pauli("Z"), parse_pauli("Z"))
        assert str(p) == "+I"

    def test_two_qubit_cross(self):
        p = pauli_product(parse_pauli("XZ"), parse_pauli("ZX"))
        assert str(p) == "+YY"

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            pauli_product(parse_pauli("X"), parse_pauli("XX"))

    def test_element_bit_strings_of_different_lengths(self):
        with pytest.raises(LengthMismatchError):
            PauliElement(phase_power=0, x=(0, 1), z=(1,))

    @settings(max_examples=80, deadline=None)
    @given(elements, elements)
    def test_dense_consistency(self, a, b):
        if a.num_qubits != b.num_qubits:
            with pytest.raises(LengthMismatchError):
                pauli_product(a, b)
            return
        prod = pauli_product(a, b)
        assert np.abs(prod.to_matrix() - a.to_matrix() @ b.to_matrix()).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(elements, elements)
    def test_operator_is_the_product(self, a, b):
        if a.num_qubits != b.num_qubits:
            with pytest.raises(LengthMismatchError):
                a * b
            return
        assert a * b == pauli_product(a, b)

    @settings(max_examples=60, deadline=None)
    @given(elements)
    def test_square_is_plus_minus_identity(self, g):
        sq = pauli_product(g, g)
        assert sq.is_central
        assert sq.phase in (1, -1)

    @settings(max_examples=60, deadline=None)
    @given(elements, elements)
    def test_symplectic_form_tracks_commutation(self, a, b):
        if a.num_qubits != b.num_qubits:
            return
        ab = a.to_matrix() @ b.to_matrix()
        ba = b.to_matrix() @ a.to_matrix()
        commute = np.abs(ab - ba).max() <= 1e-12
        assert (symplectic_form(a, b) == 0) == commute


class TestPauliDistance:
    def test_equal_elements(self):
        assert pauli_distance(parse_pauli("X"), parse_pauli("X")) == 0.0

    def test_central_phase(self):
        assert pauli_distance(parse_pauli("X"), parse_pauli("iX")) == 0.0

    def test_nontrivial_letters(self):
        assert pauli_distance(parse_pauli("II"), parse_pauli("ZZ")) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(elements, elements)
    def test_matches_dense_metric(self, a, b):
        if a.num_qubits != b.num_qubits:
            return
        dense = sup_distance(a.to_matrix(), b.to_matrix()).value
        assert pauli_distance(a, b) == pytest.approx(dense, abs=1e-10)


class TestSubgroup:
    def test_abelian_flag(self):
        assert PauliSubgroup.from_generators(["+ZZ", "+XX"]).is_abelian
        assert not PauliSubgroup.from_generators(["+X", "+Z"]).is_abelian

    @pytest.mark.parametrize(
        "generators, error",
        [([], UnimetricError), (["+ZZ", "+X"], LengthMismatchError)],
        ids=["empty", "mixed-lengths"],
    )
    def test_rejects_bad_generator_lists(self, generators, error):
        with pytest.raises(error):
            PauliSubgroup.from_generators(generators)


class TestStabilizerSubspace:
    def test_single_zz_two_faces(self):
        dec = stabilizer_subspace(PauliSubgroup.from_generators(["+ZZ"]))
        assert dec.abelian and len(dec.faces) == 2
        by_char = {f.characters[0]: f for f in dec.faces}
        assert set(by_char) == {1, -1}
        plus = by_char[1].face.basis
        span = np.abs(plus.conj().T @ np.eye(4)[:, [0, 3]])
        assert np.allclose(span @ span.conj().T, np.eye(2), atol=1e-10)

    def test_bell_faces(self):
        dec = stabilizer_subspace(PauliSubgroup.from_generators(["+ZZ", "+XX"]))
        assert len(dec.faces) == 4
        chars = sorted((f.characters[0].real, f.characters[1].real) for f in dec.faces)
        assert chars == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_nonabelian_empty_with_flag(self):
        dec = stabilizer_subspace(PauliSubgroup.from_generators(["+X", "+Z"]))
        assert not dec.abelian
        assert dec.faces == ()

    def test_negative_generator_characters(self):
        dec = stabilizer_subspace(PauliSubgroup.from_generators(["-Z"]))
        by_char = {f.characters[0]: f for f in dec.faces}
        # -Z fixes |1> and negates |0>
        assert abs(by_char[1].face.basis[1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_face_mixtures_stay_in_span(self):
        # equal mixtures of two face vectors decompose inside the face
        dec = stabilizer_subspace(PauliSubgroup.from_generators(["+ZZ"]))
        for f in dec.faces:
            b = f.face.basis
            proj = b @ b.conj().T
            for sign in (1.0, -1.0):
                mix = (b[:, 0] + sign * b[:, 1]) / np.sqrt(2)
                assert np.linalg.norm(mix - proj @ mix) <= 1e-10

    @pytest.mark.parametrize("name", sorted(CODES))
    def test_code_faces_need_no_eigensolve(self, name, counted_eigensolves):
        generators, count = CODES[name]
        dec = stabilizer_subspace(PauliSubgroup.from_generators(generators))
        assert len(dec.faces) == count
        assert counted_eigensolves == []

    def test_generalized_pseudometric_vanishes_on_faces(self):
        zz, xx = parse_pauli("+ZZ"), parse_pauli("+XX")
        group = [PauliElement.identity(2), zz, xx, pauli_product(zz, xx)]
        dec = stabilizer_subspace(PauliSubgroup.from_generators([zz, xx]))
        for f in dec.faces:
            vec = f.face.basis[:, 0]
            for g in group:
                for h in group:
                    rel = g.to_matrix().conj().T @ h.to_matrix()
                    overlap = abs(vec.conj() @ rel @ vec)
                    assert 1.0 - overlap**2 <= 1e-8

    def test_nine_qubits_exceed_the_dense_limit(self):
        with pytest.raises(UnimetricError):
            stabilizer_subspace(PauliSubgroup.from_generators(["+ZZZZZZZZZ"]))


def random_abelian_generators(rng, n):
    """Commuting Pauli strings with random phases; half the draws append a
    product of earlier generators, times a random power of i, as a
    dependent generator (its relation gives -I or +-iI unless the power is 0)."""
    gens = []
    for _ in range(int(rng.integers(1, 3 * n + 1))):
        bits = rng.integers(0, 2, size=(2, n))
        g = PauliElement(int(rng.integers(4)), tuple(map(int, bits[0])), tuple(map(int, bits[1])))
        if all(symplectic_form(g, h) == 0 for h in gens):
            gens.append(g)
    if rng.random() < 0.5:
        dep = PauliElement.identity(n)
        for h in gens:
            if rng.random() < 0.5:
                dep = pauli_product(dep, h)
        gens.append(PauliElement(dep.phase_power + int(rng.integers(4)), dep.x, dep.z))
    return gens


def test_faces_match_dense_null_space():
    rng = np.random.default_rng(16)
    for trial in range(90):
        n = 1 + trial % 6
        gens = random_abelian_generators(rng, n)
        dec = stabilizer_subspace(PauliSubgroup.from_generators(gens))
        ref = null_space([g.to_matrix() for g in gens])
        dense = {
            tuple((round(c.real), round(c.imag)) for c in chars): cols
            for cols, chars in zip(ref.blocks, ref.characters)
        }
        assert len(dec.faces) == len(dense)
        total = np.zeros((2**n, 2**n), dtype=complex)
        for f in dec.faces:
            assert all(c in (1, 1j, -1, -1j) for c in f.characters)
            key = tuple((int(c.real), int(c.imag)) for c in f.characters)
            b = ref.common_eigenbasis[:, list(dense[key])]
            proj = f.face.basis @ f.face.basis.conj().T
            assert np.abs(proj - b @ b.conj().T).max() <= 1e-12
            total += proj
        assert np.abs(total - np.eye(2**n)).max() <= 1e-12
