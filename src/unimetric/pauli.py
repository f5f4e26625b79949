"""Pauli group machinery and stabilizer subspaces.

Elements are kept in symplectic form (an x bit and a z bit per qubit)
with the global phase tracked exactly as a power of i, so group logic is
integer arithmetic.  Dense matrices are materialized only where the
metric layer needs them (8 qubits at most).

The distance dichotomy: every non-central element squares to +-I with
eigenvalues {1,-1} or {i,-i}, which are antipodal on the unit circle,
so d(I, g) is exactly 1; central elements (identity letters times a
phase) give exactly 0.

A subgroup acts as scalars on a common subspace only if it is abelian;
for an abelian subgroup the stabilizer faces are the joint eigenspaces
of the generators, one face per character tuple.  They come from the
monomial action g|b> = i^(p + x.z) (-1)^(z.b) |b xor x> of g = i^p P
(Gottesman, PhD thesis, 1997, arXiv:quant-ph/9705052): each generator
splits every block of orthonormal columns into its eigenspaces for
+-i^p, so the characters are exact fourth roots of unity and no
eigensolve is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import LengthMismatchError, PauliParseError, UnimetricError
from .subsets import SubspaceFace

_LETTER_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_BITS_TO_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_LETTER_TO_BITS = {v: k for k, v in _BITS_TO_LETTER.items()}

_DENSE_QUBIT_LIMIT = 8


def _check_dense(num_qubits: int) -> None:
    if num_qubits > _DENSE_QUBIT_LIMIT:
        raise UnimetricError(
            f"dense form limited to {_DENSE_QUBIT_LIMIT} qubits, got {num_qubits}"
        )


def _phase_power_table() -> dict[tuple[int, int, int, int], int]:
    """Power t in  a . b = i^t . c  for single-qubit letters, from the matrices."""
    table = {}
    for (xa, za), la in _BITS_TO_LETTER.items():
        for (xb, zb), lb in _BITS_TO_LETTER.items():
            prod = _LETTER_MATRICES[la] @ _LETTER_MATRICES[lb]
            lc = _BITS_TO_LETTER[(xa ^ xb, za ^ zb)]
            ref = _LETTER_MATRICES[lc]
            pos = np.unravel_index(np.argmax(np.abs(ref)), ref.shape)
            ratio = prod[pos] / ref[pos]
            table[(xa, za, xb, zb)] = int(round(np.angle(ratio) / (np.pi / 2))) % 4
    return table


_PHASE_POW = _phase_power_table()


@dataclass(frozen=True)
class PauliElement:
    """i^phase_power times a tensor product of I, X, Y, Z letters."""

    phase_power: int
    x: tuple[int, ...]
    z: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "phase_power", self.phase_power % 4)
        if len(self.x) != len(self.z):
            raise LengthMismatchError("x and z bit strings differ in length")

    @property
    def num_qubits(self) -> int:
        return len(self.x)

    @property
    def letters(self) -> str:
        return "".join(_BITS_TO_LETTER[(xi, zi)] for xi, zi in zip(self.x, self.z))

    @property
    def phase(self) -> complex:
        return 1j**self.phase_power

    @property
    def is_central(self) -> bool:
        return all(xi == 0 and zi == 0 for xi, zi in zip(self.x, self.z))

    def __mul__(self, other: "PauliElement") -> "PauliElement":
        return pauli_product(self, other)

    def __str__(self) -> str:
        prefix = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase_power]
        return prefix + self.letters

    def adjoint(self) -> "PauliElement":
        return PauliElement(phase_power=(-self.phase_power) % 4, x=self.x, z=self.z)

    def to_matrix(self) -> np.ndarray:
        _check_dense(self.num_qubits)
        mat = reduce(np.kron, (_LETTER_MATRICES[c] for c in self.letters))
        return self.phase * mat

    @classmethod
    def identity(cls, n: int) -> "PauliElement":
        return cls(phase_power=0, x=(0,) * n, z=(0,) * n)

    @classmethod
    def from_letters(cls, letters: str, phase_power: int = 0) -> "PauliElement":
        bits = [_LETTER_TO_BITS[c] for c in letters]
        return cls(
            phase_power=phase_power,
            x=tuple(b[0] for b in bits),
            z=tuple(b[1] for b in bits),
        )


def parse_pauli(s: str) -> PauliElement:
    """Parse an optional sign prefix (+, -, +i, -i, i) and I/X/Y/Z letters."""
    pos = 0
    power = 0
    if pos < len(s) and s[pos] in "+-":
        if s[pos] == "-":
            power = 2
        pos += 1
    if pos < len(s) and s[pos] == "i":
        power += 1
        pos += 1
    if pos >= len(s):
        raise PauliParseError(s, pos, "expected at least one letter")
    x_bits: list[int] = []
    z_bits: list[int] = []
    for i in range(pos, len(s)):
        bits = _LETTER_TO_BITS.get(s[i])
        if bits is None:
            raise PauliParseError(s, i)
        x_bits.append(bits[0])
        z_bits.append(bits[1])
    return PauliElement(phase_power=power, x=tuple(x_bits), z=tuple(z_bits))


def parse_pauli_list(text: str) -> list[PauliElement]:
    """Comma-separated Pauli strings, e.g. '+ZZ,+XX'."""
    return [parse_pauli(tok.strip()) for tok in text.split(",") if tok.strip()]


def _check_same_length(a: PauliElement, b: PauliElement) -> None:
    if a.num_qubits != b.num_qubits:
        raise LengthMismatchError(
            f"elements act on {a.num_qubits} and {b.num_qubits} qubits"
        )


def pauli_product(a: PauliElement, b: PauliElement) -> PauliElement:
    """Group product with exact phase bookkeeping."""
    _check_same_length(a, b)
    power = a.phase_power + b.phase_power
    for xa, za, xb, zb in zip(a.x, a.z, b.x, b.z):
        power += _PHASE_POW[(xa, za, xb, zb)]
    return PauliElement(
        phase_power=power % 4,
        x=tuple(xa ^ xb for xa, xb in zip(a.x, b.x)),
        z=tuple(za ^ zb for za, zb in zip(a.z, b.z)),
    )


def symplectic_form(a: PauliElement, b: PauliElement) -> int:
    """0 when the elements commute, 1 when they anticommute."""
    _check_same_length(a, b)
    acc = 0
    for xa, za, xb, zb in zip(a.x, a.z, b.x, b.z):
        acc ^= (xa & zb) ^ (za & xb)
    return acc


def pauli_distance(a: PauliElement, b: PauliElement) -> float:
    """Exact {0, 1} distance: 0 iff a'b is central (identity up to phase)."""
    _check_same_length(a, b)
    rel = pauli_product(a.adjoint(), b)
    return 0.0 if rel.is_central else 1.0


@dataclass(frozen=True)
class PauliSubgroup:
    """Subgroup given by generators; the symplectic form decides commutation."""

    generators: tuple[PauliElement, ...]
    is_abelian: bool

    @property
    def num_qubits(self) -> int:
        return self.generators[0].num_qubits

    @classmethod
    def from_generators(cls, generators) -> "PauliSubgroup":
        gens = tuple(
            g if isinstance(g, PauliElement) else parse_pauli(g) for g in generators
        )
        if not gens:
            raise UnimetricError("subgroup needs at least one generator")
        n = gens[0].num_qubits
        for g in gens[1:]:
            if g.num_qubits != n:
                raise LengthMismatchError("generators act on different qubit counts")
        abelian = all(
            symplectic_form(gens[i], gens[j]) == 0
            for i in range(len(gens))
            for j in range(i + 1, len(gens))
        )
        return cls(generators=gens, is_abelian=abelian)


@dataclass(frozen=True)
class StabilizerFace:
    """A maximal face on which every generator acts as its character."""

    face: SubspaceFace
    characters: tuple[complex, ...]


@dataclass(frozen=True)
class StabilizerDecomposition:
    faces: tuple[StabilizerFace, ...]
    abelian: bool


def _split(g: PauliElement, blocks):
    """Each (characters, basis) block split into g's eigenspaces for i^p and
    -i^p, where g = i^p P; empty sides are dropped.

    The columns of a block have disjoint supports, and g permutes them up
    to phase, since (g v)[b xor x] = c[b] v[b].  So basis' g basis is
    monomial with exact zeros: column j's one entry is in the row of the
    column that owns the largest entry of g v_j, and every nonzero term
    of that entry's sum is equal.  A column g fixes goes to the side its
    entry is nearer; each pair of columns g swaps gives
    (v + conj(lam) g v)/sqrt(2) to each side lam, and the new columns have
    disjoint supports again.
    """
    n = g.num_qubits
    src = np.arange(2**n) ^ sum(xk << (n - 1 - q) for q, xk in enumerate(g.x))
    signs = reduce(np.kron, (np.array([1, 1 - 2 * zk]) for zk in g.z))
    y_count = sum(xk & zk for xk, zk in zip(g.x, g.z))
    c = 1j ** ((g.phase_power + y_count) % 4) * signs
    lams = (1j**g.phase_power, 1j ** ((g.phase_power + 2) % 4))
    for chars, basis in blocks:
        gb = (c[:, None] * basis)[src]
        rows = np.abs(gb).argmax(axis=0)
        partner = np.abs(basis[rows]).argmax(axis=1)
        cols = np.arange(basis.shape[1])
        fixed, lead = partner == cols, partner > cols
        term = basis[rows, cols].conj() * gb[rows, cols]
        for lam in lams:
            kept = basis[:, fixed & ((term * lam.conjugate()).real > 0)]
            paired = (basis[:, lead] + lam.conjugate() * gb[:, lead]) / np.sqrt(2.0)
            if kept.shape[1] or paired.shape[1]:
                yield chars + (lam,), np.hstack([kept, paired])


def stabilizer_subspace(k: PauliSubgroup) -> StabilizerDecomposition:
    """Joint-eigenspace faces of an abelian Pauli subgroup.

    Starting from the identity basis, every block is split by one
    generator at a time, and a character is the eigenvalue chosen, so it
    is exact.  A dependent generator, or one whose relation gives -I,
    leaves one side of each split empty.

    A non-abelian subgroup admits no nonzero common eigenvector (an
    anticommuting pair would need an eigenvalue of modulus 1 and its
    negative on the same vector), so the result is empty with the
    abelian flag cleared rather than an error.
    """
    if not k.is_abelian:
        return StabilizerDecomposition(faces=(), abelian=False)
    _check_dense(k.num_qubits)
    blocks = [((), np.eye(2**k.num_qubits, dtype=complex))]
    for g in k.generators:
        blocks = list(_split(g, blocks))
    faces = tuple(StabilizerFace(SubspaceFace(b), chars) for chars, b in blocks)
    return StabilizerDecomposition(faces=faces, abelian=True)
