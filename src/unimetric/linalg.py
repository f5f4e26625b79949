"""Dense complex linear algebra underneath the unitary-group metrics.

Carriers are plain ``numpy.ndarray`` complex matrices.  The two validated
wrapper types are :class:`UnitaryOperator` (matrix plus cached spectral
decomposition) and :class:`DensityState` (PSD, trace one, with an optional
pure-state vector).  Everything here is a pure function on immutable
values and safe for concurrent use.

One kernel finds the joint eigenbasis of commuting unitaries, for the
spectrum of one (W) and the null space of a family: each is split as
W = H1 + i H2 with H1 = (W + W')/2 and H2 = (W - W')/(2i).  Operator by
operator, H1 is diagonalized with a Hermitian solver on each block of
equal eigenvalues left so far (the whole space for the first) and split
coarsely, H2 is re-diagonalized on each block, and blocks whose H1
eigenvalues spread are split by H1 again.  This keeps every solve
well-conditioned and avoids a general nonsymmetric eigensolver
(Bunse-Gerstner, Byers & Mehrmann, SIMAX 14, 1993).  A block on which a
part is already scalar, to within ``_CLUSTER_TOL``/2 over the block's
size, is not solved, since no solve could split it: W is then
eigensolved once whenever its H1 alone separates its distinct
eigenvalues, repeated ones included.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InternalCheckError,
    InvalidPError,
    MalformedInputError,
    NotDensityError,
    NotSquareError,
    NotUnitaryError,
    OutOfRangeError,
)

TAU = 2.0 * math.pi

UNITARITY_TOL = 1e-10
DENSITY_TOL = 1e-10
EIGEN_TOL = 1e-8
# Hermitian-part eigenvalues closer than this are taken as equal
_CLUSTER_TOL = 1e-8
# first split of each operator's first Hermitian part; see _joint_eigenbasis
_COARSE_TOL = 1e-6


def as_matrix(m) -> np.ndarray:
    """Coerce input to a finite, nonempty, 2-d complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise NotSquareError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise EmptyInputError(f"matrix has no entries, shape {a.shape}")
    if not np.isfinite(a).all():
        raise MalformedInputError("matrix entries must be finite")
    return a


def reduce_angles(a) -> np.ndarray:
    """Angles reduced to [0, 2pi); np.mod alone rounds a tiny negative angle up to 2pi."""
    a = np.mod(a, TAU)
    return np.where(a == TAU, 0.0, a)


def _freeze(a: np.ndarray) -> np.ndarray:
    """Read-only C-contiguous copy; the caller's array stays writeable."""
    a = np.array(a, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class UnitaryOperator:
    """A validated unitary with its spectral decomposition.

    ``eigen_angles`` are the eigenvalue phases in [0, 2pi), sorted
    ascending; column k of ``eigen_vectors`` is a unit eigenvector for
    the eigenvalue exp(i * eigen_angles[k]).
    """

    matrix: np.ndarray
    eigen_angles: np.ndarray
    eigen_vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.exp(1j * self.eigen_angles)


@dataclass(frozen=True)
class DensityState:
    """Positive semidefinite, trace-one state; ``pure_vector`` set when rank 1."""

    matrix: np.ndarray
    pure_vector: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, m) -> "DensityState":
        a = as_matrix(m)
        if a.shape[0] != a.shape[1]:
            raise NotSquareError(f"density matrix must be square, got {a.shape}")
        if np.abs(a - a.conj().T).max() > DENSITY_TOL:
            raise NotDensityError("matrix is not Hermitian within tolerance")
        tr = a.trace()
        if abs(tr - 1.0) > DENSITY_TOL:
            raise NotDensityError(f"trace is {tr:.12g}, expected 1")
        vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
        if vals.min() < -DENSITY_TOL:
            raise NotDensityError(f"minimum eigenvalue {vals.min():.3e} < -{DENSITY_TOL:.1e}")
        pure = None
        if vals[-1] >= 1.0 - DENSITY_TOL:
            pure = _freeze(vecs[:, -1])
        return cls(matrix=_freeze(a), pure_vector=pure)

    @classmethod
    def pure(cls, vector) -> "DensityState":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        if not np.isfinite(v).all():
            raise MalformedInputError("pure-state vector entries must be finite")
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > DENSITY_TOL:
            raise NotDensityError(f"pure-state vector has norm {nrm:.12g}")
        return cls(matrix=_freeze(np.outer(v, v.conj())), pure_vector=_freeze(v))


def runs(sorted_values, tol: float, period: float | None = None) -> list[list[int]]:
    """Group ascending values into runs of ascending indices.

    A new run starts wherever a value exceeds the one before it by more
    than ``tol``.  With a ``period`` the values lie on a circle, and the
    last run joins the first when the first value plus the period lies
    within ``tol`` of the last value.
    """
    # plain floats: most arrays here are short, and numpy costs more than the loop
    v = np.asarray(sorted_values).tolist()
    starts = [i for i in range(len(v)) if i == 0 or v[i] - v[i - 1] > tol]
    out = [list(range(a, b)) for a, b in zip(starts, starts[1:] + [len(v)])]
    if period is not None and len(out) > 1 and v[0] + period - v[-1] <= tol:
        out[0] += out.pop()
    return out


def _hermitian_parts(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H1 = (W + W')/2 and H2 = (W - W')/2i, so that W = H1 + i H2."""
    return (w + w.conj().T) / 2, (w - w.conj().T) / 2j


def _scalar_spread(comp: np.ndarray) -> np.ndarray:
    """size * max|C - cI| for each C of a (B, size, size) stack of Hermitian
    matrices, c the mean of C's diagonal."""
    size = comp.shape[-1]
    mean = np.einsum("bii->b", comp).real / size
    return size * np.abs(comp - mean[:, None, None] * np.eye(size)).max(axis=(1, 2))


def _split(
    basis: np.ndarray, blocks: list[list[int]], h: np.ndarray, tol: float
) -> tuple[list, set]:
    """Re-diagonalize h on every block of more than one column, in place in
    ``basis`` (one batched eigensolve per block size), and split each block
    into runs of its eigenvalues at ``tol``.  Also returns the columns of
    the runs whose eigenvalues spread beyond ``_CLUSTER_TOL``.

    A block on which the compression C of h is already scalar, with
    size * max|C - cI| <= ``_CLUSTER_TOL``/2 for c the mean of its
    diagonal, is not solved: every eigenvalue lies within
    ``_CLUSTER_TOL``/2 of c, so the solve would return one run and mark
    nothing uneven, and the block keeps its columns, already eigenvectors
    to within that bound.  The rule reads ``_CLUSTER_TOL`` for every
    ``tol``, so a skip never hides a spread that a resplit needs.
    """
    split, uneven = {}, set()
    for size in {len(cols) for cols in blocks} - {1}:
        group = [cols for cols in blocks if len(cols) == size]
        sub = basis[:, group].transpose(1, 0, 2)
        comp = sub.conj().transpose(0, 2, 1) @ h @ sub
        comp = (comp + comp.conj().transpose(0, 2, 1)) / 2
        keep = np.flatnonzero(_scalar_spread(comp) > _CLUSTER_TOL / 2)
        if keep.size == 0:
            continue
        group = [group[i] for i in keep]
        vals, vecs = np.linalg.eigh(comp[keep])
        basis[:, group] = (sub[keep] @ vecs).transpose(1, 0, 2)
        for cols, v in zip(group, vals):
            parts = runs(v, tol)
            split[cols[0]] = [[cols[i] for i in run] for run in parts]
            uneven.update(
                cols[i]
                for run in parts
                if len(run) > 1 and v[run[-1]] - v[run[0]] > _CLUSTER_TOL
                for i in run
            )
    return [part for cols in blocks for part in split.get(cols[0], [cols])], uneven


def _joint_eigenbasis(operators) -> tuple[np.ndarray, list[list[int]]]:
    """Joint eigenbasis of commuting (near-)unitaries, and its blocks: runs
    of adjacent columns, ascending, on which every operator is scalar.

    Each operator's first Hermitian part splits the blocks so far at
    ``_COARSE_TOL`` and its second at ``_CLUSTER_TOL``.  Eigenvalues
    e^{i theta} and e^{-i(theta + g)} have first-part values about g
    apart, and eigenvectors that a split there separates carry errors of
    about eps / g; kept together, the second part separates them well.
    The second part is formed only while a block has more than one
    column, and only the blocks whose first-part values spread beyond
    ``_CLUSTER_TOL`` are split by the first part again.  When every gap
    of the first operator's first-part spectrum exceeds ``_COARSE_TOL``,
    that one eigensolve is the answer.  No block is solved on which a
    part is already scalar (see :func:`_split`), so a W with repeated
    eigenvalues whose first-part values differ (a multiple of a Pauli
    string, e^{i phi} I) costs one eigensolve too.  The first operator's
    whole space is such a block when its first part is scalar (a W with
    spectrum {+i, -i}): the second part then splits it in the one solve.
    """
    basis = None
    for w in operators:
        # (W + W')/2 entry for entry, up to the sign of a zero
        h1 = w + w.conj().T
        h1 *= 0.5
        if basis is None:
            n = len(h1)
            # the skip rule of _split on the whole space, after cheaper necessary
            # conditions: a scalar H1 has its diagonal within _CLUSTER_TOL/2n of
            # c and the rest of its first row within _CLUSTER_TOL/2n of 0, so a
            # generic W pays one compare and a Pauli string a few vector ones
            if (
                n * abs(h1[0, 0] - h1[-1, -1]) <= _CLUSTER_TOL
                and n * np.abs(h1[0, 1:]).max(initial=0.0) <= _CLUSTER_TOL / 2
                and n * np.ptp(h1.diagonal().real) <= _CLUSTER_TOL
                and _scalar_spread(h1[None])[0] <= _CLUSTER_TOL / 2
            ):
                basis, blocks, uneven = np.eye(n, dtype=h1.dtype), [list(range(n))], set()
            else:
                vals, basis = np.linalg.eigh(h1)
                if (np.diff(vals) > _COARSE_TOL).all():
                    return basis, [[i] for i in range(n)]
                blocks = runs(vals, _COARSE_TOL)
                uneven = {
                    c
                    for cols in blocks
                    if len(cols) > 1 and vals[cols[-1]] - vals[cols[0]] > _CLUSTER_TOL
                    for c in cols
                }
        else:
            blocks, uneven = _split(basis, blocks, h1, _COARSE_TOL)
        if len(blocks) == len(basis):
            continue  # every block is one column: H2 has nothing to split
        blocks, _ = _split(basis, blocks, (w - w.conj().T) / 2j, _CLUSTER_TOL)
        if uneven:
            even = [cols for cols in blocks if cols[0] not in uneven]
            resplit = [cols for cols in blocks if cols[0] in uneven]
            blocks = sorted(even + _split(basis, resplit, h1, _CLUSTER_TOL)[0])
    return basis, blocks


def gram_deviation(gram: np.ndarray, c: float = 1.0) -> float:
    """max |G - c I| for a square G, with c subtracted from G's diagonal in place."""
    gram.flat[:: gram.shape[0] + 1] -= c
    return float(np.abs(gram).max())


def unitary_matrix(u) -> np.ndarray:
    """Matrix of a UnitaryOperator as is, or a raw matrix checked for unitarity.

    The check is max |U^dag U - I| <= ``UNITARITY_TOL``; no eigensolve.

    Raises
    ------
    NotSquareError
        If the input is not square.
    NotUnitaryError
        If max |U^dag U - I| exceeds ``UNITARITY_TOL``.
    """
    if isinstance(u, UnitaryOperator):
        return u.matrix
    a = as_matrix(u)
    n, k = a.shape
    if n != k:
        raise NotSquareError(f"unitary must be square, got {a.shape}")
    dev = gram_deviation(a.conj().T @ a)
    if dev > UNITARITY_TOL:
        raise NotUnitaryError(dev, UNITARITY_TOL)
    return a


def _polar_step(a: np.ndarray) -> np.ndarray:
    """A (3I - A'A) / 2, one Newton-Schulz step towards the unitary polar
    factor of a nearly unitary A: its deviation from unitary, and so from
    normal, is second order in A's."""
    return a @ (3.0 * np.eye(a.shape[0]) - a.conj().T @ a) / 2.0


def _eigen_fit(a: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The kernel's basis for W, A's Rayleigh angles on it, and the largest
    residual |A v - e^{i theta} v|; the one product A V gives both."""
    vecs, _ = _joint_eigenbasis([w])
    av = a @ vecs
    ray = np.einsum("ij,ij->j", vecs.conj(), av)
    angles = reduce_angles(np.arctan2(ray.imag, ray.real))
    av -= vecs * np.exp(1j * angles)
    return vecs, angles, float(np.linalg.norm(av, axis=0).max())


def checked_eigen_fit(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of a matrix known to be unitary and their angles in
    [0, 2pi), unsorted; checks the eigen-residual.

    The angles are those of the Rayleigh quotients v'Av on the kernel's
    basis.  A that is not exactly normal can mix the eigenvectors of
    e^{i theta} and e^{-i(theta + g)}, whose first Hermitian parts nearly
    tie; a residual above ``EIGEN_TOL`` then retries once on the basis of
    :func:`_polar_step`, still checked against A itself.
    """
    vecs, angles, resid = _eigen_fit(a, a)
    if resid > EIGEN_TOL:
        vecs, angles, resid = _eigen_fit(a, _polar_step(a))
        if resid > EIGEN_TOL:
            raise InternalCheckError("eigendecomposition residual", resid, EIGEN_TOL)
    return vecs, angles


def decompose_unitary(a: np.ndarray) -> UnitaryOperator:
    """:func:`checked_eigen_fit` of A, sorted by angle and frozen with A."""
    vecs, angles = checked_eigen_fit(a)
    order = np.argsort(angles, kind="stable")
    return UnitaryOperator(
        matrix=_freeze(a),
        eigen_angles=_freeze(angles[order]),
        eigen_vectors=_freeze(vecs[:, order]),
    )


def validate_unitary(m) -> UnitaryOperator:
    """Check unitarity as :func:`unitary_matrix` does, then decompose."""
    return decompose_unitary(unitary_matrix(m))


def schatten_norm(m, p: float) -> float:
    """Schatten p-norm: p-th root of the sum of p-th powers of singular values.

    ``p = inf`` returns the largest singular value (operator norm).
    """
    if not (p == math.inf or p >= 1.0):
        raise InvalidPError(f"p must be >= 1 or inf, got {p}")
    a = as_matrix(m)
    sv = np.linalg.svd(a, compute_uv=False)
    if p == math.inf:
        return float(sv.max())
    return float(np.sum(sv**p) ** (1.0 / p))


def _density_matrix(r) -> np.ndarray:
    if isinstance(r, DensityState):
        return r.matrix
    return DensityState.from_matrix(r).matrix


def trace_distance_matrices(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the Hermitian difference, clamped to [0, 1].

    Internal fast path: assumes both arguments are already valid density
    matrices, so the difference is Hermitian and eigenvalues suffice.
    """
    diff = a - b
    diff = (diff + diff.conj().T) / 2
    vals = np.linalg.eigvalsh(diff)
    return float(min(1.0, max(0.0, 0.5 * np.abs(vals).sum())))


def trace_distance(r1, r2) -> float:
    """Trace distance between two density states, in [0, 1]."""
    a = _density_matrix(r1)
    b = _density_matrix(r2)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimensions differ: {a.shape} vs {b.shape}")
    return trace_distance_matrices(a, b)


def kron(a, b) -> np.ndarray:
    """Kronecker product, row-major block layout."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def haar_unitaries(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` Haar-distributed n x n unitaries stacked as (count, n, n).

    QR of complex Ginibre matrices with the R diagonal phase-fixed to be
    positive makes the QR map measure-preserving (Mezzadri, Notices AMS 54,
    2007).  Q does not depend on a positive scale of Z, so Z has no 1/sqrt(2).
    """
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(z)
    d = np.einsum("bii->bi", r)
    return q * (d / np.abs(d))[:, None, :]


def haar_random_unitary(n: int, seed: int | None = None) -> UnitaryOperator:
    """One Haar-distributed unitary, deterministic for a fixed seed."""
    if n < 1:
        raise OutOfRangeError(f"dimension must be >= 1, got {n}")
    return validate_unitary(haar_unitaries(np.random.default_rng(seed), 1, n)[0])


def haar_random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vector with Haar (rotation-invariant) distribution."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# JSON interchange
#
# Matrix files are {"rows": r, "cols": c, "data": [[re, im], ...]} with the
# entries flattened row-major.  Python floats round-trip exactly through
# repr, so write/read is bit-exact.
# ---------------------------------------------------------------------------


def matrix_to_json(m) -> dict:
    a = as_matrix(m)
    rows, cols = a.shape
    flat = a.reshape(-1)
    return {
        "rows": int(rows),
        "cols": int(cols),
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows = operator.index(obj["rows"])
        cols = operator.index(obj["cols"])
        flat = np.array([complex(re, im) for re, im in obj["data"]], dtype=complex)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInputError(f"malformed matrix object: {exc}") from exc
    if rows < 0 or cols < 0:
        raise MalformedInputError(f"negative matrix shape ({rows}, {cols})")
    if flat.size != rows * cols:
        raise MalformedInputError(
            f"data length {flat.size} does not match rows*cols = {rows * cols}"
        )
    return as_matrix(flat.reshape(rows, cols))


def vector_to_json(v) -> dict:
    """A column vector in matrix format (rows = n, cols = 1)."""
    arr = np.asarray(v, dtype=complex).reshape(-1, 1)
    return matrix_to_json(arr)


def save_matrix(path, m) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(m), fh)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))
