"""Per-call cost of the numerical range: median over seeded matrices of
each matrix's best-of-5 timeit microseconds.

* numrange_origin_distance at n = 3, 4, 8, 16, 32 and 64 on Ginibre
  matrices shifted by an attained value (0 lies in F: the zero case) and
  shifted so that F lies at distance 0.5 from 0 (the positive case); from
  n = 16 each repeat times fewer calls, as one call takes longer;
* face_distance on the face shapes of perfbench's subset_opt workload:
  3-dimensional faces at n = 8, random (Haar U, V and basis) or spanned by
  eigenvectors of U'V whose three angles cover a semicircle or not;
* hit counts by rank: for the zero-case matrices and the random faces'
  compressions, how many calls ended on the r-th principal 2x2 pair tried
  (no eigensolve) and how many ran the bracket.  Trees without the
  principal step print only the bracket's count.
"""

import collections
import math
import statistics
import timeit

import numpy as np

from unimetric import numrange
from unimetric.linalg import haar_unitaries
from unimetric.numrange import numrange_origin_distance
from unimetric.subsets import face_distance

SIZES = (3, 4, 8, 16, 32, 64)
MATRICES = 12
REPEATS = 5
NUMBER = 10
FACE_DIM, FACE_AMBIENT = 3, 8


def ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def zero_case(rng: np.random.Generator, n: int) -> np.ndarray:
    """M - <psi|M|psi> I: 0 is the point of psi."""
    m = ginibre(rng, n)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi /= np.linalg.norm(psi)
    return m - complex(psi.conj() @ m @ psi) * np.eye(n)


def positive_case(rng: np.random.Generator, n: int, d: float = 0.5) -> np.ndarray:
    """Shift of a Ginibre matrix whose range lies at distance d from 0: the
    support point in direction phi moves to d e^{-i phi}."""
    m = ginibre(rng, n)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    herm = (np.exp(1j * phi) * m + np.exp(-1j * phi) * m.conj().T) / 2
    psi = np.linalg.eigh(herm)[1][:, 0]
    z = complex(psi.conj() @ m @ psi)
    return m - (z - d * np.exp(-1j * phi)) * np.eye(n)


def faces(rng: np.random.Generator, kind: str) -> tuple:
    """(U, V, basis) of one subset_opt face."""
    if kind == "random":
        u, v, q = haar_unitaries(rng, 3, FACE_AMBIENT)
        return u, v, q[:, :FACE_DIM]
    spread = 2.0 * math.pi * np.arange(FACE_DIM) / FACE_DIM
    face_angles = spread if kind == "eigenvector wide" else np.linspace(0.0, 1.5, FACE_DIM)
    rest = rng.uniform(0.0, 2.0 * math.pi, FACE_AMBIENT - FACE_DIM)
    u, q = haar_unitaries(rng, 2, FACE_AMBIENT)
    v = u @ (q * np.exp(1j * np.concatenate([face_angles, rest]))) @ q.conj().T
    return u, v, q[:, :FACE_DIM]


def median_us(calls, number: int = NUMBER) -> float:
    best = [min(timeit.repeat(call, repeat=REPEATS, number=number)) / number for call in calls]
    return 1e6 * statistics.median(best)


def hit_ranks(matrices) -> collections.Counter:
    """Rank of the principal pair each call ended on, or "bracket"."""
    frames, solves = [], []
    bloch_frame, eigh = getattr(numrange, "_bloch_frame", None), np.linalg.eigh
    if bloch_frame is not None:
        numrange._bloch_frame = lambda *c: frames.append(1) or bloch_frame(*c)
    np.linalg.eigh = lambda *a, **k: solves.append(1) or eigh(*a, **k)
    ranks = collections.Counter()
    try:
        for m in matrices:
            frames.clear()
            solves.clear()
            numrange_origin_distance(m)
            ranks["bracket" if solves else f"rank {len(frames)}"] += 1
    finally:
        np.linalg.eigh = eigh
        if bloch_frame is not None:
            numrange._bloch_frame = bloch_frame
    return ranks


def main(seed: int = 0):
    rng = np.random.default_rng(seed)
    print(f"{'call':>34} {'median us':>10}")
    zeros = []
    for n in SIZES:
        for case, draw in (("zero", zero_case), ("positive", positive_case)):
            ms = [draw(rng, n) for _ in range(MATRICES)]
            if case == "zero":
                zeros += ms
            us = median_us([lambda m=m: numrange_origin_distance(m) for m in ms], NUMBER * 8 // max(n, 8))
            print(f"{f'numrange n={n} {case}':>34} {us:>10.1f}")
    compressions = []
    for kind in ("random", "eigenvector wide", "eigenvector narrow"):
        shapes = [faces(rng, kind) for _ in range(MATRICES)]
        if kind == "random":
            compressions = [q.conj().T @ u.conj().T @ v @ q for u, v, q in shapes]
        us = median_us([lambda s=s: face_distance(*s) for s in shapes])
        print(f"{f'face_distance {kind}':>34} {us:>10.1f}")
    for label, ms in (("zero-case matrices", zeros), ("random faces", compressions)):
        ranks = hit_ranks(ms)
        print(f"hits by rank, {label} ({len(ms)}): " + ", ".join(f"{k} {v}" for k, v in sorted(ranks.items())))


if __name__ == "__main__":
    main()
