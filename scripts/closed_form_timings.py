"""Per-call cost of the closed form: sup_distance and distinguishability
on Haar, saturated (covering arc of U'V at least pi, so d = 1),
unsaturated (arc 1.5, so d < 1) and degenerate pairs: V = e^{i phi} U
(phase) at every n, and a phase times one Pauli string against another
(pauli) at n = 4, 8 and 16.

Every case is timed once per round and the rounds interleave the cases,
so a slow spell of a shared host spreads over all of them.  Each line
gives a case's median and interquartile range of per-call microseconds
over the rounds, and the eigensolves (np.linalg.eigh calls) of one call.
"""

import functools
import math
import statistics
import timeit

import numpy as np

from unimetric.linalg import haar_unitaries
from unimetric.metrics import distinguishability, sup_distance

SIZES = (2, 3, 4, 8, 16, 64)
PAULI_SIZES = (4, 8, 16)
ROUNDS = 9
FUNCS = (sup_distance, distinguishability)
PAULIS = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def pauli_string(letters: str) -> np.ndarray:
    return functools.reduce(np.kron, [PAULIS[c] for c in letters]).astype(complex)


def pairs(n: int, rng: np.random.Generator) -> dict:
    u, v, q = haar_unitaries(rng, 3, n)
    # antipodal at n = 2; evenly spread, every gap below pi, from n = 3;
    # offset so that no two angles mirror each other across the real axis
    wide = 0.3 + np.arange(n) * (math.pi if n == 2 else 2.0 * math.pi / n)
    narrow = np.linspace(0.0, 1.5, n)

    def rotated(angles):
        return u @ (q * np.exp(1j * angles)) @ q.conj().T

    out = {
        "haar": (u, v),
        "saturated": (u, rotated(wide)),
        "unsaturated": (u, rotated(narrow)),
        "phase": (u, np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) * u),
    }
    if n in PAULI_SIZES:
        qubits = n.bit_length() - 1
        a, b = ("".join(rng.choice(list("IXYZ"), size=qubits)) for _ in range(2))
        while b == a:
            b = "".join(rng.choice(list("IXYZ"), size=qubits))
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        out["pauli"] = (phase * pauli_string(a), pauli_string(b))
    return out


def eigensolves(func, u, v) -> int:
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    np.linalg.eigh = counted
    try:
        func(u, v)
    finally:
        np.linalg.eigh = eigh
    return len(calls)


def main(seed: int = 0):
    rng = np.random.default_rng(seed)
    cases = [(n, kind, u, v) for n in SIZES for kind, (u, v) in pairs(n, rng).items()]
    samples = {(i, func): [] for i in range(len(cases)) for func in FUNCS}
    for _ in range(ROUNDS):
        for i, (n, _, u, v) in enumerate(cases):
            number = 40 if n <= 16 else 8
            for func in FUNCS:
                seconds = timeit.timeit(lambda: func(u, v), number=number)
                samples[i, func].append(1e6 * seconds / number)
    head = f"{'us':>9} {'IQR':>7} {'solves':>6}"
    print(f"{'':16} {'sup_distance':>24} {'distinguishability':>24}")
    print(f"{'n':>3} {'pair':>12} {head} {head}")
    for i, (n, kind, u, v) in enumerate(cases):
        cols = []
        for func in FUNCS:
            q1, med, q3 = statistics.quantiles(samples[i, func], n=4)
            cols.append(f"{med:>9.1f} {q3 - q1:>7.1f} {eigensolves(func, u, v):>6}")
        print(f"{n:>3} {kind:>12} {cols[0]} {cols[1]}")


if __name__ == "__main__":
    main()
