"""Per-call cost of the closed form: sup_distance and distinguishability
on Haar, saturated (covering arc of U'V at least pi, so d = 1),
unsaturated (arc 1.5, so d < 1) and degenerate pairs: V = e^{i phi} U
(phase) at every n, and a phase times one Pauli string against another
(pauli) at n = 4, 8 and 16.

Every case is timed once per round and the rounds interleave the cases,
so a slow spell of a shared host spreads over all of them.  Each line
gives a case's median and interquartile range of per-call microseconds
over the rounds, and the eigensolves (np.linalg.eigh calls) of one call.

With ``--src`` given more than once, every tree's ``unimetric`` is
loaded into this one process, and each case alternates the trees call
batch by call batch, the first tree first in even rounds and last in odd
ones: an in-process A/B.  Each later tree's line then also gives the
case's median over the rounds of the first tree's time over its own (a
speed-up when above 1).

    python scripts/closed_form_timings.py [--rounds R] [--seed S] [--src DIR ...]
"""

import argparse
import functools
import importlib
import math
import pathlib
import statistics
import sys
import timeit

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIZES = (2, 3, 4, 8, 16, 64)
PAULI_SIZES = (4, 8, 16)
FUNCS = ("sup_distance", "distinguishability")
PAULIS = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def pauli_string(letters: str) -> np.ndarray:
    return functools.reduce(np.kron, [PAULIS[c] for c in letters]).astype(complex)


def pairs(n: int, rng: np.random.Generator, haar_unitaries) -> dict:
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


def load_tree(src: str) -> dict:
    """Every ``unimetric`` module that importing its metrics from ``src``
    loads, by name; the previous tree's modules leave ``sys.modules``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "unimetric"]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        importlib.import_module("unimetric.metrics")
    finally:
        sys.path.remove(src)
    return {m: mod for m, mod in sys.modules.items() if m.split(".")[0] == "unimetric"}


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--src", action="append", help="a directory to import unimetric from")
    opts = parser.parse_args(argv)
    trees = [load_tree(src) for src in opts.src or [str(ROOT / "src")]]
    funcs = [[getattr(t["unimetric.metrics"], f) for f in FUNCS] for t in trees]
    rng = np.random.default_rng(opts.seed)
    haar_unitaries = trees[0]["unimetric.linalg"].haar_unitaries
    cases = [
        (n, kind, u, v) for n in SIZES for kind, (u, v) in pairs(n, rng, haar_unitaries).items()
    ]
    samples = {}
    for r in range(opts.rounds):
        order = range(len(trees)) if r % 2 == 0 else range(len(trees) - 1, -1, -1)
        for i, (n, _, u, v) in enumerate(cases):
            number = 40 if n <= 16 else 8
            for j in range(len(FUNCS)):
                for t in order:
                    sys.modules.update(trees[t])
                    func = funcs[t][j]
                    seconds = timeit.timeit(lambda: func(u, v), number=number)
                    samples.setdefault((i, j, t), []).append(1e6 * seconds / number)
    for t, src in enumerate(opts.src or []):
        print(f"tree {t}: {src}")
    head = f"{'us':>9} {'IQR':>7} {'solves':>6}" + (f" {'x tree 0':>8}" if len(trees) > 1 else "")
    print(f"{'':21} {FUNCS[0]:>{len(head)}} {FUNCS[1]:>{len(head)}}")
    print(f"{'n':>3} {'pair':>12} {'tree':>4} {head} {head}")
    for i, (n, kind, u, v) in enumerate(cases):
        for t in range(len(trees)):
            sys.modules.update(trees[t])
            cols = []
            for j in range(len(FUNCS)):
                times = samples[i, j, t]
                q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
                col = f"{med:>9.1f} {q3 - q1:>7.1f} {eigensolves(funcs[t][j], u, v):>6}"
                if t > 0:
                    ratio = statistics.median(a / b for a, b in zip(samples[i, j, 0], times))
                    col += f" {ratio:>8.3f}"
                elif len(trees) > 1:
                    col += f" {'':>8}"
                cols.append(col)
            print(f"{n:>3} {kind:>12} {t:>4} {cols[0]} {cols[1]}")


if __name__ == "__main__":
    main()
