"""Per-call cost of the closed form: best-of-5 timeit microseconds for
sup_distance and distinguishability on Haar, saturated (covering arc of
U'V at least pi, so d = 1) and unsaturated (arc 1.5, so d < 1) pairs."""

import math
import timeit

import numpy as np

from unimetric.linalg import haar_unitaries
from unimetric.metrics import distinguishability, sup_distance

SIZES = (2, 3, 4, 8, 16)
REPEATS = 5
NUMBER = 40


def pairs(n: int, rng: np.random.Generator) -> dict:
    u, v, q = haar_unitaries(rng, 3, n)
    # antipodal at n = 2; evenly spread, every gap below pi, from n = 3;
    # offset so that no two angles mirror each other across the real axis
    wide = 0.3 + np.arange(n) * (math.pi if n == 2 else 2.0 * math.pi / n)
    narrow = np.linspace(0.0, 1.5, n)

    def rotated(angles):
        return u @ (q * np.exp(1j * angles)) @ q.conj().T

    return {"haar": (u, v), "saturated": (u, rotated(wide)), "unsaturated": (u, rotated(narrow))}


def per_call_us(func, u, v) -> float:
    best = min(timeit.repeat(lambda: func(u, v), repeat=REPEATS, number=NUMBER))
    return 1e6 * best / NUMBER


def main(seed: int = 0):
    rng = np.random.default_rng(seed)
    print(f"{'n':>3} {'pair':>12} {'sup_distance us':>16} {'distinguishability us':>22}")
    for n in SIZES:
        for kind, (u, v) in pairs(n, rng).items():
            sup = per_call_us(sup_distance, u, v)
            dis = per_call_us(distinguishability, u, v)
            print(f"{n:>3} {kind:>12} {sup:>16.1f} {dis:>22.1f}")


if __name__ == "__main__":
    main()
