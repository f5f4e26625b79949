"""How fast the host is running, from a fixed reference pass.

On a shared virtual machine the same work can take 1.6x longer for
minutes at a time, and CPU time slows with wall time, so no per-run
statistic of raw durations is steady.  A fixed pass of numpy and plain
Python (no unimetric code) runs every ``INTERVAL_S`` between operations
and slows with the host.  Durations are scaled to a host on which the
pass takes ``NOMINAL_MS``: duration x NOMINAL_MS / local pass time.

Contention slows kinds of work unequally: over 2-3 s blocks a
LAPACK-only pass moved 0.4-1.25x as much as the workloads, a pure-Python
one 0.4-1.0x.  So the pass is made of the same kinds of work as the
workload it scales, from three parts: general eigensolves at n = 16,
small numpy calls at n = 4 and a plain Python loop.  ``spectral_small``,
bound by Python overhead around tiny solves, gets the last two;
``spectral_large``, bound by LAPACK, the first alone; ``subset_opt`` all
three in about equal time.  For ``cli_session`` (interpreter start,
imports, small solves) the eigensolve part alone gave the smaller
spread over 10 runs: 5.4% against 13.9% with all three parts.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

NOMINAL_MS = 10.0
INTERVAL_S = 0.2
WINDOW_S = 0.5  # passes within this distance of an operation set its scale


# (general eigensolves at n = 16, small numpy calls at n = 4, loop steps)
MIXED = (14, 60, 6000)
LAPACK = (40, 0, 0)
PYTHON = (0, 90, 9000)
PASSES = {"spectral_small": PYTHON, "spectral_large": LAPACK, "subset_opt": MIXED, "cli_session": LAPACK}


def _reference_inputs(parts):
    import numpy as np

    n_general, n_small, loop_steps = parts
    rng = np.random.default_rng(12345)
    general = rng.standard_normal((n_general, 16, 16)) + 1j * rng.standard_normal((n_general, 16, 16))
    small = rng.standard_normal((n_small, 4, 4)) + 1j * rng.standard_normal((n_small, 4, 4))
    return general, small + small.conj().transpose(0, 2, 1), loop_steps


def ref_pass_ms(inputs) -> float:
    """One fixed pass over ``_reference_inputs(...)``; its wall time in ms."""
    import numpy as np

    general, small, loop_steps = inputs
    t0 = time.perf_counter()
    for m in general:
        np.linalg.eigvals(m)
    for h in small:
        w, v = np.linalg.eigh(h)
        np.einsum("ij,ij->j", v.conj(), h @ v)
        float(np.abs(v[:, np.argsort(w)]).max())
    table: dict[int, float] = {}
    for i in range(loop_steps):
        table[i % 61] = table.get(i % 61, 0.0) + math.sqrt(i)
    sorted(table.values())
    return (time.perf_counter() - t0) * 1e3


class HostSpeed:
    """Reference passes taken during a run, and the scale they give each moment."""

    def __init__(self, workload: str):
        self.inputs = _reference_inputs(PASSES[workload])
        self.times: list[float] = []
        self.passes_ms: list[float] = []

    def sample(self) -> None:
        ms = ref_pass_ms(self.inputs)
        self.times.append(time.perf_counter())
        self.passes_ms.append(ms)

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, t: float) -> float:
        """NOMINAL_MS over the median pass time near moment ``t``."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if lo >= hi:  # no pass in the window: take the nearest one
            i = min(bisect.bisect_left(self.times, t), len(self.times) - 1)
            if i > 0 and t - self.times[i - 1] < self.times[i] - t:
                i -= 1
            lo, hi = i, i + 1
        return NOMINAL_MS / statistics.median(self.passes_ms[lo:hi])

    def median_ms(self) -> float:
        return statistics.median(self.passes_ms)

    def round_seconds(self, rounds) -> float:
        """Round time at nominal host speed, each operation at its median over rounds.

        ``rounds`` holds one (durations in seconds, midpoint times) pair
        of sequences per round.  Scaling each duration by the passes next to it
        takes out the host's slow stretches; the per-operation median then
        keeps a few slow rounds from setting the figure.
        """
        cols = zip(*([d * self.scale(t) for d, t in zip(*rnd)] for rnd in rounds))
        return sum(statistics.median(col) for col in cols)
