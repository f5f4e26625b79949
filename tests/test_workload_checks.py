"""The benchmark's output checks on the library workloads' first rounds.

Builds the seed 1-3 rounds of ``spectral_small`` and ``subset_opt`` with
``perfbench/workloads.py``, calls every operation once and runs its
check from ``perfbench/checks.py``; an operation that names an expected
error must raise it.  The files under ``perfbench/`` are only read.
"""

import pathlib
import sys
from types import SimpleNamespace

import pytest

import unimetric.errors
import unimetric.metrics
import unimetric.subsets

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

PROGRAM = SimpleNamespace(metrics=unimetric.metrics, subsets=unimetric.subsets)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["spectral_small", "subset_opt"])
def test_round_passes_its_checks(workload, seed):
    ops = workloads.build(workload, seed, PROGRAM)
    assert ops
    for op in ops:
        fn = getattr(getattr(PROGRAM, op.module), op.func)
        if op.expect_error is not None:
            with pytest.raises(getattr(unimetric.errors, op.expect_error)):
                fn(*op.args)
        else:
            op.check(fn(*op.args))
