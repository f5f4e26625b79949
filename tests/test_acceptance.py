"""Full verification suite, one test per numbered check.

Every check pins its stated tolerance; the printed line mirrors the
``selftest`` table so failures carry the measured margin.
"""

import dataclasses
import math

import numpy as np
import pytest

from unimetric import acceptance
from unimetric.circlegeom import polygon_distance_to_origin
from unimetric.errors import OutOfRangeError
from unimetric.linalg import haar_unitaries, kron, validate_unitary
from unimetric.metrics import sup_distance

NAMES = acceptance.check_names()
IDS = [f"{i:02d}_{n.replace(' ', '_')}" for i, n in enumerate(NAMES, 1)]

# every check's (comparison, bound) pairs, in order; a bound may not loosen unnoticed
BOUNDS = {
    1: [("<=", 1e-12)],
    2: [("<=", 1e-12)] * 3,
    3: [("<=", 1e-9)],
    4: [("<=", 1e-6)],
    5: [("<=", 1e-9), (">=", 10), (">=", 10)],
    6: [("<=", 1e-9)],
    7: [("<=", 0)] + [("<=", 1e-9)] * 4,
    8: [("<=", 0), ("<=", 0), ("<=", 1e-8), ("<=", 1e-10)],
    9: [("<=", 0), ("<=", 1e-10)],
    10: [("<=", 0)] * 3 + [(">=", 4), (">=", 1.0 - 1e-10), ("<=", 1e-10), ("<=", 0)],
    11: [("<=", 1e-6), ("<=", 2e-3), ("<=", 2e-3), (">=", 15), (">", 1e-3)],
    12: [("<=", 1e-10), ("<=", 1e-12), ("<=", 1609), ("<=", 0.1)],
    13: [("<=", 0), ("<=", 1e-10)],
}


@pytest.fixture(scope="module")
def seed0_results():
    return {r.index: r for r in acceptance.run_checks(seed=0)}


@pytest.mark.parametrize("index", range(1, len(NAMES) + 1), ids=IDS)
def test_acceptance_criterion(index, seed0_results):
    result = seed0_results[index]
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.index:2d} {result.name} ({result.seconds:.2f}s): {result.detail}")
    assert result.passed, f"criterion {index} ({result.name}): {result.detail}"


def test_negative_seed_raises():
    with pytest.raises(OutOfRangeError, match="seed"):
        acceptance.run_checks(seed=-1)


def test_oracles_make_no_eigensolve(counted_eigensolves):
    # the sphere descent stays independent of the closed form's kernel
    rng = np.random.default_rng(5)
    u, v = haar_unitaries(rng, 2, 4)
    y, z = haar_unitaries(rng, 2, 2)
    closed = sup_distance(u, v).value
    m1, _ = polygon_distance_to_origin(validate_unitary(y).eigen_angles)
    m2, _ = polygon_distance_to_origin(validate_unitary(z).eigen_angles)
    counted_eigensolves.clear()
    optimized = acceptance._optimized_distance(u.conj().T @ v, rng)
    product = acceptance._polished_grid_oracle(kron(y, z))
    assert counted_eigensolves == []
    assert optimized == pytest.approx(closed, abs=1e-12)
    assert product == pytest.approx(m1 * m2, abs=1e-12)


@pytest.mark.parametrize("index", range(1, len(NAMES) + 1), ids=IDS)
def test_bounds_are_pinned(index, seed0_results):
    margins = seed0_results[index].margins
    assert [(m.op, m.bound) for m in margins] == BOUNDS[index]
    assert len({m.label for m in margins}) == len(margins)


def test_failing_margin_is_named_and_the_rest_still_reported(monkeypatch):
    # every pair read as indistinguishable: the wide arcs miss, and the
    # check still runs to its end and reports the narrow arcs' bound error
    real = acceptance.distinguishability
    monkeypatch.setattr(
        acceptance,
        "distinguishability",
        lambda u, v: dataclasses.replace(real(u, v), distinguishable=False),
    )
    result = acceptance.run_checks([8], seed=0)[0]
    assert not result.passed
    missed = [m for m in result.margins if not m.met]
    assert [(m.label, m.measured) for m in missed] == [("wide arcs read as indistinguishable", 50)]
    assert len(result.margins) == len(BOUNDS[8])
    assert "wide arcs read as indistinguishable = 50 <= 0 (missed)" in result.detail
    assert "bound error over 50 narrow arcs" in result.detail


def test_nan_meets_no_bound():
    for op in ("<=", ">=", ">"):
        assert not acceptance.Margin("x", math.nan, op, 0.0).met


@pytest.mark.parametrize("indices", [[0], [-12], [14], [1, 14]])
def test_out_of_range_index_raises(indices):
    with pytest.raises(OutOfRangeError, match="1..13"):
        acceptance.run_checks(indices)
