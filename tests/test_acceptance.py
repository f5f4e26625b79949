"""Full verification suite, one test per numbered check.

Every check pins its stated tolerance; the printed line mirrors the
``selftest`` table so failures carry the measured margin.
"""

import numpy as np
import pytest

from unimetric import acceptance
from unimetric.circlegeom import polygon_distance_to_origin
from unimetric.errors import OutOfRangeError
from unimetric.linalg import haar_unitaries, kron, validate_unitary
from unimetric.metrics import sup_distance

NAMES = acceptance.check_names()


@pytest.mark.parametrize("index", range(1, len(NAMES) + 1), ids=[f"{i:02d}_{n.replace(' ', '_')}" for i, n in enumerate(NAMES, 1)])
def test_acceptance_criterion(index):
    result = acceptance.run_checks([index], seed=0)[0]
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
