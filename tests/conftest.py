import numpy as np
import pytest

from unimetric.linalg import haar_unitaries


@pytest.fixture
def counted_eigensolves(monkeypatch):
    """List that gains one entry per np.linalg.eigh or eigvalsh call."""
    calls = []

    def counting(solver):
        def counted(*args, **kwargs):
            calls.append(1)
            return solver(*args, **kwargs)

        return counted

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    return calls


@pytest.fixture(scope="session")
def noisy_pairs():
    """Operands within the unitarity tolerance whose W = U'V is not exactly
    normal: a nearly mirrored eigenvalue pair e^{i}, e^{-1.00001 i}, whose
    first Hermitian parts nearly tie, and a seeded Haar pair at n = 16."""
    rng = np.random.default_rng(7)
    q = haar_unitaries(rng, 1, 3)[0]
    v = (q * np.exp(1j * np.array([1.0, -1.00001, 2.5]))) @ q.conj().T
    u = np.eye(3) + 1e-12 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    rng = np.random.default_rng([16, 17])
    a, b = haar_unitaries(rng, 2, 16)
    b = b + 1e-12 * (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    return [(u, v), (a, b)]
