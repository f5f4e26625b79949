import numpy as np
import pytest


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
