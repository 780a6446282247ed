"""Shared fixtures."""

import numpy as np
import pytest
import scipy.linalg


@pytest.fixture
def count_factorizations(monkeypatch):
    """Call the fixture's value to start counting np.linalg.svd,
    np.linalg.qr and scipy.linalg.schur calls; it returns the live counts."""
    def start():
        calls = {}
        for module, name in ((np.linalg, "svd"), (np.linalg, "qr"),
                             (scipy.linalg, "schur")):
            calls[name] = 0
            orig = getattr(module, name)

            def spy(*args, _orig=orig, _name=name, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        return calls
    return start
