"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def count_factorizations(monkeypatch):
    """Call the fixture's value to start counting np.linalg.svd and
    np.linalg.qr calls; it returns the live counts."""
    def start():
        calls = {"svd": 0, "qr": 0}
        for name in calls:
            orig = getattr(np.linalg, name)

            def spy(*args, _orig=orig, _name=name, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        return calls
    return start
