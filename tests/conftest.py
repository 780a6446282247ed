"""Shared fixtures."""

import numpy as np
import pytest
import scipy.linalg


class FactorizationCounts(dict):
    """Live call counts per factorization name; ``log`` lists every call as
    (name, shape of the matrix, compute_uv), compute_uv None but for svd."""

    def __init__(self, names):
        super().__init__((name, 0) for name in names)
        self.log = []

    def shapes(self, name, compute_uv=None):
        """Shapes of the matrices passed to name (for svd: with compute_uv
        as given, or any when None)."""
        return [shape for n, shape, uv in self.log
                if n == name and (compute_uv is None or uv == compute_uv)]


@pytest.fixture
def count_factorizations(monkeypatch):
    """Call the fixture's value to start counting np.linalg.svd,
    np.linalg.qr, np.linalg.eigvals and scipy.linalg.schur calls; it
    returns the live FactorizationCounts."""
    def start():
        spied = ((np.linalg, "svd"), (np.linalg, "qr"),
                 (np.linalg, "eigvals"), (scipy.linalg, "schur"))
        calls = FactorizationCounts(name for _, name in spied)
        for module, name in spied:
            orig = getattr(module, name)

            def spy(*args, _orig=orig, _name=name, **kwargs):
                calls[_name] += 1
                uv = kwargs.get("compute_uv", True) if _name == "svd" else None
                calls.log.append((_name, np.shape(args[0]), uv))
                return _orig(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        return calls
    return start
