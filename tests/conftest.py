"""Shared fixtures."""

import tracemalloc

import numpy as np
import pytest

import detline.signature as signature_mod
from detline import ChiralityOp, CochainComplex


def normal_matrix(spectrum, seed=3):
    """Q diag(spectrum) Q^H for a random unitary Q: its singular values are
    the moduli of spectrum."""
    n = len(spectrum)
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    return q @ np.diag(np.asarray(spectrum, dtype=complex)) @ q.conj().T


# 200 elementary d = 1 blocks: a complex with two 200 x 200 degrees, large
# enough that its matrices dominate the memory a call traces
BIG_PROFILE = {"blocks": [(0, complex(1 + 0.1 * k, 0.3)) for k in range(200)],
               "harmonic": []}
BIG_UNIT = 200 * 200 * 16  # bytes of one 200 x 200 complex matrix


def fresh(c: CochainComplex) -> CochainComplex:
    """A new complex on c's differentials.  It keeps no cohomology frame
    yet, so its first cohomology_frame call factorizes, under whatever spy
    or mutant is in place."""
    return CochainComplex(c.dims, c.partial)


def traced_peak(fn, *args) -> float:
    """Peak of the memory that tracemalloc traces while fn(*args) runs, in
    units of one 200 x 200 complex matrix (BIG_UNIT)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / BIG_UNIT
    finally:
        tracemalloc.stop()


class FactorizationCounts(dict):
    """Live call counts per spied name; ``log`` lists every call as
    (name, shape of the matrix, compute_uv), compute_uv None but for svd.
    count_validations, and the "restrict" entries of count_factorizations,
    log a tuple of matrix shapes in place of the shape."""

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
    np.linalg.qr, np.linalg.cholesky, np.linalg.eigvals and proper spectral
    splits (calls of
    the disk-function kernel signature._disk_split, under the name "disk",
    with the B^2 block as the logged matrix); it returns the live
    FactorizationCounts.  Calls of signature._restrict are logged, not
    counted, under the name "restrict" with the shapes (basis, image)."""
    def start():
        spied = ((np.linalg, "svd", "svd"), (np.linalg, "qr", "qr"),
                 (np.linalg, "cholesky", "cholesky"),
                 (np.linalg, "eigvals", "eigvals"),
                 (signature_mod, "_disk_split", "disk"))
        calls = FactorizationCounts(name for _, _, name in spied)
        for module, attr, name in spied:
            orig = getattr(module, attr)

            def spy(*args, _orig=orig, _name=name, **kwargs):
                calls[_name] += 1
                uv = kwargs.get("compute_uv", True) if _name == "svd" else None
                calls.log.append((_name, np.shape(args[0]), uv))
                return _orig(*args, **kwargs)
            monkeypatch.setattr(module, attr, spy)
        orig_restrict = signature_mod._restrict

        def restrict_spy(basis, image, what):
            calls.log.append(("restrict", (basis.shape, image.shape), None))
            return orig_restrict(basis, image, what)
        monkeypatch.setattr(signature_mod, "_restrict", restrict_spy)
        return calls
    return start


@pytest.fixture
def count_validations(monkeypatch):
    """Call the fixture's value to start counting the structural checks: the
    d.d check (CochainComplex.differential_residual) and the Gamma^2 check
    (ChiralityOp construction).  It returns the live FactorizationCounts
    under the names "d.d" and "gamma^2"; the log holds, per check, the
    shapes of the matrices it saw."""
    def start():
        calls = FactorizationCounts(("d.d", "gamma^2"))
        spied = (("d.d", CochainComplex, "differential_residual", "partial"),
                 ("gamma^2", ChiralityOp, "__post_init__", "gamma"))
        for name, cls, method, field in spied:
            orig = getattr(cls, method)

            def spy(self, _orig=orig, _name=name, _field=field):
                calls[_name] += 1
                calls.log.append(
                    (_name, tuple(np.shape(m) for m in getattr(self, _field)),
                     None))
                return _orig(self)
            monkeypatch.setattr(cls, method, spy)
        return calls
    return start
