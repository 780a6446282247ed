"""Test-instance generators and JSON serialization of chiral complexes.

Documents are plain JSON: dimensions, row-major differential matrices and
(optionally) chirality matrices, with every complex number written as a
two-element array [re, im].  Serialization is canonical - fixed key order,
no whitespace variance, floats at 17 significant digits - so that
serialize(deserialize(serialize(x))) is byte identical.  Each complex and
chirality returned here was checked once, when it was built.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .complexes import CochainComplex, _block_diag, direct_sum
from .errors import ValidationError
from .gradedlinalg import GradedDims
from .torsion import ChiralityOp

__all__ = [
    "gen_elementary",
    "gen_harmonic",
    "gen_random",
    "chiral_direct_sum",
    "random_profile",
    "serialize_document",
    "deserialize_document",
]

# ---------------------------------------------------------------------------
# generators


def _integer(v) -> bool:
    """Whether v is an integer, Python's or numpy's (booleans are not)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_int(name: str, v, low: int, odd: bool = False) -> None:
    if not (_integer(v) and v >= low and (v % 2 or not odd)):
        raise ValidationError(f"{name} must be an {'odd ' * odd}integer "
                              f">= {low}, got {v!r}")


def _summands(d, blocks=(), harmonic=(), rng=None, unitary=False):
    """Direct sum of elementary blocks (j, z) and harmonic summands (degree
    k), in that order, written straight into its matrices: each summand has
    one basis vector per degree it occupies, after the earlier summands' (as
    in chiral_direct_sum), and Gamma pairs those in degrees q and d-q by 1.
    rng, when given, conjugates the sum in place, degree by degree, one
    inverse at a time; only the returned pair is checked."""
    _check_int("top degree", d, 1, odd=True)
    r = (d + 1) // 2
    layout = []
    for j, z in blocks:
        if not (_integer(j) and 0 <= j < r):
            raise ValidationError(f"block degree {j} out of range [0, {r})")
        if z == 0:
            raise ValidationError("acyclic block needs z != 0")
        layout.append(((j, j + 1) if 2 * j + 1 == d
                       else (j, j + 1, d - j - 1, d - j), z))
    for k in harmonic:
        if not (_integer(k) and 0 <= k <= d):
            raise ValidationError("degree out of range")
        layout.append(((k, d - k), 0))
    if not layout:
        raise ValidationError("profile generates an empty complex")
    dims = [sum(q in degrees for degrees, _ in layout) for q in range(d + 1)]
    partial = [np.zeros((dims[q + 1], dims[q]), complex) for q in range(d)]
    gamma = [np.zeros((dims[d - q], dims[q]), complex) for q in range(d + 1)]
    off = [0] * (d + 1)
    for degrees, z in layout:
        at = {q: off[q] for q in degrees}
        for q in degrees:
            gamma[q][at[d - q], at[q]] = 1.0
            off[q] += 1
        for q in degrees[::2] if z else ():  # z: j -> j+1 and d-j-1 -> d-j
            partial[q][at[q + 1], at[q]] = z
    if rng is not None:  # conjugate degreewise by well-conditioned matrices
        p = [_well_conditioned(rng, n, unitary) for n in dims]
        for q in range(d + 1):
            pinv = (p[q].conj().T if unitary
                    else np.linalg.inv(p[q]) if dims[q] else p[q])
            if q < d:
                partial[q] = p[q + 1] @ partial[q] @ pinv
            gamma[q] = p[d - q] @ gamma[q] @ pinv
    return (CochainComplex(GradedDims(tuple(dims)), tuple(partial)),
            ChiralityOp(tuple(gamma)))


def gen_elementary(d: int, j: int, z: complex):
    """Elementary acyclic block z : C^j -> C^{j+1} and its mirror in degrees
    (d-j-1, d-j), one copy when they coincide (j = (d-1)/2), paired by
    identity chirality blocks.  Requires odd d, 0 <= j < (d+1)/2, z != 0."""
    return _summands(d, blocks=[(j, z)])


def gen_harmonic(d: int, k: int):
    """One-dimensional harmonic summands in degrees k and d-k (one copy when
    k = d-k is impossible for odd d), zero differential, identity pairing."""
    return _summands(d, harmonic=[k])


def chiral_direct_sum(parts):
    """Direct sum of (complex, chirality) pairs with matching top degree.
    Each Gamma_q is block diagonal in summand order."""
    c = direct_sum(*(p[0] for p in parts))
    return c, ChiralityOp(tuple(_block_diag(p[1].gamma[q] for p in parts)
                                for q in range(c.d + 1)))


def _well_conditioned(rng: np.random.Generator, n: int,
                      unitary: bool) -> np.ndarray:
    """Random invertible n x n matrix with condition number below ~3."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    a = np.empty((n, n), dtype=complex)  # holds each draw; qr copies it
    a.real, a.imag = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    q1, _ = np.linalg.qr(a)
    if unitary:
        return q1
    a.real, a.imag = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    q2, _ = np.linalg.qr(a)
    q1 *= rng.uniform(0.7, 1.5, size=n)  # q1 diag(sing), column by column
    return q1 @ q2


def random_profile(rng: np.random.Generator, d: int, acyclic: bool = True,
                   max_blocks: int = 3) -> dict:
    """Draw a generation profile: elementary blocks (degree, z) and harmonic
    summand degrees.  Requires odd d >= 1 and max_blocks >= 1."""
    _check_int("top degree", d, 1, odd=True)
    _check_int("max_blocks", max_blocks, 1)
    r = (d + 1) // 2
    blocks = []
    for _ in range(int(rng.integers(1, max_blocks + 1))):
        j = int(rng.integers(0, r))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        while abs(z) < 0.2:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        blocks.append((j, z))
    harmonic = [] if acyclic else [int(rng.integers(0, d + 1))
                                   for _ in range(int(rng.integers(1, 3)))]
    return {"blocks": blocks, "harmonic": harmonic}


def gen_random(seed: int, d: int, profile: dict | None = None,
               unitary: bool = False):
    """Random chiral complex: a direct sum of elementary blocks and harmonic
    summands per profile, conjugated degreewise by random well-conditioned
    matrices (unitary ones when ``unitary`` is set, which keeps the chirality
    self-adjoint).  The generator is numpy's default PCG64 stream seeded with
    ``seed``; identical seeds give bit-identical output."""
    _check_int("seed", seed, 0)  # d is checked before the first draw
    rng = np.random.default_rng(seed)
    if profile is None:
        profile = random_profile(rng, d)
    return _summands(d, profile.get("blocks", []), profile.get("harmonic", []),
                     rng, unitary)


# ---------------------------------------------------------------------------
# canonical JSON documents


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValidationError("non-finite number in document")
    # adding 0.0 folds negative zero into plain zero for a canonical text
    return format(float(x) + 0.0, ".17g")


def _fmt_matrix(m: np.ndarray) -> str:
    rows = []
    for r in range(m.shape[0]):
        cells = ",".join(
            f"[{_fmt_float(m[r, c].real)},{_fmt_float(m[r, c].imag)}]"
            for c in range(m.shape[1]))
        rows.append(f"[{cells}]")
    return "[" + ",".join(rows) + "]"


def serialize_document(c: CochainComplex, g: ChiralityOp | None = None,
                       metadata: dict | None = None) -> str:
    """Canonical JSON text of a complex and optional chirality."""
    parts = [f'"d":{c.d}',
             f'"dims":[{",".join(str(n) for n in c.dims.dims)}]',
             '"differential":[' + ",".join(_fmt_matrix(m) for m in c.partial) + "]"]
    if g is not None:
        parts.append('"chirality":[' + ",".join(_fmt_matrix(m) for m in g.gamma) + "]")
    meta = metadata or {}
    meta_items = ",".join(
        json.dumps(str(k)) + ":" + json.dumps(str(meta[k]))
        for k in sorted(meta))
    parts.append('"metadata":{' + meta_items + "}")
    return "{" + ",".join(parts) + "}"


def _finite(v) -> bool:
    """Whether a parsed JSON value is a finite number (booleans are not)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _parse_matrix(raw, rows: int, cols: int, what: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != rows:
        raise ValidationError(f"{what}: expected {rows} rows")
    for r, row in enumerate(raw):  # all rows, before rows x cols is allocated
        if not isinstance(row, list) or len(row) != cols:
            raise ValidationError(f"{what}: row {r} must have {cols} entries")
    out = np.zeros((rows, cols), dtype=complex)
    for r, row in enumerate(raw):
        for cidx, cell in enumerate(row):
            if (not isinstance(cell, list) or len(cell) != 2
                    or not all(_finite(v) for v in cell)):
                raise ValidationError(
                    f"{what}: entries must be [re, im] pairs of finite numbers")
            out[r, cidx] = complex(cell[0], cell[1])
    return out


def deserialize_document(text: str):
    """Parse a document; returns (complex, chirality-or-None, metadata)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    d, dims = doc.get("d"), doc.get("dims")
    if (not _integer(d) or not isinstance(dims, list)
            or not all(_integer(n) and n >= 0 for n in dims)):
        raise ValidationError(
            "d must be a JSON integer and dims a list of nonnegative ones")
    if len(dims) != d + 1:
        raise ValidationError("dims length must be d+1")
    raw_diff = doc.get("differential")
    if not isinstance(raw_diff, list) or len(raw_diff) != d:
        raise ValidationError("differential must list d matrices")
    partial = tuple(
        _parse_matrix(raw_diff[j], dims[j + 1], dims[j], f"differential[{j}]")
        for j in range(d))
    c = CochainComplex(GradedDims(tuple(dims)), partial)
    g = None
    if doc.get("chirality") is not None:
        raw_g = doc["chirality"]
        if not isinstance(raw_g, list) or len(raw_g) != d + 1:
            raise ValidationError("chirality must list d+1 matrices")
        g = ChiralityOp(tuple(
            _parse_matrix(raw_g[q], dims[d - q], dims[q], f"chirality[{q}]")
            for q in range(d + 1)))
    metadata = doc.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise ValidationError("metadata must be an object")
    return c, g, metadata
