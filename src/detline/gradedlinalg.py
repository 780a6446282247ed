"""Scalar calculus on determinant lines of graded vector spaces.

A determinant line of a graded space V = (V^0, ..., V^d) is the tensor product
of the top exterior powers Det(V^j), taken with exponent (-1)^j.  Every such
line is one dimensional, so once a standard ordered basis of each V^j is fixed
an element of the line is a single complex coefficient.  All operations below
act on that coefficient; sign bookkeeping is done with exact integer parities.
The two rules every map between such lines obeys live here and nowhere else:
the alternating determinant of a degreewise change of basis
(:func:`alternating_det`) and the fusion parity M(V, W) (:func:`sign_M`).

Degrees are over the complex numbers throughout, and duality means the space
of anti-linear functionals (the tau-dual for tau = complex conjugation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "GradedDims",
    "DetElement",
    "alternating_det",
    "sign_M",
    "fuse",
    "invert",
    "alpha_line",
    "beta_line",
    "dual_graded",
]


@dataclass(frozen=True)
class GradedDims:
    """Dimension vector (dim V^0, ..., dim V^d) of a graded space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) == 0:
            raise ValueError("need at least one degree")
        if any(int(n) != n or n < 0 for n in self.dims):
            raise ValueError("dimensions must be nonnegative integers")
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))

    @property
    def d(self) -> int:
        """Top degree."""
        return len(self.dims) - 1

    @property
    def total(self) -> int:
        return sum(self.dims)

    def reversed(self) -> "GradedDims":
        return GradedDims(self.dims[::-1])

    def __add__(self, other: "GradedDims") -> "GradedDims":
        if self.d != other.d:
            raise ValueError("degree mismatch in direct sum")
        return GradedDims(tuple(a + b for a, b in zip(self.dims, other.dims)))


@dataclass(frozen=True)
class DetElement:
    """Element of Det(V^0) x Det(V^1)^{-1} x ... as a coefficient against the
    standard ordered basis wedges.

    ``dualized`` marks elements living over the dual graded space (degree j
    holding anti-linear functionals on V^{d-j}); it only matters for deciding
    which elements are comparable.
    """

    coeff: complex
    dims: GradedDims
    dualized: bool = False


def alternating_det(blocks) -> complex:
    """prod_j det(blocks[j])^{(-1)^{j+1}} over per-degree square blocks.

    A degreewise change of basis with matrices T_j moves a coefficient on
    Det(V^0) x Det(V^1)^{-1} x ... by this factor.  An empty block counts 1.
    """
    out = 1.0 + 0.0j
    for j, b in enumerate(blocks):
        if b.shape[0]:
            out *= np.linalg.det(b) ** (1 if j % 2 else -1)
    return out


def sign_M(v: GradedDims, w: GradedDims) -> int:
    """Parity of sum_{0 <= k < j <= d} dim V^j * dim W^k (mod 2).

    This is the sign exponent of the fusion isomorphism
    Det(V) x Det(W) -> Det(V + W).
    """
    if v.d != w.d:
        raise ValueError("degree mismatch")
    return sum(v.dims[j] * sum(w.dims[:j]) for j in range(1, v.d + 1)) % 2


def fuse(x: DetElement, y: DetElement) -> DetElement:
    """Fusion Det(V) x Det(W) -> Det(V + W) against concatenated bases.

    The standard basis of (V + W)^j is the basis of V^j followed by the basis
    of W^j.  The coefficient picks up the sign (-1)^{M(V, W)}.
    """
    if x.dualized != y.dualized:
        raise ValueError("cannot fuse an element with a dualized element")
    coeff = x.coeff * y.coeff
    return DetElement(-coeff if sign_M(x.dims, y.dims) else coeff,
                      x.dims + y.dims, x.dualized)


def invert(x: DetElement) -> DetElement:
    """Pass to the inverse line: nonzero coefficient c becomes 1/c."""
    if x.coeff == 0:
        raise ZeroDivisionError("zero element of a determinant line")
    return replace(x, coeff=1.0 / x.coeff)


def alpha_line(coeff: complex) -> complex:
    """Anti-linear map Det(V*) -> Det(V)^{-1}, and its inverse.

    Sends the dual-basis wedge e^1 ^ ... ^ e^n to the inverse of the basis
    wedge, conjugating the coefficient, whatever n = dim V.
    """
    return complex(coeff).conjugate()


def beta_line(coeff: complex, n: int) -> complex:
    """Anti-linear map Det(V) -> Det(V*)^{-1} for an n-dimensional V.

    On basis wedges it differs from inverting :func:`alpha_line` by the
    sign (-1)^n: the basis wedge goes to (-1)^n times the inverse of the
    dual-basis wedge.
    """
    sign = -1 if n % 2 else 1
    return sign * complex(coeff).conjugate()


def dual_graded(x: DetElement) -> DetElement:
    """Anti-linear duality Det(V) -> Det(V^) for the dual graded space
    V^j_hat = (V^{d-j})*.

    Against standard and dual-standard basis wedges the coefficient becomes

        conj(c) * (-1)^{M(V,V) + sum_{k even} dim V^k},

    the second term collecting the (-1)^{dim} factors of the beta maps that
    land in the odd slots of the target line.  Requires odd top degree d so
    that the slot pattern of the target matches the source.
    """
    dims = x.dims
    if dims.d % 2 == 0:
        raise ValueError("graded duality needs odd top degree")
    coeff = complex(x.coeff).conjugate()
    if (sign_M(dims, dims) + sum(dims.dims[0::2])) % 2:
        coeff = -coeff
    return DetElement(coeff, dims.reversed(), not x.dualized)
