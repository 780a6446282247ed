"""Finite-dimensional cochain complexes and their determinant lines.

A complex is a dimension vector together with differentials
d_j : C^j -> C^{j+1} satisfying d_{j+1} d_j = 0, checked once, when it is
built; it keeps read-only views of them.  Each C^j carries the
standard Hermitian inner product of its coordinates.  The main tool is the
orthogonal decomposition C^j = B^j + H^j + A^j into exact, harmonic and
coexact parts; it induces the canonical isomorphism ``phi`` between the
determinant line of the complex and the determinant line of its cohomology.
The decomposition is chained down the complex: d_j vanishes on B^j, so it
is factorized on the orthogonal complement of B^j only, and its left
singular vectors give B^{j+1} and the next complement.  A square degree
of full rank needs no singular vectors: there d_j maps that complement
onto C^{j+1}, so every basis is known.  One invertibility kernel,
_sigma_min_above, settles it and picks its own route by size: singular
values alone below 16 columns, a Cholesky certificate of the Gram matrix
from 16 on.  A square degree it leaves open takes one full SVD.  A tall
degree of at least 16 columns is factorized by QR first (Chan's
R-SVD), and its square factor R takes the same rule: at full column rank
Q alone gives B^{j+1} and the next complement, and only a short rank
takes the full SVD of R.  Any other degree takes one full SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .gradedlinalg import (DetElement, GradedDims, alternating_det,
                           dual_graded, fuse)

__all__ = [
    "RANK_RTOL",
    "RANK_ATOL",
    "CochainComplex",
    "CohomologyFrame",
    "CohomologyElement",
    "cohomology_frame",
    "sign_N",
    "phi",
    "dual_complex",
    "direct_sum",
    "alpha_cohomology",
    "fused_in_sum_frame",
]

# Zero decisions (singular values and eigenvalues alike): a magnitude counts
# as zero when it is at most RANK_RTOL times the largest one, or at most the
# absolute floor RANK_ATOL.
RANK_RTOL = 1e-8
RANK_ATOL = 1e-12
_VALIDATION_TOL = 1e-10  # of d.d = 0 in a complex, Gamma^2 = 1 in a chirality
# least column count at which a tall degree factorizes by QR first and
# _sigma_min_above turns from singular values to its Cholesky certificate:
# below it those are cheaper (measured crossovers, 12 to 16 columns)
_QR_MIN_COLS = 16


def _readonly(a: np.ndarray) -> np.ndarray:
    """Read-only view of a; a itself keeps its flags."""
    a = a.view()
    a.flags.writeable = False
    return a


def _columns(blocks) -> np.ndarray:
    """Blocks of equal height side by side; a lone nonempty one, read-only."""
    lone = [b for b in blocks if b.shape[1]]
    return _readonly(lone[0]) if len(lone) == 1 else np.hstack(blocks)


def _as_matrix(m, rows: int, cols: int) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.shape != (rows, cols):
        raise ValidationError(
            f"differential has shape {a.shape}, expected {(rows, cols)}")
    return _readonly(a)


@dataclass(frozen=True)
class CochainComplex:
    """Cochain complex of standard coordinate spaces.

    ``partial[j]`` is the matrix of d_j : C^j -> C^{j+1}; the list has one
    entry per degree 0..d-1.  Construction checks the shapes and d.d = 0;
    the matrices are read-only views (the caller's arrays keep their flags).
    """

    dims: GradedDims
    partial: tuple[np.ndarray, ...]

    def __post_init__(self):
        d = self.dims.d
        if len(self.partial) != d:
            raise ValidationError(
                f"expected {d} differentials, got {len(self.partial)}")
        mats = tuple(
            _as_matrix(self.partial[j], self.dims.dims[j + 1], self.dims.dims[j])
            for j in range(d))
        object.__setattr__(self, "partial", mats)
        res = self.differential_residual()
        if not res <= _VALIDATION_TOL:  # a NaN residual fails too
            raise ValidationError(f"d.d residual {res:.3e} exceeds "
                                  f"tolerance {_VALIDATION_TOL:.3e}")

    @property
    def d(self) -> int:
        return self.dims.d

    def differential_residual(self) -> float:
        """Largest entry of any d_{j+1} d_j, relative to the scale of d;
        NaN when an entry of d is not finite.  Each differential is divided
        by the scale before the product, so large entries do not overflow."""
        scale = float(np.max([1.0] + [np.abs(m).max() for m in self.partial
                                      if m.size]))
        if not np.isfinite(scale):
            return math.nan
        worst = 0.0
        for j in range(self.d - 1):
            prod = (self.partial[j + 1] / scale) @ (self.partial[j] / scale)
            worst = max(worst, float(np.abs(prod).max(initial=0.0)))
        return worst


def _zero_cut(scale: float) -> float:
    """Largest magnitude that counts as zero in a spectrum of the given scale;
    the absolute floor keeps numerically-zero matrices at rank zero."""
    return max(RANK_RTOL * scale, RANK_ATOL)


def _rank_cut(s: np.ndarray) -> tuple[int, float]:
    """Numerical rank of descending singular values s, and its margin:
    min(smallest kept / cut, cut / largest dropped), a side that is empty or
    all zero counting as infinitely far from the cut."""
    cut = _zero_cut(float(s[0]))
    rank = int(np.sum(s > cut))
    kept = float(s[rank - 1]) / cut if rank else math.inf
    dropped = float(s[rank]) if rank < len(s) else 0.0
    return rank, min(kept, cut / dropped if dropped else math.inf)


def _sigma_min_above(x: np.ndarray, floor: float | None = None) -> bool:
    """Whether a nonempty square n x n x is invertible: True only when
    sigma_min(x) > floor.  The one invertibility test of the package, it
    picks its own route by size.  Below _QR_MIN_COLS columns the singular
    values decide, exactly, and floor defaults to _zero_cut(sigma_max).
    From _QR_MIN_COLS on a Cholesky certificate decides, floor defaults to
    max(RANK_RTOL ||x||_F, RANK_ATOL), which is at least that cut, and
    False settles nothing: the caller decides from singular values instead.

    With tau = max(1e-10 ||x||_F^2, 4 floor^2), the certificate tries a
    Cholesky factorization of G - tau I, G = x^H x, with x, floor and
    ||x||_F divided by x's largest modulus, so that nothing overflows or
    underflows.  If it succeeds, the rounding of the scaling, of G, of the
    shift and of the factorization itself (Higham, Accuracy and Stability
    of Numerical Algorithms, Thm 10.3) move G by
    delta ~ 2 (n+2) eps ||x||_F^2 at most in the 2-norm, so
    sigma_min(x)^2 >= tau - delta > tau / 2 >= 2 floor^2 while
    delta < tau / 2.  That needs 4 (n+2) eps ||x||_F^2 < tau, which holds
    for n below about 1.1e5, and at any n where 4 floor^2 is the larger
    term.  The answer is False past that limit, when tau reaches
    ||x||_F^2 (no square x has a larger sigma_min^2), and when the largest
    modulus is zero, not finite or beyond 1e+-290.
    """
    n = x.shape[0]
    if n < _QR_MIN_COLS:
        s = np.linalg.svd(x, compute_uv=False)
        return bool(s[-1] > (floor if floor is not None else _zero_cut(s[0])))
    scale = float(np.abs(x).max(initial=0.0))
    if not 1e-290 < scale < 1e290:
        return False
    xc = x.conj()
    xc /= scale
    g = xc.T @ x
    del xc  # so that no more than G and its factor are held at once
    g /= scale  # G / scale^2
    fro2 = float(np.trace(g).real)  # ||x||_F^2 / scale^2, in [1, n^2]
    rel = (max(RANK_RTOL * math.sqrt(fro2), RANK_ATOL / scale)
           if floor is None else floor / scale)
    tau = max(1e-10 * fro2, 4.0 * rel * rel)
    if not 4 * (n + 2) * np.finfo(float).eps * fro2 < tau < fro2:
        return False
    g.flat[::n + 1] -= tau
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def _block_diag(blocks) -> np.ndarray:
    """Complex block-diagonal matrix of the given blocks, in order; blocks
    may be rectangular or empty."""
    blocks = list(blocks)
    out = np.zeros((sum(b.shape[0] for b in blocks),
                    sum(b.shape[1] for b in blocks)), dtype=complex)
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


@dataclass(frozen=True)
class CohomologyFrame:
    """Orthonormal frames of the decomposition C^j = B^j + H^j + A^j.

    B^j is the image of d_{j-1}, H^j the orthogonal complement of B^j inside
    ker d_j (the harmonic space), and A^j the orthogonal complement of the
    kernel.  ``betti[j]`` is dim H^j.  ``rank_margin[j]`` says how far the
    rank decision on d_j was from going the other way (see ``_rank_cut``).
    It is computed on first read, from the singular values of
    d_j [A^j | H^j], so a frame assembled by hand has margins of its own
    and building a frame computes none.
    """

    complex: CochainComplex
    B: tuple[np.ndarray, ...]
    H: tuple[np.ndarray, ...]
    A: tuple[np.ndarray, ...]

    @cached_property
    def rank_margin(self) -> tuple[float, ...]:
        # [A^j | H^j] is P_j up to a unitary (at j = 0 one of all of C^0), so
        # d_j [A^j | H^j] has the singular values of d_j P_j
        margins = []
        for j, (m, a, h) in enumerate(zip(self.complex.partial, self.A,
                                          self.H)):
            x = m if j == 0 else m @ np.hstack([a, h])
            margins.append(_rank_cut(np.linalg.svd(x, compute_uv=False))[1]
                           if x.size else math.inf)
        return tuple(margins)

    @property
    def betti(self) -> tuple[int, ...]:
        return tuple(h.shape[1] for h in self.H)

    @property
    def acyclic(self) -> bool:
        return all(b == 0 for b in self.betti)


def cohomology_frame(c: CochainComplex) -> CohomologyFrame:
    """Compute the orthogonal B/H/A decomposition of every degree, chained
    down the complex; a square degree of full rank and a tall degree of full
    column rank need no singular vectors.

    With U_j = [B^j | P_j] unitary (U_0 the identity, P_0 = C^0), d_j
    vanishes on B^j.  A square d_j P_j that the invertibility kernel
    _sigma_min_above finds invertible maps P_j onto C^{j+1} one-to-one, so
    A^j = P_j, B^{j+1} = C^{j+1} (the identity, read-only; at j = 0 also
    A^0) and H^j, P_{j+1} are empty.  Otherwise one full SVD
    d_j P_j = U S V^H decides the rank by ``_rank_cut`` and splits P_j
    into A^j = P_j V_lead and H^j = P_j V_trail, and its left singular
    vectors are U_{j+1}: B^{j+1} = U_lead, P_{j+1} = U_trail.  In top degree
    H^d = P_d.

    A tall d_j P_j (rows > cols >= _QR_MIN_COLS) first takes a complete QR,
    d_j P_j = Q [R; 0] with Q = [Q_1 | Q_2], and the square factor R takes
    the square rule above, as it has the same singular values and right
    singular vectors.  At full column rank A^j = P_j, H^j is empty,
    B^{j+1} = Q_1 and P_{j+1} = Q_2.  At short rank the full SVD
    R = U_R S V_R^H gives A^j, H^j from P_j V_R, B^{j+1} = Q_1 U_R,lead and
    P_{j+1} = [Q_1 U_R,trail | Q_2].
    """
    n = c.dims.dims
    B = [np.zeros((n[0], 0), dtype=complex)]
    H, A = [], []
    perp = None  # P_j; None stands for the identity of C^0
    for m in c.partial:
        dp = m if perp is None else m @ perp
        q = None
        if dp.shape[0] > dp.shape[1] >= _QR_MIN_COLS:
            # d_j P_j = Q [R; 0]: the square factor R takes its place below
            q, dp = np.linalg.qr(dp, mode="complete")
            dp = dp[:dp.shape[1]]
        rows, cols = dp.shape
        rank = cols if rows == cols > 0 and _sigma_min_above(dp) else 0
        if rows and cols and not rank == rows == cols:
            u, s, vh = np.linalg.svd(dp, full_matrices=True)
            rank = _rank_cut(s)[0]
            v = vh.conj().T if perp is None else perp @ vh.conj().T
        else:
            # d_j P_j is empty, or maps P_j onto C^{j+1} one-to-one
            u = _readonly(np.eye(rows, dtype=complex))
            v = (perp if perp is not None else u if rows == cols
                 else np.eye(cols, dtype=complex))
        if q is not None:
            # left singular vectors of Q [R; 0] are Q diag(U_R, 1)
            u = q if rank == cols else np.hstack([q[:, :cols] @ u,
                                                  q[:, cols:]])
        A.append(v[:, :rank])
        H.append(v[:, rank:])
        B.append(u[:, :rank])
        perp = u[:, rank:]
    H.append(np.eye(n[0], dtype=complex) if perp is None else perp)
    A.append(np.zeros((n[-1], 0), dtype=complex))
    return CohomologyFrame(c, tuple(B), tuple(H), tuple(A))


def sign_N(frame: CohomologyFrame) -> int:
    """Parity of (1/2) sum_j dim A^j (dim A^j + (-1)^{j+1}).

    This is the sign the canonical map ``phi`` carries.
    """
    return sum(k * (k + (-1) ** (j + 1)) // 2
               for j, k in enumerate(a.shape[1] for a in frame.A)) % 2


@dataclass(frozen=True)
class CohomologyElement:
    """Element of the determinant line of cohomology, as a coefficient
    against the wedge of the frame's orthonormal harmonic bases."""

    coeff: complex
    frame: CohomologyFrame = field(repr=False)

    @property
    def betti(self) -> tuple[int, ...]:
        return self.frame.betti


def phi(x: DetElement, frame: CohomologyFrame) -> CohomologyElement:
    """Canonical isomorphism Det(C) -> Det(H(C)).

    Decomposing the standard wedge of C^j through the frame gives the change
    of basis T_j = [d(A^{j-1}) | H^j | A^j]; the coefficient transforms by
    prod_j det(T_j)^{(-1)^{j+1}} together with the sign (-1)^N.
    """
    c = frame.complex
    if x.dims != c.dims or x.dualized:
        raise ValidationError("element does not live on this complex's line")
    ts = []
    for j in range(c.d + 1):
        blocks = [frame.H[j], frame.A[j]]
        if j > 0 and frame.A[j - 1].shape[1]:
            blocks.insert(0, c.partial[j - 1] @ frame.A[j - 1])
        t = _columns(blocks)
        if t.shape[1] != c.dims.dims[j]:
            raise ValidationError(f"degree {j}: frame does not span C^{j}")
        ts.append(t)
    coeff = complex(x.coeff) * alternating_det(ts)
    if sign_N(frame):
        coeff = -coeff
    return CohomologyElement(coeff, frame)


def dual_complex(c: CochainComplex) -> CochainComplex:
    """Dual complex: degree j holds the anti-dual of C^{d-j}, and the
    differential is the conjugate transpose of d_{d-j-1}."""
    dims = c.dims.reversed()
    partial = tuple(c.partial[c.d - j - 1].conj().T for j in range(c.d))
    return CochainComplex(dims, partial)


def direct_sum(*complexes: CochainComplex) -> CochainComplex:
    """Degreewise direct sum, summands' coordinates in argument order."""
    if not complexes:
        raise ValidationError("direct sum needs at least one summand")
    d = complexes[0].d
    if any(c.d != d for c in complexes):
        raise ValidationError("degree mismatch in direct sum")
    dims = GradedDims(tuple(sum(c.dims.dims[j] for c in complexes)
                            for j in range(d + 1)))
    return CochainComplex(dims, tuple(
        _block_diag(c.partial[j] for c in complexes) for j in range(d)))


def alpha_cohomology(x: CohomologyElement,
                     frame_hat: CohomologyFrame) -> CohomologyElement:
    """Anti-linear duality on cohomology determinant lines.

    Applies the graded duality map to the Betti grading, then identifies
    H^j of the dual complex with the anti-dual of H^{d-j} through the
    evaluation pairing of harmonic representatives, so that the result is
    expressed against the harmonic frame of the dual complex.
    """
    frame = x.frame
    d, betti = frame.complex.d, frame.betti
    if d % 2 == 0:
        raise ValidationError("duality on cohomology needs odd top degree")
    if frame_hat.betti != betti[::-1]:
        raise ValidationError("frames are not dual to each other")
    coeff = dual_graded(DetElement(x.coeff, GradedDims(betti))).coeff
    # pairing of degree-j dual harmonics against degree-(d-j) harmonics
    coeff *= alternating_det(frame_hat.H[j].T @ frame.H[d - j].conj()
                             for j in range(d + 1))
    return CohomologyElement(coeff, frame_hat)


def fused_in_sum_frame(fr_a: CohomologyFrame, fr_b: CohomologyFrame,
                       coeff_a: complex, coeff_b: complex,
                       frame_sum: CohomologyFrame) -> complex:
    """Fuse two cohomology determinant elements and express the result
    against the harmonic frame of the direct-sum complex (whose harmonic
    spaces are the orthogonal direct sums of the summands'): the graded
    fusion of the Betti gradings, then a change of frame."""
    coeff = fuse(DetElement(coeff_a, GradedDims(fr_a.betti)),
                 DetElement(coeff_b, GradedDims(fr_b.betti))).coeff
    return coeff / alternating_det(
        h_sum.conj().T @ _block_diag([fr_a.H[j], fr_b.H[j]])
        for j, h_sum in enumerate(frame_sum.H))
