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
singular vectors give B^{j+1} and the next complement.  Singular values
settle a square invertible degree: there d_j maps that complement onto
C^{j+1}, so every basis is known without singular vectors.  A tall degree
of at least 16 columns is factorized by QR first (Chan's R-SVD): the
singular values of its square factor R settle full column rank, where Q
alone gives B^{j+1} and the next complement, and only a short rank takes
the full SVD of R.  Any other degree takes one full SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
# least column count at which a tall degree factorizes by QR first: below
# it one full SVD is cheaper (measured crossover, 12 to 16 columns)
_QR_MIN_COLS = 16


def _as_matrix(m, rows: int, cols: int) -> np.ndarray:
    a = np.asarray(m, dtype=complex).view()
    if a.shape != (rows, cols):
        raise ValidationError(
            f"differential has shape {a.shape}, expected {(rows, cols)}")
    a.flags.writeable = False
    return a


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
    rank decision on d_j was from going the other way (see ``_rank_cut``);
    it is empty for a frame assembled by hand.
    """

    complex: CochainComplex
    B: tuple[np.ndarray, ...]
    H: tuple[np.ndarray, ...]
    A: tuple[np.ndarray, ...]
    rank_margin: tuple[float, ...] = ()

    @property
    def betti(self) -> tuple[int, ...]:
        return tuple(h.shape[1] for h in self.H)

    @property
    def acyclic(self) -> bool:
        return all(b == 0 for b in self.betti)


def cohomology_frame(c: CochainComplex) -> CohomologyFrame:
    """Compute the orthogonal B/H/A decomposition of every degree, chained
    down the complex; singular values settle a square invertible degree and
    a tall degree of full column rank.

    With U_j = [B^j | P_j] unitary (U_0 the identity, P_0 = C^0), d_j
    vanishes on B^j.  When d_j P_j is square, its singular values come
    first: at full rank it maps P_j onto C^{j+1} one-to-one, so A^j = P_j,
    B^{j+1} = C^{j+1} (the identity) and H^j, P_{j+1} are empty.  Otherwise
    one full SVD d_j P_j = U S V^H splits P_j into A^j = P_j V_lead and
    H^j = P_j V_trail, and its left singular vectors are U_{j+1}:
    B^{j+1} = U_lead, P_{j+1} = U_trail.  In top degree H^d = P_d.

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
    H, A, margins = [], [], []
    perp = None  # P_j; None stands for the identity of C^0
    for m in c.partial:
        dp = m if perp is None else m @ perp
        q = None
        if dp.shape[0] > dp.shape[1] >= _QR_MIN_COLS:
            # d_j P_j = Q [R; 0]: the square factor R takes its place below
            q, dp = np.linalg.qr(dp, mode="complete")
            dp = dp[:dp.shape[1]]
        rows, cols = dp.shape
        rank, margin = 0, math.inf
        if rows == cols > 0:
            rank, margin = _rank_cut(np.linalg.svd(dp, compute_uv=False))
        if rows and cols and not rank == rows == cols:
            u, s, vh = np.linalg.svd(dp, full_matrices=True)
            rank, margin = _rank_cut(s)
            v = vh.conj().T if perp is None else perp @ vh.conj().T
        else:
            # d_j P_j is empty, or maps P_j onto C^{j+1} one-to-one
            u = np.eye(rows, dtype=complex)
            v = np.eye(cols, dtype=complex) if perp is None else perp
        if q is not None:
            # left singular vectors of Q [R; 0] are Q diag(U_R, 1)
            u = q if rank == cols else np.hstack([q[:, :cols] @ u,
                                                  q[:, cols:]])
        A.append(v[:, :rank])
        H.append(v[:, rank:])
        B.append(u[:, :rank])
        margins.append(margin)
        perp = u[:, rank:]
    H.append(np.eye(n[0], dtype=complex) if perp is None else perp)
    A.append(np.zeros((n[-1], 0), dtype=complex))
    return CohomologyFrame(c, tuple(B), tuple(H), tuple(A), tuple(margins))


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
        blocks = []
        if j > 0 and frame.A[j - 1].shape[1]:
            blocks.append(c.partial[j - 1] @ frame.A[j - 1])
        if frame.H[j].shape[1]:
            blocks.append(frame.H[j])
        if frame.A[j].shape[1]:
            blocks.append(frame.A[j])
        nj = c.dims.dims[j]
        t = np.hstack(blocks) if blocks else np.zeros((nj, 0), dtype=complex)
        if t.shape[1] != nj:
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
