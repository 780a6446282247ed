"""The odd signature operator of a chiral complex and its graded determinant.

For a complex (C, d) with chirality Gamma the signature operator is
B = Gamma d + d Gamma.  Its square preserves degrees, which allows splitting
the complex along the spectrum of B^2, and the graded determinant of the even
part of B recovers the refined torsion.  Log-determinants along a branch cut
(an Agmon angle) and the finite-dimensional eta invariant take a spectrum as
a Python list of complex; numpy only factorizes matrices.  A call forms B
once, as a table of its nonzero degree blocks Gamma_{j+1} d_j : C^j ->
C^{d-j-1} and d_{d-j} Gamma_j : C^j -> C^{d-j+1}, and reads B_even, B_odd,
each B^2_j = sum_t B[j, t] B[t, j] and the +/- blocks off it.

The cohomology frame gives C^j_- = ker d = B^j + H^j and, through Gamma,
C^j_+; only a Gamma-image that is a proper, nonzero subspace is factorized
(by QR), and the +/- independence test reads principal angles off the unitary
frame, through the frame's invertibility kernel, which picks singular values
or a Cholesky certificate by size.  B_even on the even + and - subspaces,
restricted one table block at a time (the Gamma d blocks on C_+, the d Gamma
blocks on C_-), gives the graded determinant and, through its spectra, eta
and xi (whose squares are the spectra of (Gamma d)^2 on the + subspaces); a
side whose bases fill the even part is that whole space, so its block is
+-B_even as it stands and the other side's is empty.  Gamma commutes with B,
so a split decides each degree pair (j, d-j) in degree j from the spectrum of
B^2 and carries the result to degree d-j by Gamma_j.  The singular values of
B^2 bound the moduli of its eigenvalues, and settle a degree with one side
empty; only a degree they leave open takes eigenvalues.  When one side of a
degree is empty the other is the whole degree, so nothing is factorized; a
side that fills every degree is the complex itself, and a side empty in every
degree is the zero complex.  Only a proper split factorizes, with numpy
alone: the matrix disk function, the sign of a Cayley transform of B^2 by a
scaled Newton iteration, gives the spectral projector onto the small part,
and one SVD of it gives orthonormal bases of both parts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import (CochainComplex, CohomologyElement, CohomologyFrame,
                        _columns, _readonly, _sigma_min_above, _zero_cut,
                        cohomology_frame)
from .errors import SpectralBoundaryError, ValidationError
from .gradedlinalg import GradedDims, alternating_det
from .torsion import (ChiralityOp, _frame_for, refined_torsion,
                      validate_chirality)

__all__ = [
    "SignatureOp",
    "build_signature",
    "plus_minus_split",
    "graded_det_finite",
    "SpectralPart",
    "SpectralSplit",
    "spectral_split",
    "torsion_via_split",
    "log_det_cut",
    "EtaData",
    "eta_finite",
    "det_eta_check",
    "pick_agmon_angle",
    "graded_det_via_xi_eta",
]

_RAY_TOL = 1e-10  # angular distance below which an eigenvalue sits on a cut
_CLUSTER_RTOL = 1e-8  # relative gap required between lambda and |spec(B^2)|
_PM_TOL = 1e-10  # least sigma_min([C_+ | C_-]) of independent +/- subspaces
_RESTRICT_TOL = 1e-8  # relative residual of an image outside its subspace
_SIGN_STEPS = 50  # Newton sign steps before a split counts as not converged
_SIGN_SCALE_STOP = 1e-2  # relative step below which the scaling stops


def _b_blocks(c: CochainComplex, g: ChiralityOp,
              parity: int | None = None) -> dict:
    """B's nonzero degree blocks {(target, source): block} from the sources
    of the given parity (all when None).  No two share a key, each keeps the
    parity of its source (d is odd), and in the whole table (t, j) is a key
    exactly when (j, t) is."""
    d = c.d
    blocks = {}
    for j in range(d + 1) if parity is None else range(parity, d + 1, 2):
        if j < d:
            blocks[d - j - 1, j] = g.gamma[j + 1] @ c.partial[j]
        if j > 0:
            blocks[d - j + 1, j] = c.partial[d - j] @ g.gamma[j]
    return blocks


def _bsq(blocks: dict, j: int) -> np.ndarray:
    """B^2 restricted to C^j: the sum over t of B[j, t] B[t, j]."""
    return sum(blocks[j, t] @ b for (t, s), b in blocks.items() if s == j)


def _assemble(blocks: dict, sizes, parity: int) -> np.ndarray:
    """Matrix of the degree blocks {(target, source): block} of the given
    parity on the sum of those degrees, degree j of dimension sizes[j]; a
    lone block that fills it is used as it stands, as a read-only view."""
    offs, pos = {}, 0
    for j in range(parity, len(sizes), 2):
        offs[j], pos = pos, pos + sizes[j]
    for (t, s), b in blocks.items():
        if s % 2 == parity and b.shape == (pos, pos):
            return _readonly(b)
    out = np.zeros((pos, pos), dtype=complex)
    for (t, s), b in blocks.items():
        if s % 2 == parity:
            out[offs[t]:offs[t] + sizes[t], offs[s]:offs[s] + sizes[s]] = b
    return out


@dataclass(frozen=True)
class SignatureOp:
    """B = Gamma d + d Gamma packaged with its even and odd matrices; a
    matrix that is one degree block of B is that block, read-only."""

    complex: CochainComplex
    chirality: ChiralityOp
    b_even: np.ndarray
    b_odd: np.ndarray
    _blocks: dict = field(repr=False, compare=False)

    def bsq_block(self, j: int) -> np.ndarray:
        return _bsq(self._blocks, j)


def build_signature(c: CochainComplex, g: ChiralityOp) -> SignatureOp:
    validate_chirality(c, g)
    blocks = _b_blocks(c, g)
    return SignatureOp(c, g, _assemble(blocks, c.dims.dims, 0),
                       _assemble(blocks, c.dims.dims, 1), blocks)


def _gamma_image(gamma: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of gamma applied to the span of basis
    (independent columns; gamma invertible).  An empty image stays empty and
    a full one is the whole space, so neither is formed or factorized."""
    rows, cols = gamma.shape[0], basis.shape[1]
    if cols == 0:
        return np.zeros((rows, 0), dtype=complex)
    if cols == rows:
        return np.eye(rows, dtype=complex)
    return np.linalg.qr(gamma @ basis)[0]


def _restrict(basis: np.ndarray, image: np.ndarray, what: str) -> np.ndarray:
    """Coordinates of image's columns in the span of basis (orthonormal
    columns), with a residual check that the span really contains them; a
    NaN residual fails it."""
    x = basis.conj().T @ image
    if image.size:
        res = float(np.abs(basis @ x - image).max())
        if not res <= _RESTRICT_TOL * max(1.0, float(np.abs(image).max())):
            raise ValidationError(f"{what}: subspace is not invariant "
                                  f"(residual {res:.3e})")
    return x


def _restricted(op, source, target, what: str) -> np.ndarray:
    """Matrix of op from span(source) to span(target) through _restrict;
    empty, with nothing formed, when either basis is empty."""
    if source.shape[1] and target.shape[1]:
        return _restrict(target, op @ source, what)
    return np.zeros((target.shape[1], source.shape[1]), dtype=complex)


def plus_minus_split(c: CochainComplex, g: ChiralityOp,
                     frame: CohomologyFrame | None = None):
    """Orthonormal bases of C^j_+ = ker(d Gamma) and C^j_- = ker(d) per degree.

    C^j_- = B^j + H^j is read off the cohomology frame of c (built when not
    given), and C^j_+ is Gamma_{d-j} ker(d_{d-j}) as Gamma_{d-j} Gamma_j = 1.
    Raises SpectralBoundaryError unless the two intersect trivially and span,
    which is the bijectivity condition for B.  [B^j | H^j | A^j] is unitary,
    so s = sigma_min((A^j)^H P) is the sine of the smallest angle between
    P = C^j_+ and M = C^j_-, and the test reads
    sigma_min([P | M]) = s / sqrt(1 + sqrt(1 - s^2)) off it.  The
    invertibility kernel _sigma_min_above tries s > 2 _PM_TOL first, which
    passes the test; a block it leaves open takes the singular values, so a
    dependent pair raises as it would without it.  When B^j or H^j is
    empty, C^j_- is the other one as it stands, a read-only view.
    """
    validate_chirality(c, g)
    frame, d = _frame_for(c, frame), c.d
    minus = [_columns(bh) for bh in zip(frame.B, frame.H)]
    plus = [_gamma_image(g.gamma[d - j], minus[d - j]) for j in range(d + 1)]
    for j, (p, m) in enumerate(zip(plus, minus)):
        if p.shape[1] + m.shape[1] != c.dims.dims[j]:
            raise SpectralBoundaryError(
                f"degree {j}: ker(dGamma) + ker(d) does not split C^{j} "
                f"(B is not bijective)")
        if p.shape[1] and m.shape[1]:
            x = frame.A[j].conj().T @ p
            # s > 2 _PM_TOL gives sigma_min([P | M]) > sqrt(2) _PM_TOL
            if _sigma_min_above(x, 2 * _PM_TOL):
                continue
            s = float(np.linalg.svd(x, compute_uv=False)[-1])
            smallest = s / math.sqrt(1.0 + math.sqrt(max(0.0, 1.0 - s * s)))
            if smallest < _PM_TOL:
                raise SpectralBoundaryError(
                    f"degree {j}: the +/- subspaces are numerically dependent "
                    f"(sigma_min {smallest:.1e} < {_PM_TOL:.0e})")
    return plus, minus


def _even_blocks(c: CochainComplex, g: ChiralityOp, plus, minus):
    """B_even restricted to the even + subspaces, and -B_even restricted to
    the even - subspaces, in the given bases, one block of B at a time: B is
    Gamma d (target d-s-1) on C_+ and d Gamma (target d-s+1) on C_-.  A
    side whose bases fill the even part is that whole space: its block is
    B_even (or -B_even) as it stands, and the other side's is empty."""
    blocks, n = _b_blocks(c, g, 0), c.dims.dims
    empty = np.zeros((0, 0), dtype=complex)
    if all(plus[j].shape[1] == n[j] for j in range(0, c.d + 1, 2)):
        return _assemble(blocks, n, 0), empty
    if all(minus[j].shape[1] == n[j] for j in range(0, c.d + 1, 2)):
        return empty, -_assemble(blocks, n, 0)

    def side(bases, total, what):  # the blocks with t + s = total
        return _assemble({(t, s): _restricted(b, bases[s], bases[t], what)
                          for (t, s), b in blocks.items() if t + s == total},
                         [b.shape[1] for b in bases], 0)
    return side(plus, c.d - 1, "B+ even"), -side(minus, c.d + 1, "B- even")


def graded_det_finite(c: CochainComplex, g: ChiralityOp,
                      frame: CohomologyFrame | None = None) -> complex:
    """Graded determinant det(B+_even) / det(-B-_even) of a bijective even
    part, computed in explicit bases of the +/- subspaces (read off frame,
    the cohomology frame of c, when given)."""
    num, den = _even_blocks(c, g, *plus_minus_split(c, g, frame))
    # a singular + block gives 0, a singular - block 0 ** -1 = nan + nan i
    with np.errstate(divide="ignore", invalid="ignore"):
        value = alternating_det((den, num))
    if value == 0 or (math.isnan(value.real) and math.isnan(value.imag)):
        raise SpectralBoundaryError("B_even is not bijective")
    return complex(value)


@dataclass(frozen=True)
class SpectralPart:
    """A B^2-invariant piece of a chiral complex, with the embedding bases
    (orthonormal columns) and the restricted differentials and chirality."""

    bases: tuple[np.ndarray, ...]
    complex: CochainComplex
    chirality: ChiralityOp


@dataclass(frozen=True)
class SpectralSplit:
    lam: float
    small: SpectralPart
    large: SpectralPart


def _part_from_bases(c: CochainComplex, g: ChiralityOp, bases) -> SpectralPart:
    """The part of (c, g) spanned by bases; when every basis fills its degree
    (it is then the identity) the part is (c, g) itself, and when every basis
    is empty it is the zero complex."""
    if all(b.shape[0] == b.shape[1] for b in bases):
        return SpectralPart(tuple(bases), c, g)
    d = c.d
    dims = GradedDims(tuple(b.shape[1] for b in bases))
    partial = tuple(
        _restricted(c.partial[j], bases[j], bases[j + 1],
                    f"d restricted, degree {j}")
        for j in range(d))
    gamma = tuple(
        _restricted(g.gamma[j], bases[j], bases[d - j],
                    f"Gamma restricted, degree {j}")
        for j in range(d + 1))
    return SpectralPart(tuple(bases), CochainComplex(dims, partial),
                        ChiralityOp(gamma))


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm; on the small blocks of a split np.linalg.norm takes
    about twice as long per call."""
    return math.sqrt(np.vdot(a, a).real)


def _split_degree(bsq: np.ndarray, lam: float, j: int):
    """Orthonormal bases of the small and large B^2-invariant subspaces of
    C^j; a block that is not finite (an overflow) is a numerical boundary.
    Every eigenvalue mu has sigma_min <= |mu| <= sigma_max, so when the
    singular values put the whole spectrum on one side of the cut, clear of
    the cluster margin, that side is all of C^j and the other is empty, as
    the eigenvalue rule would find.  Otherwise the eigenvalues decide how
    many are small, k; at lam = 0 the zero cut is relative to the block's
    own scale (sigma_max, then the largest modulus).  A proper split
    (0 < k < n) takes the disk split at a level mu inside the gap they
    leave: lam itself when lam > 0.  At lam = 0 it is half the smallest
    modulus outside the zero cluster, or the geometric mean of that and the
    largest modulus inside when this is larger; B^2 + mu then stays as well
    conditioned as the gap allows."""
    n = bsq.shape[0]
    if n == 0:
        return bsq, bsq
    if not np.isfinite(bsq).all():
        raise SpectralBoundaryError(
            f"degree {j}: the B^2 block is not finite (overflow)")
    sv = np.linalg.svd(bsq, compute_uv=False)
    s_min, s_max = float(sv[-1]), float(sv[0])
    if lam > 0:
        margin = _CLUSTER_RTOL * max(lam, 1.0, s_max)
        k = 0 if s_min - lam > margin else n if lam - s_max > margin else None
    else:
        k = 0 if s_min > _zero_cut(s_max) else None
    if k is None:
        mods = np.abs(np.linalg.eigvals(bsq))
        top = float(mods.max())
        cut = lam if lam > 0 else _zero_cut(top)
        if lam > 0:
            gap = np.min(np.abs(mods - lam))
            if gap <= _CLUSTER_RTOL * max(lam, 1.0, top):
                raise SpectralBoundaryError(
                    f"degree {j}: split level {lam} inside an eigenvalue "
                    f"cluster (gap {gap:.3e})")
        small = mods <= cut
        k = int(np.sum(small))
    if k == 0:
        return np.zeros((n, 0), dtype=complex), np.eye(n, dtype=complex)
    if k == n:
        return np.eye(n, dtype=complex), np.zeros((n, 0), dtype=complex)
    if lam > 0:
        mu = lam
    else:
        lo, hi = float(mods[small].max()), float(mods[~small].min())
        mu = max(math.sqrt(lo * hi), 0.5 * hi)
    return _disk_split(bsq, mu, k, j)


def _disk_split(bsq: np.ndarray, mu: float, k: int, j: int):
    """Orthonormal bases of the B^2-invariant subspaces of C^j inside and
    outside the circle |z| = mu, which must hold k of the n eigenvalues.

    The Cayley transform X0 = (B^2 + mu)^-1 (B^2 - mu) sends |z| < mu to the
    open left half-plane, so P = (I - sign X0) / 2 projects onto the small
    part along the large one.  sign X0 comes from the Newton iteration
    X <- (g X + (g X)^-1) / 2, scaled by g = sqrt(|X^-1|_F / |X|_F) until the
    relative step falls below _SIGN_SCALE_STOP, and stopped by Higham's
    quadratic-convergence rule |X_new - X| <= sqrt(eta |X_new| / |X^-1|),
    eta = n eps (Functions of Matrices, 2008, ch. 5).  A projector's nonzero
    singular values are at least 1, so with P = U S V^H its rank is the
    count of S > 1/2, range P = U[:, :k] is the small part and
    ker P = range(I - P) = V[:, k:] the large one.  An iteration that does
    not stop within _SIGN_STEPS steps (with its residual, the last relative
    step), or a rank other than k, raises SpectralBoundaryError."""
    n = bsq.shape[0]
    eye = np.eye(n, dtype=complex)
    eta = n * float(np.finfo(float).eps)
    scaled = True
    try:
        x = np.linalg.solve(bsq + mu * eye, bsq - mu * eye)
        for _ in range(_SIGN_STEPS):
            x_inv = np.linalg.inv(x)
            n_inv = _frobenius(x_inv)
            g = math.sqrt(n_inv / _frobenius(x)) if scaled else 1.0
            new = (0.5 * g) * x + (0.5 / g) * x_inv
            step, size = _frobenius(new - x), _frobenius(new)
            x = new
            if step <= math.sqrt(eta * size / n_inv):  # NaN continues
                break
            scaled = scaled and step > _SIGN_SCALE_STOP * size
        else:
            raise SpectralBoundaryError(
                f"degree {j}: the sign iteration at level {mu:.6g} did not "
                f"converge in {_SIGN_STEPS} steps (residual "
                f"{step / size:.3e})")
    except np.linalg.LinAlgError:
        raise SpectralBoundaryError(
            f"degree {j}: the sign iteration at level {mu:.6g} met a "
            f"singular matrix") from None
    u, s, vh = np.linalg.svd(0.5 * (eye - x))
    rank = int(np.sum(s > 0.5))
    if rank != k:
        raise SpectralBoundaryError(
            f"degree {j}: the spectral projector at level {mu:.6g} has rank "
            f"{rank} where the spectrum has {k} small of {n}")
    return u[:, :k], vh[k:].conj().T


def spectral_split(c: CochainComplex, g: ChiralityOp,
                   lam: float) -> SpectralSplit:
    """Split the complex along the spectrum of B^2 at a finite level lam >= 0.

    The small part collects the generalized eigenspaces with |eigenvalue|
    at most lam (for lam = 0: the numerically zero eigenvalues); the large
    part is its B^2-invariant complement.  Raises SpectralBoundaryError when
    lam falls inside an eigenvalue cluster, a block of B^2 overflows, or the
    disk split of a degree does not converge to a projector of the counted
    rank.
    """
    if not 0 <= lam < math.inf:
        raise ValidationError("split level must be finite and nonnegative")
    validate_chirality(c, g)
    d, blocks = c.d, _b_blocks(c, g)
    small_bases, large_bases = [None] * (d + 1), [None] * (d + 1)
    for j in range((d + 1) // 2):
        small, large = _split_degree(_bsq(blocks, j), lam, j)
        small_bases[j], large_bases[j] = small, large
        # Gamma commutes with B^2, so Gamma_j carries the split of C^j onto
        # that of C^{d-j}
        small_bases[d - j] = _gamma_image(g.gamma[j], small)
        large_bases[d - j] = _gamma_image(g.gamma[j], large)
    return SpectralSplit(lam,
                         _part_from_bases(c, g, small_bases),
                         _part_from_bases(c, g, large_bases))


def torsion_via_split(c: CochainComplex, g: ChiralityOp, lam: float,
                      frame: CohomologyFrame | None = None) -> CohomologyElement:
    """Refined torsion computed through a spectral split at level lam:
    graded determinant of the large part times the torsion of the small part,
    mapped into the cohomology frame of the full complex."""
    frame = _frame_for(c, frame)
    return _torsion_from_split(spectral_split(c, g, lam), frame)[0]


def _torsion_from_split(split: SpectralSplit, frame: CohomologyFrame):
    """Refined torsion of frame's complex through a split of it, together
    with the graded determinant of the large part and the refined torsion of
    the small part.  A part that is the complex itself shares frame.  An
    empty part, the zero complex, has det and torsion 1 and forms no frame;
    it carries the full cohomology only when frame is acyclic."""
    large, small = split.large, split.small
    large_frame, small_frame = (  # frame stands in for an empty part's
        frame if p.complex is frame.complex or not p.complex.dims.total
        else cohomology_frame(p.complex) for p in (large, small))
    det_large = (graded_det_finite(large.complex, large.chirality, large_frame)
                 if large.complex.dims.total else 1 + 0j)
    empty = not small.complex.dims.total
    if small_frame.betti != frame.betti or (empty and not frame.acyclic):
        raise SpectralBoundaryError(
            "small part does not carry the full cohomology")
    rho_small, w = CohomologyElement(1 + 0j, frame), 1 + 0j
    if not empty:
        rho_small = refined_torsion(small.complex, small.chirality,
                                    small_frame)
        w = alternating_det(frame.H[j].conj().T @ small.bases[j] @ h
                            for j, h in enumerate(small_frame.H))
    return (CohomologyElement(det_large * rho_small.coeff / w, frame),
            det_large, rho_small)


def _eig_input(m) -> list:
    """Eigenvalues of a finite square matrix, or a spectrum given as a flat
    list or tuple or as an array of another shape, as a list of complex."""
    if isinstance(m, (list, tuple)) and not (m and hasattr(m[0], "__len__")):
        return [complex(z) for z in m]
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        return a.ravel().tolist()
    if a.shape[0] != a.shape[1]:
        raise ValidationError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValidationError("matrix is not finite")
    return np.linalg.eigvals(a).tolist() if a.size else []


def _moduli(eigs: list) -> list:
    """Moduli of a spectrum whose values and moduli must all be finite."""
    if not all(map(cmath.isfinite, eigs)):
        raise ValidationError("spectrum is not finite")
    try:
        return [abs(z) for z in eigs]
    except OverflowError:  # a finite value whose modulus overflows
        raise ValidationError("spectrum is not finite") from None


def _split_zero(eigs: list):
    """Nonzero eigenvalues and the count of zero ones of a finite spectrum."""
    mods = _moduli(eigs)
    cut = _zero_cut(max(mods, default=0.0))
    nonzero = [z for z, r in zip(eigs, mods) if r > cut]
    return nonzero, len(eigs) - len(nonzero)


def _arg_in_window(z: complex, theta: float) -> float:
    """Argument of z in the window (theta, theta + 2*pi]."""
    a = cmath.phase(z)
    return a + 2 * math.pi * (math.floor((theta - a) / (2 * math.pi)) + 1)


def log_det_cut(m, theta: float) -> complex:
    """Log-determinant over the nonzero spectrum with the branch cut along
    the ray of angle theta: sum of log|z| + i arg(z), arg in (theta, theta+2pi).

    Accepts a square matrix, or its eigenvalues as a list, tuple or array of
    another shape.  Raises ValidationError for a non-finite theta and
    SpectralBoundaryError when an eigenvalue sits on the cut.
    """
    return _log_det(_split_zero(_eig_input(m))[0], theta)


def _log_det(eigs: list, theta: float) -> complex:
    """log_det_cut of a spectrum whose zero eigenvalues are already dropped;
    an exact zero left in it lies on every cut."""
    if not math.isfinite(theta):
        raise ValidationError("branch angle must be finite")
    total = 0.0 + 0.0j
    for z, r in zip(eigs, _moduli(eigs)):
        a = _arg_in_window(z, theta)
        if r == 0 or min(a - theta, theta + 2 * math.pi - a) < _RAY_TOL:
            raise SpectralBoundaryError(
                f"eigenvalue {z} lies on the branch cut at angle {theta}")
        total += math.log(r) + 1j * a
    return complex(total)


@dataclass(frozen=True)
class EtaData:
    eta: float
    asymmetry: int  # count(Re > 0) - count(Re < 0)
    m_plus: int
    m_minus: int
    m_zero: int


def eta_finite(m) -> EtaData:
    """Finite-dimensional eta invariant of a spectrum:
    (asymmetry + m_plus - m_minus + m_zero) / 2, where m_plus / m_minus count
    eigenvalues on the positive / negative imaginary axis."""
    return _eta(*_split_zero(_eig_input(m)))


def _eta(nonzero: list, m_zero: int) -> EtaData:
    """eta_finite of the nonzero eigenvalues and the count of zero ones."""
    axis = [z.imag > 0 for z in nonzero if abs(z.real) <= _RAY_TOL * abs(z)]
    m_plus, m_minus = sum(axis), len(axis) - sum(axis)
    asym = sum(1 if z.real > 0 else -1 for z in nonzero
               if abs(z.real) > _RAY_TOL * abs(z))
    return EtaData((asym + m_plus - m_minus + m_zero) / 2.0,
                   asym, m_plus, m_minus, m_zero)


def det_eta_check(m, theta: float) -> float:
    """Residual of the branch arithmetic identity

        LDet_theta(D) = (1/2) LDet_{2 theta}(D^2)
                        - i pi (eta(D) - (N_nonzero + m_zero) / 2),

    where N_nonzero counts nonzero eigenvalues of D^2 (the value of the
    finite-dimensional zeta function of D^2 at zero).  The zeros of D are
    decided once; the nonzero spectrum of D^2 is their squares.
    """
    nonzero, m_zero = _split_zero(_eig_input(m))
    lhs = _log_det(nonzero, theta)
    half = 0.5 * _log_det([z * z for z in nonzero], 2 * theta)
    rhs = half - 1j * math.pi * (_eta(nonzero, m_zero).eta
                                 - (len(nonzero) + m_zero) / 2.0)
    return abs(lhs - rhs)


def _agmon_arc(eigs) -> tuple[float, float]:
    """Upper end and width of the arc (-pi/2, bound) of Agmon angles theta
    of nonzero eigs: no z may lie in the sectors (-pi/2, theta] and
    (pi/2, theta + pi].  A z with parts of opposite signs leaves the width
    atan2(|Re z|, |Im z|); its phase may round to +-pi/2, the width not."""
    bound, width = 0.0, math.pi / 2
    for z in eigs:
        if z.real > 0 > z.imag or z.imag > 0 > z.real:
            a = cmath.phase(z)  # (-pi, pi]: a or a - pi lies in [-pi/2, 0]
            bound = min(bound, a - math.pi if a > 0 else a)
            width = min(width, math.atan2(abs(z.real), abs(z.imag)))
    return bound, width


def _agmon_midpoint(bound: float, width: float) -> float:
    """Midpoint of the admissible arc (-pi/2, bound), at least 1e-8 wide."""
    if width < 1e-8:
        raise SpectralBoundaryError("no admissible branch angle in (-pi/2, 0)")
    return (bound - math.pi / 2) / 2.0


def pick_agmon_angle(m) -> float:
    """Deterministic Agmon angle in (-pi/2, 0) for the det/eta identities:
    the midpoint of the admissible arc of _agmon_arc."""
    return _agmon_midpoint(*_agmon_arc(_split_zero(_eig_input(m))[0]))


def graded_det_via_xi_eta(c: CochainComplex, g: ChiralityOp, lam: float,
                          theta: float | None = None,
                          frame: CohomologyFrame | None = None) -> complex:
    """Graded determinant of B_even over the part of the spectrum above lam,
    assembled from half log-determinants of (Gamma d)^2 on the + subspaces
    and the eta invariant of B_even:

        exp(xi - i pi eta + i pi (N+ - N-) / 2),

    xi = (1/2) sum_{j<d} (-1)^j LDet_{2 theta}((Gamma d)^2 | C^j_+), and
    N+/- the even-degree dimensions of the +/- subspaces.  The correction
    term carries the finite-dimensional zeta(0) values (eigenvalue counts).
    On C_+ the operator B is Gamma d, so (Gamma d)^2 on the even C^j_+ is
    the square of the + block of B_even; Gamma_j carries (Gamma d)^2 on an
    odd C^j_+ to (d Gamma)^2 on the even C^{d-j}_-, the square of the -
    block.  So xi = (1/2) (LDet_{2 theta}(spec(B+)^2) -
    LDet_{2 theta}(spec(B-)^2)), from the eigenvalues that give eta.  The
    split decided the zeros, so every eigenvalue of the large part counts.
    frame, the cohomology frame of c when given, serves the large part when
    that part is c itself (lam = 0 on an acyclic complex).
    """
    if frame is not None:
        _frame_for(c, frame)  # a foreign frame is an error at any lam
    split = spectral_split(c, g, lam)
    cl, gl = split.large.complex, split.large.chirality
    num, den = _even_blocks(cl, gl, *plus_minus_split(
        cl, gl, frame if cl is c else None))
    eig_num, eig_den = _eig_input(num), _eig_input(den)
    # spec(B_even) is the union of its spectra on the + and - subspaces
    eigs = eig_num + [-z for z in eig_den]
    if theta is None:
        theta = _agmon_midpoint(*_agmon_arc(eigs))
    xi = 0.5 * (_log_det([z * z for z in eig_num], 2 * theta)
                - _log_det([z * z for z in eig_den], 2 * theta))
    eta = _eta(eigs, 0).eta
    return complex(cmath.exp(xi - 1j * math.pi * eta
                             + 1j * math.pi * (len(num) - len(den)) / 2.0))
