"""The odd signature operator of a chiral complex and its graded determinant.

For a complex (C, d) with chirality Gamma the signature operator is
B = Gamma d + d Gamma.  Its square preserves degrees, which allows splitting
the complex along the spectrum of B^2, and the graded determinant of the even
part of B recovers the refined torsion.  Log-determinants along a branch cut
(an Agmon angle) and the finite-dimensional eta invariant take a spectrum as
a Python list of complex; numpy only factorizes matrices.  B is never
formed whole: B^2 is read one degree at a time, B^2_j from d and Gamma by
one formula (_bsq), and B_even and B_odd are never assembled.

The cohomology frame gives C^j_- = ker d = B^j + H^j and, through Gamma,
C^j_+.  The +/- independence test reads principal angles off the unitary
frame, through its invertibility kernel, applied to the Gamma-images as
they are; only a block it leaves open orthonormalizes its Gamma-image (by
QR), and no basis of C_+ is handed out.  Gamma commutes with B and carries
C^j_+ onto C^{d-j}_-, so B_even on the even + subspaces is similar to
d Gamma on the odd - subspaces: d Gamma on the odd and on the even -
subspaces, in the frame's bases, gives the graded determinant and,
through its spectra, eta and xi.  On the - subspaces d Gamma sends degree
s to d+1-s, so each parity is read one degree pair at a time (_det_blocks
derives a pair's determinant and spectrum).  A split decides each degree
pair (j, d-j) in degree j from the spectrum of B^2 and carries the result
to degree d-j by Gamma_j.  The eigenvalues of the B^2 block decide, save
that at lam = 0 the invertibility kernel first settles a block with no
zero eigenvalue.  When one side of a degree is empty the other is the
whole degree, so nothing is factorized; a side that fills every degree is
the complex itself, and a side empty in every degree is the zero
complex.  Only a proper split factorizes, with numpy alone: the matrix
disk function, the sign of a Cayley transform of B^2 by a scaled Newton
iteration, gives the spectral projector onto the small part, and one SVD
of it gives orthonormal bases of both parts.  A part's blocks are d and
Gamma restricted to its bases, each with a residual check, except where
the check cannot fail.  For j < (d+1)/2 the part's basis Q of C^{d-j}
comes from the QR Gamma_j U_j = Q R of the image of its basis U_j of
C^j, so its Gamma_j block Q^H Gamma_j U_j = Q^H Q R is R itself; and a
square basis is unitary, so a restriction onto it takes no residual.

What a chiral pair (c, g) gives that no split level changes is derived
once per pair and kept in its record, beside the frame that c keeps: per
degree j < (d+1)/2 the moduli of spec B^2_j and the lam = 0 verdict of
the invertibility kernel, and the graded determinant (phi's determinant
sits on c itself).  The record is one plain dict, which holds numbers,
never a matrix, and goes with either member.  Each entry is written as it
is derived and is an exact function of the pair, so a call that raises
keeps what it derived before the raise, and the next call raises the same
message.  So a split forms a B^2 block only for what the record lacks and
for a proper split, and a large part that is the complex itself reads its
graded determinant off the record.  xi/eta takes the B_even spectra afresh
on each call.  A proper part is a new complex on each split: it pays for
its own frame and record every time.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .complexes import (CochainComplex, CohomologyElement, CohomologyFrame,
                        _columns, _readonly, _sigma_min_above, _zero_cut,
                        cohomology_frame)
from .errors import (SpectralBoundaryError, ValidationError, _exp_in_range,
                     _in_range)
from .gradedlinalg import GradedDims, alternating_det
from .torsion import (ChiralityOp, _frame_for, refined_torsion,
                      validate_chirality)

__all__ = [
    "SignatureOp",
    "build_signature",
    "graded_det_finite",
    "SpectralPart",
    "SpectralSplit",
    "spectral_split",
    "torsion_via_split",
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
_SPLIT_TOL = 1e-8  # bound on torsion through a split against refined torsion
_SIGN_STEPS = 50  # Newton sign steps before a split counts as not converged
_SIGN_SCALE_STOP = 1e-2  # relative step below which the scaling stops


def _bsq(c: CochainComplex, g: ChiralityOp, j: int) -> np.ndarray:
    """B^2 restricted to C^j, formed from d and Gamma one term at a time,
    each the product of two degree blocks of B:

        B^2_j = Gamma_{d-j} d_{d-j-1} Gamma_{j+1} d_j     (j < d)
              + d_{j-1} Gamma_{d-j+1} d_{d-j} Gamma_j     (j > 0),

    through C^{d-j-1} and C^{d-j+1}, added to 0 in that order.  No other
    block of B is formed."""
    d, p, gamma = c.d, c.partial, g.gamma
    bsq = 0
    if j < d:
        bsq += (gamma[d - j] @ p[d - j - 1]) @ (gamma[j + 1] @ p[j])
    if j > 0:
        bsq += (p[j - 1] @ gamma[d - j + 1]) @ (p[d - j] @ gamma[j])
    return bsq


@dataclass(frozen=True, eq=False)
class SignatureOp:
    """B = Gamma d + d Gamma of a chiral pair, read one degree at a time:
    bsq_block(j) is B^2 on C^j (_bsq), for an integer 0 <= j <= d (a numpy
    integer too; a bool is not a degree)."""

    complex: CochainComplex
    chirality: ChiralityOp

    def bsq_block(self, j: int) -> np.ndarray:
        if (isinstance(j, bool) or not hasattr(type(j), "__index__")
                or not 0 <= j <= self.complex.d):
            raise ValidationError(f"degree must be an integer in "
                                  f"0..{self.complex.d}, got {j!r}")
        return _bsq(self.complex, self.chirality, int(j))


def build_signature(c: CochainComplex, g: ChiralityOp) -> SignatureOp:
    validate_chirality(c, g)
    return SignatureOp(c, g)


def _gamma_image(gamma: np.ndarray, basis: np.ndarray):
    """Orthonormal basis Q (columns) of gamma applied to the span of basis
    (independent columns; gamma invertible), and the factor R of
    gamma basis = Q R when a QR gave Q, else None.  An empty image stays
    empty and a full one is the whole space, so neither is formed or
    factorized."""
    rows, cols = gamma.shape[0], basis.shape[1]
    if cols == 0:
        return np.zeros((rows, 0), dtype=complex), None
    if cols == rows:
        return np.eye(rows, dtype=complex), None
    return np.linalg.qr(gamma @ basis)


def _restrict(basis: np.ndarray, image: np.ndarray, what: str) -> np.ndarray:
    """Coordinates of image's columns in the span of basis (orthonormal
    columns), with a residual check that the span really contains them; a
    NaN residual fails it.  A square basis is unitary and spans its whole
    space, which contains every image, so it takes no residual.  The
    largest entry of the image is read only when the residual exceeds
    _RESTRICT_TOL, the bound at an image of entries at most 1, so the
    verdict is that of res <= _RESTRICT_TOL max(1, max |image|)."""
    x = basis.conj().T @ image
    if image.size and basis.shape[0] != basis.shape[1]:
        r = basis @ x
        r -= image
        res = float(np.abs(r).max())
        if not res <= _RESTRICT_TOL and not res <= _RESTRICT_TOL * max(
                1.0, float(np.abs(image).max())):
            raise ValidationError(f"{what}: subspace is not invariant "
                                  f"(residual {res:.3e})")
    return x


def _restricted(op, source, target, what: str) -> np.ndarray:
    """Matrix of op from span(source) to span(target) through _restrict;
    empty, with nothing formed, when either basis is empty."""
    if source.shape[1] and target.shape[1]:
        return _restrict(target, op @ source, what)
    return np.zeros((target.shape[1], source.shape[1]), dtype=complex)


def _minus_bases(c: CochainComplex, g: ChiralityOp):
    """Orthonormal bases M^j of C^j_- = ker(d_j) = B^j + H^j off the
    cohomology frame that c keeps (a lone B^j or H^j as it stands,
    read-only), and {d-j: Y} of the Gamma-images
    Y = Gamma_{d-j} M^{d-j}, which span C^j_+, that the +/- test formed.
    The test raises SpectralBoundaryError unless C^j_+ and C^j_- intersect
    trivially and span C^j, the bijectivity condition for B.

    [B^j | H^j | A^j] is unitary, so for P an orthonormal basis of C^j_+,
    s = sigma_min((A^j)^H P) is the sine of the least angle between the two
    and sigma_min([P | M^j]) = s / sqrt(1 + sqrt(1 - s^2)).  With Y = P R,
    (A^j)^H Y = ((A^j)^H P) R and ||R||_2 = ||Y||_2 <= ||Y||_F, so the
    invertibility kernel _sigma_min_above certifying sigma_min((A^j)^H Y) >
    2 _PM_TOL ||Y||_F proves s > 2 _PM_TOL, a pass.  Only a block it leaves
    open takes P by QR and one values-only SVD of (A^j)^H P, which decides
    and reports as without the certificate.
    """
    validate_chirality(c, g)
    frame, d = cohomology_frame(c), c.d
    minus = [_columns(bh) for bh in zip(frame.B, frame.H)]
    images = {}
    for j, m in enumerate(minus):
        source = minus[d - j]
        if source.shape[1] + m.shape[1] != c.dims.dims[j]:
            raise SpectralBoundaryError(
                f"degree {j}: ker(dGamma) + ker(d) does not split C^{j} "
                f"(B is not bijective)")
        if source.shape[1] and m.shape[1]:
            y = images[d - j] = g.gamma[d - j] @ source
            a_h = frame.A[j].conj().T
            # s > 2 _PM_TOL gives sigma_min([P | M]) > sqrt(2) _PM_TOL
            if _sigma_min_above(a_h @ y, 2 * _PM_TOL * _frobenius(y)):
                continue
            p = np.linalg.qr(y)[0]
            s = float(np.linalg.svd(a_h @ p, compute_uv=False)[-1])
            smallest = s / math.sqrt(1.0 + math.sqrt(max(0.0, 1.0 - s * s)))
            if smallest < _PM_TOL:
                raise SpectralBoundaryError(
                    f"degree {j}: the +/- subspaces are numerically dependent "
                    f"(sigma_min {smallest:.1e} < {_PM_TOL:.0e})")
    return minus, images


def _det_blocks(c: CochainComplex, g: ChiralityOp):
    """The tables {(t, s): block} of d Gamma on the odd and on the even -
    subspaces, in the orthonormal bases of C_- that _minus_bases gives once
    the +/- test has passed; no basis of C_+ is formed, and no parity block
    is assembled.

    On C_- = ker d, B is d Gamma, one block d_{d-s} Gamma_s from degree s
    to t = d+1-s (of the parity of s) at a time, so no Gamma d block is
    formed.  The even table is B_even on the even - subspaces.  Gamma
    commutes with B and carries C^j_+ onto C^{d-j}_-, so the odd table
    gives an operator similar to B_even on the even + subspaces: the same
    determinant and spectrum.  The test's dimension check gives
    dim C^s_- = dim C^{d+1-s}_- (and H = 0), so each pair s < t = d+1-s
    is two square n x n blocks P = table[t, s] and Q = table[s, t], and
    the pair's block is [[0, Q], [P, 0]] once its degrees are permuted
    next to each other, a similarity.  Swapping its halves is n
    transpositions, so its determinant is (-1)^n det P det Q; its square
    is diag(QP, PQ), and by the Schur complement its characteristic
    polynomial is det(z^2 - QP), and spec(QP) = spec(PQ), so its spectrum
    is +-sqrt(nu) over nu in spec(PQ) and the pair adds nothing to eta.
    Bases that fill every degree of a parity are that whole space:
    its blocks are used as they stand, with nothing restricted.  Elsewhere
    each Gamma_s M^s the test formed is used again."""
    minus, images = _minus_bases(c, g)
    d, n = c.d, c.dims.dims

    def image(s):  # Gamma_s M^s
        return images[s] if s in images else g.gamma[s] @ minus[s]

    def side(parity):  # d Gamma on the - subspaces of the parity
        sources = range(2 - parity, d + 1, 2)  # s > 0, so that d-s+1 <= d
        if all(minus[s].shape[1] == n[s] for s in range(parity, d + 1, 2)):
            return {(d - s + 1, s): c.partial[d - s] @ g.gamma[s]
                    for s in sources}
        what = "B- odd" if parity else "B- even"
        return {(d - s + 1, s): _restricted(c.partial[d - s], image(s),
                                            minus[d - s + 1], what)
                for s in sources}
    return side(1), side(0)


def _pair_spectrum(p: np.ndarray, q: np.ndarray) -> list:
    """Spectrum of [[0, Q], [P, 0]]: +-sqrt(nu) over nu in spec(PQ)."""
    roots = [cmath.sqrt(nu) for nu in _eig_input(p @ q)]
    return roots + [-r for r in roots]


def _side_spectrum(table: dict) -> list:
    """Spectrum of a _det_blocks table's operator, unit by unit: each
    nonempty self-paired block, and each pair s < t through
    (P, Q) = (table[t, s], table[s, t])."""
    return [z for (t, s), b in table.items() if b.size and s <= t
            for z in (_eig_input(b) if s == t
                      else _pair_spectrum(b, table[s, t]))]


def _side_log_det(table: dict) -> complex:
    """Log-determinant of a _det_blocks table's operator: over its nonempty
    blocks, the sum of slogdet's log-modulus and phase, and i pi for each
    pair of n x n blocks of odd n, the pair's sign (-1)^n.  A block whose
    slogdet sign is 0 (an LU pivot that is exactly 0) is singular: B_even
    is not bijective."""
    total = 0j
    for (t, s), b in table.items():
        if b.size:
            sign, log_mod = np.linalg.slogdet(b)
            if sign == 0:
                raise SpectralBoundaryError("B_even is not bijective")
            pair = s < t and b.shape[0] % 2
            total += complex(log_mod, cmath.phase(sign) + math.pi * pair)
    return total


def graded_det_finite(c: CochainComplex, g: ChiralityOp) -> complex:
    """Graded determinant det(B+_even) / det(-B-_even) of a bijective even
    part, in the orthonormal bases of the - subspaces read off the
    cohomology frame that c keeps: det(B+_even) is that of
    d Gamma on the odd - subspaces (_det_blocks), so no Gamma-image is
    orthonormalized, and det(-B-_even) is (-1)^m det(B-_even) over its m
    dimensions.  It is taken as one log, _side_log_det of the odd table
    less that of the even one and i pi m mod 2 pi, with one slogdet per
    block: two n x n LU factorizations for a pair in place of one of order
    2n, and no product that can leave the float range on the way.  The
    graded determinant of a bijective B_even is never 0, so its exp must
    lie in the float range (_exp_in_range), the exit and the message of
    graded_det_via_xi_eta.  It depends on the pair alone, so the pair's
    record keeps it: a second call on (c, g) factorizes nothing."""
    kept = c._pairs.setdefault(g, {})
    if "graded_det" not in kept:
        odd, even = _det_blocks(c, g)
        m = sum(b.shape[1] for b in even.values())
        log = (_side_log_det(odd) - _side_log_det(even)
               - 1j * math.pi * (m % 2))
        kept["graded_det"] = _exp_in_range(
            log, " (the graded determinant of B_even)")
    return kept["graded_det"]


@dataclass(frozen=True, eq=False)
class SpectralPart:
    """A B^2-invariant piece of a chiral complex, with the embedding bases
    (orthonormal columns) and the restricted differentials and chirality."""

    bases: tuple[np.ndarray, ...]
    complex: CochainComplex
    chirality: ChiralityOp


@dataclass(frozen=True, eq=False)
class SpectralSplit:
    small: SpectralPart
    large: SpectralPart


def _part_from_bases(c: CochainComplex, g: ChiralityOp, bases,
                     gamma_r: dict) -> SpectralPart:
    """The part of (c, g) spanned by bases; when every basis fills its degree
    (it is then the identity) the part is (c, g) itself, and when every basis
    is empty it is the zero complex, built from 0 x 0 blocks with nothing
    restricted.

    gamma_r holds {j: R} where bases[d-j] = Q came from the QR
    Gamma_j bases[j] = Q R.  There the part's Gamma_j block, the
    coordinates Q^H Gamma_j bases[j] of the image in the basis Q, is R
    itself, and a residual check would test that Q spans Q R, which holds
    by construction.  Every other block is restricted with its check.

    (c, g) passed its own checks, so a failed check here, of a restriction
    or of the part's d.d = 0 or Gamma^2 = 1, is the split's own rounding:
    it raises SpectralBoundaryError, with the check's text."""
    if all(b.shape[0] == b.shape[1] for b in bases):
        return SpectralPart(tuple(bases), c, g)
    d = c.d
    dims = GradedDims(tuple(b.shape[1] for b in bases))
    if not dims.total:  # the zero complex: every block is 0 x 0
        empty = np.zeros((0, 0), dtype=complex)
        return SpectralPart(tuple(bases), CochainComplex(dims, (empty,) * d),
                            ChiralityOp((empty,) * (d + 1)))
    try:
        partial = tuple(
            _restricted(c.partial[j], bases[j], bases[j + 1],
                        f"d restricted, degree {j}")
            for j in range(d))
        gamma = tuple(
            gamma_r[j] if j in gamma_r else
            _restricted(g.gamma[j], bases[j], bases[d - j],
                        f"Gamma restricted, degree {j}")
            for j in range(d + 1))
        return SpectralPart(tuple(bases), CochainComplex(dims, partial),
                            ChiralityOp(gamma))
    except ValidationError as exc:
        raise SpectralBoundaryError(str(exc)) from exc


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm; on the small blocks of a split np.linalg.norm takes
    about twice as long per call."""
    return math.sqrt(np.vdot(a, a).real)


def _bsq_entry(kept: dict, name: str, j: int, bsq):
    """The entry (name, j) of a pair's record kept, for a degree
    j < (d+1)/2 with C^j nonempty: the invertibility kernel's verdict on
    B^2_j ("invertible") or the moduli of its spectrum, read-only
    ("moduli").  It is derived on first read from the block bsq() forms,
    and written into the record at once; a block that is not finite (an
    overflow) is a numerical boundary."""
    if (name, j) not in kept:
        b = bsq()
        if not np.isfinite(b).all():
            raise SpectralBoundaryError(
                f"degree {j}: the B^2 block is not finite (overflow)")
        kept[name, j] = (_sigma_min_above(b) if name == "invertible" else
                         _readonly(np.abs(np.linalg.eigvals(b))))
    return kept[name, j]


def _split_degree(bsq, n: int, lam: float, j: int, kept: dict):
    """Orthonormal bases of the small and large B^2-invariant subspaces of
    C^j, n = dim C^j.  bsq() forms the B^2 block of C^j; it is called at
    most once, and only for what the pair's record kept lacks
    (_bsq_entry) and for a proper split.
    The eigenvalues mu decide how many are small, k: at lam > 0 those with
    |mu| <= lam, unless some |mu| lies within _CLUSTER_RTOL max(lam, 1,
    max |mu|) of lam (a cluster, a numerical boundary); at lam = 0 those
    with |mu| <= _zero_cut(max |mu|), a cut relative to the block's own
    scale.  At lam = 0 the invertibility kernel _sigma_min_above first
    settles k = 0 where it can: every eigenvalue has |mu| >= sigma_min, so
    sigma_min > _zero_cut(sigma_max) >= _zero_cut(max |mu|) leaves none
    zero.  Below 16 columns the kernel answers by exactly that rule, from
    16 on by its Cholesky certificate, whose floor is at least that cut;
    its False settles nothing.  Neither depends on lam, so kept holds the
    kernel's verdict and the moduli |mu|, each taken once per pair.  A
    proper split (0 < k < n) takes the disk split at a level mu inside the
    gap the eigenvalues leave: lam itself when lam > 0.  At lam = 0 it is
    half the smallest modulus outside the zero cluster, or the geometric
    mean of that and the largest modulus inside when this is larger; B^2 +
    mu then stays as well conditioned as the gap allows."""
    if n == 0:
        empty = np.zeros((0, 0), dtype=complex)
        return empty, empty
    block = functools.cache(bsq)  # the one block of this call
    k = 0
    if lam > 0 or not _bsq_entry(kept, "invertible", j, block):
        mods = _bsq_entry(kept, "moduli", j, block)
        top = float(mods.max())
        if lam > 0:
            gap = np.min(np.abs(mods - lam))
            if gap <= _CLUSTER_RTOL * max(lam, 1.0, top):
                raise SpectralBoundaryError(
                    f"degree {j}: split level {lam} inside an eigenvalue "
                    f"cluster (gap {gap:.3e})")
        small = mods <= (lam if lam > 0 else _zero_cut(top))
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
    return _disk_split(block(), mu, k, j)


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
        size = _frobenius(x)  # |X|_F, carried from one step to the next
        for _ in range(_SIGN_STEPS):
            x_inv = np.linalg.inv(x)
            n_inv = _frobenius(x_inv)
            g = math.sqrt(n_inv / size) if scaled else 1.0
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
    rank.  What decides each degree is kept in the pair's record
    (_split_degree), so a later split of the pair, at any level, forms
    B^2 only for a proper split.
    """
    if not 0 <= lam < math.inf:
        raise ValidationError("split level must be finite and nonnegative")
    validate_chirality(c, g)
    d, kept = c.d, c._pairs.setdefault(g, {})
    parts = [([None] * (d + 1), {}) for _ in range(2)]  # small, large
    for j in range((d + 1) // 2):
        halves = _split_degree(functools.partial(_bsq, c, g, j),
                               c.dims.dims[j], lam, j, kept)
        for (bases, gamma_r), u in zip(parts, halves):
            # Gamma commutes with B^2, so Gamma_j carries the split of C^j
            # onto that of C^{d-j}
            bases[j] = u
            bases[d - j], r = _gamma_image(g.gamma[j], u)
            if r is not None:
                gamma_r[j] = r
    return SpectralSplit(*(_part_from_bases(c, g, *p) for p in parts))


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
    the small part.  Each part's graded determinant or torsion reads the
    frame its own complex keeps, and the record of its pair, computed on
    first read: a part that is the complex itself has frame's bases and
    the pair's record, and a proper part, a new complex on each split, is
    factorized once.  An empty part, the zero complex, has det and torsion
    1 and forms no frame; its Betti numbers are 0, so it carries the full
    cohomology only when frame is acyclic."""
    large, small = split.large, split.small
    det_large = (graded_det_finite(large.complex, large.chirality)
                 if large.complex.dims.total else 1 + 0j)
    empty = not small.complex.dims.total
    small_frame = None if empty else cohomology_frame(small.complex)
    betti = small.complex.dims.dims if empty else small_frame.betti
    if betti != frame.betti:
        raise SpectralBoundaryError(
            "small part does not carry the full cohomology")
    rho_small, w = CohomologyElement(1 + 0j, frame), 1 + 0j
    if not empty:
        rho_small = refined_torsion(small.complex, small.chirality)
        w = alternating_det(frame.H[j].conj().T @ small.bases[j] @ h
                            for j, h in enumerate(small_frame.H))
    return (CohomologyElement(det_large * rho_small.coeff / w, frame),
            det_large, rho_small)


def _eig_input(m) -> list:
    """A spectrum as a list of complex: a 0-D or 1-D input (a flat list or
    tuple read without numpy) as it stands, a 2-D one, a finite square
    matrix, by its eigenvalues.  Any other input, a 3-D array or a ragged
    nesting, raises ValidationError."""
    try:
        if isinstance(m, (list, tuple)) and not (
                m and hasattr(m[0], "__len__")):
            return [complex(z) for z in m]
        a = np.asarray(m, dtype=complex)
    except (TypeError, ValueError):  # a ragged nesting, or not numbers
        a = None
    if a is None or a.ndim > 2:
        raise ValidationError("input is neither a spectrum nor a matrix")
    if a.ndim < 2:
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


def _squares(eigs) -> list:
    """The squares of a finite spectrum, each finite (_in_range): a square
    that overflows is a numerical boundary of the arithmetic, not an input
    that is not finite.  A zero stays a zero, for _log_det to refuse."""
    return [_in_range(z * z, "the square of an eigenvalue", nonzero=False)
            for z in eigs]


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


def _log_det(eigs: list, theta: float) -> complex:
    """Log-determinant of a spectrum whose zero eigenvalues are already
    dropped, with the branch cut along the ray of angle theta: the sum of
    log|z| + i arg(z), arg in (theta, theta + 2 pi].  Raises ValidationError
    for a non-finite theta and SpectralBoundaryError when an eigenvalue
    sits on the cut; an exact zero left in it lies on every cut."""
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
    decided once; the nonzero spectrum of D^2 is their squares (_squares).
    A spectrum that is not finite raises ValidationError; a finite one
    whose square leaves the float range, SpectralBoundaryError.
    """
    nonzero, m_zero = _split_zero(_eig_input(m))
    lhs = _log_det(nonzero, theta)
    half = 0.5 * _log_det(_squares(nonzero), 2 * theta)
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


def graded_det_via_xi_eta(c: CochainComplex, g: ChiralityOp,
                          lam: float) -> complex:
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
    blocks are those of _det_blocks, so the + block is d Gamma on the odd
    - subspaces, similar to it through Gamma, and no Gamma-image is
    orthonormalized.  Each spectrum is taken one unit at a time: the
    eigenvalues of a self-paired block, and for a pair +-sqrt(nu) over nu
    in spec(PQ) (_det_blocks, _pair_spectrum), from one n x n matrix in
    place of a 2n x 2n one.  Both roots of each nu are listed, so a pair
    adds nothing to eta and twice LDet_{2 theta}(nu) to its side of xi.
    The split decided the zeros, so every eigenvalue of the large part
    counts.  The graded determinant is never 0, so its exp must lie in the
    float range (_exp_in_range), as graded_det_finite's does, with the same
    message.  The blocks read the frame that the large part's complex
    keeps, and theta is the midpoint of the admissible arc of its spectrum
    (pick_agmon_angle's rule); the value does not depend on which
    admissible theta is taken.
    """
    large = spectral_split(c, g, lam).large
    odd, even = _det_blocks(large.complex, large.chirality)
    eig_plus, eig_minus = _side_spectrum(odd), _side_spectrum(even)
    # spec(B_even) is the union of its spectra on the + and - subspaces
    eigs = eig_plus + eig_minus
    theta = _agmon_midpoint(*_agmon_arc(eigs))
    xi = 0.5 * (_log_det(_squares(eig_plus), 2 * theta)
                - _log_det(_squares(eig_minus), 2 * theta))
    eta = _eta(eigs, 0).eta
    z = (xi - 1j * math.pi * eta
         + 1j * math.pi * (len(eig_plus) - len(eig_minus)) / 2.0)
    return _exp_in_range(z, " (the graded determinant of B_even)")
