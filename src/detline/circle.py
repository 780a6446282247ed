"""Closed-form torsion model for a flat line bundle over the circle.

The even signature operator of the model has spectrum {n + a : n in Z} for a
holonomy exponent a with 0 < Re a < 1 (so the twisted cohomology vanishes).
Every quantity of interest is a function of this spectrum: the eta invariant,
the regularized log-determinant xi, the analytic torsion rho = exp(xi - i pi
eta) with closed form 1 - exp(2 pi i a), and the Ray-Singer norm.

Zeta regularization needs the Hurwitz zeta function only at s = 0, where
its value 1/2 - q and Lerch's derivative log Gamma(q) - (1/2) log(2 pi) are
closed form.  log Gamma is pure Python: Stirling's series at q + 7, on an
exact table of the Bernoulli numbers B_0 .. B_18, shifted back by the
recurrence Gamma(q + 1) = q Gamma(q).  The branch angle obeys the finite
model's Agmon rule on a and a - 1, which carry the arguments nearest the
sector edges over all n in Z: exact, with no truncation.  Spectra are Python
lists of complex, as in signature, where numpy only factorizes matrices;
this model has none, and imports no numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (SpectralBoundaryError, ValidationError, _exp_in_range,
                     _in_range)
from .signature import _agmon_arc, _agmon_midpoint, _eta, _log_det

__all__ = [
    "CircleModel",
    "hurwitz_zeta_deriv0",
    "eta_circle",
    "xi_circle",
    "rho_an_circle",
    "rho_an_closed",
    "rs_torsion_circle",
    "rs_norm_check",
    "duality_check",
    "metric_scale_check",
    "zeta_zero_check",
    "split_check",
]

# B_0 .. B_18; every numerator and denominator is below 2^53, so each entry
# is the correctly rounded rational
_B = (1.0, -1 / 2, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0,
      5 / 66, 0.0, -691 / 2730, 0.0, 7 / 6, 0.0, -3617 / 510, 0.0,
      43867 / 798)
# Stirling coefficients B_2k / (2k (2k - 1)), k = 1 .. 9, highest first;
# the first omitted term is below 2e-16 at |q + 7| >= 7
_STIRLING = tuple(_B[2 * k] / (2 * k * (2 * k - 1)) for k in range(9, 0, -1))
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_CUT_TOL = 1e-9  # least sector margin of a branch angle, on the squares
# where an exp of the model leaves the float range ({0} is the exponent):
# |rho_an| grows like exp(2 pi |Im a|) for Im a < 0, and the Ray-Singer
# values shrink like exp(-pi |Im a|)
_AT_A = " at Re a = {1.real:g}, Im a = {1.imag:g}"


@dataclass(frozen=True)
class CircleModel:
    """Holonomy exponent a (0 < Re a < 1) and metric scale.  Every quantity
    is closed form in a, so there is no truncation depth."""

    a: complex
    scale: float = 1.0

    def __post_init__(self):
        a = complex(self.a)
        if not cmath.isfinite(a):
            raise ValidationError(f"holonomy exponent {a} is not finite")
        if not 0.0 < a.real < 1.0:
            raise ValidationError("need 0 < Re a < 1 (acyclic range)")
        if not math.isfinite(self.scale):
            raise ValidationError(f"scale {self.scale} is not finite")
        if self.scale <= 0:
            raise ValidationError("scale must be positive")
        object.__setattr__(self, "a", a)


def _loggamma(q: complex) -> complex:
    """log Gamma(q) for Re q > 0, on the branch continuous from the positive
    axis: Stirling's series at z = q + 7, minus log(q (q+1) ... (q+6)).
    That log is taken in pairs: each factor has its argument in
    (-pi/2, pi/2), so a product of two stays on the principal branch."""
    z = q + 7
    w = 1.0 / (z * z)
    tail = 0.0
    for c in _STIRLING:
        tail = tail * w + c
    log_z = cmath.log(z)
    return (z * log_z - z - 0.5 * log_z + _HALF_LOG_2PI + tail / z
            - cmath.log(q * (q + 1)) - cmath.log((q + 2) * (q + 3))
            - cmath.log((q + 4) * (q + 5)) - cmath.log(q + 6))


def hurwitz_zeta_deriv0(q: complex) -> complex:
    """d/ds at s=0 of the Hurwitz zeta: log Gamma(q) - (1/2) log(2 pi)."""
    q = complex(q)
    if q.real <= 0:
        raise ValidationError("hurwitz_zeta_deriv0 needs Re q > 0")
    return _loggamma(q) - _HALF_LOG_2PI


def _zeta0(q: complex) -> complex:
    """zeta(0, q) = 1/2 - q."""
    return 0.5 - q


def eta_circle(m: CircleModel) -> complex:
    """Eta invariant of the spectrum {n + a}: (zeta(0,a) - zeta(0,1-a)) / 2,
    which continues the signed count asymmetry; equals (1 - 2a)/2.
    Independent of the metric scale."""
    return 0.5 * (_zeta0(m.a) - _zeta0(1.0 - m.a))


def _agmon_angle(m: CircleModel, theta: float | None) -> float:
    """theta when it is an Agmon angle of the spectrum {n + a}; when None,
    pick_agmon_angle's midpoint of the admissible arc (-pi/2, bound).  Over
    n in Z the arguments nearest the sector edges belong to n = 0 and
    n = -1, so bound, the lower of their two, is exact.  theta must lie in
    the arc at least _CUT_TOL from either end, measured on the squares (the
    cut is 2 theta); if not, SpectralBoundaryError names n and the margin."""
    (b0, w0), (b1, w1) = _agmon_arc([m.a]), _agmon_arc([m.a - 1.0])
    n, bound = (0, b0) if b0 <= b1 else (-1, b1)
    if theta is None:
        theta = _agmon_midpoint(bound, min(w0, w1))
    if not -math.pi / 2 < theta < 0.0:
        raise ValidationError("branch angle must lie in (-pi/2, 0)")
    margin = 2.0 * min(bound - theta, theta + math.pi / 2)
    if not margin >= _CUT_TOL:
        raise SpectralBoundaryError(
            f"theta {theta:.17g} is not an Agmon angle clear of the sector "
            f"edges: the admissible arc is (-pi/2, {bound:.17g}), set by "
            f"n={n}; sector margin {margin:.3g} < tolerance {_CUT_TOL:g}")
    return theta


def xi_circle(m: CircleModel, theta: float | None = None) -> complex:
    """Half the regularized log-determinant of the squared spectrum
    {scale^2 (n+a)^2 : n in Z}:

        xi = -zeta'(0,a) - zeta'(0,1-a) + (zeta(0,a) + zeta(0,1-a)) log(scale)

    which for the principal branch equals log(2 sin(pi a)); the scale term
    vanishes because the zeta values at 0 cancel.  theta (as in _agmon_angle)
    does not enter: no squared eigenvalue lies between two admissible cuts."""
    _agmon_angle(m, theta)
    xi = -(hurwitz_zeta_deriv0(m.a) + hurwitz_zeta_deriv0(1.0 - m.a))
    xi += (_zeta0(m.a) + _zeta0(1.0 - m.a)) * math.log(m.scale)
    return complex(xi)


def rho_an_circle(m: CircleModel, theta: float | None = None) -> complex:
    """Analytic torsion of the model, exp(xi - i pi eta); theta as in xi.
    For Im a > 0, Re xi and pi Im eta (each ~ pi Im a) cancel in the
    exponent, which costs ~ pi Im a eps of relative precision: against
    rho_an_closed at Re a = 0.3 the relative error is 1.4e-12 at Im a = 1e3,
    1.1e-9 at 1e6 and 1.8e-8 at 1e7.  No check bounds that error: only the
    Agmon arc's width rule (no arc narrower than 1e-8, here ~0.7 / Im a)
    refuses, from Im a ~ 7e7, and the sector margin _CUT_TOL from ~7e8.
    With both bypassed the error is 2.6e-7 at 1e8, 3.3e-3 at 1e12 and 0.62
    at 1e15 (rho_an_closed = 1), so a change to either rule needs a
    precision guard of its own.  rho_an is never 0, so it must lie in
    the normal float range: for Im a < 0, |rho_an| leaves it past
    Im a ~ -113, and rho_an ~ -2 pi i a falls below it for real a below
    about 3.54e-309; the CLI exits 3."""
    return _rho_from_xi(m, xi_circle(m, theta))


def _rho_from_xi(m: CircleModel, xi: complex) -> complex:
    return _exp_in_range(xi - 1j * math.pi * eta_circle(m), _AT_A, (m.a,))


def rho_an_closed(m: CircleModel) -> complex:
    """Closed form 1 - exp(2 pi i a) (combinatorial value, scale free);
    exp(2 pi i a) may round to 0 at large Im a, where the value is 1.  The
    value itself is never 0 on 0 < Re a < 1, so it must lie in the normal
    float range: at real a below about 3.54e-309 it underflows."""
    value = 1.0 - _exp_in_range(2j * math.pi * m.a, _AT_A, (m.a,),
                                nonzero=False)
    # _AT_A reads a as {1}, after the value
    return _in_range(value, "1 - exp(2 pi i a)", _AT_A, (value, m.a))


def rs_torsion_circle(m: CircleModel) -> float:
    """Ray-Singer torsion exp(-(1/2) LDet Delta_1), where the one-form
    Laplacian has spectrum {scale^2 ((n + Re a)^2 + (Im a)^2)}; in closed
    form 1 / |2 sin(pi a)|, about exp(-pi |Im a|), which leaves the normal
    float range past |Im a| ~ 225.5 and raises SpectralBoundaryError
    there."""
    # |2 sin(pi a)|^2 = (2 sin pi a)(2 sin pi conj(a)) makes LDet Delta twice
    # the real part of xi; the scale drops out with the zeta values at 0.
    return _exp_in_range(-xi_circle(m).real, _AT_A, (m.a,)).real


def rs_norm_check(m: CircleModel) -> tuple[float, float]:
    """Ray-Singer norm of rho_an versus the closed-form target exp(pi Im eta),
    both factors from one xi.  For real a both are 1.  Past Im a ~ 225.5
    the torsion and the target leave the normal float range, and
    SpectralBoundaryError names it."""
    xi = xi_circle(m)
    value = abs(_rho_from_xi(m, xi)) * _exp_in_range(-xi.real, _AT_A,
                                                     (m.a,)).real
    target = _exp_in_range(math.pi * complex(eta_circle(m)).imag, _AT_A,
                           (m.a,)).real
    return value, target


def duality_check(m: CircleModel) -> float:
    """Residual of the duality identity: the dual bundle has holonomy
    exponent conj(a), and

        conj(rho_an(a)) = rho_an(conj a) * exp(2 pi i conj(eta(a))).

    Both sides are compared as exponents modulo 2 pi i, so the residual is
    finite wherever xi is, also where rho_an(conj a) leaves the float
    range (past Im a ~ 113)."""
    eta = eta_circle(m)
    m_dual = CircleModel(m.a.conjugate(), m.scale)
    d = ((xi_circle(m) - 1j * math.pi * eta).conjugate()
         - (xi_circle(m_dual) - 1j * math.pi * eta_circle(m_dual))
         - 2j * math.pi * eta.conjugate())
    return abs(complex(d.real, math.remainder(d.imag, 2.0 * math.pi)))


def metric_scale_check(m: CircleModel, c: float) -> float:
    """|rho_an at scale c - rho_an at scale 1|; zero up to roundoff because
    the spectral zeta of the model vanishes at s = 0."""
    if c <= 0:
        raise ValidationError("scale must be positive")
    scaled = CircleModel(m.a, c * m.scale)
    return abs(rho_an_circle(scaled) - rho_an_circle(m))


def zeta_zero_check(m: CircleModel) -> float:
    """|zeta_Delta(0)| = |zeta(0, a) + zeta(0, 1 - a)| from the closed form;
    the analytic statement says it equals minus the dimension of the
    kernel, which is 0 here."""
    return abs(_zeta0(m.a) + _zeta0(1.0 - m.a))


def split_check(m: CircleModel, k: int, theta: float | None = None) -> float:
    """Residual of the spectral-split factorization at lam = (k + Re a)^2:
    removing the finitely many eigenvalues with |n+a|^2 <= lam from the
    zeta data and multiplying back their plain product reproduces rho_an.

    The finite part contributes its eigenvalue product, its eta count, and
    the phase -i pi/2 per removed eigenvalue (the zeta value at zero of the
    truncated spectrum drops by one for each removed point).  The removed n
    satisfy -k - 1 <= n <= k; one more on each side guards rounding.  theta
    as in xi, and the finite part's log-determinants take its cut.  No n + a
    is zero, so the finite part's values are all taken as nonzero, and
    the large part's determinant, never 0, must lie in the normal float
    range (past Im a ~ -113 it overflows)."""
    if k < 0:
        raise ValidationError("k must be nonnegative")
    theta = _agmon_angle(m, theta)
    lam = (k + m.a.real) ** 2
    small = [n + m.a for n in range(-k - 2, k + 2) if abs(n + m.a) ** 2 <= lam]
    xi = xi_circle(m, theta)
    xi_lam = xi - 0.5 * _log_det([z * z for z in small], 2.0 * theta)
    eta_lam = eta_circle(m) - _eta(small, 0).eta
    det_large = _exp_in_range(xi_lam - 1j * math.pi * eta_lam
                              - 0.5j * math.pi * len(small), _AT_A, (m.a,))
    det_small = math.prod(small, start=1.0 + 0.0j)
    return abs(det_large * det_small - _rho_from_xi(m, xi))
