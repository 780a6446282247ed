"""Closed-form torsion model for a flat line bundle over the circle.

The even signature operator of the model has spectrum {n + a : n in Z} for a
holonomy exponent a with 0 < Re a < 1 (so the twisted cohomology vanishes).
Every quantity of interest is a function of this spectrum: the eta invariant,
the regularized log-determinant xi, the analytic torsion rho = exp(xi - i pi
eta) with closed form 1 - exp(2 pi i a), and the Ray-Singer norm.

Zeta regularization runs through the Hurwitz zeta function, evaluated by an
Euler-Maclaurin sum; the derivative at s = 0 uses the log-gamma identity.
The branch-cut test is closed form in n, exact over all of Z: no truncation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import bernoulli, loggamma

from .errors import SpectralBoundaryError, ValidationError
from .signature import eta_finite, log_det_cut

__all__ = [
    "CircleModel",
    "hurwitz_zeta",
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

DEFAULT_THETA = -math.pi / 4

_B = bernoulli(30)  # B_0 .. B_30
_EM_TERMS = 60
_EM_ORDER = 12
_CUT_TOL = 1e-9


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


def hurwitz_zeta(s: complex, q: complex) -> complex:
    """Hurwitz zeta sum_{n>=0} (n+q)^{-s} for Re q > 0, continued in s by the
    Euler-Maclaurin formula.  Not defined at the pole s = 1."""
    s = complex(s)
    q = complex(q)
    if q.real <= 0:
        raise ValidationError("hurwitz_zeta needs Re q > 0")
    if abs(s - 1.0) < 1e-12:
        raise ValidationError("hurwitz_zeta has a pole at s = 1")
    n = _EM_TERMS
    total = sum((k + q) ** (-s) for k in range(n))
    x = n + q
    total += x ** (1.0 - s) / (s - 1.0)
    total += 0.5 * x ** (-s)
    # correction terms: B_{2k}/(2k)! * s(s+1)...(s+2k-2) * x^{-s-2k+1}
    poch = s
    fact = 1.0
    for k in range(1, _EM_ORDER + 1):
        fact *= (2 * k - 1) * (2 * k)
        total += _B[2 * k] / fact * poch * x ** (-s - 2 * k + 1)
        poch *= (s + 2 * k - 1) * (s + 2 * k)
    return complex(total)


def hurwitz_zeta_deriv0(q: complex) -> complex:
    """d/ds at s=0 of the Hurwitz zeta: log Gamma(q) - (1/2) log(2 pi)."""
    q = complex(q)
    if q.real <= 0:
        raise ValidationError("hurwitz_zeta_deriv0 needs Re q > 0")
    return complex(loggamma(q) - 0.5 * math.log(2.0 * math.pi))


def _zeta0_pair(a: complex) -> tuple[complex, complex]:
    """(zeta(0, a), zeta(0, 1 - a)), read by eta, xi and zeta_zero_check."""
    return hurwitz_zeta(0.0, a), hurwitz_zeta(0.0, 1.0 - a)


def eta_circle(m: CircleModel, zeta0=None) -> complex:
    """Eta invariant of the spectrum {n + a}: (zeta(0,a) - zeta(0,1-a)) / 2,
    which continues the signed count asymmetry; equals (1 - 2a)/2.
    Independent of the metric scale.  ``zeta0``: that pair, if at hand."""
    za, zb = zeta0 or _zeta0_pair(m.a)
    return 0.5 * (za - zb)


def _check_cut(m: CircleModel, theta: float) -> None:
    """Raise if some (n+a)^2, n in Z, lies within _CUT_TOL of the ray 2 theta.

    n + a crosses the line of angle theta only at n* = Im a / tan theta - Re a.
    Going away from n*, the distance rises monotonically to 2|theta| on one
    side; on the other it rises to pi, then falls back to 2|theta| from above.
    So it is least at floor(n*) or ceil(n*); n = 0 covers an overflowing n*."""
    if not -math.pi / 2 < theta < 0.0:
        raise ValidationError("branch angle must lie in (-pi/2, 0)")
    n_star = m.a.imag / math.tan(theta) - m.a.real
    n_star = n_star if math.isfinite(n_star) else 0.0
    for n in sorted({0, math.floor(n_star), math.ceil(n_star)}):
        # twice the distance of arg(n+a) to the line of angle theta
        t = (math.atan2(m.a.imag, n + m.a.real) - theta) % math.pi
        dist = 2.0 * min(t, math.pi - t)
        if dist < _CUT_TOL:
            raise SpectralBoundaryError(
                f"squared eigenvalue at n={n} sits on the cut 2*theta: "
                f"angular distance {dist:.3g} < tolerance {_CUT_TOL:g}")


def xi_circle(m: CircleModel, theta: float = DEFAULT_THETA,
              zeta0=None) -> complex:
    """Half the regularized log-determinant of the squared spectrum
    {scale^2 (n+a)^2 : n in Z}:

        xi = -zeta'(0,a) - zeta'(0,1-a) + (zeta(0,a) + zeta(0,1-a)) log(scale)

    which for the principal branch equals log(2 sin(pi a)); the scale term
    vanishes because the zeta values at 0 cancel.  ``zeta0`` as in eta."""
    _check_cut(m, theta)
    za, zb = zeta0 or _zeta0_pair(m.a)
    xi = -(hurwitz_zeta_deriv0(m.a) + hurwitz_zeta_deriv0(1.0 - m.a))
    xi += (za + zb) * math.log(m.scale)
    return complex(xi)


def _exp(z: complex, m: CircleModel) -> complex:
    """cmath.exp(z), raising SpectralBoundaryError when the value leaves the
    float range (|rho_an| grows like exp(2 pi |Im a|) for Im a < 0)."""
    try:
        return cmath.exp(z)
    except OverflowError:
        raise SpectralBoundaryError(
            f"exp of real part {z.real:.6g} overflows the float range at "
            f"Re a = {m.a.real:g}, Im a = {m.a.imag:g}") from None


def rho_an_circle(m: CircleModel, theta: float = DEFAULT_THETA) -> complex:
    """Analytic torsion of the model, exp(xi - i pi eta)."""
    zeta0 = _zeta0_pair(m.a)
    return _exp(xi_circle(m, theta, zeta0)
                - 1j * math.pi * eta_circle(m, zeta0), m)


def rho_an_closed(m: CircleModel) -> complex:
    """Closed form 1 - exp(2 pi i a) (combinatorial value, scale free)."""
    return 1.0 - _exp(2j * math.pi * m.a, m)


def rs_torsion_circle(m: CircleModel) -> float:
    """Ray-Singer torsion exp(-(1/2) LDet Delta_1), where the one-form
    Laplacian has spectrum {scale^2 ((n + Re a)^2 + (Im a)^2)}; in closed
    form 1 / |2 sin(pi a)|."""
    # |2 sin(pi a)|^2 = (2 sin pi a)(2 sin pi conj(a)) makes LDet Delta twice
    # the real part of xi; the scale drops out with the zeta values at 0.
    return _exp(-xi_circle(m).real, m).real


def rs_norm_check(m: CircleModel) -> tuple[float, float]:
    """Ray-Singer norm of rho_an versus the closed-form target exp(pi Im eta).
    For real a both are 1."""
    value = abs(rho_an_circle(m)) * rs_torsion_circle(m)
    target = math.exp(math.pi * complex(eta_circle(m)).imag)
    return value, target


def duality_check(m: CircleModel) -> float:
    """Residual of the duality identity: the dual bundle has holonomy
    exponent conj(a), and

        conj(rho_an(a)) = rho_an(conj a) * exp(2 pi i conj(eta(a))).
    """
    lhs = rho_an_circle(m).conjugate()
    m_dual = CircleModel(m.a.conjugate(), m.scale)
    eta = eta_circle(m).conjugate()
    rhs = rho_an_circle(m_dual) * _exp(2j * math.pi * eta, m)
    return abs(lhs - rhs)


def metric_scale_check(m: CircleModel, c: float) -> float:
    """|rho_an at scale c - rho_an at scale 1|; zero up to roundoff because
    the spectral zeta of the model vanishes at s = 0."""
    if c <= 0:
        raise ValidationError("scale must be positive")
    scaled = CircleModel(m.a, c * m.scale)
    return abs(rho_an_circle(scaled) - rho_an_circle(m))


def zeta_zero_check(m: CircleModel) -> float:
    """|zeta_Delta(0)| computed from Hurwitz values; the analytic statement
    says it equals minus the dimension of the kernel, which is 0 here."""
    za, zb = _zeta0_pair(m.a)
    return abs(za + zb)


def split_check(m: CircleModel, k: int, theta: float = DEFAULT_THETA) -> float:
    """Residual of the spectral-split factorization at lam = (k + Re a)^2:
    removing the finitely many eigenvalues with |n+a|^2 <= lam from the
    zeta data and multiplying back their plain product reproduces rho_an.

    The finite part contributes its eigenvalue product, its eta count, and
    the phase -i pi/2 per removed eigenvalue (the zeta value at zero of the
    truncated spectrum drops by one for each removed point).  The removed n
    satisfy -k - 1 <= n <= k; one more on each side guards rounding."""
    if k < 0:
        raise ValidationError("k must be nonnegative")
    lam = (k + m.a.real) ** 2
    small = [n + m.a for n in range(-k - 2, k + 2) if abs(n + m.a) ** 2 <= lam]
    zeta0 = _zeta0_pair(m.a)
    xi_lam = xi_circle(m, theta, zeta0)
    for z in small:
        xi_lam -= 0.5 * log_det_cut(np.array([z ** 2]), 2.0 * theta)
    eta_lam = eta_circle(m, zeta0) - eta_finite(np.array(small)).eta
    det_large = cmath.exp(xi_lam - 1j * math.pi * eta_lam
                          - 0.5j * math.pi * len(small))
    det_small = math.prod(small, start=1.0 + 0.0j)
    return abs(det_large * det_small - rho_an_circle(m, theta))
