"""Refined torsion of a cochain complex with a chirality operator.

A chirality operator on a complex of odd top degree d is a degreewise map
Gamma_j : C^j -> C^{d-j} squaring to the identity, checked once, when it is
built (validate_chirality only checks that it fits a complex).  It singles out
an element c_Gamma of the determinant line of the complex; its image under the
canonical map phi is the refined torsion, an element of the determinant line
of cohomology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import (_VALIDATION_TOL, CochainComplex, CohomologyElement,
                        CohomologyFrame, _readonly, alpha_cohomology,
                        cohomology_frame, dual_complex, phi)
from .errors import ValidationError
from .gradedlinalg import DetElement, alternating_det

__all__ = [
    "ChiralityOp",
    "validate_chirality",
    "sign_R",
    "c_gamma",
    "refined_torsion",
    "torsion_norm",
    "supertrace",
    "variation_check",
    "dual_chirality",
    "dual_torsion_check",
]


@dataclass(frozen=True)
class ChiralityOp:
    """Degreewise blocks gamma[j] of Gamma_j : C^j -> C^{d-j}, read-only;
    construction checks that d is odd and Gamma_{d-j} Gamma_j = 1, and
    records the dimension vector (dim C^0, ..., dim C^d) it acts on."""

    gamma: tuple[np.ndarray, ...]
    _dims: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gamma = tuple(_readonly(np.asarray(g, dtype=complex))
                      for g in self.gamma)
        d = len(gamma) - 1
        if d % 2 == 0:
            raise ValidationError("chirality requires odd top degree")
        for j, a in enumerate(gamma):
            if a.ndim != 2:
                raise ValidationError(
                    f"Gamma_{j} has shape {a.shape}, expected a matrix")
        n = tuple(a.shape[1] for a in gamma)  # n[j] = dim C^j
        _check_shapes(gamma, n)
        for j, a in enumerate(gamma):
            res = float(np.abs(gamma[d - j] @ a - np.eye(n[j])).max(initial=0))
            if not res <= _VALIDATION_TOL:  # a NaN residual fails too
                raise ValidationError(
                    f"Gamma^2 - 1 residual {res:.3e} in degree {j} exceeds "
                    f"{_VALIDATION_TOL:.3e}")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "_dims", n)

    @property
    def d(self) -> int:
        return len(self.gamma) - 1


def _check_shapes(gamma, n) -> None:
    """Raise unless each Gamma_j maps dimension n[j] to dimension n[d-j]."""
    d = len(n) - 1
    for j, a in enumerate(gamma):
        if a.shape != (n[d - j], n[j]):
            raise ValidationError(
                f"Gamma_{j} has shape {a.shape}, expected {(n[d - j], n[j])}")


def validate_chirality(c: CochainComplex, g: ChiralityOp) -> None:
    """Check that g fits c: the same top degree and Gamma_j : C^j -> C^{d-j}.
    g fits the dimension vector it was built on, so it fits c exactly when
    that vector is c's; only a misfit is looked at degree by degree."""
    if g._dims != c.dims.dims:
        if g.d != c.d:
            raise ValidationError(
                "chirality degree does not match the complex")
        _check_shapes(g.gamma, c.dims.dims)


def sign_R(c: CochainComplex) -> int:
    """Parity of (1/2) sum_{j<r} dim C^j (dim C^j + (-1)^{r+j}), r = (d+1)/2."""
    r = (c.d + 1) // 2
    return sum(k * (k + (-1) ** (r + j)) // 2
               for j, k in enumerate(c.dims.dims[:r])) % 2


def c_gamma(c: CochainComplex, g: ChiralityOp) -> DetElement:
    """The distinguished element of Det(C) attached to the chirality.

    Filling the upper slots with standard wedges and the lower slots with
    their Gamma images yields, against standard wedges throughout, the
    coefficient (-1)^R prod_{j<r} det(Gamma_j)^{(-1)^{j+1}}.
    """
    validate_chirality(c, g)
    coeff = alternating_det(g.gamma[:(c.d + 1) // 2])
    return DetElement(-coeff if sign_R(c) else coeff, c.dims)


def _frame_for(c: CochainComplex,
               frame: CohomologyFrame | None) -> CohomologyFrame:
    """The cohomology frame of c: frame when given, which must be c's own,
    or a new one."""
    if frame is None:
        return cohomology_frame(c)
    if frame.complex is not c:
        raise ValidationError("the cohomology frame is not of this complex")
    return frame


def refined_torsion(c: CochainComplex, g: ChiralityOp,
                    frame: CohomologyFrame | None = None) -> CohomologyElement:
    """Refined torsion rho = phi(c_Gamma) in the cohomology determinant line."""
    return phi(c_gamma(c, g), _frame_for(c, frame))


def torsion_norm(c: CochainComplex, g: ChiralityOp) -> float:
    """Norm of the refined torsion in the metric for which phi is an isometry.

    Standard wedges have norm one for the standard inner products, so this is
    the modulus of the c_Gamma coefficient.  For a unitary self-adjoint
    chirality it equals one.
    """
    return abs(c_gamma(c, g).coeff)


def supertrace(blocks) -> complex:
    """Alternating trace sum_j (-1)^j tr(blocks[j]) of a degreewise operator."""
    return complex(sum((-1) ** j * np.trace(np.asarray(b))
                       for j, b in enumerate(blocks)))


def variation_check(c: CochainComplex, gamma_of_t, t0: float,
                    h: float = 1e-4) -> float:
    """Residual of the variation identity for an acyclic family Gamma(t):

        d/dt log rho(t) = (1/2) Tr_s(Gamma'(t) Gamma(t)).

    Both sides are formed to second order: log rho by a central difference of
    the torsion coefficients (acyclic, so rho is a scalar), Gamma' by a
    central difference of the blocks.  The difference is the log of the
    ratio rho(t0 + h) / rho(t0 - h), so it does not jump where arg rho
    crosses the branch cut of the principal log.
    """
    if not 0 < h < math.inf:
        raise ValidationError("step h must be finite and positive")
    frame = cohomology_frame(c)
    if not frame.acyclic:
        raise ValidationError("variation identity requires an acyclic complex")
    gp, gm = gamma_of_t(t0 + h), gamma_of_t(t0 - h)
    lhs = np.log(refined_torsion(c, gp, frame).coeff
                 / refined_torsion(c, gm, frame).coeff) / (2 * h)
    # Gamma' is not an involution, so its blocks stay a plain list
    g_dot = [(a - b) / (2 * h) for a, b in zip(gp.gamma, gm.gamma)]
    g0, d = gamma_of_t(t0), c.d
    rhs = 0.5 * supertrace(g_dot[d - j] @ g0.gamma[j] for j in range(d + 1))
    return abs(lhs - rhs)


def dual_chirality(g: ChiralityOp) -> ChiralityOp:
    """Chirality on the dual complex: degree-j block is the conjugate
    transpose of Gamma_j."""
    return ChiralityOp(tuple(a.conj().T for a in g.gamma))


def dual_torsion_check(c: CochainComplex, g: ChiralityOp) -> float:
    """Relative residual of the duality identity

        rho(dual complex, dual chirality) = alpha(rho(C, Gamma)),

    with alpha the anti-linear duality on cohomology determinant lines.
    """
    frame = cohomology_frame(c)
    chat = dual_complex(c)
    frame_hat = cohomology_frame(chat)
    lhs = refined_torsion(chat, dual_chirality(g), frame_hat).coeff
    rho = refined_torsion(c, g, frame)
    rhs = alpha_cohomology(rho, frame_hat).coeff
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale
