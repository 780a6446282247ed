"""Laws of the refined torsion over drawn inputs.

Isomorphism invariance: conjugating an acyclic pair (C, Gamma) degreewise
by invertible T_j, to d'_j = T_{j+1} d_j T_j^-1 and
Gamma'_j = T_{d-j} Gamma_j T_j^-1, leaves rho unchanged: on an acyclic
complex rho is a number, and every path to it (refined_torsion, the graded
determinant, xi/eta, the split formula) must give that number.  The T_j are
drawn with condition number kappa = 1e2, so the conjugated pair's matrices
are no longer the generator's well-conditioned ones.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from detline import (ChiralityOp, CochainComplex, SpectralBoundaryError,
                     gen_random, graded_det_finite, graded_det_via_xi_eta,
                     refined_torsion, torsion_via_split)
from detline.selftest import TOL, _lambda_choices
from detline.signature import _SPLIT_TOL

KAPPA = 1e2


def conjugated(seed, d, kappa=KAPPA):
    """gen_random(seed, d) and its conjugate by T_j = Q_1 diag(s) Q_2, the
    Q_i from QRs of complex Gaussian draws and s = exp(uniform(0, log kappa))
    with s_0 = 1 and s_last = kappa, all from default_rng([seed, d])."""
    c, g = gen_random(seed, d)
    rng = np.random.default_rng([seed, d])
    ts, invs = [], []
    for n in c.dims.dims:
        q1, q2 = (np.linalg.qr(rng.standard_normal((n, n))
                               + 1j * rng.standard_normal((n, n)))[0]
                  for _ in range(2))
        s = np.exp(rng.uniform(0.0, math.log(kappa), n))
        if n:
            s[0], s[-1] = 1.0, kappa
        ts.append(q1 * s @ q2)
        invs.append(q2.conj().T / s @ q1.conj().T)
    partial = tuple(ts[j + 1] @ p @ invs[j] for j, p in enumerate(c.partial))
    gamma = tuple(ts[d - j] @ m @ invs[j] for j, m in enumerate(g.gamma))
    return (c, g), (CochainComplex(c.dims, partial), ChiralityOp(gamma))


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([1, 3, 5, 7, 9]))
def test_isomorphism_invariance(seed, d):
    (c, g), (c2, g2) = conjugated(seed, d)
    rho = refined_torsion(c, g).coeff
    assert _rel(refined_torsion(c2, g2).coeff, rho) <= TOL
    assert _rel(graded_det_finite(c2, g2), rho) <= TOL
    assert _rel(graded_det_via_xi_eta(c2, g2, 0.0), rho) <= TOL
    # a level between the two smallest moduli of spec(B^2), when there are
    # two; a split's own rounding may be a boundary, never invalid input
    for lam in _lambda_choices(c2, g2)[1:-1]:
        try:
            value = torsion_via_split(c2, g2, lam).coeff
        except SpectralBoundaryError:
            continue
        assert _rel(value, rho) <= _SPLIT_TOL
