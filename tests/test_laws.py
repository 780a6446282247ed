"""Laws of the refined torsion over drawn inputs.

Isomorphism invariance: conjugating an acyclic pair (C, Gamma) degreewise
by invertible T_j, to d'_j = T_{j+1} d_j T_j^-1 and
Gamma'_j = T_{d-j} Gamma_j T_j^-1, leaves rho unchanged: on an acyclic
complex rho is a number, and every path to it (refined_torsion, the graded
determinant, xi/eta, the split formula) must give that number.  The T_j are
drawn with condition number kappa = 1e2, so the conjugated pair's matrices
are no longer the generator's well-conditioned ones.

Phase covariance: (t d, Gamma) with |t| = 1 is a pair with the same B^j,
H^j and A^j, so no zero decision moves.  rho moves by
t^{sum_j (-1)^{j+1} dim B^j}, and the graded determinant of B_even, by
either path, by t^{sum_{j even} (dim C^j - 2 dim B^j)}, both exponents
read off the frame.  B_even turns by t, so xi/eta takes another Agmon angle
on the turned pair: comparing its two values checks that the angle rule
picks an admissible one.

The Ray-Singer identity: with rho's coefficient taken in the frame's
orthonormal harmonic bases,

    log|rho| = log|c_Gamma| + log T_RS,
    log T_RS = sum_q (-1)^{q+1} (q/2) log det' Delta_q
             = sum_j (-1)^j sum_i log sigma_i(d_j),

Delta_q = d^H d + d d^H on C^q and det' the product of its nonzero
eigenvalues.  The Laplacians' eigenvalues come from eigvalsh, which sees
neither phi nor c_Gamma's determinants, and the number of zero ones in
degree q is the Betti number the draw's profile asks for.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detline import (ChiralityOp, CochainComplex, SpectralBoundaryError,
                     c_gamma, cohomology_frame, gen_random, graded_det_finite,
                     graded_det_via_xi_eta, random_profile, refined_torsion,
                     torsion_via_split)
from detline.selftest import TOL, _lambda_choices
from detline.signature import _SPLIT_TOL

KAPPA = 1e2
EPS = np.finfo(float).eps


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


@pytest.mark.parametrize("t", [1j, cmath.exp(1j * math.pi / 3), -1.0],
                         ids=["i", "exp(i pi/3)", "-1"])
@pytest.mark.parametrize("d", [1, 3, 5, 7, 9])
def test_phase_covariance(d, t):
    for seed in range(40):
        c, g = gen_random(seed, d)
        fr = cohomology_frame(c)
        assert fr.acyclic
        b = [basis.shape[1] for basis in fr.B]
        rho_exp = sum((-1) ** (j + 1) * b[j] for j in range(d + 1))
        det_exp = sum(c.dims.dims[j] - 2 * b[j] for j in range(0, d + 1, 2))
        ct = CochainComplex(c.dims, tuple(t * p for p in c.partial))
        assert _rel(refined_torsion(ct, g).coeff,
                    t ** rho_exp * refined_torsion(c, g).coeff) <= TOL
        assert _rel(graded_det_finite(ct, g),
                    t ** det_exp * graded_det_finite(c, g)) <= TOL
        assert _rel(graded_det_via_xi_eta(ct, g, 0.0),
                    t ** det_exp * graded_det_via_xi_eta(c, g, 0.0)) <= TOL


def _log_rs_torsion(c, betti):
    """log T_RS from eigvalsh of the Laplacians, with the betti[q] smallest
    eigenvalues of Delta_q taken as its kernel, and the first-order bound
    of its rounding: eigvalsh returns the eigenvalues of Delta_q + E with
    ||E|| <= n_q eps ||Delta_q|| (forming Delta_q adds as much), and by Weyl
    each log lambda_i then moves by at most n_q eps ||Delta_q|| / lambda_i."""
    d = c.d
    log_t = bound = 0.0
    for q, n in enumerate(c.dims.dims):
        lap = np.zeros((n, n), dtype=complex)
        if q < d:
            lap += c.partial[q].conj().T @ c.partial[q]
        if q > 0:
            lap += c.partial[q - 1] @ c.partial[q - 1].conj().T
        lam = np.linalg.eigvalsh(lap)[betti[q]:]
        log_t += (-1) ** (q + 1) * (q / 2) * float(np.log(lam).sum())
        if lam.size:
            bound += (q / 2) * n * EPS * float((lam[-1] / lam).sum())
    return log_t, bound


def _ray_singer_residual(c, g, betti):
    """|log|rho| - log|c_Gamma| - log T_RS| and its bound: the Laplacian
    side's first-order bound, plus N eps for rho's and c_Gamma's
    determinants over N dimensions, times 4 for the constants."""
    log_t, bound = _log_rs_torsion(c, betti)
    residual = abs(math.log(abs(refined_torsion(c, g).coeff))
                   - math.log(abs(c_gamma(c, g).coeff)) - log_t)
    return residual, 4.0 * (bound + c.dims.total * EPS)


@pytest.mark.parametrize("acyclic", [True, False],
                         ids=["acyclic", "cohomology"])
@pytest.mark.parametrize("d", [1, 3, 5, 7, 9])
def test_ray_singer_identity(d, acyclic):
    for seed in range(40):
        profile = random_profile(np.random.default_rng(seed), d, acyclic)
        c, g = gen_random(seed, d, profile)
        betti = [0] * (d + 1)
        for h in profile["harmonic"]:  # a summand fills h and d - h != h
            betti[h] += 1
            betti[d - h] += 1
        assert list(cohomology_frame(c).betti) == betti
        residual, bound = _ray_singer_residual(c, g, betti)
        assert residual <= bound, (seed, residual, bound)


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9])
def test_ray_singer_identity_on_conjugated_pairs(d):
    # T_j of condition kappa widen each Laplacian's spread
    # ||Delta_q|| / lambda_i by up to kappa^4, and the eigvalsh side's
    # rounding with it; the bound reads that spread off the draw
    for seed in range(40):
        _, (c, g) = conjugated(seed, d)
        residual, bound = _ray_singer_residual(c, g, [0] * (d + 1))
        assert residual <= bound, (seed, residual, bound)
