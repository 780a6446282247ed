"""Executable invariant suite covering every module's documented properties.

Each check takes (cases, seed) and returns (passed, detail).  The suite is
the CLI selftest, and the acceptance criteria that have a twin here run the
check itself (tests/test_acceptance.py).

Verdict rule: a check that measures a residual takes the worst one over all
its cases and passes when it is at most the check's bound; a NaN or inf
residual fails.  Every such check goes through ``_verdict``, and its detail
reads ``worst <quantity> <value> (bound <bound>)``.  The bound is
TOL = 1e-9 where not stated otherwise.  torsion-variation-order is such a
check too: the variation identity d/dt log rho = (1/2) Tr_s(Gamma' Gamma)
is exact, and variation_check returns its residual, from a
Cauchy-integral derivative, on families Gamma(t) through each case.
agmon-angle-independence compares xi/eta with graded_det_finite on pairs
turned by a unit t, whose spectra give xi/eta other Agmon angles.
torsion-norm-unitary checks the Ray-Singer identity
log|rho| = log|c_Gamma| + log T_RS, log T_RS = sum_j (-1)^j sum_i log
sigma_i(d_j), at a unitary Gamma (|c_Gamma| = 1): rho goes through phi
and the frame, T_RS through values-only SVDs of the differentials.

Sampled inputs: every sampled check reads one of three families.  The
chiral checks and document-round-trip take case i from ``_family`` (a pair
of top degree 1 or 3 seeded with seed + i), the two pair checks
(fusion-cohomology-diagram and torsion-direct-sum) take case i from
``_pairs`` (two summands seeded with seed + 2i and seed + 2i + 1), and the
line checks and det-eta-identity draw from one stream seeded with seed
(``_draws``).

The seven circle checks ignore ``cases`` and ``seed``: they run the whole
fixed grid of ``_circle_grid``, 20 real holonomy exponents and 10 complex
ones drawn with seed 77, and the last three take q = a and 1 - a.  The model
needs the Hurwitz zeta function only at s = 0, in closed form:
zeta(0, q) = 1/2 - q, and zeta'(0, q) = log Gamma(q) - (1/2) log(2 pi) from
Stirling's series.  circle-zeta-zero checks Gauss's multiplication theorem at
s = 0, sum_{r<3} zeta'(0, (q + r)/3) = zeta'(0, q) + zeta(0, q) log 3, which
ties the zeta(0, q) of eta and the scale term to the zeta'(0, q) of xi.
hurwitz-derivative-crosscheck checks zeta'(0, q) against the recurrence
zeta'(0, q + 1) - zeta'(0, q) = log q and Legendre's duplication
zeta'(0, q) + zeta'(0, q + 1/2) - zeta'(0, 2q) = (1/2 - 2q) log 2.  Both
bound their residuals by 1e-13, so a Stirling coefficient B_2 .. B_8 off by
0.1% fails them.  circle-two-path stays independent of log Gamma, comparing
rho_an with the closed form 1 - exp(2 pi i a).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import circle as ci
from .complexes import (CochainComplex, CohomologyFrame, _rank_cut,
                        alpha_cohomology, cohomology_frame, direct_sum,
                        dual_complex, fused_in_sum_frame, phi)
from .errors import SpectralBoundaryError, ValidationError
from .gradedlinalg import (DetElement, GradedDims, alpha_line, alternating_det,
                           beta_line, dual_graded, fuse)
from .signature import (_SPLIT_TOL, build_signature, det_eta_check,
                        graded_det_finite, graded_det_via_xi_eta,
                        pick_agmon_angle, spectral_split, torsion_via_split)
from .torsion import (ChiralityOp, dual_torsion_check, refined_torsion,
                      variation_check)
from .workbench import (chiral_direct_sum, deserialize_document, gen_random,
                        random_profile, serialize_document)

__all__ = ["TOL", "run_selftest", "CHECKS"]

TOL = 1e-9


def _rand_dims(rng, d, hi=4):
    return GradedDims(tuple(int(rng.integers(0, hi)) for _ in range(d + 1)))


def _rand_coeff(rng):
    z = complex(rng.normal(), rng.normal())
    return z if abs(z) > 0.1 else z + 0.5


def _rand_element(rng, d):
    return DetElement(_rand_coeff(rng), _rand_dims(rng, d))


def _rand_matrix(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _instance(seed, d, acyclic, unitary=False):
    prof = random_profile(np.random.default_rng(seed), d, acyclic=acyclic)
    return gen_random(seed, d, prof, unitary)


def _family(cases, seed, acyclic=None, unitary=False):
    """The chiral checks' cases: case i < cases is a pair of top degree 3
    for odd i and 1 for even, gen_random(seed + i, d), or, given acyclic,
    drawn through a random profile that is acyclic exactly when
    acyclic(i), with a unitary conjugation when unitary is set."""
    for i in range(cases):
        d = 3 if i % 2 else 1
        yield (gen_random(seed + i, d) if acyclic is None
               else _instance(seed + i, d, acyclic(i), unitary))


def _pairs(cases, seed):
    """The pair checks' cases: case i < cases is two summands of top degree
    3 for odd i and 1 for even, drawn through random profiles seeded with
    seed + 2i, acyclic when i % 3 == 0, and seed + 2i + 1, acyclic when i
    is even."""
    for i in range(cases):
        d = 3 if i % 2 else 1
        yield (_instance(seed + 2 * i, d, acyclic=(i % 3 == 0)),
               _instance(seed + 2 * i + 1, d, acyclic=(i % 2 == 0)))


def _draws(cases, seed, residual):
    """residual(rng) for each of cases draws from one stream seeded with
    seed."""
    rng = np.random.default_rng(seed)
    return [residual(rng) for _ in range(cases)]


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


def _verdict(residuals, bound, quantity="residual"):
    """Pass rule of every worst-residual check: the worst residual over all
    cases is at most bound.  np.max keeps a NaN, so a NaN or inf fails."""
    worst = float(np.max(np.asarray(list(residuals), dtype=float),
                         initial=0.0))
    passed = bool(worst <= bound)
    return passed, f"worst {quantity} {worst:.2e} (bound {bound:.0e})"


# ---------------------------------------------------------------------------
# individual checks; each takes (cases, seed) and returns (passed, detail)


def check_fuse_associative(cases, seed):
    def residual(rng):
        d = int(rng.choice([1, 3]))
        x, y, z = (_rand_element(rng, d) for _ in range(3))
        lhs = fuse(fuse(x, y), z).coeff
        return abs(lhs - fuse(x, fuse(y, z)).coeff) / max(1.0, abs(lhs))
    return _verdict(_draws(cases, seed, residual), 1e-12)


def check_alpha_beta(cases, seed):
    def residual(rng):
        n, v = int(rng.integers(0, 7)), _rand_coeff(rng)
        return abs(1.0 / alpha_line(1.0 / v)
                   - (-1) ** (n % 2) * beta_line(v, n))
    return _verdict(_draws(cases, seed, residual), 1e-12)


def check_fuse_dual_line(cases, seed):
    """Duality commutes with fusion: dual(fuse(x, y)) is
    fuse(dual(x), dual(y)), as M(V^, W^) = M(W, V) for odd d."""
    def residual(rng):
        d = int(rng.choice([1, 3]))
        x, y = _rand_element(rng, d), _rand_element(rng, d)
        return _rel(fuse(dual_graded(x), dual_graded(y)).coeff,
                    dual_graded(fuse(x, y)).coeff)
    return _verdict(_draws(cases, seed, residual), 1e-12, "relative residual")


def check_fuse_anticommute(cases, seed):
    """Against the wedge-permutation oracle."""
    def residual(rng):
        d = int(rng.choice([1, 3]))
        dv, dw = _rand_dims(rng, d), _rand_dims(rng, d)
        x = DetElement(_rand_coeff(rng), dv)
        y = DetElement(_rand_coeff(rng), dw)
        perm = sum(a * b for a, b in zip(dv.dims, dw.dims)) % 2
        expect = fuse(y, x).coeff * (-1) ** perm \
            * (-1) ** ((dv.total * dw.total) % 2)
        return abs(fuse(x, y).coeff - expect) / max(1.0, abs(expect))
    return _verdict(_draws(cases, seed, residual), 1e-12)


def check_dual_involution(cases, seed):
    def residual(rng):
        x = _rand_element(rng, int(rng.choice([1, 3])))
        return abs(dual_graded(dual_graded(x)).coeff
                   - (-1) ** (x.dims.total % 2) * x.coeff)
    return _verdict(_draws(cases, seed, residual), 1e-12)


def check_fusion_cohomology(cases, seed):
    rng = np.random.default_rng(seed)
    res = []
    for (ca, _), (cb, _) in _pairs(cases, seed):
        fra, frb = cohomology_frame(ca), cohomology_frame(cb)
        frs = cohomology_frame(direct_sum(ca, cb))
        xa = DetElement(_rand_coeff(rng), ca.dims)
        xb = DetElement(_rand_coeff(rng), cb.dims)
        lhs = phi(fuse(xa, xb), frs).coeff
        res.append(_rel(fused_in_sum_frame(phi(xa, fra), phi(xb, frb),
                                           frs).coeff, lhs))
    return _verdict(res, TOL, "relative residual")


def check_cohomology_duality(cases, seed):
    rng = np.random.default_rng(seed)
    res = []
    for c, _ in _family(cases, seed, lambda i: i % 3 == 0):
        chat = dual_complex(c)
        frh = cohomology_frame(chat)
        x = DetElement(_rand_coeff(rng), c.dims)
        lhs = phi(DetElement(dual_graded(x).coeff, chat.dims), frh).coeff
        rhs = alpha_cohomology(phi(x, cohomology_frame(c)), frh).coeff
        res.append(_rel(rhs, lhs))
    return _verdict(res, TOL, "relative residual")


def check_phi_frame_rotation(cases, seed):
    rng = np.random.default_rng(seed)
    res = []
    for c, _ in _family(cases, seed, lambda i: False):
        fr = cohomology_frame(c)
        x = DetElement(_rand_coeff(rng), c.dims)
        base = phi(x, fr).coeff
        qs = [np.linalg.qr(_rand_matrix(rng, (b, b)))[0] if b else np.eye(0)
              for b in fr.betti]
        hs = tuple(h @ q for h, q in zip(fr.H, qs))
        rot = phi(x, CohomologyFrame(c, fr.B, hs, fr.A)).coeff
        res.append(abs(rot - base * alternating_det(qs)) / abs(base))
    return _verdict(res, 1e-10, "relative residual")


def check_torsion_direct_sum(cases, seed):
    res = []
    for a, b in _pairs(cases, seed):
        csum, gsum = chiral_direct_sum([a, b])
        rho_sum = refined_torsion(csum, gsum)
        res.append(_rel(fused_in_sum_frame(refined_torsion(*a),
                                           refined_torsion(*b),
                                           rho_sum.frame).coeff,
                        rho_sum.coeff))
    return _verdict(res, TOL, "relative residual")


def _log_rs_torsion(c) -> float:
    """log T_RS = sum_j (-1)^j sum_i log sigma_i(d_j) over the nonzero
    singular values (past _rank_cut), from values-only SVDs of the
    differentials as they stand: no phi and no frame."""
    total = 0.0
    for j, m in enumerate(c.partial):
        if m.size:
            s = np.linalg.svd(m, compute_uv=False)
            total += (-1) ** j * float(np.log(s[:_rank_cut(s)[0]]).sum())
    return total


def check_torsion_norm_unitary(cases, seed):
    """The Ray-Singer identity log|rho| = log|c_Gamma| + log T_RS at a
    unitary Gamma, where |c_Gamma| = 1: rho through phi and its frame
    against T_RS from the singular values of d alone."""
    return _verdict((abs(math.log(abs(refined_torsion(c, g).coeff))
                         - _log_rs_torsion(c)) for c, g in
                     _family(cases, seed, lambda i: i % 3 > 0, unitary=True)),
                    TOL, "|log|rho| - log T_RS|")


def _gamma_family(c, g, seed):
    """Chiralities through g at t = 0 that do not commute with one another:
    Gamma_j + t H_j for j < (d+1)/2 with random H_j, and Gamma_{d-j} its
    inverse."""
    d, n = c.d, c.dims.dims
    rng = np.random.default_rng(seed)
    gens = [_rand_matrix(rng, (n[d - j], n[j])) for j in range((d + 1) // 2)]

    def gamma_of_t(t):
        blocks = list(g.gamma)
        for j, h in enumerate(gens):
            blocks[j] = g.gamma[j] + t * h
            blocks[d - j] = np.linalg.inv(blocks[j])
        return ChiralityOp(tuple(blocks))

    return gamma_of_t


def check_variation_order(cases, seed):
    return _verdict((variation_check(c, _gamma_family(c, g, seed + i), 0.1)
                     for i, (c, g) in enumerate(_family(max(1, cases // 10),
                                                        seed))), TOL)


def check_torsion_duality(cases, seed):
    return _verdict((dual_torsion_check(c, g) for c, g in
                     _family(cases, seed, lambda i: i % 3 == 0)),
                    1e-8, "relative residual")


def check_torsion_graded_det(cases, seed):
    return _verdict((_rel(refined_torsion(c, g).coeff, graded_det_finite(c, g))
                     for c, g in _family(cases, seed)),
                    TOL, "relative residual")


def _lambda_choices(c, g):
    """Split levels 0, mid-gap of the two least B^2 moduli above the cut
    1e-4 (when there are two) and twice the largest; no modulus above the
    cut leaves no level, and a B^2 block that is not finite (an overflow)
    has no moduli, each a numerical boundary."""
    s = build_signature(c, g)
    moduli = []
    for j in range(c.d + 1):
        bsq = s.bsq_block(j)
        if not np.isfinite(bsq).all():
            raise SpectralBoundaryError(
                f"degree {j}: the B^2 block is not finite (overflow)")
        moduli += [abs(z) for z in np.linalg.eigvals(bsq)]
    moduli = moduli or [0.0]  # the zero complex: its largest modulus is 0
    mods = sorted({round(r, 6) for r in moduli if r > 1e-4})
    if not mods:
        raise SpectralBoundaryError(f"largest B^2 modulus {max(moduli):.3g} "
                                    "is at or below the split level cut 1e-4")
    lams = [0.0]
    if len(mods) > 1:
        lams.append((mods[0] + mods[1]) / 2.0)
    lams.append(2.0 * max(mods))
    return lams


def check_split_consistency(cases, seed):
    res = []
    for c, g in _family(cases, seed, lambda i: i % 2 == 0):
        rho = refined_torsion(c, g).coeff
        res.extend(_rel(torsion_via_split(c, g, lam).coeff, rho)
                   for lam in _lambda_choices(c, g))
    return _verdict(res, _SPLIT_TOL, "relative residual")


def check_large_part_acyclic(cases, seed):
    ok = all(cohomology_frame(spectral_split(c, g, lam).large.complex).acyclic
             for c, g in _family(cases, seed, lambda i: False)
             for lam in _lambda_choices(c, g)[:2])
    return ok, "rank test on every large part"


def _b_even_odd(c, g):
    """B_even and B_odd assembled from the degree-block table of
    build_signature(c, g), each on the sum of the degrees of its parity.
    The package reads B only through its table; this is the oracle of
    signature-odd-even-spectrum."""
    blocks, n = build_signature(c, g)._blocks, c.dims.dims
    return [np.block([[blocks.get((t, s), np.zeros((n[t], n[s]), complex))
                       for s in range(p, c.d + 1, 2)]
                      for t in range(p, c.d + 1, 2)]) for p in (0, 1)]


def check_odd_even_spectrum(cases, seed):
    res = []
    for c, g in _family(cases, seed, lambda i: i % 2 == 0):
        ev, od = (np.sort_complex(np.linalg.eigvals(b))
                  for b in _b_even_odd(c, g))
        res.extend(np.abs(ev - od))
    return _verdict(res, TOL, "eigenvalue gap")


def check_det_eta(cases, seed):
    def residual(rng):
        n = int(rng.integers(1, 7))
        m = _rand_matrix(rng, (n, n))
        return det_eta_check(m, pick_agmon_angle(m))
    return _verdict(_draws(cases, seed, residual), TOL)


def _xi_eta_verdict(pairs):
    return _verdict((_rel(graded_det_via_xi_eta(c, g, 0.0),
                          graded_det_finite(c, g)) for c, g in pairs),
                    TOL, "relative residual")


def check_xi_eta_two_path(cases, seed):
    return _xi_eta_verdict(_family(cases, seed))


def check_agmon_independence(cases, seed):
    """xi/eta takes the Agmon angle of its own spectrum.  (t d, Gamma) with
    |t| = 1 is a pair whose B_even is turned by t and whose zero decisions
    do not move, so the rule picks another angle; xi/eta at lam = 0 must
    still give the angle-free graded_det_finite of that pair."""
    return _xi_eta_verdict(
        (CochainComplex(c.dims, tuple(t * p for p in c.partial)), g)
        for c, g in _family(max(1, cases // 2), seed)
        for t in (1j, cmath.exp(1j * math.pi / 3)))


def _circle_grid():
    grid = [ci.CircleModel(a) for a in np.linspace(0.045, 0.955, 20)]
    rng = np.random.default_rng(77)
    for _ in range(10):
        a = complex(rng.uniform(0.05, 0.95), rng.uniform(-0.3, 0.3))
        grid.append(ci.CircleModel(a))
    return grid


def check_circle_two_path(cases, seed):
    return _verdict((abs(ci.rho_an_circle(m) - ci.rho_an_closed(m))
                     / abs(ci.rho_an_closed(m)) for m in _circle_grid()),
                    1e-8, "relative residual")


def check_circle_rs_norm(cases, seed):
    return _verdict((abs(value - target) / abs(target) for value, target in
                     map(ci.rs_norm_check, _circle_grid())),
                    1e-8, "relative residual")


def check_circle_duality(cases, seed):
    return _verdict(map(ci.duality_check, _circle_grid()), TOL)


def check_circle_split(cases, seed):
    return _verdict((ci.split_check(m, k) for m in _circle_grid()
                     for k in (2, 5)), 1e-8)


def _circle_qs():
    return [q for m in _circle_grid() for q in (m.a, 1.0 - m.a)]


def check_circle_zeta_zero(cases, seed):
    z1 = ci.hurwitz_zeta_deriv0
    return _verdict((abs(sum(z1((q + r) / 3) for r in range(3)) - z1(q)
                         - ci._zeta0(q) * math.log(3.0))
                     for q in _circle_qs()), 1e-13)


def check_circle_scale(cases, seed):
    return _verdict((ci.metric_scale_check(m, c) for m in _circle_grid()
                     for c in (0.5, 2.0, 5.0)), TOL)


def check_hurwitz_crosscheck(cases, seed):
    z1 = ci.hurwitz_zeta_deriv0
    res = []
    for q in _circle_qs():
        res.append(abs(z1(q + 1) - z1(q) - cmath.log(q)))
        res.append(abs(z1(q) + z1(q + 0.5) - z1(2 * q)
                       - (0.5 - 2 * q) * math.log(2.0)))
    return _verdict(res, 1e-13)


def check_round_trip(cases, seed):
    ok = True
    for i, (c, g) in enumerate(_family(max(3, cases // 20), seed,
                                       lambda i: i % 2 == 0)):
        text = serialize_document(c, g, {"case": str(i)})
        again = serialize_document(*deserialize_document(text)[:2],
                                   metadata={"case": str(i)})
        ok &= text == again
    return ok, "byte-identical reserialization"


CHECKS = [
    ("fuse-associative", check_fuse_associative),
    ("alpha-beta-compatibility", check_alpha_beta),
    ("fuse-dual-line", check_fuse_dual_line),
    ("fuse-anticommutation", check_fuse_anticommute),
    ("dual-graded-involution", check_dual_involution),
    ("fusion-cohomology-diagram", check_fusion_cohomology),
    ("cohomology-duality-diagram", check_cohomology_duality),
    ("phi-frame-rotation", check_phi_frame_rotation),
    ("torsion-direct-sum", check_torsion_direct_sum),
    ("torsion-norm-unitary", check_torsion_norm_unitary),
    ("torsion-variation-order", check_variation_order),
    ("torsion-duality", check_torsion_duality),
    ("torsion-equals-graded-det", check_torsion_graded_det),
    ("split-torsion-consistency", check_split_consistency),
    ("split-large-part-acyclic", check_large_part_acyclic),
    ("signature-odd-even-spectrum", check_odd_even_spectrum),
    ("det-eta-identity", check_det_eta),
    ("xi-eta-two-path", check_xi_eta_two_path),
    ("agmon-angle-independence", check_agmon_independence),
    ("circle-two-path", check_circle_two_path),
    ("circle-rs-norm", check_circle_rs_norm),
    ("circle-duality", check_circle_duality),
    ("circle-split-levels", check_circle_split),
    ("circle-zeta-zero", check_circle_zeta_zero),
    ("circle-scale-invariance", check_circle_scale),
    ("hurwitz-derivative-crosscheck", check_hurwitz_crosscheck),
    ("document-round-trip", check_round_trip),
]


def run_selftest(cases: int = 40, seed: int = 12345):
    """Run every registered check; returns (all_passed, list of reports).
    Raises ValidationError unless cases >= 1 and seed >= 0."""
    if cases < 1:
        raise ValidationError(f"selftest needs at least one case, got {cases}")
    if seed < 0:
        raise ValidationError(f"selftest seed must be nonnegative, got {seed}")
    reports = []
    ok = True
    for name, fn in CHECKS:
        try:
            passed, detail = fn(cases, seed)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"exception: {exc!r}"
        passed = bool(passed)
        ok = ok and passed
        reports.append({"name": name, "passed": bool(passed),
                        "detail": detail})
    return ok, reports
