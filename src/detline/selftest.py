"""Executable invariant suite covering every module's documented properties.

Each check returns (passed, detail).  The suite doubles as the CLI selftest
and as the backbone of the package's property tests.  The pass threshold is
TOL = 1e-9 where not stated otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from . import circle as ci
from .complexes import (CohomologyFrame, alpha_cohomology, cohomology_frame,
                        direct_sum, dual_complex, fused_in_sum_frame, phi)
from .errors import ValidationError
from .gradedlinalg import (DetElement, GradedDims, alpha_line, beta_line,
                           dual_graded, fuse)
from .signature import (build_signature, det_eta_check, graded_det_finite,
                        graded_det_via_xi_eta, pick_agmon_angle,
                        spectral_split, torsion_via_split)
from .torsion import (ChiralityOp, dual_torsion_check, refined_torsion,
                      torsion_norm, variation_check)
from .workbench import (chiral_direct_sum, deserialize_document, gen_random,
                        random_profile, serialize_document)

__all__ = ["TOL", "run_selftest", "CHECKS"]

TOL = 1e-9


def _rand_dims(rng, d, hi=4):
    return GradedDims(tuple(int(rng.integers(0, hi)) for _ in range(d + 1)))


def _rand_coeff(rng):
    z = complex(rng.normal(), rng.normal())
    return z if abs(z) > 0.1 else z + 0.5


def _instance(seed, d, acyclic):
    prof = random_profile(np.random.default_rng(seed), d, acyclic=acyclic)
    return gen_random(seed, d, prof)


# ---------------------------------------------------------------------------
# individual checks; each takes (cases, seed) and returns (passed, detail)


def check_fuse_associative(cases, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.choice([1, 3]))
        xs = [DetElement(_rand_coeff(rng), _rand_dims(rng, d))
              for _ in range(3)]
        lhs = fuse(fuse(xs[0], xs[1]), xs[2]).coeff
        rhs = fuse(xs[0], fuse(xs[1], xs[2])).coeff
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst <= 1e-12, f"worst residual {worst:.2e}"


def check_alpha_beta(cases, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(0, 7))
        v = _rand_coeff(rng)
        lhs = 1.0 / alpha_line(1.0 / v)
        rhs = (-1) ** (n % 2) * beta_line(v, n)
        worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-12, f"worst residual {worst:.2e}"


def check_fuse_dual_line(cases, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        n, m = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        v, w = _rand_coeff(rng), _rand_coeff(rng)
        lhs = 1.0 / (v * w)
        dual_v = alpha_line(1.0 / v)
        dual_w = alpha_line(1.0 / w)
        rhs = complex(dual_v * dual_w).conjugate()  # alpha on the sum
        worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-12, f"worst residual {worst:.2e}"


def check_fuse_anticommute(cases, seed):
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(cases):
        d = int(rng.choice([1, 3]))
        dv, dw = _rand_dims(rng, d), _rand_dims(rng, d)
        x = DetElement(_rand_coeff(rng), dv)
        y = DetElement(_rand_coeff(rng), dw)
        perm = sum(a * b for a, b in zip(dv.dims, dw.dims)) % 2
        expect = fuse(y, x).coeff * (-1) ** perm \
            * (-1) ** ((dv.total * dw.total) % 2)
        ok &= abs(fuse(x, y).coeff - expect) <= 1e-12 * max(1, abs(expect))
    return ok, "wedge-permutation oracle"


def check_dual_involution(cases, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.choice([1, 3]))
        x = DetElement(_rand_coeff(rng), _rand_dims(rng, d))
        y = dual_graded(dual_graded(x))
        expect = (-1) ** (x.dims.total % 2) * x.coeff
        worst = max(worst, abs(y.coeff - expect))
    return worst <= 1e-12, f"worst residual {worst:.2e}"


def check_fusion_cohomology(cases, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(cases):
        d = 3 if i % 2 else 1
        ca, ga = _instance(seed + 2 * i, d, acyclic=(i % 3 == 0))
        cb, gb = _instance(seed + 2 * i + 1, d, acyclic=(i % 2 == 0))
        fra, frb = cohomology_frame(ca), cohomology_frame(cb)
        csum = direct_sum(ca, cb)
        frs = cohomology_frame(csum)
        xa = DetElement(_rand_coeff(rng), ca.dims)
        xb = DetElement(_rand_coeff(rng), cb.dims)
        lhs = phi(fuse(xa, xb), frs).coeff
        rhs = fused_in_sum_frame(fra, frb, phi(xa, fra).coeff,
                                 phi(xb, frb).coeff, frs)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst <= TOL, f"worst relative residual {worst:.2e}"


def check_cohomology_duality(cases, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(cases):
        d = 3 if i % 2 else 1
        c, _ = _instance(seed + i, d, acyclic=(i % 3 == 0))
        fr = cohomology_frame(c)
        chat = dual_complex(c)
        frh = cohomology_frame(chat)
        x = DetElement(_rand_coeff(rng), c.dims)
        xd = dual_graded(x)
        lhs = phi(DetElement(xd.coeff, chat.dims), frh).coeff
        rhs = alpha_cohomology(phi(x, fr), frh).coeff
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    return worst <= TOL, f"worst relative residual {worst:.2e}"


def check_phi_frame_rotation(cases, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(cases):
        d = 3 if i % 2 else 1
        c, _ = _instance(seed + i, d, acyclic=False)
        fr = cohomology_frame(c)
        x = DetElement(_rand_coeff(rng), c.dims)
        base = phi(x, fr).coeff
        hs, factor = [], 1.0 + 0.0j
        for j in range(d + 1):
            b = fr.betti[j]
            if b:
                q, _ = np.linalg.qr(rng.standard_normal((b, b))
                                    + 1j * rng.standard_normal((b, b)))
                hs.append(fr.H[j] @ q)
                factor *= np.linalg.det(q) ** (1 if j % 2 else -1)
            else:
                hs.append(fr.H[j])
        fr2 = CohomologyFrame(c, fr.B, tuple(hs), fr.A)
        rot = phi(x, fr2).coeff
        worst = max(worst, abs(rot - base * factor) / abs(base))
    return worst <= 1e-10, f"worst relative residual {worst:.2e}"


def check_torsion_direct_sum(cases, seed):
    worst = 0.0
    for i in range(cases):
        d = 3 if i % 2 else 1
        a = _instance(seed + 2 * i, d, acyclic=(i % 3 == 0))
        b = _instance(seed + 2 * i + 1, d, acyclic=(i % 2 == 0))
        fra, frb = cohomology_frame(a[0]), cohomology_frame(b[0])
        csum, gsum = chiral_direct_sum([a, b])
        frs = cohomology_frame(csum)
        lhs = refined_torsion(csum, gsum, frs).coeff
        rhs = fused_in_sum_frame(fra, frb,
                                 refined_torsion(*a, fra).coeff,
                                 refined_torsion(*b, frb).coeff, frs)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst <= TOL, f"worst relative residual {worst:.2e}"


def check_torsion_norm_unitary(cases, seed):
    worst = 0.0
    for i in range(cases):
        d = 3 if i % 2 else 1
        prof = random_profile(np.random.default_rng(seed + i), d,
                              acyclic=(i % 3 > 0))
        c, g = gen_random(seed + i, d, prof, unitary=True)
        worst = max(worst, abs(torsion_norm(c, g) - 1.0))
    return worst <= TOL, f"worst |norm - 1| = {worst:.2e}"


def check_variation_order(cases, seed):
    rng = np.random.default_rng(seed)
    ok = True
    detail = ""
    for i in range(max(1, cases // 10)):
        d = 3 if i % 2 else 1
        c, g = gen_random(seed + i, d)
        rates = [float(rng.uniform(0.2, 1.0)) * (-1) ** q for q in range(d + 1)]
        for q in range(d + 1):
            rates[d - q] = -rates[q]

        def fam(t, g=g, rates=rates):
            return ChiralityOp(tuple(math.exp(rates[q] * t) * g.gamma[q]
                                     for q in range(g.d + 1)))

        r2 = variation_check(c, fam, 0.3, h=1e-2)
        r3 = variation_check(c, fam, 0.3, h=1e-3)
        ratio = r2 / r3 if r3 > 0 else float("inf")
        detail = f"last ratio {ratio:.1f}"
        ok &= 50.0 <= ratio <= 200.0
    return ok, detail


def check_torsion_duality(cases, seed):
    worst = 0.0
    for i in range(cases):
        d = 3 if i % 2 else 1
        c, g = _instance(seed + i, d, acyclic=(i % 3 == 0))
        worst = max(worst, dual_torsion_check(c, g))
    return worst <= 1e-8, f"worst relative residual {worst:.2e}"


def check_torsion_graded_det(cases, seed):
    worst = 0.0
    for i in range(cases):
        d = 3 if i % 2 else 1
        c, g = gen_random(seed + i, d)
        rho = refined_torsion(c, g).coeff
        det = graded_det_finite(c, g)
        worst = max(worst, abs(rho - det) / abs(det))
    return worst <= TOL, f"worst relative residual {worst:.2e}"


def _lambda_choices(c, g):
    s = build_signature(c, g)
    mods = []
    for j in range(c.d + 1):
        mods.extend(abs(z) for z in np.linalg.eigvals(s.bsq_block(j)))
    mods = sorted(set(round(m, 6) for m in mods if m > 1e-4))
    lams = [0.0]
    if len(mods) > 1:
        lams.append((mods[0] + mods[1]) / 2.0)
    lams.append(2.0 * max(mods))
    return lams


def check_split_consistency(cases, seed):
    worst = 0.0
    for i in range(cases):
        d = 3 if i % 2 else 1
        c, g = _instance(seed + i, d, acyclic=(i % 2 == 0))
        fr = cohomology_frame(c)
        rho = refined_torsion(c, g, fr).coeff
        for lam in _lambda_choices(c, g):
            v = torsion_via_split(c, g, lam, fr).coeff
            worst = max(worst, abs(v - rho) / abs(rho))
    return worst <= 1e-8, f"worst relative residual {worst:.2e}"


def check_large_part_acyclic(cases, seed):
    ok = True
    for i in range(cases):
        d = 3 if i % 2 else 1
        c, g = _instance(seed + i, d, acyclic=False)
        for lam in _lambda_choices(c, g)[:2]:
            sp = spectral_split(c, g, lam)
            ok &= cohomology_frame(sp.large.complex).acyclic
    return ok, "rank test on every large part"


def check_odd_even_spectrum(cases, seed):
    worst = 0.0
    for i in range(cases):
        d = 3 if i % 2 else 1
        c, g = _instance(seed + i, d, acyclic=(i % 2 == 0))
        s = build_signature(c, g)
        ev = np.sort_complex(np.linalg.eigvals(s.b_even))
        od = np.sort_complex(np.linalg.eigvals(s.b_odd))
        if ev.size:
            worst = max(worst, float(np.abs(ev - od).max()))
    return worst <= TOL, f"worst eigenvalue gap {worst:.2e}"


def check_det_eta(cases, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 7))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        eigs = np.linalg.eigvals(m)
        try:
            theta = pick_agmon_angle(eigs)
        except Exception:
            continue
        worst = max(worst, det_eta_check(m, theta))
    return worst <= TOL, f"worst residual {worst:.2e}"


def check_xi_eta_two_path(cases, seed):
    worst = 0.0
    for i in range(cases):
        d = 3 if i % 2 else 1
        c, g = gen_random(seed + i, d)
        det = graded_det_finite(c, g)
        v = graded_det_via_xi_eta(c, g, 0.0)
        worst = max(worst, abs(v - det) / abs(det))
    return worst <= TOL, f"worst relative residual {worst:.2e}"


def check_agmon_independence(cases, seed):
    worst = 0.0
    for i in range(max(1, cases // 2)):
        d = 3 if i % 2 else 1
        c, g = gen_random(seed + i, d)
        s = build_signature(c, g)
        theta0 = pick_agmon_angle(s.b_even)
        theta1 = (theta0 - math.pi / 2) / 2.0  # halfway to the arc edge
        v0 = graded_det_via_xi_eta(c, g, 0.0, theta0)
        v1 = graded_det_via_xi_eta(c, g, 0.0, theta1)
        worst = max(worst, abs(v0 - v1) / abs(v0))
    return worst <= TOL, f"worst relative spread {worst:.2e}"


def _circle_grid(n_complex=10):
    grid = [ci.CircleModel(a) for a in np.linspace(0.045, 0.955, 20)]
    rng = np.random.default_rng(77)
    for _ in range(n_complex):
        a = complex(rng.uniform(0.05, 0.95), rng.uniform(-0.3, 0.3))
        grid.append(ci.CircleModel(a))
    return grid


def check_circle_two_path(cases, seed):
    worst = max(abs(ci.rho_an_circle(m) - ci.rho_an_closed(m))
                / abs(ci.rho_an_closed(m)) for m in _circle_grid())
    return worst <= 1e-8, f"worst relative residual {worst:.2e}"


def check_circle_rs_norm(cases, seed):
    worst = max(abs(value - target) / abs(target) for value, target in
                map(ci.rs_norm_check, _circle_grid()))
    return worst <= 1e-8, f"worst relative residual {worst:.2e}"


def check_circle_duality(cases, seed):
    worst = max(ci.duality_check(m) for m in _circle_grid())
    return worst <= TOL, f"worst residual {worst:.2e}"


def check_circle_split(cases, seed):
    worst = max(ci.split_check(m, k) for m in _circle_grid(n_complex=4)
                for k in (2, 5))
    return worst <= 1e-8, f"worst residual {worst:.2e}"


def check_circle_zeta_zero(cases, seed):
    worst = max(ci.zeta_zero_check(m) for m in _circle_grid())
    return worst <= 1e-10, f"worst |zeta(0)| = {worst:.2e}"


def check_circle_scale(cases, seed):
    worst = max(ci.metric_scale_check(m, c) for m in _circle_grid(n_complex=4)
                for c in (0.5, 2.0, 5.0))
    return worst <= TOL, f"worst residual {worst:.2e}"


def check_hurwitz_crosscheck(cases, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(max(5, cases // 10)):
        q = complex(rng.uniform(0.1, 2.0), rng.uniform(-0.3, 0.3))
        h = 1e-5
        numeric = (ci.hurwitz_zeta(h, q) - ci.hurwitz_zeta(-h, q)) / (2 * h)
        worst = max(worst, abs(numeric - ci.hurwitz_zeta_deriv0(q)))
    return worst <= 1e-8, f"worst derivative gap {worst:.2e}"


def check_round_trip(cases, seed):
    ok = True
    for i in range(max(3, cases // 20)):
        d = 3 if i % 2 else 1
        c, g = _instance(seed + i, d, acyclic=(i % 2 == 0))
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
