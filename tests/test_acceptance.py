"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
summary lines of passing criteria as they complete).
"""

import cmath
import math

import numpy as np

from detline import (
    CircleModel,
    DetElement,
    chiral_direct_sum,
    cohomology_frame,
    det_eta_check,
    direct_sum,
    dual_complex,
    dual_graded,
    dual_torsion_check,
    duality_check,
    eta_circle,
    fuse,
    gen_elementary,
    gen_random,
    graded_det_finite,
    metric_scale_check,
    phi,
    pick_agmon_angle,
    random_profile,
    refined_torsion,
    rho_an_circle,
    rho_an_closed,
    rs_norm_check,
    torsion_norm,
    torsion_via_split,
    variation_check,
)
from detline.complexes import alpha_cohomology, fused_in_sum_frame
from detline.selftest import _instance, _lambda_choices, _rand_coeff
from detline.torsion import ChiralityOp


def _report(number, label, ok, detail):
    line = f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_running_example():
    c, g = gen_elementary(1, 0, 2.0)
    rho = refined_torsion(c, g).coeff
    det = graded_det_finite(c, g)
    worst = max(abs(rho - 2.0), abs(det - 2.0))
    _report(1, "running example", worst <= 1e-12,
            f"|rho - 2| and |Det_gr - 2| at most {worst:.2e}")


def test_criterion_02_torsion_equals_graded_det():
    worst = 0.0
    for i in range(300):
        d = 3 if i % 2 else 1
        c, g = _instance(1000 + i, d, acyclic=True)
        assert max(c.dims.dims) <= 8
        rho = refined_torsion(c, g).coeff
        det = graded_det_finite(c, g)
        worst = max(worst, abs(rho - det) / abs(det))
    _report(2, "graded determinant, 300 acyclic instances", worst <= 1e-9,
            f"worst relative difference {worst:.2e}")


def test_criterion_03_split_level_independence():
    worst = 0.0
    used = 0
    i = 0
    while used < 40:
        i += 1
        d = 3 if i % 2 else 1
        c, g = _instance(2000 + i, d, acyclic=(i % 2 == 0))
        lams = _lambda_choices(c, g)
        if len(lams) < 3:  # fewer than two distinct nonzero moduli
            continue
        used += 1
        fr = cohomology_frame(c)
        rho = refined_torsion(c, g, fr).coeff
        for lam in lams:
            v = torsion_via_split(c, g, lam, fr).coeff
            worst = max(worst, abs(v - rho) / abs(rho))
    _report(3, "spectral split across 3 levels", worst <= 1e-8,
            f"{used} instances, worst relative difference {worst:.2e}")


def test_criterion_04_diagram_identities():
    rng = np.random.default_rng(42)
    worst = {"fusion": 0.0, "duality": 0.0, "sum": 0.0, "torsion-dual": 0.0}
    for i in range(200):
        d = 3 if i % 2 else 1
        a = _instance(3000 + 2 * i, d, acyclic=(i % 3 == 0))
        b = _instance(3001 + 2 * i, d, acyclic=(i % 2 == 0))
        fra, frb = cohomology_frame(a[0]), cohomology_frame(b[0])

        # fusion commutes with passing to cohomology
        csum = direct_sum(a[0], b[0])
        frs = cohomology_frame(csum)
        xa = DetElement(_rand_coeff(rng), a[0].dims)
        xb = DetElement(_rand_coeff(rng), b[0].dims)
        lhs = phi(fuse(xa, xb), frs).coeff
        rhs = fused_in_sum_frame(fra, frb, phi(xa, fra).coeff,
                                 phi(xb, frb).coeff, frs)
        worst["fusion"] = max(worst["fusion"], abs(lhs - rhs) / abs(lhs))

        # duality commutes with passing to cohomology
        chat = dual_complex(a[0])
        frh = cohomology_frame(chat)
        xd = dual_graded(xa)
        lhs = phi(DetElement(xd.coeff, chat.dims), frh).coeff
        rhs = alpha_cohomology(phi(xa, fra), frh).coeff
        worst["duality"] = max(worst["duality"], abs(lhs - rhs) / abs(lhs))

        # torsion of a direct sum is the fused torsion
        csum, gsum = chiral_direct_sum([a, b])
        frs = cohomology_frame(csum)
        lhs = refined_torsion(csum, gsum, frs).coeff
        rhs = fused_in_sum_frame(fra, frb, refined_torsion(*a, fra).coeff,
                                 refined_torsion(*b, frb).coeff, frs)
        worst["sum"] = max(worst["sum"], abs(lhs - rhs) / abs(lhs))

        # torsion of the dual pair is the dual of the torsion
        worst["torsion-dual"] = max(worst["torsion-dual"],
                                    dual_torsion_check(*a))
    bad = max(worst.values())
    _report(4, "diagram identities, 200 instances each", bad <= 1e-8,
            ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def test_criterion_05_unitary_norm():
    worst = 0.0
    for i in range(500):
        d = 3 if i % 2 else 1
        prof = random_profile(np.random.default_rng(4000 + i), d,
                              acyclic=(i % 3 > 0))
        c, g = gen_random(4000 + i, d, prof, unitary=True)
        worst = max(worst, abs(torsion_norm(c, g) - 1.0))
    _report(5, "unit torsion norm, 500 unitary instances", worst <= 1e-9,
            f"worst |norm - 1| = {worst:.2e}")


def _gamma_family(c, g, seed):
    d = c.d
    n = c.dims.dims
    rng = np.random.default_rng(seed)
    gens = [rng.standard_normal((n[d - j], n[j]))
            + 1j * rng.standard_normal((n[d - j], n[j]))
            for j in range((d + 1) // 2)]

    def gamma_of_t(t):
        blocks = list(g.gamma)
        for j, h in enumerate(gens):
            blocks[j] = g.gamma[j] + t * h
        for j, _ in enumerate(gens):
            blocks[d - j] = np.linalg.inv(blocks[j])
        return ChiralityOp(tuple(blocks))

    return gamma_of_t


def test_criterion_06_variation_order():
    ratios = []
    for seed in (11, 12, 13):
        c, g = _instance(seed, 3, acyclic=True)
        fam = _gamma_family(c, g, seed)
        coarse = variation_check(c, fam, 0.1, h=1e-2)
        fine = variation_check(c, fam, 0.1, h=1e-3)
        ratios.append(coarse / fine)
    ok = all(50.0 <= r <= 200.0 for r in ratios)
    _report(6, "variation identity is second order", ok,
            "ratios " + ", ".join(f"{r:.1f}" for r in ratios))


def test_criterion_07_det_eta_identity():
    hand = max(det_eta_check(np.diag([2.0]), -math.pi / 4),
               det_eta_check(np.diag([2.0, -3.0]), -math.pi / 4),
               det_eta_check(np.diag([2.0, -3.0]), -math.pi / 8))
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        worst = max(worst, det_eta_check(m, pick_agmon_angle(m)))
    ok = worst <= 1e-9 and hand <= 1e-14
    _report(7, "determinant-eta identity", ok,
            f"50 random residuals at most {worst:.2e}, hand examples {hand:.2e}")


_REAL_GRID = np.linspace(0.045, 0.955, 20)
_COMPLEX_GRID = [complex(re, im) for re, im in zip(
    np.linspace(0.08, 0.92, 10),
    np.linspace(-0.3, 0.3, 10))]


def test_criterion_08_circle_norm_real_holonomy():
    worst = max(abs(rs_norm_check(CircleModel(a))[0] - 1.0)
                for a in _REAL_GRID)
    _report(8, "unit norm on the real-holonomy grid", worst <= 1e-8,
            f"worst |value - 1| = {worst:.2e}")


def test_criterion_09_circle_norm_complex_holonomy():
    worst = 0.0
    for a in _COMPLEX_GRID:
        m = CircleModel(a)
        value, _ = rs_norm_check(m)
        target = math.exp(math.pi * eta_circle(m).imag)
        worst = max(worst, abs(value - target) / target)
    _report(9, "norm exp(pi Im eta) for complex holonomy", worst <= 1e-8,
            f"worst relative difference {worst:.2e}")


def test_criterion_10_circle_duality():
    worst = max(duality_check(CircleModel(a))
                for a in list(_REAL_GRID) + _COMPLEX_GRID)
    _report(10, "circle duality", worst <= 1e-9,
            f"worst residual {worst:.2e}")


def test_criterion_11_circle_scale_invariance():
    worst = max(metric_scale_check(CircleModel(a), c)
                for a in (0.2, 0.5, 0.3 + 0.15j)
                for c in (0.5, 2.0, 5.0))
    _report(11, "metric-scale invariance", worst <= 1e-9,
            f"worst residual {worst:.2e}")


def test_criterion_12_circle_two_paths():
    worst = 0.0
    for a in list(_REAL_GRID) + _COMPLEX_GRID:
        m = CircleModel(a)
        closed = 1.0 - cmath.exp(2j * math.pi * m.a)
        assert abs(rho_an_closed(m) - closed) <= 1e-14
        worst = max(worst, abs(rho_an_circle(m) - closed) / abs(closed))
    _report(12, "regularized assembly matches the closed form", worst <= 1e-8,
            f"worst relative difference {worst:.2e}")
