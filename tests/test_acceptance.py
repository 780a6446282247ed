"""Acceptance gate: one test per criterion, each printing a pass/fail line.

A criterion with a twin in the selftest registry runs that check, with its
own cases and seed; criteria 1 and 3 and the hand-checked parts of 7 and 12
stay inline.  All of them share the selftest's verdict rule, under which a
NaN or inf residual fails.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
summary lines of passing criteria as they complete).
"""

import cmath
import math

import numpy as np

from detline import (
    cohomology_frame,
    det_eta_check,
    gen_elementary,
    gen_random,
    graded_det_finite,
    refined_torsion,
    rho_an_closed,
    torsion_via_split,
)
from detline.selftest import (CHECKS, _circle_grid, _instance,
                              _lambda_choices, _verdict)


def _report(number, label, ok, detail):
    line = f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


CHECK = dict(CHECKS)  # the selftest registry by name


def test_criterion_01_running_example():
    c, g = gen_elementary(1, 0, 2.0)
    rho = refined_torsion(c, g).coeff
    det = graded_det_finite(c, g)
    ok, detail = _verdict([abs(rho - 2.0), abs(det - 2.0)], 1e-12,
                          "of |rho - 2| and |Det_gr - 2|")
    _report(1, "running example", ok, detail)


def test_criterion_02_torsion_equals_graded_det():
    # the check's instances, gen_random(1000 + i, d), stay small
    assert all(max(gen_random(1000 + i, 3 if i % 2 else 1)[0].dims.dims) <= 8
               for i in range(300))
    _report(2, "graded determinant, 300 acyclic instances",
            *CHECK["torsion-equals-graded-det"](300, 1000))


def test_criterion_03_split_level_independence():
    res = []
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
        res += [abs(torsion_via_split(c, g, lam, fr).coeff - rho) / abs(rho)
                for lam in lams]
    ok, detail = _verdict(res, 1e-8, "relative difference")
    _report(3, "spectral split across 3 levels", ok,
            f"{used} instances, {detail}")


def test_criterion_04_diagram_identities():
    names = ("fusion-cohomology-diagram", "cohomology-duality-diagram",
             "torsion-direct-sum", "torsion-duality")
    results = [CHECK[name](200, 3000) for name in names]
    _report(4, "diagram identities, 200 instances each",
            all(ok for ok, _ in results),
            ", ".join(f"{name}: {detail}"
                      for name, (_, detail) in zip(names, results)))


def test_criterion_05_unitary_norm():
    _report(5, "unit torsion norm, 500 unitary instances",
            *CHECK["torsion-norm-unitary"](500, 4000))


def test_criterion_06_variation_order():
    _report(6, "variation identity is second order",
            *CHECK["torsion-variation-order"](60, 11))


def test_criterion_07_det_eta_identity():
    ok, detail = CHECK["det-eta-identity"](50, 6)
    two = np.diag([2.0, -3.0])
    hand_ok, hand = _verdict([det_eta_check(np.diag([2.0]), -math.pi / 4),
                              det_eta_check(two, -math.pi / 4),
                              det_eta_check(two, -math.pi / 8)], 1e-14)
    _report(7, "determinant-eta identity", ok and hand_ok,
            f"50 random: {detail}; hand examples: {hand}")


# The circle checks ignore cases and seed; they run the selftest's fixed grid.


def test_criterion_08_circle_norm_real_holonomy():
    # one check covers 8 and 9: its target exp(pi Im eta) is exactly 1 on
    # the 20 real exponents of the grid
    _report(8, "unit norm on the real-holonomy grid",
            *CHECK["circle-rs-norm"](1, 0))


def test_criterion_09_circle_norm_complex_holonomy():
    _report(9, "norm exp(pi Im eta) for complex holonomy",
            *CHECK["circle-rs-norm"](1, 0))


def test_criterion_10_circle_duality():
    _report(10, "circle duality", *CHECK["circle-duality"](1, 0))


def test_criterion_11_circle_scale_invariance():
    _report(11, "metric-scale invariance",
            *CHECK["circle-scale-invariance"](1, 0))


def test_criterion_12_circle_two_paths():
    ok, detail = CHECK["circle-two-path"](1, 0)
    closed_ok, closed = _verdict(
        (abs(rho_an_closed(m) - (1.0 - cmath.exp(2j * math.pi * m.a)))
         for m in _circle_grid()), 1e-14)
    _report(12, "regularized assembly matches the closed form",
            ok and closed_ok,
            f"{detail}; closed form 1 - exp(2 pi i a): {closed}")
