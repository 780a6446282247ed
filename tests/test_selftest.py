"""Unit tests for the selftest registry and its verdict rule."""

import cmath
import dataclasses
import math

import pytest

import detline.circle as ci
import detline.selftest as st
import detline.signature as signature_mod
import detline.torsion as torsion_mod
from detline import SpectralBoundaryError


@pytest.mark.parametrize("residuals", [[0.0, math.nan, 1e-15],
                                       [math.inf], [1e-15, 2e-9]])
def test_verdict_fails_nan_inf_and_residuals_above_bound(residuals):
    passed, detail = st._verdict(residuals, 1e-9)
    assert passed is False
    assert detail.startswith("worst residual ")


def test_verdict_reports_the_worst_residual():
    assert st._verdict([1e-12, 3e-10, 0.0], 1e-9, "gap") == (
        True, "worst gap 3.00e-10 (bound 1e-09)")


def test_nan_residual_fails_the_check(monkeypatch):
    monkeypatch.setattr(st, "graded_det_finite",
                        lambda *args: complex(math.nan, math.nan))
    monkeypatch.setattr(st, "dual_torsion_check", lambda *args: math.nan)
    checks = dict(st.CHECKS)
    for name in ("torsion-equals-graded-det", "xi-eta-two-path",
                 "torsion-duality"):
        passed, detail = checks[name](4, 1)
        assert not passed, name
        assert "nan" in detail, name


def test_a_raising_check_fails_through_run_selftest(monkeypatch):
    def no_angle(m):
        raise SpectralBoundaryError("no admissible branch angle")

    monkeypatch.setattr(st, "pick_agmon_angle", no_angle)
    ok, reports = st.run_selftest(cases=1, seed=0)
    failed = [r for r in reports if not r["passed"]]
    assert not ok
    assert [r["name"] for r in failed] == ["det-eta-identity",
                                           "agmon-angle-independence"]
    assert all(r["detail"].startswith("exception: ") for r in failed)


def _stirling_scaled(m, factor):
    """ci._STIRLING with the term of B_m scaled by factor."""
    table = list(ci._STIRLING)
    table[table.index(ci._B[m] / (m * (m - 1)))] *= factor
    return tuple(table)


# the unpatched functions, which the mutants below wrap
_ETA = ci._eta
_XI = ci.xi_circle
_ETA_CIRCLE = ci.eta_circle
_ZETA0 = ci._zeta0


def _eta_plus_half(eigs, m_zero):
    data = _ETA(eigs, m_zero)
    return dataclasses.replace(data, eta=data.eta + 0.5)

# one mutant per circle check that must turn it red
CIRCLE_MUTANTS = [
    ("circle-two-path", "eta_circle", lambda m: _ETA_CIRCLE(m) + 1e-6),
    ("circle-rs-norm", "_rho_from_xi",
     lambda m, xi: cmath.exp(xi + 1j * math.pi * ci.eta_circle(m))),
    ("circle-duality", "xi_circle",
     lambda m, theta=None: _XI(m, theta) + 1e-6j),
    ("circle-split-levels", "_eta", _eta_plus_half),
    ("circle-zeta-zero", "_zeta0", lambda q: _ZETA0(q) + 1e-6),
    ("circle-scale-invariance", "_zeta0", lambda q: _ZETA0(q) + 1e-6),
    ("hurwitz-derivative-crosscheck", "_STIRLING", _stirling_scaled(6, 1.001)),
]


def test_every_circle_check_has_a_mutant():
    assert [name for name, _, _ in CIRCLE_MUTANTS] == [
        name for name, _ in st.CHECKS
        if name.startswith(("circle-", "hurwitz-"))]


@pytest.mark.parametrize("name, attr, mutant", CIRCLE_MUTANTS,
                         ids=[name for name, _, _ in CIRCLE_MUTANTS])
def test_circle_check_fails_on_its_mutant(monkeypatch, name, attr, mutant):
    check = dict(st.CHECKS)[name]
    assert check(1, 0)[0]
    monkeypatch.setattr(ci, attr, mutant)
    passed, detail = check(1, 0)
    assert not passed
    assert detail.startswith("worst ")


_SIGN_R = torsion_mod.sign_R
_ALTERNATING_DET = signature_mod.alternating_det
_B_BLOCKS = signature_mod._b_blocks


def _odd_blocks_doubled(c, g, parity=None):
    return {key: 2 * b if key[1] % 2 else b
            for key, b in _B_BLOCKS(c, g, parity).items()}

# one mutant per chiral check of the split and signature paths that must
# turn it red: (check, module, attribute, mutant)
CHIRAL_MUTANTS = [
    ("torsion-equals-graded-det", torsion_mod, "sign_R",
     lambda c: 1 - _SIGN_R(c)),
    ("split-torsion-consistency", signature_mod, "alternating_det",
     lambda mats: 1 / _ALTERNATING_DET(mats)),
    ("split-large-part-acyclic", signature_mod, "_zero_cut",
     lambda scale: 0.0),
    ("signature-odd-even-spectrum", signature_mod, "_b_blocks",
     _odd_blocks_doubled),
    ("xi-eta-two-path", signature_mod, "_eta", _eta_plus_half),
]


@pytest.mark.parametrize("name, module, attr, mutant", CHIRAL_MUTANTS,
                         ids=[name for name, _, _, _ in CHIRAL_MUTANTS])
def test_chiral_check_fails_on_its_mutant(monkeypatch, name, module, attr,
                                          mutant):
    check = dict(st.CHECKS)[name]
    assert check(1, 0)[0]
    monkeypatch.setattr(module, attr, mutant)
    passed, _ = check(1, 0)
    assert passed is False


@pytest.mark.parametrize("name", ["circle-zeta-zero",
                                  "hurwitz-derivative-crosscheck"])
def test_closed_form_checks_are_tight(name):
    passed, detail = dict(st.CHECKS)[name](1, 0)
    assert passed
    assert float(detail.split()[2]) <= 1e-14


@pytest.mark.parametrize("m", [2, 4, 6, 8])
@pytest.mark.parametrize("name", ["circle-zeta-zero",
                                  "hurwitz-derivative-crosscheck"])
def test_closed_form_checks_fail_on_a_wrong_stirling_coefficient(
        monkeypatch, name, m):
    # B_m off by 0.1% in log Gamma's Stirling series
    monkeypatch.setattr(ci, "_STIRLING", _stirling_scaled(m, 1.001))
    assert not dict(st.CHECKS)[name](1, 0)[0]


@pytest.mark.parametrize("mutant", [lambda q: _ZETA0(q) * (1 + 1e-6),
                                    lambda q: -_ZETA0(q)],
                         ids=["scaled", "negated"])
def test_circle_zeta_zero_fails_on_a_wrong_zeta_at_zero(monkeypatch, mutant):
    # a shifted zeta(0, q) is the check's row in CIRCLE_MUTANTS
    monkeypatch.setattr(ci, "_zeta0", mutant)
    assert not dict(st.CHECKS)["circle-zeta-zero"](1, 0)[0]
