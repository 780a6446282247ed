"""Unit tests for the selftest registry and its verdict rule."""

import cmath
import dataclasses
import math

import pytest

import detline.circle as ci
import detline.gradedlinalg as gradedlinalg_mod
import detline.selftest as st
import detline.signature as signature_mod
import detline.torsion as torsion_mod
import detline.workbench as workbench_mod
from detline import ChiralityOp, SpectralBoundaryError, ValidationError


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
_SIGN_M = gradedlinalg_mod.sign_M
_ALTERNATING_DET = torsion_mod.alternating_det
_FMT_FLOAT = workbench_mod._fmt_float
_SIDE_DET = signature_mod._side_det
_B_BLOCKS = signature_mod._b_blocks
_PAIR_DET = signature_mod._pair_det
_PAIR_SPECTRUM = signature_mod._pair_spectrum


def _odd_blocks_doubled(c, g):
    return {key: 2 * b if key[1] % 2 else b
            for key, b in _B_BLOCKS(c, g).items()}

# one mutant per chiral or document check that must turn it red:
# (check, module, attribute, mutant)
CHIRAL_MUTANTS = [
    ("torsion-equals-graded-det", torsion_mod, "sign_R",
     lambda c: 1 - _SIGN_R(c)),
    ("split-torsion-consistency", signature_mod, "_side_det",
     lambda table: 1 / _SIDE_DET(table)),
    ("split-large-part-acyclic", signature_mod, "_zero_cut",
     lambda scale: 0.0),
    ("signature-odd-even-spectrum", signature_mod, "_b_blocks",
     _odd_blocks_doubled),
    ("xi-eta-two-path", signature_mod, "_eta", _eta_plus_half),
    # the dual chirality's blocks transposed but not conjugated
    ("torsion-duality", torsion_mod, "dual_chirality",
     lambda g: ChiralityOp(tuple(a.T for a in g.gamma))),
    # the fusion parity M(V, W) flipped
    ("torsion-direct-sum", gradedlinalg_mod, "sign_M",
     lambda v, w: 1 - _SIGN_M(v, w)),
    ("fuse-dual-line", gradedlinalg_mod, "sign_M",
     lambda v, w: 1 - _SIGN_M(v, w)),
    # beta without its sign (-1)^n, patched where the check reads it
    ("alpha-beta-compatibility", st, "beta_line",
     lambda v, n: complex(v).conjugate()),
    # c_gamma's determinant of the first Gamma blocks doubled
    ("torsion-norm-unitary", torsion_mod, "alternating_det",
     lambda blocks: 2 * _ALTERNATING_DET(blocks)),
    ("det-eta-identity", signature_mod, "_eta", _eta_plus_half),
    # every number written one character short: a "0" becomes nothing, so
    # the text no longer reads back
    ("document-round-trip", workbench_mod, "_fmt_float",
     lambda x: _FMT_FLOAT(x)[:-1]),
]


def _passes(check) -> bool:
    """The verdict of check(1, 0), a raise of the package's own errors
    counting as a failure, as in run_selftest; any other exception (a
    mutant that does not fit its call) propagates."""
    try:
        return check(1, 0)[0]
    except (SpectralBoundaryError, ValidationError):
        return False


@pytest.mark.parametrize("name, module, attr, mutant", CHIRAL_MUTANTS,
                         ids=[name for name, _, _, _ in CHIRAL_MUTANTS])
def test_chiral_check_fails_on_its_mutant(monkeypatch, name, module, attr,
                                          mutant):
    check = dict(st.CHECKS)[name]
    assert check(1, 0)[0]
    monkeypatch.setattr(module, attr, mutant)
    assert _passes(check) is False


# mutants of a pair block [[0, Q], [P, 0]] of the +/- sides, each of which
# must turn its check red; at (cases, seed) = (2, 1) the d = 3 case,
# gen_random(2, 3), has a pair of 3 x 3 blocks on the + side
PAIR_MUTANTS = [
    ("torsion-equals-graded-det", "_pair_det",  # the sign (-1)^n dropped
     lambda p, q: (-1) ** p.shape[0] * _PAIR_DET(p, q)),
    ("xi-eta-two-path", "_pair_spectrum",  # the root -sqrt(nu) dropped
     lambda p, q: _PAIR_SPECTRUM(p, q)[:p.shape[0]]),
]


@pytest.mark.parametrize("name, attr, mutant", PAIR_MUTANTS,
                         ids=[attr for _, attr, _ in PAIR_MUTANTS])
def test_pair_block_mutant_turns_its_check_red(monkeypatch, name, attr,
                                               mutant):
    check = dict(st.CHECKS)[name]
    assert check(2, 1)[0]
    monkeypatch.setattr(signature_mod, attr, mutant)
    passed, _ = check(2, 1)
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
