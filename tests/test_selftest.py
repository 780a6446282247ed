"""Unit tests for the selftest registry and its verdict rule."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

import detline.circle as ci
import detline.complexes as complexes_mod
import detline.gradedlinalg as gradedlinalg_mod
import detline.selftest as st
import detline.signature as signature_mod
import detline.torsion as torsion_mod
import detline.workbench as workbench_mod
from detline import (ChiralityOp, DetElement, SpectralBoundaryError,
                     ValidationError)


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
    assert [r["name"] for r in failed] == ["det-eta-identity"]
    assert failed[0]["detail"].startswith("exception: ")


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
_SUPERTRACE = torsion_mod.supertrace
_FMT_FLOAT = workbench_mod._fmt_float
_SIDE_LOG_DET = signature_mod._side_log_det
_B_BLOCKS = signature_mod._b_blocks
_PAIR_SPECTRUM = signature_mod._pair_spectrum


def _odd_blocks_doubled(c, g):
    return {key: 2 * b if key[1] % 2 else b
            for key, b in _B_BLOCKS(c, g).items()}


def _unsigned_fuse(x, y):
    """fuse without its sign (-1)^{M(V, W)}."""
    return DetElement(x.coeff * y.coeff, x.dims + y.dims, x.dualized)


def _dual_graded_without_even_sign(x):
    """dual_graded with only the M(V, V) part of its sign."""
    coeff = complex(x.coeff).conjugate()
    if gradedlinalg_mod.sign_M(x.dims, x.dims):
        coeff = -coeff
    return DetElement(coeff, x.dims.reversed(), not x.dualized)

# one mutant per chiral, line or document check that must turn it red:
# (check, module, attribute, mutant, (cases, seed)), where the check
# passes unmutated and fails under the mutant at (cases, seed)
CHIRAL_MUTANTS = [
    ("torsion-equals-graded-det", torsion_mod, "sign_R",
     lambda c: 1 - _SIGN_R(c), (1, 0)),
    # each side's determinant inverted: its log negated
    ("split-torsion-consistency", signature_mod, "_side_log_det",
     lambda table: -_SIDE_LOG_DET(table), (1, 0)),
    ("split-large-part-acyclic", signature_mod, "_zero_cut",
     lambda scale: 0.0, (1, 0)),
    ("signature-odd-even-spectrum", signature_mod, "_b_blocks",
     _odd_blocks_doubled, (1, 0)),
    ("xi-eta-two-path", signature_mod, "_eta", _eta_plus_half, (1, 0)),
    # the dual chirality's blocks transposed but not conjugated
    ("torsion-duality", torsion_mod, "dual_chirality",
     lambda g: ChiralityOp(tuple(a.T for a in g.gamma)), (1, 0)),
    # the fusion parity M(V, W) flipped
    ("torsion-direct-sum", gradedlinalg_mod, "sign_M",
     lambda v, w: 1 - _SIGN_M(v, w), (1, 0)),
    ("fuse-dual-line", gradedlinalg_mod, "sign_M",
     lambda v, w: 1 - _SIGN_M(v, w), (1, 0)),
    # the fusion parity read as M(V, V): fuse stops being associative,
    # where a dropped, negated or swapped M keeps it so
    ("fuse-associative", gradedlinalg_mod, "sign_M",
     lambda v, w: _SIGN_M(v, v), (40, 12345)),
    # beta without its sign (-1)^n, patched where the check reads it
    ("alpha-beta-compatibility", st, "beta_line",
     lambda v, n: complex(v).conjugate(), (1, 0)),
    # c_gamma's determinant of the first Gamma blocks doubled
    ("torsion-norm-unitary", torsion_mod, "alternating_det",
     lambda blocks: 2 * _ALTERNATING_DET(blocks), (1, 0)),
    ("det-eta-identity", signature_mod, "_eta", _eta_plus_half, (1, 0)),
    # the variation identity's right-hand side with its sign flipped
    ("torsion-variation-order", torsion_mod, "supertrace",
     lambda blocks: -_SUPERTRACE(blocks), (1, 0)),
    # every number written one character short: a "0" becomes nothing, so
    # the text no longer reads back
    ("document-round-trip", workbench_mod, "_fmt_float",
     lambda x: _FMT_FLOAT(x)[:-1], (1, 0)),
    # one Agmon arc for every spectrum, (-pi/2, 0): a turned spectrum's
    # angle may then be inadmissible, and xi/eta returns -Det_gr
    ("agmon-angle-independence", signature_mod, "_agmon_arc",
     lambda eigs: (0.0, math.pi / 2), (1, 0)),
    # the line checks, patched where they read fuse and dual_graded; at
    # (1, 0) no draw has the dropped sign odd, at (1, 1) one does
    ("fuse-anticommutation", st, "fuse", _unsigned_fuse, (1, 1)),
    ("dual-graded-involution", st, "dual_graded",
     _dual_graded_without_even_sign, (1, 1)),
]


def _passes(check, cases, seed) -> bool:
    """The verdict of check(cases, seed), a raise of the package's own
    errors counting as a failure, as in run_selftest; any other exception
    (a mutant that does not fit its call) propagates."""
    try:
        return check(cases, seed)[0]
    except (SpectralBoundaryError, ValidationError):
        return False


@pytest.mark.parametrize("name, module, attr, mutant, at", CHIRAL_MUTANTS,
                         ids=[row[0] for row in CHIRAL_MUTANTS])
def test_chiral_check_fails_on_its_mutant(monkeypatch, name, module, attr,
                                          mutant, at):
    check = dict(st.CHECKS)[name]
    assert check(*at)[0]
    monkeypatch.setattr(module, attr, mutant)
    assert _passes(check, *at) is False


@pytest.mark.parametrize("module", [torsion_mod, complexes_mod],
                         ids=["c_gamma", "phi"])
def test_unitary_norm_check_reads_ln2_when_rho_doubles(monkeypatch, module):
    # torsion-norm-unitary compares log|rho| with log T_RS from the singular
    # values of d, so a doubled determinant in c_Gamma or in phi reads ln 2
    check = dict(st.CHECKS)["torsion-norm-unitary"]
    assert check(1, 0)[0]
    monkeypatch.setattr(module, "alternating_det",
                        lambda blocks: 2 * _ALTERNATING_DET(blocks))
    passed, detail = check(1, 0)
    assert not passed
    assert detail.split()[-3] == f"{math.log(2.0):.2e}"


def _side_log_det_unsigned(table):
    """_side_log_det without the sign (-1)^n of its n x n pairs: i pi n
    more, which flips the value at odd n."""
    return _SIDE_LOG_DET(table) + 1j * math.pi * sum(
        b.shape[0] for (t, s), b in table.items() if s < t)


# mutants of a pair block [[0, Q], [P, 0]] of the +/- sides, each of which
# must turn its check red; at (cases, seed) = (2, 1) the d = 3 case,
# gen_random(2, 3), has a pair of 3 x 3 blocks on the + side
PAIR_MUTANTS = [
    ("torsion-equals-graded-det", "_side_log_det",  # the sign (-1)^n dropped
     _side_log_det_unsigned),
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


def _old_lambda_rule(c, g):
    """The level rule as written before a complex with no modulus above the
    cut raised a named boundary: the reference for every other complex."""
    s = st.build_signature(c, g)
    mods = sorted({round(abs(z), 6) for j in range(c.d + 1)
                   for z in np.linalg.eigvals(s.bsq_block(j))
                   if abs(z) > 1e-4})
    lams = [0.0]
    if len(mods) > 1:
        lams.append((mods[0] + mods[1]) / 2.0)
    return lams + [2.0 * max(mods)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("d", [1, 3, 5])
@pytest.mark.parametrize("acyclic", [True, False])
def test_split_levels_are_unchanged(seed, d, acyclic):
    c, g = st._instance(seed, d, acyclic)
    assert st._lambda_choices(c, g) == _old_lambda_rule(c, g)


def test_overflowing_b_squared_leaves_no_level():
    # z^2 = 1e400: the B^2 block has no moduli to place a level among, a
    # named boundary as in the split itself, not numpy's LinAlgError;
    # numpy's overflow warning is silenced as the CLI does
    c, g = workbench_mod.gen_elementary(1, 0, 1e200)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            SpectralBoundaryError, match=r"^degree 0: the B\^2 block is not "
                                         r"finite \(overflow\)$"):
        st._lambda_choices(c, g)


@pytest.mark.parametrize("t", [1e-4, 1e-6, 1e-8])
def test_no_level_above_the_cut_is_a_named_boundary(t):
    # every B^2 modulus of gen_random(0, 3) scales by t^2, below the 1e-4
    # cut from t = 1e-4 on: no split level is left to choose
    c, g = workbench_mod.gen_random(0, 3)
    top = max(st._lambda_choices(c, g)) / 2.0
    scaled = st.CochainComplex(c.dims, tuple(t * m for m in c.partial))
    with pytest.raises(SpectralBoundaryError,
                       match=r"^largest B\^2 modulus \S+ is at or below "
                             r"the split level cut 1e-4$") as exc:
        st._lambda_choices(scaled, g)
    largest = float(str(exc.value).split()[3])
    assert largest == pytest.approx(top * t * t, rel=1e-2)
