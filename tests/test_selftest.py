"""Unit tests for the selftest registry and its verdict rule."""

import math

import pytest

import detline.circle as ci
import detline.selftest as st
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


@pytest.mark.parametrize("entry", [2, 4])
def test_circle_zeta_zero_fails_on_a_wrong_bernoulli_number(monkeypatch,
                                                           entry):
    # B_2 or B_4 off by 0.1% in the table the Hurwitz series reads
    check = dict(st.CHECKS)["circle-zeta-zero"]
    assert check(1, 0)[0]
    table = list(ci._B)
    table[entry] *= 1.001
    monkeypatch.setattr(ci, "_B", tuple(table))
    passed, detail = check(1, 0)
    assert not passed
    assert detail.startswith("worst relative residual ")
