"""Unit tests for the closed-form torsion model over the circle."""

import cmath
import json
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import detline.circle as circle_mod
from detline import (
    CircleModel,
    SpectralBoundaryError,
    ValidationError,
    duality_check,
    eta_circle,
    hurwitz_zeta,
    hurwitz_zeta_deriv0,
    metric_scale_check,
    rho_an_circle,
    rho_an_closed,
    rs_norm_check,
    rs_torsion_circle,
    split_check,
    xi_circle,
    zeta_zero_check,
)
from detline.circle import _check_cut
from detline.cli import main


class TestHurwitzZeta:
    def test_matches_scipy_in_convergent_range(self):
        for s in (2.0, 3.5, 6.0):
            for q in (0.3, 1.0, 2.7):
                np.testing.assert_allclose(
                    hurwitz_zeta(s, q), scipy.special.zeta(s, q), rtol=1e-13)

    def test_special_values(self):
        # zeta(0, q) = 1/2 - q and zeta(-1, q) = -(q^2 - q + 1/6)/2
        for q in (0.25, 0.5, 1.3, 0.8 + 0.2j):
            np.testing.assert_allclose(hurwitz_zeta(0.0, q), 0.5 - q,
                                       atol=1e-12)
            np.testing.assert_allclose(hurwitz_zeta(-1.0, q),
                                       -(q * q - q + 1.0 / 6.0) / 2.0,
                                       atol=1e-12)

    def test_riemann_value(self):
        np.testing.assert_allclose(hurwitz_zeta(2.0, 1.0), math.pi ** 2 / 6,
                                   rtol=1e-13)

    def test_pole_is_rejected(self):
        with pytest.raises(ValidationError):
            hurwitz_zeta(1.0, 0.5)

    def test_derivative_at_zero(self):
        # d/ds zeta(s, q)|_0 = log Gamma(q) - log sqrt(2 pi); cross-check
        # against a central difference of the series itself
        for q in (0.3, 0.75, 1.2, 0.6 + 0.1j):
            h = 1e-5
            numeric = (hurwitz_zeta(h, q) - hurwitz_zeta(-h, q)) / (2 * h)
            np.testing.assert_allclose(hurwitz_zeta_deriv0(q), numeric,
                                       atol=1e-8)
            if np.imag(q) == 0:
                target = scipy.special.loggamma(q) - 0.5 * math.log(2 * math.pi)
                np.testing.assert_allclose(hurwitz_zeta_deriv0(q), target,
                                           rtol=1e-12)


class TestCircleModel:
    def test_domain_checks(self):
        with pytest.raises(ValidationError):
            CircleModel(0.0)
        with pytest.raises(ValidationError):
            CircleModel(1.0)
        with pytest.raises(ValidationError):
            CircleModel(0.5, scale=0.0)
        # the circle command takes no --trunc: argparse exits with 2
        with pytest.raises(SystemExit) as exc:
            main(["circle", "--a", "0.25", "--trunc", "10"])
        assert exc.value.code == 2

    def test_eta_real_holonomy(self):
        # eta = (1 - 2a)/2 on the real axis
        for a in (0.25, 0.5, 0.9):
            np.testing.assert_allclose(eta_circle(CircleModel(a)),
                                       (1 - 2 * a) / 2, atol=1e-12)

    def test_xi_at_half(self):
        np.testing.assert_allclose(xi_circle(CircleModel(0.5)), math.log(2.0),
                                   atol=1e-12)

    def test_rho_at_quarter(self):
        np.testing.assert_allclose(rho_an_circle(CircleModel(0.25)), 1.0 - 1.0j,
                                   atol=1e-12)

    def test_closed_form(self):
        for a in (0.1, 0.5, 0.77, 0.4 + 0.2j):
            m = CircleModel(a)
            np.testing.assert_allclose(rho_an_closed(m),
                                       1.0 - cmath.exp(2j * math.pi * a),
                                       atol=1e-14)
            np.testing.assert_allclose(rho_an_circle(m), rho_an_closed(m),
                                       rtol=1e-10)

    def test_rs_torsion(self):
        for a in (0.2, 0.5, 0.85):
            np.testing.assert_allclose(rs_torsion_circle(CircleModel(a)),
                                       1.0 / abs(2 * math.sin(math.pi * a)),
                                       rtol=1e-12)

    def test_rs_norm_real_holonomy(self):
        for a in (0.15, 0.5, 0.9):
            value, target = rs_norm_check(CircleModel(a))
            np.testing.assert_allclose(value, 1.0, atol=1e-10)
            np.testing.assert_allclose(target, 1.0, atol=1e-14)

    def test_rs_norm_complex_holonomy(self):
        m = CircleModel(0.3 + 0.2j)
        value, target = rs_norm_check(m)
        np.testing.assert_allclose(
            target, math.exp(math.pi * eta_circle(m).imag), rtol=1e-14)
        np.testing.assert_allclose(value, target, rtol=1e-10)

    def test_duality(self):
        for a in (0.2, 0.6, 0.35 + 0.25j):
            assert duality_check(CircleModel(a)) <= 1e-10

    def test_metric_scale_invariance(self):
        m = CircleModel(0.3 + 0.1j)
        for c in (0.5, 2.0, 5.0):
            assert metric_scale_check(m, c) <= 1e-10

    def test_zeta_zero(self):
        assert zeta_zero_check(CircleModel(0.37)) <= 1e-12

    def test_split_levels(self):
        m = CircleModel(0.3)
        for k in (0, 1, 3):
            assert split_check(m, k) <= 1e-10


# The property tests are derandomized so the gate sees the same examples on
# every run.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)
RE_A = st.floats(0.01, 0.99)
# |theta| >= 1e-6 keeps 2|theta| far above the 1e-9 tolerance, so only the
# integers near n* and near 0 can come close to the cut
THETA = st.floats(-math.pi / 2 + 1e-6, -1e-6)


def _scan_hits_cut(a: complex, theta: float) -> bool:
    """Verdict of the former scan, (n+a)^2 against the ray 2 theta at 1e-9,
    over [n* - 50, n* + 50] and [-50, 50].  ``math.atan2`` stands in for
    ``cmath.phase``, which raises OverflowError when the angle underflows."""
    cut = 2.0 * theta
    centre = round(a.imag / math.tan(theta) - a.real)
    for n in {*range(centre - 50, centre + 51), *range(-50, 51)}:
        z = (n + a) ** 2
        arg = math.atan2(z.imag, z.real)
        dist = min(abs(arg - cut), abs(arg - cut - 2 * math.pi),
                   abs(arg - cut + 2 * math.pi))
        if dist < 1e-9:
            return True
    return False


def _cut_test_hits(a: complex, theta: float) -> bool:
    try:
        _check_cut(CircleModel(a), theta)
    except SpectralBoundaryError:
        return True
    return False


class TestCutTest:
    @PROPERTY
    @given(re=RE_A, im=st.floats(-10.0, 10.0), theta=THETA)
    def test_matches_scan_for_random_points(self, re, im, theta):
        a = complex(re, im)
        assert _cut_test_hits(a, theta) == _scan_hits_cut(a, theta)

    @PROPERTY
    @given(re=RE_A, n0=st.integers(-10 ** 6, 10 ** 6),
           theta=st.floats(-math.pi / 2 + 1e-3, -1e-6),
           offset=st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6)))
    def test_matches_scan_on_and_near_the_cut(self, re, n0, theta, offset):
        # (n0 + a) lies on the line of angle theta, up to an offset in Im a
        a = complex(re, (n0 + re) * math.tan(theta) + offset)
        hit = _cut_test_hits(a, theta)
        assert hit == _scan_hits_cut(a, theta)
        if offset == 0.0:
            assert hit

    def test_far_cut_point_raises(self):
        # (2000 + a)^2 lies on the cut; a scan over |n| <= 1000 missed it
        theta = -1e-4
        m = CircleModel(complex(0.3, 2000.3 * math.tan(theta)))
        with pytest.raises(SpectralBoundaryError,
                           match=r"n=2000 .*angular distance .* < tolerance "
                                 r"1e-09"):
            rho_an_circle(m, theta)


class TestSplitSet:
    @PROPERTY
    @given(re=RE_A, im=st.one_of(st.just(0.0), st.floats(-60.0, 60.0)),
           k=st.integers(0, 50))
    def test_removed_set_matches_brute_force(self, re, im, k):
        m = CircleModel(complex(re, im))
        lam = (k + m.a.real) ** 2
        want = [n + m.a for n in range(-1000, 1001)
                if abs(n + m.a) ** 2 <= lam]
        seen = []

        def spy(eigs):
            seen.append(list(eigs))
            return eta_finite(eigs)

        eta_finite = circle_mod.eta_finite
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(circle_mod, "eta_finite", spy)
            try:
                split_check(m, k)
            except SpectralBoundaryError:  # a removed point on the cut
                assume(False)
        assert seen == [want]


class TestCliContract:
    @pytest.mark.parametrize("argv", [
        ["--a", "0.3,nan"], ["--a", "0.3,inf"],
        ["--a", "0.25", "--scale", "nan"], ["--a", "0.25", "--scale", "inf"]])
    def test_non_finite_input_exits_2(self, argv, capsys):
        assert main(["circle", *argv]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("a, named", [
        ("0.3,-115", "Im a = -115"),
        # rho_an(a) is finite; duality_check overflows at conj(a)
        ("0.3,115", "Im a = -115"),
        # the Ray-Singer torsion 1/|2 sin(pi a)| leaves the float range
        ("5e-324", "Re a = 4.94066e-324")])
    def test_overflow_exits_3(self, a, named, capsys):
        assert main(["circle", "--a", a]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert named in out.err

    def test_overflow_in_library(self):
        with pytest.raises(SpectralBoundaryError, match=r"Im a = -115"):
            rho_an_circle(CircleModel(complex(0.3, -115.0)))
        with pytest.raises(SpectralBoundaryError, match=r"Im a = -115"):
            rho_an_closed(CircleModel(complex(0.3, -115.0)))

    def test_large_finite_imaginary_part_exits_0(self, capsys):
        assert main(["circle", "--a", "0.3,100"]) == 0

        def reject(name):
            raise AssertionError(f"non-finite {name} in the JSON")

        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert out["a"] == [0.3, 100.0]
        rho, closed = complex(*out["rho_an"]), complex(*out["rho_closed"])
        assert abs(rho - closed) <= 1e-12 * abs(closed)
        np.testing.assert_allclose(out["rs_norm_value"],
                                   out["rs_norm_target"], rtol=1e-9)
        assert out["duality_residual"] <= 1e-9
