"""Unit tests for the closed-form torsion model over the circle."""

import cmath
import json
import math
import sys
from fractions import Fraction

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
    hurwitz_zeta_deriv0,
    metric_scale_check,
    pick_agmon_angle,
    rho_an_circle,
    rho_an_closed,
    rs_norm_check,
    rs_torsion_circle,
    split_check,
    xi_circle,
    zeta_zero_check,
)
from detline.circle import _agmon_angle
from detline.selftest import _circle_grid
from detline.cli import main


class TestLogGamma:
    def test_matches_scipy_loggamma(self):
        # scipy.special.loggamma is an independent oracle, needed by the tests
        # only: 0 < Re q <= 1 with |Im q| <= 115 (the holonomy range of the
        # CLI), and a few q further out
        qs = [complex(x, y) for x in np.linspace(0.01, 1.0, 12)
              for y in np.linspace(-115.0, 115.0, 47)]
        qs += [1.5, 2.0, 3.7, 10.0, 55.5, 1000.0, 2.0 + 30.0j]
        for q in qs:
            ref = complex(scipy.special.loggamma(q))
            assert abs(circle_mod._loggamma(complex(q)) - ref) <= 5e-15 * (
                1.0 + abs(ref))

    def test_derivative_at_zero(self):
        # d/ds zeta(s, q)|_0 = log Gamma(q) - log sqrt(2 pi) (Lerch), against
        # scipy.special.loggamma for 0 < Re q <= 2 and |Im q| <= 0.3
        qs = [complex(x, y) for x in np.linspace(0.01, 2.0, 21)
              for y in np.linspace(-0.3, 0.3, 7)]
        for q in qs + [0.3, 0.75, 1.2, 0.6 + 0.1j]:
            target = scipy.special.loggamma(q) - 0.5 * math.log(2 * math.pi)
            np.testing.assert_allclose(hurwitz_zeta_deriv0(q), target,
                                       rtol=1e-12)

    def test_bernoulli_table_is_exact(self):
        # B_m from sum_{k <= m} C(m + 1, k) B_k = 0 in exact rationals; each
        # entry is the correctly rounded float of B_m
        exact = [Fraction(1)]
        for m in range(1, 19):
            exact.append(-sum(math.comb(m + 1, k) * exact[k]
                              for k in range(m)) / (m + 1))
        assert circle_mod._B == tuple(float(b) for b in exact)


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

    @pytest.mark.parametrize("call, message", [
        (lambda: hurwitz_zeta_deriv0(0.0), r"Re q > 0"),
        (lambda: hurwitz_zeta_deriv0(-0.5 + 1j), r"Re q > 0"),
        (lambda: metric_scale_check(CircleModel(0.3), 0.0),
         "scale must be positive"),
        (lambda: metric_scale_check(CircleModel(0.3), -2.0),
         "scale must be positive"),
        (lambda: split_check(CircleModel(0.3), -1), "k must be nonnegative"),
    ], ids=["zeta-q-0", "zeta-q-negative", "scale-0", "scale-negative",
            "split-k-negative"])
    def test_argument_out_of_range_is_rejected(self, call, message):
        with pytest.raises(ValidationError, match=message):
            call()

    def test_eta_real_holonomy(self):
        # eta = (1 - 2a)/2 on the real axis
        for a in (0.25, 0.5, 0.9):
            np.testing.assert_allclose(eta_circle(CircleModel(a)),
                                       (1 - 2 * a) / 2, atol=1e-12)

    def test_xi_at_half(self):
        np.testing.assert_allclose(xi_circle(CircleModel(0.5)), math.log(2.0),
                                   atol=1e-12)

    @pytest.mark.parametrize("im, bound", [(1e3, 1e-11), (1e6, 1e-8)])
    def test_rho_accuracy_at_large_positive_im_a(self, im, bound):
        # Re xi and pi Im eta cancel in the exponent, so about pi Im a eps
        # of relative precision goes (1.4e-12 at 1e3, 1.1e-9 at 1e6)
        m = CircleModel(complex(0.3, im))
        closed = rho_an_closed(m)
        assert abs(rho_an_circle(m) - closed) <= bound * abs(closed)

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

    def test_zeta_zero_on_the_selftest_grid(self):
        assert max(map(zeta_zero_check, _circle_grid())) <= 1e-15

    def test_split_levels(self):
        m = CircleModel(0.3)
        for k in (0, 1, 3):
            assert split_check(m, k) <= 1e-10

    @pytest.mark.parametrize("a", [1e-6, 1e-9, 1 - 1e-6, complex(1e-6, 1e-6)])
    def test_split_near_an_integer_exponent(self, a):
        # the removed eigenvalue a (or a - 1) is small, and its square lies
        # below the absolute zero floor; no n + a is zero, so the finite
        # part keeps it in xi as in eta
        m = CircleModel(a)
        for k in (0, 2):
            assert split_check(m, k) <= 1e-9 * abs(rho_an_circle(m))


# The property tests are derandomized so the gate sees the same examples on
# every run.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)
RE_A = st.floats(0.01, 0.99)
THETA = st.floats(-math.pi / 2 + 1e-6, -1e-6)
# the three points of the former known defect: a (or a - 1) lies past the
# ray arg = -pi/4 of the former default angle
PAST_RAY = (0.15 - 0.25j, 0.3 + 0.8j, 0.1 - 0.5j)


def _scan_range(a: complex, theta: float):
    """n in [-50, 50] and [n* - 50, n* + 50], where n* + a crosses the line
    of angle theta."""
    centre = round(a.imag / math.tan(theta) - a.real)
    return {*range(centre - 50, centre + 51), *range(-50, 51)}


def _scan_hits_cut(a: complex, theta: float) -> bool:
    """Verdict of the former on-cut test, (n+a)^2 against the ray 2 theta at
    1e-9, over the scan range.  ``math.atan2`` stands in for
    ``cmath.phase``, which raises OverflowError when the angle underflows."""
    cut = 2.0 * theta
    for n in _scan_range(a, theta):
        z = (n + a) ** 2
        arg = math.atan2(z.imag, z.real)
        dist = min(abs(arg - cut), abs(arg - cut - 2 * math.pi),
                   abs(arg - cut + 2 * math.pi))
        if dist < 1e-9:
            return True
    return False


def _scan_sector(a: complex, theta: float) -> tuple[bool, bool]:
    """Brute-force sector rule over the scan range: whether some n + a lies
    in (-pi/2, theta] or (pi/2, theta + pi], and whether theta keeps less
    than 1e-9, on the squares, from either end of the admissible arc."""
    inside, bound = False, 0.0
    for n in _scan_range(a, theta):
        z = n + a
        w = math.atan2(z.imag, z.real)
        w = w - math.pi if w > math.pi / 2 else w
        if -math.pi / 2 < w < 0.0:
            inside = inside or w <= theta
            bound = min(bound, w)
    return inside, 2.0 * min(bound - theta, theta + math.pi / 2) < 1e-9


def _rule_raises(a: complex, theta: float) -> bool:
    try:
        _agmon_angle(CircleModel(a), theta)
    except SpectralBoundaryError:
        return True
    return False


def _check_against_scans(a: complex, theta: float) -> bool:
    raised = _rule_raises(a, theta)
    inside, near = _scan_sector(a, theta)
    assert raised == (inside or near)
    # the sector rule rejects whatever the former on-cut test rejected
    assert raised or not _scan_hits_cut(a, theta)
    return raised


class TestCutTest:
    """The circle's branch angle obeys the finite model's Agmon rule."""

    @PROPERTY
    @given(re=RE_A, im=st.floats(-10.0, 10.0), theta=THETA)
    def test_matches_scan_for_random_points(self, re, im, theta):
        _check_against_scans(complex(re, im), theta)

    @PROPERTY
    @given(re=RE_A, n0=st.integers(-10 ** 6, 10 ** 6),
           theta=st.floats(-math.pi / 2 + 1e-3, -1e-6),
           offset=st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6)))
    def test_matches_scan_on_and_near_the_cut(self, re, n0, theta, offset):
        # (n0 + a) lies on the line of angle theta, up to an offset in Im a
        a = complex(re, (n0 + re) * math.tan(theta) + offset)
        hit = _check_against_scans(a, theta)
        if offset == 0.0:
            assert hit

    @PROPERTY
    @given(re=RE_A, im=st.floats(-2.0, 2.0), theta=THETA,
           k=st.integers(0, 6))
    def test_split_vanishes_exactly_where_theta_is_admissible(self, re, im,
                                                               theta, k):
        m = CircleModel(complex(re, im))
        if _rule_raises(m.a, theta):
            with pytest.raises(SpectralBoundaryError):
                split_check(m, k, theta)
        else:
            assert split_check(m, k, theta) <= 1e-12 * max(
                1.0, abs(rho_an_closed(m)))

    @pytest.mark.parametrize("a, theta, message", [
        # past the former default ray: a lies inside the sector
        (0.15 - 0.25j, -math.pi / 4,
         "theta -0.78539816339744828 is not an Agmon angle clear of the "
         "sector edges: the admissible arc is (-pi/2, -1.0303768265243125), "
         "set by n=0; sector margin -0.49 < tolerance 1e-09"),
        # a - 1 lies inside the upper sector (pi/2, theta + pi]
        (0.3 + 0.8j, -math.pi / 4,
         "theta -0.78539816339744828 is not an Agmon angle clear of the "
         "sector edges: the admissible arc is (-pi/2, -0.85196632717327203), "
         "set by n=-1; sector margin -0.133 < tolerance 1e-09"),
        # admissible, but within the tolerance of the eigenvalue a
        (0.3 - 0.3j, -math.pi / 4 - 2e-10,
         "theta -0.7853981635974483 is not an Agmon angle clear of the "
         "sector edges: the admissible arc is (-pi/2, -0.78539816339744828), "
         "set by n=0; sector margin 4e-10 < tolerance 1e-09"),
        # within the tolerance of either end of the arc
        (0.3, -math.pi / 2 + 1e-10,
         "theta -1.5707963266948965 is not an Agmon angle clear of the "
         "sector edges: the admissible arc is (-pi/2, 0), set by n=0; "
         "sector margin 2e-10 < tolerance 1e-09"),
        (0.3, -1e-10,
         "theta -1e-10 is not an Agmon angle clear of the sector edges: the "
         "admissible arc is (-pi/2, 0), set by n=0; sector margin 2e-10 < "
         "tolerance 1e-09")])
    def test_rejection_names_n_and_margin(self, a, theta, message):
        m = CircleModel(a)
        for f in (xi_circle, rho_an_circle, lambda m, t: split_check(m, 2, t)):
            with pytest.raises(SpectralBoundaryError) as exc:
                f(m, theta)
            assert str(exc.value) == message

    def test_far_cut_point_raises(self):
        # (2000 + a)^2 lies on the cut 2 theta, far from n = 0; a itself is
        # deep inside the sector (-pi/2, theta]
        theta = -1e-4
        m = CircleModel(complex(0.3, 2000.3 * math.tan(theta)))
        with pytest.raises(SpectralBoundaryError) as exc:
            rho_an_circle(m, theta)
        assert str(exc.value) == (
            "theta -0.0001 is not an Agmon angle clear of the sector edges: "
            "the admissible arc is (-pi/2, -0.58807183266011931), set by "
            "n=0; sector margin -1.18 < tolerance 1e-09")

    @pytest.mark.parametrize("theta", [0.0, -math.pi / 2, 0.1, -2.0,
                                       math.nan])
    def test_angle_outside_the_arc_is_invalid(self, theta):
        with pytest.raises(ValidationError,
                           match=r"^branch angle must lie in \(-pi/2, 0\)$"):
            rho_an_circle(CircleModel(0.3), theta)

    def test_default_angle_is_the_finite_models_pick(self):
        # near the sector edges too: Re a near 0 or 1, |Im a| up to where
        # the arc closes (below 1e-8 wide past |Im a| ~ 1e8)
        grid = [complex(re, im)
                for re in (1e-6, 1e-3, 0.05, 0.3, 0.5, 0.71, 0.999, 1 - 1e-6)
                for im in (0.0, 1e-9, -1e-9, 0.25, -0.8, 40.0, -3e3, 1e6,
                           -5e7, 3e8)]
        for a in grid + [0.15 - 0.25j, 0.3 + 0.8j, 0.6 + 40j]:
            m = CircleModel(a)
            for spectrum in ([m.a, m.a - 1.0], np.array([m.a, m.a - 1.0])):
                try:
                    want = pick_agmon_angle(spectrum)
                except SpectralBoundaryError as exc:
                    with pytest.raises(SpectralBoundaryError) as got:
                        _agmon_angle(m, None)
                    assert str(got.value) == str(exc)
                else:
                    assert _agmon_angle(m, None) == want
        # on the real axis it is the midpoint of the whole arc
        assert _agmon_angle(CircleModel(0.3), None) == -math.pi / 4

    def test_a_tiny_exponent_is_not_a_zero_eigenvalue(self):
        # pick_agmon_angle counts |a| <= 1e-8 |a - 1| as zero and drops it;
        # the model's a is never zero, so its sector still bounds the arc
        m = CircleModel(1e-9 - 1e-9j)
        assert pick_agmon_angle([m.a, m.a - 1.0]) == -math.pi / 4
        assert _agmon_angle(m, None) == (-math.pi / 4 - math.pi / 2) / 2
        assert abs(rho_an_circle(m) / rho_an_closed(m) - 1) <= 1e-8

    def test_no_admissible_angle_far_up_the_line(self):
        # at |Im a| = 1e9 the arc left by a (or a - 1) is below 1e-8 wide;
        # from about |Im a| = 3e16 the phase of a - 1 rounds to +-pi/2, and
        # the width, taken from the parts, still closes the arc
        for im in (1e9, -1e9, 3e16, 1e19, 1e200, -1e19):
            with pytest.raises(SpectralBoundaryError,
                               match=r"^no admissible branch angle in "
                                     r"\(-pi/2, 0\)$"):
                rho_an_circle(CircleModel(complex(0.3, im)))
            with pytest.raises(SpectralBoundaryError,
                               match="not an Agmon angle"):
                _agmon_angle(CircleModel(complex(0.3, im)), -math.pi / 4)

    def test_refused_before_the_cancellation_costs_1e_7(self):
        # the arc width rule is what keeps rho_an's cancellation in check:
        # at Re a = 0.3 it admits Im a = 1e7 (relative error 1.8e-8) and
        # refuses 1e8, where rho_an with the rule bypassed is off by 2.6e-7
        m = CircleModel(complex(0.3, 1e7))
        assert abs(rho_an_circle(m) / rho_an_closed(m) - 1) <= 1e-7
        with pytest.raises(SpectralBoundaryError,
                           match=r"^no admissible branch angle in "
                                 r"\(-pi/2, 0\)$"):
            rho_an_circle(CircleModel(complex(0.3, 1e8)))

    @pytest.mark.parametrize("a", PAST_RAY)
    @pytest.mark.parametrize("k", [2, 5])
    def test_split_past_the_former_default_ray(self, a, k):
        assert split_check(CircleModel(a), k) <= 1e-12


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

        def spy(eigs, m_zero):
            seen.append(list(eigs))
            return eta(eigs, m_zero)

        eta = circle_mod._eta
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(circle_mod, "_eta", spy)
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
        ("0.3,-113", "Im a = -113"),
        # rho_an ~ -2 pi i a falls below the normal float range
        ("5e-324", "Re a = 4.94066e-324")])
    def test_overflow_exits_3(self, a, named, capsys):
        assert main(["circle", "--a", a]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert named in out.err

    @pytest.mark.parametrize("a", ["0.3,113", "0.3,115", "0.5,200"])
    def test_dual_model_past_the_float_range_exits_0(self, a, capsys):
        # rho_an(a) is finite; rho_an(conj a) is not, and the duality
        # residual, taken on the exponents, never forms it
        assert main(["circle", "--a", a]) == 0

        def reject(name):
            raise AssertionError(f"non-finite {name} in the JSON")

        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        for key in ("eta", "xi", "rho_an", "rho_closed"):
            assert all(math.isfinite(x) for x in out[key]), key
        for key in ("rs_torsion", "rs_norm_value", "rs_norm_target"):
            assert math.isfinite(out[key]), key
        rho, closed = complex(*out["rho_an"]), complex(*out["rho_closed"])
        assert abs(rho - closed) <= 1e-12 * abs(closed)
        assert out["duality_residual"] <= 1e-9

    def test_overflow_in_library(self):
        with pytest.raises(SpectralBoundaryError, match=r"Im a = -115"):
            rho_an_circle(CircleModel(complex(0.3, -115.0)))
        with pytest.raises(SpectralBoundaryError, match=r"Im a = -115"):
            rho_an_closed(CircleModel(complex(0.3, -115.0)))

    def test_tiny_exponent_underflows(self, capsys):
        # rho_an = 1 - exp(2 pi i a) ~ -2 pi i a is never 0, so at
        # a = 5e-324 its subnormal value (-3e-323j) is an underflow, which
        # every path through it names first; rho_an_closed names its own
        # (test_tiny_exponent_closed_form_underflows)
        m = CircleModel(5e-324)
        message = ("exp of real part -742.602 underflows the float range "
                   "at Re a = 4.94066e-324, Im a = 0")
        for call in (rho_an_circle, rs_norm_check,
                     lambda m: metric_scale_check(m, 2.0)):
            with pytest.raises(SpectralBoundaryError) as exc:
                call(m)
            assert str(exc.value) == message
        assert main(["circle", "--a", "5e-324"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"numerical boundary: {message}\n"

    @pytest.mark.parametrize("a", [5e-324, 1e-309, 3.5e-309])
    def test_tiny_exponent_closed_form_underflows(self, a):
        # 1 - exp(2 pi i a) ~ -2 pi i a is never 0 on 0 < Re a < 1, so a
        # subnormal value is an underflow; only its term exp(2 pi i a) may
        # legitimately leave the range (to 0, at large Im a)
        with pytest.raises(SpectralBoundaryError) as exc:
            rho_an_closed(CircleModel(a))
        assert str(exc.value) == (
            f"1 - exp(2 pi i a) underflows the float range at "
            f"Re a = {a:g}, Im a = 0")

    def test_least_normal_closed_form_is_returned(self):
        value = rho_an_closed(CircleModel(3.6e-309))
        assert value.real == 0.0
        assert sys.float_info.min <= abs(value) == -value.imag
        assert abs(value.imag + 2 * math.pi * 3.6e-309) <= 1e-15 * abs(value)

    @pytest.mark.parametrize("im, real", [(-113.0, "710"),
                                          (-115.0, "722.566")])
    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_split_check_overflow_names_the_real_part(self, im, real, k):
        # no eigenvalue lies below these levels, so the large part is all
        # of rho_an, whose modulus exp(2 pi |Im a|) overflows
        with pytest.raises(SpectralBoundaryError) as exc:
            split_check(CircleModel(complex(0.3, im)), k)
        assert str(exc.value) == (f"exp of real part {real} overflows the "
                                  f"float range at Re a = 0.3, Im a = "
                                  f"{im:g}")

    @pytest.mark.parametrize("a", ["0.3,300", "0.5,237.3", "0.3,237.1",
                                   "0.3,225.49", "0.95,225.49"])
    def test_ray_singer_underflow_exits_3(self, a, capsys):
        # rs_torsion and rs_norm_target are about exp(-pi Im a), never 0;
        # they round to 0 from Im a ~ 237.18 and are subnormal from
        # Im a ~ 225.4896, where exp(-pi Im a) = 2.2e-308
        assert main(["circle", "--a", a]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        re, im = a.split(",")
        assert out.err.startswith("numerical boundary: exp of real part -")
        assert out.err.endswith(f" underflows the float range at Re a = "
                                f"{re}, Im a = {im}\n")

    @pytest.mark.parametrize("a", ["0.3,225.489", "0.95,225.489"])
    def test_last_normal_ray_singer_values_exit_0(self, a, capsys):
        assert main(["circle", "--a", a]) == 0
        out = json.loads(capsys.readouterr().out)
        for key in ("rs_torsion", "rs_norm_value", "rs_norm_target"):
            assert sys.float_info.min <= out[key] < 2.5e-308, key
        np.testing.assert_allclose(out["rs_norm_value"],
                                   out["rs_norm_target"], rtol=1e-9)

    def test_ray_singer_underflow_in_library(self):
        m = CircleModel(complex(0.3, 300.0))
        for call in (rs_torsion_circle, rs_norm_check):
            with pytest.raises(SpectralBoundaryError,
                               match=r"-942\.478 underflows .* Im a = 300$"):
                call(m)
        # 1 / |2 sin(pi a)| is even in Im a
        for im in (-300.0, -225.49):
            with pytest.raises(SpectralBoundaryError,
                               match=r"^exp of real part -\d+\.\d+ "
                                     r"underflows the float range at "
                                     r"Re a = 0\.3, Im a = -\d+\.?\d*$"):
                rs_torsion_circle(CircleModel(complex(0.3, im)))
        # exp(2 pi i a) underflows legitimately: the closed form is 1
        assert rho_an_closed(m) == 1.0

    def test_imaginary_part_past_the_phase_resolution_exits_3(self, capsys):
        assert main(["circle", "--a", "0.3,1e19"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "no admissible branch angle" in out.err

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
