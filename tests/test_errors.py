"""Unit tests for the one float-range rule: a result that is never 0 in exact
arithmetic must be finite and of normal modulus, or it is a numerical
boundary named as an overflow or an underflow."""

import cmath
import json
import math
import pathlib
import sys

import pytest

from detline.errors import SpectralBoundaryError, _exp_in_range, _in_range

TINY = sys.float_info.min  # the least normal double


class TestInRange:
    @pytest.mark.parametrize("value", [
        1.0, -TINY, TINY * 1j, complex(TINY, 0.0), sys.float_info.max,
        complex(-3.5, 2.25)])
    def test_a_normal_finite_value_passes_unchanged(self, value):
        assert _in_range(value, "x") is value

    @pytest.mark.parametrize("value, side", [
        (0.0, "under"), (0j, "under"), (5e-324, "under"),
        (TINY / 2, "under"), (complex(TINY / 2, -TINY / 2), "under"),
        (math.inf, "over"), (-math.inf, "over"),
        (complex(1.0, math.inf), "over"),
        # a NaN is never an underflow
        (math.nan, "over"), (complex(0.0, math.nan), "over"),
        # finite parts whose modulus is past the float range
        (complex(1.5e308, 1.5e308), "over")])
    def test_a_value_out_of_range_names_its_side(self, value, side):
        with pytest.raises(SpectralBoundaryError,
                           match=f"^x {side}flows the float range$"):
            _in_range(value, "x")

    def test_the_modulus_decides_not_each_part(self):
        # a subnormal part beside a normal one is a normal modulus
        z = complex(1.5e-306, -1.7e-322)
        assert _in_range(z, "x") is z
        # two parts below the normal range whose modulus is not
        z = complex(TINY * 0.8, TINY * 0.8)
        assert abs(z) >= TINY
        assert _in_range(z, "x") is z

    @pytest.mark.parametrize("value", [0.0, 0j, 5e-324, TINY / 2])
    def test_zero_and_subnormals_pass_where_zero_is_allowed(self, value):
        assert _in_range(value, "x", nonzero=False) is value

    @pytest.mark.parametrize("value", [math.inf, math.nan,
                                       complex(1.5e308, 1.5e308)])
    def test_overflow_is_named_where_zero_is_allowed(self, value):
        with pytest.raises(SpectralBoundaryError,
                           match=r"^x overflows the float range$"):
            _in_range(value, "x", nonzero=False)

    def test_templates_are_formatted_over_the_args(self):
        with pytest.raises(SpectralBoundaryError,
                           match=r"^result underflows the float range in "
                                 r"field 'torsion'$"):
            _in_range(0j, "result", " in field {0!r}", ("torsion",))


class TestExpInRange:
    def test_values_are_those_of_cmath_exp(self):
        for z in (0j, 1 + 2j, -700.0, 700 - 3j, complex(-708.39, 1.0)):
            assert _exp_in_range(z) == cmath.exp(z)

    @pytest.mark.parametrize("z, side", [
        (710.0, "over"),
        # finite parts, 1.77e308 and 9.7e307, whose modulus overflows
        (complex(709.9, 0.5), "over"),
        # finite parts, 1.58e308 each, whose modulus overflows
        (complex(710.0, math.pi / 4), "over"),
        (-709.0, "under"), (-745.2, "under"), (-800.0, "under")])
    def test_exp_out_of_range_names_the_real_part(self, z, side):
        z = complex(z)
        with pytest.raises(SpectralBoundaryError,
                           match=f"^exp of real part {z.real:.6g} {side}flows "
                                 f"the float range at a = 1$"):
            _exp_in_range(z, " at a = {1}", (1,))

    @pytest.mark.parametrize("z", [-709.0, -745.2, -800.0])
    def test_exp_where_zero_is_allowed_accepts_underflow(self, z):
        assert _exp_in_range(z, nonzero=False) == cmath.exp(z)

    def test_exp_where_zero_is_allowed_still_names_overflow(self):
        with pytest.raises(SpectralBoundaryError,
                           match=r"^exp of real part 710 overflows the float "
                                 r"range$"):
            _exp_in_range(710.0, nonzero=False)


def test_the_ledger_raises_only_named_errors():
    # every raise recorded in LEDGER.json (written by tests/ledger.py) is a
    # validation error or a named numerical boundary, never a bare Python
    # exception such as an OverflowError of cmath.exp
    path = pathlib.Path(__file__).resolve().parent.parent / "LEDGER.json"
    outcomes = json.loads(path.read_text(encoding="utf-8"))["outcomes"]
    raises = [(p, case, text) for p, cases in outcomes.items()
              for case, text in cases.items() if text.startswith("raise ")]
    assert raises
    assert [r for r in raises if not r[2].startswith((
        "raise ValidationError: ", "raise SpectralBoundaryError: "))] == []
