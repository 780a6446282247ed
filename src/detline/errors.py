"""Exception types shared across the package, and the one float-range rule
that names an overflow or an underflow as a numerical boundary."""

import cmath
import sys

_TINY, _INF = sys.float_info.min, cmath.inf  # _TINY: the least normal double


class ValidationError(ValueError):
    """Raised when input data fails structural validation (shapes, d^2 != 0,
    chirality not an involution, malformed documents)."""


class SpectralBoundaryError(ArithmeticError):
    """Raised when a computation hits a numerical boundary: eigenvalues on a
    chosen branch cut, a split level lambda inside an eigenvalue cluster, a
    singular operator where a bijective one is required, or a result that
    leaves the float range (_in_range)."""


def _in_range(value, what: str, where="", args=(), nonzero=True):
    """value when it is finite and, for a result that is never 0 in exact
    arithmetic (nonzero), of normal modulus; otherwise SpectralBoundaryError
    with the message "{what} {over|under}flows the float range{where}".

    The modulus decides, not each part: a modulus below the normal range (a
    subnormal, whose precision is lost, or 0) is an underflow, and a NaN,
    an infinity or finite parts whose modulus overflows are an overflow.
    With nonzero=False every finite value passes, subnormals and 0 too.
    what and where are str.format templates over args, formatted only when
    it raises, so a value in range costs no formatting."""
    try:
        r = abs(value)
    except OverflowError:  # finite parts whose modulus overflows
        r = _INF
    if _TINY <= r < _INF or (not nonzero and r < _INF):
        return value
    side = "under" if r < _INF else "over"  # a NaN is not "under"
    raise SpectralBoundaryError(
        f"{what} {side}flows the float range{where}".format(*args))


def _exp_in_range(z: complex, where="", args=(), nonzero=True) -> complex:
    """cmath.exp(z) under _in_range, named "exp of real part {z.real:.6g}";
    an OverflowError from cmath.exp is an overflow.  z is {0} of the
    templates, so where's own args start at {1}."""
    try:
        value = cmath.exp(z)
    except OverflowError:
        value = _INF
    return _in_range(value, "exp of real part {0.real:.6g}", where,
                     (z,) + args, nonzero)
