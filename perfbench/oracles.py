"""Closed-form oracles and the comparators that judge one result.

Every comparator returns ``None`` when the value passes and a one-line
reason when it fails.  A non-finite value always fails, whatever the
tolerance, so an overflow can never pass as a match.

Refined torsion of an acyclic instance.  ``workbench.gen_random`` conjugates
a direct sum of elementary blocks (``gen_elementary``) by well-conditioned
degreewise matrices, and the refined torsion is multiplicative over that sum
and invariant under the conjugation.  The torsion of a block z : C^j ->
C^{j+1} in top degree d is

* middle block (j = (d-1)/2, one copy):    (-1)^j  * z^((-1)^j)
* mirrored block (the copy in degrees d-j-1, d-j added):  -z^(2 (-1)^j)

so the torsion of an instance is the product over its profile's blocks.
The comparison runs in the log domain: log|rho| and arg rho separately, the
latter modulo 2 pi.  ``test_perfbench.py`` checks this table against
``gen_elementary`` for every block of every odd d <= 7.
"""

from __future__ import annotations

import cmath
import math

# Log-domain agreement required of every chiral-complex result; roughly a
# relative error, and four orders above what the program reaches today.
LOG_TOL = 1e-8


def block_torsion(d: int, j: int) -> tuple[int, int]:
    """(sign, exponent) with torsion = sign * z**exponent for the elementary
    block of degree j in top degree d."""
    if 2 * j + 1 == d:
        return (-1) ** j, (-1) ** j
    return -1, 2 * (-1) ** j


def log_block_product(d: int, blocks) -> complex:
    """Log of the torsion of a direct sum of elementary blocks
    ``[(j, z), ...]``: real part log|rho|, imaginary part arg rho."""
    total = 0j
    for j, z in blocks:
        sign, exp = block_torsion(d, j)
        total += exp * cmath.log(z)
        if sign < 0:
            total += 1j * math.pi
    return total


def expected_betti(d: int, harmonic) -> tuple[int, ...]:
    """Betti numbers of a profile: each harmonic degree k adds one
    dimension in degrees k and d-k."""
    betti = [0] * (d + 1)
    for k in harmonic:
        betti[k] += 1
        betti[d - k] += 1
    return tuple(betti)


def _finite(z) -> bool:
    z = complex(z)
    return math.isfinite(z.real) and math.isfinite(z.imag)


def log_close(value, expected_log: complex, what: str,
              tol: float = LOG_TOL) -> str | None:
    """Compare a nonzero complex value with exp(expected_log)."""
    if not _finite(value):
        return f"{what}: non-finite result {value!r}"
    if value == 0:
        return f"{what}: zero result, expected exp({expected_log:.6g})"
    diff = cmath.log(complex(value)) - expected_log
    phase = (diff.imag + math.pi) % (2 * math.pi) - math.pi
    err = max(abs(diff.real), abs(phase))
    if err > tol:
        return (f"{what}: log-domain error {err:.3e} > {tol:.0e} "
                f"(log|.| {math.log(abs(value)):.12g} vs "
                f"{expected_log.real:.12g})")
    return None


def rel_close(value, reference, what: str, tol: float) -> str | None:
    """Relative agreement of two finite complex numbers."""
    if not _finite(value):
        return f"{what}: non-finite result {value!r}"
    if not _finite(reference):
        return f"{what}: non-finite reference {reference!r}"
    value, reference = complex(value), complex(reference)
    err = abs(value - reference) / max(abs(reference), 1e-300)
    if err > tol:
        return f"{what}: relative error {err:.3e} > {tol:.0e}"
    return None


def small(residual, what: str, tol: float) -> str | None:
    """A residual that the identity says is zero."""
    if not _finite(residual):
        return f"{what}: non-finite residual {residual!r}"
    if abs(residual) > tol:
        return f"{what}: residual {abs(residual):.3e} > {tol:.0e}"
    return None


def finite(value, what: str) -> str | None:
    if not _finite(value):
        return f"{what}: non-finite result {value!r}"
    return None


def equal(value, expected, what: str) -> str | None:
    if value != expected:
        return f"{what}: got {value!r}, expected {expected!r}"
    return None


# ---------------------------------------------------------------------------
# circle model


def circle_rho(a: complex) -> complex:
    """Combinatorial torsion of the flat line bundle: 1 - exp(2 pi i a)."""
    return 1.0 - cmath.exp(2j * math.pi * a)


def circle_rs(a: complex) -> float:
    """Ray-Singer torsion of the flat line bundle: 1 / |2 sin(pi a)|."""
    return 1.0 / abs(2.0 * cmath.sin(math.pi * a))


def circle_rs_norm(a: complex) -> float:
    """|rho| * RS torsion = |e^{i pi a}| = exp(-pi Im a); the same value is
    the target exp(pi Im eta), since eta = (1 - 2a) / 2."""
    return math.exp(-math.pi * complex(a).imag)
