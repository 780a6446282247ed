"""Unit tests for the odd signature operator, spectral splits and
branch-cut determinants."""

import cmath
import math
import re
import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

import detline.signature as signature_mod
import detline.torsion as torsion_mod
from detline import (
    ChiralityOp,
    CircleModel,
    CochainComplex,
    GradedDims,
    SpectralBoundaryError,
    ValidationError,
    build_signature,
    c_gamma,
    chiral_direct_sum,
    cohomology_frame,
    det_eta_check,
    dual_torsion_check,
    eta_finite,
    gen_elementary,
    gen_random,
    graded_det_finite,
    graded_det_via_xi_eta,
    pick_agmon_angle,
    random_profile,
    refined_torsion,
    spectral_split,
    split_check,
    torsion_via_split,
)
from detline.complexes import _zero_cut
from detline.selftest import _b_even_odd, _instance
from detline.signature import (_RAY_TOL, _b_blocks, _bsq, _det_blocks,
                               _eig_input, _log_det, _minus_bases,
                               _pair_spectrum, _restrict, _side_log_det,
                               _side_spectrum, _split_degree, _split_zero)

from conftest import (BIG_PROFILE, fresh, normal_matrix, range_family,
                      traced_peak)


def _singular_tables(singular):
    """_det_blocks tables of a d = 3 layout, 2 x 2 identity blocks but for
    one zero block: the pair's P on the + side (singular = 0) or the
    self-paired block on the - side (singular = 1)."""
    eye, zero = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
    return ({(3, 1): eye if singular else zero, (1, 3): eye},
            {(2, 2): zero if singular else eye})


def _plus_minus(c, g):
    """Orthonormal bases of C^j_+ and C^j_- per degree, after the +/- test:
    M^j of _minus_bases, and the QR of Gamma_{d-j} M^{d-j} for C^j_+."""
    minus, d = _minus_bases(c, g)[0], c.d
    plus = [np.linalg.qr(g.gamma[d - j] @ minus[d - j])[0]
            for j in range(d + 1)]
    return plus, minus


def _plus_dims(c, g):
    """dim C^j_+ = dim C^{d-j}_- per degree, after the +/- test."""
    return [m.shape[1] for m in _minus_bases(c, g)[0]][::-1]


def _ldet(m, theta):
    """Log-determinant along the cut at theta over the nonzero spectrum of
    a matrix or a list of eigenvalues: _log_det after the zero cut."""
    return _log_det(_split_zero(_eig_input(m))[0], theta)


class TestGradedDet:
    def test_running_example(self):
        c, g = gen_elementary(1, 0, 2.0)
        assert abs(graded_det_finite(c, g) - 2.0) <= 1e-12

    def test_negative_scalar(self):
        c, g = gen_elementary(1, 0, -2.0)
        np.testing.assert_allclose(graded_det_finite(c, g), -2.0, atol=1e-12)

    @pytest.mark.parametrize("singular", [0, 1], ids=["plus", "minus"])
    def test_singular_block_is_a_boundary(self, monkeypatch, singular):
        monkeypatch.setattr(signature_mod, "_det_blocks",
                            lambda *args: _singular_tables(singular))
        c, g = gen_elementary(1, 0, 2.0)
        with pytest.raises(SpectralBoundaryError,
                           match="^B_even is not bijective$"):
            graded_det_finite(c, g)

    def test_values_near_the_range_edges(self):
        # pairs of blocks z = 1e120 .. 1e200 whose graded determinant lies
        # in the float range, while a product of its blocks' determinants
        # may not: each is one log, left once
        family = list(range_family())
        assert len(family) == 180
        for case, c, g, rho in family:
            value = graded_det_finite(c, g)
            assert abs(value - rho) <= 1e-12 * abs(rho), case

    def test_equals_refined_torsion_when_acyclic(self):
        for seed in range(10):
            d = 3 if seed % 2 else 1
            c, g = _instance(seed, d, acyclic=True)
            rho = refined_torsion(c, g).coeff
            det = graded_det_finite(c, g)
            np.testing.assert_allclose(rho, det, rtol=1e-10)


_DEPENDENT = (r"^degree 2: the \+/- subspaces are numerically dependent "
              r"\(sigma_min 9\.2e-11 < 1e-10\)$")


def _tilted(eps, extra_a2=0, stretch=1.0):
    """Complex of dims (1, 2, 2, 1) whose Gamma_1 tilts ker d_1 = span(e1) by
    eps against im d_1 = span(f1), so that in degree 2
    sigma_min([C_+ | C_-]) = sqrt(2) sin(eps / 2), which crosses 1e-10 at
    eps = 1.414e-10; Gamma_2 = Gamma_1^{-1} leaves degree 1 near 1e-6, far
    from the threshold.  Gamma_1 is multiplied by stretch (Gamma_2 divided
    by it), which moves no subspace.  With extra_a2 > 0 it is summed with
    an acyclic complex of that many elementary blocks of degree 0, each
    adding one dimension to A^2, with independent +/- subspaces."""
    c = CochainComplex(GradedDims((1, 2, 2, 1)), (
        np.array([[1.0], [0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[0.0, 1.0]])))
    g1 = stretch * np.array([[math.cos(eps), 0.0], [math.sin(eps), 1e-4]])
    g = ChiralityOp((np.eye(1), g1, np.linalg.inv(g1), np.eye(1)))
    if extra_a2:
        c, g = chiral_direct_sum([(c, g), gen_random(5, 3, {
            "blocks": [(0, complex(1 + 0.1 * k, 0.3))
                       for k in range(extra_a2)], "harmonic": []})])
    return c, g


def _qr_first_pm_decision(c, g, fr):
    """The message the +/- test raises on (c, g), or None, decided without
    any certificate: P an orthonormal basis (QR) of each proper Gamma-image
    Gamma_{d-j} M^{d-j}, and sigma_min([P | M^j]) from
    s = sigma_min((A^j)^H P)."""
    d, n = c.d, c.dims.dims
    minus = [np.hstack([b, h]) for b, h in zip(fr.B, fr.H)]
    for j in range(d + 1):
        source, m = minus[d - j], minus[j]
        if source.shape[1] + m.shape[1] != n[j]:
            return (f"degree {j}: ker(dGamma) + ker(d) does not split "
                    f"C^{j} (B is not bijective)")
        if source.shape[1] and m.shape[1]:
            p = np.linalg.qr(g.gamma[d - j] @ source)[0]
            s = float(np.linalg.svd(fr.A[j].conj().T @ p,
                                    compute_uv=False)[-1])
            smallest = s / math.sqrt(1.0 + math.sqrt(max(0.0, 1.0 - s * s)))
            if smallest < 1e-10:
                return (f"degree {j}: the +/- subspaces are numerically "
                        f"dependent (sigma_min {smallest:.1e} < 1e-10)")
    return None


class TestSignatureOp:
    def test_plus_minus_split_fills_each_degree(self):
        c, g = _instance(3, 3, acyclic=True)
        plus = _plus_dims(c, g)
        for j, m in enumerate(_minus_bases(c, g)[0]):
            assert plus[j] + m.shape[1] == c.dims.dims[j]

    @pytest.mark.parametrize("scale, dependent", [(1.3, True), (1.5, False)])
    def test_plus_minus_dependence_guard_at_its_threshold(self, scale,
                                                          dependent):
        c, g = _tilted(scale * 1e-10)
        if dependent:
            with pytest.raises(SpectralBoundaryError, match=_DEPENDENT):
                graded_det_finite(c, g)
        else:
            assert cmath.isfinite(graded_det_finite(c, g))
            assert _plus_dims(c, g) == [1, 1, 1, 0]

    @pytest.mark.parametrize("certify", [None, False, True],
                             ids=["kernel", "never", "always"])
    def test_wide_dependence_guard_takes_the_certificate(
            self, monkeypatch, count_factorizations, certify):
        # the dependent case plus 15 elementary blocks that add to A^2: the
        # degree-2 test block is 16 x 16, so the Cholesky certificate sees it
        # first; it must not certify, so the SVD raises as at 2 x 2.  With
        # the certificate mutated to always pass, the guard goes silent
        c, g = _tilted(1.3e-10, extra_a2=15)
        if certify is not None:
            monkeypatch.setattr(signature_mod, "_sigma_min_above",
                                lambda x, floor: certify)
        fr = cohomology_frame(c)
        assert fr.A[2].shape[1] == 16
        calls = count_factorizations()
        if certify:
            assert cmath.isfinite(graded_det_finite(c, g))
            assert _plus_dims(c, g) == [16, 1, 16, 0]
            return
        with pytest.raises(SpectralBoundaryError, match=_DEPENDENT):
            graded_det_finite(c, g)
        assert calls.shapes("svd", compute_uv=False)[-1] == (16, 16)
        assert calls["cholesky"] == (certify is None)

    @pytest.mark.parametrize("extra_a2", [0, 15], ids=["1x1", "16x16"])
    def test_decision_ladder_around_the_threshold(self, extra_a2):
        # the certificate reads (A^2)^H Gamma_1 M^1 with no orthonormal basis
        # formed, yet each rung raises exactly where the QR-first test does,
        # with its message, in graded_det_finite
        raised = []
        for delta in (1.0, 1.2, 1.3, 1.4, 1.41, 1.414, 1.4142, 1.41421,
                      1.41422, 1.4143, 1.415, 1.42, 1.5, 2.0, 2.5, 3.0):
            c, g = _tilted(delta * 1e-10, extra_a2)
            fr = cohomology_frame(c)
            expected = _qr_first_pm_decision(c, g, fr)
            raised.append(expected is not None)
            if expected is None:
                graded_det_finite(c, g)
                continue
            with pytest.raises(SpectralBoundaryError) as err:
                graded_det_finite(c, g)
            assert str(err.value) == expected
        assert raised == [True] * 8 + [False] * 8

    def test_certificate_floor_scales_with_the_gamma_image(self,
                                                          monkeypatch):
        # Gamma_1 stretched by 1e3: (A^2)^H Y = 1e3 sin(eps) clears 2 _PM_TOL
        # although s = sin(eps) does not, so only the ||Y||_F factor of the
        # floor keeps the certificate from passing a dependent pair; without
        # it (the mutant) the guard goes silent
        c, g = _tilted(1.3e-10, stretch=1e3)
        assert max(float(np.abs(m).max()) for m in g.gamma) >= 1e3
        with pytest.raises(SpectralBoundaryError, match=_DEPENDENT):
            graded_det_finite(c, g)
        monkeypatch.setattr(signature_mod, "_frobenius", lambda a: 1.0)
        assert cmath.isfinite(graded_det_finite(c, g))
        assert _plus_dims(c, g) == [1, 1, 1, 0]

    def test_dependent_block_is_decomposed_once(self, count_factorizations):
        # degree 1 passes on the singular values of (A^1)^H Y; degree 2 is
        # left open, so it takes one QR of Y and one values-only SVD of
        # (A^2)^H P, which both decides and reports
        c, g = _tilted(1.3e-10)
        cohomology_frame(c)  # kept by c, so the count sees the test alone
        calls = count_factorizations()
        with pytest.raises(SpectralBoundaryError, match=_DEPENDENT):
            graded_det_finite(c, g)
        assert calls.shapes("svd", compute_uv=False) == [(1, 1)] * 3
        assert calls.shapes("qr") == [(2, 1)]
        assert calls["cholesky"] == 0

    def test_open_block_takes_one_qr_of_its_image(self,
                                                   count_factorizations):
        # degree 2 is left open at 1.5e-10 and passes on the QR of
        # Y = Gamma_1 M^1; graded_det_finite forms no basis of C_+, so that
        # QR is the only one
        c, g = _tilted(1.5e-10)
        cohomology_frame(c)  # kept by c, so the count sees the call alone
        calls = count_factorizations()
        assert cmath.isfinite(graded_det_finite(c, g))
        assert calls.shapes("qr") == [(2, 1)]

    def test_plus_minus_split_rejects_non_complex(self):
        # d_1 d_0 = 1 != 0; the chirality itself is valid
        g = ChiralityOp((np.array([[1.0]]),) * 4)
        with pytest.raises(ValidationError):
            c = CochainComplex(GradedDims((1, 1, 1, 1)),
                               (np.array([[1.0]]),) * 3)
            graded_det_finite(c, g)

    def test_even_and_odd_parts_share_spectrum(self):
        for seed in range(5):
            c, g = _instance(seed + 10, 3, acyclic=(seed % 2 == 0))
            ev, od = (np.sort_complex(np.linalg.eigvals(b))
                      for b in _b_even_odd(c, g))
            np.testing.assert_allclose(ev, od, atol=1e-10)


def _dense_b(c, g):
    """B = Gamma d + d Gamma on the whole of C, from the total d and Gamma
    placed as N x N matrices, with the offset of each degree."""
    d, n = c.d, c.dims.dims
    offs = np.concatenate([[0], np.cumsum(n)])
    total_d = np.zeros((offs[-1], offs[-1]), dtype=complex)
    total_g = np.zeros_like(total_d)
    for j in range(d):
        total_d[offs[j + 1]:offs[j + 2], offs[j]:offs[j + 1]] = c.partial[j]
    for j in range(d + 1):
        total_g[offs[d - j]:offs[d - j + 1], offs[j]:offs[j + 1]] = g.gamma[j]
    return total_g @ total_d + total_d @ total_g, offs


def _rel_error(x, ref):
    return float(np.abs(x - ref).max(initial=0)
                 / max(np.abs(ref).max(initial=0), 1e-300))


class TestBlockTable:
    """The degree blocks of B give what the dense operator gives: B^2
    through bsq_block, and B_even and B_odd as the selftest's oracle
    assembles them from the table."""

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    @pytest.mark.parametrize("acyclic", [True, False])
    def test_matches_a_dense_oracle(self, d, acyclic):
        prof = random_profile(np.random.default_rng(80 + d), d,
                              acyclic=acyclic, max_blocks=5)
        c, g = gen_random(80 + d, d, prof)
        b, offs = _dense_b(c, g)
        bsq = b @ b
        s = build_signature(c, g)
        for parity, part in enumerate(_b_even_odd(c, g)):
            idx = np.concatenate([np.arange(offs[j], offs[j + 1])
                                  for j in range(parity, d + 1, 2)])
            ref = b[np.ix_(idx, idx)]
            assert part.shape == ref.shape
            assert _rel_error(part, ref) <= 1e-12
        for j in range(d + 1):
            ref = bsq[offs[j]:offs[j + 1], offs[j]:offs[j + 1]]
            assert s.bsq_block(j).shape == ref.shape
            assert _rel_error(s.bsq_block(j), ref) <= 1e-12

    def test_keys_are_unique_and_keep_parity(self):
        c, g = _instance(5, 5, acyclic=False)
        blocks = _b_blocks(c, g)
        assert len(blocks) == 2 * c.d
        for (t, s), block in blocks.items():
            assert t % 2 == s % 2
            assert (s, t) in blocks
            assert block.shape == (c.dims.dims[t], c.dims.dims[s])

    def test_one_block_parts_at_degree_one(self):
        # at d = 1, B_even is Gamma_1 d_0 and B_odd is d_0 Gamma_1
        c, g = _instance(6, 1, acyclic=False)
        b_even, b_odd = _b_even_odd(c, g)
        assert np.array_equal(b_even, g.gamma[1] @ c.partial[0])
        assert np.array_equal(b_odd, c.partial[0] @ g.gamma[1])


# every public call that checks first that its chirality fits its complex
_CHIRAL_ENTRY_POINTS = {
    "refined_torsion": refined_torsion,
    "graded_det_finite": graded_det_finite,
    "torsion_via_split": lambda c, g, *fr: torsion_via_split(c, g, 0.0, *fr),
    "build_signature": build_signature,
    "spectral_split": lambda c, g: spectral_split(c, g, 0.0),
    "graded_det_via_xi_eta": lambda c, g: graded_det_via_xi_eta(c, g, 0.0),
    "c_gamma": c_gamma,
}
# the two that still take a frame, c's own only: the benchmark's workloads
# pass it by position
_FRAME_ENTRY_POINTS = ("refined_torsion", "torsion_via_split")


class TestFrameAndChirality:
    """refined_torsion and torsion_via_split accept only the complex's own
    frame, and give with it the values they give without it; a chirality
    that does not fit the complex is a ValidationError, with or without
    a frame."""

    @pytest.mark.parametrize("name", _FRAME_ENTRY_POINTS)
    def test_frame_of_another_complex_is_rejected(self, name):
        call = _CHIRAL_ENTRY_POINTS[name]
        c2, _ = gen_elementary(1, 0, 2.0)
        c3, g3 = gen_elementary(1, 0, 3.0)
        with pytest.raises(ValidationError, match="frame"):
            call(c3, g3, cohomology_frame(c2))
        call(c3, g3, cohomology_frame(c3))

    @pytest.mark.parametrize("with_frame, name", [
        (with_frame, name) for with_frame in (False, True)
        for name in _CHIRAL_ENTRY_POINTS
        if name in _FRAME_ENTRY_POINTS or not with_frame])
    def test_chirality_of_another_shape_is_rejected(self, with_frame, name):
        call = _CHIRAL_ENTRY_POINTS[name]
        c, _ = gen_random(1, 1, {"blocks": [(0, 2.0), (0, 3.0)],
                                 "harmonic": []})
        _, g = gen_elementary(1, 0, 2.0)
        fr = (cohomology_frame(c),) if with_frame else ()
        with pytest.raises(ValidationError, match=r"^Gamma_0 has shape "
                                                  r"\(1, 1\), expected "
                                                  r"\(2, 2\)$"):
            call(c, g, *fr)

    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("acyclic", [True, False])
    @pytest.mark.parametrize("mid_gap", [False, True], ids=["zero", "mid"])
    def test_own_frame_gives_the_values_without_it(self, d, acyclic,
                                                   mid_gap):
        # the benchmark passes c's own frame by position; the values must
        # be those of the calls that read the frame c keeps
        c, g = _instance(50 + d, d, acyclic)
        lam = _mid_gap_level(c, g) if mid_gap else 0.0
        fr = cohomology_frame(c)
        for with_fr, without in (
                (refined_torsion(c, g, fr), refined_torsion(c, g)),
                (torsion_via_split(c, g, lam, fr),
                 torsion_via_split(c, g, lam))):
            assert with_fr.coeff == without.coeff
            assert with_fr.frame.betti == without.frame.betti == fr.betti


class TestSpectralSplit:
    def test_empty_small_part(self):
        c, g = gen_elementary(1, 0, 2.0)
        sp = spectral_split(c, g, 1.0)  # spectrum of B^2 is {4}
        assert all(b.shape[1] == 0 for b in sp.small.bases)
        v = torsion_via_split(c, g, 1.0)
        np.testing.assert_allclose(v.coeff, 2.0, atol=1e-12)

    def test_everything_small(self):
        c, g = gen_elementary(1, 0, 2.0)
        v = torsion_via_split(c, g, 9.0)
        np.testing.assert_allclose(v.coeff, 2.0, atol=1e-12)

    def test_level_on_eigenvalue_is_rejected(self):
        c, g = gen_elementary(1, 0, 2.0)
        with pytest.raises(SpectralBoundaryError):
            spectral_split(c, g, 4.0)

    def test_negative_level_is_rejected(self):
        c, g = gen_elementary(1, 0, 2.0)
        with pytest.raises(ValidationError):
            spectral_split(c, g, -1.0)

    def test_non_finite_level_is_rejected(self):
        c, g = gen_elementary(1, 0, 2.0)
        for lam in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError):
                spectral_split(c, g, lam)

    def test_split_agrees_with_torsion(self):
        for seed in range(6):
            d = 3 if seed % 2 else 1
            c, g = _instance(seed + 20, d, acyclic=(seed % 2 == 0))
            rho = refined_torsion(c, g).coeff
            mods = sorted({round(abs(z), 6)
                           for j in range(d + 1)
                           for z in np.linalg.eigvals(
                               build_signature(c, g).bsq_block(j))
                           if abs(z) > 1e-4})
            for lam in (0.0, 2.0 * mods[-1]):
                v = torsion_via_split(c, g, lam).coeff
                np.testing.assert_allclose(v, rho, rtol=1e-8)

    @pytest.mark.parametrize("module, name", [
        (torsion_mod, "_VALIDATION_TOL"), (signature_mod, "_RESTRICT_TOL")],
        ids=["part-gamma-squared", "restriction"])
    def test_a_part_failing_its_check_is_a_boundary(self, monkeypatch,
                                                    module, name):
        # with the tolerance at 0, the split's own rounding fails a part's
        # Gamma^2 = 1 check or a restriction's residual check; the pair
        # passed its checks, so that is a boundary, not invalid input
        c, g = _instance(7, 3, acyclic=True)
        lam = _mid_gap_level(c, g)
        monkeypatch.setattr(module, name, 0.0)
        with pytest.raises(SpectralBoundaryError, match="residual"):
            spectral_split(c, g, lam)

    def test_large_part_is_acyclic(self):
        c, g = _instance(31, 3, acyclic=False)
        sp = spectral_split(c, g, 0.0)
        assert cohomology_frame(sp.large.complex).acyclic

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_overflowing_b_squared_is_a_boundary(self, lam):
        # |z|^2 = 1e400 overflows, so the B^2 block is not finite; numpy's
        # overflow warning is silenced as the CLI does
        c, g = gen_elementary(1, 0, 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SpectralBoundaryError,
                               match=r"^degree 0: .* not finite"):
                spectral_split(c, g, lam)
            with pytest.raises(SpectralBoundaryError,
                               match=r"^degree 0: .* not finite"):
                graded_det_via_xi_eta(c, g, lam)

    def test_overflow_is_caught_before_any_factorization(
            self, count_factorizations):
        # d = 3 with the overflowing block in degree 1 only
        c, g = gen_random(2, 3, {"blocks": [(0, 1.5), (1, 1e200)],
                                 "harmonic": []})
        calls = count_factorizations()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SpectralBoundaryError, match=r"^degree 1: "):
                _split_degree(_bsq(_b_blocks(c, g), 1), 0.0, 1)
        assert calls.log == []


def _spectral_radius(c, g):
    """max |spec(B^2)| over all degrees."""
    b = _b_blocks(c, g)
    return max(float(np.abs(np.linalg.eigvals(_bsq(b, j))).max())
               for j in range(c.d + 1) if c.dims.dims[j])


def _mid_gap_level(c, g):
    """A level halfway between two distinct moduli of spec(B^2)."""
    s = build_signature(c, g)
    mods = np.unique(np.round(np.concatenate(
        [np.abs(np.linalg.eigvals(s.bsq_block(j))) for j in range(c.d + 1)]),
        6))
    mods = mods[mods > 1e-4]
    k = len(mods) // 2
    return 0.5 * (mods[k - 1] + mods[k]) if k else 0.5 * mods[0]


class TestValidateOnce:
    """The input complex and chirality were checked when they were built,
    and no call that reads them checks them again; a call checks only the
    values it builds (split parts, the dual pair), each once."""

    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("acyclic", [True, False])
    def test_calls_do_not_recheck_their_input(self, count_validations, d,
                                              acyclic):
        c, g = _instance(11 + d, d, acyclic)
        shapes_c = tuple(m.shape for m in c.partial)
        shapes_g = tuple(m.shape for m in g.gamma)
        fr = cohomology_frame(c)
        mid = _mid_gap_level(c, g)
        calls = [lambda: refined_torsion(c, g),
                 lambda: torsion_via_split(c, g, 0.0),
                 lambda: torsion_via_split(c, g, mid, fr)]
        if acyclic:
            calls += [lambda: graded_det_finite(c, g),
                      lambda: graded_det_via_xi_eta(c, g, 0.0)]
        for call in calls:
            checks = count_validations()
            call()
            assert shapes_c not in checks.shapes("d.d")
            assert shapes_g not in checks.shapes("gamma^2")
        # a call that builds nothing checks nothing
        checks = count_validations()
        refined_torsion(c, g, fr)
        assert checks == {"d.d": 0, "gamma^2": 0}

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_duality_checks_only_the_dual_pair(self, count_validations, d):
        c, g = _instance(20 + d, d, acyclic=False)
        checks = count_validations()
        dual_torsion_check(c, g)
        assert checks == {"d.d": 1, "gamma^2": 1}


class TestChiralityCheckedOnce:
    """Each public entry point checks that the chirality fits its complex
    exactly once.  torsion_via_split first checks the caller's pair; the
    parts of its split then go through the public graded determinant and
    refined torsion, which check their own pairs."""

    @pytest.mark.parametrize("name", ["refined_torsion", "torsion_via_split",
                                      "c_gamma", "spectral_split"])
    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("acyclic", [True, False])
    def test_one_check_per_call(self, monkeypatch, name, d, acyclic):
        c, g = _instance(30 + d, d, acyclic)
        fr = cohomology_frame(c)
        mid = _mid_gap_level(c, g)
        calls = {
            "refined_torsion": [lambda: refined_torsion(c, g),
                                lambda: refined_torsion(c, g, fr)],
            "torsion_via_split": [lambda: torsion_via_split(c, g, 0.0),
                                  lambda: torsion_via_split(c, g, mid, fr)],
            "c_gamma": [lambda: c_gamma(c, g)],
            "spectral_split": [lambda: spectral_split(c, g, 0.0),
                               lambda: spectral_split(c, g, mid)],
        }[name]
        seen = []
        orig = torsion_mod.validate_chirality

        def spy(cc, gg):
            seen.append((cc, gg))
            return orig(cc, gg)
        for module in (torsion_mod, signature_mod):
            monkeypatch.setattr(module, "validate_chirality", spy)
        for call in calls:
            seen.clear()
            call()
            if name != "torsion_via_split":
                assert len(seen) == 1
            assert seen[0][0] is c and seen[0][1] is g


class TestEvenBlockSides:
    """On C_+ = ker(d Gamma) B is Gamma d and on C_- = ker(d) it is d Gamma,
    so _det_blocks restricts only the d Gamma blocks, on C_-; each block it
    leaves out maps its side to zero."""

    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("acyclic", [True, False])
    def test_dropped_blocks_vanish_on_their_side(self, d, acyclic):
        proper = 0
        for seed in range(4):
            c, g = _instance(100 + 10 * seed + d, d, acyclic)
            # the parts _det_blocks sees: the large part of a split at 0
            # (acyclic) and at mid-gap
            for lam in (0.0, _mid_gap_level(c, g)):
                large = spectral_split(c, g, lam).large
                cl, gl = large.complex, large.chirality
                plus, minus = _plus_minus(cl, gl)
                for (t, s), b in _b_blocks(cl, gl).items():
                    if s % 2:
                        continue
                    side = plus if t + s == d + 1 else minus
                    image = b @ side[s]
                    if image.size:
                        proper += 1
                        scale = max(1.0, float(np.abs(b).max()))
                        assert float(np.abs(image).max()) <= 1e-10 * scale
        # at d = 1 the one even source degree, 0, has no d Gamma block and
        # the Gamma d block meets C^0_- = 0 of an acyclic part
        assert proper if d > 1 else proper == 0

    @pytest.mark.parametrize("d", [3, 5])
    def test_each_side_restricts_only_its_blocks(self, monkeypatch, d):
        c, g = _instance(100, d, acyclic=True)
        keys = list(_b_blocks(c, g))
        seen = []
        orig = signature_mod._restricted

        def spy(op, source, target, what):
            seen.append(what)
            return orig(op, source, target, what)
        monkeypatch.setattr(signature_mod, "_restricted", spy)
        odd, even = _det_blocks(c, g)
        # neither side is a whole parity
        assert any(b.size for b in odd.values())
        assert any(b.size for b in even.values())
        # the + side of B_even is read as d Gamma on the odd - subspaces
        assert seen.count("B- odd") == sum(t + s == d + 1 and s % 2
                                           for t, s in keys)
        assert seen.count("B- even") == sum(t + s == d + 1 and not s % 2
                                            for t, s in keys)


def _assembled(table):
    """The operator of a _det_blocks table {(t, s): block} as one matrix on
    the sum of its source degrees, in increasing order: the assembled block
    that the pair units are read without."""
    size = {s: b.shape[1] for (_, s), b in table.items()}
    offs = dict(zip(sorted(size),
                    np.cumsum([0] + [size[s] for s in sorted(size)])))
    total = sum(size.values())
    out = np.zeros((total, total), dtype=complex)
    for (t, s), b in table.items():
        out[offs[t]:offs[t] + size[t], offs[s]:offs[s] + size[s]] = b
    return out


def _assert_same_multiset(got, want, rtol=1e-10):
    """got and want hold the same values, matched one to one, within rtol
    of the largest modulus."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if want.size:
        cost = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= rtol * float(np.abs(want).max())


class TestPlusSideThroughGamma:
    """The + side of B_even is read as d Gamma on the odd - subspaces, which
    Gamma makes similar to it.  The oracle is the assembled B_even
    restricted to the orthonormal + and - bases of _plus_minus (the
    Gamma-images orthonormalized by QR)."""

    @staticmethod
    def _restricted_b_even(c, g):
        """P^H B_even P and M^H B_even M over the even degrees."""
        plus, minus = _plus_minus(c, g)
        b_even = _b_even_odd(c, g)[0]
        out = []
        for bases in (plus, minus):
            e = scipy.linalg.block_diag(*bases[::2])
            out.append(e.conj().T @ b_even @ e)
        return out

    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("total", [40, 100, 300])
    def test_matches_the_plus_side_restriction(self, d, total):
        c, g, _ = _ladder_instance(d, total)
        b_plus, b_minus = self._restricted_b_even(c, g)
        expected = np.linalg.det(b_plus) / np.linalg.det(-b_minus)
        assert abs(graded_det_finite(c, g) - expected) <= 1e-12 * abs(expected)
        odd, even = _det_blocks(c, g)
        _assert_same_multiset(_side_spectrum(odd), np.linalg.eigvals(b_plus))
        _assert_same_multiset(_side_spectrum(even),
                              np.linalg.eigvals(b_minus))

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_large_parts_match_the_plus_side_restriction(self, d):
        # the large part of a split at 0 of a complex with cohomology, in
        # the bases of the split
        for seed in range(4):
            c, g = _instance(200 + seed, d, acyclic=False)
            large = spectral_split(c, g, 0.0).large
            cl, gl = large.complex, large.chirality
            b_plus, b_minus = self._restricted_b_even(cl, gl)
            expected = np.linalg.det(b_plus) / np.linalg.det(-b_minus)
            value = graded_det_finite(cl, gl)
            assert abs(value - expected) <= 1e-12 * abs(expected)
            odd, even = _det_blocks(cl, gl)
            _assert_same_multiset(_side_spectrum(odd),
                                  np.linalg.eigvals(b_plus))
            _assert_same_multiset(_side_spectrum(even),
                                  np.linalg.eigvals(b_minus))


def _pair_block(p, q):
    """The assembled pair block [[0, Q], [P, 0]] of n x n P and Q."""
    zero = np.zeros_like(p)
    return np.block([[zero, q], [p, zero]])


class TestPairUnits:
    """Each parity of the - side is read one unit at a time: a self-paired
    block, or a pair [[0, Q], [P, 0]] through its two n x n blocks.  The
    oracle is the assembled block: determinants, the exp of _side_log_det,
    within 1e-12, spectra as multisets."""

    @staticmethod
    def _check_against_assembled(c, g):
        """Checks every pair and both whole sides of (c, g); the orders of
        its nonempty pairs."""
        orders = []
        for table in _det_blocks(c, g):
            for (t, s), p in table.items():
                if s < t and p.size:
                    q = table[s, t]
                    block = _pair_block(p, q)
                    want = np.linalg.det(block)
                    got = cmath.exp(_side_log_det({(t, s): p, (s, t): q}))
                    assert abs(got - want) <= 1e-12 * abs(want)
                    _assert_same_multiset(_pair_spectrum(p, q),
                                          np.linalg.eigvals(block))
                    orders.append(p.shape[0])
            full = _assembled(table)
            want = np.linalg.det(full)  # 1 for an empty side
            got = cmath.exp(_side_log_det(table))
            assert abs(got - want) <= 1e-12 * abs(want)
            _assert_same_multiset(_side_spectrum(table),
                                  np.linalg.eigvals(full))
        return orders

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pair_sign(self, n):
        # (-1)^n det P det Q: the sign is -1 exactly at odd n, the i pi
        # that _side_log_det adds to the pair's log
        rng = np.random.default_rng(n)
        p, q = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(2))
        want = np.linalg.det(_pair_block(p, q))
        log = _side_log_det({(1, 0): p, (0, 1): q})
        assert abs(cmath.exp(log) - want) <= 1e-12 * abs(want)
        unsigned = np.linalg.det(p) * np.linalg.det(q)
        assert abs(unsigned - (-1) ** n * want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    @pytest.mark.parametrize("total", [40, 200])
    def test_acyclic_ladder(self, d, total):
        c, g, _ = _ladder_instance(d, total)
        orders = self._check_against_assembled(c, g)
        assert len(orders) == (d - 1) // 2

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    def test_large_parts_of_complexes_with_cohomology(self, d):
        # the large part of a split at 0, in the bases of the split
        orders = []
        for seed in range(4):
            c, g = _instance(200 + seed, d, acyclic=False)
            assert not cohomology_frame(c).acyclic
            large = spectral_split(c, g, 0.0).large
            orders += self._check_against_assembled(large.complex,
                                                    large.chirality)
        assert bool(orders) == (d > 1)


class TestLoneBlocks:
    """A lone block is used as it stands, with no copy: phi's T_j, a C^j_-
    with B^j or H^j empty, and the identity a square invertible first
    degree gives as A^0 and B^1.  What is handed out this way is a
    read-only view."""

    @pytest.fixture(scope="class")
    def big(self):
        return gen_random(7, 1, BIG_PROFILE)

    # traced peaks, in 200 x 200 complex matrices, measured at 2.0, 2.0 and
    # 4.0: the frame's certificate (the conjugate of d_0 and its Gram
    # matrix), as phi's T_1 is d_0 itself; that, or the frame's one identity
    # and the d Gamma block; the frame's one identity, built first, beside
    # three more: B^2_0 and the certificate's two temporaries (the
    # conjugate of B^2_0 and its Gram matrix).  The split forms one B
    # block, Gamma_1 d_0 (d_0 Gamma_1 is never read), so before the
    # certificate it holds two beside the identity, below that peak.  Each
    # call takes a fresh copy of the complex, which keeps no frame yet, so
    # the frame is built under the trace
    @pytest.mark.parametrize("call, bound", [
        (refined_torsion, 2.1),
        (graded_det_finite, 2.1),
        (lambda c, g: torsion_via_split(c, g, 0.0), 4.1),
    ], ids=["refined_torsion", "graded_det_finite", "torsion_via_split"])
    def test_traced_peak(self, big, call, bound):
        c, g = big
        assert traced_peak(call, fresh(c), g) <= bound

    def test_first_degree_identity_is_shared_and_read_only(self, big):
        fr = cohomology_frame(big[0])
        assert np.shares_memory(fr.A[0], fr.B[1])
        assert np.array_equal(fr.A[0], np.eye(200))
        for m in (fr.A[0], fr.B[1]):
            with pytest.raises(ValueError):
                m[0, 0] = 2.0

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_lone_minus_blocks_are_read_only_views(self, d):
        # the split needs an acyclic complex, where C^j_- = B^j
        c, g = _instance(7, d, acyclic=True)
        fr = cohomology_frame(c)
        minus = _minus_bases(c, g)[0]
        lone = [(m, b) for m, b in zip(minus, fr.B) if b.size]
        assert lone
        for m, b in lone:
            assert np.shares_memory(m, b)
            with pytest.raises(ValueError):
                m[0, 0] = 2.0


class TestEmptySplitPart:
    """An empty part of a split is the zero complex: it adds det 1 (large)
    or torsion 1 (small), and no frame, graded determinant or torsion of it
    is formed.  The other part is the complex itself and reads its frame:
    inside graded_det_finite (large), or for the Betti numbers and harmonic
    bases beside refined_torsion (small)."""

    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("above", [False, True], ids=["zero", "above"])
    def test_zero_complex_is_not_computed(self, monkeypatch, d, above):
        c, g = _instance(7, d, acyclic=True)
        lam = 2.0 * _spectral_radius(c, g) if above else 0.0
        n = c.dims.total
        seen = []
        for name in ("cohomology_frame", "graded_det_finite",
                     "refined_torsion"):
            def spy(cx, *args, _orig=getattr(signature_mod, name),
                    _name=name):
                seen.append((_name, cx.dims.total))
                return _orig(cx, *args)
            monkeypatch.setattr(signature_mod, name, spy)
        value = torsion_via_split(c, g, lam).coeff
        assert seen == ([("cohomology_frame", n), ("refined_torsion", n)]
                        if above else
                        [("graded_det_finite", n), ("cohomology_frame", n)])
        assert abs(value - refined_torsion(c, g).coeff) <= 1e-8 * abs(value)

    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("above", [False, True], ids=["zero", "above"])
    def test_zero_complex_is_built_without_restrictions(self, monkeypatch,
                                                        d, above):
        # the other side fills every degree, so no block is restricted at
        # all; the zero complex still passes its constructor checks
        c, g = _instance(7, d, acyclic=True)
        lam = 2.0 * _spectral_radius(c, g) if above else 0.0
        seen = []
        orig = signature_mod._restricted

        def spy(op, source, target, what):
            seen.append(what)
            return orig(op, source, target, what)
        monkeypatch.setattr(signature_mod, "_restricted", spy)
        sp = spectral_split(c, g, lam)
        empty = sp.large if above else sp.small
        assert seen == []
        assert empty.complex.dims.dims == (0,) * (d + 1)
        assert [m.shape for m in empty.complex.partial] == [(0, 0)] * d
        assert [m.shape for m in empty.chirality.gamma] == [(0, 0)] * (d + 1)
        assert [b.shape for b in empty.bases] == [(n, 0) for n in c.dims.dims]

    def test_empty_small_part_needs_an_acyclic_frame(self):
        c, g = _instance(7, 3, acyclic=True)
        split = spectral_split(c, g, 0.0)
        assert split.small.complex.dims.total == 0
        other = _instance(7, 3, acyclic=False)[0]
        with pytest.raises(SpectralBoundaryError, match="full cohomology"):
            signature_mod._torsion_from_split(split, cohomology_frame(other))


class TestSplitStructure:
    """The Gamma-symmetric split on d up to 7, with and without cohomology."""

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    @pytest.mark.parametrize("acyclic", [True, False])
    def test_split_bases(self, d, acyclic):
        prof = random_profile(np.random.default_rng(60 + d), d,
                              acyclic=acyclic, max_blocks=5)
        c, g = gen_random(60 + d, d, prof)
        sig = build_signature(c, g)
        rho = refined_torsion(c, g).coeff
        for lam in (0.0, _mid_gap_level(c, g)):
            sp = spectral_split(c, g, lam)
            for part in (sp.small, sp.large):
                for j, q in enumerate(part.bases):
                    k = q.shape[1]
                    np.testing.assert_allclose(q.conj().T @ q, np.eye(k),
                                               atol=1e-8)
                    bq = sig.bsq_block(j) @ q
                    res = bq - q @ (q.conj().T @ bq)
                    assert res.size == 0 or np.abs(res).max() <= 1e-8 * max(
                        1.0, np.abs(bq).max())
            for j in range(d + 1):
                q, t = sp.small.bases[j], sp.small.bases[d - j]
                img = g.gamma[j] @ q
                res = img - t @ (t.conj().T @ img)
                assert res.size == 0 or np.abs(res).max() <= 1e-8
                assert (sp.small.bases[j].shape[1] + sp.large.bases[j].shape[1]
                        == c.dims.dims[j])
            v = torsion_via_split(c, g, lam).coeff
            np.testing.assert_allclose(v, rho, rtol=1e-8)

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    @pytest.mark.parametrize("acyclic", [True, False])
    def test_part_gamma_is_the_factor_r_of_the_split(self, monkeypatch, d,
                                                     acyclic):
        # for j < (d+1)/2 a proper degree's image basis Q comes from the QR
        # Gamma_j U_j = Q R, and the part's Gamma_j block is R, with no
        # restriction; the block back, Q -> U_j, is restricted as before
        prof = random_profile(np.random.default_rng(75 + d), d,
                              acyclic=acyclic, max_blocks=5)
        c, g = gen_random(75 + d, d, prof)
        whats = []

        def spy(op, source, target, what, _orig=signature_mod._restricted):
            whats.append(what)
            return _orig(op, source, target, what)
        monkeypatch.setattr(signature_mod, "_restricted", spy)
        sig = build_signature(c, g)
        mods = np.unique(np.round(np.concatenate(
            [np.abs(np.linalg.eigvals(sig.bsq_block(j)))
             for j in range(d + 1)]), 6))
        mods = mods[mods > 1e-4]
        proper = 0
        for lam in [0.0] + list(0.5 * (mods[1:] + mods[:-1])):
            whats.clear()
            sp = spectral_split(c, g, lam)
            for part in (sp.small, sp.large):
                if part.complex is c:
                    continue
                for j in range((d + 1) // 2):
                    u, q = part.bases[j], part.bases[d - j]
                    if not 0 < u.shape[1] < u.shape[0]:
                        continue
                    proper += 1
                    block = part.chirality.gamma[j]
                    ref = q.conj().T @ g.gamma[j] @ u
                    assert np.abs(block - ref).max() <= 1e-13
                    assert not np.tril(block, -1).any()  # R itself
                    assert f"Gamma restricted, degree {j}" not in whats
                    assert f"Gamma restricted, degree {d - j}" in whats
        assert proper

    def test_split_forms_no_b_block_it_does_not_read(self, monkeypatch):
        # B^2_j for j < r = (d+1)/2 never reads d_{r-1} Gamma_r, so the
        # split leaves it out of the table; its B^2 blocks are unchanged
        for d in (1, 3, 5, 7):
            c, g = _instance(8, d, acyclic=False)
            r = (d + 1) // 2
            full, split = _b_blocks(c, g), _b_blocks(c, g, split=True)
            assert set(full) - set(split) == {(r, r)}
            for j in range(r):
                assert np.array_equal(_bsq(split, j), _bsq(full, j))
        tables = []

        def spy(c, g, split=False, _orig=signature_mod._b_blocks):
            tables.append(_orig(c, g, split))
            return tables[-1]
        monkeypatch.setattr(signature_mod, "_b_blocks", spy)
        c, g = _instance(8, 3, acyclic=False)
        spectral_split(c, g, 0.0)
        assert len(tables) == 1 and (2, 2) not in tables[0]

    def test_restrict_rejects_non_invariant_subspace(self):
        basis = np.array([[1.0], [0.0]], dtype=complex)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(ValidationError):
            _restrict(basis, swap @ basis, "swap")

    def test_restrict_to_an_empty_basis(self):
        basis = np.zeros((2, 0), dtype=complex)
        with pytest.raises(ValidationError,
                           match=r"^empty: subspace is not invariant "
                                 r"\(residual 1\.000e\+00\)$"):
            _restrict(basis, np.array([[1.0], [0.0]], dtype=complex), "empty")
        assert _restrict(basis, np.zeros((2, 3), dtype=complex),
                         "empty").shape == (0, 3)

    @pytest.mark.parametrize("top", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
    def test_restrict_verdict_ladder(self, top, factor):
        # the residual is factor * _RESTRICT_TOL, the largest entry of the
        # image top; the verdict is res <= _RESTRICT_TOL max(1, max |y|)
        tol = signature_mod._RESTRICT_TOL
        basis = np.array([[1.0], [0.0]], dtype=complex)
        image = np.array([[top], [factor * tol]], dtype=complex)
        if factor * tol <= tol * max(1.0, top):
            assert _restrict(basis, image, "ladder")[0, 0] == top
        else:
            with pytest.raises(ValidationError, match=r"^ladder: subspace "):
                _restrict(basis, image, "ladder")

    def test_restrict_to_a_square_basis_takes_no_residual(self, monkeypatch):
        # a square basis is unitary and spans its space: B^H y as it stands
        rng = np.random.default_rng(5)
        basis = np.linalg.qr(rng.standard_normal((4, 4))
                             + 1j * rng.standard_normal((4, 4)))[0]
        image = rng.standard_normal((4, 3)) + 0j
        ref = basis.conj().T @ image
        reads = []

        def spy(a, _orig=np.abs):
            reads.append(a.shape)
            return _orig(a)
        monkeypatch.setattr(np, "abs", spy)
        x = _restrict(basis, image, "square")
        assert reads == []
        assert np.array_equal(x, ref)

    @pytest.mark.parametrize("cols", [0, 1])
    def test_restrict_rejects_a_nan_image(self, cols):
        basis = np.eye(2, cols, dtype=complex)
        image = np.array([[math.nan], [0.0]], dtype=complex)
        with pytest.raises(ValidationError,
                           match=r"^nan: subspace is not invariant "
                                 r"\(residual nan\)$"):
            _restrict(basis, image, "nan")


def _log_block_product(d, blocks):
    """Log of the torsion of a direct sum of elementary blocks: a middle
    block gives (-1)^j z^((-1)^j), a mirrored one -z^(2 (-1)^j)."""
    total = 0j
    for j, z in blocks:
        if 2 * j + 1 == d:
            total += (-1) ** j * cmath.log(z) + (1j * math.pi if j % 2 else 0)
        else:
            total += 2 * (-1) ** j * cmath.log(z) + 1j * math.pi
    return total


def _log_error(value, expected_log):
    diff = cmath.log(complex(value)) - expected_log
    phase = (diff.imag + math.pi) % (2 * math.pi) - math.pi
    return max(abs(diff.real), abs(phase))


class TestFactorizationCounts:
    """One SVD per differential, shared by the frame and the +/- split, no
    QR of an empty or a whole-degree basis, and each complex factorized once
    per call."""

    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("acyclic", [True, False])
    def test_no_restriction_through_an_empty_basis(self, count_factorizations,
                                                   d, acyclic):
        # an empty source or target basis gives an empty block directly
        c, g = _instance(7, d, acyclic)
        calls = count_factorizations()
        for lam in (0.0, _mid_gap_level(c, g), 2.0 * _spectral_radius(c, g)):
            torsion_via_split(c, g, lam)
            graded_det_via_xi_eta(c, g, lam)
        if acyclic:
            graded_det_finite(c, g)
        shapes = calls.shapes("restrict")
        assert shapes
        assert all(0 not in basis + image for basis, image in shapes)

    def test_graded_det_d1_is_one_svd(self, count_factorizations):
        c, g = _instance(6, 1, acyclic=True)
        calls = count_factorizations()
        graded_det_finite(c, g)
        assert calls == {"svd": 1, "qr": 0, "cholesky": 0, "eigvals": 0,
                         "disk": 0}

    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("above", [False, True], ids=["zero", "above"])
    def test_whole_degree_side_is_the_complex_and_reuses_its_frame(
            self, count_factorizations, d, above):
        # at 0 the large part of an acyclic complex is the complex itself,
        # above the spectrum the small part is; either way the complex's
        # frame serves it: the first call builds that one frame before
        # anything else, and a second call builds none
        c, g = _instance(7, d, acyclic=True)
        lam = 2.0 * _spectral_radius(c, g) if above else 0.0
        sp = spectral_split(c, g, lam)
        assert (sp.small if above else sp.large).complex is c
        one_frame = count_factorizations()
        cohomology_frame(fresh(c))
        assert one_frame.log
        first_call = count_factorizations()
        first = torsion_via_split(c, g, lam).coeff
        calls = count_factorizations()
        assert torsion_via_split(c, g, lam).coeff == first
        assert first_call.log == one_frame.log + calls.log

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_plus_minus_test_is_one_a_by_a_svd_per_proper_degree(
            self, count_factorizations, d):
        # (at d = 1 no degree of an acyclic complex has both sides nonempty)
        c, g, _ = _ladder_instance(d, 40)
        fr = cohomology_frame(c)
        a = [x.shape[1] for x in fr.A]
        kernel = [b.shape[1] + h.shape[1] for b, h in zip(fr.B, fr.H)]
        expected = [(a[j], a[j]) for j in range(d + 1) if a[j] and kernel[j]]
        assert expected
        calls = count_factorizations()
        graded_det_finite(c, g)
        assert calls.shapes("svd", compute_uv=True) == []
        assert calls.shapes("svd", compute_uv=False) == expected

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_xi_eta_takes_eigenvalues_of_the_plus_minus_blocks(
            self, count_factorizations, d):
        # the invertibility kernel settles each degree pair j < (d+1)/2 of
        # the split at 0 on its B^2 block, and the +/- test takes one
        # a_j x a_j kernel call per proper degree: singular values below 16
        # columns, a Cholesky certificate from 16 on; eigvals sees one
        # m_s x m_s matrix per unit of the odd and then the even - side,
        # the self-paired block or PQ of a pair s < d+1-s, and nothing
        # else: no split block, no (Gamma d)^2 and never a whole parity
        c, g, _ = _ladder_instance(d, 40)
        fr = cohomology_frame(c)
        minus = _minus_bases(c, g)[0]
        n = c.dims.dims
        a = [x.shape[1] for x in fr.A]
        m = [x.shape[1] for x in minus]
        split = [n[j] for j in range((d + 1) // 2) if n[j]]
        pm_test = [a[j] for j in range(d + 1) if a[j] and m[j]]
        # the frame of the large part (c itself) takes the singular values
        # of each square d_j P_j, a Cholesky certificate from 16 columns on;
        # at this full rank no singular vectors
        frame = [n[j + 1] for j in range(d)
                 if n[j + 1] == n[j] - fr.B[j].shape[1] > 0]
        assert frame
        units = [m[s] for parity in (1, 0)
                 for s in range(2 - parity, d + 1, 2)
                 if s <= d + 1 - s and m[s]]
        calls = count_factorizations()
        graded_det_via_xi_eta(fresh(c), g, 0.0)  # c's frame is built above
        kernel = split + frame + pm_test
        assert calls.shapes("svd", compute_uv=False) == [
            (k, k) for k in kernel if k < 16]
        assert calls.shapes("cholesky") == [(k, k) for k in kernel
                                            if k >= 16]
        assert calls.shapes("eigvals") == [(k, k) for k in units]
        assert calls["disk"] == 0
        # a pair's matrix is half its 2 m_s x 2 m_s block: with each pair
        # counted twice the units fill every - subspace, and C^0_- = 0
        pairs = [m[s] for s in range(1, (d + 1) // 2) if m[s]]
        assert sum(units) + sum(pairs) == sum(m) and m[0] == 0
        assert bool(pairs) == (d > 1)

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    def test_graded_det_takes_one_slogdet_per_block(self, monkeypatch, d):
        # slogdet sees each block of each side, m_s x m_s in source order,
        # odd side first: the self-paired block and both P and Q of each
        # pair, never a whole parity; det is not called
        c, g, _ = _ladder_instance(d, 40)
        m = [x.shape[1] for x in _minus_bases(c, g)[0]]
        expected = [(m[s], m[s]) for parity in (1, 0)
                    for s in range(2 - parity, d + 1, 2) if m[s]]
        shapes, slogdet = [], np.linalg.slogdet

        def spy(a):
            shapes.append(a.shape)
            return slogdet(a)
        monkeypatch.setattr(np.linalg, "slogdet", spy)
        monkeypatch.setattr(np.linalg, "det", None)
        graded_det_finite(c, g)
        assert shapes == expected
        assert len(shapes) == d  # (d - 1) / 2 pairs, one self-paired block

    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("total", [40, 200])
    def test_graded_dets_take_no_qr_beyond_the_frame(
            self, count_factorizations, d, total):
        # the +/- test reads each Gamma-image of ker d through the
        # certificate, and the + side of B_even is read through Gamma on the
        # odd - subspaces, so neither graded determinant orthonormalizes a
        # Gamma-image: the only QRs are the frame's own, of its tall degrees
        # (the split at 0 of an acyclic complex forms no basis), and none
        # once c keeps its frame; a fresh copy of the complex builds its
        # frame in the call
        c, g, _ = _ladder_instance(d, total)
        calls = count_factorizations()
        cohomology_frame(c)
        frame_qr = calls.shapes("qr")
        assert bool(frame_qr) == (d > 1 and total > 40)
        calls = count_factorizations()
        graded_det_finite(c, g)
        assert calls["qr"] == 0
        for call in (lambda: graded_det_finite(fresh(c), g),
                     lambda: graded_det_via_xi_eta(fresh(c), g, 0.0)):
            calls = count_factorizations()
            call()
            assert calls.shapes("qr") == frame_qr

    @pytest.mark.parametrize("seed", [6, 7, 9])
    def test_whole_side_block_is_b_odd_itself(self, seed):
        # an acyclic d = 1 complex has C^0_+ = C^0 and C^1_- = C^1, so the
        # + block, read through Gamma as d Gamma on the odd - subspaces, is
        # B_odd as it stands, with nothing restricted, and the - block is
        # empty
        c, g = _instance(seed, 1, acyclic=True)
        odd, even = _det_blocks(c, g)
        assert list(odd) == [(1, 1)]
        assert np.array_equal(odd[1, 1], _b_even_odd(c, g)[1])
        assert even == {}

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_split_at_zero_of_acyclic_complex_makes_no_qr(
            self, count_factorizations, d):
        # the small part is empty and the large part fills every degree, so
        # carrying either through Gamma needs no factorization
        c, g = _instance(7, d, acyclic=True)
        calls = count_factorizations()
        sp = spectral_split(c, g, 0.0)
        assert all(b.shape[1] == 0 for b in sp.small.bases)
        assert sp.large.complex.dims == c.dims
        assert calls["qr"] == 0

    def test_torsion_via_split_d1_makes_no_qr(self, count_factorizations):
        c, g = _instance(7, 1, acyclic=True)
        calls = count_factorizations()
        torsion_via_split(c, g, 0.0)
        assert calls["qr"] == 0

    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("above", [False, True], ids=["zero", "above"])
    def test_split_with_an_empty_side_takes_no_disk_split(
            self, count_factorizations, d, above):
        # at 0 nothing of an acyclic complex is small, above the spectrum
        # nothing is large, so the other side is every degree as it stands
        c, g = _instance(7, d, acyclic=True)
        lam = 2.0 * _spectral_radius(c, g) if above else 0.0
        calls = count_factorizations()
        sp = spectral_split(c, g, lam)
        assert calls["disk"] == 0
        full, empty = (sp.small, sp.large) if above else (sp.large, sp.small)
        assert all(b.shape[1] == 0 for b in empty.bases)
        for n, b in zip(c.dims.dims, full.bases):
            assert np.array_equal(b, np.eye(n))

    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("acyclic", [True, False],
                             ids=["mid-gap", "zero-harmonic"])
    def test_one_disk_split_per_proper_pair(self, count_factorizations, d,
                                            acyclic):
        # seed 8 gives a proper pair for every d, and for d >= 3 also a pair
        # whose split is not proper
        c, g = _instance(8, d, acyclic=acyclic)
        lam = _mid_gap_level(c, g) if acyclic else 0.0
        calls = count_factorizations()
        sp = spectral_split(c, g, lam)
        proper = sum(0 < sp.small.bases[j].shape[1] < c.dims.dims[j]
                     for j in range((d + 1) // 2))
        assert proper >= 1
        assert calls["disk"] == proper

    def test_eigenvalue_count_disagreeing_with_projector_rank_is_rejected(
            self, monkeypatch):
        # B^2 with spectrum {1, 2, 3, 4} split at 2.5; the injected spectrum
        # moves the 3 below the level, so eigvals counts 3 small eigenvalues
        # where the spectral projector has rank 2
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4))
                         + 0j)[0]
        bsq = q @ np.diag([1.0, 2.0, 3.0, 4.0]) @ q.conj().T
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda m: np.array([1.0, 2.0, 0.5, 4.0]))
        with pytest.raises(SpectralBoundaryError,
                           match="projector at level 2.5 has rank 2 where "
                                 "the spectrum has 3 small of 4"):
            _split_degree(bsq, 2.5, 0)


class TestSplitCertificate:
    """At lam = 0 the invertibility kernel settles an empty small side
    without eigenvalues (|mu| >= sigma_min); whatever it leaves open, and
    every degree above 0, goes to the eigenvalue rule."""

    # the cluster margin at lam = 2 and the zero cut at lam = 0 are 1e-8
    # times the spectral radius: 3e-8, or 2e-8 for the all-small case
    @pytest.mark.parametrize("spectrum, lam, k, settled", [
        ([3.1e-8, 1.0, 3.0], 0.0, 0, True),
        ([2.9e-8, 1.0, 3.0], 0.0, 1, False),
        ([2.0 + 3.1e-8, 2.5, -3.0], 2.0, 0, False),
        ([1.0, -(2.0 - 3.1e-8), 1.5j], 2.0, 3, False),
        ([1.0, 1.5, 3.0], 2.0, 2, False),
        ([1e-13, 1e-14, 0.0], 0.0, 3, False),
    ])
    def test_normal_block(self, count_factorizations, spectrum, lam, k,
                          settled):
        bsq = normal_matrix(spectrum)
        calls = count_factorizations()
        small, large = _split_degree(bsq, lam, 0)
        assert (small.shape[1], large.shape[1]) == (k, len(spectrum) - k)
        # one values-only SVD, the kernel's, at lam = 0 only
        assert calls.shapes("svd", compute_uv=False) == (
            [bsq.shape] if lam == 0 else [])
        assert calls["eigvals"] == (0 if settled else 1)
        proper = 0 < k < len(spectrum)
        assert calls["disk"] == int(proper)
        if not proper:
            full = small if k else large
            assert np.array_equal(full, np.eye(len(spectrum)))

    @pytest.mark.parametrize("spectrum", [[2.0 + 2.9e-8, 2.5, 3.0],
                                          [1.0, 2.0 - 2.9e-8, 3.0]])
    def test_level_inside_the_margin_is_a_cluster(self, count_factorizations,
                                                  spectrum):
        # the eigenvalues reject a level within the cluster margin, as the
        # singular-value bounds could not clear it either
        calls = count_factorizations()
        with pytest.raises(SpectralBoundaryError, match="cluster"):
            _split_degree(normal_matrix(spectrum), 2.0, 0)
        assert calls["eigvals"] == 1

    @pytest.mark.parametrize("mu, lam", [(1e-4, 0.0), (2.5, 2.0)])
    def test_non_normal_block_falls_through(self, count_factorizations, mu,
                                            lam):
        # a Jordan-like block: sigma_min ~ mu^2 / t lies below the cut while
        # |mu| lies above it, so only the eigenvalues can decide; they give
        # the eigenvalue rule's count, here no small eigenvalue
        bsq = np.array([[mu, 1e3], [0.0, mu]], dtype=complex)
        sv = np.linalg.svd(bsq, compute_uv=False)
        cut = lam if lam > 0 else _zero_cut(sv[0])
        assert sv[-1] < cut < mu
        calls = count_factorizations()
        small, large = _split_degree(bsq, lam, 0)
        assert calls["eigvals"] == 1
        assert calls["disk"] == 0
        assert small.shape[1] == int(np.sum(
            np.abs(np.linalg.eigvals(bsq)) <= cut)) == 0
        assert np.array_equal(large, np.eye(2))

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_split_above_zero_takes_no_values_only_svd(
            self, count_factorizations, d):
        # the only SVDs of a split above 0 are the disk split's full ones
        c, g = _instance(8, d, acyclic=True)
        lam = _widest_gap_middle(c, g)
        calls = count_factorizations()
        spectral_split(c, g, lam)
        assert calls["disk"] >= 1
        assert calls.shapes("svd", compute_uv=False) == []
        assert len(calls.shapes("svd", compute_uv=True)) == calls["disk"]


def _svd_settle_count(bsq, lam):
    """How many eigenvalues of bsq a split at lam > 0 counts as small,
    decided by the retired rule: one values-only SVD settles k = 0 when
    sigma_min - lam, and k = n when lam - sigma_max, clears the cluster
    margin; otherwise the eigenvalue rule counts, and None marks a level
    it rejects as inside a cluster."""
    sv = np.linalg.svd(bsq, compute_uv=False)
    margin = signature_mod._CLUSTER_RTOL * max(lam, 1.0, sv[0])
    if sv[-1] - lam > margin:
        return 0
    if lam - sv[0] > margin:
        return len(sv)
    mods = np.abs(np.linalg.eigvals(bsq))
    if np.min(np.abs(mods - lam)) <= signature_mod._CLUSTER_RTOL * max(
            lam, 1.0, mods.max()):
        return None
    return int(np.sum(mods <= lam))


def _widest_gap_middle(c, g):
    """The geometric middle of the widest gap (by ratio) between distinct
    nonzero moduli of spec(B^2), half the smallest when there is one."""
    mods = np.abs(np.concatenate([np.linalg.eigvals(b) for b in _bsqs(c, g)]))
    mods = np.unique(np.round(mods[mods > 1e-6 * max(mods.max(), 1.0)], 6))
    if len(mods) == 1:
        return 0.5 * mods[0]
    i = int(np.argmax(mods[1:] / mods[:-1]))
    return math.sqrt(mods[i] * mods[i + 1])


def _bsqs(c, g):
    """The B^2 blocks a split decides: degrees j < (d+1)/2, nonempty."""
    blocks = _b_blocks(c, g, split=True)
    return [_bsq(blocks, j) for j in range((c.d + 1) // 2) if c.dims.dims[j]]


def _normal_ladder():
    """TestSplitCertificate's blocks at lam = 2: an eigenvalue 3.1e-8 (just
    outside the cluster margin) or 2.9e-8 (inside) from the level, on
    either side, with the rest of the spectrum small, large or mixed."""
    out = []
    for delta in (3.1e-8, -3.1e-8, 2.9e-8, -2.9e-8):
        for rest in ([2.5, -3.0], [1.0, 1.5j], [1.0, 3.0]):
            out.append(normal_matrix([2.0 + delta] + rest))
    return out


class TestOneRuleAboveZero:
    """Above lam = 0 the eigenvalue rule decides every degree alone: on
    blocks around the cluster margin, on non-normal blocks and on seeded
    complexes it gives the count of the retired singular-value pre-check,
    and the same bases, bit for bit."""

    @staticmethod
    def _assert_as_retired(bsq, lam):
        n = bsq.shape[0]
        k = _svd_settle_count(bsq, lam)
        if k is None:
            with pytest.raises(SpectralBoundaryError, match="cluster"):
                _split_degree(bsq, lam, 0)
            return None
        small, large = _split_degree(bsq, lam, 0)
        if k == 0:
            expected = np.zeros((n, 0)), np.eye(n)
        elif k == n:
            expected = np.eye(n), np.zeros((n, 0))
        else:
            expected = signature_mod._disk_split(bsq, lam, k, 0)
        for got, want in zip((small, large), expected):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        return k

    def test_normal_ladder(self):
        counts = [self._assert_as_retired(b, 2.0) for b in _normal_ladder()]
        # the margin is 1e-8 max(2, spectral radius): 3e-8 beside a 3, so
        # 2.9e-8 from the level is a cluster (None) there, and 2e-8 beside
        # only 1 and 1.5j, where 2.9e-8 clears it
        assert counts == [0, 2, 1, 1, 3, 2, None, 2, None, None, 3, None]

    @pytest.mark.parametrize("mu, k", [(2.5, 0), (1.5, 2)])
    def test_non_normal_block(self, mu, k):
        # sigma_min ~ mu^2 / 1e3 lies below 2 while |mu| lies on either side
        bsq = np.array([[mu, 1e3], [0.0, mu]], dtype=complex)
        assert self._assert_as_retired(bsq, 2.0) == k

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    @pytest.mark.parametrize("acyclic", [True, False])
    def test_seeded_complexes(self, d, acyclic):
        kinds = set()  # whether each block's split had an empty side
        for seed in range(40):
            c, g = _instance(seed, d, acyclic)
            blocks = _bsqs(c, g)
            top = max(float(np.abs(np.linalg.eigvals(b)).max())
                      for b in blocks)
            for lam in (_widest_gap_middle(c, g), 2.0 * top):
                for bsq in blocks:
                    k = self._assert_as_retired(bsq, lam)
                    kinds.add(k in (0, bsq.shape[0]))
        assert kinds == {True, False}


def _svd_zero_count(bsq):
    """How many eigenvalues of bsq a split at 0 counts as zero, decided as
    without the invertibility kernel: none when the singular values give
    sigma_min > _zero_cut(sigma_max), else the eigenvalue rule."""
    sv = np.linalg.svd(bsq, compute_uv=False)
    if sv[-1] > _zero_cut(sv[0]):
        return 0
    mods = np.abs(np.linalg.eigvals(bsq))
    return int(np.sum(mods <= _zero_cut(mods.max())))


class TestZeroSplitKernel:
    """At lam = 0 the invertibility kernel settles k = 0 on B^2 (singular
    values below 16 columns, the Cholesky certificate from 16 on); what it
    leaves open goes to the eigenvalue rule, so every rung of a ladder
    around the zero cut counts as the singular values and eigenvalues
    did."""

    # the smallest modulus of B^2 around the absolute floor 1e-12 (1 x 1,
    # where the cut is that floor) and around the zero cut 1e-8 of a block
    # of scale 1 (16 x 16), up to far clear of it, and the first rung the
    # kernel settles: the certificate needs sigma_min^2 above about
    # 1e-10 ||B^2||_F^2 (its shift), here sigma_min above about 3.9e-5
    @pytest.mark.parametrize("n, rungs, first_settled", [
        (1, [0.0, 5e-13, 9.9e-13, 1.01e-12, 2e-12, 1e-8, 1.0], 1.01e-12),
        (16, [0.0, 5e-9, 9.9e-9, 1.01e-8, 2e-8, 1e-6, 3e-5, 1e-4, 1e-2,
              0.5], 1e-4),
    ], ids=["1x1", "16x16"])
    def test_decision_ladder_around_the_zero_cut(self, count_factorizations,
                                                 n, rungs, first_settled):
        counts = []
        for x in rungs:
            bsq = normal_matrix([x] + [cmath.exp(0.3j * k)
                                       for k in range(n - 1)])
            expected = _svd_zero_count(bsq)
            counts.append(expected)
            calls = count_factorizations()
            small, large = _split_degree(bsq, 0.0, 0)
            assert (small.shape[1], large.shape[1]) == (expected,
                                                        n - expected), x
            # one kernel call, by the kernel's size rule, and eigenvalues
            # only where it answers False
            assert calls.shapes("svd", compute_uv=False) == (
                [(n, n)] if n < 16 else [])
            assert calls.shapes("cholesky") == ([] if n < 16 else [(n, n)])
            assert calls["eigvals"] == int(x < first_settled), x
        assert counts == [1, 1, 1] + [0] * (len(rungs) - 3)


def _triangular_block(diag, seed, off, couplings=()):
    """Q T Q^H for a random unitary Q, T upper triangular with the given
    diagonal, a random strict upper part scaled by off, and the given
    (row, col, value) entries on top."""
    n = len(diag)
    rng = np.random.default_rng(seed)
    t = off * np.triu(rng.standard_normal((n, n))
                      + 1j * rng.standard_normal((n, n)), 1)
    t += np.diag(np.asarray(diag, dtype=complex))
    for row, col, value in couplings:
        t[row, col] = value
    q = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    return q @ t @ q.conj().T


def _schur_bases(bsq, cut):
    """The reference split: a sorted Schur form Z T Z^H with the moduli at
    most cut first; Z1 spans the small part and Z1 X + Z2, with
    T11 X - X T22 = -T12, the large one."""
    t, z, k = scipy.linalg.schur(bsq, output="complex",
                                 sort=lambda e: abs(e) <= cut)
    x = scipy.linalg.solve_sylvester(t[:k, :k], -t[k:, k:], -t[:k, k:])
    return z[:, :k], np.linalg.qr(z[:, :k] @ x + z[:, k:])[0]


def _subspace_gap(basis, reference):
    """Largest entry of the part of reference outside the span of basis
    (both with orthonormal columns)."""
    return float(np.abs(reference
                        - basis @ (basis.conj().T @ reference)).max())


class TestDiskSplit:
    """A proper split from the sign of the Cayley transform of B^2, against
    bases read off a sorted Schur form."""

    def test_non_normal_block_of_order_400(self):
        # moduli log-uniform in [0.1, 10] with random phases and a scaled
        # random upper part: cond(sign X0) = 3.5e3 at the level 1
        rng = np.random.default_rng(1)
        diag = (np.exp(rng.uniform(np.log(0.1), np.log(10.0), 400))
                * np.exp(1j * rng.uniform(-1.0, 1.0, 400)))
        bsq = _triangular_block(diag, 1, 0.056)
        small, large = _split_degree(bsq, 1.0, 0)
        ref_small, ref_large = _schur_bases(bsq, 1.0)
        assert small.shape == ref_small.shape
        assert large.shape == ref_large.shape
        assert _subspace_gap(small, ref_small) <= 1e-12
        assert _subspace_gap(large, ref_large) <= 1e-12

    def test_zero_cluster_of_a_non_normal_block(self):
        # at lam = 0 the level sits at half the smallest nonzero modulus, so
        # B^2 + mu stays well conditioned next to the zero eigenvalues
        bsq = _triangular_block([0.0, 0.0, 1.0, 1.1, 4.5], 4, 1.0)
        small, large = _split_degree(bsq, 0.0, 0)
        ref_small, ref_large = _schur_bases(
            bsq, _zero_cut(float(np.abs(np.linalg.eigvals(bsq)).max())))
        assert (small.shape[1], large.shape[1]) == (2, 3)
        assert _subspace_gap(small, ref_small) <= 1e-13
        assert _subspace_gap(large, ref_large) <= 1e-13

    @pytest.mark.parametrize("delta", [1e-1, 1e-3])
    def test_coupled_pair_across_a_wide_gap(self, delta):
        bsq = _triangular_block([0.5, 1 - delta, 1 + delta, 2.0], 0, 0.0,
                                [(1, 2, 1.0)])
        small, large = _split_degree(bsq, 1.0, 0)
        ref_small, ref_large = _schur_bases(bsq, 1.0)
        assert (small.shape[1], large.shape[1]) == (2, 2)
        assert _subspace_gap(small, ref_small) <= 1e-10
        assert _subspace_gap(large, ref_large) <= 1e-10

    @pytest.mark.parametrize("delta", [1e-5, 1e-7])
    def test_level_too_close_to_the_spectrum_does_not_converge(self, delta):
        # the level 1 clears the cluster margin (2e-8) but sits between two
        # coupled eigenvalues 1 -+ delta; the projector has norm ~ 1/delta,
        # and the iteration stalls at its rounding floor
        bsq = _triangular_block([0.5, 1 - delta, 1 + delta, 2.0], 0, 0.0,
                                [(1, 2, 1.0)])
        with pytest.raises(SpectralBoundaryError,
                           match=r"^degree 0: the sign iteration at level 1 "
                                 r"did not converge in 50 steps \(residual "
                                 r"\d\.\d{3}e-\d\d\)$"):
            _split_degree(bsq, 1.0, 0)


def _ladder_instance(d, total):
    """Acyclic instance of about total dimensions with its block list."""
    rng = np.random.default_rng(1000 * d + total)
    r = (d + 1) // 2
    blocks, n = [], 0
    while n < total:
        j = int(rng.integers(0, r))
        z = complex(rng.uniform(0.3, 1.5), rng.uniform(-1.0, 1.0))
        blocks.append((j, z))
        n += 2 if 2 * j + 1 == d else 4
    c, g = gen_random(total + d, d, {"blocks": blocks, "harmonic": []})
    return c, g, blocks


class TestOracleLadder:
    """Split and xi/eta paths against the exact block product, acyclic
    instances up to N ~ 300."""

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    @pytest.mark.parametrize("total", [40, 200])
    def test_block_product(self, d, total):
        c, g, blocks = _ladder_instance(d, total)
        expected = _log_block_product(d, blocks)
        assert _log_error(torsion_via_split(c, g, 0.0).coeff, expected) <= 1e-8
        assert _log_error(graded_det_via_xi_eta(c, g, 0.0), expected) <= 1e-8

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    def test_xi_eta_at_mid_gap_is_the_large_part_graded_det(self, d):
        c, g, _ = _ladder_instance(d, 200)
        lam = _mid_gap_level(c, g)
        large = spectral_split(c, g, lam).large
        assert 0 < sum(large.complex.dims.dims) < sum(c.dims.dims)
        expected = graded_det_finite(large.complex, large.chirality)
        assert _log_error(graded_det_via_xi_eta(c, g, lam),
                          cmath.log(expected)) <= 1e-8

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    def test_block_product_above_spectrum(self, d):
        # everything is small: the torsion of the small part is the torsion
        c, g, blocks = _ladder_instance(d, 300)
        lam = 2.0 * _spectral_radius(c, g)
        assert _log_error(torsion_via_split(c, g, lam).coeff,
                          _log_block_product(d, blocks)) <= 1e-8


class TestLogDetCut:
    def test_hand_examples(self):
        np.testing.assert_allclose(
            _ldet(np.diag([1.0, -1.0]), -math.pi / 2), 1j * math.pi,
            atol=1e-14)
        for theta in (-math.pi / 4, -1.0):
            np.testing.assert_allclose(
                _ldet(np.diag([4.0]), theta), math.log(4.0), atol=1e-14)
        np.testing.assert_allclose(
            _ldet(np.diag([-1.0j]), -math.pi / 4), 1.5j * math.pi,
            atol=1e-14)

    def test_zero_eigenvalues_are_skipped(self):
        val = _ldet(np.diag([0.0, 4.0]), -math.pi / 4)
        np.testing.assert_allclose(val, math.log(4.0), atol=1e-12)

    def test_eigenvalue_on_cut_is_rejected(self):
        with pytest.raises(SpectralBoundaryError):
            _ldet(np.diag([-1.0j]), -math.pi / 2)

    def test_non_square_matrix_is_rejected(self):
        with pytest.raises(ValidationError, match="^matrix must be square$"):
            _ldet(np.ones((2, 3)), -math.pi / 4)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_is_rejected(self, theta):
        with pytest.raises(ValidationError, match="branch angle"):
            _ldet(np.diag([4.0]), theta)
        with pytest.raises(ValidationError, match="branch angle"):
            det_eta_check(np.diag([2.0, -3.0]), theta)

    def test_far_angle_is_one_period_shift(self):
        # the window (theta, theta + 2 pi] is found in one step: theta = 1e6
        # shifts every argument by 2 pi k from theta - 2 pi k
        eigs = np.array([4.0, -1.0 + 2.0j, 0.5 - 3.0j])
        theta = 1e6
        k = math.floor(theta / (2 * math.pi))
        near = _ldet(eigs, theta - 2 * math.pi * k)
        far = _ldet(eigs, theta)
        np.testing.assert_allclose(far, near + 2j * math.pi * k * eigs.size,
                                   rtol=1e-12)

    def test_window_agrees_with_stepping_by_periods(self, monkeypatch):
        def by_steps(z, theta):
            a = cmath.phase(z)
            while a <= theta:
                a += 2 * math.pi
            while a > theta + 2 * math.pi:
                a -= 2 * math.pi
            return a

        rng = np.random.default_rng(11)
        eigs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        thetas = (-math.pi / 4, -2.5, 1.0, -7.0, 30.0)
        models = [CircleModel(a) for a in (0.3, 0.71, 0.3 + 0.2j, 0.6 - 0.4j)]
        new = ([_ldet(eigs, t) for t in thetas],
               [split_check(m, k) for m in models for k in (2, 5)])
        monkeypatch.setattr(signature_mod, "_arg_in_window", by_steps)
        old = ([_ldet(eigs, t) for t in thetas],
               [split_check(m, k) for m in models for k in (2, 5)])
        np.testing.assert_allclose(new[0], old[0], rtol=1e-12)
        np.testing.assert_allclose(new[1], old[1], rtol=0, atol=1e-12)


class TestNonFiniteSpectrum:
    """A NaN or infinity would make the zero cut non-finite and count every
    value as zero, so the spectral helpers reject it."""

    @pytest.mark.parametrize("call", [
        lambda: eta_finite([1.0, math.inf, -2.0]),
        lambda: eta_finite(np.diag([1.0, math.nan])),
        lambda: _ldet([1.0, math.nan], -math.pi / 4),
        lambda: _ldet(np.array([[1.0, math.inf], [0.0, 1.0]]),
                            -math.pi / 4),
        lambda: det_eta_check([math.nan, 1.0], -math.pi / 4),
        lambda: pick_agmon_angle([1.0, complex(0.0, math.inf)]),
    ], ids=["eta-vector", "eta-matrix", "ldet-vector", "ldet-matrix",
            "det-eta", "agmon"])
    def test_is_rejected(self, call):
        with pytest.raises(ValidationError, match="not finite"):
            call()


def _outcome(call, *args):
    """The value of call(*args), or the type and message of the error it
    raises."""
    try:
        return call(*args)
    except (ValidationError, SpectralBoundaryError) as exc:
        return type(exc), str(exc)


# a spectrum with zeros, points on and within _RAY_TOL of the imaginary axis
# and points within _RAY_TOL of the cuts at -pi/4 and 3 pi/4
_LIST_SPECTRA = {
    "mixed": [2.0, -3.0 + 1.0j, 0.5j, -0.25j, 0.0, 1e-14, -1.0, 3],
    "axis": [cmath.rect(1.5, math.pi / 2 - 0.5 * _RAY_TOL),
             cmath.rect(0.7, -math.pi / 2 + 0.5 * _RAY_TOL), 2.0j, 1.0],
    "near-cut": [cmath.rect(1.2, -math.pi / 4 + 0.5 * _RAY_TOL),
                 cmath.rect(0.9, 3 * math.pi / 4 - 0.5 * _RAY_TOL), 2.0],
    "zeros": [0.0, 0j, 1e-13],
}


class TestListPath:
    """A spectrum is a list of complex: a list, a tuple and a 1-D array of
    the same values, and a 0-D array of one value, give the same results."""

    @staticmethod
    def _results(spectrum):
        out = [_outcome(eta_finite, spectrum),
               _outcome(pick_agmon_angle, spectrum)]
        out += [_outcome(_ldet, spectrum, theta)
                for theta in (-math.pi / 4, 0.75 * math.pi, -1.0)]
        return out

    @pytest.mark.parametrize("name", list(_LIST_SPECTRA))
    def test_forms_agree(self, name):
        eigs = _LIST_SPECTRA[name]
        want = self._results(list(eigs))
        for form in (tuple(eigs), np.array(eigs), np.array(eigs, dtype=complex)):
            assert self._results(form) == want
        for z in eigs:
            assert self._results(np.array(z)) == self._results([z])
            assert self._results((z,)) == self._results([z])

    def test_near_cut_points_are_boundaries(self):
        eigs = _LIST_SPECTRA["near-cut"]
        for e, theta in ((eigs[:1], -math.pi / 4), (eigs[1:2], 0.75 * math.pi)):
            with pytest.raises(SpectralBoundaryError, match="branch cut"):
                _ldet(e, theta)
        e = eta_finite(_LIST_SPECTRA["axis"])
        assert (e.m_plus, e.m_minus, e.asymmetry) == (2, 1, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf),
                                     complex(math.nan, 1.0)])
    @pytest.mark.parametrize("pos", [0, 2, 4], ids=["first", "middle", "last"])
    def test_non_finite_anywhere_is_rejected(self, bad, pos):
        eigs = [1.0, -2.0, 3.0j, 0.5, 4.0]
        eigs[pos] = bad
        for call in (eta_finite, pick_agmon_angle,
                     lambda e: _ldet(e, -math.pi / 4),
                     lambda e: det_eta_check(e, -math.pi / 4)):
            with pytest.raises(ValidationError, match="not finite"):
                call(eigs)

    @pytest.mark.parametrize("bad", [
        np.ones((2, 2, 2)), np.ones((1, 1, 1)), [[1.0, 2.0], [3.0]],
        [1.0, [2.0, 3.0]], [[[1.0]], [[2.0]]],
    ], ids=["3-D", "3-D-single", "ragged", "ragged-flat", "nested-3-D"])
    def test_other_shapes_are_rejected(self, bad):
        # a spectrum is 0-D or 1-D and a matrix 2-D: a 3-D array is not
        # flattened into eigenvalues, and a ragged nesting is refused by
        # the package, not by numpy
        for call in (eta_finite, pick_agmon_angle,
                     lambda e: _ldet(e, -math.pi / 4),
                     lambda e: det_eta_check(e, -math.pi / 4)):
            with pytest.raises(ValidationError,
                               match="is neither a spectrum nor a matrix"):
                call(bad)

    def test_modulus_past_the_float_range_is_rejected(self):
        with pytest.raises(ValidationError, match="not finite"):
            eta_finite([1.0, complex(1.5e308, 1.5e308)])

    @pytest.mark.parametrize("empty", [[], (), np.zeros(0),
                                       np.zeros((0, 0))],
                             ids=["list", "tuple", "vector", "matrix"])
    def test_empty_spectrum(self, empty):
        assert _ldet(empty, -1.0) == 0
        e = eta_finite(empty)
        assert (e.eta, e.asymmetry, e.m_plus, e.m_minus, e.m_zero) == (
            0.0, 0, 0, 0, 0)
        assert pick_agmon_angle(empty) == -math.pi / 4


class TestEta:
    def test_hand_examples(self):
        e = eta_finite(np.diag([1.0, -2.0, 3.0j]))
        assert (e.m_plus, e.m_minus, e.m_zero) == (1, 0, 0)
        np.testing.assert_allclose(e.eta, 0.5)
        np.testing.assert_allclose(eta_finite(np.diag([1.0, -1.0])).eta, 0.0)
        np.testing.assert_allclose(eta_finite(np.zeros((1, 1))).eta, 0.5)

    def test_zero_count_matches_svd_rank(self):
        # a tiny spectrum still has the absolute floor under its zero cut,
        # as the singular values of the same matrix do
        m = np.diag([1e-5, 5e-13])
        assert eta_finite(m).m_zero == 1
        fr = cohomology_frame(CochainComplex(GradedDims((2, 2)), (m,)))
        assert fr.B[1].shape[1] == 1

    def test_det_eta_hand_examples(self):
        assert det_eta_check(np.diag([2.0]), -math.pi / 4) <= 1e-14
        assert det_eta_check(np.diag([2.0, -3.0]), -math.pi / 4) <= 1e-14
        assert det_eta_check(np.diag([2.0, -3.0]), -math.pi / 8) <= 1e-14

    def test_det_eta_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            theta = pick_agmon_angle(m)
            assert det_eta_check(m, theta) <= 1e-9

    @pytest.mark.parametrize("z", [-1 + 1e17j, 1 - 1e17j, -1 + 3e16j,
                                   -1 + 1e9j],
                             ids=["-1+1e17j", "1-1e17j", "-1+3e16j",
                                  "-1+1e9j"])
    def test_no_agmon_angle_in_an_arc_below_1e_8(self, z):
        # the arc is 1/|Im z| wide; a phase within 1e-16 of +-pi/2 rounds
        # onto the arc's edge, and the width from the parts still closes it
        with pytest.raises(SpectralBoundaryError,
                           match=r"^no admissible branch angle"):
            pick_agmon_angle([z])

    def test_agmon_arc_width_from_the_parts(self):
        # the width 1e-17 survives where the phase rounds onto the arc's
        # edge; a z on an axis or in the other two quadrants leaves the arc
        assert signature_mod._agmon_arc([-1 + 1e17j])[1] == 1e-17
        bound, width = signature_mod._agmon_arc([1e-3 - 1j, 2.0, 3j, 1 + 1j])
        assert width == math.atan2(1e-3, 1.0)
        assert bound == cmath.phase(1e-3 - 1j)
        assert signature_mod._agmon_arc([2.0, -2.0, 3j, -3j, 1 + 1j,
                                         -1 - 1j]) == (0.0, math.pi / 2)


def _xi_eta_by_degree(c, g, lam):
    """graded_det_via_xi_eta with xi summed degree by degree over
    (Gamma d)^2 restricted to each C^j_+ of the large part, and eta from
    the eigenvalues of the assembled +/- blocks."""
    large = spectral_split(c, g, lam).large
    cl, gl = large.complex, large.chirality
    d = cl.d
    b = _b_blocks(cl, gl)
    plus = _plus_minus(cl, gl)[0]
    num, den = (_assembled(t) for t in _det_blocks(cl, gl))
    eigs = np.concatenate([np.linalg.eigvals(num) if num.size else [],
                           np.linalg.eigvals(den) if den.size else []])
    theta = pick_agmon_angle(eigs)
    xi = 0j
    for j in range(d):
        p = plus[j]
        if p.shape[1]:
            gd_sq = b[j, d - j - 1] @ b[d - j - 1, j]
            rest = _restrict(p, gd_sq @ p, f"(Gamma d)^2 on C^{j}_+")
            xi += 0.5 * (-1) ** j * _ldet(rest, 2 * theta)
    return cmath.exp(xi - 1j * math.pi * eta_finite(eigs).eta
                     + 1j * math.pi * (len(num) - len(den)) / 2.0)


class TestGradedDetViaXiEta:
    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    @pytest.mark.parametrize("acyclic", [True, False])
    def test_xi_from_plus_minus_spectra_matches_degree_sum(self, d, acyclic):
        prof = random_profile(np.random.default_rng(60 + d), d,
                              acyclic=acyclic, max_blocks=5)
        c, g = gen_random(60 + d, d, prof)
        for lam in (0.0, _mid_gap_level(c, g)):
            np.testing.assert_allclose(graded_det_via_xi_eta(c, g, lam),
                                       _xi_eta_by_degree(c, g, lam),
                                       rtol=1e-10)

    def test_hand_examples(self):
        c, g = gen_elementary(1, 0, 2.0)
        np.testing.assert_allclose(
            graded_det_via_xi_eta(c, g, 0.0), 2.0, atol=1e-12)
        c, g = gen_elementary(1, 0, -2.0)
        np.testing.assert_allclose(
            graded_det_via_xi_eta(c, g, 0.0), -2.0, atol=1e-12)

    def test_matches_direct_graded_det(self):
        for seed in range(6):
            d = 3 if seed % 2 else 1
            c, g = _instance(seed + 40, d, acyclic=True)
            direct = graded_det_finite(c, g)
            via = graded_det_via_xi_eta(c, g, 0.0)
            np.testing.assert_allclose(via, direct, rtol=1e-9)


def _range_texts(c, g) -> set:
    """The texts that graded_det_via_xi_eta at 0 and graded_det_finite
    raise on (c, g), each required to raise SpectralBoundaryError."""
    texts = set()
    for call in (lambda: graded_det_via_xi_eta(c, g, 0.0),
                 lambda: graded_det_finite(c, g)):
        with pytest.raises(SpectralBoundaryError) as exc:
            call()
        texts.add(str(exc.value))
    return texts


class TestXiEtaOverflow:
    """log|rho| = 200 log 50 ~ 782 leaves the float range: both routes to
    the graded determinant leave the log domain by one exp, and raise one
    text that names the real part of its exponent, as the circle's exp
    does, with no numpy warning on the way."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_names_the_real_part(self):
        c, g = gen_random(1, 1, {"blocks": [(0, 50.0)] * 200,
                                 "harmonic": []})
        (text,) = _range_texts(c, g)
        assert re.fullmatch(r"exp of real part 782\.4\d* overflows the "
                            r"float range \(the graded determinant of "
                            r"B_even\)", text)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n, real", [(182, r"-711\.98\d*"),
                                         (188, r"-735\.46\d*"),
                                         (200, r"-782\.4\d*")])
    def test_underflow_names_the_real_part(self, n, real):
        # the mirror image: |rho| = 0.02^n is subnormal at n = 182
        # (6.1e-310) and 188 (3.9e-320), its digits lost (a relative error
        # of 1e-4 at 188), and 1.6e-340 at n = 200 rounds to 0; a graded
        # determinant of a bijective B_even is never 0, so each underflows
        c, g = gen_random(1, 1, {"blocks": [(0, 0.02)] * n, "harmonic": []})
        (text,) = _range_texts(c, g)
        assert re.fullmatch(rf"exp of real part {real} underflows the "
                            r"float range \(the graded determinant of "
                            r"B_even\)", text)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_last_normal_value_is_returned(self):
        # 0.02^181 = 3.06e-308 lies just above the least normal double
        c, g = gen_random(1, 1, {"blocks": [(0, 0.02)] * 181,
                                 "harmonic": []})
        for value in (graded_det_finite(c, g),
                      graded_det_via_xi_eta(c, g, 0.0)):
            assert abs(value) >= sys.float_info.min
            np.testing.assert_allclose(abs(value), 0.02 ** 181, rtol=1e-9)


def _scaled(c, t):
    """The complex c with every differential multiplied by t."""
    return CochainComplex(c.dims, tuple(t * m for m in c.partial))


class TestZeroDecidedOnce:
    """Each spectrum decides its zeros once, relative to its own largest
    value: the lambda = 0 split decides for xi and eta, so on an acyclic
    complex at any scale the xi/eta graded determinant is the direct one.
    The limit is the absolute floor RANK_ATOL = 1e-12: from t = 1e-6 on
    eigenvalues of B^2 reach it and count as zero."""

    @pytest.mark.parametrize("t", [1e-5, 1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_scale_ladder(self, t):
        for seed in range(6):
            for d in (1, 3, 5):
                c, g = gen_random(seed, d)
                cs = _scaled(c, t)
                direct = graded_det_finite(cs, g)
                via = graded_det_via_xi_eta(cs, g, 0.0)
                assert abs(via - direct) <= 1e-9 * abs(direct), (seed, d)

    def test_small_elementary_block(self):
        c, g = gen_elementary(1, 0, 1e-4)
        assert abs(graded_det_via_xi_eta(c, g, 0.0) - 1e-4) <= 1e-9 * 1e-4

    @pytest.mark.parametrize("z", [2.0, 2e3])
    def test_spread_spectrum(self, z):
        # one block at 1e-5 and one at z: the second cut against the global
        # largest value dropped the first from xi and eta
        c, g = gen_random(5, 5, {"blocks": [(0, 1e-5), (2, z)],
                                 "harmonic": []})
        direct = graded_det_finite(c, g)
        via = graded_det_via_xi_eta(c, g, 0.0)
        assert abs(via - direct) <= 1e-9 * abs(direct)

    @pytest.mark.parametrize("top", [2.0, 2e3])
    def test_det_eta_identity_on_a_spread_spectrum(self, top):
        spectrum = [1e-5, top]
        assert det_eta_check(spectrum, pick_agmon_angle(spectrum)) <= 1e-9

    @pytest.mark.parametrize("singular", [0, 1], ids=["plus", "minus"])
    def test_exact_zero_of_the_large_part_is_a_boundary(self, monkeypatch,
                                                        singular):
        # the split decided every eigenvalue of the large part nonzero; an
        # exact zero left in a +/- block lies on every cut
        monkeypatch.setattr(signature_mod, "_det_blocks",
                            lambda *args: _singular_tables(singular))
        c, g = gen_elementary(1, 0, 2.0)
        with pytest.raises(SpectralBoundaryError, match="branch cut"):
            graded_det_via_xi_eta(c, g, 0.0)

    def test_split_zero_cut_has_no_floor_of_one(self):
        # B^2 = diag(1e-8, 1e-8): nothing is zero at its own scale
        bsq = np.diag([1e-8, 1e-8]).astype(complex)
        small, large = _split_degree(bsq, 0.0, 0)
        assert small.shape[1] == 0 and large.shape[1] == 2
        small, large = _split_degree(np.diag([1e-8, 1e-17]).astype(complex),
                                     0.0, 0)
        assert small.shape[1] == 1 and large.shape[1] == 1
