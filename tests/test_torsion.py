"""Unit tests for chirality operators and refined torsion."""

import math

import numpy as np
import pytest

from detline import (
    ChiralityOp,
    CochainComplex,
    GradedDims,
    ValidationError,
    c_gamma,
    chiral_direct_sum,
    cohomology_frame,
    dual_torsion_check,
    gen_elementary,
    gen_random,
    random_profile,
    refined_torsion,
    supertrace,
    torsion_norm,
    validate_chirality,
    variation_check,
)
from detline.complexes import fused_in_sum_frame
from detline.selftest import _gamma_family, _instance


class TestValidateChirality:
    def test_accepts_elementary(self):
        c, g = gen_elementary(3, 0, 1.5)
        validate_chirality(c, g)

    def test_rejects_even_degree(self):
        c = CochainComplex(GradedDims((1, 1, 1)),
                           (np.zeros((1, 1)), np.zeros((1, 1))))
        with pytest.raises(ValidationError):
            g = ChiralityOp((np.eye(1),) * 3)
            validate_chirality(c, g)

    def test_rejects_non_involution(self):
        c = CochainComplex(GradedDims((1, 1)), (np.array([[2.0]]),))
        with pytest.raises(ValidationError):
            g = ChiralityOp((np.array([[2.0]]), np.array([[1.0]])))
            validate_chirality(c, g)

    def test_rejects_non_finite_entry(self):
        # a NaN residual must fail the tolerance test, not slip past it
        c = CochainComplex(GradedDims((1, 1)), (np.array([[2.0]]),))
        with pytest.raises(ValidationError):
            g = ChiralityOp((np.array([[np.nan]]), np.array([[1.0]])))
            validate_chirality(c, g)

    @pytest.mark.parametrize("gamma, message", [
        ((np.eye(1),) * 3, "chirality requires odd top degree"),
        ((np.array([[2.0]]), np.array([[1.0]])),
         r"Gamma\^2 - 1 residual 1\.000e\+00 in degree 0 exceeds 1\.000e-10"),
        ((np.array([[np.nan]]), np.array([[1.0]])),
         r"Gamma\^2 - 1 residual nan in degree 0 exceeds 1\.000e-10"),
        ((np.eye(2), np.eye(1)),
         r"Gamma_0 has shape \(2, 2\), expected \(1, 2\)"),
        ((np.ones(1), np.eye(1)),
         r"Gamma_0 has shape \(1,\), expected a matrix"),
        ((np.eye(1), np.ones((1, 1, 1))),
         r"Gamma_1 has shape \(1, 1, 1\), expected a matrix"),
    ], ids=["even-degree", "not-involution", "nan", "shapes", "1-d", "3-d"])
    def test_construction_rejects_with_message(self, gamma, message):
        with pytest.raises(ValidationError, match=message):
            ChiralityOp(gamma)

    def test_blocks_are_read_only_views(self):
        g0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        g = ChiralityOp((g0, g0))
        for block in g.gamma:
            assert np.shares_memory(block, g0)
            assert not block.flags.writeable
        assert g0.flags.writeable
        with pytest.raises(ValueError):
            g.gamma[1][0, 0] = 1.0

    def test_rejects_degree_mismatch(self):
        c = gen_elementary(3, 0, 1.5)[0]
        g = gen_elementary(1, 0, 2.0)[1]
        with pytest.raises(ValidationError, match="degree does not match"):
            validate_chirality(c, g)

    def test_rejects_shape_mismatch(self):
        c = CochainComplex(GradedDims((2, 1)), (np.zeros((1, 2)),))
        g = ChiralityOp((np.eye(2), np.eye(2)))
        with pytest.raises(ValidationError,
                           match=r"Gamma_0 has shape \(2, 2\), expected \(1, 2\)"):
            validate_chirality(c, g)


class TestRefinedTorsion:
    def test_running_example(self):
        c, g = gen_elementary(1, 0, 2.0)
        rho = refined_torsion(c, g)
        assert abs(rho.coeff - 2.0) <= 1e-12

    def test_c_gamma_identity_pairing(self):
        c, g = gen_elementary(1, 0, 2.0)
        assert c_gamma(c, g).coeff == 1.0

    def test_scalar_dual_is_conjugate(self):
        # d=1, 1x1 blocks: the dual-chirality torsion is the conjugate
        for z in (3.0, 1.0 + 2.0j):
            c, g = gen_elementary(1, 0, z)
            assert dual_torsion_check(c, g) <= 1e-12

    def test_norm_is_one_for_unitary_chirality(self):
        for seed in range(20):
            d = 3 if seed % 2 else 1
            prof = random_profile(np.random.default_rng(seed), d,
                                  acyclic=(seed % 3 > 0))
            c, g = gen_random(seed, d, prof, unitary=True)
            np.testing.assert_allclose(torsion_norm(c, g), 1.0, atol=1e-12)

    def test_direct_sum_multiplicativity(self):
        for seed in range(6):
            d = 3 if seed % 2 else 1
            a = _instance(2 * seed, d, acyclic=(seed % 3 == 0))
            b = _instance(2 * seed + 1, d, acyclic=(seed % 2 == 0))
            fra, frb = cohomology_frame(a[0]), cohomology_frame(b[0])
            csum, gsum = chiral_direct_sum([a, b])
            frs = cohomology_frame(csum)
            lhs = refined_torsion(csum, gsum, frs).coeff
            rhs = fused_in_sum_frame(fra, frb,
                                     refined_torsion(*a, fra).coeff,
                                     refined_torsion(*b, frb).coeff, frs)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_duality_residual(self):
        for seed in range(10):
            d = 3 if seed % 2 else 1
            c, g = _instance(seed + 50, d, acyclic=(seed % 3 == 0))
            assert dual_torsion_check(c, g) <= 1e-10


class TestSupertrace:
    def test_alternating_sum(self):
        blocks = [np.eye(2), 3.0 * np.eye(1), np.zeros((0, 0))]
        np.testing.assert_allclose(supertrace(blocks), 2.0 - 3.0)


class TestVariation:
    def test_second_order_accuracy(self):
        c, g = _instance(7, 3, acyclic=True)
        fam = _gamma_family(c, g, 99)
        r_coarse = variation_check(c, fam, 0.1, h=1e-2)
        r_fine = variation_check(c, fam, 0.1, h=1e-3)
        assert 50.0 <= r_coarse / r_fine <= 200.0

    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    def test_branch_cut_crossing_does_not_wrap(self, h):
        # rho = -2 lies on the cut of the principal log, and the family
        # (e^{it} Gamma_0, e^{-it} Gamma_1) turns arg rho across it at t = 0;
        # the residual is the h^2/6 error of the central difference only
        c, g = gen_elementary(1, 0, -2.0)

        def fam(t):
            return ChiralityOp((np.exp(1j * t) * g.gamma[0],
                                np.exp(-1j * t) * g.gamma[1]))

        assert variation_check(c, fam, 0.0, h=h) <= h * h

    def test_rejects_non_acyclic(self):
        c, g = _instance(8, 3, acyclic=False)
        with pytest.raises(ValidationError):
            variation_check(c, lambda t: g, 0.0)

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_a_step_that_is_not_finite_and_positive(self, h):
        c, g = _instance(7, 3, acyclic=True)
        with pytest.raises(ValidationError, match="step h"):
            variation_check(c, _gamma_family(c, g, 99), 0.1, h=h)
