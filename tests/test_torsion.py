"""Unit tests for chirality operators and refined torsion."""

import math

import numpy as np
import pytest

import detline.torsion as torsion_mod
from detline import (
    ChiralityOp,
    CochainComplex,
    CohomologyFrame,
    GradedDims,
    SpectralBoundaryError,
    ValidationError,
    alpha_cohomology,
    c_gamma,
    chiral_direct_sum,
    cohomology_frame,
    direct_sum,
    dual_chirality,
    dual_complex,
    dual_torsion_check,
    gen_elementary,
    gen_random,
    phi,
    random_profile,
    refined_torsion,
    supertrace,
    torsion_norm,
    torsion_via_split,
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
        # dims (0, 2): Gamma_1 Gamma_0 is 0 x 0, Gamma_0 Gamma_1 the 2 x 2 zero
        ((np.zeros((2, 0)), np.zeros((0, 2))),
         r"Gamma\^2 - 1 residual 1\.000e\+00 in degree 1 exceeds 1\.000e-10"),
    ], ids=["even-degree", "not-involution", "nan", "shapes", "1-d", "3-d",
            "empty-side"])
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


def _per_block_rule(c, g):
    """The fit rule written degree by degree: the message of the first
    misfit, or None when g fits c."""
    d, n = c.d, c.dims.dims
    if g.d != d:
        return "chirality degree does not match the complex"
    for j, a in enumerate(g.gamma):
        if a.shape != (n[d - j], n[j]):
            return f"Gamma_{j} has shape {a.shape}, expected {(n[d - j], n[j])}"
    return None


def _fit_pool():
    """Seeded chiral complexes with d in {1, 3, 5}, with and without
    cohomology, elementary blocks whose other degrees are zero-dimensional,
    and the zero complex of each d."""
    pool = [_instance(40 + 7 * seed + d, d, acyclic)
            for d in (1, 3, 5) for acyclic in (True, False) for seed in range(3)]
    pool += [gen_elementary(d, j, 1.5) for d in (1, 3, 5)
             for j in range((d + 1) // 2)]
    for d in (1, 3, 5):
        empty = np.zeros((0, 0))
        pool.append((CochainComplex(GradedDims((0,) * (d + 1)),
                                    (empty,) * d),
                     ChiralityOp((empty,) * (d + 1))))
    return pool


class TestFitCheckOracle:
    """validate_chirality compares the recorded dimension vector once; on
    every pairing it agrees with the per-block rule, message and all."""

    def test_agrees_with_the_per_block_rule(self):
        pool = _fit_pool()
        seen = {"fit": 0, "degree": 0, "block": 0, "one block": 0}
        for c, _ in pool:
            for c2, g in pool:
                want = _per_block_rule(c, g)
                if want is None:
                    validate_chirality(c, g)
                    seen["fit"] += 1
                    continue
                with pytest.raises(ValidationError) as info:
                    validate_chirality(c, g)
                assert str(info.value) == want
                if want.startswith("chirality degree"):
                    seen["degree"] += 1
                    continue
                seen["block"] += 1
                # a misfit in one degree pair (j, d - j) only
                diff = [j for j in range(c.d + 1)
                        if c.dims.dims[j] != c2.dims.dims[j]]
                seen["one block"] += len(diff) == 2
        assert all(seen.values()), seen

    def test_fit_does_no_per_degree_work(self, monkeypatch):
        c, g = _instance(43, 5, False)
        other = gen_elementary(3, 0, 1.5)[0]
        calls = []
        monkeypatch.setattr(torsion_mod, "_check_shapes",
                            lambda *args: calls.append(args))
        validate_chirality(c, g)
        assert calls == []
        with pytest.raises(ValidationError, match="degree does not match"):
            validate_chirality(other, g)
        assert calls == []


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
            csum, gsum = chiral_direct_sum([a, b])
            lhs = refined_torsion(csum, gsum)
            rhs = fused_in_sum_frame(refined_torsion(*a), refined_torsion(*b),
                                     lhs.frame)
            assert rhs.frame is lhs.frame
            np.testing.assert_allclose(lhs.coeff, rhs.coeff, rtol=1e-10)

    def test_duality_residual(self):
        for seed in range(10):
            d = 3 if seed % 2 else 1
            c, g = _instance(seed + 50, d, acyclic=(seed % 3 == 0))
            assert dual_torsion_check(c, g) <= 1e-10


def _dual_instance(d, acyclic):
    prof = random_profile(np.random.default_rng(80 + d), d, acyclic=acyclic,
                          max_blocks=5)
    return gen_random(80 + d, d, prof)


class TestDualFrame:
    """dual_torsion_check reads the frame of the dual complex off c's, with
    B and A exchanged and the degrees reversed, and factorizes no dual
    differential."""

    @staticmethod
    def _check_with_its_frame(monkeypatch, c, g):
        """dual_torsion_check's residual and the dual frame it hands to
        alpha_cohomology."""
        seen = []

        def spy(x, frame_hat, _orig=torsion_mod.alpha_cohomology):
            seen.append(frame_hat)
            return _orig(x, frame_hat)
        monkeypatch.setattr(torsion_mod, "alpha_cohomology", spy)
        res = dual_torsion_check(c, g)
        assert len(seen) == 1
        return res, seen[0]

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    @pytest.mark.parametrize("acyclic", [True, False])
    def test_relabelled_frame_is_a_frame_of_the_dual(self, monkeypatch, d,
                                                     acyclic):
        c, g = _dual_instance(d, acyclic)
        fh = self._check_with_its_frame(monkeypatch, c, g)[1]
        chat = fh.complex
        assert chat.dims == c.dims.reversed()
        assert fh.betti == cohomology_frame(dual_complex(c)).betti
        assert fh.acyclic == acyclic
        assert fh.B[0].shape[1] == 0 and fh.A[d].shape[1] == 0
        for j, n in enumerate(chat.dims.dims):
            u = np.hstack([fh.B[j], fh.H[j], fh.A[j]])
            assert u.shape == (n, n)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=1e-12)
        for j, m in enumerate(chat.partial):
            scale = max(1.0, float(np.abs(m).max(initial=0.0)))
            # d-hat_j vanishes on B-hat^j + H-hat^j
            kernel = m @ np.hstack([fh.B[j], fh.H[j]])
            assert np.abs(kernel).max(initial=0.0) <= 1e-12 * scale
            # and maps A-hat^j onto B-hat^{j+1}, one-to-one
            image, b = m @ fh.A[j], fh.B[j + 1]
            assert image.shape[1] == b.shape[1]
            coords = b.conj().T @ image
            assert np.abs(b @ coords - image).max(initial=0.0) <= (
                1e-12 * scale)
            if b.shape[1]:
                s = np.linalg.svd(coords, compute_uv=False)
                assert s[-1] > 1e-8 * s[0]

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    @pytest.mark.parametrize("acyclic", [True, False])
    def test_matches_the_residual_on_the_dual_complexs_own_frame(
            self, monkeypatch, d, acyclic):
        c, g = _dual_instance(d, acyclic)
        chat = dual_complex(c)
        lhs = refined_torsion(chat, dual_chirality(g)).coeff
        rhs = alpha_cohomology(refined_torsion(c, g),
                               cohomology_frame(chat)).coeff
        ref = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        frames = []

        def spy(cx, _orig=torsion_mod.cohomology_frame):
            frames.append(cx)
            return _orig(cx)
        monkeypatch.setattr(torsion_mod, "cohomology_frame", spy)
        res = dual_torsion_check(c, g)
        assert frames == [c]  # one frame per call, of c itself
        assert abs(res - ref) <= 1e-12
        assert res <= 1e-12


def _ladder(n, z):
    """d = 1 with n blocks of z: |rho| = |z|^n, the spectrum of B^2 |z|^2."""
    return gen_random(1, 1, {"blocks": [(0, z)] * n, "harmonic": []})


class TestElementRange:
    """A cohomology element is never 0, so it is checked when it is built:
    a refined, split or dual torsion past the normal float range is a
    numerical boundary, and one inside it is returned."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n, z, side", [
        # 0.02^n is subnormal at n = 182 and 188 and rounds to 0 at 200;
        # 50^200 = e^782 overflows
        (182, 0.02, "under"), (188, 0.02, "under"), (200, 0.02, "under"),
        (200, 50.0, "over")])
    def test_out_of_range_torsion_is_a_boundary(self, n, z, side):
        c, g = _ladder(n, z)
        message = f"^the cohomology element {side}flows the float range$"
        for call in (lambda: refined_torsion(c, g),
                     # above the spectrum the small part is all of c
                     lambda: torsion_via_split(c, g, 2.0 * z * z),
                     lambda: dual_torsion_check(c, g)):
            with pytest.raises(SpectralBoundaryError, match=message):
                call()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("z, side", [(0.02, "under"), (50.0, "over")])
    def test_out_of_range_fusion_is_a_boundary(self, z, side):
        # each summand's torsion z^100 is in range, the fused z^200 is not
        c, g = _ladder(100, z)
        rho = refined_torsion(c, g)
        frame_sum = cohomology_frame(direct_sum(c, c))
        with pytest.raises(SpectralBoundaryError, match=f"^the cohomology "
                           f"element {side}flows the float range$"):
            fused_in_sum_frame(rho, rho, frame_sum)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_last_normal_torsion_is_returned(self):
        # 0.02^181 = 3.06e-308 lies just above the least normal double
        c, g = _ladder(181, 0.02)
        for rho in (refined_torsion(c, g), torsion_via_split(c, g, 1.0)):
            np.testing.assert_allclose(abs(rho.coeff), 0.02 ** 181,
                                       rtol=1e-9)
        assert dual_torsion_check(c, g) <= 1e-12

    @pytest.mark.parametrize("n", [180, 181])
    def test_dual_residual_is_relative_near_the_edge(self, n):
        # |rho| = 1.5e-306 and 3.1e-308: the residual is relative to the
        # sides themselves, not to a floor above them
        c, g = _ladder(n, 0.02)
        chat, fr = dual_complex(c), cohomology_frame(c)
        # the frame dual_torsion_check gives the dual complex: c's, relabelled
        frh = CohomologyFrame(chat, fr.A[::-1], fr.H[::-1], fr.B[::-1])
        lhs = phi(c_gamma(chat, dual_chirality(g)), frh).coeff
        rhs = alpha_cohomology(refined_torsion(c, g), frh).coeff
        res = dual_torsion_check(c, g)
        assert res == pytest.approx(abs(lhs - rhs) / abs(rhs), rel=1e-9)
        assert 1e-15 < res <= 1e-12


class TestSupertrace:
    def test_alternating_sum(self):
        blocks = [np.eye(2), 3.0 * np.eye(1), np.zeros((0, 0))]
        np.testing.assert_allclose(supertrace(blocks), 2.0 - 3.0)


class TestVariation:
    @pytest.mark.parametrize("t0", [0.0, 0.1])
    @pytest.mark.parametrize("d", [1, 3, 5, 7, 9])
    def test_identity_holds_to_roundoff(self, d, t0):
        # the identity is exact, so at the default radius the residual is
        # the trapezoid rule's roundoff, of order eps / h
        worst = 0.0
        for seed in range(40):
            c, g = gen_random(seed, d)
            worst = max(worst, variation_check(
                c, _gamma_family(c, g, seed), t0))
        assert worst <= 1e-11

    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    def test_branch_cut_crossing_does_not_wrap(self, h):
        # rho = -2 lies on the cut of the principal log, and the family
        # (e^{it} Gamma_0, e^{-it} Gamma_1) turns arg rho across it at t = 0;
        # no log is taken, so the residual is roundoff only
        c, g = gen_elementary(1, 0, -2.0)

        def fam(t):
            return ChiralityOp((np.exp(1j * t) * g.gamma[0],
                                np.exp(-1j * t) * g.gamma[1]))

        assert variation_check(c, fam, 0.0, h=h) <= 1e-11

    def test_identity_holds_with_cohomology(self):
        # in one frame rho is a holomorphic scalar with cohomology too
        worst = 0.0
        for seed in range(80):
            c, g = _instance(seed, 1 + 2 * (seed % 4), acyclic=False)
            assert not cohomology_frame(c).acyclic
            worst = max(worst, variation_check(
                c, _gamma_family(c, g, seed), 0.1))
        assert worst <= 1e-11

    @pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_a_step_that_is_not_finite_and_positive(self, h):
        c, g = _instance(7, 3, acyclic=True)
        with pytest.raises(ValidationError, match="step h"):
            variation_check(c, _gamma_family(c, g, 99), 0.1, h=h)
