"""Unit tests for cochain complexes, cohomology frames and the canonical map."""

import math
import warnings

import numpy as np
import pytest

import detline.complexes as complexes_mod
from detline import (
    CochainComplex,
    DetElement,
    GradedDims,
    ValidationError,
    alpha_cohomology,
    cohomology_frame,
    direct_sum,
    dual_complex,
    dual_graded,
    phi,
    gen_random,
    sign_N,
)
from detline.selftest import _instance

from conftest import normal_matrix


def _ladder_instance(seed, d, n, n_harmonic):
    """Seeded complex of about n dimensions, with n_harmonic harmonic
    summands, and the Betti numbers its profile implies."""
    rng = np.random.default_rng(seed)
    r = (d + 1) // 2
    blocks, size = [], 0
    while size < n:
        j = len(blocks) % r
        blocks.append((j, complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))))
        size += 2 if d - j - 1 == j else 4
    harmonic = [int(k) for k in rng.integers(0, d + 1, size=n_harmonic)]
    betti = [0] * (d + 1)
    for k in harmonic:
        betti[k] += 1
        betti[d - k] += 1
    c, _ = gen_random(seed, d, {"blocks": blocks, "harmonic": harmonic})
    return c, tuple(betti)


def _svd_log(calls):
    """(shape, compute_uv) of every SVD, in call order."""
    return [(shape, uv) for name, shape, uv in calls.log if name == "svd"]


def _factorization_log(calls):
    """(name, shape, compute_uv) of every SVD, QR and Cholesky factorization,
    in call order."""
    return [entry for entry in calls.log
            if entry[0] in ("svd", "qr", "cholesky")]


def _tall(rows, cols, spectrum, seed=5):
    """rows x cols matrix with the given singular values, through random
    unitary factors on both sides."""
    rng = np.random.default_rng(seed)
    u, w = (np.linalg.qr(rng.standard_normal((k, k))
                         + 1j * rng.standard_normal((k, k)))[0]
            for k in (rows, cols))
    return u[:, :cols] @ np.diag(np.asarray(spectrum, dtype=complex)) @ w


def _assert_same_projectors(fr, ref_bases, atol=1e-10):
    for bases, refs in zip((fr.B, fr.H, fr.A), ref_bases):
        for x, y in zip(bases, refs):
            assert x.shape == y.shape
            np.testing.assert_allclose(x @ x.conj().T, y @ y.conj().T,
                                       rtol=0, atol=atol)


def _all_svd_frame(c):
    """B, H and A bases from one full SVD of every d_j on the complement of
    B^j, its rank cut on the largest singular value."""
    n = c.dims.dims
    B, H, A = [np.zeros((n[0], 0))], [], []
    perp = np.eye(n[0])
    for m in c.partial:
        dp = m @ perp
        if dp.size:
            u, s, vh = np.linalg.svd(dp)
            rank = int(np.sum(s > max(1e-8 * s[0], 1e-12)))
            v = perp @ vh.conj().T
        else:
            u, rank, v = np.eye(dp.shape[0]), 0, perp
        A.append(v[:, :rank])
        H.append(v[:, rank:])
        B.append(u[:, :rank])
        perp = u[:, rank:]
    H.append(perp)
    A.append(np.zeros((n[-1], 0)))
    return B, H, A


class TestCochainComplex:
    def test_shape_checks(self):
        with pytest.raises(ValidationError):
            CochainComplex(GradedDims((1, 1)), ())  # missing differential
        with pytest.raises(ValidationError):
            CochainComplex(GradedDims((1, 2)), (np.zeros((1, 1)),))

    def test_validate_rejects_non_complex(self):
        # d=2 with d_1 d_0 = [2] != 0
        with pytest.raises(ValidationError, match=r"d\.d residual 5\.000e-01 "
                           r"exceeds tolerance 1\.000e-10"):
            CochainComplex(GradedDims((1, 1, 1)),
                           (np.array([[1.0]]), np.array([[2.0]])))

    def test_matrices_are_read_only_views(self):
        m = np.array([[0.0, 2.0j]])
        c = CochainComplex(GradedDims((2, 1)), (m,))
        assert np.shares_memory(c.partial[0], m)
        assert not c.partial[0].flags.writeable
        assert m.flags.writeable  # the caller's array keeps its flags
        with pytest.raises(ValueError):
            c.partial[0][0, 0] = 1.0

    def test_large_entries_do_not_overflow_the_residual(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            c, _ = gen_random(3, 3, {"blocks": [(0, 1e200), (1, 1e200)],
                                     "harmonic": []})
            assert c.differential_residual() <= 1e-10

    def test_large_non_complex_names_its_residual(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError,
                               match=r"d\.d residual 1\.000e\+00 "):
                CochainComplex(GradedDims((1, 1, 1)),
                               (np.array([[1e200]]), np.array([[1e200]])))

    def test_validate_accepts_complex(self):
        c = CochainComplex(GradedDims((1, 1, 1)),
                           (np.array([[1.0]]), np.array([[0.0]])))
        assert c.differential_residual() <= 1e-10


    def test_direct_sum_of_three_is_iterated_sum(self):
        a, b, c = (_instance(seed, 3, acyclic=False)[0] for seed in (1, 2, 3))
        s3 = direct_sum(a, b, c)
        s2 = direct_sum(direct_sum(a, b), c)
        assert s3.dims == s2.dims
        for m3, m2 in zip(s3.partial, s2.partial):
            assert np.array_equal(m3, m2)

    def test_direct_sum_rejects_bad_summands(self):
        a = _instance(1, 1, acyclic=False)[0]
        b = _instance(2, 3, acyclic=False)[0]
        with pytest.raises(ValidationError):
            direct_sum(a, b)
        with pytest.raises(ValidationError):
            direct_sum()


class TestCohomologyFrame:
    def test_acyclic_scalar_complex(self):
        c = CochainComplex(GradedDims((1, 1)), (np.array([[2.0]]),))
        fr = cohomology_frame(c)
        assert fr.betti == (0, 0)
        assert fr.acyclic

    def test_harmonic_complex(self):
        c = CochainComplex(GradedDims((1, 1)), (np.zeros((1, 1)),))
        fr = cohomology_frame(c)
        assert fr.betti == (1, 1)
        assert not fr.acyclic

    def test_decomposition_is_orthonormal(self):
        for seed in range(5):
            c = _instance(seed, 3, acyclic=(seed % 2 == 0))[0]
            fr = cohomology_frame(c)
            for j in range(c.d + 1):
                basis = np.hstack([fr.B[j], fr.H[j], fr.A[j]])
                n = c.dims.dims[j]
                assert basis.shape == (n, n)
                np.testing.assert_allclose(
                    basis.conj().T @ basis, np.eye(n), atol=1e-12)
                if j < c.d and fr.H[j].size:
                    # harmonic vectors are closed
                    np.testing.assert_allclose(
                        c.partial[j] @ fr.H[j], 0.0, atol=1e-10)

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    @pytest.mark.parametrize("n_harmonic", [0, 2])
    def test_frame_oracle_ladder(self, d, n_harmonic):
        for n in (20, 100, 300):
            c, betti = _ladder_instance(1000 * d + n, d, n, n_harmonic)
            fr = cohomology_frame(c)
            assert fr.betti == betti
            for j in range(d + 1):
                nj = c.dims.dims[j]
                u = np.hstack([fr.B[j], fr.H[j], fr.A[j]])
                assert u.shape == (nj, nj)
                np.testing.assert_allclose(u.conj().T @ u, np.eye(nj),
                                           atol=1e-12)
                if j > 0:
                    # the image of d_{j-1} lies in B^j
                    img = c.partial[j - 1] @ fr.A[j - 1]
                    off = img - fr.B[j] @ (fr.B[j].conj().T @ img)
                    assert np.abs(off).max(initial=0.0) <= 1e-10
                    # harmonic vectors are co-closed
                    assert np.abs(c.partial[j - 1].conj().T @ fr.H[j]).max(
                        initial=0.0) <= 1e-10
                if j < d:
                    assert np.abs(c.partial[j] @ fr.H[j]).max(
                        initial=0.0) <= 1e-10

    def test_non_complex_is_rejected(self):
        with pytest.raises(ValidationError):
            CochainComplex(GradedDims((1, 1, 1, 1)), (np.array([[1.0]]),) * 3)

    def test_non_finite_differential_is_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match=r"d\.d residual nan "):
                CochainComplex(GradedDims((1, 1)), (np.array([[bad]]),))

    @pytest.mark.parametrize("acyclic, expected", [
        # dims (1, 1, 2, 2, 1, 1): every nonempty d_j P_j is square and
        # invertible, so singular values alone settle it
        (True, [((1, 1), False), ((2, 2), False), ((1, 1), False)]),
        # dims 2 throughout, Betti (1, 1, 0, 0, 1, 1): d_0 P_0 and d_4 P_4
        # are square of rank 1 (values, then a full SVD), d_1 P_1 is 2 x 1
        # (a full SVD) and d_2 P_2 is square and invertible
        (False, [((2, 2), False), ((2, 2), True), ((2, 1), True),
                 ((2, 2), False), ((2, 2), False), ((2, 2), True)]),
    ])
    def test_one_svd_per_differential_and_no_qr(self, count_factorizations,
                                                acyclic, expected):
        # at most one full SVD per differential; a square one takes its
        # singular values first
        c = _instance(4, 5, acyclic=acyclic)[0]
        calls = count_factorizations()
        cohomology_frame(c)
        assert _svd_log(calls) == expected
        assert calls["qr"] == 0

    @pytest.mark.parametrize("n", [1, 4])
    def test_square_invertible_degree_takes_singular_values_only(
            self, count_factorizations, n):
        c = CochainComplex(GradedDims((n, n)),
                           (normal_matrix(range(1, n + 1)),))
        calls = count_factorizations()
        fr = cohomology_frame(c)
        assert _svd_log(calls) == [((n, n), False)]
        assert np.array_equal(fr.B[1], np.eye(n))
        assert np.array_equal(fr.A[0], np.eye(n))
        assert fr.betti == (0, 0)

    def test_short_rank_square_degree_takes_a_full_svd_after_its_values(
            self, count_factorizations):
        c = CochainComplex(GradedDims((3, 3)),
                           (normal_matrix([2.0, 1.0, 0.0]),))
        calls = count_factorizations()
        fr = cohomology_frame(c)
        assert _svd_log(calls) == [((3, 3), False), ((3, 3), True)]
        assert fr.betti == (1, 1)

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    @pytest.mark.parametrize("n_harmonic", [0, 2])
    def test_projectors_match_an_all_svd_frame(self, d, n_harmonic):
        # the subspaces B^j, H^j, A^j are unique, so their projectors agree
        # with those of a frame that takes a full SVD of every degree
        for n in (20, 100):
            c, _ = _ladder_instance(7000 * d + n, d, n, n_harmonic)
            _assert_same_projectors(cohomology_frame(c), _all_svd_frame(c))

    @pytest.mark.parametrize("d, n", [(3, 200), (3, 300), (5, 200)])
    def test_tall_short_rank_degree_matches_an_all_svd_frame(
            self, count_factorizations, d, n):
        # harmonic pairs leave a tall d_j P_j of at least 16 columns short
        # of full rank: QR, a Cholesky certificate of R that fails, then the
        # full SVD of R
        c, betti = _ladder_instance(9000 * d + n, d, n, 2)
        calls = count_factorizations()
        fr = cohomology_frame(c)
        log = _factorization_log(calls)
        short = [(rows, cols) for (name, (rows, cols), _), cert, full
                 in zip(log, log[1:], log[2:])
                 if name == "qr" and cert == ("cholesky", (cols, cols), None)
                 and full == ("svd", (cols, cols), True)]
        assert short and all(r > k >= 16 for r, k in short)
        assert fr.betti == betti
        _assert_same_projectors(fr, _all_svd_frame(c))

    @pytest.mark.parametrize("dims, spectrum, expected", [
        # full column rank: one QR and a Cholesky certificate of the
        # 20 x 20 factor
        ((20, 40), [1.0] * 20,
         [("qr", (40, 20), None), ("cholesky", (20, 20), None)]),
        # short rank: the certificate fails, and the factor takes one full SVD
        ((20, 40), [1.0] * 19 + [0.0],
         [("qr", (40, 20), None), ("cholesky", (20, 20), None),
          ("svd", (20, 20), True)]),
        # below 16 columns: one full SVD and no QR, at any rank
        ((15, 30), [1.0] * 15, [("svd", (30, 15), True)]),
        ((15, 30), [1.0] * 14 + [0.0], [("svd", (30, 15), True)]),
    ])
    def test_tall_degree_factorization_pattern(self, count_factorizations,
                                               dims, spectrum, expected):
        m = _tall(dims[1], dims[0], spectrum)
        c = CochainComplex(GradedDims(dims), (m,))
        calls = count_factorizations()
        fr = cohomology_frame(c)
        assert _factorization_log(calls) == expected
        rank = dims[0] - spectrum.count(0.0)
        assert fr.betti == (dims[0] - rank, dims[1] - rank)
        _assert_same_projectors(fr, _all_svd_frame(c))

    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("n_harmonic", [0, 2])
    def test_qr_and_svd_routes_agree(self, monkeypatch, d, n_harmonic):
        # every tall degree by QR first (cut 0), or none (a cut above every
        # column count): the same subspaces and the same rank margins
        for n in (20, 100, 200):
            c, betti = _ladder_instance(5000 * d + n, d, n, n_harmonic)
            frames = []
            for cut in (0, 10 ** 9):
                monkeypatch.setattr(complexes_mod, "_QR_MIN_COLS", cut)
                frames.append(cohomology_frame(c))
            qr_first, svd_only = frames
            assert qr_first.betti == svd_only.betti == betti
            _assert_same_projectors(qr_first,
                                    (svd_only.B, svd_only.H, svd_only.A))
            np.testing.assert_allclose(qr_first.rank_margin,
                                       svd_only.rank_margin, rtol=1e-9)


# sigma_min / sigma_max of the certificate ladder's spectra: well apart from
# the cut, near the Cholesky shift, just either side of the cut, and zero
_RATIOS = (1.0, 1e-3, 1e-5, 1e-6, 1.01e-8, 0.99e-8, 0.0)
_SCALES = (1e-8, 1.0, 1e8)


def _jordan(n):
    """n x n bidiagonal block, 1 on the diagonal and 2 above it: every
    eigenvalue is 1, yet sigma_min is about 2^-n."""
    return np.eye(n) + 2.0 * np.eye(n, k=1)


def _square_ladder(n):
    """{(ratio, scale): n x n block}: normal_matrix of the spectrum
    scale * linspace(1, ratio, n), and the Jordan-like block under
    (None, 1.0)."""
    blocks = {(r, t): normal_matrix(t * np.linspace(1.0, r, n))
              for r in _RATIOS for t in _SCALES}
    blocks[None, 1.0] = _jordan(n)
    return blocks


@pytest.fixture(scope="module")
def certificate_ladder():
    """{(shape, ratio, scale): (d = 1 complex, its all-SVD frame, the
    margin of the one full SVD of d_0)}: every square block of the ladder at
    n = 16, 40 and 200 as a complex (n, n), and every one at n = 20 as a
    40 x 20 tall degree, through a fixed isometry, so that the QR route
    hands it to the frame as R."""
    q = np.linalg.qr(np.random.default_rng(9).standard_normal((40, 40)))[0]
    ladder = {((n, n),) + key: CochainComplex(GradedDims((n, n)), (x,))
              for n in (16, 40, 200) for key, x in _square_ladder(n).items()}
    ladder.update({((40, 20),) + key: CochainComplex(GradedDims((20, 40)),
                                                      (q[:, :20] @ x,))
                   for key, x in _square_ladder(20).items()})
    return {label: (c, _all_svd_frame(c), complexes_mod._rank_cut(
        np.linalg.svd(c.partial[0])[1])[1]) for label, c in ladder.items()}


def _ladder_mismatches(ladder):
    """{label: what differs} over the ladder, between the frame and the
    all-SVD frame: "betti", else "projectors" or "margin" (rtol 1e-9)."""
    out = {}
    for label, (c, ref, margin) in ladder.items():
        fr = cohomology_frame(c)
        if fr.betti != tuple(h.shape[1] for h in ref[1]):
            out[label] = "betti"
            continue
        try:
            _assert_same_projectors(fr, ref)
        except AssertionError:
            out[label] = "projectors"
            continue
        if not np.isclose(fr.rank_margin[0], margin, rtol=1e-9, atol=0):
            out[label] = "margin"
    return out


def _rho(c):
    """phi of the unit wedge: the refined torsion of c with Gamma = 1 (on a
    square complex), up to sign."""
    return phi(DetElement(1.0, c.dims), cohomology_frame(c)).coeff


class TestSigmaMinCertificate:
    """complexes._sigma_min_above, the one invertibility test of the frame
    and the +/- test, picks its route by size: below 16 columns singular
    values decide exactly; from 16 on it certifies sigma_min > floor by a
    shifted Cholesky factorization of x^H x, and the callers decide by
    singular values whatever it leaves open."""

    @pytest.mark.parametrize("n", [1, 2, 8, 15])
    def test_singular_values_decide_below_16_columns(self, n):
        for key, x in _square_ladder(n).items():
            s = np.linalg.svd(x, compute_uv=False)
            cut = complexes_mod._zero_cut(float(s[0]))
            assert complexes_mod._sigma_min_above(x) == (s[-1] > cut), key
            for floor in (2e-10, cut, float(s[-1])):
                assert complexes_mod._sigma_min_above(x, floor) == (
                    s[-1] > floor), (key, floor)

    @pytest.mark.parametrize("n", [16, 40, 200])
    def test_default_floor_never_certifies_a_short_rank(self, n):
        certified = set()
        for key, x in _square_ladder(n).items():
            if complexes_mod._sigma_min_above(x):
                s = np.linalg.svd(x, compute_uv=False)
                assert complexes_mod._rank_cut(s)[0] == n, key
                certified.add(key)
        assert {(r, t) for r in (1.0, 1e-3) for t in _SCALES} <= certified

    @pytest.mark.parametrize("n", [16, 40, 200])
    def test_never_certifies_at_or_below_the_floor(self, n):
        # the frame's floor, the +/- test's, and sigma_min itself
        certified = set()
        for key, x in _square_ladder(n).items():
            s_min = np.linalg.svd(x, compute_uv=False)[-1]
            frame_floor = complexes_mod._zero_cut(np.linalg.norm(x))
            for floor in (frame_floor, 2e-10, s_min):
                if complexes_mod._sigma_min_above(x, floor):
                    assert s_min > floor, (key, floor)
                    certified.add(key)
        # well-conditioned blocks are certified, so the ladder takes both
        # routes
        assert {(r, t) for r in (1.0, 1e-3) for t in _SCALES} <= certified

    def test_zero_and_non_finite_blocks_are_not_certified(self):
        for x in (np.zeros((16, 16)), np.full((16, 16), np.inf),
                  np.full((16, 16), np.nan)):
            assert not complexes_mod._sigma_min_above(x, 1e-12)

    def test_huge_and_tiny_scales_do_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for t in (1e200, 1e-200):
                x = t * normal_matrix(np.linspace(1.0, 0.5, 20))
                assert complexes_mod._sigma_min_above(x, 1e-8 * t)
                assert not complexes_mod._sigma_min_above(x, t)
                # and the frame keeps today's rank decision
                c = CochainComplex(GradedDims((20, 20)), (x,))
                assert cohomology_frame(c).betti == (
                    (0, 0) if t > 1 else (20, 20))

    def test_frame_matches_an_all_svd_frame(self, certificate_ladder):
        assert _ladder_mismatches(certificate_ladder) == {}

    def test_always_certifying_mutant_turns_the_ladder_red(
            self, monkeypatch, certificate_ladder):
        # every block the ladder leaves short of rank counts as full rank
        short = {label for label, (_, ref, _) in certificate_ladder.items()
                 if ref[1][0].shape[1]}
        assert short
        monkeypatch.setattr(complexes_mod, "_sigma_min_above",
                            lambda x, floor=None: True)
        assert _ladder_mismatches(certificate_ladder) == dict.fromkeys(
            short, "betti")

    def test_never_certifying_mutant_changes_nothing(self, monkeypatch,
                                                     certificate_ladder):
        # singular values alone give the same frames and the same rho, where
        # rho is representable (scale^rank within range)
        rho = {label: _rho(c) for label, (c, _, _) in certificate_ladder.items()
               if label[2] == 1.0 or label[0][1] <= 20}
        monkeypatch.setattr(complexes_mod, "_sigma_min_above",
                            lambda x, floor=None: False)
        assert _ladder_mismatches(certificate_ladder) == {}
        for label, value in rho.items():
            assert abs(_rho(certificate_ladder[label][0]) - value) <= (
                1e-12 * abs(value)), label


class TestRankMargin:
    """min(smallest kept / cut, cut / largest dropped) per differential;
    the cut is 1e-8 times the largest singular value."""

    @pytest.mark.parametrize("spectrum, rank, margin", [
        ([1.0, 1.01e-8, 0.5], 3, 1.01),  # just above the cut: kept
        ([1.0, 0.99e-8, 0.5], 2, 1 / 0.99),  # just below it: dropped
        ([1.0, 2e-8, 0.0], 2, 2.0),  # an exact zero is infinitely far
        ([1.0, 0.5, 0.25], 3, 0.25e8),  # nothing dropped
    ])
    def test_square_differential(self, spectrum, rank, margin):
        n = len(spectrum)
        fr = cohomology_frame(
            CochainComplex(GradedDims((n, n)), (normal_matrix(spectrum),)))
        assert fr.A[0].shape[1] == rank
        assert len(fr.rank_margin) == 1
        np.testing.assert_allclose(fr.rank_margin[0], margin, rtol=1e-6)

    @pytest.mark.parametrize("scale, margin", [(1.01e-8, 1.01),
                                               (0.99e-8, 1 / 0.99)])
    def test_rectangular_differential(self, scale, margin):
        # a 3 x 2 differential takes the full SVD
        q = normal_matrix([1.0, 1.0, 1.0], seed=5)
        m = q[:, :2] @ np.diag([1.0, scale])
        fr = cohomology_frame(CochainComplex(GradedDims((2, 3)), (m,)))
        np.testing.assert_allclose(fr.rank_margin[0], margin, rtol=1e-6)

    @pytest.mark.parametrize("scale, rank, margin", [
        (1.01e-8, 20, 1.01), (0.99e-8, 19, 1 / 0.99)])
    def test_tall_differential(self, count_factorizations, scale, rank,
                               margin):
        # a 40 x 20 differential takes the QR route: the singular values of
        # its square factor R make the rank decision
        spectrum = np.linspace(1.0, 0.5, 20)
        spectrum[7] = scale
        c = CochainComplex(GradedDims((20, 40)),
                           (_tall(40, 20, spectrum, seed=8),))
        calls = count_factorizations()
        fr = cohomology_frame(c)
        assert calls["qr"] == 1
        assert fr.A[0].shape[1] == rank
        np.testing.assert_allclose(fr.rank_margin[0], margin, rtol=1e-6)

    def test_zero_and_empty_differentials_are_infinitely_far(self):
        for dims in ((2, 2), (0, 3), (3, 0)):
            c = CochainComplex(GradedDims(dims),
                               (np.zeros((dims[1], dims[0])),))
            assert cohomology_frame(c).rank_margin == (math.inf,)

    def test_one_margin_per_differential(self):
        for seed, d in ((4, 5), (5, 3), (6, 7)):
            c = _instance(seed, d, acyclic=False)[0]
            margins = cohomology_frame(c).rank_margin
            assert len(margins) == d
            assert all(m > 1 for m in margins)

    def test_betti_adds_under_direct_sum(self):
        a = _instance(10, 3, acyclic=False)[0]
        b = _instance(11, 3, acyclic=False)[0]
        s = direct_sum(a, b)
        fa, fb, fs = (cohomology_frame(x) for x in (a, b, s))
        assert fs.betti == tuple(x + y for x, y in zip(fa.betti, fb.betti))


class TestPhi:
    def test_hand_example(self):
        # d=1, invertible scalar differential z: the canonical map sends the
        # unit wedge to z times the unit of the trivial cohomology line.
        for z in (3.0, 2.0 - 1.0j):
            c = CochainComplex(GradedDims((1, 1)), (np.array([[z]]),))
            fr = cohomology_frame(c)
            out = phi(DetElement(1.0, c.dims), fr)
            np.testing.assert_allclose(out.coeff, z, rtol=1e-13)

    def test_zero_differential_is_identity_up_to_frame(self):
        c = CochainComplex(GradedDims((1, 1)), (np.zeros((1, 1)),))
        fr = cohomology_frame(c)
        out = phi(DetElement(2.0, c.dims), fr)
        # harmonic frame is a unit phase times the standard basis
        np.testing.assert_allclose(abs(out.coeff), 2.0, rtol=1e-13)

    def test_sign_N_zero_for_zero_differential(self):
        c = CochainComplex(GradedDims((2, 2)), (np.zeros((2, 2)),))
        assert sign_N(cohomology_frame(c)) == 0

    def test_rejects_wrong_dims(self):
        c = CochainComplex(GradedDims((1, 1)), (np.array([[2.0]]),))
        fr = cohomology_frame(c)
        with pytest.raises(ValidationError):
            phi(DetElement(1.0, GradedDims((2, 1))), fr)


class TestDuality:
    def test_dual_complex_shape(self):
        c = _instance(20, 3, acyclic=False)[0]
        chat = dual_complex(c)
        assert chat.dims == c.dims.reversed()
        assert chat.differential_residual() <= 1e-10
        # double dual restores the original matrices
        back = dual_complex(chat)
        for m1, m2 in zip(back.partial, c.partial):
            np.testing.assert_allclose(m1, m2, atol=1e-14)

    def test_alpha_cohomology_diagram(self):
        # Dualizing before or after passing to cohomology agrees.
        rng = np.random.default_rng(4)
        for seed in range(8):
            d = 3 if seed % 2 else 1
            c = _instance(seed + 30, d, acyclic=(seed % 3 == 0))[0]
            fr = cohomology_frame(c)
            chat = dual_complex(c)
            frh = cohomology_frame(chat)
            x = DetElement(complex(rng.normal(), rng.normal()) + 0.5, c.dims)
            lhs = phi(DetElement(dual_graded(x).coeff, chat.dims), frh).coeff
            rhs = alpha_cohomology(phi(x, fr), frh).coeff
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_alpha_cohomology_rejects_wrong_frame(self):
        # betti (1, 0) is not its own reversal, so the frame of the complex
        # itself cannot serve as the dual frame
        c = CochainComplex(GradedDims((1, 0)), (np.zeros((0, 1)),))
        fr = cohomology_frame(c)
        x = phi(DetElement(1.0, c.dims), fr)
        with pytest.raises(ValidationError):
            alpha_cohomology(x, fr)
