"""Unit tests for the sign calculus on determinant lines."""

import numpy as np
import pytest

from detline import (
    DetElement,
    GradedDims,
    alpha_line,
    alternating_det,
    beta_line,
    dual_graded,
    ValidationError,
    fuse,
    sign_M,
)
from detline.selftest import _rand_coeff


def _rand_dims(rng, d, hi=5):
    return GradedDims(tuple(int(rng.integers(0, hi)) for _ in range(d + 1)))


class TestGradedDims:
    def test_basic_properties(self):
        v = GradedDims((2, 0, 3, 1))
        assert v.d == 3
        assert v.total == 6
        assert v.reversed() == GradedDims((1, 3, 0, 2))

    def test_direct_sum(self):
        assert GradedDims((1, 2)) + GradedDims((3, 0)) == GradedDims((4, 2))

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError,
                           match="^need at least one degree$"):
            GradedDims(())
        with pytest.raises(ValidationError, match="^dimensions must be "
                                                  "nonnegative integers$"):
            GradedDims((1, -1))
        with pytest.raises(ValidationError,
                           match="^degree mismatch in direct sum$"):
            GradedDims((1, 2)) + GradedDims((1, 2, 3))


class TestSignM:
    def test_hand_values(self):
        one = GradedDims((1, 1))
        # single cross term dim V^1 * dim W^0 = 1
        assert sign_M(one, one) == 1
        assert sign_M(GradedDims((1, 0)), GradedDims((0, 1))) == 0
        v = GradedDims((2, 1))
        assert sign_M(v, v) == 0  # 1*2 = 2 even

    def test_degree_mismatch(self):
        with pytest.raises(ValidationError, match="^degree mismatch$"):
            sign_M(GradedDims((1,)), GradedDims((1, 1)))


class TestAlternatingDet:
    def test_diagonal_blocks_with_empty_degrees(self, monkeypatch):
        # The determinant of a diagonal block is the product of its diagonal,
        # so the exact value is prod_j (prod diag_j)^{(-1)^{j+1}}; an empty
        # degree counts 1 and costs no determinant.
        calls = []
        det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det",
                            lambda a: calls.append(a.shape) or det(a))
        rng = np.random.default_rng(5)
        for sizes in [(0,), (0, 0), (2, 0, 3, 1), (0, 4, 1, 0, 0, 2),
                      (1, 3, 0, 0)]:
            calls.clear()
            diags = [rng.normal(size=n) + 1j * rng.normal(size=n)
                     for n in sizes]
            expect = 1.0 + 0.0j
            for j, diag in enumerate(diags):
                for z in diag:
                    expect = expect * z if j % 2 else expect / z
            got = alternating_det([np.diag(diag) for diag in diags])
            np.testing.assert_allclose(got, expect, rtol=1e-13)
            assert calls == [(n, n) for n in sizes if n]


class TestFuse:
    def test_hand_example(self):
        # d=1, both factors one-dimensional in each degree, coefficients 1:
        # reordering the concatenated wedges costs exactly one transposition.
        x = DetElement(1.0, GradedDims((1, 1)))
        assert fuse(x, x).coeff == -1.0
        assert fuse(x, x).dims == GradedDims((2, 2))

    def test_associative(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3):
            for _ in range(25):
                x, y, z = (DetElement(_rand_coeff(rng), _rand_dims(rng, d))
                           for _ in range(3))
                a = fuse(fuse(x, y), z)
                b = fuse(x, fuse(y, z))
                assert a.dims == b.dims
                np.testing.assert_allclose(a.coeff, b.coeff, rtol=1e-13)

    def test_anticommutation(self):
        # Swapping the factors converts concatenated bases by a block
        # permutation of sign sum_q v_q * w_q, on top of the supersymmetry
        # sign (-1)^{|v||w|} of the tensor swap.
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            x = DetElement(_rand_coeff(rng), _rand_dims(rng, d))
            y = DetElement(_rand_coeff(rng), _rand_dims(rng, d))
            perm = sum(v * w for v, w in zip(x.dims.dims, y.dims.dims))
            swap = x.dims.total * y.dims.total
            sign = -1.0 if (perm + swap) % 2 else 1.0
            np.testing.assert_allclose(
                fuse(x, y).coeff, sign * fuse(y, x).coeff, rtol=1e-13)

    def test_rejects_mixed_duality(self):
        x = DetElement(1.0, GradedDims((1, 1)))
        xd = dual_graded(x)
        with pytest.raises(ValidationError, match="^cannot fuse an element "
                                                  "with a dualized element$"):
            fuse(x, xd)


class TestAlphaBeta:
    def test_values(self):
        z = 3.0 + 4.0j
        assert alpha_line(z) == np.conj(z)
        assert beta_line(z, 2) == np.conj(z)
        assert beta_line(z, 3) == -np.conj(z)

    def test_compatibility(self):
        # Inverting, pulling back through alpha and inverting again agrees
        # with beta up to the sign (-1)^n.
        rng = np.random.default_rng(2)
        for n in range(5):
            z = _rand_coeff(rng)
            lhs = 1.0 / alpha_line(1.0 / z)
            sign = -1.0 if n % 2 else 1.0
            np.testing.assert_allclose(lhs, sign * beta_line(z, n), rtol=1e-13)


class TestDualGraded:
    def test_hand_example(self):
        # d=1, dims (1,1): M = 1 and one even-degree dimension, so no sign.
        x = DetElement(2.0 + 1.0j, GradedDims((1, 1)))
        xd = dual_graded(x)
        np.testing.assert_allclose(xd.coeff, 2.0 - 1.0j)
        assert xd.dims == GradedDims((1, 1))
        assert xd.dualized

    def test_involution(self):
        # Applying the duality twice returns the element times
        # (-1)^{total dimension}.
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(0, 3)) * 2 + 1
            x = DetElement(_rand_coeff(rng), _rand_dims(rng, d))
            back = dual_graded(dual_graded(x))
            sign = -1.0 if x.dims.total % 2 else 1.0
            np.testing.assert_allclose(back.coeff, sign * x.coeff, rtol=1e-13)
            assert back.dims == x.dims
            assert not back.dualized

    def test_rejects_even_top_degree(self):
        with pytest.raises(ValidationError,
                           match="^graded duality needs odd top degree$"):
            dual_graded(DetElement(1.0, GradedDims((1, 1, 1))))
