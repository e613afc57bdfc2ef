"""Vectors, families, inner products, and Gram matrices."""

import math

import numpy as np
import pytest

from grambounds import (
    STANDARD_P_LIST,
    DimensionError,
    DomainError,
    GramMatrix,
    NotOrthonormalError,
    ShapeError,
    Vector,
    VectorFamily,
    conjugate_exponent,
    gram,
    gram_entry_qnorm,
    inner,
    inner_each,
    norm,
    seq_pnorm,
)
from grambounds.bounds import _Ingredients
from grambounds.core import _member_norms


class TestVector:
    def test_coords_are_complex128(self):
        v = Vector([1, 2, 3])
        assert v.coords.dtype == np.complex128
        assert v.dim == 3
        assert len(v) == 3

    def test_coords_read_only(self):
        v = Vector([1.0, 2.0])
        with pytest.raises((ValueError, TypeError)):
            v.coords[0] = 5.0

    def test_rejects_nan_and_inf(self):
        with pytest.raises(DomainError):
            Vector([1.0, math.nan])
        with pytest.raises(DomainError):
            Vector([math.inf])
        with pytest.raises(DomainError):
            Vector([1 + 1j * math.inf])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            Vector([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ShapeError):
            Vector([])
        with pytest.raises(ShapeError):
            Vector(2.0)  # scalars are not 1-dim vectors

    def test_equality_and_hash(self):
        a = Vector([1.0, 2.0])
        b = Vector([1.0, 2.0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Vector([1.0, 3.0])


class TestInner:
    def test_orthogonal_basis(self):
        assert inner(Vector([1, 0]), Vector([0, 1])) == 0

    def test_first_slot_linear(self):
        assert inner(Vector([1 + 1j, 0]), Vector([1, 0])) == 1 + 1j

    def test_1d_real(self):
        assert inner(Vector([2.0]), Vector([3.0])) == 6.0

    def test_second_slot_conjugate_linear(self):
        # (x, i*y) = -i * (x, y)
        x = Vector([2 + 1j, 1.0])
        y = Vector([1 - 1j, 3.0])
        zy = inner(x, y)
        ziy = inner(x, Vector(1j * y.coords))
        assert ziy == pytest.approx(-1j * zy, rel=1e-15)

    def test_conjugate_symmetry_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = Vector(rng.normal(size=5) + 1j * rng.normal(size=5))
            y = Vector(rng.normal(size=5) + 1j * rng.normal(size=5))
            z1 = inner(x, y)
            z2 = inner(y, x)
            assert z1.real == z2.real
            assert z1.imag == -z2.imag

    def test_accepts_plain_sequences(self):
        assert inner([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            inner(Vector([1.0]), Vector([1.0, 2.0]))

    def test_cauchy_schwarz_spot(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = Vector(rng.normal(size=4))
            y = Vector(rng.normal(size=4))
            assert abs(inner(x, y)) <= norm(x) * norm(y) * (1 + 1e-12)


class TestNorm:
    def test_pythagorean(self):
        assert norm(Vector([3.0, 4.0])) == 5.0

    def test_zero_vector(self):
        assert norm(Vector([0.0, 0.0])) == 0.0

    def test_complex_unit(self):
        assert norm(Vector([1 + 1j])) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_zero_iff_zero_vector(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            assert norm(Vector(v)) > 0.0


class TestVectorFamily:
    def test_from_matrix(self):
        fam = VectorFamily(np.eye(2))
        assert fam.size == 2
        assert fam.dim == 2
        assert len(fam) == 2

    def test_from_member_list(self):
        fam = VectorFamily([[1.0], [0.5]])
        assert fam.size == 2
        assert fam.dim == 1

    def test_from_vectors(self):
        fam = VectorFamily([Vector([1, 0]), Vector([0, 1])])
        assert fam.size == 2

    def test_member_access_and_iter(self):
        fam = VectorFamily([[1.0, 2.0], [3.0, 4.0]])
        assert fam[1] == Vector([3.0, 4.0])
        assert list(fam) == [Vector([1.0, 2.0]), Vector([3.0, 4.0])]

    def test_empty_family_needs_dim(self):
        fam = VectorFamily([], dim=3)
        assert fam.size == 0
        assert fam.dim == 3
        with pytest.raises(ShapeError):
            VectorFamily([])

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            VectorFamily([[1.0], [1.0, 2.0]])

    def test_real_field_rejects_imag(self):
        with pytest.raises(DomainError):
            VectorFamily([[1 + 1j]], field="real")

    def test_bad_field_rejected(self):
        with pytest.raises(DomainError):
            VectorFamily([[1.0]], field="rational")

    def test_vectors_read_only(self):
        fam = VectorFamily([[1.0, 2.0]])
        with pytest.raises((ValueError, TypeError)):
            fam.vectors[0, 0] = 9.0

    def test_norms_correct(self):
        fam = VectorFamily([[3.0, 4.0], [0.0, 1.0]])
        np.testing.assert_allclose(_member_norms(fam.vectors), [5.0, 1.0])

    def test_is_orthonormal(self):
        assert VectorFamily(np.eye(3)).is_orthonormal()
        assert not VectorFamily([[1.0], [0.5]]).is_orthonormal()
        assert VectorFamily([], dim=4).is_orthonormal()

    def test_orthonormal_diagonal_and_off_diagonal(self):
        assert not VectorFamily([[1.0, 0.0], [1e-6, 1.0]]).is_orthonormal()  # unit diagonal, off entry 1e-6
        assert VectorFamily([[1.0, 0.0], [1e-12, 1.0]]).is_orthonormal()
        assert not VectorFamily([[1.0 + 1e-6, 0.0], [0.0, 1.0]]).is_orthonormal()

    def test_require_orthonormal_reports_largest_deviation(self):
        # The diagonal is off by 0.21 and decides False; the message still names the 1.1 off it.
        with pytest.raises(NotOrthonormalError, match="1.100e"):
            VectorFamily([[1.1, 0.0], [1.0, 0.1]]).require_orthonormal()

    def test_require_orthonormal_raises(self):
        with pytest.raises(NotOrthonormalError):
            VectorFamily([[1.0], [0.5]]).require_orthonormal()


class TestGram:
    def test_orthonormal_identity(self):
        g = gram(VectorFamily(np.eye(2)))
        np.testing.assert_array_equal(g.entries, np.eye(2))

    def test_rank_one_1d(self):
        g = gram(VectorFamily([[1.0], [0.5]]))
        np.testing.assert_array_equal(g.entries, [[1.0, 0.5], [0.5, 0.25]])

    def test_plus_minus(self):
        g = gram(VectorFamily([[1.0, 1.0], [1.0, -1.0]]))
        np.testing.assert_array_equal(g.entries, [[2.0, 0.0], [0.0, 2.0]])

    def test_empty_family(self):
        g = gram(VectorFamily([], dim=2))
        assert g.entries.shape == (0, 0)

    def test_exactly_hermitian(self):
        rng = np.random.default_rng(23)
        mat = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        g = gram(VectorFamily(mat)).entries
        assert np.array_equal(g, g.conj().T)
        assert np.array_equal(g.imag.diagonal(), np.zeros(6))

    def test_matches_inner(self):
        rng = np.random.default_rng(29)
        mat = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        fam = VectorFamily(mat)
        g = gram(fam).entries
        for i in range(4):
            for j in range(4):
                z = inner(fam[i], fam[j])
                assert g[i, j] == pytest.approx(z, rel=1e-13, abs=1e-13)

    def test_gram_cached_on_family(self):
        fam = VectorFamily(np.eye(2))
        assert gram(fam) is gram(fam)

    def test_orthonormal_within_tol(self):
        g = gram(VectorFamily(np.eye(4))).entries
        assert np.max(np.abs(g - np.eye(4))) <= 1e-12


def _four_product_gram(mat):
    """The Gram matrix from four real products, mirrored: the reference for the build."""
    re_part = mat.real @ mat.real.T + mat.imag @ mat.imag.T
    im_part = mat.imag @ mat.real.T - mat.real @ mat.imag.T
    re_h = np.tril(re_part) + np.tril(re_part, -1).T
    im_lo = np.tril(im_part, -1)
    return re_h + 1j * (im_lo - im_lo.T)


def _build_family(kind, shape, seed=41):
    rng = np.random.default_rng(seed)
    if kind == "real":
        return VectorFamily(rng.normal(size=shape), field="real")
    if kind == "complex":
        return VectorFamily(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    if kind == "complex_zero_imag":  # labelled complex, every imaginary part zero
        return VectorFamily(rng.normal(size=shape).astype(np.complex128), field="complex")
    return VectorFamily(np.zeros(shape), field="real")  # "zero"


_GRAM_KINDS = ("real", "complex", "complex_zero_imag", "zero")
_GRAM_SHAPES = ((0, 3), (1, 1), (5, 3), (40, 8), (200, 64))
_P_KEPT = 1.0 + 4504 * 2.0**-52  # the exponent closest to 1 that is not snapped to 1
_NORM_EXPONENTS = sorted(
    {e for p in (*STANDARD_P_LIST, _P_KEPT) for e in (p, conjugate_exponent(p))}
)


class TestGramBuild:
    """The Gram build (one product for real data, four otherwise) and the scaled norms read from it."""

    @pytest.mark.parametrize("shape", _GRAM_SHAPES)
    @pytest.mark.parametrize("kind", _GRAM_KINDS)
    def test_matches_four_product_formula(self, kind, shape):
        fam = _build_family(kind, shape)
        g = gram(fam).entries
        # Float equality: only the sign of an exactly-zero entry may differ.
        assert np.array_equal(g, _four_product_gram(fam.vectors))
        assert g.dtype == np.complex128 and g.shape == (shape[0], shape[0])
        if kind != "complex":
            assert not g.imag.any()

    @pytest.mark.parametrize("shape", _GRAM_SHAPES)
    @pytest.mark.parametrize("kind", _GRAM_KINDS)
    def test_exactly_hermitian_and_read_only(self, kind, shape):
        g = gram(_build_family(kind, shape)).entries
        assert np.array_equal(g, g.conj().T)
        assert not g.imag.diagonal().any()
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[..., :1] = 0.0

    @pytest.mark.parametrize("shape", _GRAM_SHAPES)
    @pytest.mark.parametrize("kind", _GRAM_KINDS)
    def test_ingredient_norms_match_public_norms(self, kind, shape):
        fam = _build_family(kind, shape)
        rng = np.random.default_rng(43)
        x = rng.normal(size=shape[1]) + 1j * rng.normal(size=shape[1])
        c = rng.normal(size=shape[0]) + 1j * rng.normal(size=shape[0])
        ing = _Ingredients.of(fam, x, c)  # a batch of one: each p-norm is a column of one
        t = inner_each(x, fam)
        for p in _NORM_EXPONENTS:  # one ingredients object: every p reuses one scaling
            assert float(ing.pnorm("abs_g", p)[0]).hex() == gram_entry_qnorm(gram(fam), p).hex()
            assert float(ing.pnorm("abs_t", p)[0]).hex() == seq_pnorm(t, p).hex()
            assert float(ing.pnorm("abs_c", p)[0]).hex() == seq_pnorm(c, p).hex()
            assert float(ing.pnorm("abs_norms", p)[0]).hex() == seq_pnorm(_member_norms(fam.vectors), p).hex()


class TestGramMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            GramMatrix(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            GramMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]))

    def test_rejects_negative_diagonal(self):
        with pytest.raises(DomainError):
            GramMatrix(np.array([[-1.0, 0.0], [0.0, 1.0]]))

    def test_accepts_hermitian_complex(self):
        g = GramMatrix(np.array([[2.0, 1 - 1j], [1 + 1j, 3.0]]))
        assert g.size == 2

    def test_quad_form_real_and_psd(self):
        rng = np.random.default_rng(31)
        mat = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        g = gram(VectorFamily(mat)).entries
        diag_max = float(np.max(g.real.diagonal()))
        for _ in range(20):
            c = rng.normal(size=5) + 1j * rng.normal(size=5)
            q = complex(c.conj() @ g @ c)  # c* G c
            slack = 1e-10 * float((np.abs(c) ** 2).sum()) * diag_max
            assert abs(q.imag) <= slack
            assert q.real >= -slack

    def test_abs_entries(self):
        g = GramMatrix(np.array([[1.0, -0.5], [-0.5, 1.0]]))
        np.testing.assert_array_equal(g.abs_entries(), [[1.0, 0.5], [0.5, 1.0]])
        assert g.abs_entries() is g.abs_entries()


class TestInnerEach:
    def test_matches_inner_loop(self):
        rng = np.random.default_rng(37)
        mat = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        fam = VectorFamily(mat)
        x = Vector(rng.normal(size=3) + 1j * rng.normal(size=3))
        t = inner_each(x, fam)
        for i in range(5):
            assert t[i] == pytest.approx(inner(x, fam[i]), rel=1e-12, abs=1e-12)

    def test_conjugate_linear_in_members(self):
        x = Vector([1 + 2j, -1j])
        fam = VectorFamily([(1j * np.array([3.0 - 1j, 2.0])).tolist()])
        base = inner_each(x, VectorFamily([[3.0 - 1j, 2.0]]))
        assert inner_each(x, fam)[0] == pytest.approx(-1j * base[0], rel=1e-15)

    def test_empty(self):
        t = inner_each(Vector([1.0]), VectorFamily([], dim=1))
        assert t.shape == (0,)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            inner_each(Vector([1.0, 2.0]), VectorFamily([[1.0]]))
