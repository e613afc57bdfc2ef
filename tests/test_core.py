"""Vectors, families, inner products, and Gram matrices."""

import functools
import inspect
import math
import operator
import re
import tracemalloc

import numpy as np
import pytest

import grambounds
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
    max_row_abs_sum,
    norm,
    orthonormal_bessel_bound,
    power_mean_factor,
    seq_pnorm,
)
from grambounds import bounds, core
from grambounds.bounds import _Ingredients
from grambounds.core import _BLOCK, _abs_reductions, _cuts, _gram_reductions, _sq_norms
from grambounds.norms import _Scaled


class TestVector:
    def test_coords_are_complex128(self):
        v = Vector([1, 2, 3])
        assert v.coords.dtype == np.complex128
        assert v.dim == 3
        assert repr(v) == "Vector([1.+0.j, 2.+0.j, 3.+0.j])"

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
        assert a.__eq__([1.0, 2.0]) is NotImplemented and a != [1.0, 2.0]
        for u, w in (([0.0, 1.0], [-0.0, 1.0]), ([1.0, 2j], [complex(1.0, -0.0), 2j])):  # a real, an imaginary -0.0
            assert Vector(u) == Vector(w) and len({Vector(u), Vector(w)}) == 1

    def test_coercion_takes_a_vector_like_any_array(self):
        v = Vector([1.0, 2j])
        assert core._as_complex(v) is v.coords  # no copy when none is asked for
        fresh = core._as_complex(v, copy=True)
        assert fresh is not v.coords and fresh.flags.writeable and np.array_equal(fresh, v.coords)
        with pytest.raises(ShapeError, match="got 2 coefficients for a family of size 3"):
            core._as_complex(v, what="coefficients", size=3)
        # The length is the last axis, as in a c stack (B, n): a (2, 3) stack has n = 3, not 2.
        with pytest.raises(ShapeError, match="got 3 coefficients for a family of size 2"):
            core._as_complex(np.ones((2, 3)), what="coefficients", ndim=2, size=2)


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

    def test_overflowed_part_leaves_the_other_part(self):
        # (x, y) = 1e400 i overflows its imaginary part alone; 0 * inf would make the real part NaN
        with np.errstate(over="ignore"):
            assert inner([1e200j], [1e200]) == complex(0.0, math.inf)
            assert inner_each([1e200j], VectorFamily([[1e200]]))[0] == complex(0.0, math.inf)

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
        assert repr(fam) == "VectorFamily(n=2, dim=2, field='complex')"

    def test_from_member_list(self):
        fam = VectorFamily([[1.0], [0.5]])
        assert fam.size == 2
        assert fam.dim == 1

    def test_from_vectors(self):
        fam = VectorFamily([Vector([1, 0]), Vector([0, 1])])
        assert fam.size == 2

    def test_member_access_and_iter(self):
        fam = VectorFamily([[1.0, 2.0], [3.0, 4.0]])
        assert Vector(fam.vectors[1]) == Vector([3.0, 4.0])
        assert [Vector(row) for row in fam.vectors] == [Vector([1.0, 2.0]), Vector([3.0, 4.0])]
        with pytest.raises(TypeError):
            fam[1]

    def test_given_dim_must_match_the_members(self):
        assert VectorFamily(np.ones((2, 3)), dim=3).dim == 3
        assert VectorFamily(np.zeros((0, 2)), dim=2).size == 0
        with pytest.raises(DimensionError, match=re.escape("members have dimension 3, expected dim 5")):
            VectorFamily(np.ones((2, 3)), dim=5)
        with pytest.raises(DimensionError):
            VectorFamily([[1.0, 2.0]], dim=1)
        with pytest.raises(DimensionError):
            VectorFamily(np.zeros((0, 3)), dim=2)

    @pytest.mark.parametrize("dim", [0, -1, "x", 2.0, True])
    def test_given_dim_is_checked_when_members_are_given(self, dim):
        with pytest.raises(DomainError, match=re.escape(f"dim must be an integer in [1, {core._DIM_MAX}], got {dim!r}")):
            VectorFamily([[1.0, 2.0]], dim=dim)

    def test_empty_family_needs_dim(self):
        fam = VectorFamily([], dim=3)
        assert fam.size == 0
        assert fam.dim == 3
        with pytest.raises(ShapeError):
            VectorFamily([])

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            VectorFamily([[1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("shape", [(3,), (0,), (2, 2, 2), 3.0, None])
    def test_array_that_is_not_2d_is_named_as_the_family(self, shape):
        # a tuple is the shape of a zero array; 3.0 and None are not iterable, so they are 0-d arrays
        members = np.zeros(shape) if isinstance(shape, tuple) else shape
        with pytest.raises(ShapeError, match=re.escape(f"family must be 2-dimensional, got shape {np.shape(members)}")):
            VectorFamily(members, dim=3)

    def test_orthonormal_tolerance_is_one_constant(self):
        defaults = [inspect.signature(f).parameters["tol"].default for f in
                    (VectorFamily.is_orthonormal, VectorFamily.require_orthonormal, orthonormal_bessel_bound)]
        assert all(tol is core.ORTHONORMAL_TOL for tol in defaults)
        assert grambounds.ORTHONORMAL_TOL is bounds.ORTHONORMAL_TOL is core.ORTHONORMAL_TOL == 1e-10

    def test_real_field_rejects_imag(self):
        assert VectorFamily([[1.0]], field="real").field == "real"
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
        np.testing.assert_allclose(np.sqrt(_sq_norms(fam.vectors)[0]), [5.0, 1.0])

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
                z = inner(fam.vectors[i], fam.vectors[j])
                assert g[i, j] == pytest.approx(z, rel=1e-13, abs=1e-13)

    def test_no_n_squared_array_outlives_gram_and_its_reductions(self):
        """gram() builds a new GramMatrix on each call, and neither the family nor the matrix keeps
        G or |G|: once the matrix is dropped, less than one n² array of doubles is still held."""
        n = 300
        fam = _build_family("complex", (n, 5))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = fam.gram()
            assert g is not fam.gram() and np.array_equal(g.entries, fam.gram().entries)
            gram_entry_qnorm(g, 3.0)
            max_row_abs_sum(g)
            del g
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 8 * n * n

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


def _fresh_product_gram(mat):
    """The build with a fresh array per product, sum and difference, then mirrored: the bits to keep."""
    n = mat.shape[-2]
    out = np.zeros(mat.shape[:-1] + (n,), dtype=np.complex128)
    lower = np.tri(n, dtype=bool)
    re, im = mat.real, mat.imag
    if im.any():
        re_part = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
        im_part = im @ re.swapaxes(-1, -2) - re @ im.swapaxes(-1, -2)
        np.subtract(0.0, im_part.swapaxes(-1, -2), out=out.imag)
        np.copyto(out.imag, im_part, where=lower)
        out.imag[..., range(n), range(n)] = 0.0
    else:
        re_part = re @ re.swapaxes(-1, -2)
    np.copyto(out.real, re_part.swapaxes(-1, -2))
    np.copyto(out.real, re_part, where=lower)
    return out


def _bits(arr):
    """Every float of ``arr`` as its uint64 pattern, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(arr).view(np.uint64)


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
        ing.reads = _NORM_EXPONENTS
        t = inner_each(x, fam)
        for p in _NORM_EXPONENTS:  # one ingredients object: every p reuses one scaling, every q one Gram pass
            assert float(ing.gram(p)[0]).hex() == gram_entry_qnorm(gram(fam), p).hex()
            assert float(ing.abs_t.pnorm(p)[0]).hex() == seq_pnorm(t, p).hex()
            assert float(ing.abs_c.pnorm(p)[0]).hex() == seq_pnorm(c, p).hex()
            assert float(ing.abs_norms.pnorm(p)[0]).hex() == seq_pnorm(np.sqrt(_sq_norms(fam.vectors)[0]), p).hex()

    def test_a_gram_read_neither_declared_nor_first_is_refused(self):
        fam = _build_family("complex", (5, 3))
        ing = _Ingredients.of(fam)
        ing.reads = (2.0,)
        assert float(ing.gram("row")[0]).hex() == max_row_abs_sum(gram(fam)).hex()  # the first read joins them
        assert float(ing.gram(2.0)[0]).hex() == gram_entry_qnorm(gram(fam), 2.0).hex()
        with pytest.raises(KeyError):
            ing.gram(3.0)

    @pytest.mark.parametrize("shape", [(257, 8), (300, 5), (1000, 256)])
    @pytest.mark.parametrize("kind", _GRAM_KINDS)
    def test_bits_match_fresh_product_build(self, kind, shape):
        # (257, 8) and (300, 5) are shapes where BLAS syrk's bits differ from gemm's.
        fam = _build_family(kind, shape)
        assert np.array_equal(_bits(gram(fam).entries), _bits(_fresh_product_gram(fam.vectors)))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_bits_match_fresh_product_build_on_underflow_and_stacks(self, field):
        # d = 1 products of +-1e-200 underflow to -0.0 or 0.0: whatever zero each entry gets, it is kept.
        tiny = np.array([[1e-200], [-1e-200], [3e-200], [-0.0]])
        mat = tiny * (1.0 - 2j) if field == "complex" else tiny + 0j
        assert gram(VectorFamily(mat)).entries[1, 0] == 0.0
        rng = np.random.default_rng(53)
        stack = rng.normal(size=(3, 40, 8)) + (1j * rng.normal(size=(3, 40, 8)) if field == "complex" else 0.0)
        for m in (mat, *stack.astype(np.complex128)):
            assert np.array_equal(_bits(gram(VectorFamily(m)).entries), _bits(_fresh_product_gram(m)))

    @pytest.mark.parametrize("kind", _GRAM_KINDS)
    def test_pnorm_is_kept_per_exponent(self, kind):
        g_abs = np.abs(gram(_build_family(kind, (40, 8))).entries)
        a = np.vstack([g_abs, np.zeros((1, 40))])
        scaled = _Scaled(a)
        firsts = {p: scaled.pnorm(p) for p in _NORM_EXPONENTS}
        for p in reversed(_NORM_EXPONENTS):  # each exponent again, after all the others
            assert scaled.pnorm(p) is firsts[p]
            assert np.array_equal(_bits(firsts[p]), _bits(_Scaled(a).pnorm(p)))

    @pytest.mark.parametrize("shape", [(257, 8), (300, 5)])
    @pytest.mark.parametrize("kind", _GRAM_KINDS)
    def test_root_power_sum_bits_match_fresh_ratio_powers(self, kind, shape):
        g_abs = np.abs(gram(_build_family(kind, shape)).entries)
        # |G| as one row of n² (gram_entry_qnorm), and as its n rows plus a row of zeros.
        for a in (g_abs.reshape(1, -1), np.vstack([g_abs, np.zeros((1, shape[0]))])):
            scaled = _Scaled(a)  # one object for every exponent: its maxima are shared
            ratio = a / np.where(scaled.max > 0.0, scaled.max, 1.0)[:, None]
            for p in filter(math.isfinite, _NORM_EXPONENTS):
                for e in (1.0 / p, 2.0 / p):
                    want = np.array([s**e for s in (ratio**p).sum(axis=-1).tolist()])
                    assert np.array_equal(_bits(scaled.root_power_sum(p, e)), _bits(want))


@pytest.mark.parametrize("shape", [(1, 0, 3), (1, 1, 1), (1, 5, 3), (4, 7, 2), (1, 1000, 256)])
@pytest.mark.parametrize("kind", _GRAM_KINDS)
def test_sq_norms_bits_match_squaring_each_sum_apart(kind, shape):
    """One buffer of squares gives the bits of the member norms and of Σ_i ‖y_i‖² squared apart."""
    rows = np.stack([_build_family(kind, shape[1:], seed=41 + b).vectors for b in range(shape[0])])
    per_row, total = _sq_norms(rows)
    norms = np.sqrt((rows.real * rows.real).sum(axis=-1) + (rows.imag * rows.imag).sum(axis=-1))
    norms_sq_total = (rows.real * rows.real).sum(axis=(1, 2)) + (rows.imag * rows.imag).sum(axis=(1, 2))
    assert per_row.shape == shape[:2] and total.shape == shape[:1]
    assert np.array_equal(_bits(np.sqrt(per_row)), _bits(norms))
    assert np.array_equal(_bits(total), _bits(norms_sq_total))


def _abs_gram(rows):
    """|G| (B, n, n) of each input of the stack (B, n, d), from gram()."""
    return np.stack([np.abs(gram(VectorFamily(m)).entries) for m in rows])


def _materialised(abs_g, qs):
    """The reductions of a materialised |G| (B, n, n) as one pass over it: the arithmetic to keep."""
    b, n = abs_g.shape[:2]
    scaled = _Scaled(abs_g.reshape(b, n * n))
    off = abs_g * (1.0 - np.eye(n))
    deviation = np.maximum(np.abs(abs_g.diagonal(axis1=1, axis2=2) - 1.0).max(axis=-1, initial=0.0),
                           off.reshape(b, -1).max(axis=-1, initial=0.0))
    return abs_g.sum(axis=-1).max(axis=-1, initial=0.0), deviation, {q: scaled.pnorm(q) for q in qs}


@functools.cache
def _sum_roundings(m: int) -> int:
    """The most roundings a term passes through in numpy's add.reduce over m contiguous terms, a
    pairwise sum started at -0.0 (exact): fewer than 8 terms are added in turn; up to 128 go into 8
    accumulators, which 3 adds join before the remainder is added in turn; a longer run splits at
    ⌊m/2⌋ rounded down to a multiple of 8, one more add.  _pairwise_sum is that order."""
    if m < 8:
        return max(m - 1, 0)
    if m <= 128:
        return m // 8 - 1 + 3 + m % 8
    h = m // 2 - m // 2 % 8
    return 1 + max(_sum_roundings(h), _sum_roundings(m - h))


def _pairwise_sum(terms: list) -> float:
    """The sum of Python floats in the order that _sum_roundings counts."""
    m, add = len(terms), functools.partial(functools.reduce, operator.add)
    if m < 8:
        return add(terms, -0.0)
    if m <= 128:
        r = [add(terms[j:m - m % 8:8]) for j in range(8)]
        return add(terms[m - m % 8:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    h = m // 2 - m // 2 % 8
    return _pairwise_sum(terms[:h]) + _pairwise_sum(terms[h:])


@pytest.mark.parametrize("m", [1, 7, 8, 15, 127, 128, 129, 1000, 2050])
def test_sum_roundings_follows_numpys_order(m):
    """numpy sums a contiguous run, alone or as each row of a stack, in _pairwise_sum's order bit for
    bit, so _sum_roundings counts its roundings: 24 at m = 127 (14 adds into an accumulator, 3 to
    join them, 7 for the remainder), not the 19 + ⌈log₂(m/128)⌉ once assumed."""
    rng = np.random.default_rng(67 + m)
    terms = rng.random((2, m)) * 10.0 ** rng.uniform(-8.0, 8.0, (2, m))
    for row, total in zip(terms, terms.sum(axis=-1)):
        assert np.add.reduce(row).hex() == total.hex() == _pairwise_sum(row.tolist()).hex()
    assert _sum_roundings(127) == 24


def _longdouble_reference(rows, qs):
    """The reductions of |G| of one family (n, d) in np.longdouble, 256 rows at a time, at q in
    {∞, 11, 3, 2, 1.5, 1}: powers by products and square roots, which powl is too slow for."""
    y = rows.astype(np.clongdouble)
    re, im = y.real, y.imag
    top = (re * re + im * im).sum(axis=1).max(initial=0)  # |g_ij| ≤ max_i g_ii
    scale = top if top > 0 else np.longdouble(1)
    sums, row_sum_max, deviation = dict.fromkeys(qs, np.longdouble(0)), np.longdouble(0), np.longdouble(0)
    for r0 in range(0, len(rows), 256):
        block = np.sqrt((re[r0:r0 + 256] @ re.T + im[r0:r0 + 256] @ im.T) ** 2
                        + (im[r0:r0 + 256] @ re.T - re[r0:r0 + 256] @ im.T) ** 2)
        row_sum_max = max(row_sum_max, block.sum(axis=1).max())
        i = np.arange(len(block))
        diagonal = block[i, r0 + i]
        block[i, r0 + i] = np.abs(diagonal - 1)
        deviation = max(deviation, block.max())
        block[i, r0 + i] = diagonal
        ratio = block / scale
        square = ratio * ratio
        powers = {1.0: ratio, 1.5: ratio * np.sqrt(ratio), 2.0: square, 3.0: square * ratio,
                  11.0: square * square * square * square * square * ratio}
        for q in filter(math.isfinite, qs):
            sums[q] += powers[q].sum()
    qnorm = {q: top if math.isinf(q) else scale * sums[q] ** (1 / np.longdouble(q)) for q in qs}
    return row_sum_max, deviation, qnorm


def _rank_one_tied(n, d):
    """y_i = s_i v with s_i in {1, i, -1, -i} and ‖v‖ = 1: every |g_ij| is exactly 1, so every block ties."""
    v = np.full(d, 0.5) if d == 4 else np.eye(d)[0]
    return np.outer(1j ** np.arange(n), v)


class TestGramReductions:
    """One pass over the Gram products folds |G| into its reductions, in blocks of at most
    _BLOCK entries; no n-by-n matrix is kept beyond a block."""

    QS = tuple(_NORM_EXPONENTS)
    READS = ("row", "eye", *QS)

    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (257, 8), (300, 5), (1024, 3)])
    @pytest.mark.parametrize("kind", _GRAM_KINDS)
    def test_one_block_has_the_bits_of_the_materialised_matrix(self, kind, shape):
        rows = _build_family(kind, shape).vectors[None]
        got = _gram_reductions([rows], self.READS)
        want = _materialised(_abs_gram(rows), self.QS)
        assert np.array_equal(_bits(got["row"]), _bits(want[0]))
        assert np.array_equal(_bits(got["eye"]), _bits(want[1]))
        for q in self.QS:
            assert np.array_equal(_bits(got[q]), _bits(want[2][q])), q

    def test_stack_cut_along_the_batch_has_the_bits_of_each_input(self):
        # 13 inputs of n = 300 hold more than _BLOCK entries: blocks of 11 inputs, across both stacks,
        # and of 2.  The last four inputs are real, two in each block, and both blocks take the complex
        # products: the second holds only real inputs, but some input of the pass is complex.
        rng = np.random.default_rng(59)
        rows = rng.normal(size=(13, 300, 3)) + 1j * rng.normal(size=(13, 300, 3))
        rows[9:] = rows[9:].real
        assert 13 * 300 * 300 > _BLOCK and len(_cuts(13, 300, 300, _BLOCK)) == 2
        got = _gram_reductions([rows[:6], rows[6:]], self.READS)  # two stacks, counted in order
        want = _materialised(_abs_gram(rows), self.QS)
        assert np.array_equal(_bits(got["row"]), _bits(want[0]))
        assert np.array_equal(_bits(got["eye"]), _bits(want[1]))
        for q in self.QS:
            assert np.array_equal(_bits(got[q]), _bits(want[2][q])), q

    @pytest.mark.parametrize("kind, n, d", [(kind, n, d) for n, d in ((1025, 3), (2100, 4))
                                            for kind in ("real", "complex", "rank_one", "zero")[:4 if n < 2048 else 3]])
    def test_blocks_agree_with_one_pass_and_long_double(self, kind, n, d, qs=(math.inf, 11.0, 3.0, 2.0, 1.5, 1.0)):
        """Each reduction is within γ_k of the long-double value (taken as exact) times the same
        reduction of P, P_ij = Σ_l |y_il||y_jl| ≥ |g_ij|, and within 2γ_k of the one-pass value, with
        γ_k = k u / (1 - k u), u = 2⁻⁵³ and k = 53 ≥ e + 3 + (s + 1)/q + J (2 + (q + 3)/(2q)), the
        largest over these shapes and finite q > 1 (at n = 2,100 and q = 1.5: 12 + 3 + 21⅓ + 14), of
          e = 2(d + 1) + 2 ≤ 12   for a Gram entry: per part two length-d dot products and one add, hypot;
          s = max _sum_roundings(m) ≤ 31  for numpy's pairwise sum of a block's m = r n terms (22 at
                                  m = 2,050, 31 at 1,047,900 and 1,048,575);
          3 + (s + 1)/q           for the block's divide, power, sum, root and product by its maximum;
          2 + (q + 3)/(2q)        for each of the J ≤ 4 joins of up to five row blocks: its root and product,
                                  and the divide and power of the smaller term, at most half the sum, and the add.
        (The power's q-fold amplification of a ratio's rounding is undone by the 1/q root, which also
        divides the power's and the sum's by q.)  At q = 1 the blocks' plain sums are added: e + s + J ≤ 47.
        The one-pass value is one block of m = n² terms: s ≤ 33 (at n = 2,100) and e + 3 + (s + 1)/q ≤ 37⅔
        at q = 1.5.  The test checks each count against k for its own shape."""
        if kind == "rank_one":
            rows = _rank_one_tied(n, d)
        else:
            rows = _build_family(kind, (n, d)).vectors
        cuts, k, u = _cuts(1, n, n, _BLOCK), 53, 2.0**-53
        e, s, joins = 2 * (d + 1) + 2, max(_sum_roundings(r * n) for *_, r in cuts), len(cuts) - 1
        finite = [q for q in qs if 1.0 < q < math.inf]
        assert joins > 0 and e + s + joins <= k
        assert all(e + 3 + (s + 1) / q + joins * (2 + (q + 3) / (2 * q)) <= k for q in finite)
        assert all(e + 3 + (_sum_roundings(n * n) + 1) / q <= k for q in finite)
        got = _gram_reductions([rows[None]], ("row", "eye", *qs))
        one_pass = _materialised(_abs_gram(rows[None]), qs)
        exact = _longdouble_reference(rows, qs)
        p = np.abs(rows) @ np.abs(rows).T
        scale = _abs_reductions(p, ("row", *qs))
        gamma = k * u / (1 - k * u)
        pairs = [(got["row"][0], one_pass[0][0], exact[0], scale["row"][0]),
                 (got["eye"][0], one_pass[1][0], exact[1], max(scale[math.inf][0], 1.0))]
        pairs += [(got[q][0], one_pass[2][q][0], exact[2][q], scale[q][0]) for q in qs]
        for value, other, ref, size in pairs:
            assert abs(value - float(ref)) <= gamma * size
            assert abs(value - other) <= 2 * gamma * size
        if kind == "zero":
            assert got["eye"][0] == 1.0 and not got["row"][0]
            assert not any(got[q][0] for q in qs)
        if kind == "rank_one":  # every entry exactly 1
            assert got["row"][0] == n and got["eye"][0] == 1.0
            assert got[math.inf][0] == 1.0 and got[1.0][0] == n * n

    @pytest.mark.parametrize("kind", ["random", "zero_row_blocks", "wide_range"])
    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_row_blocks_join_as_one_block(self, n, kind, reads=("row", "eye", 1.0, 1.5, 2.0, 3.0, 11.0, math.inf)):
        """A (1, n, n) |G|-like array folded as row blocks of 1, 3 and 13 rows: up to 40 blocks, cut
        anywhere, some of them zero.  "row", "eye" and ∞ are maxima and keep the one-block bits.  A
        q-norm joined over B blocks of m entries is within γ_k of the exact value, as is the one-block
        value (B = 1, m = n²), with γ_k = k u / (1 - k u), u = 2⁻⁵³ and
          k = _sum_roundings(m) + 4 + 5 (B - 1),
          _sum_roundings(m)  for numpy's pairwise sum of the block's m entries;
          4 for a block's divide, power, root and product by its maximum;
          5 for each join's divide, power, add, root and product.
        (The power's q-fold amplification of the ratio's rounding is undone by the 1/q root, and a join
        passes on its inputs' relative errors unchanged.)  Underflowed powers lose at most n² · 2⁻¹⁰⁷⁴
        against a scaled sum of at least 1."""
        rng = np.random.default_rng(61 + n)
        a = rng.random((1, n, n))
        if kind == "zero_row_blocks":  # rows 0-12 and 26-38: the first block of every cut and a middle one
            a[:, :13] = a[:, 26:39] = 0.0
        if kind == "wide_range":
            a = 10.0 ** rng.uniform(-300.0, 300.0, (1, n, n))
        whole = core._fold([(0, 0, a.copy())], 1, reads)
        for rows in (1, 3, 13):
            starts = range(0, n, rows)
            got = core._fold([(0, r0, a[:, r0:r0 + rows].copy()) for r0 in starts], 1, reads)
            assert list(got) == list(reads)
            for read in ("row", "eye", math.inf):
                assert np.array_equal(_bits(got[read]), _bits(whole[read])), (rows, read)
            k = max(_sum_roundings(min(rows, n) * n) + 4 + 5 * (len(starts) - 1), _sum_roundings(n * n) + 4)
            gamma = k * 2.0**-53 / (1 - k * 2.0**-53)
            for q in reads[2:-1]:
                value, want = got[q][0], whole[q][0]
                assert abs(value - want) <= 2 * gamma * want / (1 - gamma), (rows, q)

    def test_row_and_eye_take_no_block_maximum(self, monkeypatch):
        """A fold of only "row" or "eye" (the orthonormality test, max_row_abs_sum) takes no maximum
        of the unwritten block, which only the q-norms read; it takes only the maxima of the pairs
        that join row blocks.  One block, and row blocks."""
        widths, cached = [], core._Scaled.__dict__["max"]
        monkeypatch.setattr(core._Scaled, "max", property(lambda self: widths.append(self.a.shape[-1])
                                                            or cached.__get__(self)))
        for n in (300, 1100):
            fam = _build_family("complex", (n, 3))
            widths.clear()
            fam.is_orthonormal()
            max_row_abs_sum(gram(fam))
            _gram_reductions([fam.vectors[None]], ("row", "eye"))
            assert set(widths) <= {2}
            _gram_reductions([fam.vectors[None]], ("eye", 3.0))
            assert max(widths) >= n

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_upper_entries_in_the_block_come_from_their_partners(self, monkeypatch, field):
        """Within a block an entry above the diagonal takes its partner's conjugate, whatever the
        products hold there, and gram() and the fold run the same mirror step: G is Hermitian and |G|
        symmetric bitwise on any BLAS.  n = 300 is one block of six tiles, so partners also sit in
        other tiles."""
        fam = _build_family(field, (300, 5))
        rows = fam.vectors[None]
        want, want_g = _gram_reductions([rows], self.READS), gram(fam).entries
        products = core._products

        def skewed(rows, cols, re, im):
            products(rows, cols, re, im)
            upper = (..., *np.triu_indices(re.shape[-1], 1))
            for part in (re, im) if im is not None else (re,):
                part[upper] *= 1.5

        monkeypatch.setattr(core, "_products", skewed)
        got, g = _gram_reductions([rows], self.READS), gram(fam)
        assert np.array_equal(_bits(got["row"]), _bits(want["row"]))
        assert np.array_equal(_bits(got["eye"]), _bits(want["eye"]))
        for q in self.QS:
            assert np.array_equal(_bits(got[q]), _bits(want[q])), q
        entries = g.entries
        assert np.array_equal(_bits(entries), _bits(want_g))
        assert np.array_equal(_bits(entries.real), _bits(entries.real.T)) and np.array_equal(entries.imag, -entries.imag.T)
        assert not entries.imag.diagonal().any()
        for q in self.QS:
            assert np.array_equal(_bits(np.float64(gram_entry_qnorm(g, q))), _bits(got[q][0])), q
        assert np.array_equal(_bits(np.float64(max_row_abs_sum(g))), _bits(got["row"][0]))

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("b, n", [(1, 300), (13, 300), (1, 1025)])
    def test_each_read_alone_has_its_bits_among_all(self, b, n, field):
        """A fold returns exactly the reads asked for, and a read asked for alone has the bits it has
        among all the others: one block, a batch cut across two stacks, and row blocks."""
        rows = np.stack([_build_family(field, (n, 3), seed=41 + k).vectors for k in range(b)])
        stacks = [rows[:6], rows[6:]] if b > 1 else [rows]
        assert len(_cuts(b, n, n, _BLOCK)) == (1 if b * n * n <= _BLOCK else 2)
        together = _gram_reductions(stacks, self.READS)
        assert list(together) == list(self.READS)
        for read in self.READS:
            alone = _gram_reductions(stacks, [read])
            assert list(alone) == [read]
            assert np.array_equal(_bits(alone[read]), _bits(together[read])), read

    def test_a_given_gram_matrix_is_read_not_written(self):
        """A given G's |G| is taken one block at a time into a fresh array, so its read-only entries
        are never written, and "eye", which writes |g_ii - 1| into each block, has the bits of the
        family's own orthonormality test: one block, and row blocks."""
        for n in (300, 1100):
            fam = _build_family("complex", (n, 3))
            entries = gram(fam).entries
            before = entries.copy()
            got = _abs_reductions(entries, ("row", 3.0, "eye"))
            assert list(got) == ["row", 3.0, "eye"]
            assert np.array_equal(_bits(entries), _bits(before)) and not entries.flags.writeable
            assert np.array_equal(_bits(got["eye"][0]), _bits(np.float64(fam._identity_deviation())))

    def test_a_given_gram_matrix_folds_in_about_three_blocks(self):
        """n = 2100 is five row blocks: the fold of a given G holds a block of |G|, the powers of a
        q-norm and their sums, not an n² array."""
        n, block_bytes = 2100, 8 * _BLOCK
        g = gram(_build_family("complex", (n, 3)))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            gram_entry_qnorm(g, 3.0)
            max_row_abs_sum(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3.3 * block_bytes < 8 * n * n

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_given_gram_matrix_folds_through_the_same_blocks(self, field):
        fam = _build_family(field, (1100, 3))
        got, g = _gram_reductions([fam.vectors[None]], self.READS), gram(fam)
        for q in self.QS:
            assert gram_entry_qnorm(g, q) == got[q][0]
        assert max_row_abs_sum(g) == got["row"][0]


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

    @pytest.mark.parametrize("scale", [10.0, 1e3])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_accepts_large_float_products(self, field, scale):
        """Y·Yᴴ by gemm is Hermitian only to about d·u·max ‖y_i‖², far above 1e-12 for these
        entries, so the checks are relative to the largest entry.  Single-threaded real gemm can
        return Y·Yᵀ exactly symmetric, so one entry above the diagonal is moved by a quarter of
        the tolerance relative to the largest entry: above 1e-12 absolute, within it relative."""
        rng = np.random.default_rng(43)
        y = scale * (rng.normal(size=(50, 1000)) + (1j * rng.normal(size=(50, 1000)) if field == "complex" else 0))
        g = y @ y.conj().T.copy()  # a second buffer: gemm, not the exactly symmetric syrk
        g[0, 1] += 0.25 * core.HERMITIAN_TOL * np.abs(g).max()
        assert np.abs(g - g.conj().T).max() > core.HERMITIAN_TOL
        assert GramMatrix(g).size == 50
        assert gram_entry_qnorm(g, 2.0) > 0 and max_row_abs_sum(g) > 0 and power_mean_factor(g, 1.5) > 0

    def test_checks_a_given_matrix_in_row_blocks(self):
        """The Hermitian check takes max |G - G*| one row block at a time and the scale from the
        fold of |G|: beside the private copy (2 n² doubles) it holds about four blocks, the
        conjugated columns and the difference, not three more n² arrays."""
        n, block_bytes = 2100, 8 * _BLOCK
        y = _build_family("complex", (n, 3)).vectors
        e = y @ y.conj().T
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            g = GramMatrix(e)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert np.array_equal(g.entries, e)
        assert peak <= 16 * n * n + 4.1 * block_bytes < 24 * n * n
        e[n - 1, 0] += 1e-6 * abs(e).max()  # in the last row block, its partner in the first
        with pytest.raises(DomainError, match="not Hermitian"):
            GramMatrix(e)

    def test_rejects_a_large_non_hermitian_matrix(self):
        with pytest.raises(DomainError, match="not Hermitian"):
            GramMatrix(np.array([[1e6, 1.0], [0.0, 1e6]]))

    def test_accepts_hermitian_complex(self):
        g = GramMatrix(np.array([[2.0, 1 - 1j], [1 + 1j, 3.0]]))
        assert g.size == 2
        assert repr(g) == "GramMatrix(n=2)"

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



class TestInnerEach:
    def test_matches_inner_loop(self):
        rng = np.random.default_rng(37)
        mat = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        fam = VectorFamily(mat)
        x = Vector(rng.normal(size=3) + 1j * rng.normal(size=3))
        t = inner_each(x, fam)
        for i in range(5):
            assert t[i] == pytest.approx(inner(x, fam.vectors[i]), rel=1e-12, abs=1e-12)

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
