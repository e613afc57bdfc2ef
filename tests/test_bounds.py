"""Every bound evaluator against hand-checked and high-precision oracle values."""

import dataclasses
import math

import numpy as np
import pytest

from grambounds import (
    BoundId,
    BoundResult,
    CaseTable,
    DimensionError,
    DomainError,
    ExponentError,
    ExponentRangeError,
    NotOrthonormalError,
    ShapeError,
    Vector,
    VectorFamily,
    bessel_sum,
    bessel_sum_bound,
    bombieri_bound,
    combination_norm_sq,
    combo_bound,
    conjugate_exponent,
    evaluate_cases,
    frobenius_bound,
    gram,
    gram_entry_qnorm,
    orthonormal_bessel_bound,
    power_mean_bound,
    power_mean_gap,
    refinement_chain,
    seq_pnorm,
    span_bound,
    verify_all,
    weighted_inner_sum_sq,
)
from grambounds import core
from grambounds.bounds import _Ingredients

E2 = VectorFamily(np.eye(2))
ONES_1D = VectorFamily([[1.0], [1.0]])
HALF_1D = VectorFamily([[1.0], [0.5]])
TENTH_1D = VectorFamily([[1.0], [0.1]])
EMPTY = VectorFamily([], dim=1)

# High-precision reference values (50-digit evaluation, rounded to float64).
THM27_ORTHO_P2 = 1.189207115002721
ORTHO_11_P2 = 2.378414230005442
EQ211_P11_TENTH = 1.763182509995248
PM_GAP_15 = (1.4972713738789865, 1.5749013123685915)


class TestLhsOps:
    def test_combination_examples(self):
        assert combination_norm_sq([1, 1], ONES_1D) == 4.0
        assert combination_norm_sq([1, -1], ONES_1D) == 0.0
        assert combination_norm_sq([1, 1], E2) == 2.0

    def test_combination_empty(self):
        assert combination_norm_sq([], EMPTY) == 0.0

    def test_combination_length_mismatch(self):
        with pytest.raises(ShapeError):
            combination_norm_sq([1.0], ONES_1D)

    def test_weighted_sum_examples(self):
        assert weighted_inner_sum_sq(Vector([1.0]), ONES_1D, [1, 1]) == 4.0
        assert weighted_inner_sum_sq(Vector([1.0]), ONES_1D, [0, 0]) == 0.0
        assert weighted_inner_sum_sq(Vector([1.0, 0.0]), E2, [2, 5]) == 4.0

    def test_bessel_sum_examples(self):
        assert bessel_sum(Vector([1.0, 0.0]), E2) == 1.0
        assert bessel_sum(Vector([0.0, 0.0]), E2) == 0.0
        assert bessel_sum(Vector([2.0]), HALF_1D) == 5.0


class TestSpanBound:
    def test_rank_one_max_flavor_equality(self):
        r = span_bound([1, 1], ONES_1D, math.inf, "gram")
        assert r.value == 4.0
        assert r.lhs == 4.0
        assert r.bound_id is BoundId.SPAN_GRAM

    def test_rank_one_sum_branch(self):
        r = span_bound([1, 1], ONES_1D, 1.0, "gram")
        assert r.value == 4.0

    def test_orthonormal_p2(self):
        r = span_bound([1, 1], E2, 2.0, "gram")
        assert r.value == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
        assert r.lhs == 2.0

    def test_norms_flavor(self):
        r = span_bound([1, 1], E2, math.inf, "norms")
        assert r.value == 4.0  # (max|a|)^2 * (sum of norms)^2
        assert r.bound_id is BoundId.SPAN_NORMS

    def test_gram_flavor_never_larger(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            fam = VectorFamily(rng.normal(size=(4, 3)))
            a = rng.normal(size=4)
            for p in (1.0, 1.5, 2.0, math.inf):
                g = span_bound(a, fam, p, "gram")
                nm = span_bound(a, fam, p, "norms")
                assert g.value <= nm.value * (1 + 1e-12)

    def test_holds_on_random(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            fam = VectorFamily(rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2)))
            a = rng.normal(size=5) + 1j * rng.normal(size=5)
            for flavor in ("gram", "norms"):
                assert span_bound(a, fam, 1.7, flavor).holds()

    def test_empty_family(self):
        r = span_bound([], EMPTY, 2.0)
        assert r.lhs == 0.0
        assert r.value == 0.0

    def test_bad_flavor(self):
        with pytest.raises(ValueError):
            span_bound([1, 1], ONES_1D, 2.0, "spectral")

    def test_member_norm_exponent_within_snap_of_one_reads_one(self):
        # The conjugate of p = 1e13 is q = 1.0000000000001, within SNAP_TOL of 1: the member norms
        # take their 1-norm, as seq_pnorm(norms, q) would; q itself has other bits here.
        rng = np.random.default_rng(5)
        fam = VectorFamily(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        c, x = rng.standard_normal(6), rng.standard_normal(3)
        a, m = seq_pnorm(c, 1e13), seq_pnorm(np.sqrt(core._sq_norms(fam.vectors)[0]), 1.0)
        assert span_bound(c, fam, 1e13, "norms").value.hex() == ((a * a) * (m * m)).hex()
        rows = {case.bound_id: case for case in verify_all(x, fam, c, [1e13]).cases if case.flavor == "norms"}
        assert rows[BoundId.SPAN_NORMS] == span_bound(c, fam, 1e13, "norms")
        assert rows[BoundId.COMBO_NORMS] == combo_bound(x, fam, c, 1e13, "norms")

    def test_gram_exponent_within_snap_of_one_reads_one(self):
        # The Gram flavor reads G's q-norm at conjugate_exponent(1e13) = 1, the q the norms flavor reads.
        rng = np.random.default_rng(5)
        fam = VectorFamily(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        c, x = rng.standard_normal(6), rng.standard_normal(3)
        expected = seq_pnorm(c, 1e13) ** 2 * gram_entry_qnorm(gram(fam), conjugate_exponent(1e13))
        assert span_bound(c, fam, 1e13, "gram").value.hex() == expected.hex()
        rows = {case.bound_id: case for case in verify_all(x, fam, c, [1e13]).cases if case.flavor == "gram"}
        assert rows[BoundId.SPAN_GRAM] == span_bound(c, fam, 1e13, "gram")
        assert rows[BoundId.COMBO_GRAM] == combo_bound(x, fam, c, 1e13, "gram")


class TestComboBound:
    def test_equality_case(self):
        r = combo_bound(Vector([1.0]), ONES_1D, [1, 1], math.inf, "gram")
        assert r.value == 4.0
        assert r.lhs == 4.0

    def test_zero_x(self):
        r = combo_bound(Vector([0.0, 0.0]), E2, [3, -2], 1.5, "norms")
        assert r.value == 0.0
        assert r.lhs == 0.0

    def test_orthonormal_p2(self):
        r = combo_bound(Vector([1.0, 0.0]), E2, [1, 1], 2.0, "gram")
        assert r.value == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
        assert r.lhs == 1.0

    def test_composition_identity_bitwise(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            fam = VectorFamily(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
            x = Vector(rng.normal(size=3) + 1j * rng.normal(size=3))
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            for flavor in ("gram", "norms"):
                cb = combo_bound(x, fam, c, 1.3, flavor)
                sb = span_bound(np.conj(c), fam, 1.3, flavor)
                nx = math.sqrt(float(np.abs(x.coords @ np.conj(x.coords)).real))
                assert cb.value == (nx * nx) * sb.value


def _chain_links(alphas, family):
    """refinement_chain's two links, after checking they chain: the middle link
    bounds the combination, the outer link bounds the middle term."""
    middle, outer = refinement_chain(alphas, family)
    assert (middle.bound_id, middle.flavor, outer.bound_id, outer.flavor) == (
        BoundId.REFINEMENT_CHAIN, "middle", BoundId.REFINEMENT_CHAIN, "outer"
    )
    assert middle.lhs == combination_norm_sq(alphas, family)
    assert outer.lhs == middle.value
    return middle, outer


class TestRefinementChain:
    def test_orthonormal(self):
        middle, outer = _chain_links([1, 1], E2)
        assert middle.value == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
        assert outer.value == 4.0

    def test_single_unit(self):
        middle, outer = _chain_links([1.0], VectorFamily([[1.0]]))
        assert middle.value == 1.0
        assert outer.value == 1.0

    def test_full_equality(self):
        middle, outer = _chain_links([1, 1], ONES_1D)
        assert middle.value == 4.0
        assert outer.value == 4.0
        assert middle.lhs == 4.0

    def test_chain_order_random(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            fam = VectorFamily(rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4)))
            a = rng.normal(size=6) + 1j * rng.normal(size=6)
            middle, outer = _chain_links(a, fam)
            assert middle.holds()
            assert outer.holds()

    def test_empty(self):
        middle, outer = _chain_links([], EMPTY)
        assert (middle.lhs, middle.value, outer.value) == (0.0, 0.0, 0.0)


class TestBesselSumBound:
    def test_orthonormal_p2_oracle(self):
        r = bessel_sum_bound(Vector([1.0, 0.0]), E2, 2.0)
        assert r.value == pytest.approx(THM27_ORTHO_P2, rel=1e-14)
        assert r.lhs == 1.0

    def test_zero_x(self):
        for p in (1.0, 2.0, math.inf):
            assert bessel_sum_bound(Vector([0.0, 0.0]), E2, p).value == 0.0

    def test_single_unit_equality(self):
        r = bessel_sum_bound(Vector([1.0]), VectorFamily([[1.0]]), 1.0)
        assert r.value == 1.0
        assert r.lhs == 1.0

    def test_holds_on_random(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            fam = VectorFamily(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))
            x = Vector(rng.normal(size=3) + 1j * rng.normal(size=3))
            for p in (1.0, 1.1, 2.0, 3.0, math.inf):
                assert bessel_sum_bound(x, fam, p).holds()


class TestOrthonormalBesselBound:
    def test_p_inf(self):
        r = orthonormal_bessel_bound(Vector([1.0, 0.0]), E2, math.inf)
        assert r.value == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_p1_equality(self):
        r = orthonormal_bessel_bound(Vector([1.0, 0.0]), E2, 1.0)
        assert r.value == 1.0
        assert r.lhs == 1.0

    def test_p2_oracle(self):
        r = orthonormal_bessel_bound(Vector([1.0, 1.0]), E2, 2.0)
        assert r.value == pytest.approx(ORTHO_11_P2, rel=1e-14)
        assert r.lhs == pytest.approx(2.0, rel=1e-15)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormalError):
            orthonormal_bessel_bound(Vector([1.0]), HALF_1D, 2.0)

    def test_checks_its_arguments_before_the_gram_pass(self, monkeypatch):
        """A bad p or x is rejected before the orthonormality test folds |G|."""
        def no_pass(*args):
            raise AssertionError("the Gram pass ran")

        monkeypatch.setattr(core, "_fold", no_pass)
        with pytest.raises(ExponentError):
            orthonormal_bessel_bound(Vector([1.0, 0.0]), E2, 0.5)
        with pytest.raises(DimensionError):
            orthonormal_bessel_bound(Vector([1.0, 0.0, 0.0]), E2, 2.0)
        with pytest.raises(DomainError):
            orthonormal_bessel_bound(Vector([1.0, 0.0]), np.eye(2), 2.0)

    def test_matches_general_bound(self):
        rng = np.random.default_rng(61)
        q_mat, _ = np.linalg.qr(rng.normal(size=(5, 4)))
        fam = VectorFamily(q_mat.T)
        x = Vector(rng.normal(size=5))
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            a = orthonormal_bessel_bound(x, fam, p)
            b = bessel_sum_bound(x, fam, p)
            assert a.value == pytest.approx(b.value, rel=1e-12)


class TestFrobeniusBound:
    def test_orthonormal(self):
        r = frobenius_bound(Vector([1.0, 0.0]), E2)
        assert r.value == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert r.lhs == 1.0

    def test_zero_x(self):
        assert frobenius_bound(Vector([0.0, 0.0]), E2).value == 0.0

    def test_rank_one_equality(self):
        r = frobenius_bound(Vector([1.0]), HALF_1D)
        assert r.value == 1.25
        assert r.lhs == 1.25


class TestPowerMeanBound:
    def test_p2_rank_one(self):
        r = power_mean_bound(Vector([1.0]), HALF_1D, 2.0)
        assert r.value == 1.25

    def test_p11_oracle(self):
        r = power_mean_bound(Vector([1.0]), TENTH_1D, 1.1)
        assert r.value == pytest.approx(EQ211_P11_TENTH, rel=1e-12)

    def test_n1_equality(self):
        for p in (1.2, 1.5, 2.0):
            r = power_mean_bound(Vector([1.0]), VectorFamily([[1.0]]), p)
            assert r.value == 1.0
            assert r.lhs == 1.0

    def test_p2_reproduces_frobenius_bitwise(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            fam = VectorFamily(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))
            x = Vector(rng.normal(size=3) + 1j * rng.normal(size=3))
            assert power_mean_bound(x, fam, 2.0).value == frobenius_bound(x, fam).value

    @pytest.mark.parametrize("p", [1.0, 1.0 + 1e-13, 2.5, math.inf, 0.5])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ExponentRangeError):
            power_mean_bound(Vector([1.0]), HALF_1D, p)

    def test_empty_family(self):
        for p in (1.5, 2.0):
            r = power_mean_bound(Vector([1.0]), EMPTY, p)
            assert r.lhs == 0.0
            assert r.value == 0.0


class TestBombieriBound:
    def test_orthonormal_gives_norm_sq(self):
        r = bombieri_bound(Vector([0.6, 0.8]), E2)
        assert r.value == pytest.approx(1.0, rel=1e-15)

    def test_rank_one(self):
        assert bombieri_bound(Vector([1.0]), HALF_1D).value == 1.5

    def test_scaled_x(self):
        r = bombieri_bound(Vector([2.0]), HALF_1D)
        assert r.value == 6.0
        assert r.lhs == 5.0

    def test_empty_family(self):
        r = bombieri_bound(Vector([3.0]), EMPTY)
        assert r.lhs == 0.0
        assert r.value == 0.0


class TestPowerMeanGap:
    def test_p2_pair_equality(self):
        gp = power_mean_gap([1.0, 1.0], 2.0)
        assert (gp.bound_id, gp.lhs, gp.value, gp.p) == (BoundId.POWER_MEAN_GAP, 2.0, 2.0, 2.0)

    def test_constant_sequences(self):
        for n in (1, 3, 7):
            for p in (1.3, 1.8, 2.0):
                gp = power_mean_gap([2.5] * n, p)
                assert gp.lhs == pytest.approx(gp.value, rel=1e-14)

    def test_p15_oracle(self):
        gp = power_mean_gap([1.0, 0.5], 1.5)
        assert gp.lhs == pytest.approx(PM_GAP_15[0], rel=1e-15)
        assert gp.value == pytest.approx(PM_GAP_15[1], rel=1e-15)

    def test_inequality_on_random(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            v = np.abs(rng.normal(size=rng.integers(1, 9))) * 10.0 ** rng.integers(-3, 4)
            for p in (1.01, 1.5, 2.0):
                gp = power_mean_gap(v, p)
                assert gp.lhs <= gp.value * (1 + 1e-12)

    def test_empty(self):
        gp = power_mean_gap([], 1.5)
        assert (gp.lhs, gp.value) == (0.0, 0.0)

    def test_all_zero(self):
        gp = power_mean_gap([0.0, 0.0], 1.5)
        assert (gp.lhs, gp.value) == (0.0, 0.0)

    def test_real_vector_same_as_list(self):
        assert power_mean_gap(Vector([1.0, 2.0]), 1.5) == power_mean_gap([1.0, 2.0], 1.5)

    def test_complex_dtype_with_zero_imaginary_parts_is_real(self):
        # one rule for arrays and Vectors: complex only when some imaginary part is nonzero
        want = power_mean_gap([1.0, 2.0], 1.5)
        assert power_mean_gap(np.array([1.0 + 0j, 2.0 + 0j]), 1.5) == want
        assert power_mean_gap(np.array([1.0 - 0j, 2.0 + 0j]), 1.5) == want

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            power_mean_gap([1.0, -0.5], 1.5)

    def test_rejects_complex(self):
        with pytest.raises(DomainError):
            power_mean_gap(np.array([1 + 1j]), 1.5)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ExponentRangeError):
            power_mean_gap([1.0], 1.0)


class TestBoundResult:
    def test_margin_and_rhs(self):
        r = bombieri_bound(Vector([2.0]), HALF_1D)
        assert r.rhs == r.value
        assert r.margin == r.value - r.lhs

    def test_holds_tolerance(self):
        r = bombieri_bound(Vector([1.0]), HALF_1D)
        assert r.holds()
        assert r.holds(rel_tol=0.0, abs_tol=0.0)

    @pytest.mark.parametrize("lhs, value", [(math.inf, math.inf), (1.0, math.inf), (math.inf, 1.0),
                                            (math.nan, 1.0), (1.0, math.nan), (-math.inf, 1.0)])
    def test_non_finite_side_never_holds(self, lhs, value):
        # an overflowed inf <= inf is a comparison that was never made, not a pass, at any tolerance
        r = BoundResult(BoundId.BOMBIERI, lhs, value)
        assert r.holds() is False and r.holds(rel_tol=1.0, abs_tol=1.0) is False

    def test_case_table_holds_needs_finite_sides(self):
        inf, nan = math.inf, math.nan
        keys = [(BoundId.BOMBIERI, None, None), (BoundId.FROBENIUS, None, None), (BoundId.POWER_MEAN, 2.0, None)]
        lhs, value = np.array([[1.0, inf, 2.0], [nan, 0.0, -inf]]), np.array([[1.0, inf, 1.0], [1.0, inf, 0.0]])
        table = CaseTable(keys, lhs, value)
        assert table.holds().tolist() == [[True, False, False], [False, False, False]]
        assert [[r.holds() for r in table.records(b)] for b in (0, 1)] == table.holds().tolist()

    def test_construction_and_defaults(self):
        r = BoundResult(BoundId.SPAN_GRAM, 1.0, 2.0, 1.5, "gram")
        assert r == BoundResult(bound_id=BoundId.SPAN_GRAM, lhs=1.0, value=2.0, p=1.5, flavor="gram")
        assert (r.bound_id, r.lhs, r.value, r.p, r.flavor) == (BoundId.SPAN_GRAM, 1.0, 2.0, 1.5, "gram")
        bare = BoundResult(BoundId.BOMBIERI, 1.0, 2.0)
        assert (bare.p, bare.flavor) == (None, None)
        assert bare == BoundResult(BoundId.BOMBIERI, lhs=1.0, value=2.0, p=None, flavor=None)
        assert [f.name for f in dataclasses.fields(BoundResult)] == ["bound_id", "lhs", "value", "p", "flavor"]

    def test_frozen_and_hashable(self):
        r = BoundResult(BoundId.FROBENIUS, 1.0, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.lhs = 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.extra = 1
        twin = BoundResult(BoundId.FROBENIUS, 1.0, 2.0)
        assert r == twin and hash(r) == hash(twin) and len({r, twin}) == 1
        assert r != BoundResult(BoundId.FROBENIUS, 1.0, 2.5)

    def test_repr(self):
        assert repr(BoundResult(BoundId.WEIGHTED_BESSEL, 1.0, 2.0, 2.0)) == (
            "BoundResult(bound_id=<BoundId.WEIGHTED_BESSEL: 'thm27'>, lhs=1.0, value=2.0, p=2.0, flavor=None)")

    def test_replace(self):
        r = BoundResult(BoundId.COMBO_NORMS, 1.0, 2.0, 3.0, "norms")
        wrong = dataclasses.replace(r, value=0.5 * r.lhs - 1.0)
        assert wrong == BoundResult(BoundId.COMBO_NORMS, 1.0, -0.5, 3.0, "norms") and not wrong.holds()
        assert r.value == 2.0

    def test_case_table_records_are_the_evaluators_records(self):
        x, rows = np.array([[1.0, 2.0]]), np.array([[[1.0, 0.5], [0.0, 3.0]]])
        fam = VectorFamily(rows[0], field="real")
        table = evaluate_cases([x], [rows], [np.array([[1.0, -1.0]])], [2.0])
        records = table.records(0)
        assert [(r.bound_id, r.p, r.flavor) for r in records] == table.keys and len(records) == len(table)
        assert [(r.lhs, r.value) for r in records] == list(zip(table.lhs[0].tolist(), table.value[0].tolist()))
        assert records[:2] == [bombieri_bound(x[0], fam), frobenius_bound(x[0], fam)]
        assert records[2:4] == list(refinement_chain([1.0, -1.0], fam))
        assert all(type(r) is BoundResult and type(r.lhs) is float and type(r.value) is float for r in records)


def _ingredient_columns(ing) -> dict:
    """Every cached column of the ingredients, as uint64 bit patterns."""
    names = ("t", "nx", "nx2", "c", "norms", "norms_sq_total", "bessel_sum", "c_sq", "combination_norm_sq",
             "weighted_inner_sum_sq")
    columns = {name: getattr(ing, name) for name in names}
    columns.update({"sq_norms[0]": ing.sq_norms[0], "sq_norms[1]": ing.sq_norms[1]})
    return {name: np.ascontiguousarray(a).view(np.uint64) for name, a in columns.items()}


def _assert_same_bits(got: dict, expected: dict):
    assert got.keys() == expected.keys()
    for name in got:
        assert got[name].shape == expected[name].shape and np.array_equal(got[name], expected[name]), name


class TestIngredientsRepresentation:
    """_Ingredients.of and _Ingredients.stack build one representation: one input reads every column
    in the same bits from either, and a list of stacks reads its inputs' columns joined in order."""

    rng = np.random.default_rng(71)
    INPUTS = {
        "complex": (rng.normal(size=3) + 1j * rng.normal(size=3),
                    rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)),
                    rng.normal(size=5) - 1j * rng.normal(size=5)),
        "real": (rng.normal(size=2), rng.normal(size=(4, 2)), rng.normal(size=4)),
        "n0": (rng.normal(size=3), np.zeros((0, 3)), np.zeros(0)),
        "empty c": (rng.normal(size=2) + 1j, np.zeros((0, 2)), []),
    }

    @pytest.mark.parametrize("name", INPUTS)
    def test_one_input_reads_the_same_bits_either_way(self, name):
        x, rows, c = self.INPUTS[name]
        single = _Ingredients.of(VectorFamily(rows, dim=len(x)), x, c)
        stacked = _Ingredients.stack([np.asarray(x)[None]], [rows[None]], [np.asarray(c)[None]])
        _assert_same_bits(_ingredient_columns(stacked), _ingredient_columns(single))

    def test_two_stacks_of_other_dims_join_their_inputs_in_order(self):
        rng = np.random.default_rng(72)
        draws = [(rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d)),
                  rng.normal(size=(2, 4, d)) + 1j * rng.normal(size=(2, 4, d)), rng.normal(size=(2, 4)))
                 for d in (3, 5)]
        stacked = _ingredient_columns(_Ingredients.stack(*map(list, zip(*draws))))
        singles = [_ingredient_columns(_Ingredients.of(VectorFamily(rows[b]), x[b], c[b]))
                   for x, rows, c in draws for b in range(2)]
        _assert_same_bits(stacked, {name: np.concatenate([one[name] for one in singles]) for name in stacked})
