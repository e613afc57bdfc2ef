"""Exponent handling and the p-norm / q-norm factors."""

import math
import reprlib
import sys
from fractions import Fraction

import numpy as np
import pytest

from grambounds import (
    DomainError,
    ExponentError,
    ExponentRangeError,
    VectorFamily,
    bessel_sum_bound,
    conjugate_exponent,
    gram,
    gram_entry_qnorm,
    max_row_abs_sum,
    power_mean_exponent,
    seq_pnorm,
    verify_all,
    verify_corpus,
)

from helpers import run_fresh

RANK_ONE_HALF = gram(VectorFamily([[1.0], [0.5]]))
RANK_ONE_TENTH = gram(VectorFamily([[1.0], [0.1]]))


class TestConjugateExponent:
    @pytest.mark.parametrize(
        "p,q",
        [
            (2.0, 2.0),
            (math.inf, 1.0),
            (3.0, 1.5),
            (1.0, math.inf),
            (1.5, 3.0),
        ],
    )
    def test_values(self, p, q):
        assert conjugate_exponent(p) == q

    def test_snaps_near_one(self):
        assert conjugate_exponent(1.0 + 1e-13) == math.inf
        assert conjugate_exponent(1.0 - 1e-13) == math.inf

    def test_conjugate_within_snap_of_one_snaps_to_one(self):
        # q = p/(p-1) is snapped as p is: 1e13 has q = 1.0000000000001, 1e12 has q - 1 just above SNAP_TOL
        assert conjugate_exponent(1e13) == 1.0
        assert conjugate_exponent(1e12) > 1.0

    def test_rejects_below_one(self):
        with pytest.raises(ExponentError):
            conjugate_exponent(0.5)

    def test_rejects_nan(self):
        with pytest.raises(ExponentError):
            conjugate_exponent(math.nan)

    def test_rejects_non_numeric(self):
        with pytest.raises(ExponentError):
            conjugate_exponent("two")

    def test_involution_close(self):
        for p in (1.0, 1.1, 1.5, 2.0, 3.0, 7.25, math.inf):
            back = conjugate_exponent(conjugate_exponent(p))
            if math.isinf(p):
                assert math.isinf(back)
            else:
                assert back == pytest.approx(p, rel=1e-9)


class TestPowerMeanExponent:
    @pytest.mark.parametrize("p", [1.0 + 1e-9, 1.1, 1.5, 2.0])
    def test_accepts(self, p):
        assert power_mean_exponent(p) == p

    @pytest.mark.parametrize("p", [1.0, 1.0 + 1e-13, 2.5, 0.5, math.inf, math.nan])
    def test_rejects(self, p):
        with pytest.raises(ExponentRangeError):
            power_mean_exponent(p)

    def test_error_satisfies_both_contracts(self):
        with pytest.raises(ExponentError):
            power_mean_exponent(3.0)
        with pytest.raises(DomainError):
            power_mean_exponent(3.0)


class TestSeqPnorm:
    def test_euclidean(self):
        assert seq_pnorm([3.0, 4.0], 2.0) == 5.0

    def test_sum(self):
        assert seq_pnorm([1.0, 1.0], 1.0) == 2.0

    def test_max(self):
        assert seq_pnorm([2.0, -3.0], math.inf) == 3.0

    def test_empty(self):
        assert seq_pnorm([], 2.0) == 0.0
        assert seq_pnorm([], math.inf) == 0.0

    def test_complex_moduli(self):
        assert seq_pnorm([3 + 4j], 1.0) == 5.0

    def test_all_zero(self):
        assert seq_pnorm([0.0, 0.0], 1.5) == 0.0

    def test_overflow_safe_large_exponent(self):
        # naive powering of 1e200 to the 11th power overflows float64
        v = seq_pnorm([1e200, 5e199], 11.0)
        assert math.isfinite(v)
        assert v == pytest.approx(1e200 * (1.0 + 0.5**11) ** (1.0 / 11.0), rel=1e-14)

    def test_overflow_safe_near_one_conjugate(self):
        q = conjugate_exponent(1.1)  # = 11
        assert math.isfinite(seq_pnorm([1e250, 1e250], q))

    def test_ordering_in_p(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            c = rng.normal(size=8) * 10.0 ** rng.integers(-2, 3)
            lo = seq_pnorm(c, math.inf)
            hi = seq_pnorm(c, 1.0)
            for p in (1.3, 2.0, 4.0, 10.0):
                mid = seq_pnorm(c, p)
                assert lo <= mid * (1 + 1e-12)
                assert mid <= hi * (1 + 1e-12)

    def test_rejects_nan_entries(self):
        with pytest.raises(DomainError):
            seq_pnorm([1.0, math.nan], 2.0)

    def test_rejects_2d(self):
        from grambounds import ShapeError

        with pytest.raises(ShapeError):
            seq_pnorm(np.ones((2, 2)), 2.0)


class TestGramEntryQnorm:
    def test_identity_frobenius(self):
        g = gram(VectorFamily(np.eye(2)))
        assert gram_entry_qnorm(g, 2.0) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_rank_one_sum(self):
        assert gram_entry_qnorm(RANK_ONE_HALF, 1.0) == pytest.approx(2.25, rel=1e-15)

    def test_rank_one_max(self):
        assert gram_entry_qnorm(RANK_ONE_HALF, math.inf) == 1.0

    def test_empty(self):
        from grambounds import VectorFamily as VF

        assert gram_entry_qnorm(gram(VF([], dim=1)), 2.0) == 0.0

    def test_accepts_raw_hermitian_array(self):
        assert gram_entry_qnorm(np.eye(2), math.inf) == 1.0

    def test_non_increasing_in_q(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            mat = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
            g = gram(VectorFamily(mat))
            qs = (1.0, 1.5, 2.0, 4.0, math.inf)
            vals = [gram_entry_qnorm(g, q) for q in qs]
            for a, b in zip(vals, vals[1:]):
                assert b <= a * (1 + 1e-12)


@pytest.mark.skipif(sys.platform != "linux", reason="the peak RSS is read from /proc/self/status")
def test_peak_rss_of_the_norms_of_a_given_gram_matrix():
    print(run_fresh("""
# A given complex (2100, 2100) G: each norm copies it (2 n² doubles) and checks it one row
# block at a time.  Whole-matrix checks held about 6 n² doubles, about 309 MiB peak RSS.
import numpy as np
from grambounds import gram_entry_qnorm, max_row_abs_sum
rng = np.random.default_rng(2100)
y = rng.standard_normal((2100, 3)) + 1j * rng.standard_normal((2100, 3))
g = y @ y.conj().T
qnorm, row = gram_entry_qnorm(g, 3.0), max_row_abs_sum(g)
peak = peak_rss_mib()
print(f"n=2100: q-norm {qnorm:.6g}, row sum {row:.6g}, peak RSS {peak:.0f} MiB")
assert peak < 250, peak
"""))


class TestMaxRowAbsSum:
    def test_identity(self):
        assert max_row_abs_sum(gram(VectorFamily(np.eye(3)))) == 1.0

    def test_rank_one_half(self):
        assert max_row_abs_sum(RANK_ONE_HALF) == 1.5

    def test_rank_one_tenth(self):
        assert max_row_abs_sum(RANK_ONE_TENTH) == pytest.approx(1.1, rel=1e-15)

    def test_empty(self):
        assert max_row_abs_sum(gram(VectorFamily([], dim=2))) == 0.0

    def test_below_entrywise_1norm(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            mat = rng.normal(size=(4, 4))
            g = gram(VectorFamily(mat))
            assert max_row_abs_sum(g) <= gram_entry_qnorm(g, 1.0) * (1 + 1e-12)


_BAD_EXPONENTS = [True, False, "2", "inf", None, [2.0], 10**400, -(10**400), math.nan, 0.5]
_EXPONENT_ARGS = [  # (name, call on the bad exponent); each raises an ExponentError
    ("conjugate_exponent", conjugate_exponent),
    ("seq_pnorm", lambda p: seq_pnorm([1.0, 2.0], p)),
    ("power_mean_exponent", power_mean_exponent),
    ("bessel_sum_bound", lambda p: bessel_sum_bound([1.0], VectorFamily([[1.0], [0.5]]), p)),
    ("verify_all_p_list", lambda p: verify_all([1.0], VectorFamily([[1.0], [0.5]]), [1.0, 1.0], p_list=[2.0, p])),
    ("verify_corpus_p_list", lambda p: verify_corpus([], p_list=[2.0, p])),
]


class TestBadExponents:
    @pytest.mark.parametrize(
        "call, p",
        [pytest.param(call, p, id=f"{name}-{reprlib.repr(p)}")
         for name, call in _EXPONENT_ARGS for p in _BAD_EXPONENTS],
    )
    def test_rejected(self, call, p):
        # bools and text are not numbers, and an int beyond float range is not infinity
        with pytest.raises(ExponentError):
            call(p)

    @pytest.mark.parametrize("p", [2, np.int64(2), np.float64(2.0), Fraction(2), 2.0])
    def test_real_numbers_of_any_type(self, p):
        assert conjugate_exponent(p) == 2.0 and type(conjugate_exponent(p)) is float
        assert power_mean_exponent(p) == 2.0 and type(power_mean_exponent(p)) is float
        assert seq_pnorm([3.0, 4.0], p) == 5.0
