"""Property-based checks: randomized inputs, structural identities, soundness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grambounds import (
    FamilySpec,
    Vector,
    VectorFamily,
    bessel_sum,
    bessel_sum_bound,
    bombieri_bound,
    combo_bound,
    conjugate_exponent,
    frobenius_bound,
    gap_closed_form,
    gram,
    gram_entry_qnorm,
    inner,
    max_row_abs_sum,
    norm,
    orthonormal_bessel_bound,
    power_mean_bound,
    power_mean_factor,
    power_mean_gap,
    random_family,
    random_orthonormal_family,
    seq_pnorm,
    span_bound,
    verify_all,
)

from helpers import check_schwarz_chain

SLOW = settings(max_examples=60, deadline=None)
FAST = settings(max_examples=200, deadline=None)

seeds = st.integers(min_value=0, max_value=2**63 - 1)
dims = st.integers(min_value=1, max_value=8)
sizes = st.integers(min_value=0, max_value=10)
fields = st.sampled_from(["real", "complex"])
scales = st.sampled_from([0.125, 1.0, 8.0])
p_any = st.sampled_from([1.0, 1.1, 1.5, 2.0, 3.0, math.inf])
p_power_mean = st.floats(min_value=1.000001, max_value=2.0, allow_nan=False)


def draw_triple(dim, n, field, scale, seed):
    return random_family(FamilySpec(dim=dim, n=n, field=field, scale=scale, seed=seed))


class TestInnerProductProperties:
    @SLOW
    @given(dims, seeds)
    def test_conjugate_symmetry_bitwise(self, dim, seed):
        rng = np.random.default_rng(seed)
        x = Vector(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        y = Vector(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        z1, z2 = inner(x, y), inner(y, x)
        assert z1.real == z2.real
        assert z1.imag == -z2.imag

    @SLOW
    @given(dims, fields, scales, seeds)
    def test_cauchy_schwarz(self, dim, field, scale, seed):
        x, fam, _ = draw_triple(dim, 1, field, scale, seed)
        y = fam.vectors[0]
        assert abs(inner(x, y)) <= norm(x) * norm(y) * (1 + 1e-12)

    @SLOW
    @given(dims, sizes, fields, seeds)
    def test_schwarz_chain_on_families(self, dim, n, field, seed):
        _, fam, _ = draw_triple(dim, n, field, 1.0, seed)
        assert check_schwarz_chain(fam)


class TestExponentProperties:
    @FAST
    @given(st.floats(min_value=1.0, max_value=50.0, allow_nan=False))
    def test_conjugate_involution(self, p):
        back = conjugate_exponent(conjugate_exponent(p))
        assert back == pytest.approx(p, rel=1e-9)

    @SLOW
    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=10), p_any)
    def test_pnorm_between_max_and_sum(self, values, p):
        v = seq_pnorm(values, p)
        assert seq_pnorm(values, math.inf) <= v * (1 + 1e-12)
        assert v <= seq_pnorm(values, 1.0) * (1 + 1e-12)

    @SLOW
    @given(dims, st.integers(min_value=1, max_value=8), fields, seeds)
    def test_qnorm_non_increasing(self, dim, n, field, seed):
        _, fam, _ = draw_triple(dim, n, field, 1.0, seed)
        g = gram(fam)
        vals = [gram_entry_qnorm(g, q) for q in (1.0, 1.5, 2.0, 5.0, math.inf)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a * (1 + 1e-12)


class TestBoundSoundness:
    @SLOW
    @given(dims, sizes, fields, scales, seeds)
    def test_every_case_holds(self, dim, n, field, scale, seed):
        x, fam, c = draw_triple(dim, n, field, scale, seed)
        for case in verify_all(x, fam, c).cases:
            assert case.holds(), (case.bound_id, case.p, case.flavor, case.margin)

    @SLOW
    @given(dims, st.integers(min_value=1, max_value=10), fields, seeds, p_any)
    def test_gram_flavor_dominated_by_norms(self, dim, n, field, seed, p):
        _, fam, c = draw_triple(dim, n, field, 1.0, seed)
        g = span_bound(c, fam, p, "gram")
        nm = span_bound(c, fam, p, "norms")
        assert g.value <= nm.value * (1 + 1e-12)

    @SLOW
    @given(dims, st.integers(min_value=1, max_value=10), fields, seeds, p_any)
    def test_combo_is_scaled_span_bitwise(self, dim, n, field, seed, p):
        x, fam, c = draw_triple(dim, n, field, 1.0, seed)
        nx = norm(x)
        for flavor in ("gram", "norms"):
            cb = combo_bound(x, fam, c, p, flavor)
            sb = span_bound(np.conj(c), fam, p, flavor)
            assert cb.value == (nx * nx) * sb.value

    @SLOW
    @given(dims, st.integers(min_value=1, max_value=10), fields, seeds, p_any)
    def test_bessel_bound_squares_to_combo(self, dim, n, field, seed, p):
        from grambounds import inner_each

        x, fam, _ = draw_triple(dim, n, field, 1.0, seed)
        c_star = np.conj(inner_each(x, fam))
        tb = bessel_sum_bound(x, fam, p)
        cb = combo_bound(x, fam, c_star, p, "gram")
        assert tb.value * tb.value == pytest.approx(cb.value, rel=1e-12, abs=1e-300)

    @SLOW
    @given(dims, sizes, fields, seeds)
    def test_power_mean_at_two_is_frobenius(self, dim, n, field, seed):
        x, fam, _ = draw_triple(dim, n, field, 1.0, seed)
        assert power_mean_bound(x, fam, 2.0).value == frobenius_bound(x, fam).value

    @SLOW
    @given(st.integers(min_value=1, max_value=8), seeds, fields, p_any)
    def test_orthonormal_specialization(self, n, seed, field, p):
        fam = random_orthonormal_family(8, n, field=field, seed=seed)
        rng = np.random.default_rng(seed ^ 0x5EED)
        x = Vector(
            rng.normal(size=8) + (1j * rng.normal(size=8) if field == "complex" else 0.0)
        )
        a = orthonormal_bessel_bound(x, fam, p)
        b = bessel_sum_bound(x, fam, p)
        assert a.value == pytest.approx(b.value, rel=1e-12, abs=1e-300)
        assert a.lhs == b.lhs

    @SLOW
    @given(dims, sizes, fields, seeds, st.sampled_from([0.5, 2.0, 4.0]))
    def test_scaling_covariance_bitwise(self, dim, n, field, seed, t):
        x, fam, _ = draw_triple(dim, n, field, 1.0, seed)
        tx = Vector(t * x.coords)
        t2 = t * t
        assert bessel_sum(tx, fam) == t2 * bessel_sum(x, fam)
        assert bombieri_bound(tx, fam).value == t2 * bombieri_bound(x, fam).value
        assert frobenius_bound(tx, fam).value == t2 * frobenius_bound(x, fam).value
        if n:
            assert (
                power_mean_bound(tx, fam, 1.5).value
                == t2 * power_mean_bound(x, fam, 1.5).value
            )

    @SLOW
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=0, max_size=12),
        p_power_mean,
    )
    def test_power_mean_gap_holds(self, values, p):
        gp = power_mean_gap(values, p)
        assert gp.lhs <= gp.value * (1 + 1e-12)


class TestComparisonProperties:
    @FAST
    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        p_power_mean,
    )
    def test_closed_form_matches_factors(self, b, p):
        f = gap_closed_form(b, p)
        g = gram(VectorFamily([[1.0], [b]]))
        direct = power_mean_factor(g, p) - max_row_abs_sum(g)
        assert abs(f - direct) <= 1e-10 * max(1.0, abs(f))

    @FAST
    @given(p_power_mean)
    def test_zero_on_b_one_line(self, p):
        assert abs(gap_closed_form(1.0, p)) <= 1e-12

    @FAST
    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_p2_closed_form(self, b):
        assert abs(gap_closed_form(b, 2.0) - (b * b - b)) <= 1e-14


class TestGramProperties:
    @SLOW
    @given(dims, st.integers(min_value=1, max_value=10), fields, seeds)
    def test_quad_form_nonnegative(self, dim, n, field, seed):
        _, fam, c = draw_triple(dim, n, field, 1.0, seed)
        g = gram(fam).entries
        q = complex(c.conj() @ g @ c)  # c* G c
        slack = 1e-10 * float((np.abs(c) ** 2).sum()) * float(np.max(g.real.diagonal(), initial=0.0))
        assert abs(q.imag) <= slack
        assert q.real >= -slack

    @SLOW
    @given(dims, sizes, fields, seeds)
    def test_gram_exactly_hermitian(self, dim, n, field, seed):
        _, fam, _ = draw_triple(dim, n, field, 1.0, seed)
        g = gram(fam).entries
        assert np.array_equal(g, g.conj().T)
