"""Random input generation and the batch inequality checker."""

import itertools
import math

import numpy as np
import pytest

from grambounds import (
    BoundId,
    DimensionError,
    DomainError,
    ExponentError,
    ExponentRangeError,
    FamilySpec,
    GramMatrix,
    ShapeError,
    STANDARD_P_LIST,
    Vector,
    VectorFamily,
    bessel_sum,
    bessel_sum_bound,
    bombieri_bound,
    combo_bound,
    dominance_search,
    evaluate_cases,
    frobenius_bound,
    gap_closed_form,
    gram,
    gram_entry_qnorm,
    inner,
    inner_each,
    max_row_abs_sum,
    norm,
    orthonormal_bessel_bound,
    power_mean_bound,
    power_mean_exponent,
    power_mean_factor,
    power_mean_gap,
    random_family,
    random_orthonormal_family,
    random_specs,
    refinement_chain,
    seq_pnorm,
    sign_scan,
    span_bound,
    verify_all,
    verify_corpus,
    weighted_inner_sum_sq,
)
from grambounds import CaseTable, bounds, verify
from grambounds.cli import case_row, compute_rows

from helpers import check_schwarz_chain


class TestFamilySpec:
    def test_defaults(self):
        s = FamilySpec(dim=3, n=5)
        assert s.field == "real"
        assert s.scale == 1.0
        assert s.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dim=0, n=1),
            dict(dim=17, n=1),
            dict(dim=1, n=-1),
            dict(dim=1, n=33),
            dict(dim=1, n=1, field="quaternion"),
            dict(dim=1, n=1, scale=0.0),
            dict(dim=1, n=1, scale=-2.0),
            dict(dim=1, n=1, scale=math.inf),
            dict(dim=1, n=1, seed=-1),
            dict(dim=1, n=1, seed=2**64),
            dict(dim=2.5, n=1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            FamilySpec(**kwargs)

    def test_frozen(self):
        s = FamilySpec(dim=2, n=2)
        with pytest.raises(AttributeError):
            s.dim = 4


# Scales that are no positive finite real; FamilySpec and random_specs share one check.
_BAD_SCALES = ["a", "1.5", None, 1j, [1.0], 0.0, -2.0, math.inf, math.nan]


class TestScaleCheck:
    @pytest.mark.parametrize("scale", _BAD_SCALES)
    def test_family_spec(self, scale):
        with pytest.raises(DomainError, match=r"scale must be a real number in \(0, inf\)"):
            FamilySpec(1, 1, scale=scale)

    @pytest.mark.parametrize("name", ["scale_low", "scale_high"])
    @pytest.mark.parametrize("scale", _BAD_SCALES)
    def test_random_specs(self, name, scale):
        with pytest.raises(DomainError, match=rf"{name} must be a real number in \(0, inf\)"):
            random_specs(5, 1, **{name: scale})

    @pytest.mark.parametrize("scale", [1, 2.5, np.float64(1e-30), np.int64(3), 1e30])
    def test_accepts_real_numbers(self, scale):
        assert FamilySpec(1, 1, scale=scale).scale == float(scale)
        assert type(FamilySpec(1, 1, scale=scale).scale) is float
        assert len(list(random_specs(3, 1, scale_low=scale, scale_high=scale))) == 3


class TestRandomFamily:
    def test_shapes(self):
        x, fam, c = random_family(FamilySpec(dim=4, n=6, field="complex", seed=42))
        assert x.dim == 4
        assert fam.size == 6 and fam.dim == 4
        assert c.shape == (6,)

    def test_degenerate_empty(self):
        x, fam, c = random_family(FamilySpec(dim=1, n=0, seed=7))
        assert x.dim == 1
        assert fam.size == 0
        assert c.shape == (0,)

    def test_bit_exact_determinism(self):
        spec = FamilySpec(dim=5, n=3, field="complex", scale=2.5, seed=99)
        x1, f1, c1 = random_family(spec)
        x2, f2, c2 = random_family(spec)
        assert np.array_equal(x1.coords, x2.coords)
        assert np.array_equal(f1.vectors, f2.vectors)
        assert np.array_equal(c1, c2)

    def test_real_spec_gives_real_data(self):
        x, fam, c = random_family(FamilySpec(dim=3, n=4, field="real", seed=1))
        assert np.all(x.coords.imag == 0.0)
        assert np.all(fam.vectors.imag == 0.0)
        assert np.all(np.asarray(c).imag == 0.0)

    def test_scale_applies_to_coordinates_not_coeffs(self):
        base = FamilySpec(dim=3, n=4, seed=11, scale=1.0)
        big = FamilySpec(dim=3, n=4, seed=11, scale=4.0)
        x1, f1, c1 = random_family(base)
        x2, f2, c2 = random_family(big)
        assert np.array_equal(x2.coords, 4.0 * x1.coords)
        assert np.array_equal(f2.vectors, 4.0 * f1.vectors)
        assert np.array_equal(c1, c2)


class TestRandomOrthonormalFamily:
    def test_gram_is_identity(self):
        for field in ("real", "complex"):
            fam = random_orthonormal_family(6, 4, field=field, seed=3)
            g = gram(fam).entries
            assert np.max(np.abs(g - np.eye(4))) <= 1e-10

    def test_rejects_n_above_dim(self):
        with pytest.raises(DomainError):
            random_orthonormal_family(3, 4)

    def test_rejects_zero_n(self):
        with pytest.raises(DomainError):
            random_orthonormal_family(3, 0)

    def test_rejects_unknown_field(self):
        with pytest.raises(DomainError, match="field must be 'real' or 'complex'"):
            random_orthonormal_family(3, 2, field="quaternion")

    def test_deterministic(self):
        a = random_orthonormal_family(5, 5, seed=8)
        b = random_orthonormal_family(5, 5, seed=8)
        assert np.array_equal(a.vectors, b.vectors)


class TestRandomSpecs:
    def test_count_and_ranges(self):
        specs = list(random_specs(200, master_seed=4, dim_max=6, n_max=9))
        assert len(specs) == 200
        assert all(1 <= s.dim <= 6 for s in specs)
        assert all(0 <= s.n <= 9 for s in specs)
        assert all(0.1 <= s.scale <= 10.0 for s in specs)
        assert {s.field for s in specs} == {"real", "complex"}

    def test_deterministic(self):
        a = list(random_specs(50, master_seed=21))
        b = list(random_specs(50, master_seed=21))
        assert a == b

    def test_single_field(self):
        specs = list(random_specs(30, master_seed=9, field="complex"))
        assert all(s.field == "complex" for s in specs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(count=-1),
            dict(count=2.5),
            dict(master_seed=-1),
            dict(dim_max=0),
            dict(dim_max=17),
            dict(n_max=-1),
            dict(n_max=33),
            dict(field="quaternion"),
            dict(scale_low=0.0),
            dict(scale_low=2.0, scale_high=1.0),
            dict(scale_high=math.inf),
            dict(scale_low=math.nan),
        ],
    )
    def test_rejects_bad_arguments_on_the_call(self, kwargs):
        with pytest.raises(DomainError):
            random_specs(**(dict(count=5, master_seed=1) | kwargs))  # the call raises, before any next()

    def test_caps_are_those_of_family_spec(self):
        specs = list(random_specs(200, master_seed=6, dim_max=16, n_max=32))
        assert max(s.dim for s in specs) == 16 and max(s.n for s in specs) == 32
        assert list(random_specs(0, master_seed=6, dim_max=16, n_max=32)) == []


class TestEvaluateCases:
    def test_case_count_full_p_list(self):
        x, fam, c = random_family(FamilySpec(dim=4, n=5, field="complex", seed=13))
        cases = evaluate_cases(x, fam, c, STANDARD_P_LIST)
        # 4 p-free cases, 5 per p value, plus 2 extra for each p in (1, 2]
        assert len(cases) == 4 + 6 * 5 + 3 * 2

    def test_case_order_is_stable(self):
        x, fam, c = random_family(FamilySpec(dim=2, n=3, seed=17))
        ids = [case.bound_id for case in evaluate_cases(x, fam, c, [2.0])]
        assert ids == [
            "bombieri",
            "cor28",
            "cor22_chain",
            "cor22_chain",
            "span_gram",
            "combo_gram",
            "span_norms",
            "combo_norms",
            "thm27",
            "eq211",
            "power_mean",
        ]

    def test_duplicate_p_collapsed(self):
        x, fam, c = random_family(FamilySpec(dim=2, n=2, seed=19))
        once = evaluate_cases(x, fam, c, [2.0])
        twice = evaluate_cases(x, fam, c, [2.0, 2.0, 2])
        assert once == twice


class TestVerifyAll:
    def test_orthonormal_all_pass(self):
        fam = random_orthonormal_family(6, 4, field="complex", seed=23)
        rng = np.random.default_rng(24)
        x = Vector(rng.normal(size=6) + 1j * rng.normal(size=6))
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        report = verify_all(x, fam, c)
        assert report.n_fail == 0
        assert report.n_pass == report.n_cases
        bombieri = [case for case in report.cases if case.bound_id == "bombieri"]
        nx = norm(x)
        assert bombieri[0].rhs == pytest.approx(nx * nx, rel=1e-12)

    def test_empty_family_all_zero(self):
        x = Vector([1.0, 2.0])
        fam = VectorFamily([], dim=2)
        report = verify_all(x, fam, [])
        assert report.n_fail == 0
        assert all(case.lhs == 0.0 and case.rhs == 0.0 for case in report.cases)

    def test_report_totals_consistent(self):
        x, fam, c = random_family(FamilySpec(dim=3, n=6, field="complex", seed=29))
        report = verify_all(x, fam, c)
        assert report.n_pass + report.n_fail == report.n_cases
        assert report.worst_margin_case is not None
        worst = min(case.margin for case in report.cases)
        assert report.worst_margin_case.margin == worst
        assert report.failures == ()

    def test_strict_tolerance_flags_rounding(self):
        # with zero slack, ulp-level wobble on equality cases becomes visible
        x, fam, c = random_family(FamilySpec(dim=2, n=4, seed=31, scale=5.0))
        report = verify_all(x, fam, c, rel_tol=0.0, abs_tol=0.0)
        assert report.n_pass + report.n_fail == report.n_cases


class TestTightestCase:
    """At coordinate scale 1e100 the first case, bombieri, compares inf with inf
    (margin NaN); the tightest case must be a compared one, not that NaN."""

    SPEC = FamilySpec(4, 5, seed=3, scale=1e100)

    def test_nan_margins_skipped(self):
        x, fam, c = random_family(self.SPEC)
        with np.errstate(over="ignore", invalid="ignore"):
            report = verify_all(x, fam, c)
            result = verify_corpus([self.SPEC])
        assert math.isnan(report.cases[0].margin)
        finite = [case.margin for case in report.cases if not math.isnan(case.margin)]
        assert math.isfinite(report.worst_margin_case.margin)
        assert report.worst_margin_case.margin == min(finite)
        assert result.worst == (self.SPEC, report.worst_margin_case)


class TestPowerMeanDomain:
    """The eq211 p-domain (1, 2] is one rule: an exponent counts as 1 exactly
    when _normalize_exponent snaps it to 1."""

    P_KEPT = 1.0 + 4504 * 2.0**-52  # prints as 1.000000000001, just past SNAP_TOL
    P_SNAPPED = 1.0 + 4503 * 2.0**-52  # within SNAP_TOL of 1

    def test_smallest_unsnapped_p_is_in_domain(self):
        x, fam, c = random_family(FamilySpec(dim=4, n=5, field="complex", seed=7))
        cases = [case for case in evaluate_cases(x, fam, c, [self.P_KEPT]) if case.p == self.P_KEPT]
        eq211, gap = [case for case in cases if case.bound_id in ("eq211", "power_mean")]
        assert (eq211.bound_id, gap.bound_id) == ("eq211", "power_mean")
        assert eq211.holds() and gap.holds()
        assert power_mean_bound(x, fam, self.P_KEPT) == eq211
        assert power_mean_gap(np.abs(inner_each(x, fam)), self.P_KEPT) == gap

    def test_snapped_p_is_rejected(self):
        x, fam, c = random_family(FamilySpec(dim=4, n=5, field="complex", seed=7))
        for call in (power_mean_exponent, lambda p: power_mean_bound(x, fam, p), lambda p: power_mean_gap([1.0], p)):
            with pytest.raises(ExponentRangeError):
                call(self.P_SNAPPED)
        ids = {case.bound_id for case in evaluate_cases(x, fam, c, [self.P_SNAPPED])}
        assert not ids & {"eq211", "power_mean"}


class TestVerifyCorpus:
    def test_small_corpus_clean(self):
        result = verify_corpus(random_specs(150, master_seed=37))
        assert result.n_specs == 150
        assert result.n_fail == 0
        assert result.failures == ()
        assert result.n_pass == result.n_cases
        assert sum(result.cases_by_id.values()) == result.n_cases
        assert result.fails_by_id == {}
        assert result.worst is not None

    def test_on_case_sees_every_case(self):
        seen = []
        result = verify_corpus(
            random_specs(10, master_seed=41), on_case=lambda spec, case: seen.append(case)
        )
        assert len(seen) == result.n_cases

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-9, "1e-10", None, 1j])
    def test_tolerance_checked_on_the_call(self, name, value):
        # NaN would fail every case and inf pass every case; an empty stream is checked too
        spec = FamilySpec(dim=2, n=2, seed=1)
        for call in (lambda: verify_corpus([spec], **{name: value}), lambda: verify_corpus([], **{name: value}),
                     lambda: verify_all(*random_family(spec), **{name: value})):
            with pytest.raises(DomainError, match=rf"{name} must be a real number in \[0, inf\)"):
                call()

    def test_tolerance_accepts_zero_and_integers(self):
        spec = FamilySpec(dim=2, n=2, seed=1)
        assert verify_corpus([spec], rel_tol=0, abs_tol=1).n_specs == 1
        assert verify_all(*random_family(spec), rel_tol=0, abs_tol=1).rel_tol == 0.0

    @pytest.mark.parametrize("p_list", [[0.5], [2.0, "a"], [math.nan]])
    def test_exponents_checked_on_the_call(self, p_list):
        with pytest.raises(ExponentError):
            verify_corpus([], p_list=p_list)

    def test_exponents_read_once(self, monkeypatch):
        # an iterator of exponents serves every chunk and every n, duplicates collapsed
        monkeypatch.setattr(verify, "_CHUNK", 3)
        specs = list(random_specs(20, master_seed=5, dim_max=3, n_max=3))
        seen, want = [], []
        got = verify_corpus(specs, p_list=iter([1.5, 3.0, 1.5]), on_case=lambda s, case: seen.append(case))
        assert got == verify_corpus(specs, p_list=[1.5, 3.0], on_case=lambda s, case: want.append(case))
        assert seen == want and len(seen) == got.n_cases > 0

    def test_bessel_sum_matches_case_lhs(self):
        spec = FamilySpec(dim=3, n=4, field="complex", seed=43)
        x, fam, c = random_family(spec)
        report = verify_all(x, fam, c, [2.0])
        bombieri = [case for case in report.cases if case.bound_id == "bombieri"][0]
        assert bombieri.lhs == bessel_sum(x, fam)


class TestCheckSchwarzChain:
    def test_orthonormal(self):
        assert check_schwarz_chain(random_orthonormal_family(4, 3, seed=47))

    def test_collinear_equality(self):
        assert check_schwarz_chain(VectorFamily([[1.0], [0.5]]))

    def test_random_complex(self):
        rng = np.random.default_rng(53)
        fam = VectorFamily(rng.normal(size=(10, 8)) + 1j * rng.normal(size=(10, 8)))
        assert check_schwarz_chain(fam)

    def test_empty(self):
        assert check_schwarz_chain(VectorFamily([], dim=3))


def _pn(v, p):
    """Plain sequence p-norm of |v|; max at p = inf, 0 for an empty v."""
    a = np.abs(np.asarray(v))
    if a.size == 0:
        return 0.0
    if math.isinf(p):
        return float(a.max())
    return float(np.sum(a**p) ** (1.0 / p))


def oracle_cases(x, fam, c, p_list, *, gap=True, orthonormal=False):
    """Every case recomputed from raw coordinates with plain numpy.

    Returns {(bound_id, p, flavor): (lhs, rhs)}.  Independent of the package
    arithmetic: complex matmuls instead of real dot products, no shared
    ingredients, no max-factoring in the p-norms.
    """
    xv, y = np.asarray(x.coords), fam.vectors
    n = y.shape[0]
    t = y.conj() @ xv  # t_i = (x, y_i)
    g = y @ y.conj().T  # G[i, j] = (y_i, y_j)
    nx2 = float(np.sum(np.abs(xv) ** 2))
    bessel = float(np.sum(np.abs(t) ** 2))
    norms = np.sqrt(np.sum(np.abs(y) ** 2, axis=1))
    row = float(np.abs(g).sum(axis=1).max()) if n else 0.0
    out = {
        ("bombieri", None, None): (bessel, nx2 * row),
        ("cor28", None, None): (bessel, nx2 * _pn(g.ravel(), 2.0)),
    }
    if c is not None:
        comb = float(np.sum(np.abs(c @ y) ** 2))
        weighted = abs(complex(np.sum(c * t))) ** 2
        c2 = float(np.sum(np.abs(c) ** 2))
        out[("cor22_chain", None, "middle")] = (comb, c2 * _pn(g.ravel(), 2.0))
        out[("cor22_chain", None, "outer")] = (c2 * _pn(g.ravel(), 2.0), c2 * float(np.sum(norms**2)))
    for p in p_list:
        q = math.inf if p == 1.0 else 1.0 if math.isinf(p) else p / (p - 1.0)
        gq, nq = _pn(g.ravel(), q), _pn(norms, q)
        if c is not None:
            cp2 = _pn(c, p) ** 2
            out[("span_gram", p, "gram")] = (comb, cp2 * gq)
            out[("span_norms", p, "norms")] = (comb, cp2 * nq**2)
            out[("combo_gram", p, "gram")] = (weighted, nx2 * cp2 * gq)
            out[("combo_norms", p, "norms")] = (weighted, nx2 * cp2 * nq**2)
        out[("thm27", p, None)] = (bessel, math.sqrt(nx2) * _pn(t, p) * math.sqrt(gq))
        if 1.0 < p <= 2.0:
            out[("eq211", p, None)] = (bessel, n ** (2.0 / p - 1.0) * nx2 * gq)
            if gap:
                out[("power_mean", p, None)] = (_pn(t, p) ** 2, n ** (2.0 / p - 1.0) * bessel)
        if orthonormal:
            expo = 0.0 if math.isinf(q) else 1.0 / (2.0 * q)
            out[("orthonormal_27a", p, None)] = (bessel, math.sqrt(nx2) * n**expo * _pn(t, p))
    return out


def _assert_matches_oracle(got, want):
    assert set(got) == set(want)
    for key, (lhs, rhs) in want.items():
        assert got[key][0] == pytest.approx(lhs, rel=1e-12), key
        assert got[key][1] == pytest.approx(rhs, rel=1e-12), key


def _parse_row(row):
    bound_id, p, flavor, lhs, rhs, _ = row.split(",")
    key = (bound_id, None if p == "-" else float(p), None if flavor == "-" else flavor)
    return key, (float(lhs), float(rhs))


class TestOracle:
    """Each case's value, not only its verdict: a wrong but looser ceiling
    wired to a case (q-norm at p instead of q, swapped flavors) still passes
    the soundness corpus, so every case is recomputed independently."""

    SPECS = list(random_specs(200, master_seed=2024))

    def test_sample_covers_edges(self):
        assert {s.n for s in self.SPECS} >= {0, 1}
        assert {s.field for s in self.SPECS} == {"real", "complex"}

    def test_evaluate_cases(self):
        for spec in self.SPECS:
            x, fam, c = random_family(spec)
            cases = evaluate_cases(x, fam, c, STANDARD_P_LIST)
            assert len(cases) == 40
            got = {(k.bound_id, k.p, k.flavor): (k.lhs, k.rhs) for k in cases}
            assert len(got) == 40
            _assert_matches_oracle(got, oracle_cases(x, fam, c, STANDARD_P_LIST))

    def test_compute_rows(self):
        for spec in self.SPECS[:60]:
            x, fam, c = random_family(spec)
            g = fam.vectors @ fam.vectors.conj().T
            orthonormal = spec.n == 0 or np.max(np.abs(g - np.eye(spec.n))) <= 1e-10
            for coeffs in (c, None):
                got = dict(_parse_row(r) for r in compute_rows(x, fam, coeffs, STANDARD_P_LIST))
                want = oracle_cases(x, fam, coeffs, STANDARD_P_LIST, gap=False, orthonormal=orthonormal)
                _assert_matches_oracle(got, want)

    def test_compute_rows_orthonormal(self):
        for seed, field in enumerate(("real", "complex") * 5):
            n = 1 + seed % 5
            fam = random_orthonormal_family(6, n, field=field, seed=seed)
            x, _, c = random_family(FamilySpec(dim=6, n=n, field=field, seed=seed))
            rows = compute_rows(x, fam, c, STANDARD_P_LIST)
            got = dict(_parse_row(r) for r in rows)
            assert sum(key[0] == "orthonormal_27a" for key in got) == len(STANDARD_P_LIST)
            want = oracle_cases(x, fam, c, STANDARD_P_LIST, gap=False, orthonormal=True)
            _assert_matches_oracle(got, want)


def _public_record(x, fam, c, case):
    """The record the public evaluator returns for the case's (bound_id, p, flavor)."""
    bid, p, flavor = case.bound_id, case.p, case.flavor
    evaluators = {
        BoundId.REFINEMENT_CHAIN: lambda: refinement_chain(c, fam)[("middle", "outer").index(flavor)],
        BoundId.POWER_MEAN_GAP: lambda: power_mean_gap(np.abs(inner_each(x, fam)), p),
        BoundId.BOMBIERI: lambda: bombieri_bound(x, fam),
        BoundId.FROBENIUS: lambda: frobenius_bound(x, fam),
        BoundId.SPAN_GRAM: lambda: span_bound(c, fam, p, flavor),
        BoundId.SPAN_NORMS: lambda: span_bound(c, fam, p, flavor),
        BoundId.COMBO_GRAM: lambda: combo_bound(x, fam, c, p, flavor),
        BoundId.COMBO_NORMS: lambda: combo_bound(x, fam, c, p, flavor),
        BoundId.WEIGHTED_BESSEL: lambda: bessel_sum_bound(x, fam, p),
        BoundId.POWER_MEAN: lambda: power_mean_bound(x, fam, p),
    }
    return evaluators[bid]()


class TestBatchMatchesEvaluators:
    """The batch path and the public evaluators must agree bitwise: each
    record of evaluate_cases equals (==) the public evaluator's record."""

    SPECS = TestOracle.SPECS

    def test_evaluate_cases(self):
        seen = set()
        for spec in self.SPECS:
            x, fam, c = random_family(spec)
            for case in evaluate_cases(x, fam, c, STANDARD_P_LIST):
                assert case == _public_record(x, fam, c, case), (spec, case)
                seen.add(case.bound_id)
        assert seen == set(BoundId) - {BoundId.ORTHONORMAL_BESSEL}

    def test_compute_rows_orthonormal(self):
        for seed, field in enumerate(("real", "complex") * 5):
            n = 1 + seed % 5
            fam = random_orthonormal_family(6, n, field=field, seed=seed)
            x, _, c = random_family(FamilySpec(dim=6, n=n, field=field, seed=seed))
            rows = [r for r in compute_rows(x, fam, c, STANDARD_P_LIST) if r.startswith("orthonormal_27a,")]
            want = [orthonormal_bessel_bound(x, fam, p) for p in STANDARD_P_LIST]
            assert rows == [case_row(r.bound_id, r.p, r.flavor, r.lhs, r.rhs) for r in want]


def _stacks(specs):
    """The inputs of equal-shape specs as the stacks x (B, d), family rows (B, n, d) and c (B, n)."""
    x, fams, c = zip(*map(random_family, specs))
    return np.stack([v.coords for v in x]), np.stack([f.vectors for f in fams]), np.stack(c)


class TestBatchForm:
    """evaluate_cases on stacks of equal-shape inputs returns their CaseTable: the
    records of the per-input calls, in order, each equal to the public evaluator's."""

    GROUPS = [[FamilySpec(dim, n, field, scale=1.5**k, seed=100 * n + k) for k in range(5)]
              for dim, n, field in ((3, 4, "complex"), (2, 5, "real"), (1, 1, "complex"), (4, 0, "real"))]

    def test_records_match_single_calls_and_evaluators(self):
        for specs in self.GROUPS:
            table = evaluate_cases(*_stacks(specs), STANDARD_P_LIST)
            singles = [evaluate_cases(*random_family(spec), STANDARD_P_LIST) for spec in specs]
            assert isinstance(table, CaseTable)
            assert len(table) == len(specs) * len(singles[0]) == table.lhs.size
            assert list(table) == [case for cases in singles for case in cases]
            assert [table[j] for j in range(-len(table), len(table))] == 2 * list(table)
            for spec, b in zip(specs, range(len(specs))):
                x, fam, c = random_family(spec)
                for case in table.records(b):
                    assert case == _public_record(x, fam, c, case), (spec, case)

    def test_batch_of_one_is_the_single_call(self):
        spec = self.GROUPS[0][0]
        assert list(evaluate_cases(*_stacks([spec]), [1.5, 3.0])) == evaluate_cases(*random_family(spec), [1.5, 3.0])

    @pytest.mark.parametrize("change, error", [
        (lambda x, rows, c: (x[:, :-1], rows, c), ShapeError),
        (lambda x, rows, c: (x, rows, c[:1]), ShapeError),
        (lambda x, rows, c: (x, rows[0], c), ShapeError),
        (lambda x, rows, c: (x, np.where(np.arange(3) == 2, np.inf, rows), c), DomainError),
        (lambda x, rows, c: (x, rows, c * np.nan), DomainError),
        (lambda x, rows, c: (x * np.nan, rows, c), DomainError),
    ])
    def test_rejects_bad_stacks(self, change, error):
        with pytest.raises(error, match="stack"):  # rejected up front, before any bound reads them
            evaluate_cases(*change(*_stacks(self.GROUPS[0])))


def _hex_rows(cases):
    return [(str(r.bound_id), r.p, r.flavor, r.lhs.hex(), r.value.hex()) for r in cases]


class TestStackLists:
    """evaluate_cases on lists of stacks that share n: one CaseTable over their inputs in
    order, each record equal in float.hex to the per-stack tables and the single calls."""

    # One list per n; each stack mixes real and complex specs, and the stacks' dims differ.
    PASSES = [[[FamilySpec(dim, n, field, scale=2.0**k, seed=1000 * n + 10 * dim + k)
                for k, field in enumerate(("real", "complex", "complex", "real", "real"))]
               for dim in (3, 1, 5)] for n in (0, 1, 4)]

    @classmethod
    def stacks(cls, k):
        """The lists of x, rows and c stacks of PASSES[k]."""
        return [list(a) for a in zip(*map(_stacks, cls.PASSES[k]))]

    @pytest.mark.parametrize("p_list", [STANDARD_P_LIST, [1.3, math.inf]])
    def test_records_match_per_stack_and_single_calls(self, p_list):
        for k, stacks in enumerate(self.PASSES):
            table = evaluate_cases(*self.stacks(k), p_list)
            assert isinstance(table, CaseTable)
            per_stack = [case for specs in stacks for case in evaluate_cases(*_stacks(specs), p_list)]
            singles = [case for specs in stacks for spec in specs
                       for case in evaluate_cases(*random_family(spec), p_list)]
            assert _hex_rows(table) == _hex_rows(per_stack) == _hex_rows(singles)
            assert len(table) == len(singles) == table.lhs.size

    def test_one_stack_list_is_the_stack(self):
        specs = self.PASSES[2][0]
        one = evaluate_cases(*([a] for a in _stacks(specs)))
        assert _hex_rows(one) == _hex_rows(evaluate_cases(*_stacks(specs)))

    @pytest.mark.parametrize("change", [
        lambda xs, ys, cs: (xs, ys[:2], cs),  # lists of unequal length
        lambda xs, ys, cs: (xs[:2], ys[:2], cs),
        lambda xs, ys, cs: ([], [], []),
        lambda xs, ys, cs: (xs, ys, tuple(cs)),  # a list mixed with another sequence
        lambda xs, ys, cs: (xs[0], ys, cs),
        lambda *lists: [a[:1] + b[:1] for a, b in zip(lists, TestStackLists.stacks(1))],  # parts of unequal n
        lambda xs, ys, cs: (xs, [ys[0], ys[1][:, :, :0], ys[2]], cs),  # d = 0 in one part
    ])
    def test_rejects_bad_lists(self, change):
        with pytest.raises(ShapeError, match="stack"):
            evaluate_cases(*change(*self.stacks(2)))

    @pytest.mark.parametrize("part", [0, 2])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_rejects_nan_in_any_part_up_front(self, monkeypatch, part, which):
        def untouched(*args):
            raise AssertionError("a coordinate was read before the stacks were checked")

        for name in ("_inner_each", "_gram_entries", "_member_norms", "_sum_sq"):
            monkeypatch.setattr(bounds, name, untouched)
        lists = self.stacks(2)
        lists[which][part] = lists[which][part] * np.nan
        with pytest.raises(DomainError, match="stack"):
            evaluate_cases(*lists)


class TestCaseTableSlicing:
    TABLE = evaluate_cases(*_stacks([FamilySpec(2, 3, "complex", seed=k) for k in range(3)]), [1.5, 3.0])

    @pytest.mark.parametrize("sl", [slice(1, 3), slice(-5, None), slice(None, None, 7), slice(None, None, -3),
                                    slice(-2, 4, -1), slice(10, 2), slice(None, 1000)])
    def test_slice_is_the_list_slice(self, sl):
        got = self.TABLE[sl]
        assert isinstance(got, list) and got == list(self.TABLE)[sl]


class TestCorpusBatching:
    """verify_corpus evaluates each family size n of a chunk in one pass; it
    must report exactly what verify_all reports spec by spec, in the same order."""

    HUGE = FamilySpec(4, 5, seed=3, scale=1e100)  # inf <= inf cases, NaN margins
    SPECS = list(random_specs(300, master_seed=2718, dim_max=3, n_max=3))
    SPECS[150:150] = [HUGE]

    @staticmethod
    def reference(specs, rel_tol, abs_tol):
        """The verdicts aggregated one spec at a time, as verify_corpus did before batching."""
        seen, failures, worst, cases_by_id, fails_by_id = [], [], None, {}, {}
        for spec in specs:
            report = verify_all(*random_family(spec), rel_tol=rel_tol, abs_tol=abs_tol)
            tightest = report.worst_margin_case
            if tightest is not None and (worst is None or tightest.margin < worst[1].margin):
                worst = (spec, tightest)
            for case in report.cases:
                seen.append((spec, case))
                cases_by_id[str(case.bound_id)] = cases_by_id.get(str(case.bound_id), 0) + 1
            for case in report.failures:
                fails_by_id[str(case.bound_id)] = fails_by_id.get(str(case.bound_id), 0) + 1
                failures.append((spec, case))
        return seen, tuple(failures), worst, cases_by_id, fails_by_id

    def test_stream_covers_shared_groups_and_edges(self):
        groups = {(s.dim, s.n, s.field) for s in self.SPECS}
        assert len(self.SPECS) >= 10 * len(groups)
        assert {s.n for s in self.SPECS} >= {0, 1} and {s.field for s in self.SPECS} == {"real", "complex"}

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("rel_tol, abs_tol", [(1e-10, 1e-12), (0.0, 0.0)])
    def test_matches_verify_all_per_spec(self, monkeypatch, chunk, rel_tol, abs_tol):
        if chunk is not None:  # groups then split across chunks, and worst is carried from chunk to chunk
            monkeypatch.setattr(verify, "_CHUNK", chunk)
        seen = []
        with np.errstate(over="ignore", invalid="ignore"):
            want = self.reference(self.SPECS, rel_tol, abs_tol)
            got = verify_corpus(iter(self.SPECS), rel_tol=rel_tol, abs_tol=abs_tol,
                                on_case=lambda spec, case: seen.append((spec, case)))
        want_seen, failures, worst, cases_by_id, fails_by_id = want
        assert seen == want_seen
        assert got.failures == failures and (got.n_fail > 0) == (rel_tol == 0.0)
        assert got.worst == worst and math.isfinite(worst[1].margin)
        assert list(got.cases_by_id.items()) == list(cases_by_id.items())
        assert list(got.fails_by_id.items()) == list(fails_by_id.items())
        assert (got.n_specs, got.n_cases, got.n_pass) == (len(self.SPECS), len(seen), len(seen) - len(failures))

    def test_equal_margins_keep_the_first_spec(self, monkeypatch):
        # n = 0: every case is 0 <= 0, so every margin ties and the first spec's first case is the worst
        monkeypatch.setattr(verify, "_CHUNK", 4)
        specs = [FamilySpec(dim, 0, field, seed=dim) for dim in (3, 1, 2, 1, 3) for field in ("complex", "real")]
        first = (specs[0], evaluate_cases(*random_family(specs[0]))[0])
        assert verify_corpus(specs).worst == self.reference(specs, 1e-10, 1e-12)[2] == first

    def test_overflowing_spec_still_raises(self):
        specs = self.SPECS[:40] + [FamilySpec(4, 5, seed=3, scale=1e155)] + self.SPECS[40:80]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
            verify_corpus(specs)


class TestCorpusGeneration:
    """verify_corpus draws each (dim, n) stack's inputs straight into it; the stacks it
    evaluates must hold, bit for bit, what random_family gives for each spec."""

    SHAPES = ((1, 0), (1, 1), (1, 3), (3, 0), (3, 2), (3, 2))
    SPECS = [FamilySpec(dim, n, field, scale=scale, seed=seed) for seed, (field, scale, (dim, n)) in enumerate(
        itertools.product(("real", "complex"), (1e-30, 1.0, 1e30), SHAPES))]

    @staticmethod
    def assert_bitwise(got, want):
        want = np.asarray(want, dtype=np.complex128)  # a real spec's coefficients are float64
        assert got.dtype == want.dtype == np.complex128 and got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("chunk", [None, 5])
    def test_stacks_are_random_family_bitwise(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(verify, "_CHUNK", chunk)
        calls = []

        def recording(x, rows, c, p_list):
            calls.append((x, rows, c))
            return evaluate_cases(x, rows, c, p_list)

        monkeypatch.setattr(verify, "evaluate_cases", recording)
        result = verify_corpus(self.SPECS)
        assert result.n_specs == len(self.SPECS) and result.n_fail == 0
        # One call per n of each chunk, in order of first appearance; in it one stack per dim,
        # in order of first appearance, real and complex specs together, in spec order.
        size = chunk or len(self.SPECS)
        passes = []
        for start in range(0, len(self.SPECS), size):
            by_n: dict = {}
            for spec in self.SPECS[start:start + size]:
                by_n.setdefault(spec.n, {}).setdefault(spec.dim, []).append(spec)
            passes += [list(by_dim.values()) for by_dim in by_n.values()]
        mixed = [{s.field for s in members} == {"real", "complex"} for stacks in passes for members in stacks]
        assert any(mixed) == (chunk is None)  # chunks of 5 never hold both fields of one (dim, n)
        assert len(calls) == len(passes)
        for stacks, (xs, ys, cs) in zip(passes, calls):
            assert len(xs) == len(ys) == len(cs) == len(stacks)
            for members, x, rows, c in zip(stacks, xs, ys, cs):
                assert len(x) == len(rows) == len(c) == len(members)
                for b, spec in enumerate(members):
                    want_x, want_fam, want_c = random_family(spec)
                    self.assert_bitwise(x[b], want_x.coords)
                    self.assert_bitwise(rows[b], want_fam.vectors)
                    self.assert_bitwise(c[b], want_c)


_FAM = VectorFamily([[1.0, 2.0], [3.0, 4.0]])
_GOOD = [1.0, 2.0]
_BAD = [
    ("2d", [[1.0, 2.0]], ShapeError),
    ("text", ["a", "b"], DomainError),
    ("numeric_text", ["1", "2"], DomainError),  # text is never a number, even when it parses as one
    ("bool", [True, False], DomainError),
    ("nan", [math.nan, 1.0], DomainError),
    ("inf", [1.0, math.inf], DomainError),
]
_BAD_X = _BAD + [("empty", [], ShapeError)]
_BAD_C = _BAD + [
    ("short", [1.0], ShapeError),
    ("long", [1.0, 2.0, 3.0], ShapeError),
    # two faults: the length check comes before the finiteness check
    ("long_nan", [1.0, math.nan, 2.0], ShapeError),
]
_BAD_GAP = _BAD + [
    ("complex", [1.0 + 1.0j, 2.0], DomainError),
    ("negative", [-1.0, 2.0], DomainError),
    # a Vector with a nonzero imaginary part is complex values, not a 0-d array
    ("vector", Vector([1.0 + 1.0j, 2.0]), DomainError),
]
# Square and symmetric, so that only the named fault can reject them as families and Gram matrices.
_BAD_2D = [
    ("1d", [1.0, 2.0], ShapeError),
    ("text", [["a", "b"], ["b", "a"]], DomainError),
    ("numeric_text", [["1", "0"], ["0", "1"]], DomainError),
    ("bool", [[True, False], [False, True]], DomainError),
    ("nan", [[math.nan, 0.0], [0.0, 1.0]], DomainError),
    ("inf", [[1.0, math.inf], [math.inf, 1.0]], DomainError),
]
_STACKS = (np.array([_GOOD]), np.array([_FAM.vectors]), np.array([_GOOD]))  # x (1, 2), rows (1, 2, 2), c (1, 2)
_ENTRY_POINTS = [  # (name, call on the bad value, bad values with the error each raises)
    ("Vector", Vector, _BAD_X),
    ("inner", lambda v: inner(v, _GOOD), _BAD_X),
    ("inner_second", lambda v: inner(_GOOD, v), _BAD_X),
    ("norm", norm, _BAD_X),
    ("inner_each", lambda v: inner_each(v, _FAM), _BAD_X),
    ("combo_bound_x", lambda v: combo_bound(v, _FAM, _GOOD, 2.0), _BAD_X),
    ("weighted_inner_sum_sq_x", lambda v: weighted_inner_sum_sq(v, _FAM, _GOOD), _BAD_X),
    ("evaluate_cases_x", lambda v: evaluate_cases(v, _FAM, _GOOD), _BAD_X),
    ("span_bound", lambda c: span_bound(c, _FAM, 2.0), _BAD_C),
    ("combo_bound_c", lambda c: combo_bound(_GOOD, _FAM, c, 2.0), _BAD_C),
    ("weighted_inner_sum_sq_c", lambda c: weighted_inner_sum_sq(_GOOD, _FAM, c), _BAD_C),
    ("evaluate_cases_c", lambda c: evaluate_cases(_GOOD, _FAM, c), _BAD_C),
    ("seq_pnorm", lambda v: seq_pnorm(v, 2.0), _BAD),
    ("power_mean_gap", lambda v: power_mean_gap(v, 1.5), _BAD_GAP),
    ("VectorFamily_ndarray", lambda m: VectorFamily(np.array(m)), _BAD_2D),
    ("GramMatrix", GramMatrix, _BAD_2D),
    ("gram_entry_qnorm", lambda m: gram_entry_qnorm(m, 2.0), _BAD_2D),
    ("max_row_abs_sum", max_row_abs_sum, _BAD_2D),
    ("power_mean_factor", lambda m: power_mean_factor(m, 1.5), _BAD_2D),
    ("evaluate_cases_x_stack", lambda v: evaluate_cases(np.array([v]), *_STACKS[1:]), _BAD),
    ("evaluate_cases_rows_stack", lambda v: evaluate_cases(_STACKS[0], np.array([[v, v]]), _STACKS[2]), _BAD),
    ("evaluate_cases_c_stack", lambda v: evaluate_cases(*_STACKS[:2], np.array([v])), _BAD),
]

_ONB = VectorFamily(np.eye(2))
# Bad for every integer, field and flavor argument below (-1 is out of every integer range), and for
# b and eps, whose range ends at 1; _BAD_REALS leaves out 2.9, a valid real argument elsewhere.
_BAD_SCALARS = [2.9, "5", True, -1, math.nan]
_BAD_REALS = _BAD_SCALARS[1:]
_SCALAR_ARGS = [  # (name, call on the bad value, the bad values); each raises a DomainError
    ("FamilySpec_dim", lambda v: FamilySpec(v, 2), _BAD_SCALARS),
    ("FamilySpec_n", lambda v: FamilySpec(2, v), _BAD_SCALARS),
    ("FamilySpec_field", lambda v: FamilySpec(2, 2, field=v), _BAD_SCALARS),
    ("FamilySpec_scale", lambda v: FamilySpec(2, 2, scale=v), _BAD_REALS),
    ("FamilySpec_seed", lambda v: FamilySpec(2, 2, seed=v), _BAD_SCALARS),
    ("random_specs_count", lambda v: random_specs(v, 1), _BAD_SCALARS),
    ("random_specs_master_seed", lambda v: random_specs(1, v), _BAD_SCALARS),
    ("random_specs_dim_max", lambda v: random_specs(1, 1, dim_max=v), _BAD_SCALARS),
    ("random_specs_n_max", lambda v: random_specs(1, 1, n_max=v), _BAD_SCALARS),
    ("random_specs_field", lambda v: random_specs(1, 1, field=v), _BAD_SCALARS),
    ("random_specs_scale_low", lambda v: random_specs(1, 1, scale_low=v), _BAD_REALS),
    ("random_specs_scale_high", lambda v: random_specs(1, 1, scale_high=v), _BAD_REALS),
    ("random_orthonormal_family_dim", lambda v: random_orthonormal_family(v, 2), _BAD_SCALARS),
    ("random_orthonormal_family_n", lambda v: random_orthonormal_family(3, v), _BAD_SCALARS),
    ("random_orthonormal_family_field", lambda v: random_orthonormal_family(3, 2, field=v), _BAD_SCALARS),
    ("random_orthonormal_family_seed", lambda v: random_orthonormal_family(3, 2, seed=v), _BAD_SCALARS),
    ("VectorFamily_dim", lambda v: VectorFamily([], dim=v), _BAD_SCALARS),
    ("VectorFamily_field", lambda v: VectorFamily([[1.0]], field=v), _BAD_SCALARS),
    ("is_orthonormal_tol", lambda v: _ONB.is_orthonormal(v), _BAD_REALS),
    ("require_orthonormal_tol", lambda v: _ONB.require_orthonormal(v), _BAD_REALS),
    ("orthonormal_bessel_bound_tol", lambda v: orthonormal_bessel_bound(_GOOD, _ONB, 2.0, v), _BAD_REALS),
    ("gap_closed_form_b", lambda v: gap_closed_form(v, 1.5), _BAD_SCALARS),
    ("sign_scan_nb", lambda v: sign_scan(v, 3), _BAD_SCALARS),
    ("sign_scan_np_count", lambda v: sign_scan(3, v), _BAD_SCALARS),
    ("sign_scan_eps", lambda v: sign_scan(3, 3, eps=v), _BAD_SCALARS),
    ("sign_scan_zero_tol", lambda v: sign_scan(3, 3, zero_tol=v), _BAD_REALS),
    ("span_bound_flavor", lambda v: span_bound(_GOOD, _FAM, 2.0, flavor=v), _BAD_SCALARS),
    ("dominance_search_seed", lambda v: dominance_search(v, 5, 1.5), _BAD_SCALARS),
    ("dominance_search_max_trials", lambda v: dominance_search(0, v, 1.5), _BAD_SCALARS),
    ("verify_all_rel_tol", lambda v: verify_all(_GOOD, _FAM, _GOOD, rel_tol=v), _BAD_REALS),
    ("verify_all_abs_tol", lambda v: verify_all(_GOOD, _FAM, _GOOD, abs_tol=v), _BAD_REALS),
    ("verify_corpus_rel_tol", lambda v: verify_corpus([], rel_tol=v), _BAD_REALS),
    ("verify_corpus_abs_tol", lambda v: verify_corpus([], abs_tol=v), _BAD_REALS),
]


class TestBatchValidation:
    FAM = _FAM

    @pytest.mark.parametrize(
        "call, value, error",
        [
            pytest.param(call, value, error, id=f"{name}-{label}")
            for name, call, bad in _ENTRY_POINTS
            for label, value, error in bad
        ],
    )
    def test_entry_point_errors(self, call, value, error):
        with pytest.raises(error):
            call(value)

    @pytest.mark.parametrize(
        "call, value",
        [pytest.param(call, value, id=f"{name}-{value!r}") for name, call, bad in _SCALAR_ARGS for value in bad],
    )
    def test_scalar_argument_errors(self, call, value):
        with pytest.raises(DomainError):
            call(value)

    @pytest.mark.parametrize(
        "x, c, error",
        [
            ([1.0, 2.0], [1.0], ShapeError),
            ([1.0, 2.0], [1.0, 2.0, 3.0], ShapeError),
            ([1.0, 2.0, 3.0], [1.0, 1.0], DimensionError),
            ([math.nan, 1.0], [1.0, 1.0], DomainError),
            ([1.0, math.inf], [1.0, 1.0], DomainError),
            ([1.0, 2.0], [math.inf, 1.0], DomainError),
            ([1.0, 2.0], [1.0, complex(0.0, math.nan)], DomainError),
        ],
    )
    @pytest.mark.parametrize("entry", [evaluate_cases, verify_all])
    def test_raises(self, entry, x, c, error):
        with pytest.raises(error):
            entry(x, self.FAM, c)
