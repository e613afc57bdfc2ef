"""Factor comparison: closed form, grid scan, and dominance witnesses."""

import dataclasses
import math

import numpy as np
import pytest

from grambounds import (
    DOMINANCE_TOL,
    DominancePair,
    DomainError,
    ExponentRangeError,
    SNAP_TOL,
    ShapeError,
    SignScanReport,
    VectorFamily,
    dominance_search,
    gap_closed_form,
    gram,
    max_row_abs_sum,
    power_mean_exponent,
    power_mean_factor,
    sign_scan,
)
from grambounds import compare, core

HALF = gram(VectorFamily([[1.0], [0.5]]))
TENTH = gram(VectorFamily([[1.0], [0.1]]))
F_01_11 = 0.6631825099952482  # high-precision evaluation of the closed form


class TestFactors:
    def test_bombieri_factor_examples(self):
        assert max_row_abs_sum(HALF) == 1.5
        assert max_row_abs_sum(gram(VectorFamily(np.eye(2)))) == 1.0
        assert max_row_abs_sum(TENTH) == pytest.approx(1.1, rel=1e-15)

    def test_power_mean_factor_p2(self):
        assert power_mean_factor(HALF, 2.0) == 1.25
        assert power_mean_factor(gram(VectorFamily(np.eye(2))), 2.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-15
        )

    def test_power_mean_factor_p11(self):
        assert power_mean_factor(TENTH, 1.1) == pytest.approx(1.763182509995248, rel=1e-12)

    def test_power_mean_factor_rejects_bad_p(self):
        with pytest.raises(ExponentRangeError):
            power_mean_factor(HALF, 1.0)
        with pytest.raises(ExponentRangeError):
            power_mean_factor(HALF, 2.5)


class TestGapClosedForm:
    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0])
    def test_zero_at_b_one(self, p):
        assert abs(gap_closed_form(1.0, p)) <= 1e-12

    def test_p2_value(self):
        assert gap_closed_form(0.5, 2.0) == pytest.approx(-0.25, abs=1e-15)

    def test_positive_region(self):
        assert gap_closed_form(0.1, 1.1) == pytest.approx(F_01_11, rel=1e-12)

    def test_p2_is_quadratic(self):
        for b in np.linspace(0.0, 1.0, 21):
            assert abs(gap_closed_form(float(b), 2.0) - (b * b - b)) <= 1e-14

    def test_b_zero(self):
        # continuous extension: the b^q term vanishes
        assert gap_closed_form(0.0, 1.5) == pytest.approx(2.0 ** (1.0 / 3.0) - 1.0, rel=1e-15)

    @pytest.mark.parametrize("b", [-0.1, 1.1, math.nan])
    def test_rejects_bad_b(self, b):
        with pytest.raises(DomainError):
            gap_closed_form(b, 1.5)

    @pytest.mark.parametrize("p", [1.0, 2.5, 0.9])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ExponentRangeError):
            gap_closed_form(0.5, p)

    def test_matches_realized_factors(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            b = float(rng.uniform(0.0, 1.0))
            p = float(rng.uniform(1.0 + 1e-6, 2.0))
            fam = VectorFamily([[1.0], [b]])
            g = gram(fam)
            direct = power_mean_factor(g, p) - max_row_abs_sum(g)
            f = gap_closed_form(b, p)
            assert abs(f - direct) <= 1e-10 * max(1.0, abs(f))


class TestSignScan:
    def test_default_box_has_both_signs(self):
        rep = sign_scan(41, 20)
        assert rep.both_signs()
        assert rep.n_positive > 0
        assert rep.n_negative > 0

    def test_counts_sum_to_grid(self):
        rep = sign_scan(21, 10)
        assert rep.n_positive + rep.n_negative + rep.n_zero == rep.values.size
        assert rep.values.size == 21 * 10

    def test_corner_grid_contains_zero_line(self):
        rep = sign_scan(2, 2)
        assert rep.n_zero >= 1  # the b = 1 edge

    def test_extremal_cells(self):
        rep = sign_scan(21, 10)
        assert rep.min_cell.value <= 0.0 <= rep.max_cell.value
        assert rep.min_cell.value == float(np.min(rep.values))
        assert rep.max_cell.value == float(np.max(rep.values))
        bi = list(rep.grid_b).index(rep.min_cell.b)
        pi = list(rep.grid_p).index(rep.min_cell.p)
        assert rep.values[bi, pi] == rep.min_cell.value

    def test_cells_are_the_closed_form(self):
        rep = sign_scan(7, 5, eps=0.3)
        assert rep.values.dtype == np.float64 and not rep.values.flags.writeable
        for i, b in enumerate(rep.grid_b):
            for j, p in enumerate(rep.grid_p):
                assert float(rep.values[i, j]).hex() == gap_closed_form(float(b), float(p)).hex()

    def test_p2_only_grid_has_no_positives(self):
        # eps = 1.0 collapses the p range to the single value 2 (two equal points)
        rep = sign_scan(11, 2, eps=1.0)
        assert rep.n_positive == 0

    def test_grid_shapes_and_ranges(self):
        rep = sign_scan(5, 4, eps=0.25)
        assert rep.grid_b[0] == 0.0 and rep.grid_b[-1] == 1.0
        assert rep.grid_p[0] == 1.25 and rep.grid_p[-1] == 2.0
        assert rep.values.shape == (5, 4)

    def test_deterministic(self):
        a = sign_scan(13, 7)
        b = sign_scan(13, 7)
        assert np.array_equal(a.values, b.values)
        assert a.min_cell == b.min_cell
        assert (a.n_positive, a.n_negative, a.n_zero) == (
            b.n_positive,
            b.n_negative,
            b.n_zero,
        )

    def test_equality_and_hash_go_by_identity(self):
        # field by field, == would compare the numpy grids and raise
        a, b = sign_scan(5, 4), sign_scan(5, 4)
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_init_fields_are_the_inputs(self):
        fields = dataclasses.fields(SignScanReport)
        assert [f.name for f in fields if f.init] == ["grid_b", "grid_p", "zero_tol"]
        assert [f.name for f in fields] == ["grid_b", "grid_p", "values", "n_positive", "n_negative", "n_zero",
                                            "min_cell", "max_cell", "zero_tol"]

    def test_hand_built_report_derives_its_numbers(self):
        # exact zeros on the b = 1 row and at (0, 2), b² - b at p = 2, and a tie for the least cell
        grid_b, grid_p = np.array([0.0, 0.25, 0.75, 1.0]), np.array([1.1, 1.25, 1.5, 2.0])
        rep = SignScanReport(grid_b, grid_p, 1e-12)
        assert rep.values.shape == (4, 4) and rep.values.dtype == np.float64 and not rep.values.flags.writeable
        for i, b in enumerate(grid_b.tolist()):
            for j, p in enumerate(grid_p.tolist()):
                assert float(rep.values[i, j]).hex() == gap_closed_form(b, p).hex()
        assert rep.values[3].tolist() == [0.0] * 4 and rep.values[:, 3].tolist() == (grid_b**2 - grid_b).tolist()
        values = rep.values
        assert (rep.n_positive, rep.n_negative, rep.n_zero) == (
            int(np.count_nonzero(values > 1e-12)),
            int(np.count_nonzero(values < -1e-12)),
            int(np.count_nonzero(np.abs(values) <= 1e-12)),
        ) == (7, 4, 5)
        for cell, flat in ((rep.min_cell, np.argmin(values)), (rep.max_cell, np.argmax(values))):
            i, j = np.unravel_index(flat, values.shape)
            assert cell == (grid_b[i], grid_p[j], values[i, j])
        assert rep.min_cell == (0.25, 2.0, -0.1875) and rep.max_cell[:2] == (0.0, 1.1)

    def test_a_report_on_a_scans_grids_is_the_scan(self):
        s = sign_scan(201, 100)
        rep = SignScanReport(s.grid_b, s.grid_p, s.zero_tol)
        assert rep.values.tobytes() == s.values.tobytes()
        assert (rep.n_positive, rep.n_negative, rep.n_zero, rep.min_cell, rep.max_cell) == (
            s.n_positive, s.n_negative, s.n_zero, s.min_cell, s.max_cell)

    @pytest.mark.parametrize("grids, name", [
        ((np.array([0.0, 1.0]), np.array([[1.5, 2.0]])), "grid_p"),
        ((np.array([]), np.array([1.5, 2.0])), "grid_b"),
    ], ids=["2d_grid", "no_cell"])
    def test_rejects_other_shapes(self, grids, name):
        with pytest.raises(ShapeError, match=f"^{name} "):
            SignScanReport(*grids, 1e-12)

    @pytest.mark.parametrize("grid_b, grid_p, zero_tol", [
        ([0.0, math.nan], [1.5, 2.0], 1e-12),
        ([0.0, 1.0], [1.5, math.inf], 1e-12),
        ([0.0, 2.0], [1.5, 2.0], 1e-12),
        ([0.0, 1.0], [1.5, -7.0], 1e-12),
        ([0.0, 1.0], [1.5, 2.5], 1e-12),
        ([math.nan, math.inf], [1.5, -7.0], 1e-12),  # a report once named its least cell at b = nan, p = -7
        ([0.0, 1.0], [1.5, 2.0], math.nan),
        ([0.0, 1.0], [1.5, 2.0], -1.0),
    ], ids=["nan_cell", "inf_cell", "b_2", "p_-7", "p_2.5", "nan_and_inf_b_p_-7", "nan_zero_tol", "negative_zero_tol"])
    def test_rejects_non_finite_values_and_bad_zero_tol(self, grid_b, grid_p, zero_tol):
        # a non-finite point, a point outside [0, 1] × (1, 2] or a bad zero_tol: no report
        grids = np.array(grid_b), np.array(grid_p)
        with pytest.raises(DomainError):
            SignScanReport(*grids, zero_tol)
        assert all(g.flags.writeable for g in grids)

    def test_stores_the_checked_zero_tol(self):
        rep = SignScanReport(np.array([0.0, 1.0]), np.array([1.5, 2.0]), 0)
        assert type(rep.zero_tol) is float and rep.zero_tol == 0.0

    def test_takes_sequences_as_float_arrays(self):
        want = SignScanReport(np.array([0.0, 1.0]), np.array([1.5, 2.0]), 1e-12)
        # ints, a tuple and a complex array with zero imaginary parts give the float64 grids
        for grid_b, grid_p in (([0, 1], (1.5, 2)), (np.array([0, 1], complex), [1.5, 2.0])):
            rep = SignScanReport(grid_b, grid_p, 1e-12)
            for got, arr in zip((rep.grid_b, rep.grid_p, rep.values), (want.grid_b, want.grid_p, want.values)):
                assert type(got) is np.ndarray and got.dtype == np.float64 and not got.flags.writeable
                assert got.tobytes() == arr.tobytes()
            assert (rep.n_positive, rep.n_negative, rep.n_zero, rep.min_cell, rep.max_cell) == (
                want.n_positive, want.n_negative, want.n_zero, want.min_cell, want.max_cell)
        assert SignScanReport([1.0], [1.5, 2.0], 0.0).n_zero == 2

    def test_keeps_a_float_array_as_it_is(self):
        # the same bytes, in a private read-only copy: the caller's arrays stay theirs, and writable
        scan = sign_scan(5, 4)
        grid_b, grid_p = scan.grid_b.copy(), scan.grid_p.copy()
        rep = SignScanReport(grid_b, grid_p, scan.zero_tol)
        for got, given in ((rep.grid_b, grid_b), (rep.grid_p, grid_p)):
            assert got.tobytes() == given.tobytes() and not np.shares_memory(got, given)
            assert given.flags.writeable and not got.flags.writeable
        grid_b[0] = 0.5
        assert rep.grid_b[0] == 0.0 and rep.values.tobytes() == scan.values.tobytes()

    @pytest.mark.parametrize("name", ["grid_b", "grid_p"])
    @pytest.mark.parametrize("bad", [["a", "b"], [1j, 0.0], [True, False], [None, 1.0]],
                             ids=["text", "complex", "bool", "object"])
    def test_rejects_non_real_input_by_name(self, name, bad):
        inputs = dict(grid_b=np.array([0.0, 1.0]), grid_p=np.array([1.5, 2.0]))
        inputs[name] = bad
        with pytest.raises(DomainError, match=f"^{name} "):
            SignScanReport(**inputs, zero_tol=1e-12)
        assert all(a.flags.writeable for a in inputs.values() if isinstance(a, np.ndarray))

    def test_rejects_a_ragged_sequence(self):
        with pytest.raises(ShapeError, match="^grid_p "):
            SignScanReport([0.0, 1.0], [[1.5, 2.0], [2.0]], 1e-12)

    @pytest.mark.parametrize("nb,np_count", [(1, 10), (10, 1), (0, 0)])
    def test_rejects_tiny_grids(self, nb, np_count):
        with pytest.raises(DomainError):
            sign_scan(nb, np_count)

    @pytest.mark.parametrize("eps", [0.0, -0.5, 1.5, 1e-13, SNAP_TOL])
    def test_rejects_bad_eps(self, eps):
        # named as eps, not as the exponent 1 + eps that power_mean_exponent would reject per cell
        with pytest.raises(DomainError, match="eps"):
            sign_scan(5, 5, eps=eps)

    @pytest.mark.parametrize("zero_tol", [-1.0, math.nan, "x"])
    def test_rejects_bad_zero_tol_before_any_cell(self, monkeypatch, zero_tol):
        def no_cell(b, p):
            raise AssertionError("a cell was evaluated")

        monkeypatch.setattr(compare, "gap_closed_form", no_cell)
        with pytest.raises(DomainError, match="zero_tol"):
            sign_scan(3, 3, zero_tol=zero_tol)


class TestDominanceSearch:
    def test_finds_pair_at_p11(self):
        pair = dominance_search(seed=0, max_trials=10_000, p=1.1)
        assert pair is not None
        assert pair.gap_a > 1e-9
        assert pair.gap_b < -1e-9
        assert 0.0 <= pair.b_a <= 1.0
        assert 0.0 <= pair.b_b <= 1.0

    def test_pair_reverifies_from_gram(self):
        pair = dominance_search(seed=5, max_trials=10_000, p=1.5)
        assert pair is not None
        for fam, m1, m2 in (
            (pair.family_a, pair.bombieri_a, pair.power_mean_a),
            (pair.family_b, pair.bombieri_b, pair.power_mean_b),
        ):
            g = gram(fam)
            assert max_row_abs_sum(g) == m1
            assert power_mean_factor(g, pair.p) == m2
        with pytest.raises(DomainError):  # two gaps of one sign are no witness pair
            dataclasses.replace(pair, b_b=pair.b_a)

    def test_init_fields_are_the_inputs(self):
        assert [f.name for f in dataclasses.fields(DominancePair) if f.init] == ["b_a", "b_b", "p"]

    def test_hand_built_pair_reproduces_the_search_bitwise(self):
        q = dominance_search(seed=5, max_trials=10_000, p=1.5)
        assert q is not None
        again = DominancePair(q.b_a, q.b_b, q.p)
        assert again == q and hash(again) == hash(q)
        ga, gb = gram(q.family_a), gram(q.family_b)
        from_gram = [max_row_abs_sum(ga), power_mean_factor(ga, q.p), max_row_abs_sum(gb), power_mean_factor(gb, q.p)]
        factors = [q.bombieri_a, q.power_mean_a, q.bombieri_b, q.power_mean_b]
        assert [f.hex() for f in factors] == [f.hex() for f in from_gram]
        assert q.family_a.vectors.tolist() == [[1.0], [q.b_a]] and q.family_b.vectors.tolist() == [[1.0], [q.b_b]]
        with pytest.raises(DomainError):  # swapped, each family's gap has the wrong sign
            DominancePair(q.b_b, q.b_a, q.p)
        with pytest.raises(DomainError):
            DominancePair(q.b_a, q.b_a, q.p)

    def test_stores_the_checked_numbers(self):
        pair = DominancePair(np.float64(0.1), 0.5, np.float64(1.5))
        assert [type(v) for v in (pair.b_a, pair.b_b, pair.p)] == [float, float, float]
        assert pair == DominancePair(0.1, 0.5, 1.5)

    @pytest.mark.parametrize("b_a, b_b, p, match", [
        (math.nan, 1.2, 2.5, "^b_a "), (0.1, 1.2, 2.5, "^b_b "), (0.1, 0.5, 2.5, "^exponent "),
    ], ids=["b_a", "b_b", "p"])
    def test_checks_b_a_then_b_b_then_p(self, b_a, b_b, p, match):
        with pytest.raises(DomainError, match=match):
            DominancePair(b_a, b_b, p)

    def test_p2_finds_nothing(self):
        assert dominance_search(seed=1, max_trials=2_000, p=2.0) is None

    def test_deterministic(self):
        a = dominance_search(seed=42, max_trials=10_000, p=1.2)
        b = dominance_search(seed=42, max_trials=10_000, p=1.2)
        assert a is not None and b is not None
        assert a.b_a == b.b_a
        assert a.b_b == b.b_b

    def test_rejects_bad_p(self):
        with pytest.raises(ExponentRangeError):
            dominance_search(seed=0, max_trials=10, p=2.5)


_DRAWS: dict = {}  # (seed, p) -> (generator, the draws taken from it so far)


def _given_g_draw(seed, pf, t):
    """Draw t of the generator at seed, one scalar draw at a time, with the max-row-sum and power-mean
    factors of its family's gram() from the public given-G readers; kept per (seed, p)."""
    rng, draws = _DRAWS.setdefault((seed, pf), (np.random.default_rng(seed), []))
    while len(draws) <= t:
        b = float(rng.uniform())
        g = VectorFamily(np.array([[1.0], [b]]), field="real").gram()
        draws.append((b, max_row_abs_sum(g), power_mean_factor(g, pf)))
    return draws[t]


def _reference_search(seed, max_trials, p):
    """dominance_search one draw at a time: the first b of each strict gap sign, in draw order."""
    pf = power_mean_exponent(p)
    first = {}
    for t in range(max_trials):
        b, bombieri, power_mean = _given_g_draw(seed, pf, t)
        if abs(power_mean - bombieri) > DOMINANCE_TOL:
            first.setdefault(power_mean > bombieri, b)
        if len(first) == 2:
            return DominancePair(first[True], first[False], pf)
    return None


#: Every (seed, p) that the tests, the demo and the README search.
SEARCHED = [(0, 1.1), (5, 1.5), (1, 2.0), (42, 1.2), (6, 1.1), (6, 2.0), (0, 1.05), (0, 1.5), (0, 1.9), (0, 2.0)]


class TestBatchedSearch:
    """The search reads chunks of draws through compare._factors, one Gram fold a chunk, and returns
    the pair of the per-draw search with the given-G readers."""

    CHUNK = compare._CHUNK

    @pytest.mark.parametrize("max_trials", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_per_draw_search(self, seed, p, max_trials):
        assert dominance_search(seed, max_trials, p) == _reference_search(seed, max_trials, p)

    @pytest.mark.parametrize("seed, p", SEARCHED)
    def test_factors_equal_the_given_gram_readers_bitwise(self, seed, p):
        pf = power_mean_exponent(p)
        draws = [_given_g_draw(seed, pf, t) for t in range(200)]
        bs = np.random.default_rng(seed).uniform(size=200)  # a chunk draws the scalar draws' values
        assert [b.hex() for b in bs.tolist()] == [b.hex() for b, _, _ in draws]
        bombieri, power_mean = compare._factors(bs, pf)
        assert [f.hex() for f in bombieri.tolist()] == [f.hex() for _, f, _ in draws]
        assert [f.hex() for f in power_mean.tolist()] == [f.hex() for _, _, f in draws]

    def test_one_fold_a_chunk_and_one_for_a_pair(self, monkeypatch):
        calls = []
        fold = core._fold

        def counted(*args):
            calls.append(args[1])
            return fold(*args)

        monkeypatch.setattr(core, "_fold", counted)
        assert dominance_search(6, 10_000, 2.0) is None
        assert calls == [self.CHUNK] * (10_000 // self.CHUNK) + [10_000 % self.CHUNK]  # ⌈10,000 / chunk⌉ folds
        calls.clear()
        DominancePair(0.1, 0.5, 1.5)
        assert calls == [2]

    def test_memory_is_bounded_by_the_chunk(self):
        pair = dominance_search(0, 10**12, 1.1)  # 10^12 draws at once would need 8 TB
        assert pair is not None and pair == dominance_search(0, 10_000, 1.1)
