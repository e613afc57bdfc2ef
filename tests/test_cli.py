"""Command-line front end: CSV output, exit codes, and input parsing."""

import functools
import itertools
import json
import math
import re

import pytest

from grambounds import STANDARD_P_LIST, BoundId, DomainError, cli, random_family, random_specs, sign_scan, verify_all
from grambounds.cli import (
    CASE_HEADER,
    SCAN_HEADER,
    case_row,
    format_p,
    main,
)
from grambounds.verify import CORPUS_DIM_MAX, CORPUS_N_MAX

REAL_DOC = {
    "field": "real",
    "x": [1.0],
    "family": [[1.0], [0.5]],
    "coefficients": [1.0, 1.0],
    "p_list": [2],
}

COMPLEX_DOC = {
    "field": "complex",
    "x": [[1.0, 0.0], [0.0, 1.0]],
    "family": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    "coefficients": [[1.0, 0.0], [0.0, -1.0]],
    "p_list": [2, "inf"],
}


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_compute(tmp_path, doc, extra=()):
    inp = write_doc(tmp_path, doc)
    out = tmp_path / "out.csv"
    code = main(["compute", "--input", inp, "--out", str(out), *extra])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestFormatting:
    def test_format_number_round_trip(self):
        for v in (0.1, 1.25, 1e-300, 12345.6789, -0.25):
            assert float(format_p(v)) == v

    def test_format_p(self):
        assert format_p(None) == "-"
        assert format_p(math.inf) == "inf"
        assert format_p(2.0) == "2.0"

    @pytest.mark.parametrize("text", [" Infinity ", "INF", "+inf", "1e400"])
    def test_exponent_text_for_infinity(self, text):
        assert cli._parse_extended(text) == math.inf

    @pytest.mark.parametrize("text, message", [("-inf", "--p: exponent must be >= 1, got -inf"),
                                               ("nan", "--p: exponent must not be NaN")])
    def test_exponent_text_outside_the_domain(self, text, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            cli._parse_extended(text)

    def test_case_row(self):
        assert case_row("bombieri", None, None, 1.25, 1.5) == "bombieri,-,-,1.25,1.5,0.25"

    def test_case_row_matches_joined_fields(self):
        # The row as it was built before the one f-string: field by field, then joined.
        values = [0.0, -0.0, 5e-324, 1e308, -1e308, 1.25, 0.1, 1, math.inf, math.nan]  # margins also inf, NaN
        for bound_id, flavor in ((BoundId.POWER_MEAN_GAP, None), (BoundId.SPAN_GRAM, "gram"), ("cor28", None)):
            for p in (None, 1.0, 2, math.inf, 1.0 + 4504 * 2.0**-52):
                for lhs, rhs in itertools.product(values, repeat=2):
                    fields = (str(bound_id), format_p(p), flavor or "-", format_p(lhs), format_p(rhs),
                              format_p(rhs - lhs))
                    assert case_row(bound_id, p, flavor, lhs, rhs) == ",".join(fields), (bound_id, p, lhs, rhs)
        assert type(str(BoundId.SPAN_GRAM)) is str and str(BoundId.SPAN_GRAM) == "span_gram"


class TestComputeCommand:
    def test_worked_example_rows(self, tmp_path):
        code, text = run_compute(tmp_path, REAL_DOC)
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == CASE_HEADER
        assert "bombieri,-,-,1.25,1.5,0.25" in lines
        assert "eq211,2.0,-,1.25,1.25,0.0" in lines
        assert "cor28,-,-,1.25,1.25,0.0" in lines

    def test_margins_respect_tolerance(self, tmp_path):
        code, text = run_compute(tmp_path, COMPLEX_DOC)
        assert code == 0
        for line in text.splitlines()[1:]:
            _, _, _, lhs, rhs, margin = line.split(",")
            assert float(margin) >= -(1e-10 * float(rhs) + 1e-12)

    def test_orthonormal_rows(self, tmp_path):
        code, text = run_compute(tmp_path, COMPLEX_DOC)
        assert code == 0
        rows = [ln for ln in text.splitlines() if ln.startswith("orthonormal_27a,")]
        assert rows  # the family is the standard basis
        bombieri = [ln for ln in text.splitlines() if ln.startswith("bombieri,")][0]
        assert float(bombieri.split(",")[4]) == pytest.approx(2.0, rel=1e-12)

    def test_inf_literal_in_p_column(self, tmp_path):
        code, text = run_compute(tmp_path, COMPLEX_DOC)
        assert code == 0
        assert any(ln.startswith("thm27,inf,") for ln in text.splitlines())

    def test_p_flag_overrides_document(self, tmp_path):
        code, text = run_compute(tmp_path, REAL_DOC, extra=["--p", "1.5"])
        assert code == 0
        assert any(",1.5," in ln for ln in text.splitlines())
        assert not any(ln.startswith("thm27,2.0,") for ln in text.splitlines())

    def test_no_coefficients_skips_combination_rows(self, tmp_path):
        doc = {"field": "real", "x": [1.0], "family": [[1.0], [0.5]], "p_list": [2]}
        code, text = run_compute(tmp_path, doc)
        assert code == 0
        ids = {ln.split(",")[0] for ln in text.splitlines()[1:]}
        assert "span_gram" not in ids
        assert "combo_gram" not in ids
        assert "cor22_chain" not in ids
        assert {"bombieri", "cor28", "thm27", "eq211"} <= ids

    def test_default_p_list_when_absent(self, tmp_path):
        doc = {"field": "real", "x": [1.0], "family": [[1.0], [0.5]]}
        code, text = run_compute(tmp_path, doc)
        assert code == 0
        ps = {ln.split(",")[1] for ln in text.splitlines()[1:]}
        assert {"1.0", "1.1", "1.5", "2.0", "3.0", "inf"} <= ps

    def test_byte_identical_rerun(self, tmp_path):
        _, first = run_compute(tmp_path, COMPLEX_DOC)
        _, second = run_compute(tmp_path, COMPLEX_DOC)
        assert first == second

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["compute", "--input", str(tmp_path / "nope.json"), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path / 'nope.json'}: ")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["compute", "--input", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(extra_key=1),
            lambda d: d.pop("x"),
            lambda d: d.pop("family"),
            lambda d: d.update(coefficients=[1.0]),  # length mismatch
            lambda d: d.update(family=[[1.0], [1.0, 2.0]]),  # ragged
            lambda d: d.update(family=[[1.0, 2.0], [0.5, 0.0]]),  # members of another dimension than x
            lambda d: d.update(p_list=[]),
            lambda d: d.update(p_list=["huge"]),
            lambda d: d.update(p_list=[0.5]),
            lambda d: d.update(field="octonion"),
            lambda d: d.update(x=[[1.0, 0.0]]),  # pair encoding in a real doc
        ],
    )
    def test_invalid_documents(self, tmp_path, mutate):
        doc = {k: (list(v) if isinstance(v, list) else v) for k, v in REAL_DOC.items()}
        mutate(doc)
        code, _ = run_compute(tmp_path, doc)
        assert code == 2

    @pytest.mark.parametrize(
        "doc, name",
        [
            pytest.param(dict(REAL_DOC, x=[True]), "x", id="true-coordinate"),
            pytest.param(dict(REAL_DOC, x=["1.5"]), "x", id="text-coordinate"),
            pytest.param(dict(COMPLEX_DOC, x=[[1.0, True], [0.0, 1.0]]), "x", id="true-in-pair"),
            pytest.param(dict(COMPLEX_DOC, x=[2.0, [1.0, True]]), "x", id="true-in-pair-among-bare"),
            pytest.param(dict(REAL_DOC, x=[10**400]), "x", id="int-beyond-float-range"),
            pytest.param(dict(COMPLEX_DOC, coefficients=[[1.0, 10**400], [0.0, 1.0]]), "coefficients",
                         id="int-beyond-float-range-in-pair"),
            pytest.param(dict(REAL_DOC, p_list=[10**400]), "p_list", id="int-beyond-float-range-in-p_list"),
            pytest.param(dict(REAL_DOC, p_list=[True]), "p_list", id="true-in-p_list"),
            pytest.param(dict(REAL_DOC, family=None), "family", id="null-family"),
            pytest.param(dict(COMPLEX_DOC, x=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), "x", id="three-element-pairs"),
            pytest.param(dict(COMPLEX_DOC, family=[[[1.0, 0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
                         "family", id="three-element-pair-among-pairs"),
            pytest.param(dict(REAL_DOC, x=[functools.reduce(lambda v, _: [v], range(70), 1.0)]), "x",
                         id="coordinate-nested-70-deep"),
            pytest.param(dict(COMPLEX_DOC, x=[1.0, functools.reduce(lambda v, _: [v], range(70), 1.0)]), "x",
                         id="coordinate-nested-70-deep-among-bare"),
            pytest.param(dict(REAL_DOC, x="1.0"), "x", id="x-string"),
            pytest.param(dict(REAL_DOC, x={"re": 1.0}), "x", id="x-object"),
            pytest.param(dict(REAL_DOC, x=1.0), "x", id="x-bare-number"),
            pytest.param(dict(REAL_DOC, family=[[1.0], [1.0, 2.0]]),
                         "family must be a rectangular array, not a ragged sequence", id="ragged-family"),
            pytest.param([1, 2], "input document", id="array-document"),
            pytest.param(dict(REAL_DOC, field="octonion"), "field must be 'real' or 'complex', got 'octonion'",
                         id="unknown-field"),
        ],
    )
    def test_invalid_arrays_name_the_array(self, tmp_path, capsys, doc, name):
        code, _ = run_compute(tmp_path, doc)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {name}")

    def test_x_of_another_dimension_than_the_members(self, tmp_path, capsys):
        code, text = run_compute(tmp_path, {"field": "real", "x": [1.0, 2.0], "family": [[1, 0, 0], [0, 1, 0]]})
        assert code == 2 and text == ""
        assert capsys.readouterr().err == "error: vector dimension 2 does not match family dimension 3\n"

    def test_nesting_too_deep_for_the_json_parser(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"field": "real", "x": ' + "[" * 100_000 + "1.0" + "]" * 100_000 + ', "family": []}')
        assert main(["compute", "--input", str(path), "--out", str(tmp_path / "o.csv")]) == 2

    def test_complex_encodings_give_the_same_csv(self, tmp_path):
        # One complex document: as pairs, bare where the imaginary part is 0 (so mixed within a
        # row), pairs and bare numbers mixed otherwise, and with int literals.
        encodings = [
            {"x": [[1.0, 0.0], [2.0, 0.5]],
             "family": [[[1.0, 0.0], [0.0, 0.0]], [[0.5, 0.0], [1.0, -1.0]], [[3.0, 0.0], [0.0, 0.0]]],
             "coefficients": [[1.0, 0.0], [0.0, -1.0], [2.0, 0.0]]},
            {"x": [1.0, [2.0, 0.5]],
             "family": [[1.0, 0.0], [0.5, [1.0, -1.0]], [3.0, 0.0]],
             "coefficients": [1.0, [0.0, -1.0], 2.0]},
            {"x": [[1.0, 0.0], [2.0, 0.5]],
             "family": [[[1.0, 0.0], 0.0], [0.5, [1.0, -1.0]], [3.0, [0.0, 0.0]]],
             "coefficients": [[1.0, 0.0], [0.0, -1.0], 2.0]},
            {"x": [1, [2, 0.5]],
             "family": [[[1, 0], 0], [0.5, [1, -1]], [3, 0.0]],
             "coefficients": [1, [0, -1], [2, 0]]},
        ]
        texts = set()
        for doc in encodings:
            code, text = run_compute(tmp_path, {"field": "complex", "p_list": [1.5, 2, "inf"], **doc})
            assert code == 0
            texts.add(text)
        assert len(texts) == 1

    @pytest.mark.parametrize("doc", [{"field": "complex", "x": [[1.0, 0.5]], "family": []},
                                     {"field": "real", "x": [1.0, 2.0], "family": [], "coefficients": []}])
    def test_empty_family(self, tmp_path, doc):
        code, text = run_compute(tmp_path, doc)
        assert code == 0 and text.startswith(CASE_HEADER + "\n")

    def test_unwritable_output(self, tmp_path, capsys):
        inp = write_doc(tmp_path, REAL_DOC)
        code = main(["compute", "--input", inp, "--out", str(tmp_path / "no_dir" / "o.csv")])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'no_dir' / 'o.csv'}: ")

    def test_bad_p_flag(self, tmp_path):
        inp = write_doc(tmp_path, REAL_DOC)
        code = main(["compute", "--input", inp, "--out", str(tmp_path / "o.csv"), "--p", "zero"])
        assert code == 2

    def test_p_is_checked_before_the_document_is_read(self, tmp_path, capsys):
        # a missing input would be an I/O error (exit 3); the bad --p is named first
        code = main(["compute", "--p", "0.5", "--input", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: --p: exponent must be >= 1, got 0.5\n"
        assert not (tmp_path / "o.csv").exists()


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code = main(["verify", "--trials", "50", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "specs=50" in out
        assert "fail=0" in out
        assert "tightest:" in out

    def test_stdout_is_the_per_spec_verdicts(self, capsys):
        """At zero tolerance rounding fails some cases: the totals, the tightest line and every
        fail line, in order, must be what verify_all reports one spec at a time."""
        code = main(["verify", "--trials", "60", "--seed", "3", "--rel-tol", "0", "--abs-tol", "0"])
        fails, worst, n_cases = [], None, 0
        for spec in random_specs(60, 3, dim_max=8, n_max=10, field="both"):  # the command's defaults
            report = verify_all(*random_family(spec), rel_tol=0.0, abs_tol=0.0)
            n_cases += report.n_cases
            tightest = report.worst_margin_case
            if tightest is not None and (worst is None or tightest.margin < worst[1].margin):
                worst = (spec, tightest)
            fails += [f"fail: seed={spec.seed} dim={spec.dim} n={spec.n} field={spec.field} "
                      f"scale={format_p(spec.scale)} bound_id={case.bound_id} p={format_p(case.p)} "
                      f"flavor={case.flavor or '-'} lhs={format_p(case.lhs)} rhs={format_p(case.value)}"
                      for case in report.failures]
        spec, case = worst
        assert code == 1 and fails
        assert capsys.readouterr().out.splitlines() == [
            f"specs=60 cases={n_cases} pass={n_cases - len(fails)} fail={len(fails)}",
            f"tightest: bound_id={case.bound_id} p={format_p(case.p)} "
            f"margin={format_p(case.margin)} (seed={spec.seed})",
            *fails,
        ]

    def test_zero_trials(self, capsys):
        code = main(["verify", "--trials", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "specs=0 cases=0 pass=0 fail=0" in out

    def test_restricted_p(self, capsys):
        code = main(["verify", "--trials", "20", "--p", "2", "--p", "inf"])
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--dims", "99"],
            ["verify", "--dims", "0"],
            ["verify", "--n", "40"],
            ["verify", "--trials", "-5"],
            ["verify", "--rel-tol=-1e-9"],
            ["verify", "--seed", "-1"],
        ],
    )
    def test_bad_flags(self, capsys, argv):
        # the error names the flag, not the parameter of random_specs it feeds
        flag = argv[1].split("=")[0]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {flag} must be")
        if argv[1:] == ["--trials", "-5"]:  # an unbounded range is written open, as for the tolerances
            assert err == "error: --trials must be an integer in [0, inf), got -5\n"

    @pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, flag, value):
        # a NaN tolerance would fail every case and an infinite one pass every case
        assert main(["verify", "--trials", "3", f"{flag}={value}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"error: {flag} must be a real number in [0, inf)" in err

    def test_p_is_checked_before_the_other_flags(self, capsys):
        assert main(["verify", "--p", "nan", "--rel-tol", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --p: exponent must not be NaN\n"

    def test_smallest_unsnapped_p(self, capsys):
        # 1 + 4504 * 2**-52: not snapped to 1, so inside the power-mean domain (1, 2]
        code = main(["verify", "--trials", "50", "--p", "1.000000000001"])
        assert code == 0
        assert "fail=0" in capsys.readouterr().out

    def test_parser_defaults_are_the_library_constants(self, capsys, monkeypatch):
        args = cli.build_parser().parse_args(["verify"])
        assert (args.dims, args.n) == (CORPUS_DIM_MAX, CORPUS_N_MAX)
        monkeypatch.setenv("COLUMNS", "200")  # one help line per flag
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        help_lines = capsys.readouterr().out.splitlines()
        assert any(ln.endswith(f"maximum ambient dimension (default {CORPUS_DIM_MAX})") for ln in help_lines)
        assert any(ln.endswith(f"(default: {' '.join(f'{p:g}' for p in STANDARD_P_LIST)})") for ln in help_lines)

    def test_single_field_flag(self, capsys):
        code = main(["verify", "--trials", "25", "--field", "complex"])
        assert code == 0


class TestScanCommand:
    def test_small_scan(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["scan", "--nb", "21", "--np", "10", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SCAN_HEADER
        assert len(lines) == 1 + 21 * 10 + 1
        assert lines[-1].startswith("# n_positive=")

    def test_summary_counts_match_rows(self, tmp_path):
        out = tmp_path / "scan.csv"
        main(["scan", "--nb", "11", "--np", "6", "--out", str(out)])
        lines = out.read_text().splitlines()
        values = [float(ln.split(",")[2]) for ln in lines[1:-1]]
        pos = sum(v > 1e-12 for v in values)
        neg = sum(v < -1e-12 for v in values)
        zero = sum(abs(v) <= 1e-12 for v in values)
        summary = lines[-1]
        assert f"n_positive={pos}" in summary
        assert f"n_negative={neg}" in summary
        assert f"n_zero={zero}" in summary

    def test_rows_are_the_reports_floats(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--nb", "7", "--np", "5", "--eps", "0.3", "--out", str(out)]) == 0
        rep = sign_scan(7, 5, 0.3)
        rows = [f"{b!r},{p!r},{v!r}" for b, row in zip(rep.grid_b.tolist(), rep.values.tolist())
                for p, v in zip(rep.grid_p.tolist(), row)]
        footer = f"# n_positive={rep.n_positive} n_negative={rep.n_negative} n_zero={rep.n_zero}"
        assert out.read_text().splitlines() == [SCAN_HEADER, *rows, footer]

    def test_single_sign_is_regression(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = main(["scan", "--nb", "11", "--np", "2", "--eps", "1.0", "--out", str(out)])
        assert code == 1
        assert out.exists()  # the CSV is still written
        assert "regression" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--nb", "1"],
            ["scan", "--np", "1"],
            ["scan", "--eps", "0"],
            ["scan", "--eps", "2"],
        ],
    )
    def test_bad_flags(self, tmp_path, capsys, argv):
        # the error names the flag, not the parameter of sign_scan it feeds
        out_csv = tmp_path / "s.csv"
        assert main([*argv, "--out", str(out_csv)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {argv[1]} must be")
        assert not out_csv.exists()

    def test_p_is_not_a_scan_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--p", "2", "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --p 2" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_tiny_grid_rejected(self, tmp_path):
        code = main(["scan", "--nb", "1", "--np", "10", "--out", str(tmp_path / "s.csv")])
        assert code == 2

    def test_eps_within_snap_of_zero_rejected(self, tmp_path, capsys):
        code = main(["scan", "--eps", "1e-13", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert not (tmp_path / "s.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: --eps ") and err.count("\n") == 1

    def test_unwritable_output(self, tmp_path, capsys):
        code = main(["scan", "--nb", "5", "--np", "5", "--out", str(tmp_path / "d" / "s.csv")])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'd' / 's.csv'}: ")

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["scan", "--nb", "15", "--np", "8", "--out", str(a)])
        main(["scan", "--nb", "15", "--np", "8", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        """``python -m grambounds`` on the source tree writes the CSV that main writes."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        args = ["scan", "--nb", "3", "--np", "2", "--out"]
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-m", "grambounds", *args, str(tmp_path / "child.csv")],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert main([*args, str(tmp_path / "main.csv")]) == 0
        assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()

    def test_library_bug_is_not_an_input_error(self, tmp_path, monkeypatch):
        # main names the input errors it reports; any other exception propagates
        def broken(*args):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "compute_rows", broken)
        with pytest.raises(KeyError):
            main(["compute", "--input", write_doc(tmp_path, REAL_DOC), "--out", str(tmp_path / "o.csv")])

    @pytest.mark.parametrize("argv", [["compute", "--input", "doc.json", "--out", "o.csv"], ["verify"],
                                      ["scan", "--out", "s.csv"]])
    def test_each_command_runs_the_module_function_of_its_name(self, monkeypatch, argv):
        # the command is looked up when the parser is built, so a function patched into the module runs
        seen = []
        monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: seen.append(args) or 7)
        assert main(argv) == 7
        assert [args.command for args in seen] == [argv[0]]

    def test_missing_subcommand_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
