"""Command-line front end: CSV output, exit codes, and input parsing."""

import itertools
import json
import math

import pytest

from grambounds import BoundId
from grambounds.cli import (
    CASE_HEADER,
    SCAN_HEADER,
    case_row,
    format_number,
    format_p,
    main,
)

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
            assert float(format_number(v)) == v

    def test_format_p(self):
        assert format_p(None) == "-"
        assert format_p(math.inf) == "inf"
        assert format_p(2.0) == "2.0"

    def test_case_row(self):
        assert case_row("bombieri", None, None, 1.25, 1.5) == "bombieri,-,-,1.25,1.5,0.25"

    def test_case_row_matches_joined_fields(self):
        # The row as it was built before the one f-string: field by field, then joined.
        values = [0.0, -0.0, 5e-324, 1e308, -1e308, 1.25, 0.1, 1, math.inf, math.nan]  # margins also inf, NaN
        for bound_id, flavor in ((BoundId.POWER_MEAN_GAP, None), (BoundId.SPAN_GRAM, "gram"), ("cor28", None)):
            for p in (None, 1.0, 2, math.inf, 1.0 + 4504 * 2.0**-52):
                for lhs, rhs in itertools.product(values, repeat=2):
                    fields = (str(bound_id), format_p(p), flavor or "-", format_number(lhs), format_number(rhs),
                              format_number(rhs - lhs))
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

    def test_missing_input_file_is_io_error(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["compute", "--input", str(tmp_path / "nope.json"), "--out", str(out)])
        assert code == 3

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

    def test_unwritable_output(self, tmp_path):
        inp = write_doc(tmp_path, REAL_DOC)
        code = main(["compute", "--input", inp, "--out", str(tmp_path / "no_dir" / "o.csv")])
        assert code == 3

    def test_bad_p_flag(self, tmp_path):
        inp = write_doc(tmp_path, REAL_DOC)
        code = main(["compute", "--input", inp, "--out", str(tmp_path / "o.csv"), "--p", "zero"])
        assert code == 2


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code = main(["verify", "--trials", "50", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "specs=50" in out
        assert "fail=0" in out
        assert "tightest:" in out

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
    def test_bad_flags(self, argv):
        assert main(argv) == 2

    @pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, flag, value):
        # a NaN tolerance would fail every case and an infinite one pass every case
        assert main(["verify", "--trials", "3", f"{flag}={value}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"error: {flag} must be a real number in [0, inf)" in err

    def test_smallest_unsnapped_p(self, capsys):
        # 1 + 4504 * 2**-52: not snapped to 1, so inside the power-mean domain (1, 2]
        code = main(["verify", "--trials", "50", "--p", "1.000000000001"])
        assert code == 0
        assert "fail=0" in capsys.readouterr().out

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

    def test_single_sign_is_regression(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = main(["scan", "--nb", "11", "--np", "2", "--eps", "1.0", "--out", str(out)])
        assert code == 1
        assert out.exists()  # the CSV is still written
        assert "regression" in capsys.readouterr().err

    def test_tiny_grid_rejected(self, tmp_path):
        code = main(["scan", "--nb", "1", "--np", "10", "--out", str(tmp_path / "s.csv")])
        assert code == 2

    def test_unwritable_output(self, tmp_path):
        code = main(["scan", "--nb", "5", "--np", "5", "--out", str(tmp_path / "d" / "s.csv")])
        assert code == 3

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["scan", "--nb", "15", "--np", "8", "--out", str(a)])
        main(["scan", "--nb", "15", "--np", "8", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "s.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "grambounds", "scan", "--nb", "5", "--np", "4",
             "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_missing_subcommand_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
