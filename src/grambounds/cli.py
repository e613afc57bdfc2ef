"""File-driven front end: compute bound tables, run randomized verification,
and scan the bound-comparison surface, all emitting plain CSV.

Exit codes: 0 success; 1 semantic regression (the scan saw only one sign,
or verification found failing cases); 2 usage or parse error; 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .bounds import ORTHONORMAL_TOL, _Ingredients, frobenius_bound
from .compare import sign_scan
from .core import Vector, VectorFamily, _check_real
from .errors import GramBoundsError
from .norms import _normalize_exponent
from .verify import ABS_TOL, REL_TOL, STANDARD_P_LIST, _cases, random_specs, verify_corpus

__all__ = ["main", "cmd_compute", "cmd_verify", "cmd_scan", "CASE_HEADER", "SCAN_HEADER"]

CASE_HEADER = "bound_id,p,flavor,lhs,rhs,margin"
SCAN_HEADER = "b,p,f"

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2
EXIT_IO = 3


def format_number(v: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(v))


def format_p(p: Optional[float]) -> str:
    if p is None:
        return "-"
    if math.isinf(p):
        return "inf"
    return format_number(p)


def case_row(bound_id: str, p: Optional[float], flavor: Optional[str], lhs: float, rhs: float) -> str:
    # str(bound_id), not {bound_id}: format() of a str-mixin Enum changed in Python 3.12.
    return f"{str(bound_id)},{format_p(p)},{flavor or '-'},{float(lhs)!r},{float(rhs)!r},{float(rhs - lhs)!r}"


class _InputError(ValueError):
    """Malformed input document."""


def _parse_extended(value) -> float:
    """An exponent from CLI/JSON: a number, or the string 'inf'."""
    if isinstance(value, str):
        s = value.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return math.inf
        try:
            value = float(s)
        except ValueError as exc:
            raise _InputError(f"not an exponent: {value!r}") from exc
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _InputError(f"not an exponent: {value!r}")
    return _normalize_exponent(value)


def _decode_scalar(value, field: str, what: str) -> complex:
    if isinstance(value, bool):
        raise _InputError(f"{what}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return complex(float(value), 0.0)
    if field == "complex" and isinstance(value, list) and len(value) == 2:
        re, im = value
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in (re, im)):
            raise _InputError(f"{what}: [re, im] entries must be numbers, got {value!r}")
        return complex(float(re), float(im))
    if field == "real":
        raise _InputError(f"{what}: real documents use bare numbers, got {value!r}")
    raise _InputError(f"{what}: expected a number or [re, im] pair, got {value!r}")


def _decode_coords(values, field: str, what: str) -> list[complex]:
    if not isinstance(values, list) or not values:
        raise _InputError(f"{what}: expected a non-empty array of coordinates")
    return [_decode_scalar(v, field, what) for v in values]


_DOC_KEYS = {"field", "x", "family", "coefficients", "p_list"}


def parse_input_document(path: str):
    """Read a JSON document into (x, family, coefficients|None, p_list|None).

    Layout: {"field": "real"|"complex", "x": [...], "family": [[...], ...],
    "coefficients": [...]?, "p_list": [...]?} with complex coordinates as
    [re, im] pairs and real ones as bare numbers.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise _InputError("input document must be a JSON object")
    unknown = set(doc) - _DOC_KEYS
    if unknown:
        raise _InputError(f"unknown keys in input document: {sorted(unknown)}")
    for key in ("field", "x", "family"):
        if key not in doc:
            raise _InputError(f"input document is missing {key!r}")
    field = doc["field"]
    if field not in ("real", "complex"):
        raise _InputError(f"field must be 'real' or 'complex', got {field!r}")

    x = Vector(np.array(_decode_coords(doc["x"], field, "x"), dtype=np.complex128))
    if not isinstance(doc["family"], list):
        raise _InputError("family: expected an array of coordinate arrays")
    members = [
        np.array(_decode_coords(row, field, f"family[{k}]"), dtype=np.complex128)
        for k, row in enumerate(doc["family"])
    ]
    family = VectorFamily(members, field=field, dim=x.dim)

    coefficients = None
    if "coefficients" in doc:
        raw = doc["coefficients"]
        if not isinstance(raw, list):
            raise _InputError("coefficients: expected an array")
        coefficients = np.array(
            [_decode_scalar(v, field, f"coefficients[{k}]") for k, v in enumerate(raw)],
            dtype=np.complex128,
        )

    p_list = None
    if "p_list" in doc:
        raw = doc["p_list"]
        if not isinstance(raw, list) or not raw:
            raise _InputError("p_list: expected a non-empty array")
        p_list = [_parse_extended(v) for v in raw]
    return x, family, coefficients, p_list


def compute_rows(x, family, coefficients, p_values) -> list[str]:
    """CSV rows for every bound evaluable from the document's ingredients.

    Coefficient-based rows appear only when coefficients were supplied; the
    orthonormal specialization appears only when the family passes its
    orthonormality check.
    """
    ing = _Ingredients.of(family, x) if coefficients is None else _Ingredients.of(family, x, coefficients)
    orthonormal = family.is_orthonormal(ORTHONORMAL_TOL)
    cases = _cases(ing, p_values, frobenius_bound, gap=False, orthonormal=orthonormal)
    return [case_row(r.bound_id, r.p, r.flavor, r.lhs, r.rhs) for r in cases]


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_compute(input_path: str, p_values, out_path: str) -> int:
    try:
        x, family, coefficients, doc_p = parse_input_document(input_path)
    except OSError as exc:
        print(f"error: cannot read {input_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (json.JSONDecodeError, UnicodeDecodeError, _InputError, GramBoundsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:  # the --p flags override the document's p_list, which overrides the standard list
        rows = compute_rows(x, family, coefficients, list(p_values or doc_p or STANDARD_P_LIST))
    except GramBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        _write_lines(out_path, [CASE_HEADER] + rows)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_verify(
    trials: int,
    seed: int,
    dims: int,
    n_max: int,
    field: str,
    rel_tol: float,
    abs_tol: float,
    p_values=None,
) -> int:
    try:
        rel_tol, abs_tol = _check_real("--rel-tol", rel_tol), _check_real("--abs-tol", abs_tol)
        specs = random_specs(trials, seed, dim_max=dims, n_max=n_max, field=field)
    except GramBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    result = verify_corpus(specs, list(p_values or STANDARD_P_LIST), rel_tol=rel_tol, abs_tol=abs_tol)
    print(
        f"specs={result.n_specs} cases={result.n_cases} "
        f"pass={result.n_pass} fail={result.n_fail}"
    )
    if result.worst is not None:
        spec, case = result.worst
        print(
            f"tightest: bound_id={case.bound_id} p={format_p(case.p)} "
            f"margin={format_number(case.margin)} (seed={spec.seed})"
        )
    for spec, case in result.failures:
        print(
            f"fail: seed={spec.seed} dim={spec.dim} n={spec.n} field={spec.field} "
            f"scale={format_number(spec.scale)} bound_id={case.bound_id} p={format_p(case.p)} "
            f"flavor={case.flavor or '-'} lhs={format_number(case.lhs)} rhs={format_number(case.rhs)}"
        )
    return EXIT_REGRESSION if result.n_fail else EXIT_OK


def cmd_scan(nb: int, np_count: int, eps: float, out_path: str) -> int:
    try:
        report = sign_scan(nb, np_count, eps)
    except GramBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    lines = [SCAN_HEADER]
    for i, b in enumerate(report.grid_b):
        for j, p in enumerate(report.grid_p):
            lines.append(
                f"{format_number(b)},{format_number(p)},{format_number(report.values[i, j])}"
            )
    lines.append(
        f"# n_positive={report.n_positive} n_negative={report.n_negative} n_zero={report.n_zero}"
    )
    try:
        _write_lines(out_path, lines)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    if not report.both_signs():
        print(
            f"regression: expected both signs, got n_positive={report.n_positive} "
            f"n_negative={report.n_negative}",
            file=sys.stderr,
        )
        return EXIT_REGRESSION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grambounds",
        description="Evaluate, verify, and compare Gram-matrix bounds on inner-product sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate every bound on one input document, emit CSV")
    p_compute.add_argument("--input", required=True, help="JSON input document")
    p_compute.add_argument("--out", required=True, help="output CSV path")
    p_compute.add_argument("--p", action="append", default=None, metavar="P",
                           help="exponent in [1, inf] ('inf' allowed); repeatable; overrides the document")

    p_verify = sub.add_parser("verify", help="randomized verification of every inequality")
    p_verify.add_argument("--trials", type=int, default=1000, help="number of random inputs (default 1000)")
    p_verify.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p_verify.add_argument("--dims", type=int, default=8, help="maximum ambient dimension (default 8)")
    p_verify.add_argument("--n", type=int, default=10, help="maximum family size (default 10)")
    p_verify.add_argument("--field", choices=("both", "real", "complex"), default="both")
    p_verify.add_argument("--rel-tol", type=float, default=REL_TOL)
    p_verify.add_argument("--abs-tol", type=float, default=ABS_TOL)
    p_verify.add_argument("--p", action="append", default=None, metavar="P",
                          help="exponent to exercise; repeatable (default: 1 1.1 1.5 2 3 inf)")

    p_scan = sub.add_parser("scan", help="sign scan of the bound-factor gap over [0,1] x (1,2]")
    p_scan.add_argument("--nb", type=int, default=201, help="grid points along b (default 201)")
    p_scan.add_argument("--np", type=int, default=100, help="grid points along p (default 100)")
    p_scan.add_argument("--eps", type=float, default=0.01, help="p grid starts at 1+eps (default 0.01)")
    p_scan.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    p_values = None
    if getattr(args, "p", None):
        try:
            p_values = [_parse_extended(s) for s in args.p]
        except (GramBoundsError, _InputError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    if args.command == "compute":
        return cmd_compute(args.input, p_values, args.out)
    if args.command == "verify":
        return cmd_verify(args.trials, args.seed, args.dims, args.n, args.field,
                          args.rel_tol, args.abs_tol, p_values)
    return cmd_scan(args.nb, args.np, args.eps, args.out)
