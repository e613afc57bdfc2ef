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

from .bounds import ABS_TOL, REL_TOL, BoundId, _Ingredients, frobenius_bound
from .compare import _check_eps, sign_scan
from .core import (_DIM_CAP, _FIELDS, _N_CAP, ORTHONORMAL_TOL, Vector, VectorFamily, _as_complex, _check_field,
                   _check_int, _check_real)
from .errors import DomainError, ExponentError, GramBoundsError, ShapeError
from .norms import _normalize_exponent
from .verify import CORPUS_DIM_MAX, CORPUS_N_MAX, STANDARD_P_LIST, random_specs, verify_corpus

__all__ = ["main", "cmd_compute", "cmd_verify", "cmd_scan", "CASE_HEADER", "SCAN_HEADER"]

CASE_HEADER = "bound_id,p,flavor,lhs,rhs,margin"
SCAN_HEADER = "b,p,f"

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2
EXIT_IO = 3


def format_p(p: Optional[float]) -> str:
    """An optional exponent: "-" for none, else the shortest decimal that round-trips to the same float."""
    return "-" if p is None else repr(float(p))


def case_row(bound_id: str, p: Optional[float], flavor: Optional[str], lhs: float, rhs: float) -> str:
    # str(bound_id), not {bound_id}: the same text, without format()'s several times slower Enum.__format__.
    return f"{str(bound_id)},{format_p(p)},{flavor or '-'},{float(lhs)!r},{float(rhs)!r},{float(rhs - lhs)!r}"


def _parse_extended(value, what: str = "--p") -> float:
    """An exponent from CLI/JSON: a number, or text that ``float`` reads ('inf' included)."""
    try:
        return _normalize_exponent(float(value) if isinstance(value, str) else value)
    except (ValueError, ExponentError) as exc:
        raise DomainError(f"{what}: {exc}") from exc


_JSON_KINDS = {bool: "true/false", str: "text", type(None): "null", dict: "object", list: "array"}


def _decode_array(value, field: str, what: str, ndim: int = 1, allow_empty: bool = False) -> np.ndarray:
    """A document array as complex128 with ``ndim`` axes, through the library's array check.

    Scalars are ints or floats; in a complex document each may also be an [re, im] pair.
    When pairs and bare numbers mix, every bare number becomes a pair with imaginary part 0.
    """
    a = np.array(value, dtype=object)
    kinds = set(map(type, a.ravel()))  # not a.flat, which takes at most 32 axes
    if a.ndim < ndim and list in kinds:  # numpy stopped at the axis where the lengths differ
        raise ShapeError(f"{what} must be a rectangular array, not a ragged sequence")
    if field == "complex" and a.ndim == ndim and list in kinds:
        a = np.array([v if type(v) is list else [v, 0] for v in a.ravel()], dtype=object).reshape(a.shape + (-1,))
        kinds = set(map(type, a.ravel()))
    if not kinds <= {int, float}:
        pairs = " or [re, im] pairs" if field == "complex" else ""
        found = ", ".join(sorted(_JSON_KINDS[k] for k in kinds - {int, float}))
        raise DomainError(f"{what} must be a rectangular array of numbers{pairs}, found {found}")
    try:
        arr = a.astype(np.float64)
    except OverflowError as exc:
        raise DomainError(f"{what}: an integer beyond float range") from exc
    if field == "complex" and arr.ndim == ndim + 1 and arr.shape[-1] == 2:
        arr = arr.view(np.complex128)[..., 0]
    return _as_complex(arr, what=what, ndim=ndim, allow_empty=allow_empty)


_DOC_KEYS = {"field", "x", "family", "coefficients", "p_list"}


def parse_input_document(path: str):
    """Read a JSON document into (x, family, coefficients|None, p_list|None).

    Layout: {"field": "real"|"complex", "x": [...], "family": [[...], ...],
    "coefficients": [...]?, "p_list": [...]?} with real coordinates as bare
    numbers and complex ones as [re, im] pairs or bare numbers, which may mix.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DomainError("input document must be a JSON object")
    unknown = set(doc) - _DOC_KEYS
    if unknown:
        raise DomainError(f"unknown keys in input document: {sorted(unknown)}")
    for key in ("field", "x", "family"):
        if key not in doc:
            raise DomainError(f"input document is missing {key!r}")
    field = _check_field(doc["field"])

    x = Vector(_decode_array(doc["x"], field, "x"))
    rows = doc["family"]  # [] is an empty family in the dimension of x
    family = (VectorFamily([], field=field, dim=x.dim) if rows == [] else
              VectorFamily(_decode_array(rows, field, "family", 2), field=field))
    coefficients = None
    if "coefficients" in doc:
        coefficients = _decode_array(doc["coefficients"], field, "coefficients", allow_empty=True)

    p_list = None
    if "p_list" in doc:
        raw = doc["p_list"]
        if not isinstance(raw, list) or not raw:
            raise DomainError("p_list: expected a non-empty array")
        p_list = [_parse_extended(v, "p_list") for v in raw]
    return x, family, coefficients, p_list


def compute_rows(x, family, coefficients, p_values) -> list[str]:
    """CSV rows for every bound evaluable from the document's ingredients.

    Coefficient-based rows appear only when coefficients were supplied; the
    orthonormal specialization appears only when the family passes its
    orthonormality check.  The raw power-mean comparisons (BoundId.POWER_MEAN_GAP)
    are dropped here, since which rows the CSV holds is the command line's choice.
    """
    ing = _Ingredients.of(family, x) if coefficients is None else _Ingredients.of(family, x, coefficients)
    cases = ing.cases(p_values, frobenius_bound, orthonormal_tol=ORTHONORMAL_TOL).records(0)
    return [case_row(r.bound_id, r.p, r.flavor, r.lhs, r.value) for r in cases
            if r.bound_id is not BoundId.POWER_MEAN_GAP]


def _write_lines(path: str, lines: list[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def cmd_compute(args: argparse.Namespace) -> int:
    p_values = [_parse_extended(s) for s in args.p or ()]  # --p first, before the document is read
    x, family, coefficients, doc_p = parse_input_document(args.input)
    # the --p flags override the document's p_list, which overrides the standard list
    rows = compute_rows(x, family, coefficients, list(p_values or doc_p or STANDARD_P_LIST))
    _write_lines(args.out, [CASE_HEADER] + rows)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    p_values = [_parse_extended(s) for s in args.p or ()]  # --p first, before the other flags
    rel_tol, abs_tol = _check_real("--rel-tol", args.rel_tol), _check_real("--abs-tol", args.abs_tol)
    trials, seed = _check_int("--trials", args.trials, 0, math.inf), _check_int("--seed", args.seed, 0, math.inf)
    dims, n_max = _check_int("--dims", args.dims, 1, _DIM_CAP), _check_int("--n", args.n, 0, _N_CAP)
    specs = random_specs(trials, seed, dim_max=dims, n_max=n_max, field=args.field)
    result = verify_corpus(specs, list(p_values or STANDARD_P_LIST), rel_tol=rel_tol, abs_tol=abs_tol)
    print(
        f"specs={result.n_specs} cases={result.n_cases} "
        f"pass={result.n_pass} fail={result.n_fail}"
    )
    if result.worst is not None:
        spec, case = result.worst
        print(
            f"tightest: bound_id={case.bound_id} p={format_p(case.p)} "
            f"margin={case.margin!r} (seed={spec.seed})"
        )
    for spec, case in result.failures:
        print(
            f"fail: seed={spec.seed} dim={spec.dim} n={spec.n} field={spec.field} "
            f"scale={spec.scale!r} bound_id={case.bound_id} p={format_p(case.p)} "
            f"flavor={case.flavor or '-'} lhs={case.lhs!r} rhs={case.value!r}"
        )
    return EXIT_REGRESSION if result.n_fail else EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    nb, np_count = _check_int("--nb", args.nb, 2, math.inf), _check_int("--np", args.np, 2, math.inf)
    report = sign_scan(nb, np_count, _check_eps("--eps", args.eps))
    lines, ps = [SCAN_HEADER], [repr(p) for p in report.grid_p.tolist()]
    for b, row in zip(report.grid_b.tolist(), report.values):
        lines += [f"{b!r},{p},{v!r}" for p, v in zip(ps, row.tolist())]
    lines.append(
        f"# n_positive={report.n_positive} n_negative={report.n_negative} n_zero={report.n_zero}"
    )
    _write_lines(args.out, lines)
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
    p_compute.set_defaults(run=cmd_compute)
    p_compute.add_argument("--input", required=True, help="JSON input document")
    p_compute.add_argument("--out", required=True, help="output CSV path")
    p_compute.add_argument("--p", action="append", default=None, metavar="P",
                           help="exponent in [1, inf] ('inf' allowed); repeatable; overrides the document")

    p_verify = sub.add_parser("verify", help="randomized verification of every inequality")
    p_verify.set_defaults(run=cmd_verify)
    p_verify.add_argument("--trials", type=int, default=1000, help="number of random inputs (default 1000)")
    p_verify.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p_verify.add_argument("--dims", type=int, default=CORPUS_DIM_MAX,
                          help="maximum ambient dimension (default %(default)s)")
    p_verify.add_argument("--n", type=int, default=CORPUS_N_MAX, help="maximum family size (default %(default)s)")
    p_verify.add_argument("--field", choices=("both", *_FIELDS), default="both")
    p_verify.add_argument("--rel-tol", type=float, default=REL_TOL)
    p_verify.add_argument("--abs-tol", type=float, default=ABS_TOL)
    p_verify.add_argument("--p", action="append", default=None, metavar="P", help="exponent to exercise; repeatable "
                          f"(default: {' '.join(f'{p:g}' for p in STANDARD_P_LIST)})")

    p_scan = sub.add_parser("scan", help="sign scan of the bound-factor gap over [0,1] x (1,2]")
    p_scan.set_defaults(run=cmd_scan)
    p_scan.add_argument("--nb", type=int, default=201, help="grid points along b (default 201)")
    p_scan.add_argument("--np", type=int, default=100, help="grid points along p (default 100)")
    p_scan.add_argument("--eps", type=float, default=0.01, help="p grid starts at 1+eps (default 0.01)")
    p_scan.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; the commands raise, and here alone a failure becomes its exit code and
    one ``error:`` line.  Input errors are named one by one, so a bug in the library still raises."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except OSError as exc:  # every OSError is an I/O error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError, GramBoundsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
