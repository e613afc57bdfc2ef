"""Randomized input generation and batch verification of every inequality.

Every case is a bounds.BoundResult, checked with BoundResult.holds at the
tolerances REL_TOL and ABS_TOL of bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .bounds import ABS_TOL, REL_TOL, BoundResult, CaseTable, _Ingredients, frobenius_bound
from .core import _DIM_CAP, _DIM_MAX, _FIELDS, _N_CAP, Vector, VectorFamily, _check_field, _check_int, _check_real
from .errors import DomainError
from .norms import _exponents

__all__ = [
    "STANDARD_P_LIST",
    "CORPUS_SEED",
    "FamilySpec",
    "VerificationReport",
    "CorpusResult",
    "random_family",
    "random_orthonormal_family",
    "random_specs",
    "standard_corpus",
    "evaluate_cases",
    "verify_all",
    "verify_corpus",
]

#: Exponents exercised by default: both limit branches, a near-1 value with
#: a large conjugate, the self-conjugate point, and one value beyond 2.
STANDARD_P_LIST = (1.0, 1.1, 1.5, 2.0, 3.0, math.inf)

#: Master seed of the standard verification corpus.
CORPUS_SEED = 1729
CORPUS_SIZE = 10_000
CORPUS_DIM_MAX = 8
CORPUS_N_MAX = 10


@dataclass(frozen=True)
class FamilySpec:
    """Deterministic recipe for one random (x, family, coefficients) triple."""

    dim: int
    n: int
    field: str = "real"
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_int("dim", self.dim, 1, _DIM_CAP))
        object.__setattr__(self, "n", _check_int("n", self.n, 0, _N_CAP))
        _check_field(self.field)
        object.__setattr__(self, "scale", _check_real("scale", self.scale, positive=True))
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0, 2**64 - 1))


def _draw(rng: np.random.Generator, shape, field: str) -> np.ndarray:
    if field == "real":
        return rng.standard_normal(shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _draws(spec: FamilySpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The raw x (d,), family rows (n, d) and coefficients (n,) of a spec, drawn in this order."""
    rng = np.random.default_rng(spec.seed)
    x = _draw(rng, spec.dim, spec.field) * spec.scale
    rows = _draw(rng, (spec.n, spec.dim), spec.field) * spec.scale
    return x, rows, _draw(rng, spec.n, spec.field)


def random_family(spec: FamilySpec) -> tuple[Vector, VectorFamily, np.ndarray]:
    """One (x, family, coefficients) triple; bit-identical for equal specs.

    Coordinates are i.i.d. standard normal (independently in the real and
    imaginary parts for complex specs), scaled by spec.scale; the n
    coefficients are standard normal, unscaled.  Draw order is fixed:
    x, then the family rows, then the coefficients.
    """
    x, rows, c = _draws(spec)
    return Vector(x), VectorFamily(rows, field=spec.field), c


def random_orthonormal_family(dim: int, n: int, field: str = "real", seed: int = 0) -> VectorFamily:
    """n orthonormal vectors in dimension dim ≥ n, via QR of a random matrix."""
    dim = _check_int("dim", dim, 1, _DIM_MAX)
    n = _check_int("n", n, 1, dim)
    rng = np.random.default_rng(_check_int("seed", seed, 0, math.inf))
    a = _draw(rng, (dim, n), _check_field(field))  # checked before the draw, which may be large
    q_mat, _ = np.linalg.qr(a)
    return VectorFamily(q_mat.T, field=field)


def random_specs(
    count: int,
    master_seed: int,
    *,
    dim_max: int = CORPUS_DIM_MAX,
    n_max: int = CORPUS_N_MAX,
    field: str = "both",
    scale_low: float = 0.1,
    scale_high: float = 10.0,
) -> Iterator[FamilySpec]:
    """Stream of deterministic FamilySpecs, each scale log-uniform in [scale_low, scale_high]; checked on the call."""
    count = _check_int("count", count, 0, math.inf)
    master_seed = _check_int("master_seed", master_seed, 0, math.inf)
    dim_max = _check_int("dim_max", dim_max, 1, _DIM_CAP)
    n_max = _check_int("n_max", n_max, 0, _N_CAP)
    _check_field(field, _FIELDS + ("both",))
    low, high = _check_real("scale_low", scale_low, positive=True), _check_real("scale_high", scale_high, positive=True)
    if low > high:
        raise DomainError("need 0 < scale_low <= scale_high < inf")
    rng = np.random.default_rng(master_seed)
    lo, hi = math.log10(low), math.log10(high)

    def stream() -> Iterator[FamilySpec]:
        for _ in range(count):
            dim = int(rng.integers(1, dim_max + 1))
            n = int(rng.integers(0, n_max + 1))
            fld = field if field != "both" else _FIELDS[int(rng.integers(2))]
            u = rng.uniform(lo, hi)  # 10 ** hi may overflow, and 10 ** u may round past either bound
            scale = high if u >= hi else min(max(10.0 ** u, low), high)
            seed = int(rng.integers(0, 2**63))
            yield FamilySpec(dim=dim, n=n, field=fld, scale=scale, seed=seed)

    return stream()


def standard_corpus() -> Iterator[FamilySpec]:
    """The fixed 10,000-spec corpus used by the batch soundness check."""
    return random_specs(CORPUS_SIZE, CORPUS_SEED, dim_max=CORPUS_DIM_MAX, n_max=CORPUS_N_MAX, field="both")


def evaluate_cases(x, rows, c, p_list=STANDARD_P_LIST) -> CaseTable:
    """Evaluate every standard case, in the report order of bounds._Ingredients.cases, on the inputs of
    equal-length lists of stacks: x (B, d), the family rows (B, n, d) and c (B, n), with one n for every
    stack and d free to differ.  The one CaseTable holds a row for each input, in list order."""
    return _Ingredients.stack(x, rows, c).cases(p_list, frobenius_bound)


class _Verdicts:
    """The verdicts of one run, folded in one spec-ordered CaseTable at a time.

    It counts the inputs, the cases, and the cases and failures per plain-string
    bound id, and keeps every failing case (BoundResult.holds at the run's
    tolerances) and the tightest case, each with the label of its input.  The
    tightest is the first case of least margin among those whose margin is not NaN
    (an overflowed inf ≤ inf case has margin NaN): by table, then input, then case.
    """

    def __init__(self, rel_tol: float, abs_tol: float):
        self.rel_tol, self.abs_tol = _check_real("rel_tol", rel_tol), _check_real("abs_tol", abs_tol)
        self.n_specs = self.n_cases = 0
        self.cases_by_id, self.fails_by_id = {}, {}
        self.failures: list[tuple] = []
        self.worst: Optional[tuple] = None

    def add(self, table: CaseTable, labels: list) -> None:
        """Fold in a table whose input rows carry the given labels, in order."""
        self.n_specs += len(labels)
        self.n_cases += len(table)
        for bound_id, _, _ in table.keys:
            self.cases_by_id[str(bound_id)] = self.cases_by_id.get(str(bound_id), 0) + len(labels)
        for b, k in zip(*np.nonzero(~table.holds(self.rel_tol, self.abs_tol))):  # row-major: input, then case
            case = table.record(b, k)
            self.failures.append((labels[b], case))
            self.fails_by_id[str(case.bound_id)] = self.fails_by_id.get(str(case.bound_id), 0) + 1
        with np.errstate(invalid="ignore"):  # inf - inf gives a NaN margin, which is never the least
            margin = table.margin
        least = np.fmin.reduce(margin, axis=None)  # NaN when every margin is
        if not np.isnan(least) and (self.worst is None or least < self.worst[1].margin):
            b, k = np.unravel_index(np.argmax(margin == least), margin.shape)
            self.worst = (labels[b], table.record(b, k))

    n_fail = property(lambda self: len(self.failures))
    n_pass = property(lambda self: self.n_cases - self.n_fail)  # the one place the pass count is formed

    def report(self, cls: type, **given):
        """A report of dataclass cls: each field from given, or else from the attribute of its name here."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls) if f.name not in given}, **given)


@dataclass(frozen=True)
class VerificationReport:
    """Batch of checked inequalities: every case, the failing ones, the tightest, and their counts."""

    cases: tuple[BoundResult, ...]
    failures: tuple[BoundResult, ...]
    worst_margin_case: Optional[BoundResult]
    rel_tol: float
    abs_tol: float
    n_cases: int
    n_pass: int
    n_fail: int


def verify_all(
    x,
    family: VectorFamily,
    c,
    p_list=STANDARD_P_LIST,
    *,
    rel_tol: float = REL_TOL,
    abs_tol: float = ABS_TOL,
) -> VerificationReport:
    """Evaluate and check every inequality on one input; each verdict is computed once."""
    verdicts = _Verdicts(rel_tol, abs_tol)
    table = _Ingredients.of(family, x, c).cases(p_list, frobenius_bound)
    verdicts.add(table, [None])
    return verdicts.report(VerificationReport, cases=tuple(table.records(0)),
                           failures=tuple(case for _, case in verdicts.failures),
                           worst_margin_case=None if verdicts.worst is None else verdicts.worst[1])


@dataclass(frozen=True)
class CorpusResult:
    """Aggregate over many specs; failures carry their spec for replay."""

    n_specs: int
    n_cases: int
    n_pass: int
    n_fail: int
    cases_by_id: dict
    fails_by_id: dict
    failures: tuple[tuple[FamilySpec, BoundResult], ...]
    worst: Optional[tuple[FamilySpec, BoundResult]]


#: Specs generated and evaluated together by verify_corpus.  Each chunk is
#: split by n, each n evaluated in one pass over one stack per dim.
_CHUNK = 4096


def verify_corpus(
    specs: Iterable[FamilySpec],
    p_list=STANDARD_P_LIST,
    *,
    rel_tol: float = REL_TOL,
    abs_tol: float = ABS_TOL,
    on_case: Optional[Callable[[FamilySpec, BoundResult], None]] = None,
) -> CorpusResult:
    """Check every case of every spec, as verify_all would one spec at a time, and aggregate.

    on_case, when given, observes every checked case in deterministic
    order (useful for streaming serialization or hashing).  cases_by_id and
    fails_by_id are keyed by the plain-string bound id.
    """
    p_list = _exponents(p_list)  # checked on the call, even with no specs
    verdicts = _Verdicts(rel_tol, abs_tol)
    stream = iter(specs)
    while chunk := list(itertools.islice(stream, _CHUNK)):
        by_n: dict = {}
        for i, spec in enumerate(chunk):
            if not isinstance(spec, FamilySpec):
                raise DomainError(f"specs must be FamilySpecs, got {type(spec).__name__}")
            by_n.setdefault(spec.n, {}).setdefault(spec.dim, []).append(i)
        # One table for the chunk, in spec order: each n's rows go to its specs' rows.
        table = None
        for by_dim in by_n.values():  # one call per n, on stacks built from its specs' draws
            stacks = [[np.array(arrays, np.complex128) for arrays in zip(*[_draws(chunk[i]) for i in members])]
                      for members in by_dim.values()]  # one (x, rows, c) per dim, both fields together
            part = evaluate_cases(*map(list, zip(*stacks)), p_list)  # the lists of x, rows and c stacks
            if table is None:  # the same K cases for every n
                shape = (len(chunk), len(part.keys))
                table = CaseTable(part.keys, np.empty(shape), np.empty(shape))
            order = [i for members in by_dim.values() for i in members]
            table.lhs[order], table.value[order] = part.lhs, part.value
        if on_case is not None:
            for i, spec in enumerate(chunk):
                for case in table.records(i):
                    on_case(spec, case)
        verdicts.add(table, chunk)
    return verdicts.report(CorpusResult, failures=tuple(verdicts.failures))
