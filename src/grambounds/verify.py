"""Randomized input generation and batch verification of every inequality.

Every case is a bounds.BoundResult, checked with BoundResult.holds at the
tolerances REL_TOL and ABS_TOL (re-exported here from bounds).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from .bounds import ABS_TOL, REL_TOL, BoundResult, _Ingredients, frobenius_bound
from .core import _FIELDS, Vector, VectorFamily, _check_int, _check_real
from .errors import DomainError
from .norms import _normalize_exponent, conjugate_exponent

__all__ = [
    "REL_TOL",
    "ABS_TOL",
    "STANDARD_P_LIST",
    "CORPUS_SEED",
    "FamilySpec",
    "VerificationReport",
    "CorpusResult",
    "CaseTable",
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

#: Largest dimension and family size a FamilySpec, and so random_specs, may ask for.
_DIM_CAP = 16
_N_CAP = 32


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
        if self.field not in _FIELDS:
            raise DomainError(f"field must be 'real' or 'complex', got {self.field!r}")
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
    dim = _check_int("dim", dim, 1, math.inf)
    n = _check_int("n", n, 1, dim)  # VectorFamily checks the field
    rng = np.random.default_rng(_check_int("seed", seed, 0, math.inf))
    a = _draw(rng, (dim, n), field)
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
    """Stream of deterministic FamilySpecs with log-uniform scales; the arguments are checked on the call."""
    count = _check_int("count", count, 0, math.inf)
    master_seed = _check_int("master_seed", master_seed, 0, math.inf)
    dim_max = _check_int("dim_max", dim_max, 1, _DIM_CAP)
    n_max = _check_int("n_max", n_max, 0, _N_CAP)
    if field not in _FIELDS + ("both",):
        raise DomainError(f"field must be 'real', 'complex' or 'both', got {field!r}")
    if _check_real("scale_low", scale_low, positive=True) > _check_real("scale_high", scale_high, positive=True):
        raise DomainError("need 0 < scale_low <= scale_high < inf")
    rng = np.random.default_rng(master_seed)
    lo, hi = math.log10(scale_low), math.log10(scale_high)

    def stream() -> Iterator[FamilySpec]:
        for _ in range(count):
            dim = int(rng.integers(1, dim_max + 1))
            n = int(rng.integers(0, n_max + 1))
            fld = field if field != "both" else _FIELDS[int(rng.integers(2))]
            scale = float(10.0 ** rng.uniform(lo, hi))
            seed = int(rng.integers(0, 2**63))
            yield FamilySpec(dim=dim, n=n, field=fld, scale=scale, seed=seed)

    return stream()


def standard_corpus() -> Iterator[FamilySpec]:
    """The fixed 10,000-spec corpus used by the batch soundness check."""
    return random_specs(CORPUS_SIZE, CORPUS_SEED, dim_max=CORPUS_DIM_MAX, n_max=CORPUS_N_MAX, field="both")


@dataclass(eq=False)
class CaseTable(Sequence):
    """The cases of B inputs of one shape, K per input, as columns.

    ``keys`` holds the K cases' (bound_id, p, flavor), and ``lhs`` and ``value``
    are (B, K) matrices.  As a sequence it holds the B·K BoundResults input by
    input, each built only when it is read.
    """

    keys: list
    lhs: np.ndarray
    value: np.ndarray

    # The record's margin and its one tolerance predicate, here on whole (B, K) matrices.
    margin = BoundResult.margin
    holds = BoundResult.holds

    def verdicts(self, rel_tol: float, abs_tol: float) -> tuple[list[int], Optional[int]]:
        """The indices of the failing cases, and of the first case of least non-NaN margin, if any."""
        with np.errstate(invalid="ignore"):  # inf - inf gives a NaN margin, which is never the least
            margin = self.margin
        least = np.fmin.reduce(margin, axis=None)  # NaN when every margin is
        worst = None if np.isnan(least) else int(np.argmax(margin == least))  # row-major: input, then case
        return np.flatnonzero(~self.holds(rel_tol, abs_tol)).tolist(), worst

    def records(self, b: int) -> list[BoundResult]:
        """The K records of input b, in case order."""
        rows = zip(self.keys, self.lhs[b].tolist(), self.value[b].tolist())
        return [BoundResult(bound_id, lhs, value, p, flavor) for (bound_id, p, flavor), lhs, value in rows]

    def __len__(self) -> int:
        return self.lhs.size

    def __getitem__(self, j: Union[int, slice]) -> Union[BoundResult, list[BoundResult]]:
        if isinstance(j, slice):
            return [self[i] for i in range(len(self))[j]]
        b, k = divmod(range(len(self))[j], len(self.keys))
        bound_id, p, flavor = self.keys[k]
        return BoundResult(bound_id, float(self.lhs[b, k]), float(self.value[b, k]), p, flavor)


def _cases(ing: _Ingredients, p_list, frobenius, *, gap=True, orthonormal=False) -> CaseTable:
    """Every case of the ingredients' inputs, in report order (see evaluate_cases), each
    column the record of one ing method; coefficient cases need ing.c.  cor28 goes through
    the caller's frobenius_bound, so a patched one there reaches the batch."""
    columns = [ing.bombieri(), frobenius(ing.x, ing.family, ing)]
    if ing.c is not None:
        columns += ing.chain()
    for pf in dict.fromkeys(_normalize_exponent(p) for p in p_list):  # first occurrence of each, in order
        q = conjugate_exponent(pf)
        if ing.c is not None:
            for flavor in ("gram", "norms"):
                columns += (ing.span(pf, q, flavor), ing.combo(pf, q, flavor))
        columns.append(ing.thm27(pf, q))
        if 1.0 < pf <= 2.0:
            columns.append(ing.power_mean(pf, q))
            if gap:
                columns.append(ing.gap(pf))
        if orthonormal:
            columns.append(ing.orthonormal_27a(pf, q))
    return CaseTable([(c.bound_id, c.p, c.flavor) for c in columns],
                     np.stack([c.lhs for c in columns], axis=1), np.stack([c.value for c in columns], axis=1))


def evaluate_cases(x, family, c, p_list=STANDARD_P_LIST) -> Union[list[BoundResult], CaseTable]:
    """Evaluate every implemented inequality on one input.

    Exponent-free bounds come first (classical row-sum, Frobenius, and the
    two links of the refinement chain — the outer link's lhs is the middle
    term, so both inequalities of the chain are checked).  Then, per
    exponent: both span flavors, both combo flavors, the weighted
    Bessel-sum bound, and — for p ∈ (1, 2] — the power-mean bound plus the
    raw power-mean comparison on the values |(x, y_i)|.

    Given B inputs of one shape as stacks instead of a VectorFamily — x
    (B, d), the family rows (B, n, d) and c (B, n) — it evaluates them in one
    pass and returns their CaseTable, whose B·K records are those of the B
    single calls, in order.  Equal-length lists of such stacks that share n
    (d may differ) give one CaseTable over their inputs, in list order.
    """
    if isinstance(family, VectorFamily):
        return list(_cases(_Ingredients.of(family, x, c), p_list, frobenius_bound))
    return _cases(_Ingredients.stack(x, family, c), p_list, frobenius_bound)


@dataclass(frozen=True)
class VerificationReport:
    """Batch of checked inequalities: every case, the failing ones, and the tightest.

    The tightest is the first case of least margin among those whose margin is
    not NaN (an overflowed inf ≤ inf case has margin NaN).
    """

    cases: tuple[BoundResult, ...]
    failures: tuple[BoundResult, ...]
    worst_margin_case: Optional[BoundResult]
    rel_tol: float
    abs_tol: float

    @property
    def n_cases(self) -> int:
        return len(self.cases)

    @property
    def n_fail(self) -> int:
        return len(self.failures)

    @property
    def n_pass(self) -> int:
        return len(self.cases) - len(self.failures)


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
    rel_tol, abs_tol = _check_real("rel_tol", rel_tol), _check_real("abs_tol", abs_tol)
    table = _cases(_Ingredients.of(family, x, c), p_list, frobenius_bound)
    failing, worst = table.verdicts(rel_tol, abs_tol)
    cases = tuple(table)
    return VerificationReport(
        cases=cases,
        failures=tuple(cases[j] for j in failing),
        worst_margin_case=None if worst is None else cases[worst],
        rel_tol=rel_tol,
        abs_tol=abs_tol,
    )


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
    fails_by_id are keyed by the plain-string bound id.  worst is the first
    case of least non-NaN margin.
    """
    p_list = list(dict.fromkeys(map(_normalize_exponent, p_list)))  # checked on the call, even with no specs
    rel_tol, abs_tol = _check_real("rel_tol", rel_tol), _check_real("abs_tol", abs_tol)
    n_specs = n_cases = 0
    cases_by_id: Counter = Counter()
    failures: list[tuple[FamilySpec, BoundResult]] = []
    worst: Optional[tuple[FamilySpec, BoundResult]] = None
    stream = iter(specs)
    while chunk := list(itertools.islice(stream, _CHUNK)):
        by_n: dict = {}
        for i, spec in enumerate(chunk):
            by_n.setdefault(spec.n, {}).setdefault(spec.dim, []).append(i)
        # One table for the chunk, in spec order: each n's rows go to its specs' rows.
        table = None
        for n, by_dim in by_n.items():  # one call per n, its draws going straight into stacks it checks
            stacks = [[np.empty((len(members), *shape), np.complex128) for shape in ((dim,), (n, dim), (n,))]
                      for dim, members in by_dim.items()]  # one (x, rows, c) per dim, both fields together
            for (x, rows, c), members in zip(stacks, by_dim.values()):
                for b, i in enumerate(members):
                    x[b], rows[b], c[b] = _draws(chunk[i])
            part = evaluate_cases(*map(list, zip(*stacks)), p_list)  # the lists of x, rows and c stacks
            if table is None:  # the same K cases for every n
                shape = (len(chunk), len(part.keys))
                table = CaseTable(part.keys, np.empty(shape), np.empty(shape))
            order = [i for members in by_dim.values() for i in members]
            table.lhs[order], table.value[order] = part.lhs, part.value
        k = len(table.keys)
        n_specs += len(chunk)
        n_cases += len(table)
        for bound_id, _, _ in table.keys:
            cases_by_id[str(bound_id)] += len(chunk)
        if on_case is not None:
            for i, spec in enumerate(chunk):
                for case in table.records(i):
                    on_case(spec, case)
        failing, j = table.verdicts(rel_tol, abs_tol)  # row-major: spec, then case
        failures += [(chunk[f // k], table[f]) for f in failing]
        if j is not None and (worst is None or table[j].margin < worst[1].margin):
            worst = (chunk[j // k], table[j])
    return CorpusResult(
        n_specs=n_specs,
        n_cases=n_cases,
        n_pass=n_cases - len(failures),
        n_fail=len(failures),
        cases_by_id=dict(cases_by_id),
        fails_by_id=dict(Counter(str(case.bound_id) for _, case in failures)),
        failures=tuple(failures),
        worst=worst,
    )

