"""Randomized input generation and batch verification of every inequality.

Every case is a bounds.BoundResult, checked with BoundResult.holds at the
tolerances REL_TOL and ABS_TOL (re-exported here from bounds).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .bounds import ABS_TOL, REL_TOL, BoundResult, _Ingredients, frobenius_bound
from .core import Vector, VectorFamily
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
    "random_family",
    "random_orthonormal_family",
    "random_specs",
    "standard_corpus",
    "evaluate_cases",
    "verify_all",
    "verify_corpus",
    "check_schwarz_chain",
]

#: Exponents exercised by default: both limit branches, a near-1 value with
#: a large conjugate, the self-conjugate point, and one value beyond 2.
STANDARD_P_LIST = (1.0, 1.1, 1.5, 2.0, 3.0, math.inf)

#: Master seed of the standard verification corpus.
CORPUS_SEED = 1729
CORPUS_SIZE = 10_000
CORPUS_DIM_MAX = 8
CORPUS_N_MAX = 10

_FIELDS = ("real", "complex")


@dataclass(frozen=True)
class FamilySpec:
    """Deterministic recipe for one random (x, family, coefficients) triple."""

    dim: int
    n: int
    field: str = "real"
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.dim, numbers.Integral) or not 1 <= int(self.dim) <= 16:
            raise DomainError(f"dim must be an integer in [1, 16], got {self.dim!r}")
        if not isinstance(self.n, numbers.Integral) or not 0 <= int(self.n) <= 32:
            raise DomainError(f"n must be an integer in [0, 32], got {self.n!r}")
        if self.field not in _FIELDS:
            raise DomainError(f"field must be 'real' or 'complex', got {self.field!r}")
        scale = float(self.scale)
        if not math.isfinite(scale) or scale <= 0.0:
            raise DomainError(f"scale must be a positive real, got {self.scale!r}")
        if not isinstance(self.seed, numbers.Integral) or not 0 <= int(self.seed) < 2**64:
            raise DomainError(f"seed must be a 64-bit integer, got {self.seed!r}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "seed", int(self.seed))


def _draw(rng: np.random.Generator, shape, field: str) -> np.ndarray:
    if field == "real":
        return rng.standard_normal(shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_family(spec: FamilySpec) -> tuple[Vector, VectorFamily, np.ndarray]:
    """One (x, family, coefficients) triple; bit-identical for equal specs.

    Coordinates are i.i.d. standard normal (independently in the real and
    imaginary parts for complex specs), scaled by spec.scale; the n
    coefficients are standard normal, unscaled.  Draw order is fixed:
    x, then the family rows, then the coefficients.
    """
    rng = np.random.default_rng(spec.seed)
    x = Vector(_draw(rng, spec.dim, spec.field) * spec.scale)
    fam = VectorFamily(_draw(rng, (spec.n, spec.dim), spec.field) * spec.scale, field=spec.field)
    c = _draw(rng, spec.n, spec.field)
    return x, fam, c


def random_orthonormal_family(dim: int, n: int, field: str = "real", seed: int = 0) -> VectorFamily:
    """n orthonormal vectors in dimension dim ≥ n, via QR of a random matrix."""
    if field not in _FIELDS:
        raise DomainError(f"field must be 'real' or 'complex', got {field!r}")
    if not 1 <= n <= dim:
        raise DomainError(f"need 1 <= n <= dim, got n={n}, dim={dim}")
    rng = np.random.default_rng(seed)
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
    """Stream of deterministic FamilySpecs with log-uniform scales."""
    if field not in _FIELDS + ("both",):
        raise DomainError(f"field must be 'real', 'complex' or 'both', got {field!r}")
    if not 0.0 < scale_low <= scale_high:
        raise DomainError("need 0 < scale_low <= scale_high")
    rng = np.random.default_rng(master_seed)
    lo, hi = math.log10(scale_low), math.log10(scale_high)
    for _ in range(int(count)):
        dim = int(rng.integers(1, dim_max + 1))
        n = int(rng.integers(0, n_max + 1))
        fld = field if field != "both" else _FIELDS[int(rng.integers(2))]
        scale = float(10.0 ** rng.uniform(lo, hi))
        seed = int(rng.integers(0, 2**63))
        yield FamilySpec(dim=dim, n=n, field=fld, scale=scale, seed=seed)


def standard_corpus() -> Iterator[FamilySpec]:
    """The fixed 10,000-spec corpus used by the batch soundness check."""
    return random_specs(CORPUS_SIZE, CORPUS_SEED, dim_max=CORPUS_DIM_MAX, n_max=CORPUS_N_MAX, field="both")


def _dedup_p(p_list: Iterable) -> list[float]:
    """Normalized exponents, first occurrence of each kept, in order."""
    return list(dict.fromkeys(_normalize_exponent(p) for p in p_list))


def _cases(ing: _Ingredients, p_list, frobenius, *, gap=True, orthonormal=False) -> Iterator[BoundResult]:
    """Every case of one input in report order (see evaluate_cases), each the record of one
    ing method; coefficient cases need ing.c.  cor28 goes through the caller's
    frobenius_bound, so a patched one there reaches the batch."""
    yield ing.bombieri()
    yield frobenius(ing.x, ing.family, ing)
    if ing.c is not None:
        yield from ing.chain()
    for pf in _dedup_p(p_list):
        q = conjugate_exponent(pf)
        if ing.c is not None:
            for flavor in ("gram", "norms"):
                yield ing.span(pf, q, flavor)
                yield ing.combo(pf, q, flavor)
        yield ing.thm27(pf, q)
        if 1.0 < pf <= 2.0:
            yield ing.power_mean(pf, q)
            if gap:
                yield ing.gap(pf)
        if orthonormal:
            yield ing.orthonormal_27a(pf, q)


def evaluate_cases(x, family: VectorFamily, c, p_list=STANDARD_P_LIST) -> list[BoundResult]:
    """Evaluate every implemented inequality on one input.

    Exponent-free bounds come first (classical row-sum, Frobenius, and the
    two links of the refinement chain — the outer link's lhs is the middle
    term, so both inequalities of the chain are checked).  Then, per
    exponent: both span flavors, both combo flavors, the weighted
    Bessel-sum bound, and — for p ∈ (1, 2] — the power-mean bound plus the
    raw power-mean comparison on the values |(x, y_i)|.
    """
    return list(_cases(_Ingredients(family, x, c), p_list, frobenius_bound))


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
    cases = tuple(evaluate_cases(x, family, c, p_list))
    return VerificationReport(
        cases=cases,
        failures=tuple(case for case in cases if not case.holds(rel_tol, abs_tol)),
        worst_margin_case=min(
            (case for case in cases if not math.isnan(case.margin)), key=attrgetter("margin"), default=None
        ),
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


def verify_corpus(
    specs: Iterable[FamilySpec],
    p_list=STANDARD_P_LIST,
    *,
    rel_tol: float = REL_TOL,
    abs_tol: float = ABS_TOL,
    on_case: Optional[Callable[[FamilySpec, BoundResult], None]] = None,
) -> CorpusResult:
    """Run verify_all over a stream of specs and aggregate the verdicts.

    on_case, when given, observes every checked case in deterministic
    order (useful for streaming serialization or hashing).  cases_by_id and
    fails_by_id are keyed by the plain-string bound id.
    """
    n_specs = n_cases = n_fail = 0
    cases_by_id: dict = {}
    fails_by_id: dict = {}
    failures: list[tuple[FamilySpec, BoundResult]] = []
    worst: Optional[tuple[FamilySpec, BoundResult]] = None
    for spec in specs:
        x, fam, c = random_family(spec)
        report = verify_all(x, fam, c, p_list, rel_tol=rel_tol, abs_tol=abs_tol)
        n_specs += 1
        n_cases += report.n_cases
        n_fail += report.n_fail
        tightest = report.worst_margin_case
        if tightest is not None and (worst is None or tightest.margin < worst[1].margin):
            worst = (spec, tightest)
        for case in report.cases:
            # A BoundId hashes and compares as its string, so the keys become str below.
            cases_by_id[case.bound_id] = cases_by_id.get(case.bound_id, 0) + 1
            if on_case is not None:
                on_case(spec, case)
        for case in report.failures:
            fails_by_id[case.bound_id] = fails_by_id.get(case.bound_id, 0) + 1
            failures.append((spec, case))
    return CorpusResult(
        n_specs=n_specs,
        n_cases=n_cases,
        n_pass=n_cases - n_fail,
        n_fail=n_fail,
        cases_by_id={str(k): v for k, v in cases_by_id.items()},
        fails_by_id={str(k): v for k, v in fails_by_id.items()},
        failures=tuple(failures),
        worst=worst,
    )


def check_schwarz_chain(family: VectorFamily) -> bool:
    """Whether every Gram entry satisfies |g_ij| ≤ ‖z_i‖ ‖z_j‖ (with float slack)."""
    if family.size == 0:
        return True
    g = family.gram().abs_entries()
    member_norms = family.member_norms()
    return bool(np.all(g <= np.outer(member_norms, member_norms) * (1.0 + 1e-12)))
