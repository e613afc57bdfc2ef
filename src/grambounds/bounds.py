"""Evaluators for every implemented inequality: each returns the bounded
quantity (lhs) together with its certified ceiling (value), so downstream
verification reports exact margins without recomputation.

Three left-hand sides appear:

    combination_norm_sq   ‖Σ α_i z_i‖²
    weighted_inner_sum_sq |Σ c_i (x, y_i)|²
    bessel_sum            Σ |(x, y_i)|²

and each bound family ceilings one of them using coefficient p-norms and
Gram-entry q-norms with conjugate (p, q).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .core import ORTHONORMAL_TOL, VectorFamily, _as_complex, _dot, _gram_reductions, _inner_each, _Scaled, _sq_norms
from .core import _as_real, _check_dim, _check_family, _sum_sq
from .errors import DomainError, ShapeError
from .norms import _exponents, _magnitudes, _normalize_exponent, conjugate_exponent, power_mean_exponent

__all__ = [
    "REL_TOL",
    "ABS_TOL",
    "BoundId",
    "BoundResult",
    "CaseTable",
    "combination_norm_sq",
    "weighted_inner_sum_sq",
    "bessel_sum",
    "span_bound",
    "combo_bound",
    "refinement_chain",
    "bessel_sum_bound",
    "orthonormal_bessel_bound",
    "frobenius_bound",
    "power_mean_bound",
    "bombieri_bound",
    "power_mean_gap",
]

#: Default slack of BoundResult.holds.  Every inequality is exact in real
#: arithmetic, so the slack absorbs only floating-point rounding: a formula
#: error produces violations of order one and cannot hide in it.
REL_TOL = 1e-10
ABS_TOL = 1e-12


class BoundId(str, Enum):
    """Stable identifiers for the bound families, used in reports and CSV output."""

    SPAN_GRAM = "span_gram"
    SPAN_NORMS = "span_norms"
    COMBO_GRAM = "combo_gram"
    COMBO_NORMS = "combo_norms"
    REFINEMENT_CHAIN = "cor22_chain"
    WEIGHTED_BESSEL = "thm27"
    FROBENIUS = "cor28"
    POWER_MEAN = "eq211"
    BOMBIERI = "bombieri"
    ORTHONORMAL_BESSEL = "orthonormal_27a"
    POWER_MEAN_GAP = "power_mean"  # the raw power-mean comparison behind eq211

    __str__ = str.__str__  # the plain value, CSV-friendly; a C-level str is cheap per case row


@dataclass(frozen=True, init=False)
class BoundResult:
    """One evaluated inequality: lhs is the bounded quantity, value (= rhs) its ceiling.

    The only record of an evaluated case: every evaluator, evaluate_cases,
    verify_all and verify_corpus's on_case hand out this type.
    """

    bound_id: BoundId
    lhs: float
    value: float
    p: Optional[float] = None
    flavor: Optional[str] = None

    def __init__(self, bound_id, lhs, value, p=None, flavor=None):
        # One dict write, not the generated frozen __init__'s five object.__setattr__ calls.
        self.__dict__.update(bound_id=bound_id, lhs=lhs, value=value, p=p, flavor=flavor)

    @property
    def rhs(self) -> float:
        return self.value

    @property
    def margin(self) -> float:
        return self.value - self.lhs

    def holds(self, rel_tol: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
        """lhs ≤ value·(1 + rel_tol) + abs_tol with both sides finite: an overflowed or NaN side never holds."""
        finite = (abs(self.lhs) < np.inf) & (abs(self.value) < np.inf)
        return (self.lhs <= self.value * (1.0 + rel_tol) + abs_tol) & finite


@dataclass(eq=False)
class CaseTable:
    """The cases of B inputs, K per input, as columns.

    ``keys`` holds the K cases' (bound_id, p, flavor), and ``lhs`` and ``value``
    are (B, K) matrices; ``records(b)`` builds input b's K BoundResults, ``record(b, k)``
    the one of case k, and the length is the number of cases, B·K.
    """

    keys: list
    lhs: np.ndarray
    value: np.ndarray

    # The record's margin and its one tolerance predicate, here on whole (B, K) matrices.
    margin = BoundResult.margin
    holds = BoundResult.holds

    def records(self, b: int) -> list[BoundResult]:
        """The K records of input b, in case order."""
        rows = zip(self.keys, self.lhs[b].tolist(), self.value[b].tolist())
        return [BoundResult(bound_id, lhs, value, p, flavor) for (bound_id, p, flavor), lhs, value in rows]

    def record(self, b: int, k: int) -> BoundResult:
        """records(b)[k], built alone."""
        bound_id, p, flavor = self.keys[k]
        return BoundResult(bound_id, self.lhs.item(b, k), self.value.item(b, k), p, flavor)

    def __len__(self) -> int:
        return self.lhs.size


_ABSENT = object()  # an argument not given, unlike a given None, which is rejected


def _joined(f, *lists):
    """f of each stack and its x or c, a reduction along d, joined in stack order."""
    return np.concatenate([f(*arrays) for arrays in zip(*lists)])


class _Ingredients:
    """Everything the bound formulas read from B inputs of one family size n.

    The inputs are lists of complex128 stacks: the family rows (B_s, n, d_s), x (B_s, d_s) and c (B_s, n),
    xs or cs None when absent; n is read from the first row stack, and a single input is the one-stack
    case.  Every quantity is a (B,) column computed on first use and kept, so evaluating all bounds at
    many exponents reads each left-hand side, p-norm and Gram q-norm once: each reduction along d is
    made per stack and joined by _joined, and |t|, |c| and the member norms are each a _Scaled, divided
    by its maximum once and keeping its p-norm at each p.  The Gram matrix is read only through
    ``gram(read)``, whose first call makes one pass over the stacks' Gram products that folds |G| into that
    read and those in ``reads`` (see core._fold); a caller that reads several names them in ``reads`` first.
    Each bound is one method below that returns its finished BoundResult, whose lhs and value are (B,)
    columns: the one place that names the bound's id, left-hand side, p, flavor and Gram read, and the single
    arithmetic path for its value, which is what makes the p = 2 and composition identities bitwise.
    ``cases`` is the one list of the standard cases: their report order, guards and Gram reads.
    """

    def __init__(self, stacks, xs=None, cs=None):
        self.stacks, self.xs, self.cs, self.reads, self._gram = stacks, xs, cs, (), None
        self.n = stacks[0].shape[1]

    @classmethod
    def of(cls, family: VectorFamily, x=_ABSENT, c=_ABSENT) -> "_Ingredients":
        """One input as the one-stack case; x and c are validated here, in this order."""
        ing = cls([_check_family(family).vectors[None]])
        if x is not _ABSENT:
            ing.xs = [_check_dim(_as_complex(x), family.dim, "vector")[None]]
        if c is not _ABSENT:
            ing.cs = [_as_complex(c, what="coefficients", allow_empty=True, size=family.size)[None]]
        return ing

    @classmethod
    def stack(cls, x, rows, c) -> "_Ingredients":
        """Inputs as equal-length lists of stacks x (B, d), family rows (B, n, d) and c (B, n) of one n (d may
        differ), in order: every row stack is checked, then each part as one input is, then batch lengths and n."""
        if not (all(isinstance(a, list) for a in (x, rows, c)) and 0 < len(rows) == len(x) == len(c)):
            raise ShapeError("need equal-length nonempty lists of x, family and c stacks")
        rows = [_as_complex(ys, what="family stack", ndim=3) for ys in rows]  # first: a plain-list family lands here
        parts = [(_check_dim(_as_complex(xs, what="x stack", ndim=2), ys.shape[2], "x stack"),
                  _as_complex(cs, what="c stack", ndim=2, allow_empty=True, size=ys.shape[1]))
                 for xs, ys, cs in zip(x, rows, c)]
        for (xs, cs), ys in zip(parts, rows):
            if not len(xs) == len(ys) == len(cs) or ys.shape[1] != rows[0].shape[1]:
                raise ShapeError(f"need stacks x (B, d), family (B, n, d), c (B, n) with one n, "
                                 f"got {xs.shape}, {ys.shape}, {cs.shape}")
        return cls(rows, *zip(*parts))  # the x stacks, then the c stacks

    # The ingredients, each computed on first use.
    t = cached_property(lambda self: _joined(_inner_each, self.stacks, self.xs))
    nx = cached_property(lambda self: np.sqrt(_joined(_sum_sq, self.xs)))
    nx2 = cached_property(lambda self: self.nx * self.nx)
    c = cached_property(lambda self: None if self.cs is None else np.concatenate(self.cs))
    abs_t = cached_property(lambda self: _Scaled(_magnitudes(self.t)))
    abs_c = cached_property(lambda self: _Scaled(_magnitudes(self.c)))
    sq_norms = cached_property(lambda self: tuple(map(np.concatenate, zip(*map(_sq_norms, self.stacks)))))  # a pair
    norms = cached_property(lambda self: np.sqrt(self.sq_norms[0]))
    norms_sq_total = cached_property(lambda self: self.sq_norms[1])
    abs_norms = cached_property(lambda self: _Scaled(_magnitudes(self.norms)))
    bessel_sum = cached_property(lambda self: _sum_sq(self.t))
    c_sq = cached_property(lambda self: _sum_sq(self.c))
    combination_norm_sq = cached_property(
        lambda self: _joined(lambda ys, c: _sum_sq((c[:, None, :] @ ys)[:, 0]), self.stacks, self.cs))
    weighted_inner_sum_sq = cached_property(lambda self: _sum_sq(_dot(self.c, self.t)[:, None]))

    def gram(self, read) -> np.ndarray:
        """The column of one Gram reduction.  The first call makes the one Gram pass, over ``reads``
        and ``read``; a later read must be one of those (KeyError otherwise)."""
        if self._gram is None:
            self._gram = _gram_reductions(self.stacks, (*self.reads, read))
        return self._gram[read]

    # One method per bound, returning its record: p is normalized and q = conjugate_exponent(p).

    def _span_value(self, p: float, flavor: str) -> np.ndarray:
        if flavor == "gram":
            fam_factor = self.gram(conjugate_exponent(p))
        elif flavor == "norms":
            member_factor = self.abs_norms.pnorm(conjugate_exponent(p))
            fam_factor = member_factor * member_factor
        else:
            raise DomainError(f"flavor must be 'gram' or 'norms', got {flavor!r}")
        coef = self.abs_c.pnorm(p)
        return (coef * coef) * fam_factor

    def span(self, p: float, flavor: str) -> BoundResult:
        value = self._span_value(p, flavor)
        return BoundResult(BoundId(f"span_{flavor}"), self.combination_norm_sq, value, p, flavor)

    def combo(self, p: float, flavor: str) -> BoundResult:
        # ‖x‖² times the span value, not a span record: its lhs ‖Σ c_i y_i‖² would go unused.
        value = self.nx2 * self._span_value(p, flavor)
        return BoundResult(BoundId(f"combo_{flavor}"), self.weighted_inner_sum_sq, value, p, flavor)

    def chain(self) -> tuple[BoundResult, BoundResult]:
        """The middle link (lhs ≤ middle) and the outer link (middle ≤ outer)."""
        middle = self.c_sq * self.gram(2.0)
        return (
            BoundResult(BoundId.REFINEMENT_CHAIN, self.combination_norm_sq, middle, None, "middle"),
            BoundResult(BoundId.REFINEMENT_CHAIN, middle, self.c_sq * self.norms_sq_total, None, "outer"),
        )

    def thm27(self, p: float) -> BoundResult:
        value = self.nx * self.abs_t.pnorm(p) * np.sqrt(self.gram(conjugate_exponent(p)))
        return BoundResult(BoundId.WEIGHTED_BESSEL, self.bessel_sum, value, p)

    def orthonormal_27a(self, p: float) -> BoundResult:
        value = self.nx * float(self.n) ** (1.0 / (2.0 * conjugate_exponent(p))) * self.abs_t.pnorm(p)
        return BoundResult(BoundId.ORTHONORMAL_BESSEL, self.bessel_sum, value, p)

    def _power_mean_value(self, p: float) -> np.ndarray:
        # Frobenius is this at p = q = 2, where scale = n^0 = 1.0 exactly.
        scale = float(self.n) ** (2.0 / p - 1.0)
        return scale * self.nx2 * self.gram(conjugate_exponent(p))

    def power_mean(self, p: float) -> BoundResult:
        return BoundResult(BoundId.POWER_MEAN, self.bessel_sum, self._power_mean_value(p), p)

    def frobenius(self) -> BoundResult:
        return BoundResult(BoundId.FROBENIUS, self.bessel_sum, self._power_mean_value(2.0))

    def bombieri(self) -> BoundResult:
        return BoundResult(BoundId.BOMBIERI, self.bessel_sum, self.nx2 * self.gram("row"))

    def gap(self, p: float) -> BoundResult:
        return _power_mean_gap(self.abs_t, p)

    def cases(self, p_list, frobenius, *, orthonormal_tol=None) -> CaseTable:
        """Every standard case of these inputs, in report order, each column the record of one method above.

        Report order: Bombieri, cor28 and, with c, the refinement chain's two links (the outer link's lhs
        is the middle term, so both inequalities are checked); then per exponent of p_list, the first
        occurrence of each in order: with c, span and combo of the gram flavor, then of the norms flavor;
        thm27; for p ∈ (1, 2], eq211 and the raw power-mean comparison on |(x, y_i)|; and orthonormal_27a
        when every input's max |G - I| is within orthonormal_tol, which adds "eye" to the reads.  The Gram
        reads ("row" for Bombieri, 2 for cor28 and the chain, each conjugate exponent) are declared before
        the first case, so one Gram pass gives them all.  cor28 goes through the caller's frobenius_bound,
        so a patched one there reaches the batch.
        """
        ps = _exponents(p_list)
        self.reads = ("row", 2.0, *map(conjugate_exponent, ps), *(() if orthonormal_tol is None else ("eye",)))
        columns = [self.bombieri(), frobenius(None, None, self)]
        if self.c is not None:
            columns += self.chain()
        orthonormal = orthonormal_tol is not None and bool((self.gram("eye") <= orthonormal_tol).all())
        for pf in ps:
            if self.c is not None:
                for flavor in ("gram", "norms"):
                    columns += (self.span(pf, flavor), self.combo(pf, flavor))
            columns.append(self.thm27(pf))
            if 1.0 < pf <= 2.0:
                columns += (self.power_mean(pf), self.gap(pf))
            if orthonormal:
                columns.append(self.orthonormal_27a(pf))
        return CaseTable([(c.bound_id, c.p, c.flavor) for c in columns],
                         np.stack([c.lhs for c in columns], axis=1), np.stack([c.value for c in columns], axis=1))


def _one(column: BoundResult) -> BoundResult:
    """The record of a batch of one."""
    return BoundResult(column.bound_id, float(column.lhs[0]), float(column.value[0]), column.p, column.flavor)


# ---------------------------------------------------------------------------
# Left-hand sides


def combination_norm_sq(alphas, family: VectorFamily) -> float:
    """‖Σ_i α_i z_i‖² — squared norm of a coefficient combination."""
    return float(_Ingredients.of(family, c=alphas).combination_norm_sq[0])


def weighted_inner_sum_sq(x, family: VectorFamily, c) -> float:
    """|Σ_i c_i (x, y_i)|² — squared modulus of a weighted inner-product sum."""
    return float(_Ingredients.of(family, x, c).weighted_inner_sum_sq[0])


def bessel_sum(x, family: VectorFamily) -> float:
    """Σ_i |(x, y_i)|² — the quantity every Bessel-type bound ceilings."""
    return float(_Ingredients.of(family, x).bessel_sum[0])


# ---------------------------------------------------------------------------
# Bounds on ‖Σ α_i z_i‖² and |Σ c_i (x, y_i)|²


def span_bound(alphas, family: VectorFamily, p, flavor: str = "gram") -> BoundResult:
    """Ceiling for ‖Σ α_i z_i‖²: seq_pnorm(α, p)² times a family factor.

    flavor="gram" uses the entrywise q-norm of the Gram matrix;
    flavor="norms" uses seq_pnorm of the member norms, squared.  The gram
    flavor is never larger (entrywise |g_ij| ≤ ‖z_i‖‖z_j‖).
    """
    pf = _normalize_exponent(p)
    return _one(_Ingredients.of(family, c=alphas).span(pf, flavor))


def combo_bound(x, family: VectorFamily, c, p, flavor: str = "gram") -> BoundResult:
    """Ceiling for |Σ c_i (x, y_i)|²: ‖x‖² times the span ceiling at ᾱ = c̄.

    The value is literally norm(x)² * span_bound(conj(c), ...).value — the
    same arithmetic path, and |c̄_i| = |c_i| bitwise — so the composition
    identity holds bitwise.
    """
    pf = _normalize_exponent(p)
    return _one(_Ingredients.of(family, x, c).combo(pf, flavor))


def refinement_chain(alphas, family: VectorFamily) -> tuple[BoundResult, BoundResult]:
    """Two nested ceilings for ‖Σ α_i z_i‖² as two links: the middle link bounds
    it by the Frobenius term Σ|α_i|² (Σ|g_ij|²)^(1/2), the outer link bounds that
    term by the classical Σ|α_i|² Σ‖z_i‖²."""
    middle, outer = _Ingredients.of(family, c=alphas).chain()
    return _one(middle), _one(outer)


# ---------------------------------------------------------------------------
# Bounds on Σ |(x, y_i)|²


def bessel_sum_bound(x, family: VectorFamily, p) -> BoundResult:
    """Ceiling ‖x‖ · seq_pnorm(t, p) · gram_entry_qnorm(G, q)^(1/2) with
    t_i = |(x, y_i)| — the square root of the combo bound at c_i = conj(x, y_i)."""
    pf = _normalize_exponent(p)
    return _one(_Ingredients.of(family, x).thm27(pf))


def orthonormal_bessel_bound(x, family: VectorFamily, p, tol: float = ORTHONORMAL_TOL) -> BoundResult:
    """The bessel_sum_bound specialized to orthonormal families, where the
    Gram factor collapses to n^(1/(2q)) (read as 1 when q = ∞).

    Its arguments are checked first; then it raises NotOrthonormalError when the
    family's Gram matrix is farther than ``tol`` from the identity in max-entry norm.
    """
    pf = _normalize_exponent(p)
    ing = _Ingredients.of(family, x)
    family.require_orthonormal(tol)
    return _one(ing.orthonormal_27a(pf))


def frobenius_bound(x, family: VectorFamily, _ing: Optional[_Ingredients] = None) -> BoundResult:
    """Ceiling ‖x‖² (Σ|g_ij|²)^(1/2) for the Bessel sum; batch paths pass their ingredients as _ing."""
    return _one(_Ingredients.of(family, x).frobenius()) if _ing is None else _ing.frobenius()


def power_mean_bound(x, family: VectorFamily, p) -> BoundResult:
    """Ceiling n^(2/p-1) ‖x‖² (Σ|g_ij|^q)^(1/q) for the Bessel sum, p ∈ (1, 2].

    At p = 2 the count factor is n^0 = 1 and q = 2, so this reproduces
    frobenius_bound exactly.  p outside (1, 2] raises ExponentRangeError:
    the power-mean step behind this ceiling needs 1 < p ≤ 2, and we do not
    extend it by limits.
    """
    pf = power_mean_exponent(p)
    return _one(_Ingredients.of(family, x).power_mean(pf))


def bombieri_bound(x, family: VectorFamily) -> BoundResult:
    """The classical ceiling ‖x‖² max_i Σ_j |g_ij|; equals ‖x‖² itself on
    orthonormal families, recovering the plain Bessel inequality."""
    return _one(_Ingredients.of(family, x).bombieri())


def power_mean_gap(values, p) -> BoundResult:
    """Evaluate (Σv^p)^(2/p) (lhs) against n^(2/p-1) Σv² (value) for real nonnegative v, p ∈ (1, 2]."""
    pf = power_mean_exponent(p)
    v = _as_real(values, what="values", allow_empty=True)
    if v.size and float(v.min()) < 0.0:
        raise DomainError(f"values must be nonnegative, got {float(v.min())}")
    return _one(_power_mean_gap(_Scaled(v[None]), pf))


def _power_mean_gap(v: _Scaled, pf: float) -> BoundResult:
    """power_mean_gap on rows of scaled finite nonnegative float64 values and a validated p."""
    lhs = (v.max * v.max) * v.root_power_sum(pf, 2.0 / pf)
    rhs = float(v.a.shape[1]) ** (2.0 / pf - 1.0) * _dot(v.a, v.a)
    return BoundResult(BoundId.POWER_MEAN_GAP, lhs, rhs, pf)
