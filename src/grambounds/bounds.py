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

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .core import Vector, VectorFamily, _as_complex, _dot, _gram_entries, _inner_each, _member_norms, _sum_sq
from .core import inner_each
from .errors import DomainError, ShapeError
from .norms import _magnitudes, _normalize_exponent, _row_sum_max, _Scaled, conjugate_exponent, power_mean_exponent

__all__ = [
    "REL_TOL",
    "ABS_TOL",
    "BoundId",
    "BoundResult",
    "ORTHONORMAL_TOL",
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

#: Max-entry deviation from the identity below which a family counts as
#: orthonormal for the specialized Bessel-sum bound.
ORTHONORMAL_TOL = 1e-10

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
        return self.lhs <= self.value * (1.0 + rel_tol) + abs_tol


_ABSENT = object()  # an argument not given, unlike a given None, which is rejected


class _Ingredients:
    """Everything the bound formulas read from a batch of B inputs of one family size n.

    The inputs are stacked complex128 arrays: the family rows (B, n, d), x (B, d) and
    c (B, n), x or c None when absent; a single input is a batch of one (views, no
    copies).  Every quantity is a (B,) column computed on first use and kept, so
    evaluating all bounds at many exponents reads each left-hand side, p-norm and Gram
    q-norm once, and divides each magnitude array (|t|, |c|, the member norms, |G|) by
    its maximum once for all exponents.  Each bound is one method below that returns
    its finished BoundResult, whose lhs and value are (B,) columns: the one place that
    names the bound's id, left-hand side, p and flavor, and the single arithmetic path
    for its value, which is what makes the p = 2 and composition identities bitwise.
    """

    #: The quantities read from the coordinates; every other one reads only these, c and n.
    _REDUCED = ("t", "nx", "norms", "gram_abs", "combination_norm_sq", "norms_sq_total")

    def __init__(self, n: int, rows=None, x=None, c=None, family: Optional[VectorFamily] = None):
        self.n, self.rows, self.x, self.c, self.family = n, rows, x, c, family
        self._memo: dict = {}

    @classmethod
    def of(cls, family: VectorFamily, x=_ABSENT, c=_ABSENT) -> "_Ingredients":
        """One input as a batch of one, of views; x and c are validated here, in this order."""
        ing = cls(family.size, family.vectors[None], family=family)
        if x is not _ABSENT:
            x = x if isinstance(x, Vector) else Vector(x)
            ing.x, ing.t = x.coords[None], inner_each(x, family)[None]  # inner_each also checks the dimension
        if c is not _ABSENT:
            ing.c = _as_complex(c, what="coefficients", allow_empty=True, size=family.size)[None]
        return ing

    @classmethod
    def stack(cls, x, rows, c) -> "_Ingredients":
        """B inputs as stacks x (B, d), family rows (B, n, d) and c (B, n), or as equal-length lists
        of such stacks that share n (d may differ), their inputs taken in order.  Stage 1 reduces
        each stack along d to the _REDUCED columns; stage 2, one object over them joined, does the rest."""
        if not any(isinstance(a, list) for a in (x, rows, c)):  # one stack
            x, rows, c = [x], [rows], [c]
        if not (all(isinstance(a, list) for a in (x, rows, c)) and 0 < len(rows) == len(x) == len(c)):
            raise ShapeError("need equal-length nonempty lists of x, family and c stacks")
        parts = [(_as_complex(xs, what="x stack", ndim=2), _as_complex(ys, what="family stack", ndim=3),
                  _as_complex(cs, what="c stack", ndim=2, allow_empty=True)) for xs, ys, cs in zip(x, rows, c)]
        for xs, ys, cs in parts:
            if xs.shape != ys.shape[::2] or cs.shape != ys.shape[:2] or ys.shape[1] != parts[0][1].shape[1]:
                raise ShapeError(f"need stacks x (B, d), family (B, n, d), c (B, n) with one n, "
                                 f"got {xs.shape}, {ys.shape}, {cs.shape}")
        reduced = [cls(ys.shape[1], ys, xs, cs) for xs, ys, cs in parts]
        ing = cls(reduced[0].n, c=np.concatenate([r.c for r in reduced]))
        ing.__dict__.update({name: np.concatenate([getattr(r, name) for r in reduced]) for name in cls._REDUCED})
        return ing

    # The ingredients, each computed on first use.
    t = cached_property(lambda self: _inner_each(self.rows, self.x))
    nx = cached_property(lambda self: np.sqrt(_sum_sq(self.x)))
    nx2 = cached_property(lambda self: self.nx * self.nx)
    abs_t = cached_property(lambda self: _Scaled(_magnitudes(self.t)))
    abs_c = cached_property(lambda self: _Scaled(_magnitudes(self.c)))
    norms = cached_property(lambda self: _member_norms(self.rows))
    abs_norms = cached_property(lambda self: _Scaled(_magnitudes(self.norms)))
    abs_g = cached_property(lambda self: _Scaled(self.gram_abs.reshape(len(self.gram_abs), self.n * self.n)))
    bessel_sum = cached_property(lambda self: _sum_sq(self.t))
    c_sq = cached_property(lambda self: _sum_sq(self.c))
    row_sum_max = cached_property(lambda self: _row_sum_max(self.gram_abs))
    combination_norm_sq = cached_property(lambda self: _sum_sq((self.c[:, None, :] @ self.rows)[:, 0]))

    @cached_property
    def gram_abs(self) -> np.ndarray:
        """|G| (B, n, n); a single family's from its cached Gram matrix."""
        if self.family is not None:
            return self.family.gram().abs_entries()[None]
        return np.abs(_gram_entries(self.rows))

    @cached_property
    def weighted_inner_sum_sq(self) -> np.ndarray:
        s = _dot(self.c, self.t)
        return s.real * s.real + s.imag * s.imag

    @cached_property
    def norms_sq_total(self) -> np.ndarray:
        v = self.rows
        return (v.real * v.real).sum(axis=(1, 2)) + (v.imag * v.imag).sum(axis=(1, 2))

    def pnorm(self, name: str, p: float) -> np.ndarray:
        """The p-norm column of the magnitudes in attribute ``name``, memoised per p.

        ``pnorm("abs_g", q)`` is gram_entry_qnorm of each input's Gram matrix.
        """
        key = (name, p)
        if key not in self._memo:
            self._memo[key] = getattr(self, name).pnorm(_normalize_exponent(p))
        return self._memo[key]

    # One method per bound, returning its record: p is normalized and q = conjugate_exponent(p).

    def _span_value(self, p: float, q: float, flavor: str) -> np.ndarray:
        if flavor == "gram":
            fam_factor = self.pnorm("abs_g", q)
        elif flavor == "norms":
            member_factor = self.pnorm("abs_norms", q)
            fam_factor = member_factor * member_factor
        else:
            raise DomainError(f"flavor must be 'gram' or 'norms', got {flavor!r}")
        coef = self.pnorm("abs_c", p)
        return (coef * coef) * fam_factor

    def span(self, p: float, q: float, flavor: str) -> BoundResult:
        value = self._span_value(p, q, flavor)
        return BoundResult(BoundId(f"span_{flavor}"), self.combination_norm_sq, value, p, flavor)

    def combo(self, p: float, q: float, flavor: str) -> BoundResult:
        # ‖x‖² times the span value, not a span record: its lhs ‖Σ c_i y_i‖² would go unused.
        value = self.nx2 * self._span_value(p, q, flavor)
        return BoundResult(BoundId(f"combo_{flavor}"), self.weighted_inner_sum_sq, value, p, flavor)

    def chain(self) -> tuple[BoundResult, BoundResult]:
        """The middle link (lhs ≤ middle) and the outer link (middle ≤ outer)."""
        middle = self.c_sq * self.pnorm("abs_g", 2.0)
        return (
            BoundResult(BoundId.REFINEMENT_CHAIN, self.combination_norm_sq, middle, None, "middle"),
            BoundResult(BoundId.REFINEMENT_CHAIN, middle, self.c_sq * self.norms_sq_total, None, "outer"),
        )

    def thm27(self, p: float, q: float) -> BoundResult:
        value = self.nx * self.pnorm("abs_t", p) * np.sqrt(self.pnorm("abs_g", q))
        return BoundResult(BoundId.WEIGHTED_BESSEL, self.bessel_sum, value, p)

    def orthonormal_27a(self, p: float, q: float) -> BoundResult:
        expo = 0.0 if math.isinf(q) else 1.0 / (2.0 * q)
        value = self.nx * float(self.n) ** expo * self.pnorm("abs_t", p)
        return BoundResult(BoundId.ORTHONORMAL_BESSEL, self.bessel_sum, value, p)

    def _power_mean_value(self, p: float, q: float) -> np.ndarray:
        # Frobenius is this at p = q = 2, where scale = n^0 = 1.0 exactly.
        scale = float(self.n) ** (2.0 / p - 1.0)
        return scale * self.nx2 * self.pnorm("abs_g", q)

    def power_mean(self, p: float, q: float) -> BoundResult:
        return BoundResult(BoundId.POWER_MEAN, self.bessel_sum, self._power_mean_value(p, q), p)

    def frobenius(self) -> BoundResult:
        return BoundResult(BoundId.FROBENIUS, self.bessel_sum, self._power_mean_value(2.0, 2.0))

    def bombieri(self) -> BoundResult:
        return BoundResult(BoundId.BOMBIERI, self.bessel_sum, self.nx2 * self.row_sum_max)

    def gap(self, p: float) -> BoundResult:
        return _power_mean_gap(self.abs_t, p)


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
    return _one(_Ingredients.of(family, c=alphas).span(pf, conjugate_exponent(pf), flavor))


def combo_bound(x, family: VectorFamily, c, p, flavor: str = "gram") -> BoundResult:
    """Ceiling for |Σ c_i (x, y_i)|²: ‖x‖² times the span ceiling at ᾱ = c̄.

    The value is literally norm(x)² * span_bound(conj(c), ...).value — the
    same arithmetic path, and |c̄_i| = |c_i| bitwise — so the composition
    identity holds bitwise.
    """
    pf = _normalize_exponent(p)
    return _one(_Ingredients.of(family, x, c).combo(pf, conjugate_exponent(pf), flavor))


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
    return _one(_Ingredients.of(family, x).thm27(pf, conjugate_exponent(pf)))


def orthonormal_bessel_bound(x, family: VectorFamily, p, tol: float = ORTHONORMAL_TOL) -> BoundResult:
    """The bessel_sum_bound specialized to orthonormal families, where the
    Gram factor collapses to n^(1/(2q)) (read as 1 when q = ∞).

    Raises NotOrthonormalError when the family's Gram matrix is farther than
    ``tol`` from the identity in max-entry norm.
    """
    family.require_orthonormal(tol)
    pf = _normalize_exponent(p)
    return _one(_Ingredients.of(family, x).orthonormal_27a(pf, conjugate_exponent(pf)))


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
    return _one(_Ingredients.of(family, x).power_mean(pf, conjugate_exponent(pf)))


def bombieri_bound(x, family: VectorFamily) -> BoundResult:
    """The classical ceiling ‖x‖² max_i Σ_j |g_ij|; equals ‖x‖² itself on
    orthonormal families, recovering the plain Bessel inequality."""
    return _one(_Ingredients.of(family, x).bombieri())


def power_mean_gap(values, p) -> BoundResult:
    """Evaluate (Σv^p)^(2/p) (lhs) against n^(2/p-1) Σv² (value) for nonnegative v, p ∈ (1, 2].

    Values count as complex, and are rejected, only when some imaginary part is nonzero.
    """
    pf = power_mean_exponent(p)
    z = _as_complex(values, what="values", allow_empty=True)
    if z.imag.any():
        raise DomainError("values must be real and nonnegative")
    v = np.ascontiguousarray(z.real)  # a strided v @ v can round differently
    if v.size and float(v.min()) < 0.0:
        raise DomainError(f"values must be nonnegative, got {float(v.min())}")
    return _one(_power_mean_gap(_Scaled(v[None]), pf))


def _power_mean_gap(v: _Scaled, pf: float) -> BoundResult:
    """power_mean_gap on rows of scaled finite nonnegative float64 values and a validated p."""
    lhs = (v.max * v.max) * v.root_power_sum(pf, 2.0 / pf)
    rhs = float(v.a.shape[1]) ** (2.0 / pf - 1.0) * _dot(v.a, v.a)
    return BoundResult(BoundId.POWER_MEAN_GAP, lhs, rhs, pf)
