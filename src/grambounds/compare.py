"""Tightness comparison of the two Bessel-sum ceilings.

Strip ‖x‖² from both bounds and two Gram-dependent factors remain: the
max-row-sum factor of the classical bound and the counted entry-q-norm
factor of the power-mean bound.  On the one-dimensional two-member family
(1), (b) their difference has the closed form

    gap(b, p) = 2^(2/p-1) (1 + b^q)^(2/q) - 1 - b,     q = p/(p-1),

which takes both signs on [0,1] × (1,2]: neither bound dominates the other.
This module provides the closed form, a deterministic grid scan of its sign
structure, and a randomized search for explicit witness families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .core import VectorFamily, _check_int, _check_real, _gram_reductions
from .errors import DomainError, ShapeError
from .norms import SNAP_TOL, _as_gram, conjugate_exponent, gram_entry_qnorm, power_mean_exponent

__all__ = [
    "DOMINANCE_TOL",
    "GridCell",
    "SignScanReport",
    "DominancePair",
    "power_mean_factor",
    "gap_closed_form",
    "sign_scan",
    "dominance_search",
]

#: A factor gap must exceed this magnitude before it counts as a strict sign.
DOMINANCE_TOL = 1e-9


def power_mean_factor(gram, p) -> float:
    """n^(2/p-1) (Σ|g_ij|^q)^(1/q) — the stripped factor of the power-mean bound."""
    pf = power_mean_exponent(p)
    q = conjugate_exponent(pf)
    g = _as_gram(gram)
    return float(g.size) ** (2.0 / pf - 1.0) * gram_entry_qnorm(g, q)


def gap_closed_form(b, p) -> float:
    """power_mean_factor minus max_row_abs_sum for the family (1), (b), in closed form.

    Requires 0 ≤ b ≤ 1 and 1 < p ≤ 2; b^q at b = 0 is the continuous
    extension 0, matching the realized family (1), (0).
    """
    bf = _check_real("b", b, 1.0)
    pf = power_mean_exponent(p)
    q = conjugate_exponent(pf)
    return 2.0 ** (2.0 / pf - 1.0) * (1.0 + bf**q) ** (2.0 / q) - 1.0 - bf


def _real_array(name: str, data) -> np.ndarray:
    """data as a float64 array, the array itself if it is one; bools, text and complex numbers are not real."""
    try:
        arr = np.asarray(data)
    except ValueError as exc:  # numpy's error for a ragged nested sequence
        raise ShapeError(f"{name} must be a rectangular array, not a ragged sequence") from exc
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


class GridCell(NamedTuple):
    b: float
    p: float
    value: float


@dataclass(frozen=True, eq=False)
class SignScanReport:
    """gap_closed_form on a grid: inputs checked, arrays made read-only, counts and cells derived from values."""

    grid_b: np.ndarray
    grid_p: np.ndarray
    values: np.ndarray  # shape (len(grid_b), len(grid_p))
    n_positive: int = field(init=False)
    n_negative: int = field(init=False)
    n_zero: int = field(init=False)
    min_cell: GridCell = field(init=False)
    max_cell: GridCell = field(init=False)
    zero_tol: float

    def __post_init__(self):
        names = ("grid_b", "grid_p", "values")
        grid_b, grid_p, values = arrays = [_real_array(name, getattr(self, name)) for name in names]
        if grid_b.ndim != 1 or grid_p.ndim != 1 or values.shape != (grid_b.size, grid_p.size) or values.size == 0:
            raise ShapeError(f"need 1-D grids and values of shape (len(grid_b), len(grid_p)) with at least one cell, "
                             f"got grids {grid_b.shape}, {grid_p.shape} and values {values.shape}")
        if not np.isfinite(values).all():
            raise DomainError("values must be finite")
        ztol = _check_real("zero_tol", self.zero_tol)
        for name, a in zip(names, arrays):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        n_positive, n_negative = int((values > ztol).sum()), int((values < -ztol).sum())
        derived = dict(n_positive=n_positive, n_negative=n_negative, n_zero=values.size - n_positive - n_negative,
                       min_cell=self._cell(np.argmin(values)), max_cell=self._cell(np.argmax(values)), zero_tol=ztol)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def _cell(self, flat) -> GridCell:
        """The cell at a row-major index of values: argmin and argmax give the first extreme."""
        i, j = np.unravel_index(int(flat), self.values.shape)
        return GridCell(float(self.grid_b[i]), float(self.grid_p[j]), float(self.values[i, j]))

    def both_signs(self) -> bool:
        return self.n_positive > 0 and self.n_negative > 0


def _check_eps(name: str, eps) -> float:
    """eps in (SNAP_TOL, 1], checked under name: power_mean_exponent's rule, so every p of the grid passes it."""
    if (epsf := _check_real(name, eps, 1.0, positive=True)) <= SNAP_TOL:
        raise DomainError(f"{name} must exceed SNAP_TOL = {SNAP_TOL:g}, got {eps!r}")
    return epsf


def sign_scan(nb: int, np_count: int, eps: float = 0.01, zero_tol: float = 1e-12) -> SignScanReport:
    """Evaluate the factor gap on the uniform grid [0,1] × [1+eps, 2].

    nb and np_count are the point counts along b and p (each at least 2); cells within zero_tol of 0
    count as zeros.  Every argument is checked before any cell is evaluated, and zero_tol again by the
    report.  Deterministic: identical arguments give identical reports.
    """
    nb, np_count = _check_int("nb", nb, 2, math.inf), _check_int("np_count", np_count, 2, math.inf)
    epsf, ztol = _check_eps("eps", eps), _check_real("zero_tol", zero_tol)  # before any cell; the report rechecks it

    grid_b = np.linspace(0.0, 1.0, nb)
    grid_p = np.linspace(1.0 + epsf, 2.0, np_count)
    ps = grid_p.tolist()
    values = np.array([[gap_closed_form(b, p) for p in ps] for b in grid_b.tolist()], dtype=np.float64)
    return SignScanReport(grid_b, grid_p, values, ztol)


_CHUNK = 128  # b values that dominance_search draws and reads together


def _factors(bs: np.ndarray, pf: float) -> tuple[np.ndarray, np.ndarray]:
    """The max-row-sum and power-mean factors of the families (1), (b) for b in bs, from one Gram fold."""
    q = conjugate_exponent(pf)
    reads = _gram_reductions([np.stack([np.ones_like(bs), bs], -1)[..., None]], ("row", q))
    return reads["row"], 2.0 ** (2.0 / pf - 1.0) * reads[q]  # power_mean_factor's operations at n = 2


@dataclass(frozen=True)
class DominancePair:
    """Two witness families (1), (b_a) and (1), (b_b) on which the two bound factors order oppositely.

    family_a has the power-mean factor strictly larger, family_b strictly
    smaller; both gaps exceed DOMINANCE_TOL in magnitude.  Families and
    factors derive from the b values, so == and hash go by the numbers.
    """

    b_a: float
    b_b: float
    p: float
    family_a: VectorFamily = field(init=False, compare=False)
    family_b: VectorFamily = field(init=False, compare=False)
    bombieri_a: float = field(init=False)
    power_mean_a: float = field(init=False)
    bombieri_b: float = field(init=False)
    power_mean_b: float = field(init=False)

    def __post_init__(self):
        b_a, b_b, pf = _check_real("b_a", self.b_a, 1.0), _check_real("b_b", self.b_b, 1.0), power_mean_exponent(self.p)
        derived = dict(b_a=b_a, b_b=b_b, p=pf)  # all three checked before any family is built
        factors = zip(*(column.tolist() for column in _factors(np.array([b_a, b_b]), pf)))  # b_a's, then b_b's
        for key, b, (bombieri, power_mean) in zip("ab", (b_a, b_b), factors):
            derived.update({f"family_{key}": VectorFamily(np.array([[1.0], [b]]), field="real"),
                            f"bombieri_{key}": bombieri, f"power_mean_{key}": power_mean})
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        if not (self.gap_a > DOMINANCE_TOL and self.gap_b < -DOMINANCE_TOL):
            raise DomainError(f"witness gaps must have strict opposite signs, got {self.gap_a} and {self.gap_b}")

    gap_a = property(lambda self: self.power_mean_a - self.bombieri_a)
    gap_b = property(lambda self: self.power_mean_b - self.bombieri_b)


def dominance_search(seed: int, max_trials: int, p) -> Optional[DominancePair]:
    """Randomized search for a DominancePair at the given p.

    Draws b uniformly from [0, 1], _CHUNK values at a time, reads both factors
    of a chunk's families (1), (b) from one Gram fold, the pair's own read,
    and returns DominancePair(b_a, b_b, p) on the first b of each strict gap
    sign, in draw order.  Returns None if max_trials draws do not produce
    both signs — at p = 2 the gap is b² - b ≤ 0, so None is the expected
    outcome there.  Deterministic given seed.
    """
    pf = power_mean_exponent(p)
    trials = _check_int("max_trials", max_trials, 0, math.inf)
    rng = np.random.default_rng(_check_int("seed", seed, 0, math.inf))
    first: dict[bool, float] = {}  # the first b of each strict sign, keyed by gap > 0
    for start in range(0, trials, _CHUNK):  # a chunk of m draws has the values of m scalar draws
        bs = rng.uniform(size=min(_CHUNK, trials - start))
        bombieri, power_mean = _factors(bs, pf)
        gaps = power_mean - bombieri
        for sign, strict in ((True, gaps > DOMINANCE_TOL), (False, gaps < -DOMINANCE_TOL)):
            if strict.any():  # argmax: the first strict b of the chunk
                first.setdefault(sign, float(bs[strict.argmax()]))
        if len(first) == 2:
            return DominancePair(first[True], first[False], pf)
    return None
