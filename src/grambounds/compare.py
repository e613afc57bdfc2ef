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
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import VectorFamily, _check_int, _check_real
from .errors import DomainError
from .norms import _as_gram, conjugate_exponent, gram_entry_qnorm, max_row_abs_sum, power_mean_exponent

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


class GridCell(NamedTuple):
    b: float
    p: float
    value: float


@dataclass(frozen=True)
class SignScanReport:
    """Grid evaluation of gap_closed_form with sign counts and extremal cells."""

    grid_b: np.ndarray
    grid_p: np.ndarray
    values: np.ndarray  # shape (len(grid_b), len(grid_p))
    n_positive: int
    n_negative: int
    n_zero: int
    min_cell: GridCell
    max_cell: GridCell
    zero_tol: float

    @property
    def n_cells(self) -> int:
        return int(self.values.size)

    def both_signs(self) -> bool:
        return self.n_positive > 0 and self.n_negative > 0


def sign_scan(nb: int, np_count: int, eps: float = 0.01, zero_tol: float = 1e-12) -> SignScanReport:
    """Evaluate the factor gap on the uniform grid [0,1] × [1+eps, 2].

    nb and np_count are the point counts along b and p (each at least 2);
    cells within zero_tol of 0 count as zeros.  Deterministic: identical
    arguments give identical reports.
    """
    nb, np_count = _check_int("nb", nb, 2, math.inf), _check_int("np_count", np_count, 2, math.inf)
    epsf, ztol = _check_real("eps", eps, 1.0, positive=True), _check_real("zero_tol", zero_tol)

    grid_b = np.linspace(0.0, 1.0, nb)
    grid_p = np.linspace(1.0 + epsf, 2.0, np_count)
    values = np.empty((nb, np_count), dtype=np.float64)
    for i, b in enumerate(grid_b):
        for j, p in enumerate(grid_p):
            values[i, j] = gap_closed_form(b, p)

    n_positive = int((values > ztol).sum())
    n_negative = int((values < -ztol).sum())
    n_zero = int(values.size) - n_positive - n_negative

    imin = np.unravel_index(int(np.argmin(values)), values.shape)
    imax = np.unravel_index(int(np.argmax(values)), values.shape)
    min_cell = GridCell(float(grid_b[imin[0]]), float(grid_p[imin[1]]), float(values[imin]))
    max_cell = GridCell(float(grid_b[imax[0]]), float(grid_p[imax[1]]), float(values[imax]))

    values.setflags(write=False)
    grid_b.setflags(write=False)
    grid_p.setflags(write=False)
    return SignScanReport(
        grid_b=grid_b,
        grid_p=grid_p,
        values=values,
        n_positive=n_positive,
        n_negative=n_negative,
        n_zero=n_zero,
        min_cell=min_cell,
        max_cell=max_cell,
        zero_tol=ztol,
    )


@dataclass(frozen=True)
class DominancePair:
    """Two witness families on which the two bound factors order oppositely.

    family_a has the power-mean factor strictly larger, family_b strictly
    smaller; both gaps exceed DOMINANCE_TOL in magnitude.  Each family is
    the one-dimensional pair (1), (b).
    """

    family_a: VectorFamily
    family_b: VectorFamily
    p: float
    bombieri_a: float
    power_mean_a: float
    bombieri_b: float
    power_mean_b: float

    def __post_init__(self):
        if not (self.gap_a > DOMINANCE_TOL and self.gap_b < -DOMINANCE_TOL):
            raise DomainError(
                f"witness gaps must have strict opposite signs, got {self.gap_a} and {self.gap_b}"
            )

    @property
    def gap_a(self) -> float:
        return self.power_mean_a - self.bombieri_a

    @property
    def gap_b(self) -> float:
        return self.power_mean_b - self.bombieri_b

    @property
    def b_a(self) -> float:
        return float(self.family_a.vectors[1, 0].real)

    @property
    def b_b(self) -> float:
        return float(self.family_b.vectors[1, 0].real)


def dominance_search(seed: int, max_trials: int, p) -> Optional[DominancePair]:
    """Randomized search for a DominancePair at the given p.

    Draws b uniformly from [0, 1], evaluates both factors from the realized
    Gram matrix of (1), (b) (not from the closed form), and returns as soon
    as both a strictly positive and a strictly negative gap have been seen.
    Returns None if max_trials draws do not produce both signs — at p = 2
    the gap is b² - b ≤ 0, so None is the expected outcome there.
    Deterministic given seed.
    """
    pf = power_mean_exponent(p)
    trials = _check_int("max_trials", max_trials, 0, math.inf)
    rng = np.random.default_rng(_check_int("seed", seed, 0, math.inf))
    pos: Optional[tuple[VectorFamily, float, float]] = None
    neg: Optional[tuple[VectorFamily, float, float]] = None
    for _ in range(trials):
        b = float(rng.uniform())
        fam = VectorFamily(np.array([[1.0], [b]]), field="real")
        g = fam.gram()
        f_row = max_row_abs_sum(g)
        f_pm = power_mean_factor(g, pf)
        gap = f_pm - f_row
        if pos is None and gap > DOMINANCE_TOL:
            pos = (fam, f_row, f_pm)
        elif neg is None and gap < -DOMINANCE_TOL:
            neg = (fam, f_row, f_pm)
        if pos is not None and neg is not None:
            return DominancePair(
                family_a=pos[0],
                family_b=neg[0],
                p=pf,
                bombieri_a=pos[1],
                power_mean_a=pos[2],
                bombieri_b=neg[1],
                power_mean_b=neg[2],
            )
    return None
