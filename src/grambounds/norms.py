"""Hölder exponents and the scalar/matrix norm factors on bound right-hand sides.

The three branch families used throughout the package (max / Hölder / sum)
are a single parametric family here: an exponent p ∈ [1, ∞] selects the
branch, with p = ∞ giving the max, p = 1 the plain sum, and everything in
between the genuine Hölder case.  That keeps the branch logic in one place
and makes the limit behavior testable instead of assumed.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .core import GramMatrix, _as_complex
from .errors import DomainError, ExponentError, ExponentRangeError

__all__ = [
    "SNAP_TOL",
    "conjugate_exponent",
    "seq_pnorm",
    "gram_entry_qnorm",
    "max_row_abs_sum",
    "power_mean_exponent",
]

#: Exponents this close to 1 are treated as exactly 1.  The conjugate
#: q = p/(p-1) explodes as p -> 1, so a p that differs from 1 only by
#: representation noise would otherwise select an astronomically large
#: finite q with no numerical meaning.
SNAP_TOL = 1e-12


def _normalize_exponent(p) -> float:
    """Coerce p to float, snap near-1 values to 1, reject anything < 1 or NaN."""
    try:
        pf = float(p)
    except (TypeError, ValueError) as exc:
        raise ExponentError(f"exponent must be a real number in [1, inf], got {p!r}") from exc
    if math.isnan(pf):
        raise ExponentError("exponent must not be NaN")
    if abs(pf - 1.0) <= SNAP_TOL:
        return 1.0
    if pf < 1.0:
        raise ExponentError(f"exponent must be >= 1, got {pf}")
    return pf


def conjugate_exponent(p) -> float:
    """The q with 1/p + 1/q = 1, using the limit pairs (1, inf) and (inf, 1)."""
    pf = _normalize_exponent(p)
    if pf == 1.0:
        return math.inf
    if math.isinf(pf):
        return 1.0
    return pf / (pf - 1.0)


def power_mean_exponent(p) -> float:
    """Validate an exponent required to lie strictly inside (1, 2].

    Values that _normalize_exponent snaps to 1 (within SNAP_TOL of it) are
    rejected: the operations gated by this check are not stated at p = 1 and
    are not extended there.
    """
    try:
        pf = float(p)
    except (TypeError, ValueError) as exc:
        raise ExponentRangeError(f"exponent must be a real number in (1, 2], got {p!r}") from exc
    if math.isnan(pf) or pf - 1.0 <= SNAP_TOL or pf > 2.0:
        raise ExponentRangeError(f"exponent must lie in (1, 2], got {pf}")
    return pf


def _magnitudes(arr: np.ndarray) -> np.ndarray:
    """|arr| as a float64 array, for an array already coerced and checked finite."""
    a = np.abs(arr)
    # Finite entries can still overflow here: |z| of two huge components is inf.
    if not np.isfinite(a).all():
        raise DomainError("sequence contains non-finite magnitudes")
    return a


class _Scaled:
    """Rows (B, m) of nonnegative floats with each row's maximum factored out, for p-norms at many p.

    The maximum is factored out before powering: q = p/(p-1) grows without
    bound as p -> 1 (q = 11 already at p = 1.1), and raising raw magnitudes
    to such powers overflows long before the norm itself does.  The maxima
    and the ratios a / max are computed once and shared by every exponent.
    """

    def __init__(self, a: np.ndarray):
        self.a = a
        self.max = a.max(axis=-1, initial=0.0)

    # A row of zeros is divided by 1, not 0, and stays zero.
    ratio = cached_property(lambda self: self.a / np.where(self.max > 0.0, self.max, 1.0)[:, None])

    def root_power_sum(self, pf: float, e: float) -> np.ndarray:
        """(Σ_i (a_i / max)^p)^e per row; 0 for a row of zeros.

        The root is a Python float power per row: numpy's array power can round differently.
        """
        return np.array([s**e for s in (self.ratio**pf).sum(axis=-1).tolist()])

    def pnorm(self, pf: float) -> np.ndarray:
        """(Σ a_i^p)^(1/p) per row for a normalized p; max at p = ∞; 0 for an empty row."""
        if math.isinf(pf):
            return self.max
        if pf == 1.0:
            return self.a.sum(axis=-1)
        return self.max * self.root_power_sum(pf, 1.0 / pf)


def seq_pnorm(values, p) -> float:
    """(Σ|v_i|^p)^(1/p) for finite p; max|v_i| at p = ∞; 0 for an empty sequence."""
    pf = _normalize_exponent(p)
    a = _magnitudes(_as_complex(values, what="sequence", allow_empty=True))
    return float(_Scaled(a[None]).pnorm(pf)[0])


def _as_gram(gram) -> GramMatrix:
    return gram if isinstance(gram, GramMatrix) else GramMatrix(gram)


def gram_entry_qnorm(gram, q) -> float:
    """Entrywise q-norm over all n² magnitudes |g_ij|; max entry at q = ∞."""
    qf = _normalize_exponent(q)
    return float(_Scaled(_as_gram(gram).abs_entries().reshape(1, -1)).pnorm(qf)[0])


def _row_sum_max(abs_g: np.ndarray) -> np.ndarray:
    """max_i Σ_j |g_ij| of each (n, n) slice of |G|; 0 for n = 0."""
    return abs_g.sum(axis=-1).max(axis=-1, initial=0.0)


def max_row_abs_sum(gram) -> float:
    """max_i Σ_j |g_ij| — the row factor of the classical Bessel-sum bound."""
    return float(_row_sum_max(_as_gram(gram).abs_entries()))
