"""Hölder exponents and the scalar/matrix norm factors on bound right-hand sides.

The three branch families used throughout the package (max / Hölder / sum)
are a single parametric family here: an exponent p ∈ [1, ∞] selects the
branch, with p = ∞ giving the max, p = 1 the plain sum, and everything in
between the genuine Hölder case.  The branch itself is ``core._Scaled.pnorm``,
the one place it is written: every p-norm of a sequence and every q-norm of
|G|, whose row blocks ``core._fold`` joins by the same rule, goes through it.
That makes the limit behavior testable instead of assumed.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GramMatrix, _abs_reductions, _as_complex, _check_iterable, _real, _Scaled
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
    """p as a float in [1, inf], near-1 values snapped to 1; bools and text are not numbers."""
    pf = _real(p)
    if pf is None:
        raise ExponentError(f"exponent must be a real number in [1, inf], got {p!r}")
    if math.isnan(pf):
        raise ExponentError("exponent must not be NaN")
    if abs(pf - 1.0) <= SNAP_TOL:
        return 1.0
    if pf < 1.0:
        raise ExponentError(f"exponent must be >= 1, got {pf}")
    return pf


def _exponents(p_list) -> list[float]:
    """The exponents of p_list, any iterable of them, each checked, the first occurrence of each in order."""
    return list(dict.fromkeys(map(_normalize_exponent, _check_iterable("p_list", p_list, "exponents"))))


def conjugate_exponent(p) -> float:
    """The q with 1/p + 1/q = 1, using the limit pairs (1, inf) and (inf, 1); q is snapped
    as p is, so the conjugate of every p above about 1/SNAP_TOL is 1."""
    pf = _normalize_exponent(p)
    if pf == 1.0:
        return math.inf
    if math.isinf(pf):
        return 1.0
    return _normalize_exponent(pf / (pf - 1.0))


def power_mean_exponent(p) -> float:
    """Validate an exponent required to lie strictly inside (1, 2].

    Values that _normalize_exponent snaps to 1 (within SNAP_TOL of it) are
    rejected: the operations gated by this check are not stated at p = 1 and
    are not extended there.
    """
    pf = _real(p)
    if pf is None or math.isnan(pf) or pf - 1.0 <= SNAP_TOL or pf > 2.0:
        raise ExponentRangeError(f"exponent must be a real number in (1, 2], got {p!r}")
    return pf


def _magnitudes(arr: np.ndarray) -> np.ndarray:
    """|arr| as a float64 array, for an array already coerced and checked finite."""
    a = np.abs(arr)
    # Finite entries can still overflow here: |z| of two huge components is inf.
    if not np.isfinite(a).all():
        raise DomainError("sequence contains non-finite magnitudes")
    return a


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
    return float(_abs_reductions(_as_gram(gram).entries, (qf,))[qf][0])


def max_row_abs_sum(gram) -> float:
    """max_i Σ_j |g_ij| — the row factor of the classical Bessel-sum bound."""
    return float(_abs_reductions(_as_gram(gram).entries, ("row",))["row"][0])
