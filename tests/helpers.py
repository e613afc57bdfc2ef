"""Checks shared by several test modules."""

import numpy as np

from grambounds import VectorFamily
from grambounds.core import _sq_norms


def check_schwarz_chain(family: VectorFamily) -> bool:
    """Whether every Gram entry satisfies |g_ij| ≤ ‖z_i‖ ‖z_j‖ (with float slack).

    Entrywise Cauchy–Schwarz: the reason span_gram ≤ span_norms.
    """
    if family.size == 0:
        return True
    g = np.abs(family.gram().entries)
    member_norms = np.sqrt(_sq_norms(family.vectors)[0])
    return bool(np.all(g <= np.outer(member_norms, member_norms) * (1.0 + 1e-12)))
