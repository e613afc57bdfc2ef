"""Checks shared by several test modules."""

import numpy as np

from grambounds import VectorFamily


def check_schwarz_chain(family: VectorFamily) -> bool:
    """Whether every Gram entry satisfies |g_ij| ≤ ‖z_i‖ ‖z_j‖ (with float slack).

    Entrywise Cauchy–Schwarz: the reason span_gram ≤ span_norms.
    """
    if family.size == 0:
        return True
    g = family.gram().abs_entries()
    member_norms = family.member_norms()
    return bool(np.all(g <= np.outer(member_norms, member_norms) * (1.0 + 1e-12)))
