"""Gram-matrix bounds on inner-product sums.

Evaluate a family of upper bounds on Σ|(x, y_i)|², ‖Σ α_i y_i‖², and
|Σ c_i (x, y_i)|² over real or complex coordinate spaces, verify them in
batch on random inputs, and compare the tightness of the classical
row-sum bound against the power-mean bound.
"""

from .bounds import (
    ORTHONORMAL_TOL,
    BoundId,
    BoundResult,
    bessel_sum,
    bessel_sum_bound,
    bombieri_bound,
    combination_norm_sq,
    combo_bound,
    frobenius_bound,
    orthonormal_bessel_bound,
    power_mean_bound,
    power_mean_gap,
    refinement_chain,
    span_bound,
    weighted_inner_sum_sq,
)
from .compare import (
    DOMINANCE_TOL,
    DominancePair,
    GridCell,
    SignScanReport,
    dominance_search,
    gap_closed_form,
    power_mean_factor,
    sign_scan,
)
from .core import GramMatrix, Vector, VectorFamily, gram, inner, inner_each, norm
from .errors import (
    DimensionError,
    DomainError,
    ExponentError,
    ExponentRangeError,
    GramBoundsError,
    NotOrthonormalError,
    ShapeError,
)
from .norms import (
    SNAP_TOL,
    conjugate_exponent,
    gram_entry_qnorm,
    max_row_abs_sum,
    power_mean_exponent,
    seq_pnorm,
)
from .verify import (
    ABS_TOL,
    CORPUS_SEED,
    REL_TOL,
    STANDARD_P_LIST,
    CaseTable,
    CorpusResult,
    FamilySpec,
    VerificationReport,
    check_schwarz_chain,
    evaluate_cases,
    random_family,
    random_orthonormal_family,
    random_specs,
    standard_corpus,
    verify_all,
    verify_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "GramBoundsError",
    "DimensionError",
    "ShapeError",
    "ExponentError",
    "ExponentRangeError",
    "DomainError",
    "NotOrthonormalError",
    # core
    "Vector",
    "VectorFamily",
    "GramMatrix",
    "inner",
    "norm",
    "gram",
    "inner_each",
    # norms
    "SNAP_TOL",
    "conjugate_exponent",
    "seq_pnorm",
    "gram_entry_qnorm",
    "max_row_abs_sum",
    "power_mean_exponent",
    # bounds
    "ORTHONORMAL_TOL",
    "BoundId",
    "BoundResult",
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
    # compare
    "DOMINANCE_TOL",
    "GridCell",
    "SignScanReport",
    "DominancePair",
    "power_mean_factor",
    "gap_closed_form",
    "sign_scan",
    "dominance_search",
    # verify
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
    "check_schwarz_chain",
]
