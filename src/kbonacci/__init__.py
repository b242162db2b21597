"""Exact k-bonacci numbers, partial sums, and the combinatorics behind them.

Four independent engines compute the same quantities: the defining
recurrence, two closed forms built from binomial coefficients and powers
of two, and binary powering of x^n modulo x^(k+1) - 2x^k + 1 for large
indices.  A tiling laboratory re-derives the closed forms by exhaustive
enumeration at desk scale: ruler tilings, the 2^n hash-mark count, the
mark-expansion bijection and inclusion-exclusion.
"""

from .closed_form import (
    SUM_FORMULA,
    TERM_FORMULA,
    SignedTerm,
    binomial,
    kbonacci_closed,
    partial_sum_dunkel,
    partial_sum_dunkel_extended,
    term_breakdown,
)
from .engines import Engine, compute_sum, compute_value
from .matrix_power import OpCount, kbonacci_matrix, partial_sum_matrix
from .sequence import kbonacci_prefix, kbonacci_recurrence, partial_sum_direct, values
from .tilings import (
    DEFAULT_CAP,
    CapExceededError,
    IntersectionIdentityReport,
    MarkConfig,
    Tiling,
    count_by_rightmost_tile,
    enumerate_bounded_tilings,
    enumerate_tilings,
    enumerate_unrestricted,
    expand_marks,
    intersection_count,
    iter_bounded_tilings,
    iter_tilings,
    iter_unrestricted,
    tiling_from_marks,
    verify_intersection_identity,
)

__version__ = "0.1.0"

__all__ = [
    "Engine",
    "CapExceededError",
    "DEFAULT_CAP",
    "IntersectionIdentityReport",
    "MarkConfig",
    "OpCount",
    "SignedTerm",
    "SUM_FORMULA",
    "TERM_FORMULA",
    "Tiling",
    "binomial",
    "compute_sum",
    "compute_value",
    "count_by_rightmost_tile",
    "enumerate_bounded_tilings",
    "enumerate_tilings",
    "enumerate_unrestricted",
    "expand_marks",
    "intersection_count",
    "iter_bounded_tilings",
    "iter_tilings",
    "iter_unrestricted",
    "kbonacci_closed",
    "kbonacci_matrix",
    "kbonacci_prefix",
    "kbonacci_recurrence",
    "partial_sum_direct",
    "partial_sum_dunkel",
    "partial_sum_dunkel_extended",
    "partial_sum_matrix",
    "term_breakdown",
    "tiling_from_marks",
    "values",
    "verify_intersection_identity",
    "__version__",
]
