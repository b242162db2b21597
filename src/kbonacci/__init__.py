"""Exact k-bonacci numbers, partial sums, and the combinatorics behind them.

Independent engines compute the same quantities: the defining
recurrence, closed forms built from binomial coefficients and powers of
two, and binary powering of x^n modulo x^k - x^(k-1) - ... - 1 for large
indices.  `engines` registers each one once, by the name the CLI takes.
A tiling laboratory re-derives the closed forms by exhaustive enumeration
at desk scale: ruler tilings, the 2^n hash-mark count, the mark-expansion
bijection and inclusion-exclusion.
"""

from .closed_form import (
    SUM_FORMULA,
    TERM_FORMULA,
    SignedTerm,
    binomial,
    partial_sum_dunkel_extended,
    term_breakdown,
)
from .engines import compute_sum, compute_value
from .matrix_power import OpCount
from .sequence import kbonacci_prefix, values
from .tilings import (
    DEFAULT_CAP,
    CapExceededError,
    IntersectionIdentityReport,
    bounded_tiles,
    count_by_rightmost_tile,
    exact_tiles,
    expand_marks,
    identity_report,
    oversized_members,
    unrestricted_tiles,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "DEFAULT_CAP",
    "IntersectionIdentityReport",
    "OpCount",
    "SignedTerm",
    "SUM_FORMULA",
    "TERM_FORMULA",
    "binomial",
    "bounded_tiles",
    "compute_sum",
    "compute_value",
    "count_by_rightmost_tile",
    "exact_tiles",
    "expand_marks",
    "identity_report",
    "kbonacci_prefix",
    "oversized_members",
    "partial_sum_dunkel_extended",
    "term_breakdown",
    "unrestricted_tiles",
    "values",
    "__version__",
]
