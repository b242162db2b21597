"""Exact k-bonacci numbers, partial sums, and the combinatorics behind them.

Independent engines compute the same quantities: the defining
recurrence, closed forms built from binomial coefficients and powers of
two, and binary powering of x^n modulo x^k - x^(k-1) - ... - 1 for large
indices.  `engines` registers each one once, by the name the CLI takes.
A tiling laboratory re-derives the closed forms by exhaustive enumeration
at desk scale: ruler tilings, the 2^n hash-mark count, the mark-expansion
bijection and inclusion-exclusion.

Importing the package imports the engine modules only.  The laboratory's
exports (`exact_tiles`, `identity_report` and the rest of `tilings`)
resolve on first use, through the module `__getattr__`, so a command that
never enumerates never imports it: of the CLI's subcommands, only
`tilings` and `verify` do (see `cli`).
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
from .sequence import DEFAULT_CAP, kbonacci_prefix, values

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


def __getattr__(name: str):
    # Called only for a name not bound above: of __all__, the tiling
    # laboratory's exports, which are bound here on first use.
    if name in __all__:
        from . import tilings

        globals()[name] = getattr(tilings, name)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
