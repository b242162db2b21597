"""Closed forms for k-bonacci partial sums and values, in exact arithmetic.

Three identities are implemented:

* the alternating partial-sum formula (Dunkel's formula)

      sum_{i=0..n} f(i) = sum_{j=0..floor(n/(k+1))} (-1)^j C(n-jk, j) 2^(n-j(k+1))

* its extended-limit variant, where the upper limit may be raised to any m
  with floor(n/(k+1)) <= m <= floor(n/k) because the extra summands carry
  vanishing binomial coefficients, and

* a per-term formula for f(n) itself, evaluated through the two-binomial
  decomposition

      term_j = (-1)^j [ 2^e C(n-jk, j) - 2^(e-1) C(n-jk-1, j) ],  e = n-j(k+1)

  which stays in the integers: whenever e = 0 the second binomial is
  C(j-1, j) = 0, so the halved power is never actually formed.

Both engines read a range of indices from the row of binomials C(n-jk, j),
j = 0..floor(n/(k+1)).  The first index folds its row as the row is made;
for the indices after it the row is kept, and the row of n+1 follows from
the row of n by C(m+1, j) = C(m, j) (m+1) / (m+1-j), one small
multiplication and one exact division per entry, plus an entry
C(j, j) = 1 when k+1 divides n+1.  Every summand's power of two is
2^(n mod (k+1)) times a power of 2^(k+1), so the row folds by Horner's
rule in 2^(k+1).  The per-term formula keeps the rows of n and n-1.
`term_breakdown` lists the summands of the same rows.  The extended form
is the base fold plus the raised-limit binomials, each checked to be 0;
it evaluates each index of a range on its own, and `_check_limit` checks
a limit m for one index or a whole range.

Powers of two are produced by shifting; no floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, zip_longest
from typing import Iterator

from .sequence import _check_int, _check_k, _check_n

SUM_FORMULA = "sum-formula"
TERM_FORMULA = "term-formula"


@dataclass(frozen=True)
class SignedTerm:
    """One summand of an alternating sum: sign is (-1)^j, magnitude >= 0."""

    j: int
    sign: int
    magnitude: int

    @property
    def value(self) -> int:
        return self.sign * self.magnitude


def binomial(a: int, b: int) -> int:
    """C(a, b) for a >= 0, extended to return 0 when b < 0 or b > a.

    The zero extension is exactly what makes the raised summation limit
    legal in the extended partial-sum formula.
    """
    if a < 0:
        raise ValueError(f"binomial requires a >= 0, got a={a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def _row(k: int, n: int):
    """Yield C(n - jk, j) for j = 0..floor(n/(k+1)) by exact-division updates.

    Each step multiplies by the k+1 falling factors of the new numerator
    and divides by the k+1 falling factors of the old one; the division is
    exact because both ends of the ratio are integers.  The row of n = -1
    is empty.  Far cheaper than independent binomial evaluations when the
    entries get large.
    """
    limit = n // (k + 1)
    c = 1
    for j in range(limit + 1):
        yield c
        if j < limit:  # past the last entry a denominator factor can be 0
            top = n - j * k - j
            num = 1
            for t in range(k + 1):
                num *= top - t
            den = j + 1
            base = n - j * k
            for t in range(k):
                den *= base - t
            c = c * num // den


def _step_row(row: list[int], k: int, n: int) -> None:
    """Turn the row C(n - jk, j), j = 0..floor(n/(k+1)), into that of n+1.

    With m = n - jk, C(m+1, j) = C(m, j) (m+1) / (m+1-j); the division is
    exact and its divisor n+1 - j(k+1) is at least 1 on the row.
    """
    for j in range(1, len(row)):
        top = n + 1 - j * k  # m + 1
        row[j] = row[j] * top // (top - j)
    if (n + 1) % (k + 1) == 0:
        row.append(1)  # C(j, j) for the new j = (n+1)/(k+1)


def _nonnegative(total: int) -> int:
    if total < 0:
        # Impossible for a correct implementation; a user input cannot
        # trigger this, so treat it as a defect, not a ValueError.
        raise ArithmeticError("alternating sum folded to a negative total")
    return total


def _fold_row(row, k: int) -> int:
    """sum_j (-1)^j row[j] 2^((L-j)(k+1)) for a row of L+1 entries, by
    Horner's rule in 2^(k+1)."""
    total = 0
    for j, c in enumerate(row):
        total = (total << (k + 1)) + (-c if j & 1 else c)
    return _nonnegative(total)


def dunkel_sums_from(k: int, start: int) -> Iterator[int]:
    """Yield f(0) + ... + f(n) via the alternating closed form, n = start, start+1, ...

    The summand of j carries 2^(n - j(k+1)), and the last j carries
    2^(n mod (k+1)).  The first value folds its row as the row is made, so
    one index holds O(n) bits; later indices keep the row, O(n^2/k) bits.
    """
    _check_k(k)
    _check_n(start)
    yield _fold_row(_row(k, start), k) << start % (k + 1)
    row = list(_row(k, start))
    for n in count(start + 1):
        _step_row(row, k, n - 1)
        yield _fold_row(row, k) << n % (k + 1)


def _doubled(row, prev):
    """2 C(n-jk, j) - C(n-1-jk, j) from the rows of n and n-1, by j."""
    return (2 * c - p for c, p in zip_longest(row, prev, fillvalue=0))


def _term_fold(row, prev, k: int, n: int) -> int:
    """f(n) from the rows of n and n-1 by the per-term formula."""
    return (_fold_row(_doubled(row, prev), k) << n % (k + 1)) >> 1


def closed_values_from(k: int, start: int) -> Iterator[int]:
    """Yield f(n) via the per-term closed form, n = start, start+1, ...

    term_j = (-1)^j (2 C(n-jk, j) - C(n-jk-1, j)) 2^(e-1), e = n - j(k+1).
    The row of n-1 lacks the last j when e = 0 there, and is empty at
    n = 0, which leaves the base case's lone term 2 * 2^-1 = 1.  Memory as
    in dunkel_sums_from, for the rows of n and n-1.
    """
    _check_k(k)
    _check_n(start)
    yield _term_fold(_row(k, start), _row(k, start - 1), k, start)
    row = list(_row(k, start))
    for n in count(start + 1):
        prev = row.copy()
        _step_row(row, k, n - 1)
        yield _term_fold(row, prev, k, n)


def partial_sum_dunkel(k: int, n: int) -> int:
    """Return f(0) + ... + f(n) via the alternating closed form."""
    return next(dunkel_sums_from(k, n))


def _check_limit(k: int, first: int, last: int, m: int) -> None:
    """Raise unless m is a legal upper limit at every n of first..last.

    The legal limits of n are floor(n/(k+1))..floor(n/k), and both ends
    grow with n, so those of the range are floor(last/(k+1))..floor(first/k).
    """
    _check_k(k)
    _check_n(first)
    _check_int("m", m)
    low, high = last // (k + 1), first // k
    if not low <= m <= high:
        span = first if first == last else f"{first}..{last}"
        raise ValueError(f"limit m={m} outside [{low}, {high}] for k={k}, n={span}")


def partial_sum_dunkel_extended(k: int, n: int, m: int) -> int:
    """The partial-sum formula with its upper limit raised to m.

    Any m with floor(n/(k+1)) <= m <= floor(n/k) gives the same value: the
    extra summands have n-jk < j, so their binomials are 0.  Those are
    checked to be 0, and the base row is folded as partial_sum_dunkel folds it.
    """
    _check_limit(k, n, n, m)
    for j in range(n // (k + 1) + 1, m + 1):
        if binomial(n - j * k, j):
            # As in _nonnegative: no input can reach this, so it is a defect.
            raise ArithmeticError(f"raised-limit summand j={j} is nonzero at k={k}, n={n}")
    return partial_sum_dunkel(k, n)


def extended_sums_from(k: int, start: int, m: int | None = None) -> Iterator[int]:
    """Yield partial_sum_dunkel_extended(k, n, m), n = start, start+1, ...

    m=None raises each index's limit to floor(n/k), its largest legal one.
    Each index is evaluated on its own.
    """
    _check_k(k)
    _check_n(start)
    for n in count(start):
        yield partial_sum_dunkel_extended(k, n, n // k if m is None else m)


def kbonacci_closed(k: int, n: int) -> int:
    """Return f(n) via the per-term closed form."""
    return next(closed_values_from(k, n))


def term_breakdown(k: int, n: int, which: str = SUM_FORMULA) -> list[SignedTerm]:
    """Return the individual summands of the selected formula, by increasing j.

    Folding the list with signed addition reproduces partial_sum_dunkel
    (sum-formula) or kbonacci_closed (term-formula).
    """
    _check_k(k)
    _check_n(n)
    if which == SUM_FORMULA:
        row, half = _row(k, n), 0
    elif which == TERM_FORMULA:
        # Each doubled entry carries 2^(e-1); halving after the shift keeps
        # e = 0 in the integers, where the entry is 2 C(j, j) = 2.
        row, half = _doubled(_row(k, n), _row(k, n - 1)), 1
    else:
        raise ValueError(f"which must be {SUM_FORMULA!r} or {TERM_FORMULA!r}, got {which!r}")
    return [
        SignedTerm(j, -1 if j & 1 else 1, (c << (n - j * (k + 1))) >> half)
        for j, c in enumerate(row)
    ]
