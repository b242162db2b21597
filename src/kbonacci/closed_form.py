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

Both engines fold the row of binomials C(n-jk, j), j = 0..floor(n/(k+1)).
Every summand's power of two is 2^(n mod (k+1)) times a power of 2^(k+1),
so a row folds by Horner's rule in 2^(k+1).  The per-term formula folds
the doubled entries 2 C(m, j) - C(m-1, j) = C(m, j) + C(m-1, j-1),
m = n-jk, and takes C(m-1, j-1) = C(m, j) j / m from the row of n alone.

A range start..stop-1 folds its first index alone, its row as the row is
made, in O(n) bits, and yields it before anything else is folded.  The
next k-1 indices at most form one block, whose sums S(n) are folded column
by column: column j holds C(m, j) for the m of every index of the block,
and each index keeps its own Horner accumulator, folded as j ascends
from 0.  A column starts from its entry in the row of the block's last
index, which reaches every column, and steps down the block by the ratio
rule C(m-1, j) = C(m, j)(m-j) / m to its own zeros: one row step and b-1
exact divisions per column of a block of b indices, where stepping the
row of each index costs b row steps, each a product and a quotient of
k+1 factors.  The block holds O(k n) bits.  A block of values folds
the sums of its indices and of the one before them, and takes the
differences f(n) = S(n) - S(n-1).  A single index, or the first of a
range, folds the doubled row instead: one fold where a difference takes
two.

Every later index is the sum of the k values before it,

    S(n) = S(n-1) + ... + S(n-k) + 1,   n >= k,

and f(n) = f(n-1) + ... + f(n-k) from n = 1, a sum kept running by
S(n+1) = 2 S(n) - S(n-k), two additions an index, which is also
Pascal's rule summed over the signed, 2-power-weighted row.  So the fold
and the block are only a range's head, its first k indices at most,
`_closed_head`, from which the registry's `dunkel` and
`dunkel-term` streams (see `engines`) go on by `engines._continued`, the
one tail of every engine's range, in Decimal for text.  `term_breakdown`
lists the summands of the rows.  The extended form is the base fold plus
the raised-limit binomials, each checked to be 0.

Powers of two are produced by shifting; no floating point anywhere.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from operator import sub

from .sequence import _check_int, _check_k, _check_n

SUM_FORMULA = "sum-formula"
TERM_FORMULA = "term-formula"


class SignedTerm(namedtuple("SignedTerm", "j sign magnitude")):
    """One summand of an alternating sum: sign is (-1)^j, magnitude >= 0."""

    __slots__ = ()

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
            m = n - j * k
            c = c * math.perm(m - j, k + 1) // ((j + 1) * math.perm(m, k))


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


def _columns(k: int, lo: int, hi: int):
    """Yield column j for j = 0..floor((hi-1)/(k+1)), where at the indices
    n = lo + i, lo <= n < hi, column[i] = C(n - jk, j).

    Column j starts from C(hi-1 - jk, j), entry j of the row of hi-1,
    which reaches every column, and steps down by the ratio rule
    C(m-1, j) = C(m, j) (m-j) / m: one row step per column and one exact
    division per earlier entry.  An entry is 0 from m = j - 1 down, and
    stays 0 without a division.
    """
    for j, c in enumerate(_row(k, hi - 1)):
        column = [c]
        for m in range(hi - 1 - j * k, lo - j * k, -1):
            c = c and c * (m - j) // m
            column.append(c)
        column.reverse()
        yield column


def _block_folds(k: int, block: range) -> list[int]:
    """The sums of the indices of block, by Horner's rule in 2^(k+1), one
    accumulator per index, from 0, column by column from _columns, each
    stepped down from the row of the block's last index, column 0 first.
    Index n folds the zero entries of the columns j > floor(n/(k+1)) too,
    and drops their shifts at the end.
    """
    shift = k + 1
    acc = [0] * len(block)
    for j, column in enumerate(_columns(k, block.start, block.stop)):
        if j & 1:
            acc = [(x << shift) - c for x, c in zip(acc, column)]
        else:
            acc = [(x << shift) + c for x, c in zip(acc, column)]
    last = (block.stop - 1) // shift
    return [
        (_nonnegative(total) << n % shift) >> (last - n // shift) * shift
        for n, total in zip(block, acc)
    ]


def _doubled(k: int, n: int) -> Iterator[int]:
    """2 C(m, j) - C(m-1, j) = C(m, j) + C(m-1, j-1), m = n - jk, by j, from
    the row of n alone: C(m-1, j-1) = C(m, j) j / m, and at m = 0 (n = 0),
    where the row of n-1 is empty, the entry is 2 C(0, 0) = 2."""
    for j, c in enumerate(_row(k, n)):
        m = n - j * k
        yield c + (c * j // m if m else 1)


def _closed_head(k: int, start: int, count: int, term: bool) -> Iterator[int]:
    """S(n) (term=False) or f(n) (term=True), the head that
    `engines._continued` goes on from: the range's first index, start, and
    then its block, the next min(count, k) - 1 indices.  The stream pulls
    min(count, k) values at most, so an empty range never starts it.

    The first index folds its row as the row is made, in O(n) bits, and
    shifts the fold by n mod (k+1), the power of two of the last summand.
    A value halves its doubled fold, since a doubled entry carries
    2^(e-1), e = n - j(k+1); at n = 0 the lone term is 2 * 2^-1 = 1.  The
    next k-1 indices at most fold their sums as one block, in O(k n) bits,
    and a block of values differences the sums of the block and of the
    index before it: k-1 sums for S and k for f.
    """
    row = _doubled(k, start) if term else _row(k, start)
    yield (_fold_row(row, k) << start % (k + 1)) >> term
    head = range(start + 1, start + min(count, k))
    if head:
        sums = _block_folds(k, range(head.start - term, head.stop))
        yield from map(sub, sums[1:], sums) if term else sums


def _check_limit(k: int, n: int, m: int) -> None:
    """Raise unless m is a legal upper limit at n: floor(n/(k+1))..floor(n/k)."""
    _check_k(k)
    _check_n(n)
    _check_int("m", m)
    low, high = n // (k + 1), n // k
    if not low <= m <= high:
        raise ValueError(f"limit m={m} outside [{low}, {high}] for k={k}, n={n}")


def partial_sum_dunkel_extended(k: int, n: int, m: int) -> int:
    """The partial-sum formula with its upper limit raised to m.

    Any m with floor(n/(k+1)) <= m <= floor(n/k) gives the same value: the
    extra summands have n-jk < j, so their binomials are 0.  Those are
    checked to be 0, and the base row is folded as the `dunkel` engine
    folds the single index n.
    """
    _check_limit(k, n, m)
    for j in range(n // (k + 1) + 1, m + 1):
        if binomial(n - j * k, j):
            # As in _nonnegative: no input can reach this, so it is a defect.
            raise ArithmeticError(f"raised-limit summand j={j} is nonzero at k={k}, n={n}")
    return next(_closed_head(k, n, 1, False))


def term_breakdown(k: int, n: int, which: str = SUM_FORMULA) -> list[SignedTerm]:
    """Return the individual summands of the selected formula, by increasing j.

    Folding the list with signed addition reproduces S(n) as the `dunkel`
    engine folds it (sum-formula) or f(n) as the `dunkel-term` engine folds
    it (term-formula), at the single index n: the row of _closed_head, or
    its doubled row.
    """
    _check_k(k)
    _check_n(n)
    if which == SUM_FORMULA:
        row, half = _row(k, n), 0
    elif which == TERM_FORMULA:
        # Each doubled entry carries 2^(e-1); halving after the shift keeps
        # e = 0 in the integers, where the entry is 2 C(j, j) = 2.
        row, half = _doubled(k, n), 1
    else:
        raise ValueError(f"which must be {SUM_FORMULA!r} or {TERM_FORMULA!r}, got {which!r}")
    return [
        SignedTerm(j, -1 if j & 1 else 1, (c << (n - j * (k + 1))) >> half)
        for j, c in enumerate(row)
    ]
