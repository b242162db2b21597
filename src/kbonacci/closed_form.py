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

Powers of two are produced by shifting; no floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _shifted_binomials(k: int, n: int, limit: int):
    """Yield C(n - j*k, j) for j = 0..limit by exact-division updates.

    Each step multiplies by the k+1 falling factors of the new numerator
    and divides by the k+1 falling factors of the old one; the division is
    exact because both ends of the ratio are integers.  Requires
    limit <= floor(n/(k+1)) + 1 so no denominator factor reaches zero
    (the final value may itself be a legitimate zero).  Far cheaper than
    limit independent binomial evaluations when the entries get large.
    """
    c = 1
    for j in range(limit + 1):
        yield c
        if j < limit:
            top = n - j * k - j
            num = 1
            for t in range(k + 1):
                num *= top - t
            den = j + 1
            base = n - j * k
            for t in range(k):
                den *= base - t
            c = c * num // den


def _sum_terms(k: int, n: int, limit: int):
    """Yield (j, sign, magnitude) for the partial-sum formula up to j = limit.

    Terms whose binomial vanishes are yielded with magnitude 0 without
    touching the power of two, whose exponent would be negative there.
    """
    fast_limit = min(limit, n // (k + 1))
    for j, c in zip(range(fast_limit + 1), _shifted_binomials(k, n, fast_limit)):
        yield j, -1 if j & 1 else 1, (c << (n - j * (k + 1))) if c else 0
    # Raised limits reach j with n - jk < j, where the binomial vanishes.
    for j in range(fast_limit + 1, limit + 1):
        c = binomial(n - j * k, j)
        magnitude = c << (n - j * (k + 1)) if c else 0
        yield j, -1 if j & 1 else 1, magnitude


def _term_terms(k: int, n: int):
    """Yield (j, sign, magnitude) of the two-binomial per-term formula."""
    if n == 0:
        # Kronecker-delta base case: the lone j = 0 term contributes 1.
        yield 0, 1, 1
        return
    limit = n // (k + 1)
    first_row = _shifted_binomials(k, n, limit)
    second_row = _shifted_binomials(k, n - 1, limit)  # C(n-jk-1, j)
    for j, (c1, c2) in enumerate(zip(first_row, second_row)):
        e = n - j * (k + 1)
        first = c1 << e
        second = (c2 << (e - 1)) if c2 else 0
        yield j, -1 if j & 1 else 1, first - second


def _fold(terms) -> int:
    total = 0
    for _, sign, magnitude in terms:
        total += sign * magnitude
    if total < 0:
        # Impossible for a correct implementation; a user input cannot
        # trigger this, so treat it as a defect, not a ValueError.
        raise ArithmeticError("alternating sum folded to a negative total")
    return total


def partial_sum_dunkel(k: int, n: int) -> int:
    """Return f(0) + ... + f(n) via the alternating closed form."""
    _check_k(k)
    _check_n(n)
    return _fold(_sum_terms(k, n, n // (k + 1)))


def partial_sum_dunkel_extended(k: int, n: int, m: int) -> int:
    """The partial-sum formula with its upper limit raised to m.

    Any m with floor(n/(k+1)) <= m <= floor(n/k) gives the same value: the
    extra summands have n-jk < j, so their binomials are 0.
    """
    _check_k(k)
    _check_n(n)
    _check_int("m", m)
    low, high = n // (k + 1), n // k
    if not low <= m <= high:
        raise ValueError(f"limit m={m} outside [{low}, {high}] for k={k}, n={n}")
    return _fold(_sum_terms(k, n, m))


def kbonacci_closed(k: int, n: int) -> int:
    """Return f(n) via the per-term closed form."""
    _check_k(k)
    _check_n(n)
    return _fold(_term_terms(k, n))


def term_breakdown(k: int, n: int, which: str = SUM_FORMULA) -> list[SignedTerm]:
    """Return the individual summands of the selected formula, by increasing j.

    Folding the list with signed addition reproduces partial_sum_dunkel
    (sum-formula) or kbonacci_closed (term-formula).
    """
    _check_k(k)
    _check_n(n)
    if which == SUM_FORMULA:
        terms = _sum_terms(k, n, n // (k + 1))
    elif which == TERM_FORMULA:
        terms = _term_terms(k, n)
    else:
        raise ValueError(f"which must be {SUM_FORMULA!r} or {TERM_FORMULA!r}, got {which!r}")
    return [SignedTerm(j, sign, magnitude) for j, sign, magnitude in terms]
