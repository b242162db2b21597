"""Fast exact evaluation of f(n) and its partial sums by polynomial residues.

P(x) = x^(k+1) - 2x^k + 1 = (x - 1)(x^k - x^(k-1) - ... - 1) annihilates
both f and S(n) = f(0) + ... + f(n), so any linear functional that agrees
with one of them on 1, x, ..., x^k sends x^n, and equally the residue
r(x) = x^n mod P, to its value at n (Fiduccia's method).  On those powers
S(i) = 2^i and f(i) = 2^(i-1), except f(0) = 1, so

    S(n) = r(2)        f(n) = (r(2) + r(0)) / 2.

The residue is reached by binary powering: O(log n) squarings of k+1
big-integer coefficients, each (k+1)(k+2)/2 multiplications, with the
reduction x^e = 2x^(e-1) - x^(e-k-1) costing only shifts and additions.

A range of indices pays for one powering.  The residue of x^(n+1) is x
times that of x^n: the coefficients move up by one place, and the one that
leaves, t = r[k], comes back by x^(k+1) = 2x^k - 1 as 2t at x^k and -t at
x^0.  Since P(2) = 1, the new r(2) is 2r(2) - t, so each later index costs
a few additions and no multiplication.  No floats: exactness is the point.

The library functions return ints.  For decimal output the CLI asks for the
text generators instead: they square in ints while the coefficients are
narrow, convert them once past _DECIMAL_BITS, then finish the squarings,
the reduction, the fold at 2, the halving and each later index in Decimal
under `render.exact()`, whose products are subquadratic from a few ten
thousand bits on (libmpdec's number-theoretic transform against CPython's
Karatsuba; Brent & Zimmermann, Modern Computer Arithmetic, sections 1.3 and
2.3), and print the result with str(): no binary to decimal conversion of
the result at all.  One squaring loop, written with + rather than << 1,
serves both coefficient types.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from decimal import Decimal
from itertools import islice
from operator import mul
from typing import Iterator

from .render import _decimal_str, _decimals, exact
from .sequence import _check_k, _check_n

# Widest coefficient, in bits, that the text path still squares in ints.
# One product took, int against Decimal: 0.12 against 0.39 ms at 12k bits,
# 0.43 against 0.43 ms at 25k, 0.97 against 0.63 ms at 50k and 77 against
# 20 ms at 700k.  The five big-index commands, powering plus render, took
# 0.54-0.67 s in ints, 0.31-0.39 s switching at 24k to 49k bits and
# 0.39-0.44 s at 64k bits (CPython 3.11.7, libmpdec 2.5.1, 2-vCPU VM, best
# of 7 runs each, three interleaved rounds).
_DECIMAL_BITS = 32_768


@dataclass
class OpCount:
    """Tally of big-integer multiplications performed, for benchmarking.

    matrix_products counts residue squarings (the field keeps its name for
    the code that reads it); scalar_mults counts the coefficient
    multiplications inside them.  Shifts and additions are not counted.
    """

    matrix_products: int = 0
    scalar_mults: int = 0


def _residue(k: int, n: int, ops: OpCount | None, text: bool = False) -> list:
    """Coefficients r[0..k] of x^n mod x^(k+1) - 2x^k + 1, as ints.

    With text, they are converted to Decimals once before the first squaring
    of coefficients wider than _DECIMAL_BITS, which then runs, like every
    later one, in Decimal; the caller runs it under exact().  The loop uses
    only +, - and *, so it serves both types.
    """
    _check_k(k)
    _check_n(n)
    # Start from the leading bits of n that still form an exponent <= k:
    # that power of x is its own residue, so it costs nothing.
    shift = max(n.bit_length() - k.bit_length(), 0)
    if n >> shift > k:
        shift += 1
    r = [0] * (k + 1)
    r[n >> shift] = 1
    for bit in range(shift - 1, -1, -1):
        if text and max(c.bit_length() for c in r) > _DECIMAL_BITS:
            r, text = _decimals(r), False
        rev = r[::-1]
        square = []
        for m in range(2 * k + 1):
            lo, half = max(m - k, 0), (m + 1) // 2
            # r[i] * r[m-i] over i < m-i, counted twice; rev[k-m+i] = r[m-i]
            c = sum(map(mul, r[lo:half], rev[k - m + lo : k - m + half]))
            c += c
            if not m & 1:
                c += r[m >> 1] * r[m >> 1]
            square.append(c)
        if n >> bit & 1:
            square.insert(0, 0)  # times x
        for e in range(len(square) - 1, k, -1):
            top = square[e]
            square[e - 1] += top + top
            square[e - k - 1] -= top
        r = square[: k + 1]
        if ops is not None:
            ops.matrix_products += 1
            ops.scalar_mults += (k + 1) * (k + 2) // 2
    return r


def _at_two(r) -> int | Decimal:
    """r(2) by Horner's rule."""
    acc = 0
    for c in reversed(r):
        acc += acc + c
    return acc


def _residues_from(k: int, start: int, ops: OpCount | None, text: bool = False) -> Iterator[tuple]:
    """Yield (r(2), r(0)) for r = x^n mod x^(k+1) - 2x^k + 1, n = start, start+1, ...

    Only the powering to start is counted in ops.  text is _residue's.
    """
    r = deque(_residue(k, start, ops, text))
    at_two = _at_two(r)
    while True:
        yield at_two, r[0]
        top = r.pop()
        r.appendleft(-top)
        r[-1] += top + top
        at_two += at_two - top


def _half(x: int | Decimal) -> int | Decimal:
    """x / 2 for an even x.  Under exact(), plain x / 2 of an odd Decimal
    would end in .5; to_integral_exact() raises decimal.Inexact instead."""
    return x >> 1 if type(x) is int else (x / 2).to_integral_exact()


def _values(residues: Iterator[tuple]) -> Iterator:
    for at_two, at_zero in residues:
        yield _half(at_two + at_zero)


def _sums(residues: Iterator[tuple]) -> Iterator:
    for at_two, _ in residues:
        yield at_two


def _texts(numbers: Iterator) -> Iterator[str]:
    """The endless numbers as exact decimal strings, each made under exact():
    str() of a Decimal, _decimal_str() of an int."""
    while True:
        with exact():
            x = next(numbers)
            text = str(x) if type(x) is Decimal else _decimal_str(x)
        yield text


def matrix_values_from(k: int, start: int, stop: int, ops: OpCount | None = None) -> Iterator[int]:
    """Yield f(n) = (r(2) + r(0)) / 2 for n = start..stop-1."""
    # len(range()) is 0 when stop <= start, and rejects a non-int index
    yield from islice(_values(_residues_from(k, start, ops)), len(range(start, stop)))


def matrix_sums_from(k: int, start: int, stop: int, ops: OpCount | None = None) -> Iterator[int]:
    """Yield S(n) = r(2) for n = start..stop-1."""
    yield from islice(_sums(_residues_from(k, start, ops)), len(range(start, stop)))


def matrix_value_texts_from(k: int, start: int, stop: int, ops: OpCount | None = None) -> Iterator[str]:
    """matrix_values_from as decimal strings, finished in Decimal once the
    coefficients pass _DECIMAL_BITS."""
    texts = _texts(_values(_residues_from(k, start, ops, text=True)))
    yield from islice(texts, len(range(start, stop)))


def matrix_sum_texts_from(k: int, start: int, stop: int, ops: OpCount | None = None) -> Iterator[str]:
    """matrix_sums_from as decimal strings, finished alike."""
    texts = _texts(_sums(_residues_from(k, start, ops, text=True)))
    yield from islice(texts, len(range(start, stop)))


def kbonacci_matrix(k: int, n: int, ops: OpCount | None = None) -> int:
    """Return f(n) = (r(2) + r(0)) / 2 for r = x^n mod x^(k+1) - 2x^k + 1."""
    return next(matrix_values_from(k, n, n + 1, ops))


def partial_sum_matrix(k: int, n: int, ops: OpCount | None = None) -> int:
    """Return f(0) + ... + f(n) = r(2) for r = x^n mod x^(k+1) - 2x^k + 1."""
    return next(matrix_sums_from(k, n, n + 1, ops))
