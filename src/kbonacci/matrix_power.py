"""Fast exact evaluation of f(n) and its partial sums by polynomial residues.

f satisfies the recurrence of Q(x) = x^k - x^(k-1) - ... - 1 from n = 0,
so any linear functional that agrees with f on 1, x, ..., x^(k-1) sends
x^n, and equally the residue r(x) = x^n mod Q, to f(n) (Fiduccia's
method).  On those powers f(0) = 1 and f(i) = 2^(i-1), so

    f(n) = (r(2) + r(0)) / 2.

S(n) = f(0) + ... + f(n) satisfies S(n) = S(n-1) + ... + S(n-k) + 1, so
S(n) + 1/(k-1) satisfies Q's recurrence for k >= 2; on the same powers
S(i) = 2^i, and

    S(n) = r(2) + (r(1) - 1) / (k - 1),    and S(n) = n + 1 at k = 1,

where Q = x - 1 leaves r = 1 for every n, so f(n) = 1 there and neither
quantity powers.

The residue is reached by binary powering: O(log n) squarings of k
big-integer coefficients, each k(k+1)/2 multiplications.  The square is
reduced by the sparse rule x^e = 2x^(e-1) - x^(e-k-1) of
P(x) = x^(k+1) - 2x^k + 1 = (x - 1) Q(x), valid modulo its factor Q, down
to degree k, and then once by x^k = 1 + x + ... + x^(k-1): shifts and
additions only.

A range of indices pays for one powering, and its indices below k none:
there r = x^n, so f(n) = 2^(n-1), f(0) = 1 and S(n) = 2^n, and the
residue is built from k on at the earliest.  The residue of x^(n+1) is x
times that of x^n: the coefficients move up by one place, and the one that
leaves, t = r[k-1], comes back by x^k = 1 + x + ... + x^(k-1) at all k
places.  Since Q(2) = 1, the new r(2) is 2r(2) - t, and the new r(1) is
r(1) + (k - 1) t, so each of a range's first k+1 indices costs about k
additions and no multiplication; every later one is a step of
`sequence._continued`.  No floats: exactness is the point.

A single index stops the powering one squaring short.  The numerators
2f(n) = r(2) + r(0) and (k - 1) S(n) + 1 = (k - 1) r(2) + r(1) are linear
in the residue, so with m = n // 2, b = n % 2 and s the residue of x^m,
x^n = s x^(m+b) gives N(n) = s[0] N(m+b) + ... + s[k-1] N(m+b+k-1) for
either numerator N.  Those k values are read off b + k - 1 steps from s,
as above, and k multiplications replace the last and widest squaring's
k(k+1)/2, about two thirds of the powering under Karatsuba.  A range keeps
the full powering, since it would need the k multiplications at each of
its indices.

The int generators yield ints.  For decimal output the CLI asks for the
text generators instead: they square in ints while the coefficients are
narrow, convert them once past _DECIMAL_BITS, then finish the squarings,
the reduction, the fold at 2, a single index's inner product, the exact
division and the steps of the range's first k+1 indices in Decimal under
`render.exact()`, whose products are subquadratic from a few ten thousand
bits on (libmpdec's number-theoretic transform against CPython's
Karatsuba; Brent & Zimmermann, Modern Computer Arithmetic, sections 1.3
and 2.3), and print the result with str(): no binary to decimal
conversion of the result at all.  One squaring loop, written with +
rather than << 1, and one step serve both coefficient types, and
`render._texts` prints either.  A range's later indices are continued in
Decimal by `sequence._continued`, which leaves such values as they are.
"""

from __future__ import annotations

from collections.abc import Iterator
from decimal import Decimal, Inexact
from itertools import count, islice, repeat, starmap
from operator import mul

from .render import _decimals, _texts
from .sequence import _check_k, _check_n, _continued, _count

# Widest coefficient, in bits, that the text path still squares in ints.
# With a single index powered only to x^(n // 2), the five big-index
# commands of each of two seeds, powering plus str(), took 155-156 ms in all
# switching at 8k bits, 155-158 ms at 16k and 171-174 ms at 32k (CPython
# 3.11.7, libmpdec 2.5.1, 2-vCPU VM, best of 9 interleaved runs each).
# Each command then converts its coefficients at 17k-28k bits.  One int
# product is still the faster there (0.19 against 0.26 ms at 20k bits), but
# converting three coefficients takes 1.8 ms at 20k bits against 4.9 ms at
# 40k.  The wide-window and range-sweep residues stay below 10k bits.
_DECIMAL_BITS = 16_384


class OpCount:
    """Tally of big-integer multiplications performed, for benchmarking.

    matrix_products counts squarings of the residue modulo
    x^k - x^(k-1) - ... - 1 (the field keeps its name for the code that
    reads it); scalar_mults counts the coefficient multiplications inside
    them, k(k+1)/2 per squaring, and the k of the inner product that
    finishes a single index one squaring short (_by_halves).  Shifts,
    additions and the small multiples of a step are not counted.

    Two tallies are equal when both counts are.
    """

    def __init__(self, matrix_products: int = 0, scalar_mults: int = 0) -> None:
        self.matrix_products = matrix_products
        self.scalar_mults = scalar_mults

    def __eq__(self, other):  # which also leaves the mutable tally unhashable
        if type(other) is not OpCount:
            return NotImplemented
        return (self.matrix_products, self.scalar_mults) == (other.matrix_products, other.scalar_mults)

    def __repr__(self) -> str:
        return f"OpCount(matrix_products={self.matrix_products}, scalar_mults={self.scalar_mults})"


def _reduced(r: list) -> list:
    """r, of degree k, reduced by x^k = 1 + x + ... + x^(k-1): its top
    coefficient comes back at all k places below it."""
    top = r.pop()
    return [c + top for c in r]


def _squarings(k: int, n: int) -> int:
    """The squarings of the powering to x^n: one per bit of n below its
    leading bits that still form an exponent <= k, whose power of x, reduced
    once if it is x^k, costs no multiplication."""
    shift = max(n.bit_length() - k.bit_length(), 0)
    if n >> shift > k:
        shift += 1
    return shift


def matrix_cost(k: int, n: int) -> int:
    """The multiplications f(n) or S(n) alone takes: none at k = 1, where
    the values and sums do not power, nor where the powering to x^n does
    not square; otherwise k(k+1)/2 per squaring of the powering to
    x^(n // 2), and k for the inner product of _by_halves."""
    if k == 1 or not _squarings(k, n):
        return 0
    return _squarings(k, n >> 1) * (k * (k + 1) // 2) + k


def _residue(k: int, n: int, ops: OpCount | None, text: bool = False) -> list:
    """Coefficients r[0..k-1] of x^n mod x^k - x^(k-1) - ... - 1, as ints.

    With text, they are converted to Decimals once before the first squaring
    of coefficients wider than _DECIMAL_BITS, which then runs, like every
    later one, in Decimal; the caller runs it under exact().  The loop uses
    only +, - and *, so it serves both types.
    """
    _check_k(k)
    _check_n(n)
    shift = _squarings(k, n)
    r = [0] * (k + 1)
    r[n >> shift] = 1
    r = _reduced(r)
    for bit in range(shift - 1, -1, -1):
        if text and max(c.bit_length() for c in r) > _DECIMAL_BITS:
            r, text = _decimals(r), False
        rev = r[::-1]
        square = []
        for m in range(2 * k - 1):
            lo, half = max(m - k + 1, 0), (m + 1) // 2
            # r[i] * r[m-i] over i < m-i, counted twice; rev[k-1-m+i] = r[m-i]
            c = sum(map(mul, r[lo:half], rev[k - 1 - m + lo : k - 1 - m + half]))
            c += c
            if not m & 1:
                c += r[m >> 1] * r[m >> 1]
            square.append(c)
        # times x or not, 2k coefficients: one of degree >= k even at k = 1
        square = [0, *square] if n >> bit & 1 else [*square, 0]
        # P's rule, valid modulo its factor Q, down to degree k
        for e in range(2 * k - 1, k, -1):
            top = square[e]
            square[e - 1] += top + top
            square[e - k - 1] -= top
        r = _reduced(square[: k + 1])
        if ops is not None:
            ops.matrix_products += 1
            ops.scalar_mults += k * (k + 1) // 2
    return r


def _at_two(r) -> int | Decimal:
    """r(2) by Horner's rule."""
    acc = 0
    for c in reversed(r):
        acc += acc + c
    return acc


def _steps(k: int, r: list) -> Iterator[tuple]:
    """Yield (r(2), r(1), r(0)) for the residue r and then for x r, x^2 r,
    ..., each reduced modulo x^k - x^(k-1) - ... - 1."""
    at_two, at_one = _at_two(r), sum(r)
    yield at_two, at_one, r[0]
    while True:
        top = r[-1]
        r = _reduced([0, *r])
        at_two += at_two - top
        at_one += (k - 1) * top
        yield at_two, at_one, r[0]


def _by_halves(k: int, n: int, ops: OpCount | None, text: bool, numerator) -> int | Decimal:
    """numerator(r(2), r(1), r(0)) at the residue r of x^n, from the
    residue s of x^m, m = n // 2, one squaring short of r.

    The numerator is linear in r, so with b = n % 2 and x^n = s x^(m+b), its
    value at x^n is the sum of s[i] times its value at x^(m+b+i), i < k, and
    the next b + k - 1 steps from s give those.  text is _residue's.
    """
    half = _residue(k, n >> 1, ops, text)
    window = starmap(numerator, islice(_steps(k, half), n & 1, None))
    total = sum(map(mul, half, window))
    if ops is not None:
        ops.scalar_mults += k
    return total


def _divide(x: int | Decimal, d: int) -> int | Decimal:
    """x / d for a small d > 0 that divides x.

    An int is shifted (d = 2) or floor-divided.  A Decimal is divided under
    exact() and raises decimal.Inexact if d does not divide it.  Plain x / d would not do: it is exact at unbounded
    precision, so an odd x / 2 ends in .5, and a quotient that does not
    terminate, such as 10 / 3, makes libmpdec raise MemoryError.
    """
    if type(x) is int:
        return x >> 1 if d == 2 else x // d
    quotient, remainder = divmod(x, d)
    if remainder:
        raise Inexact(f"division by {d} is not exact")
    return quotient


def _values(k: int, start: int, ops: OpCount | None, text: bool = False, single: bool = False) -> Iterator:
    """f(n) = (r(2) + r(0)) / 2 for n = start, start+1, ...: 2^(n-1), or 1
    at n = 0, below k, where r = x^n, so the residue is built from k on at
    the earliest; at k = 1, where Q = x - 1, f(n) = 1.  With single, only
    f(start) is asked for, and taken _by_halves if its powering squares."""
    if k == 1:
        yield from repeat(1)
    elif single and _squarings(k, start):
        yield _divide(_by_halves(k, start, ops, text, lambda at_two, _, at_zero: at_two + at_zero), 2)
    else:
        # (r(2) + r(0)) / 2 for r = x^n, whose r(0) is 0 past n = 0
        yield from ((1 << n) + (n == 0) >> 1 for n in range(start, k))
        for at_two, _, at_zero in _steps(k, _residue(k, max(start, k), ops, text)):
            yield _divide(at_two + at_zero, 2)


def _sums(k: int, start: int, ops: OpCount | None, text: bool = False, single: bool = False) -> Iterator:
    """S(n) = r(2) + (r(1) - 1) / (k - 1) for n = start, start+1, ...: 2^n
    below k, as for _values; at k = 1, where Q = x - 1, S(n) = n + 1.  With
    single as for _values, by the numerator (k - 1) r(2) + r(1) =
    (k - 1) S(n) + 1."""
    if k == 1:
        yield from count(start + 1)
    elif single and _squarings(k, start):
        numerator = _by_halves(k, start, ops, text, lambda at_two, at_one, _: (k - 1) * at_two + at_one)
        yield _divide(numerator - 1, k - 1)
    else:
        yield from (1 << n for n in range(start, k))
        for at_two, at_one, _ in _steps(k, _residue(k, max(start, k), ops, text)):
            yield at_two + _divide(at_one - 1, k - 1)


def matrix_values_from(k: int, start: int, stop: int, ops: OpCount | None = None) -> Iterator[int]:
    """Yield f(n) = (r(2) + r(0)) / 2, or 1 at k = 1, for n = start..stop-1,
    the range continued past its first k+1 indices by `sequence._continued`."""
    indices = _count(k, start, stop)
    yield from _continued(_values(k, start, ops, single=indices == 1), k, indices)


def matrix_sums_from(k: int, start: int, stop: int, ops: OpCount | None = None) -> Iterator[int]:
    """Yield S(n) = r(2) + (r(1) - 1) / (k - 1), or n + 1 at k = 1, for
    n = start..stop-1, continued alike."""
    indices = _count(k, start, stop)
    yield from _continued(_sums(k, start, ops, single=indices == 1), k, indices)


def matrix_value_texts_from(k: int, start: int, stop: int, ops: OpCount | None = None) -> Iterator[str]:
    """matrix_values_from as decimal strings, finished in Decimal once the
    coefficients pass _DECIMAL_BITS, and continued in Decimal."""
    indices = _count(k, start, stop)
    yield from _texts(_continued(_values(k, start, ops, text=True, single=indices == 1), k, indices, True))


def matrix_sum_texts_from(k: int, start: int, stop: int, ops: OpCount | None = None) -> Iterator[str]:
    """matrix_sums_from as decimal strings, finished alike."""
    indices = _count(k, start, stop)
    yield from _texts(_continued(_sums(k, start, ops, text=True, single=indices == 1), k, indices, True))
