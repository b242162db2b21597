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
big-integer coefficients.  The squaring of x^e's residue takes k(k+1)/2
multiplications while e < _TOOM_EXPONENT, and from there on 2k - 1
squarings by evaluation and interpolation (Toom-Cook; Brent & Zimmermann,
Modern Computer Arithmetic, section 1.3.3; Knuth, TAOCP vol. 2, section
4.3.3): the square's values at x = 0, 1, ..., 2k - 2, each the square of
r(x), and their forward differences give its Newton form, multiplied out
by small multiples; a squaring also costs about 0.7 of a product.  The
square is reduced by the sparse rule x^e = 2x^(e-1) - x^(e-k-1) of
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
`engines._continued`.  No floats: exactness is the point.

A single index stops the powering one squaring short.  The numerators
2f(n) = r(2) + r(0) and (k - 1) S(n) + 1 = (k - 1) r(2) + r(1) are linear
in the residue, so with m = n // 2, b = n % 2 and s the residue of x^m,
x^n = s x^(m+b) gives N(n) = s[0] N(m+b) + ... + s[k-1] N(m+b+k-1) for
either numerator N.  Those k values are read off b + k - 1 steps from s,
as above, and k multiplications replace the last and widest squaring's
k(k+1)/2, about two thirds of the powering under Karatsuba.  A range keeps
the full powering, since it would need the k multiplications at each of
its indices.

`_head` is the head of the registry's two `matrix` streams (see
`engines`), which start it at a range's first index and pull its first
k+1 indices at most; an `OpCount` passed to it tallies the
multiplications.  Without text it yields ints.  With text, for the CLI's
decimal output, it squares in ints while the coefficients are narrow,
converts them once past _DECIMAL_BITS, then finishes the squarings, the
reduction, the fold at 2, a single index's inner product, the exact
division and the steps of the range's first k+1 indices in Decimal under
`render.exact()`, whose products are subquadratic from a few ten thousand
bits on (libmpdec's number-theoretic transform against CPython's
Karatsuba; Brent & Zimmermann, Modern Computer Arithmetic, sections 1.3
and 2.3), so the result needs no binary to decimal conversion at all
(see `render`).  Both squarings, written with + rather than << 1 and
with _divide for exact division, and one step serve both coefficient
types.
"""

from __future__ import annotations

from collections.abc import Iterator
from decimal import Decimal, Inexact
from itertools import islice, repeat, starmap
from operator import mul

from .render import _decimals
from .sequence import _check_k, _check_n

# Widest coefficient, in bits, that the text path still squares in ints.
# With _toom_square past _TOOM_EXPONENT, the five big-index commands of each
# of seeds 1-2, in-process and best of 5 per command, took 138.4-138.8 ms
# in all switching at 8k bits, 140.2-140.3 ms at 16k and 155.3-155.5 ms at
# 32k (three interleaved rounds; 138.2 ms at 4k, 140.0 ms at 12k), and those
# of seeds 3-5 207.7-207.9 ms at 8k against 209.7-210.1 ms at 16k (CPython
# 3.11.7, libmpdec 2.5.1, 2-vCPU VM).  Each command then converts its
# coefficients at 8.7k-13.7k bits.  wide-window and range-sweep read the
# same at 8k and 16k.
_DECIMAL_BITS = 8192

# Smallest exponent e whose residue _residue squares by _toom_square rather
# than _square.  The residue of x^e is about e log2(phi) bits wide, phi the
# root of Q: 0.69e at k = 2 and nearly e from k = 8 on.  Near 2,000 bits one
# Toom square costs about what the loop does at every k from 2 to 30 (0.009
# against 0.008 ms at k = 2, 1.18 against 1.30 ms at k = 30), so one
# exponent serves every k.  In-process, best of 5 per command, seeds 1-2:
# big-index took 140.2-140.4 ms switching at 2048, 4096 or 8192, 140.7 ms
# at 16384 and 153.2 ms on the loop alone; wide-window 31.6-31.8 ms at
# 2048, 32.5-32.7 ms at 1024 and 4096, and 33.0-33.1 ms at 8192, which its
# residues never reach; range-sweep 100.8-101.3 ms at 2048 and 8192 alike
# (CPython 3.11.7, 2-vCPU VM, with _DECIMAL_BITS at 16384).
_TOOM_EXPONENT = 2048


class OpCount:
    """Tally of big-integer multiplications performed, for benchmarking.

    matrix_products counts squarings of the residue modulo
    x^k - x^(k-1) - ... - 1 (the field keeps its name for the code that
    reads it); scalar_mults counts the coefficient multiplications inside
    them: k(k+1)/2 per squaring by _square, 2k - 1 per squaring by
    _toom_square, and the k of the inner product that finishes a single
    index one squaring short (_by_halves).  Shifts, additions, exact
    divisions by small ints and the small multiples of a step or of
    _toom_square's evaluation and interpolation are not counted.

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
    not square; otherwise, over the powering to x^m, m = n // 2, k(k+1)/2
    per squaring by _square and 2k - 1 per squaring by _toom_square, and k
    for the inner product of _by_halves.  The j-th last squaring of that
    powering squares the residue of x^(m >> j)."""
    if k == 1 or not _squarings(k, n):
        return 0
    m = n >> 1
    squarings = _squarings(k, m)
    toom = sum(m >> j >= _TOOM_EXPONENT for j in range(1, squarings + 1))
    return (squarings - toom) * (k * (k + 1) // 2) + toom * (2 * k - 1) + k


def _square(r: list) -> list:
    """The 2k - 1 coefficients of r^2, by k(k+1)/2 products: each cross
    product once, doubled, and each square."""
    k = len(r)
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
    return square


def _toom_square(r: list) -> list:
    """The 2k - 1 coefficients of r^2, by 2k - 1 squarings (Toom-Cook).

    r^2 has degree 2k - 2, so its values at x = 0, 1, ..., 2k - 2 fix it:
    each is r(x), taken by Horner's rule with the small multiplier x, then
    squared.  The j-th forward difference of those squares at 0, divided
    exactly by j!, is the coefficient of x(x - 1)...(x - j + 1) in r^2's
    Newton form, which is multiplied out from the top, one small multiple
    and one subtraction per coefficient.  Only +, -, * and _divide, so it
    serves ints and Decimals alike.
    """
    points = 2 * len(r) - 1
    d = []
    for x in range(points):
        v = 0
        for c in reversed(r):
            v = v * x + c
        d.append(v * v)
    for j in range(1, points):
        for i in range(points - 1, j - 1, -1):
            d[i] -= d[i - 1]
    factorial = 1
    for j in range(2, points):
        factorial *= j
        d[j] = _divide(d[j], factorial)
    # Horner's rule in the Newton basis: p <- p (x - j) + d[j]
    p = [d[-1]]
    for j in range(points - 2, -1, -1):
        p = [d[j] - j * p[0], *(lo - j * hi for lo, hi in zip(p, p[1:])), p[-1]]
    return p


def _residue(k: int, n: int, ops: OpCount | None, text: bool = False) -> list:
    """Coefficients r[0..k-1] of x^n mod x^k - x^(k-1) - ... - 1, as ints.

    The square of the residue of x^e is taken by _square while
    e < _TOOM_EXPONENT and by _toom_square from there on.  With text, the
    coefficients are converted to Decimals once before the first squaring
    of coefficients wider than _DECIMAL_BITS, which then runs, like every
    later one, in Decimal; the caller runs it under exact().  Both squarings
    and the reduction use only +, -, * and exact division, so they serve
    both types.
    """
    _check_k(k)
    _check_n(n)
    shift = _squarings(k, n)
    r = [0] * (k + 1)
    r[n >> shift] = 1
    r = _reduced(r)
    for bit in range(shift - 1, -1, -1):
        if text and max(c.bit_length() for c in r) > _DECIMAL_BITS:
            r, text = list(_decimals(r)), False
        toom = n >> (bit + 1) >= _TOOM_EXPONENT
        square = _toom_square(r) if toom else _square(r)
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
            ops.scalar_mults += 2 * k - 1 if toom else k * (k + 1) // 2
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
    """x / d for an int d > 0 that divides x and is narrow beside it: 2,
    k - 1, or j! <= (2k - 2)! in _toom_square.

    An int is shifted (d = 2) or floor-divided.  A Decimal is divided under
    exact() and raises decimal.Inexact if d does not divide it.  Plain x / d
    would not do: it is exact at unbounded
    precision, so an odd x / 2 ends in .5, and a quotient that does not
    terminate, such as 10 / 3, makes libmpdec raise MemoryError.
    """
    if type(x) is int:
        return x >> 1 if d == 2 else x // d
    quotient, remainder = divmod(x, d)
    if remainder:
        raise Inexact(f"division by {d} is not exact")
    return quotient


def _head(k: int, start: int, count: int, text: bool, sums: bool, ops: OpCount | None = None) -> Iterator:
    """f(n) (sums=False) or S(n) (sums=True) for n = start, start+1, ...,
    each as the numerator N(r) of the residue r of x^n, less an offset c,
    divided by d: N(r) = r(2) + r(0), c = 0 and d = 2 for f, and
    N(r) = (k - 1) r(2) + r(1), c = 1 and d = k - 1 for S.  Below k,
    r = x^n, so r(2) = 2^n, r(1) = 1 and r(0) = 1 at n = 0 alone, and the
    residue is built from k on at the earliest; at k = 1, where Q = x - 1,
    f(n) = 1 and S(n) = n + 1.  A range of one index whose powering
    squares is taken _by_halves.  text is _residue's.
    """
    if k == 1:
        yield from range(start + 1, start + count + 1) if sums else repeat(1, count)
        return
    if sums:
        numerator, offset, divisor = (lambda at_two, at_one, _: (k - 1) * at_two + at_one), 1, k - 1
    else:
        numerator, offset, divisor = (lambda at_two, _, at_zero: at_two + at_zero), 0, 2
    if count == 1 and _squarings(k, start):
        yield _divide(_by_halves(k, start, ops, text, numerator) - offset, divisor)
        return
    for n in range(start, k):
        yield _divide(numerator(1 << n, 1, n == 0) - offset, divisor)
    for values in _steps(k, _residue(k, max(start, k), ops, text)):
        yield _divide(numerator(*values) - offset, divisor)
