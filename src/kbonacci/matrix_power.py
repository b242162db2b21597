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
big-integer coefficients, whose routines `_schedule` names.  The squaring
of x^e's residue takes k(k+1)/2 multiplications while e < _TOOM_EXPONENT,
and from there on 2k - 1 squarings by evaluation and interpolation
(Toom-Cook; Brent & Zimmermann, Modern Computer Arithmetic, section 1.3.3;
Knuth, TAOCP vol. 2, section 4.3.3): the square's values at x = 0, 1, ...,
2k - 2, each the square of r(x), and their forward differences give its
Newton form, multiplied out by small multiples; a squaring also costs
about 0.7 of a product.  At k = 2 it is always 2 squarings, by Cassini's
identity (`_cassini_square`).  The square is reduced by the sparse rule
x^e = 2x^(e-1) - x^(e-k-1) of P(x) = x^(k+1) - 2x^k + 1 = (x - 1) Q(x),
valid modulo its factor Q, down to degree k, and then once by
x^k = 1 + x + ... + x^(k-1): shifts and additions only.

A range of indices pays for one powering, and its indices below k none:
there r = x^n, so f(n) = 2^(n-1), f(0) = 1 and S(n) = 2^n, and the
residue is built from k on at the earliest.  The residue of x^(n+1) is x
times that of x^n: the coefficients move up by one place, and the one that
leaves, t = r[k-1], comes back by x^k = 1 + x + ... + x^(k-1) at all k
places.  Since Q(2) = 1, the new r(2) is 2r(2) - t, and the new r(1) is
r(1) + (k - 1) t, so each of a range's first k indices costs about k
additions and no multiplication; every later one comes from
`engines._continued`.  No floats: exactness is the point.

A single index stops the powering one squaring short.  The numerators
2f(n) = r(2) + r(0) and (k - 1) S(n) + 1 = (k - 1) r(2) + r(1) are linear
in the residue, so with m = n // 2, b = n % 2 and s the residue of x^m,
x^n = s x^(m+b) gives N(n) = s[0] N(m+b) + ... + s[k-1] N(m+b+k-1) for
either numerator N.  Those k values are read off b + k - 1 steps from s,
as above, and k multiplications replace the last and widest squaring's
k(k+1)/2, about two thirds of the powering under Karatsuba.  N(x^b s^2)
is also a quadratic form in s, whose Gram matrix holds the numerators at
indices below 2k (Fiduccia, SIAM J. Comput. 14, 1985): diagonalised by
congruence, D N = c_1 (a_1 . s)^2 + ... + c_k (a_k . s)^2 with small
ints c_t, a_t and D (`_form`), so k squarings replace the k products where
they pay, past a gate on k and m (_FORM_K, _FORM_EXPONENT).  A range keeps
the full powering, since it would need the k multiplications at each of
its indices.

`_head` is the head of the registry's two `matrix` streams (see
`engines`), which start it at a range's first index and pull its first
k indices at most; an `OpCount` passed to it tallies the
multiplications.  Without text it yields ints.  With text, for the CLI's
decimal output, it squares in ints while the coefficients are narrow,
converts them once past _DECIMAL_BITS, then finishes the squarings, the
reduction, the fold at 2, a single index's finish, the exact
division and the steps of the range's first k indices in Decimal under
`render.exact()`, whose products are subquadratic from a few ten thousand
bits on (libmpdec's number-theoretic transform against CPython's
Karatsuba; Brent & Zimmermann, Modern Computer Arithmetic, sections 1.3
and 2.3), so the result needs no binary to decimal conversion at all
(see `render`).  Every squaring and finish, written with + rather than
<< 1 and with _divide for exact division, and one step serve both
coefficient types.
"""

from __future__ import annotations

from collections.abc import Iterator
from decimal import Decimal, Inexact
from functools import partial
from itertools import chain, islice, repeat, starmap
from math import gcd, lcm
from operator import mul
from types import SimpleNamespace

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

# The gate of _by_halves: a single index n is finished by the k squarings of
# _form where k <= _FORM_K and m = n // 2 >= _FORM_EXPONENT, and by k
# products below.  One index, form against products (Cassini's squaring at
# k = 2 in both), in-process, best of 5-7 in interleaved rounds: on ints
# 1.03-1.04 at m = 8192, 0.92-0.98 at 12288 and 0.76-0.90 from 24576 on.
# On the text path 0.96-0.98 at m = 12288-16384, whose half residue is
# still in ints, but 1.01-1.03 at 24576-32768 for k = 2..8 and to 40960 at
# k = 2, where the finish runs in Decimal at 17k-28k bits and libmpdec's
# square costs what its product does; 0.81-0.93 from 49152 on at every k
# from 2 to 8.  At m = 40960-65536 the form still paid up to k = 16, but
# the build grows as k^3 (170 us at k = 8, 283 us at 10 and 426 us at 12),
# and k <= 8 keeps every wider window on the products (CPython 3.11.7,
# libmpdec 2.5.1, 2-vCPU VM).
_FORM_K = 8
_FORM_EXPONENT = 49152


class OpCount(SimpleNamespace):
    """Tally of big-integer multiplications performed, for benchmarking.

    matrix_products counts squarings of the residue modulo
    x^k - x^(k-1) - ... - 1 (the field keeps its name for the code that
    reads it); scalar_mults counts the big multiplications and squarings
    inside them and in the finish of a single index, as `matrix_cost` and
    `_schedule` count them.  Shifts, additions, exact divisions by small
    ints and the small multiples of a step, of _toom_square's evaluation
    and interpolation, of Cassini's rule or of the form are not counted.

    Two tallies are equal when both counts are; a tally is mutable, so
    unhashable.
    """

    def __init__(self, matrix_products: int = 0, scalar_mults: int = 0) -> None:
        super().__init__(matrix_products=matrix_products, scalar_mults=scalar_mults)


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


def _schedule(k: int, n: int) -> Iterator[tuple]:
    """(e, square, mults) for each squaring of the powering to x^n, in
    order: e = n >> j at the j-th last, reached from the residue r of
    x^(e // 2) as square(r), a polynomial congruent to r^2 modulo Q, times
    x if e is odd, by mults multiplications.  At k = 2 that is always
    _cassini_square's 2; otherwise _square's k(k+1)/2 while
    e // 2 < _TOOM_EXPONENT and _toom_square's 2k - 1 from there on."""
    for j in range(_squarings(k, n) - 1, -1, -1):
        e = n >> j
        if k == 2:
            yield e, partial(_cassini_square, odd=e >> 1 & 1), 2
        elif e >> 1 >= _TOOM_EXPONENT:
            yield e, _toom_square, 2 * k - 1
        else:
            yield e, _square, k * (k + 1) // 2


def matrix_cost(k: int, n: int) -> int:
    """The multiplications f(n) or S(n) alone takes: none at k = 1, where
    the values and sums do not power, nor where the powering to x^n does
    not square; otherwise those of _schedule's squarings to x^(n // 2), and
    k for the finish of _by_halves: the k products of its inner product, or
    past _FORM_K and _FORM_EXPONENT's gate the k squarings of _form."""
    if k == 1 or not _squarings(k, n):
        return 0
    return sum(mults for _, _, mults in _schedule(k, n >> 1)) + k


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


def _cassini_square(r: list, odd: bool) -> list:
    """The residue of x^(2e) at k = 2 from that of x^e, r = a + bx, for
    e >= 1, odd or not, by 2 squarings.  x^e = F(e-1) + F(e) x with F the
    Fibonacci numbers, so Cassini's identity reads a^2 + ab - b^2 = (-1)^e,
    and r^2 = a^2 + b^2 + (2ab + b^2) x modulo x^2 - x - 1 is
    (a^2 + b^2) + (3b^2 - 2a^2 + 2(-1)^e) x: the doubling of GMP's
    mpz_fib_ui."""
    a, b = r
    aa, bb = a * a, b * b
    return [aa + bb, bb + bb + bb - aa - aa + (-2 if odd else 2)]


def _residue(k: int, n: int, ops: OpCount | None, text: bool = False) -> list:
    """Coefficients r[0..k-1] of x^n mod x^k - x^(k-1) - ... - 1, as ints.

    The squarings are _schedule's.  With text, the coefficients are
    converted to Decimals once before the first squaring of coefficients
    wider than _DECIMAL_BITS, which then runs, like every later one, in
    Decimal; the caller runs it under exact().  Every squaring and the
    reduction use only +, -, * and exact division, so they serve both
    types.
    """
    _check_k(k)
    _check_n(n)
    r = [0] * (k + 1)
    r[n >> _squarings(k, n)] = 1
    r = _reduced(r)
    for e, square, mults in _schedule(k, n):
        if text and max(c.bit_length() for c in r) > _DECIMAL_BITS:
            r, text = list(_decimals(r)), False
        r = square(r)
        if e & 1:
            r = [0, *r]
        # P's rule, valid modulo its factor Q, down to degree k
        for i in range(len(r) - 1, k, -1):
            top = r[i]
            r[i - 1] += top + top
            r[i - k - 1] -= top
        if len(r) > k:
            r = _reduced(r[: k + 1])
        if ops is not None:
            ops.matrix_products += 1
            ops.scalar_mults += mults
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


def _gram(k: int, b: int, numerator) -> list:
    """The k x k Gram matrix G[i][j] = N(x^(b+i+j)) of the quadratic form
    N(x^b s^2) = s^T G s in the residue s, N(r) = numerator(r(2), r(1),
    r(0)): a Hankel matrix of the numerators at indices below 2k, read off
    the steps from the residue 1."""
    values = [numerator(*v) for v in islice(_steps(k, [1, *repeat(0, k - 1)]), b, b + 2 * k - 1)]
    return [values[i : i + k] for i in range(k)]


def _form(gram: list) -> tuple[int, list]:
    """D > 0 and the terms (c, a) of D s^T G s = sum of c (a . s)^2 for the
    symmetric int matrix G = gram and every vector s: G diagonalised by
    congruence, one term per unit of its rank, in small ints.

    Symmetric elimination (Lagrange) keeps G = the sum of (a a^T) / den over
    the terms so far plus B / d, B an int matrix: a nonzero diagonal entry
    p = B[t][t], with row u = B[t], gives the term u / (dp) and leaves
    (pB - u u^T) / (dp), which zeroes row t; B and d are then divided by
    their common factor, and D is the lcm of the dens, so c = D / den.  The
    pivot is sought at t = 1, 2, ..., k - 1 and at 0 last.  The numerators
    below index k, 2^n for f at 0 < n < k and (k - 1) 2^n + 1 for S, fill
    G's top left corner with a block of rank 1 or 2, so elimination from
    row 0 meets a zero pivot from k = 3 on, and for S at even n from k = 6
    on a diagonal of zeros; with row 0 last no step meets one at any k up
    to 40.  The gate of _by_halves admits 28 matrices only, k = 2.._FORM_K
    for f and S at both parities of n, and the tests diagonalise all of
    them.
    """
    k = len(gram)
    d, found = 1, []  # found: (den, row), each a term (row . s)^2 / den
    while any(map(any, gram)):
        t = next(t for t in chain(range(1, k), [0]) if gram[t][t])
        p, u = gram[t][t], gram[t]
        found.append((d * p, u))
        gram = [[p * x - ui * uj for x, uj in zip(row, u)] for row, ui in zip(gram, u)]
        d *= p
        common = gcd(d, *chain.from_iterable(gram))
        gram, d = [[x // common for x in row] for row in gram], d // common
    scale = lcm(*(den for den, _ in found))
    return scale, [(scale // den, a) for den, a in found]


def _by_halves(k: int, n: int, ops: OpCount | None, text: bool, numerator) -> tuple:
    """(T, D) with T = D numerator(r(2), r(1), r(0)) at the residue r of
    x^n, from the residue s of x^m, m = n // 2, one squaring short of r.

    The numerator is linear in r, so with b = n % 2 and x^n = s x^(m+b), its
    value at x^n is the sum of s[i] times its value at x^(m+b+i), i < k, and
    the next b + k - 1 steps from s give those: k products, and D = 1.
    Past the gate of _FORM_K and _FORM_EXPONENT it is _form's k squarings
    instead, each of a combination of s with small multipliers.  text is
    _residue's.
    """
    half = _residue(k, n >> 1, ops, text)
    if ops is not None:
        ops.scalar_mults += k
    if k <= _FORM_K and n >> 1 >= _FORM_EXPONENT:
        scale, terms = _form(_gram(k, n & 1, numerator))
        total = 0
        for c, a in terms:
            v = sum(x * y for x, y in zip(a, half) if x)
            total += c * (v * v)
        return total, scale
    window = starmap(numerator, islice(_steps(k, half), n & 1, None))
    return sum(map(mul, half, window)), 1


def _divide(x: int | Decimal, d: int) -> int | Decimal:
    """x / d for an int d > 0 that divides x and is narrow beside it: 2,
    k - 1, j! <= (2k - 2)! in _toom_square, or the finish's divisor times
    the D of _form.

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
    squares is taken _by_halves, whose total T = D N(r) is divided as
    (T - Dc) / (Dd).  text is _residue's.
    """
    if k == 1:
        yield from range(start + 1, start + count + 1) if sums else repeat(1, count)
        return
    if sums:
        numerator, offset, divisor = (lambda at_two, at_one, _: (k - 1) * at_two + at_one), 1, k - 1
    else:
        numerator, offset, divisor = (lambda at_two, _, at_zero: at_two + at_zero), 0, 2
    if count == 1 and _squarings(k, start):
        total, scale = _by_halves(k, start, ops, text, numerator)
        yield _divide(total - offset * scale, divisor * scale)
        return
    for n in range(start, k):
        yield _divide(numerator(1 << n, 1, n == 0) - offset, divisor)
    for values in _steps(k, _residue(k, max(start, k), ops, text)):
        yield _divide(numerator(*values) - offset, divisor)
