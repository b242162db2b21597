"""Exact decimal text of big integers, shared by the CLI and the engines.

An int becomes decimal text in one place and by one rule: `_decimals`
converts it to a Decimal by divide and conquer (`_to_decimal`),
subquadratic in the digit count, where `int.__str__` is quadratic on
CPython before 3.12, and independent of the interpreter's int/str digit
limit; a Decimal, such as a matrix residue finished in Decimal, passes
through as it is.  `_texts` prints Decimals with str() and converts
nothing.  `exact()` is the context all of it runs under: unbounded
precision and exponent, with Inexact trapped, so integer arithmetic on
Decimals is exact or raises instead of printing a wrong digit.

Every engine's text range converts each value its head yields, its
first k at most, once, in `engines._engine`'s stream, before the range's
tail, which makes its later indices in Decimal, so they need no binary
to decimal conversion at all; `terms` converts its magnitudes alike, and `matrix_power` its
residue once it is wide.
"""

from __future__ import annotations

import decimal
from collections.abc import Iterable, Iterator

# Widest piece converted by Decimal(int) directly.  Render times of 3,000
# to 694,000-bit values were flat for leaves of 2,048 to 8,192 bits
# (CPython 3.11.7, libmpdec 2.5.1, 2-vCPU Xeon VM).
_LEAF_BITS = 4096

_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_EXACT.traps[decimal.Inexact] = True


# The annotation is never evaluated (postponed annotations), so it names
# contextlib without importing it at every command's start.
def exact() -> contextlib.AbstractContextManager[decimal.Context]:
    """A with-block under which Decimal arithmetic on integers is exact or
    raises decimal.Inexact."""
    return decimal.localcontext(_EXACT)


def _texts(numbers: Iterator[decimal.Decimal]) -> Iterator[str]:
    """Decimals as exact decimal strings, by str().  Each next number is
    computed under exact(), so an engine steps its Decimal state, and
    `_decimals` converts, there."""
    while True:
        with exact():
            x = next(numbers, None)
        if x is None:
            return
        yield str(x)


def _decimals(numbers: Iterable) -> Iterator[decimal.Decimal]:
    """numbers, ints or Decimals, as Decimals: an int by `_to_decimal`, all
    of them sharing one cache of powers of two, and a Decimal as it is.
    Pull it under exact()."""
    powers: dict = {}
    for n in numbers:
        yield n if type(n) is decimal.Decimal else _to_decimal(n, n.bit_length(), powers)


def _to_decimal(n: int, width: int, powers: dict) -> decimal.Decimal:
    """n, which fits in width bits, as a Decimal; powers caches 2^w by w.

    n = lo + hi * 2^half splits the bits in half; each half is converted
    alike and the two are combined with Decimal arithmetic, whose large
    multiplications are subquadratic (Brent & Zimmermann, Modern Computer
    Arithmetic, section 1.7; CPython 3.12's _pylong does the same).  A value
    of at most _LEAF_BITS bits is a single leaf.  A negative n splits
    alike: hi = n >> half is floored, so lo stays in [0, 2^half) and
    n = lo + hi * 2^half still holds.
    """
    if width <= _LEAF_BITS:
        return decimal.Decimal(n)
    half = width >> 1
    hi = n >> half
    lo = _to_decimal(n - (hi << half), half, powers)
    return lo + _to_decimal(hi, width - half, powers) * _pow2(half, powers)


def _pow2(w: int, powers: dict) -> decimal.Decimal:
    """2^w as the product of two cached halves, which the levels below use
    too: about 10% faster than Decimal(2) ** w on 10^5 to 7*10^5-bit
    values, on the machine named at _LEAF_BITS."""
    p = powers.get(w)
    if p is None:
        if w <= _LEAF_BITS:
            p = decimal.Decimal(1 << w)
        else:
            p = _pow2(w >> 1, powers) * _pow2(w - (w >> 1), powers)
        powers[w] = p
    return p
