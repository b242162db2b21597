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
No floats: exactness is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .sequence import _check_k, _check_n


@dataclass
class OpCount:
    """Tally of big-integer multiplications performed, for benchmarking.

    matrix_products counts residue squarings (the field keeps its name for
    the code that reads it); scalar_mults counts the coefficient
    multiplications inside them.  Shifts and additions are not counted.
    """

    matrix_products: int = 0
    scalar_mults: int = 0


def _residue(k: int, n: int, ops: OpCount | None) -> list[int]:
    """Coefficients r[0..k] of x^n mod x^(k+1) - 2x^k + 1."""
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
        rev = r[::-1]
        square = []
        for m in range(2 * k + 1):
            lo, half = max(m - k, 0), (m + 1) // 2
            # r[i] * r[m-i] over i < m-i, counted twice; rev[k-m+i] = r[m-i]
            c = sum(map(mul, r[lo:half], rev[k - m + lo : k - m + half])) << 1
            if not m & 1:
                c += r[m >> 1] * r[m >> 1]
            square.append(c)
        if n >> bit & 1:
            square.insert(0, 0)  # times x
        for e in range(len(square) - 1, k, -1):
            top = square[e]
            square[e - 1] += top << 1
            square[e - k - 1] -= top
        r = square[: k + 1]
        if ops is not None:
            ops.matrix_products += 1
            ops.scalar_mults += (k + 1) * (k + 2) // 2
    return r


def _at_two(r: list[int]) -> int:
    return sum(c << i for i, c in enumerate(r))


def kbonacci_matrix(k: int, n: int, ops: OpCount | None = None) -> int:
    """Return f(n) = (r(2) + r(0)) / 2 for r = x^n mod x^(k+1) - 2x^k + 1."""
    r = _residue(k, n, ops)
    return (_at_two(r) + r[0]) >> 1


def partial_sum_matrix(k: int, n: int, ops: OpCount | None = None) -> int:
    """Return f(0) + ... + f(n) = r(2) for r = x^n mod x^(k+1) - 2x^k + 1."""
    return _at_two(_residue(k, n, ops))
