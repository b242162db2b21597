import decimal
import random
import sys
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import accumulate, islice
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci import OpCount, compute_sum, compute_value, kbonacci_prefix
from kbonacci import engines, matrix_power
from kbonacci.matrix_power import (
    _cassini_square,
    _divide,
    _form,
    _gram,
    _head,
    _residue,
    _square,
    _toom_square,
    matrix_cost,
)
from kbonacci.render import _decimals, _texts, exact

matrix_value = partial(compute_value, engine="matrix")
matrix_sum = partial(compute_sum, engine="matrix")
# the registry's matrix streams, of f and of S; an OpCount goes to their
# heads, head(k, start, count, text, ops=ops)
matrix_values, matrix_sums = engines._VALUE_DISPATCH["matrix"], engines._SUM_DISPATCH["matrix"]
MATRIX_STREAMS = [pytest.param(matrix_values, id="values"), pytest.param(matrix_sums, id="sums")]
values_head, sums_head = partial(_head, sums=False), partial(_head, sums=True)
HEADS = [pytest.param(values_head, id="values"), pytest.param(sums_head, id="sums")]


@pytest.mark.parametrize("k, n, expected", [(2, 4, 5), (3, 0, 1), (5, 2, 2)])
def test_value_examples(k, n, expected):
    assert matrix_value(k, n) == expected


def test_value_matches_recurrence_at_64():
    assert matrix_value(2, 64) == compute_value(2, 64, "recurrence")


@pytest.mark.parametrize("k, n, expected", [(2, 4, 12), (5, 0, 1), (3, 7, 96)])
def test_sum_examples(k, n, expected):
    assert matrix_sum(k, n) == expected


def test_cross_engine_grid():
    for k in range(1, 7):
        prefix = kbonacci_prefix(k, 80)
        running = 0
        for n in range(0, 81):
            running += prefix[n]
            assert matrix_value(k, n) == prefix[n]
            assert matrix_sum(k, n) == running


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [1000, 10_000, 100_000])
def test_large_indices_match_linear_engine(k, n):
    assert matrix_value(k, n) == compute_value(k, n, "recurrence")


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 40), n=st.integers(0, 3000))
def test_wide_windows_match_linear_engines(k, n):
    # the reduction x^e = 2x^(e-1) - x^(e-k-1) indexes by k, so reach past
    # the grid's k <= 6
    assert matrix_value(k, n) == compute_value(k, n, "recurrence")
    assert matrix_sum(k, n) == compute_sum(k, n, "direct")


def test_domain_errors():
    with pytest.raises(ValueError):
        matrix_value(0, 4)
    # the engine's stream rejects n < 0; only stream_values reads it as 0
    with pytest.raises(ValueError, match="n must be non-negative"):
        next(matrix_values(2, -1, 0))
    with pytest.raises(ValueError):
        matrix_sum(2, -1)


def test_op_counting_is_logarithmic():
    ops = OpCount()
    next(values_head(2, 100_000, 1, False, ops=ops))
    assert ops.matrix_products > 0
    # ~log2(n) squarings of the 2-coefficient residue, 2 multiplications
    # each by Cassini's identity: nowhere near the 2n additions the linear
    # engine spends
    assert ops.scalar_mults < 1000


def test_delegates_below_k_without_matrix_work():
    # n = k = 6 starts from x^6's residue 1 + x + ... + x^5, still unsquared
    for n, value in [(3, 4), (6, 32)]:
        ops = OpCount()
        assert next(values_head(6, n, 1, False, ops=ops)) == value
        assert ops.matrix_products == 0
        ops = OpCount()
        assert next(sums_head(6, n, 1, False, ops=ops)) == compute_sum(6, n, "direct")
        assert ops.matrix_products == 0


def test_op_count_of_a_small_cell():
    # k=2, n=10 = 2*5: a single index powers only to x^5, 0b101.  Its
    # leading bits 0b10 = 2 = k give the start x^2, whose residue modulo
    # x^2 - x - 1 is 1 + x, for free.  The one remaining bit costs one
    # squaring of the 2-coefficient residue a + bx: by Cassini's identity
    # a^2 + ab - b^2 = (-1)^2, the 2 squares a^2 and b^2 give it, and it
    # multiplies by x: x^5.  With s its residue, f(10) = s[0] f(5) +
    # s[1] f(6) by 2 more multiplications: 4 in all (5 before Cassini's
    # 2 replaced the loop's 2 squares + 1 cross product).
    ops = OpCount()
    assert next(values_head(2, 10, 1, False, ops=ops)) == 89
    assert ops == OpCount(matrix_products=1, scalar_mults=4)


@pytest.mark.parametrize("head", HEADS)
def test_range_counts_only_the_jump(head):
    # a range powers to its first index in full: n=10 = 0b1010 starts at
    # x^2 for free, and its two remaining bits cost one squaring each, of 2
    # squares by Cassini's identity (3 multiplications by the loop), 4 in
    # all (6 before); the 40 steps past n=10 shift the residue without
    # multiplying
    ops = OpCount()
    values = list(islice(head(2, 10, 41, False, ops=ops), 41))
    assert ops == OpCount(matrix_products=2, scalar_mults=4)
    single = matrix_sum if head.keywords["sums"] else matrix_value
    assert values == [single(2, n) for n in range(10, 51)]


def test_op_count_of_a_cell_past_a_lowered_switch(monkeypatch):
    # k=3, n=20 = 2*10, with the switch at x^5: a single index powers only
    # to x^10, 0b1010.  Its leading bits 0b10 = 2 <= k give the start x^2,
    # its own residue, for free.  Bit 1 squares x^2, below the switch, by
    # the loop: 3 squares + 3 cross products = 6 multiplications, and
    # multiplies by x: x^5.  Bit 0 squares x^5, at the switch, by Toom: the
    # residue's values at x = 0..4, each squared, 2k - 1 = 5 multiplications
    # and not 6: x^10.  With s its residue, f(20) = s[0] f(10) + s[1] f(11)
    # + s[2] f(12) by 3 more: 6 + 5 + 3 = 14 in all.
    monkeypatch.setattr(matrix_power, "_TOOM_EXPONENT", 5)
    ops = OpCount()
    assert next(values_head(3, 20, 1, False, ops=ops)) == 121415
    assert ops == OpCount(matrix_products=2, scalar_mults=14)
    assert matrix_cost(3, 20) == 14


@pytest.mark.parametrize("k", range(1, 13))
def test_a_squaring_costs_k_k_plus_1_over_2_then_2k_minus_1_multiplications(k):
    # the squaring of x^e's residue is the loop's k(k+1)/2 products while
    # e < _TOOM_EXPONENT and Toom's 2k - 1 squarings from there on (the
    # same count at k = 1), and at k = 2 Cassini's 2 squares at every e (3
    # by either of the others).  The j-th last squaring of the powering to
    # x^n squares x^(n >> j), so 2t - 1 squares below t = _TOOM_EXPONENT,
    # 2t squares x^t last, and 4t + 3 squares x^t and then x^(2t + 1).
    t = matrix_power._TOOM_EXPONENT
    loop, toom = (2, 2) if k == 2 else (k * (k + 1) // 2, 2 * k - 1)
    for n, past in [(k + 1, 0), (100, 0), (1000, 0), (2 * t - 1, 0), (2 * t, 1), (4 * t + 3, 2)]:
        ops = OpCount()
        _residue(k, n, ops)  # the values and sums at k = 1 do not power
        assert ops.matrix_products > past
        assert ops.scalar_mults == (ops.matrix_products - past) * loop + past * toom, n


def test_cost_model_is_the_measured_count():
    # the model bench reports equals the multiplications the powering makes:
    # every k to 40 at every n below 300, each n through one of the two
    # heads, and larger n at the k where a powering is cheap
    for k in range(1, 41):
        for n in range(300):
            ops = OpCount()
            next((values_head, sums_head)[n & 1](k, n, 1, False, ops=ops))
            assert ops.scalar_mults == matrix_cost(k, n), (k, n)
    for k in range(1, 7):
        for n in (1000, 4097, 12345, 65535, 65536, 100000):
            for head in (values_head, sums_head):
                ops = OpCount()
                next(head(k, n, 1, False, ops=ops))
                assert ops.scalar_mults == matrix_cost(k, n), (k, n)
    # past the switch, where 2k - 1 < k(k+1)/2: a single index n powers to
    # x^m, m = n // 2, and squares x^(m >> j) for j >= 1, so at the switch
    # of 2048 these cells take 0, 1, 2 and 3 squarings by Toom
    for k in range(3, 13):
        for n in (8191, 8192, 16387, 40000):
            for head in (values_head, sums_head):
                ops = OpCount()
                next(head(k, n, 1, False, ops=ops))
                assert ops.scalar_mults == matrix_cost(k, n), (k, n)


def test_indices_below_k_build_no_residue():
    # below k, x^n is its own residue: f(n) = 2^(n-1), f(0) = 1, S(n) = 2^n.
    # The residue of x^k has k coefficients, which k = sys.maxsize cannot hold.
    k = sys.maxsize
    values, sums = [1, 1, 2, 4, 8, 16, 32], [1, 2, 4, 8, 16, 32, 64]
    for head, expected in [(values_head, values), (sums_head, sums)]:
        ops = OpCount()
        assert list(islice(head(k, 0, 7, False, ops=ops), 7)) == expected
        assert list(_texts(_decimals(islice(head(k, 2, 5, True, ops=ops), 5)))) == [str(x) for x in expected[2:]]
        assert ops == OpCount()
    assert matrix_value(k, 40) == 1 << 39
    assert matrix_sum(k, 40) == 1 << 40


@pytest.mark.parametrize("n", [0, 1, 2, 5, 64, 1000])
def test_residue_has_k_coefficients(n):
    for k in range(1, 9):
        assert len(_residue(k, n, None)) == k


def test_ranges_match_the_window_engines():
    # each later index brings the leaving coefficient back at all k places
    for k in range(1, 9):
        for start in (0, 1, k - 1, k, k + 1, 97, 298):
            values = kbonacci_prefix(k, start + 39)[start:]
            sums = [compute_sum(k, n, "direct") for n in range(start, start + 40)]
            assert list(matrix_values(k, start, start + 40)) == values, (k, start)
            assert list(matrix_sums(k, start, start + 40)) == sums, (k, start)


def test_sums_at_k_1_count_the_indices():
    # Q = x - 1 leaves r = 1, so f(n) = 1 and S(n) = n + 1 without a
    # powering, on both paths
    for head, stream, at in [
        (values_head, matrix_values, lambda n: 1),
        (sums_head, matrix_sums, lambda n: n + 1),
    ]:
        for start in (0, 1, 7, 10**6):
            expected = [at(n) for n in range(start, start + 5)]
            ops = OpCount()
            assert list(islice(head(1, start, 5, False, ops=ops), 5)) == expected
            assert list(_texts(_decimals(islice(head(1, start, 5, True, ops=ops), 5)))) == [str(x) for x in expected]
            assert next(head(1, start, 1, False, ops=ops)) == at(start)
            assert ops == OpCount()
            assert list(stream(1, start, start + 5)) == expected
            assert list(stream(1, start, start + 5, text=True)) == [str(x) for x in expected]
        for gen in (stream, partial(stream, text=True)):
            with pytest.raises(ValueError):
                next(gen(1, -1, 3))
            with pytest.raises(ValueError):
                next(gen(0, 0, 3))
            with pytest.raises(TypeError):
                next(gen(True, 0, 3))


def _toom_cases(k: int, rng: random.Random):
    """Coefficient lists of length k to square: random widths, all ones,
    all zeros but one, and 1 bit beside 50k bits."""
    yield [rng.getrandbits(rng.randrange(1, 3000)) for _ in range(k)]
    yield [1] * k
    for i in range(k):
        yield [rng.getrandbits(200) | 1 if j == i else 0 for j in range(k)]
    yield [1 if j % 2 else rng.getrandbits(50_000) | 1 << 49_999 for j in range(k)]


@pytest.mark.parametrize("k", [*range(2, 13), 30])
def test_toom_square_is_the_loop(k):
    # the same 2k - 1 coefficients, as ints and as Decimals under exact(),
    # whose texts are those of the ints: no -0, no exponent
    for r in _toom_cases(k, random.Random(k)):
        square = _square(r)
        assert _toom_square(r) == square
        with exact():
            toom = _toom_square(list(_decimals(r)))
            assert {type(c) for c in toom} == {Decimal}
            assert list(map(str, toom)) == list(_texts(_decimals(square)))
            assert _square(list(_decimals(r))) == toom


# The Toom switch at the first squaring, and where the module puts it
TOOM_SWITCHES = [0, matrix_power._TOOM_EXPONENT]


@pytest.mark.parametrize("toom", TOOM_SWITCHES)
@pytest.mark.parametrize("switch", [0, 8, 40])
@pytest.mark.parametrize("head", HEADS)
def test_text_path_matches_int_path(monkeypatch, switch, toom, head):
    # a lowered switch sends small indices through Decimal squarings, and
    # a Toom switch at 0 sends every squaring through _toom_square
    monkeypatch.setattr(matrix_power, "_DECIMAL_BITS", switch)
    monkeypatch.setattr(matrix_power, "_TOOM_EXPONENT", toom)
    for k in range(1, 9):
        for n in range(201):
            int_ops, text_ops = OpCount(), OpCount()
            text = next(_texts(_decimals(head(k, n, 1, True, ops=text_ops))))
            assert text == str(next(head(k, n, 1, False, ops=int_ops))), (k, n)
            assert text_ops == int_ops


def test_lowered_switch_is_crossed(monkeypatch):
    monkeypatch.setattr(matrix_power, "_DECIMAL_BITS", 8)
    with exact():
        assert {type(c) for c in _residue(3, 200, None, text=True)} == {Decimal}
        assert {type(c) for c in _residue(3, 20, None, text=True)} == {int}  # below it
    assert {type(c) for c in _residue(3, 200, None)} == {int}


@pytest.mark.parametrize("stream", MATRIX_STREAMS)
def test_text_range_stepped_after_the_switch_matches_int_path(monkeypatch, stream):
    monkeypatch.setattr(matrix_power, "_DECIMAL_BITS", 8)
    for k in range(1, 9):
        for start in (100, 171):
            assert list(stream(k, start, start + 30, text=True)) == [str(v) for v in stream(k, start, start + 30)]
            # and a single index, whose half residue and steps are in Decimal
            assert next(stream(k, start, start + 1, text=True)) == str(next(stream(k, start, start + 1)))


# Indices whose residue is finished in Decimal: its coefficients are
# converted at 13,016 bits at k=2, 12,086 at k=3 and 10,648 at k=4, past
# the switch's 8,192, and the last three squarings run in Decimal, by
# _toom_square.  A single index 2n or 2n + 1 powers only to x^n, so that
# same residue is the half that its inner product finishes from, at both
# parities.
@pytest.mark.parametrize("k, n", [(2, 150_000), (3, 110_000), (4, 90_000)])
@pytest.mark.parametrize("stream", MATRIX_STREAMS)
def test_text_range_past_the_real_switch(stream, k, n):
    with exact():
        assert {type(c) for c in _residue(k, n, None, text=True)} == {Decimal}
    expected = list(_texts(_decimals(stream(k, n, n + 30))))
    assert list(stream(k, n, n + 30, text=True)) == expected
    for single in (2 * n, 2 * n + 1):
        assert next(stream(k, single, single + 1, text=True)) == next(_texts(_decimals(stream(k, single, single + 1))))


@pytest.mark.parametrize("toom", TOOM_SWITCHES)
@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 40), n=st.integers(1, 3000), switch=st.sampled_from([0, 8, 64, 16_384]))
def test_single_index_matches_the_range_path(toom, k, n, switch):
    # a single index is one squaring short of x^n and finishes with an
    # inner product; the second index of a range steps the residue of
    # x^(n-1) once.  A lowered switch sends both through Decimal, and a
    # Toom switch at 0 squares every residue by _toom_square.
    with mock.patch.object(matrix_power, "_DECIMAL_BITS", switch), mock.patch.object(
        matrix_power, "_TOOM_EXPONENT", toom
    ):
        for stream in (matrix_values, matrix_sums):
            for text in (False, True):
                assert next(stream(k, n, n + 1, text)) == list(stream(k, n - 1, n + 1, text))[1], (stream, text)


def _numerators(k: int) -> dict:
    """The numerators of f and of S at k, as `_head` applies them to
    (r(2), r(1), r(0)), each with its value at x^n: 2f(n) and
    (k - 1) S(n) + 1."""
    prefix = kbonacci_prefix(k, 2 * k)
    sums = list(accumulate(prefix))
    return {
        "values": (lambda at_two, at_one, at_zero: at_two + at_zero, [2 * f for f in prefix]),
        "sums": (lambda at_two, at_one, at_zero: (k - 1) * at_two + at_one, [(k - 1) * s + 1 for s in sums]),
    }


def _quadratic(gram: list, s: list) -> int:
    return sum(g * x * y for row, x in zip(gram, s) for g, y in zip(row, s))


def _diagonal(terms: list, s: list) -> int:
    return sum(c * sum(map(mul, a, s)) ** 2 for c, a in terms)


def _meets_a_zero_diagonal(gram: list) -> bool:
    """Whether symmetric elimination on the first nonzero diagonal entry, in
    Fractions, leaves a nonzero matrix whose diagonal is all 0."""
    a = [[Fraction(x) for x in row] for row in gram]
    while any(map(any, a)):
        t = next((t for t in range(len(a)) if a[t][t]), None)
        if t is None:
            return True
        p, u = a[t][t], a[t]
        a = [[x - ui * uj / p for x, uj in zip(row, u)] for row, ui in zip(a, u)]
    return False


@pytest.mark.parametrize(
    "gram, rank",
    [
        ([[5]], 1),
        ([[0, 0], [0, 0]], 0),
        ([[1, 2], [2, 4]], 1),
        ([[0, 2], [2, -7]], 2),
    ],
)
def test_form_of_a_small_matrix(gram, rank):
    # one term per unit of rank; a zero G[0][0] waits for index 0's turn,
    # and a negative pivot gives a negative c
    scale, terms = _form(gram)
    assert scale > 0 and len(terms) == rank
    rng = random.Random(rank)
    for _ in range(50):
        s = [rng.randrange(-(10**30), 10**30) for _ in gram]
        assert scale * _quadratic(gram, s) == _diagonal(terms, s)


@pytest.mark.parametrize("k", range(2, 17))
def test_form_diagonalises_the_gram_matrix(k):
    # G[i][j] = N(x^(b+i+j)), and D s^T G s = sum of c (a . s)^2 for every
    # s, not only residues, in k terms: Q is irreducible, so G has rank k.
    # Elimination from index 0 would meet a diagonal of zeros for S at even
    # n from k = 6 on, which is why _form pivots on index 0 last.  k runs
    # past the gate's _FORM_K, as headroom for a wider bound.
    rng = random.Random(k)
    for name, (numerator, at) in _numerators(k).items():
        for b in (0, 1):
            gram = _gram(k, b, numerator)
            assert gram == [at[b + i : b + i + k] for i in range(k)], (name, b)
            assert _meets_a_zero_diagonal(gram) == (name == "sums" and b == 0 and k >= 6), (name, b)
            scale, terms = _form(gram)
            assert scale > 0 and len(terms) == k
            for _ in range(20):
                s = [rng.getrandbits(rng.randrange(1, 400)) - rng.getrandbits(300) for _ in range(k)]
                assert scale * _quadratic(gram, s) == _diagonal(terms, s)


# The largest |a_t|, |c_t| and D of the forms at each k up to the gate's
# bound, over f and S and both parities of n: all within 21 bits.
FORM_SIZES = {
    2: (8, 4, 8),
    3: (31, 68, 136),
    4: (94, 425, 5100),
    5: (253, 17952, 17952),
    6: (636, 33600, 223040),
    7: (1531, 53312, 319872),
    8: (3578, 62016, 1736448),
}


def test_form_sizes_are_pinned():
    assert max(FORM_SIZES) == matrix_power._FORM_K
    for k, sizes in FORM_SIZES.items():
        forms = [_form(_gram(k, b, numerator)) for numerator, _ in _numerators(k).values() for b in (0, 1)]
        a = max(abs(x) for _, terms in forms for _, row in terms for x in row)
        c = max(abs(c) for _, terms in forms for c, _ in terms)
        assert (a, c, max(scale for scale, _ in forms)) == sizes, k


@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("k", range(2, 9))
def test_form_finish_is_the_products_finish(monkeypatch, head, k):
    # the gate closed, then open at every index past k, which all finish
    # _by_halves: the same values and counts on ints, and the same text in
    # Decimal, converted before the first squaring, at both parities of n
    monkeypatch.setattr(matrix_power, "_DECIMAL_BITS", 0)  # the int path ignores it

    def finish(n):
        ops = OpCount()
        return next(head(k, n, 1, False, ops=ops)), ops, next(_texts(_decimals(head(k, n, 1, True))))

    indices = range(k + 1, 160)
    monkeypatch.setattr(matrix_power, "_FORM_K", 0)
    products = [finish(n) for n in indices]
    assert all(text == str(value) for value, _, text in products)
    monkeypatch.setattr(matrix_power, "_FORM_K", k)
    monkeypatch.setattr(matrix_power, "_FORM_EXPONENT", 0)
    assert [finish(n) for n in indices] == products


def _reduced_at_two(square: list) -> list:
    """A polynomial of degree 2 reduced modulo x^2 - x - 1."""
    return [square[0] + square[2], square[1] + square[2]]


def test_cassini_square_is_the_loop_and_toom():
    # every 7th e from 3 to 2999, odd and even, so (-1)^e takes both signs,
    # and past the Toom switch at 2048; each also in Decimal.  The wrong
    # sign is off by 4 in the coefficient of x.
    for e in range(3, 3000, 7):
        r = _residue(2, e, None)
        square = _reduced_at_two(_square(r))
        assert _reduced_at_two(_toom_square(r)) == square, e
        assert _cassini_square(r, odd=e & 1) == square, e
        assert _cassini_square(r, odd=not e & 1) == [square[0], square[1] + (4 if e & 1 else -4)]
        assert _residue(2, 2 * e, None) == square
        with exact():
            assert _cassini_square(list(_decimals(r)), odd=e & 1) == square


@pytest.mark.parametrize("k", [2, matrix_power._FORM_K])
def test_values_at_the_gate_are_the_recurrences(monkeypatch, k):
    # n = 2F - 2 and 2F - 1, F = _FORM_EXPONENT, power to x^(F - 1) and
    # finish by products; 2F and 2F + 1 power to x^F and finish by the form,
    # on ints and on text alike; one k past _FORM_K takes the products
    forms = []
    real = matrix_power._form
    monkeypatch.setattr(matrix_power, "_form", lambda gram: forms.append(len(gram)) or real(gram))
    start = 2 * matrix_power._FORM_EXPONENT - 2
    for stream, oracle in [(engines.stream_values, "recurrence"), (engines.stream_sums, "direct")]:
        forms.clear()
        for n, value in zip(range(start, start + 4), stream(k, start, start + 4, oracle)):
            assert next(stream(k, n, n + 1, "matrix")) == value, (oracle, n)
            text = next(_texts(_decimals([value])))
            assert next(stream(k, n, n + 1, "matrix", text=True)) == text, (oracle, n)
        assert forms == [k] * 4, oracle
        forms.clear()
        next(stream(matrix_power._FORM_K + 1, start + 2, start + 3, "matrix"))
        assert forms == []


def test_halving_an_odd_decimal_raises_inexact():
    with exact():
        assert str(_divide(Decimal(14), 2)) == "7"
        # plain division is exact at unbounded precision, so it would print 7.5
        assert str(Decimal(15) / 2) == "7.5"
        with pytest.raises(decimal.Inexact):
            _divide(Decimal(15), 2)
        # the sums divide by k - 1, which need not be a power of two
        assert str(_divide(Decimal(12), 3)) == "4"
        for k in (3, 4, 6):
            with pytest.raises(decimal.Inexact):
                _divide(Decimal(10**30 + 1), k - 1)
    assert _divide(14, 2) == 7
    assert _divide(12, 3) == 4


def test_library_stays_on_ints(monkeypatch):
    assert type(matrix_value(2, 10**6)) is int
    # the int path ignores the switch, however low it is
    monkeypatch.setattr(matrix_power, "_DECIMAL_BITS", 0)
    for name in engines.VALUE_NAMES:
        assert {type(v) for v in engines.stream_values(4, 150, 170, name)} == {int}
    for name in engines.SUM_NAMES:
        assert {type(v) for v in engines.stream_sums(4, 150, 170, name)} == {int}
    assert type(engines.compute_value(4, 150, "matrix")) is type(engines.compute_sum(4, 150, "matrix")) is int
