"""Independent checks of kbonacci CLI output.

Nothing here imports kbonacci.  Expected values come from the benchmark's
own modular arithmetic and counting recurrence, and the printed text is read
back without trusting the program's formatting code, so a fault in the
program cannot hide behind its own reference.

Every check takes the text a command wrote to stdout and returns None when
the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import json
from functools import lru_cache

PRIME = (1 << 61) - 1  # Mersenne prime: a wrong digit d*10^i is never 0 mod PRIME
TEN18 = 10**18


def _prefix(k: int, count: int) -> list[int]:
    """f(0..count-1) straight from the definition (f(0) = 1, window k)."""
    f = []
    for t in range(count):
        f.append(1 if t == 0 else sum(f[max(0, t - k):t]))
    return f


def _linear_mod(coeffs: list[int], init: list[int], n: int, m: int) -> int:
    """a(n) mod m for a(t) = sum_i coeffs[i] * a(t-1-i), a(0..d-1) = init.

    Kitamasa's method: reduce x^n modulo x^d - sum_i coeffs[i] x^(d-1-i) by
    binary powering, then a(n) is the residue's dot product with init.
    Costs O(d^2 log n) small multiplications.
    """
    d = len(coeffs)
    taps = [(i, c) for i, c in enumerate(coeffs) if c]

    def reduce(poly: list[int]) -> list[int]:
        for t in range(len(poly) - 1, d - 1, -1):
            c = poly[t] % m
            if c:
                for i, ci in taps:
                    poly[t - 1 - i] += c * ci
        return [x % m for x in poly[:d]] + [0] * (d - len(poly))

    def mul(a: list[int], b: list[int]) -> list[int]:
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        return reduce(prod)

    result = reduce([1])
    base = reduce([0, 1])
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return sum(r * a for r, a in zip(result, init)) % m


@lru_cache(maxsize=None)
def expected_mod(quantity: str, k: int, n: int, m: int) -> int:
    """f(n) mod m ("f") or S(n) = f(0) + ... + f(n) mod m ("S")."""
    if quantity == "f":
        return _linear_mod([1] * k, _prefix(k, k), n, m)
    # S(t) - S(t-1) = f(t) = S(t-1) - S(t-1-k) for t >= k+1.
    f = _prefix(k, k + 1)
    sums = [sum(f[: t + 1]) for t in range(k + 1)]
    return _linear_mod([2] + [0] * (k - 1) + [-1], sums, n, m)


def tiling_count(k: int, n: int, bounded: bool) -> int:
    """Tilings of a length-n ruler with tiles 1..k (total <= n if bounded)."""
    ways = [1]
    for t in range(1, n + 1):
        ways.append(sum(ways[max(0, t - k):t]))
    return sum(ways) if bounded else ways[n]


def decimal_mod(text: str, m: int) -> int:
    """The value of a decimal string modulo m, read in linear time."""
    r = 0
    for i in range(0, len(text), 18):
        chunk = text[i:i + 18]
        r = (r * 10 ** len(chunk) + int(chunk)) % m
    return r


def _bad_decimal(text: str) -> str | None:
    if not (text.isascii() and text.isdigit()):
        return "value is not a decimal string"
    if len(text) > 1 and text[0] == "0":
        return "value has a leading zero"
    return None


def _value_mismatch(text: str, quantity: str, k: int, n: int) -> str | None:
    """Compare one printed value with f(n) or S(n) modulo PRIME and 10^18."""
    bad = _bad_decimal(text)
    if bad:
        return f"{quantity}({n}) at k={k}: {bad}"
    if int(text[-18:]) != expected_mod(quantity, k, n, TEN18):
        return f"{quantity}({n}) at k={k}: low 18 digits are wrong"
    if decimal_mod(text, PRIME) != expected_mod(quantity, k, n, PRIME):
        return f"{quantity}({n}) at k={k}: residue mod 2^61-1 is wrong"
    return None


def _lines(out: str) -> list[str]:
    if out and not out.endswith("\n"):
        return out.split("\n") + ["<unterminated>"]
    return out.split("\n")[:-1]


def _value_records(out: str, fmt: str, k: int, engine: str) -> list[tuple[int | None, str]]:
    """(n, value) per record of eval/sum output; n is None in plain format."""
    lines = _lines(out)
    if fmt == "plain":
        return [(None, line) for line in lines]
    if fmt == "json":
        records = []
        for line in lines:
            obj = json.loads(line)
            if obj["k"] != k or obj["engine"] != engine:
                raise ValueError(f"record names k={obj['k']} engine={obj['engine']}")
            records.append((obj["n"], obj["value"]))
        return records
    # Split by hand: csv.reader refuses fields over 128 KiB, and values
    # run to hundreds of thousands of digits.
    rows = [line.split(",") for line in lines]
    if not rows or rows[0] != ["k", "n", "engine", "value"]:
        raise ValueError("csv header is wrong")
    for row in rows[1:]:
        if row[0] != str(k) or row[2] != engine:
            raise ValueError(f"record names k={row[0]} engine={row[2]}")
    return [(int(row[1]), row[3]) for row in rows[1:]]


def check_value(out: str, quantity: str, k: int, n: int, fmt: str, engine: str) -> str | None:
    """One eval (quantity "f") or sum ("S") record at a large index."""
    try:
        records = _value_records(out, fmt, k, engine)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable {fmt} output: {exc}"
    if len(records) != 1:
        return f"expected 1 record, got {len(records)}"
    got_n, text = records[0]
    if got_n is not None and got_n != n:
        return f"record is for n={got_n}, asked for n={n}"
    return _value_mismatch(text, quantity, k, n)


def check_range(out: str, quantity: str, k: int, ns: range, fmt: str, engine: str) -> str | None:
    """eval/sum over n = a..b: one record per index, in order, and
    consecutive records obey f(n) = f(n-1) + ... + f(n-k), where for sums
    f(n) is read as S(n) - S(n-1).  The first records are anchored modulo
    PRIME, which with the recurrence pins every record."""
    try:
        records = _value_records(out, fmt, k, engine)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable {fmt} output: {exc}"
    if len(records) != len(ns):
        return f"expected {len(ns)} records, got {len(records)}"
    for (got_n, text), n in zip(records, ns):
        if got_n is not None and got_n != n:
            return f"record for n={got_n} where n={n} belongs"
        bad = _bad_decimal(text)
        if bad:
            return f"{quantity}({n}) at k={k}: {bad}"
    values = [int(text) for _, text in records]
    anchors = k if quantity == "f" else k + 1
    for n, value in zip(ns[:anchors], values):
        if value % PRIME != expected_mod(quantity, k, n, PRIME):
            return f"{quantity}({n}) at k={k}: residue mod 2^61-1 is wrong"
    terms = values if quantity == "f" else [b - a for a, b in zip(values, values[1:])]
    first = ns[0] if quantity == "f" else ns[0] + 1
    for j in range(k, len(terms)):
        if terms[j] != sum(terms[j - k:j]):
            return f"f({first + j}) at k={k} is not the sum of the previous {k} values"
    return None


def _tiling_rows(out: str, fmt: str) -> list[tuple[int, ...]]:
    lines = _lines(out)
    if fmt == "plain":
        return [tuple(json.loads(line)) for line in lines]
    if fmt == "json":
        rows = []
        for line in lines:
            obj = json.loads(line)
            if obj["total"] != sum(obj["tiles"]):
                raise ValueError(f"total {obj['total']} != sum of {obj['tiles']}")
            rows.append(tuple(obj["tiles"]))
        return rows
    rows = list(csv.reader(lines))
    if not rows or rows[0] != ["total", "tiles"]:
        raise ValueError("csv header is wrong")
    tilings = []
    for total, tiles in rows[1:]:
        tiling = tuple(int(t) for t in tiles.split())
        if int(total) != sum(tiling):
            raise ValueError(f"total {total} != sum of {tiles!r}")
        tilings.append(tiling)
    return tilings


def check_tilings(out: str, k: int, n: int, bounded: bool, fmt: str) -> str | None:
    """A tilings listing: tiles in 1..k, the required total, strictly
    increasing lexicographic order (so no duplicates), and as many tilings
    as the counting recurrence gives."""
    try:
        rows = _tiling_rows(out, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable {fmt} listing: {exc}"
    for row in rows:
        if not all(isinstance(t, int) and 1 <= t <= k for t in row):
            return f"tiling {row} has a tile outside 1..{k}"
        total = sum(row)
        if total > n or (not bounded and total != n):
            return f"tiling {row} has total {total} for n={n}"
    for a, b in zip(rows, rows[1:]):
        if a == b:
            return f"tiling {a} is listed twice"
        if a > b:
            return f"tilings {a} and {b} are out of lexicographic order"
    expected = tiling_count(k, n, bounded)
    if len(rows) != expected:
        return f"listed {len(rows)} tilings, expected {expected}"
    return None


def check_count(out: str, k: int, n: int, bounded: bool, fmt: str) -> str | None:
    """tilings --count: the count equals the counting recurrence."""
    lines = _lines(out)
    try:
        if fmt == "plain":
            (line,) = lines
            count = int(line)
        elif fmt == "json":
            (line,) = lines
            obj = json.loads(line)
            if (obj["k"], obj["n"], obj["bounded"]) != (k, n, bounded):
                return f"record names k={obj['k']} n={obj['n']} bounded={obj['bounded']}"
            count = obj["count"]
        else:
            header, row = csv.reader(lines)
            if header != ["k", "n", "bounded", "count"]:
                return "csv header is wrong"
            count = int(row[3])
    except (ValueError, KeyError) as exc:
        return f"unreadable {fmt} count: {exc}"
    expected = tiling_count(k, n, bounded)
    if count != expected:
        return f"count {count}, expected {expected}"
    return None


def check_verify(out: str, suites: tuple[str, ...], fmt: str) -> str | None:
    """verify: every requested suite reported once, in order, as a pass
    with checks > 0."""
    lines = _lines(out)
    reports = []
    try:
        if fmt == "plain":
            for line in lines:
                status, name, checks = line.split(" ")
                if not checks.startswith("checks="):
                    raise ValueError(f"line {line!r}")
                reports.append((name, status.lower(), int(checks[len("checks="):])))
        elif fmt == "json":
            for line in lines:
                obj = json.loads(line)
                reports.append((obj["suite"], obj["status"], obj["checks"]))
        else:
            rows = list(csv.reader(lines))
            if not rows or rows[0] != ["suite", "checks", "failures", "status"]:
                return "csv header is wrong"
            reports = [(name, status, int(checks)) for name, checks, _, status in rows[1:]]
    except (ValueError, KeyError) as exc:
        return f"unreadable {fmt} report: {exc}"
    names = tuple(name for name, _, _ in reports)
    if names != suites:
        return f"reported suites {names}, asked for {suites}"
    for name, status, checks in reports:
        if status != "pass":
            return f"suite {name} reports {status}"
        if checks <= 0:
            return f"suite {name} ran {checks} checks"
    return None
