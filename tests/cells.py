"""Cross-engine cells: commands whose two engines must print the same bytes.

Each cell names a command (eval or sum), k, an index or range a..b, two
engines and why the cell is here.  Every engine makes each index of a
range past its first k as the sum of the k before it (plus 1 for S), kept
running by t(n+1) = 2t(n) - t(n-k), so past index k two engines step
through the same code.  The cells stand where engines differ: the heads of
the closed forms' and matrix's ranges, long and short, and single matrix
indices past each switch of the powering.  `verify` checks every engine
against the walk of the defining recurrence on small grids.

Run as a script, this file checks every cell, through `kbonacci.cli.main`
in one process, against whichever kbonacci package Python imports (CI runs
it against the installed package, outside the checkout):

    python tests/cells.py                  # the installed package
    PYTHONPATH=src python tests/cells.py   # the checkout's src/

It prints nothing and exits 0 when every cell agrees, and names each cell
that does not.  Tier-1 runs the same table in `tests/test_cli.py`.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from typing import NamedTuple

from kbonacci.cli import main


class Cell(NamedTuple):
    command: str
    k: int
    n: str
    first: str
    second: str
    why: str

    def __str__(self) -> str:
        return f"{self.command} --k {self.k} --n {self.n}: {self.first} against {self.second}"


CELLS = [
    # the heads of long ranges from index 0
    Cell("sum", 3, "0..200", "dunkel", "direct", "a closed-form range"),
    Cell("eval", 3, "0..200", "dunkel-term", "recurrence", "a closed-form range"),
    Cell("sum", 3, "0..200", "matrix", "direct", "a matrix range, its head below k unpowered"),
    Cell("eval", 3, "0..200", "matrix", "recurrence", "a matrix range, its head below k unpowered"),
    # the switches of the matrix powering
    Cell("eval", 30, "20000..20001", "matrix", "recurrence", "head values past Toom-Cook, in Decimal"),
    Cell("eval", 3, "60000", "matrix", "recurrence", "one index past Toom-Cook and into Decimal, k products"),
    Cell("sum", 8, "40000", "matrix", "direct", "one S index past Toom-Cook at k = 8, below the form's gate"),
    Cell("eval", 2, "100001", "matrix", "recurrence", "Cassini's squarings, then the quadratic form"),
    Cell("sum", 2, "100000", "matrix", "direct", "S at k = 2 and even n past the form's gate"),
    Cell("eval", 4, "100001", "matrix", "recurrence", "f at k = 4 and odd n past the form's gate"),
    Cell("sum", 6, "100000", "matrix", "direct", "S at k = 6, even n: a zero pivot if eliminated from index 0"),
    Cell("sum", 7, "100001", "matrix", "direct", "S at k = 7, odd n: the form's constant D = 319872"),
    Cell("sum", 8, "100001", "matrix", "direct", "S at k = 8, odd n: the form's constant D = 1736448"),
    # short ranges: their head and one or two steps
    Cell("sum", 6, "7000..7006", "dunkel", "direct", "a closed-form range of k+1 indices"),
    Cell("eval", 4, "4500..4505", "dunkel-term", "recurrence", "a closed-form range of k+2 indices"),
    Cell("eval", 5, "6000..6005", "matrix", "recurrence", "a matrix range of k+1 indices"),
    Cell("sum", 3, "5000..5004", "matrix", "direct", "a matrix range of k+2 indices"),
    Cell("sum", 2, "6000..6002", "dunkel", "direct", "a closed-form range at k = 2, its block one index"),
    Cell("eval", 3, "5000..5003", "dunkel-term", "recurrence", "a closed-form range of k+1 indices"),
    # closed-form ranges across n = 2(k+1), where C(n - 2k, 2) starts at zero
    Cell("sum", 8, "15..22", "dunkel", "direct", "a block column that starts at zero"),
    Cell("eval", 8, "16..23", "dunkel-term", "recurrence", "a block column that starts at zero"),
]


def printed(cell: Cell, engine: str) -> tuple[int, str]:
    """The exit code and stdout of the cell's command on one engine."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([cell.command, "--k", str(cell.k), "--n", cell.n, "--engine", engine])
    return code, out.getvalue()


def disagreements(cells=CELLS) -> list[str]:
    """A line for each cell whose engines fail or print different text."""
    lines = []
    for cell in cells:
        first, second = printed(cell, cell.first), printed(cell, cell.second)
        if first != second or first[0] != 0:
            lines.append(f"{cell} differ (exit codes {first[0]} and {second[0]})")
    return lines


if __name__ == "__main__":
    lines = disagreements()
    sys.exit("\n".join(lines) if lines else 0)
