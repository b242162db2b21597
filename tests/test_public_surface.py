"""The package's public names and the README's library and shell examples."""

import re
import shlex
from pathlib import Path

import pytest

import kbonacci
from kbonacci.cli import main
from kbonacci.verify import SuiteResult

README = Path(__file__).resolve().parents[1] / "README.md"
# a comment that opens with the value of its line: "# 96" or "# 96, why"
_EXPECTED = re.compile(r"#\s*(-?\d+|True)(,|$)")


def test_every_public_name_resolves():
    for name in kbonacci.__all__:
        assert hasattr(kbonacci, name), name


def test_every_public_name_is_listed_and_star_imported():
    # the tiling laboratory's names resolve on first use, through the
    # package's __getattr__, and dir() and import * must still see them
    namespace: dict = {}
    exec("from kbonacci import *", namespace)
    for name in kbonacci.__all__:
        assert name in dir(kbonacci), name
        assert namespace[name] is getattr(kbonacci, name), name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'kbonacci' has no attribute 'no_such_name'"):
        kbonacci.no_such_name


def test_signed_term_is_an_immutable_hashable_named_tuple():
    term = kbonacci.SignedTerm(1, -1, 32)
    assert repr(term) == "SignedTerm(j=1, sign=-1, magnitude=32)"
    assert (term.j, term.sign, term.magnitude, term.value) == (1, -1, 32, -32)
    assert term == (1, -1, 32) and hash(term) == hash((1, -1, 32))
    with pytest.raises(AttributeError):
        term.sign = 1


def test_op_count_compares_by_its_counts():
    ops = kbonacci.OpCount(scalar_mults=5, matrix_products=1)
    assert repr(ops) == "OpCount(matrix_products=1, scalar_mults=5)"
    assert ops == kbonacci.OpCount(1, 5) and ops != kbonacci.OpCount(1, 6)
    assert ops != (1, 5)
    ops.matrix_products += 1
    assert ops == kbonacci.OpCount(2, 5)
    assert kbonacci.OpCount() == kbonacci.OpCount(0, 0)


def test_suite_results_never_share_a_failures_list():
    first, second = SuiteResult("engines"), SuiteResult("tilings")
    first.expect(False, "forced mismatch")
    assert (first.failures, first.passed) == (["forced mismatch"], False)
    assert (second.failures, second.passed, second.checks) == ([], True, 0)


def test_identity_report_is_a_named_tuple_that_passes_when_both_sides_agree():
    report = kbonacci.identity_report(2, 5, 1, kbonacci.oversized_members(2, 5))
    assert report == kbonacci.IntersectionIdentityReport(
        k=2, n=5, i=1, lhs=12, rhs=12, configurations=12, injective=True, image_matches=True
    )
    assert report.passed
    assert not report._replace(injective=False).passed


def _quick_start() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") :]
    block = section[section.index("```python\n") + len("```python\n") :]
    return block[: block.index("```")].splitlines()


def test_readme_quick_start_runs_and_shows_its_values():
    lines = _quick_start()
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    checked = 0
    for line in lines:
        code, _, comment = line.partition("#")
        match = _EXPECTED.match("#" + comment) if comment else None
        if code.strip() and match:
            assert repr(eval(code, namespace)) == match.group(1), line
            checked += 1
    # 5, 0, 96, 232, 5 and True: a pattern that matched no line would check nothing
    assert checked >= 6


def _shell_examples() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("Examples:\n\n```sh\n") :]
    block = section[section.index("```sh\n") + len("```sh\n") :]
    return block[: block.index("```")].splitlines()


def test_readme_shell_examples_print_their_comments(capsys):
    # "# 64 (why)" is one line 64; "# 0 + 128 / 1 - 32" is the lines
    # "0 + 128" and "1 - 32"
    checked = 0
    for line in _shell_examples():
        command, _, comment = line.partition("#")
        if not comment:
            continue
        program, *argv = shlex.split(command)
        assert program == "kbonacci", line
        assert main(argv) == 0, line
        expected = re.sub(r"\s*\(.*\)$", "", comment.strip()).split(" / ")
        assert capsys.readouterr().out.splitlines() == expected, line
        checked += 1
    # eval, sum, terms and tilings --count: a block that moved would check nothing
    assert checked >= 4
