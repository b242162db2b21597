"""The package's public names and the README's library and shell examples."""

import re
import shlex
from pathlib import Path

import kbonacci
from kbonacci.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# a comment that opens with the value of its line: "# 96" or "# 96, why"
_EXPECTED = re.compile(r"#\s*(-?\d+|True)(,|$)")


def test_every_public_name_resolves():
    for name in kbonacci.__all__:
        assert hasattr(kbonacci, name), name


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
