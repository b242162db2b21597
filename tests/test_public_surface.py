"""The package's public names and the README's library example."""

import re
from pathlib import Path

import kbonacci

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
    # 5, 0, 96, 232 and True: a pattern that matched no line would check nothing
    assert checked >= 5
