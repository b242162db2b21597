import pytest

from kbonacci import render


@pytest.fixture
def conversions(monkeypatch):
    """The ints converted to Decimal, in order, from the test's start: one
    per top-level call of `render._to_decimal`, not one per half of its
    split, which calls it again."""
    converted, depth, real = [], [0], render._to_decimal

    def spy(n, width, powers):
        if not depth[0]:
            converted.append(n)
        depth[0] += 1
        try:
            return real(n, width, powers)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(render, "_to_decimal", spy)
    return converted
