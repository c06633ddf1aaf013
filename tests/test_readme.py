"""The README quick start runs as written and prints what it claims."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Quick start"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "the quick start has no python block"
    return match.group(1)


def test_readme_quick_start_runs(capsys):
    scope = {}
    exec(compile(_quick_start(), str(README), "exec"), scope)
    assert (scope["l"], scope["m"]) == (2.0, 4.0)
    assert scope["pair"].lam == pytest.approx(math.pi ** 2, rel=1e-4)
    out = capsys.readouterr().out
    assert "d = 0.15, r = 0.0274" in out and "lambda window" in out
