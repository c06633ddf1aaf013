"""The README quick start and config example run as written and do what
they claim."""

import math
import re
from pathlib import Path

import pytest

from orlicz_lab.cli import main

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


def _config_example() -> str:
    text = README.read_text()
    section = text[text.index("## Command line"):]
    match = re.search(r"```yaml\n(.*?)```", section, re.DOTALL)
    assert match, "the command-line section has no yaml block"
    return match.group(1)


def test_readme_config_example_runs_eig(tmp_path, capsys):
    path = tmp_path / "run.yaml"
    path.write_text(_config_example())
    out = tmp_path / "runs"
    assert main(["eig", "--config", str(path), "--out", str(out)]) == 0
    assert "lambda =" in capsys.readouterr().out
    assert (out / "eig.csv").is_file()
