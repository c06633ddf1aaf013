"""The README quick start and config example run as written and do what
they claim."""

import math
import re
from pathlib import Path

import pytest

from orlicz_lab import cli, norms, young
from orlicz_lab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
WORKFLOW = README.parent / ".github" / "workflows" / "tier1.yml"


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


def _config_tables() -> dict:
    """(section, key) -> (kind, default) of every config table: the CLI
    sections, the domain and the Young function kinds."""
    tables = {"top level": cli._TOP, "solver": cli._SOLVER,
              "domain": norms._DOMAIN}
    tables.update((name.replace("-", "_"), table)
                  for name, (_, table) in cli._SECTIONS.items())
    tables.update((kind, table) for kind, (_, table) in young._KINDS.items())
    return {(section, key): entry for section, table in tables.items()
            for key, entry in table.items()}


def _command_line_section() -> str:
    text = README.read_text()
    start = text.index("## Command line")
    return text[start:text.index("\n## ", start)]


def test_readme_lists_every_config_key():
    section = _command_line_section()
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[1].startswith("`"):
            rows[cells[0].strip("`"), cells[1].strip("`")] = cells[2:]
    tables = _config_tables()
    assert set(rows) == set(tables)
    for name, (kind, default) in tables.items():
        what, doc_default = rows[name]
        if isinstance(kind, dict):
            assert what.startswith("a one-key mapping: "), name
            for key, inner in kind.items():
                assert f"`{key}`, {inner.what}" in what, name
        else:
            assert re.match(re.escape(kind.what) + r"($|:|,| \()", what), \
                (name, what)
        assert (doc_default == "required") == (default is ...), name
    for kind in young._KINDS:
        assert f"`{kind}`" in section


def test_ci_runs_the_suite_and_the_benchmark_gates():
    # the benchmark's gates (eigenvalues against recorded values, the
    # probe's clusters, region CSV determinism) are not tier-1 tests, nor
    # are the traced run's self-checks (span nesting, self times that sum
    # to the traced wall, exact counts)
    import yaml
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]["steps"]
    runs = [step["run"] for step in steps if "run" in step]
    assert any("python -m pytest -q --continue-on-collection-errors" in run
               for run in runs)
    for trace in (0, 1):
        assert (f"python3 perfbench/run.py --workload all --seconds 1 "
                f"--trace {trace}") in runs
    # pinned: the solver loads scipy's private LAPACK extension by its
    # path, and the bit-identity checks and recorded benchmark figures hold
    # for these versions
    install, = [run for run in runs if "pip install" in run]
    assert install.split()[:4] == ["python", "-m", "pip", "install"]
    assert sorted(install.split()[4:]) == [
        "hypothesis==6.155.2", "numpy==2.4.6", "pytest==9.0.3",
        "pyyaml==6.0.3", "scipy==1.17.1"]


def test_suite_fails_on_a_leaked_runtime_warning(pytestconfig):
    # numpy reports an overflow or an invalid operation as a
    # RuntimeWarning; the suite, and the CI job that runs it, turn one
    # that reaches a test into a failure
    assert "error::RuntimeWarning" in pytestconfig.getini("filterwarnings")
