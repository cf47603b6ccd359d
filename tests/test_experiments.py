"""The experiment configs: every table's run, end to end through the CLI.

Each file in experiments/ is one run; its first line is a comment with the
command that runs it from the repository root.  The README lists those
commands plus the looped runs (one --set more).  Every command runs here
through cli.main, with its --output moved under a temporary directory.
The README's count of strict xfails is checked against the test files too.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from usc_relax.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "experiments").glob("*.cfg"))

COLUMNS = {
    "gap-scan": ["g", "epsilon", "lambda"],
    "evolve": ["t", "sx", "sx_rescaled"],
    "spectrum": ["g", "level_index", "omega_exact", "omega_grwa"],
    "transmission": ["epsilon", "omega", "value"],
    "dipole-response": ["epsilon", "omega", "value"],
    "edm-rates": ["omega", "gamma_T", "gamma_tot", "gamma_tot_over_gamma_d"],
    "edm-evolve": ["t", "excitation"],
    "tla": ["omega_d", "x_10", "epsilon", "gap_ratio", "valid"],
}


def first_line_command(path: Path) -> str:
    return path.read_text().splitlines()[0].removeprefix("# ")


def readme_commands() -> list[str]:
    section = (ROOT / "README.md").read_text().split("## Experiment configs", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("usc-relax ")]


def option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


COMMANDS = list(dict.fromkeys([first_line_command(p) for p in CONFIGS] + readme_commands()))


def test_readme_lists_exactly_the_experiment_configs():
    assert CONFIGS
    listed = readme_commands()
    assert {option(shlex.split(c), "--config") for c in listed} == {
        f"experiments/{p.name}" for p in CONFIGS
    }
    for path in CONFIGS:
        command = first_line_command(path)
        assert command in listed
        assert option(shlex.split(command), "--config") == f"experiments/{path.name}"


@pytest.mark.parametrize(
    "command", COMMANDS, ids=lambda c: Path(option(shlex.split(c), "--output")).stem
)
def test_experiment_command_writes_its_table(command, tmp_path):
    program, subcommand, *rest = shlex.split(command)
    assert program == "usc-relax"
    argv = [subcommand, *rest]
    config = argv.index("--config") + 1
    argv[config] = str(ROOT / argv[config])
    output = argv.index("--output") + 1
    out = tmp_path / argv[output]
    out.parent.mkdir(parents=True)
    argv[output] = str(out)
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert f"# columns: {','.join(COLUMNS[subcommand])}" in lines
    assert not lines[-1].startswith("#")   # at least one row


COUNT_WORDS = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten")


def xfail_marks(path: Path) -> int:
    """Number of pytest.mark.xfail references in a test file (decorators and marks=)."""
    return sum(
        isinstance(node, ast.Attribute)
        and node.attr == "xfail"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "mark"
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_readme_counts_the_strict_xfails():
    # pyproject sets xfail_strict, so every xfail mark is a strict one
    readme = (ROOT / "README.md").read_text()
    stated = re.search(r"(\w+) tests carry \*\*strict xfail\*\*", readme)
    assert stated is not None
    marks = sum(xfail_marks(path) for path in sorted((ROOT / "tests").glob("*.py")))
    assert marks > 0
    assert COUNT_WORDS.index(stated.group(1).lower()) == marks
