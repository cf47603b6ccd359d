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
import sys
from pathlib import Path

import pytest

import usc_relax
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


def local_argv(command: str, tmp_path: Path) -> tuple[list[str], Path]:
    """The command's cli.main argv, its --output moved under tmp_path, and that path."""
    program, *argv = shlex.split(command)
    assert program == "usc-relax"
    if "--config" in argv:
        config = argv.index("--config") + 1
        argv[config] = str(ROOT / argv[config])
    output = argv.index("--output") + 1
    out = tmp_path / argv[output]
    out.parent.mkdir(parents=True, exist_ok=True)
    argv[output] = str(out)
    return argv, out


@pytest.mark.parametrize(
    "command", COMMANDS, ids=lambda c: Path(option(shlex.split(c), "--output")).stem
)
def test_experiment_command_writes_its_table(command, tmp_path):
    argv, out = local_argv(command, tmp_path)
    subcommand = argv[0]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert f"# columns: {','.join(COLUMNS[subcommand])}" in lines
    assert not lines[-1].startswith("#")   # at least one row


CONFIG_LINE = re.compile(r"# [\w.]+ = ")


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_table_replays_from_its_own_header(path, tmp_path):
    # the header's config echo is the whole run: fed back as the config file,
    # it rewrites the table byte for byte
    argv, out = local_argv(first_line_command(path), tmp_path / "first")
    assert main(argv) == 0
    table = out.read_text().splitlines(keepends=True)
    echo = [line[2:] for line in table if CONFIG_LINE.match(line)]
    assert any(line.startswith("model.g = ") for line in echo)
    replayed = tmp_path / "replay.cfg"
    replayed.write_text("".join(echo))
    again = tmp_path / "again.csv"
    assert main([argv[0], "--config", str(replayed), "--output", str(again)]) == 0
    assert again.read_text().splitlines(keepends=True) == table


# every library function a table reaches is called by one of these runs: the
# nine configs, plus the subcommands and branches no config takes
PROFILED_RUNS = [first_line_command(path) for path in CONFIGS] + [
    "usc-relax rabi-freq --output rabi_freq.csv",
    "usc-relax spectrum --set model.epsilon=1.0 --set 'scan = g, 1.0, 2.0, 2' "
    "--output spectrum_eps1.csv",
    "usc-relax gap-scan --set 'scan = g, 0.5, 1.0, 2' --set 'bath = cavity, ohmic, 0.05, 1.0' "
    "--format json --verbose --output gap.json",
]

# the library functions no table reaches, each kept for the reason given
UNREACHED = {
    "operators.build_polaron_rabi": "the benchmark gate solves its polaron reference with it",
    "operators.displacement_matrix": "build_polaron_rabi's displacement blocks",
    "operators.OperatorMatrix.__post_init__": "the shape check of the dense operators that "
    "only build_polaron_rabi and the test oracles build",
    "operators.OperatorMatrix.hermiticity_defect": "diagonalize's dense branch, which only "
    "build_polaron_rabi's matrices take",
    "operators._op": "wraps build_polaron_rabi's and displacement_matrix's arrays",
    "lindblad.liouvillian_eigenvalues": "the full generator spectrum, kept until the cluster "
    "generator of the secular-validity item decides whether it needs it",
    "lindblad.Liouvillian.coherence_rates": "the coherence block of liouvillian_eigenvalues "
    "and of the oracles' dense generators; evolve takes per-level phases instead",
    "operators.ModelParams.auto": "the import-time default of run_tunneling_oscillations",
    "eigen._rayleigh_ritz": "recovery of band-solve pairs split by about ten eps ||H||, "
    "which no table's point reaches",
}


def library_functions(package: Path) -> set[str]:
    """module.qualname of every def in the package's modules."""
    found = set()

    def walk(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return found


def test_every_library_function_reaches_a_table(tmp_path):
    package = Path(usc_relax.__file__).parent
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            path = Path(frame.f_code.co_filename)
            if path.parent == package:
                reached.add(f"{path.stem}.{frame.f_code.co_qualname}")

    runs = [local_argv(command, tmp_path)[0] for command in PROFILED_RUNS]
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        status = [main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
    assert status == [0] * len(runs)
    defined = library_functions(package)
    assert len(defined) > 100 and len(reached & defined) > 100
    assert sorted(defined - reached) == sorted(UNREACHED)


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
