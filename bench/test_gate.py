"""Self-test of the correctness gate: real CLI outputs pass, perturbed ones fail.

    python3 -m pytest bench/test_gate.py

The outputs come from `usc_relax.cli.main` run in-process on the benchmark's
own invocations (a 3x3 gap-scan instead of 20x20, and only the k = 2 evolve
run, to keep the test near half a minute).  Each perturbation is one that a
wrong or less accurate program could produce, and each must count as a
failed operation.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import gate  # noqa: E402
import workloads  # noqa: E402
from usc_relax import cli  # noqa: E402

SEED = 0


def _outputs(invocations, tmp_path):
    out = {}
    for inv in invocations:
        path = tmp_path / f"{inv.name}.csv"
        rc = cli.main(list(inv.argv) + ["--output", str(path)])
        out[inv.name] = (rc, path.read_text())
    return out


def perturb(text: str, row: int, column: str, fn) -> str:
    """Apply fn to one cell of a CLI table."""
    lines = text.splitlines()
    header = next(i for i, l in enumerate(lines) if l.startswith("# columns: "))
    col = lines[header][len("# columns: "):].split(",").index(column)
    cells = lines[header + 1 + row].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[header + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def failures(checker, outputs, name, text):
    changed = dict(outputs)
    changed[name] = (0, text)
    return checker.check(changed)[1]


def _case(invocations, tmp_path_factory):
    """(invocations, real outputs, a gate whose references are then cached)."""
    outputs = _outputs(invocations, tmp_path_factory.mktemp(invocations[0].name))
    checker = gate.Gate(invocations, SEED)
    attempted, bad = checker.check(outputs)
    assert attempted == sum(inv.ops for inv in invocations)
    assert bad == {}
    return invocations, outputs, checker


@pytest.fixture(scope="module")
def gap(tmp_path_factory):
    return _case(workloads._gap_map(workloads._Jitter(SEED), points=3), tmp_path_factory)


@pytest.fixture(scope="module")
def tunneling(tmp_path_factory):
    return _case(workloads.build("tunneling", SEED)[1:], tmp_path_factory)


@pytest.fixture(scope="module")
def spectra(tmp_path_factory):
    return _case(workloads.build("spectra", SEED), tmp_path_factory)


@pytest.fixture(scope="module")
def cascade(tmp_path_factory):
    return _case(workloads.build("cascade", SEED), tmp_path_factory)


def test_real_outputs_pass(gap, tunneling, spectra, cascade):
    pass   # each fixture asserts that its real outputs pass


def test_failed_exit_fails_every_op(gap):
    _, _, checker = gap
    attempted, bad = checker.check({"gap_map": (2, None)})
    assert len(bad) == attempted == 9


@pytest.mark.parametrize("fn", [
    lambda v: v * (1.0 + 1e-6),   # a gap off in the sixth digit
    lambda v: math.nan,
    lambda v: -v,
])
def test_gap_perturbation_fails(gap, fn):
    _, outputs, checker = gap
    row = checker.samples["gap_map"][0]
    bad = failures(checker, outputs, "gap_map", perturb(outputs["gap_map"][1], row, "lambda", fn))
    assert list(bad) == [f"gap_map: point {row}"]


def test_tunneling_perturbations_fail(tunneling):
    _, outputs, checker = tunneling
    text = outputs["evolve_k2"][1]
    # a propagation error at the level a looser solver tolerance leaves
    bad = failures(checker, outputs, "evolve_k2", perturb(text, 200, "sx", lambda v: v + 5e-8))
    assert "expm" in bad["evolve_k2: run"]
    # a fitted frequency 10% off the closed form breaks the criterion-6 margin
    fit = next(l for l in text.splitlines() if l.startswith("# fitted omega: "))
    wrong = text.replace(fit, f"# fitted omega: {float(fit.split(': ')[1]) * 1.1!r}")
    assert "criterion-6" in failures(checker, outputs, "evolve_k2", wrong)["evolve_k2: run"]


def test_spectra_perturbations_fail(spectra):
    _, outputs, checker = spectra
    cases = [
        ("transmission_weak", 5, "value", lambda v: 1.01),
        ("dipole_response", 7, "value", lambda v: -1e-9),
        ("spectrum", 13, "omega_exact", lambda v: v + 1e-6),
    ]
    for name, row, column, fn in cases:
        bad = failures(checker, outputs, name, perturb(outputs[name][1], row, column, fn))
        assert len(bad) == 1 and next(iter(bad)).startswith(name), (name, bad)


def test_cascade_perturbations_fail(cascade):
    _, outputs, checker = cascade
    sample = checker.samples["edm_rates_T0"][0]
    minus_two = int(np.argmin(np.abs(gate.parse_table(outputs["edm_rates_T2"][1]).col("omega") + 2.0)))
    cases = [
        ("edm_rates_T0", sample, "gamma_T", lambda v: v * (1.0 + 1e-7)),
        ("edm_rates_T2", minus_two, "gamma_T", lambda v: v * 1.1),   # breaks detailed balance
        ("edm_evolve_m2", 100, "excitation", lambda v: v + 1e-6),
        ("tla_tilt0", 0, "omega_d", lambda v: v + 1e-5),
    ]
    for name, row, column, fn in cases:
        bad = failures(checker, outputs, name, perturb(outputs[name][1], row, column, fn))
        assert len(bad) == 1 and next(iter(bad)).startswith(name), (name, bad)
