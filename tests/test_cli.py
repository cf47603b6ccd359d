"""End-to-end CLI checks: every subcommand, both table formats, overrides."""

import argparse
import json
import math
import os
import pkgutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import usc_relax
from usc_relax import cli, dynamics, eigen, grwa, scan
from usc_relax.cli import _cmd_edm_rates, _cmd_transmission, main
from usc_relax.config import RunConfig, parse_config
from usc_relax.dipole import WellParams, tla_parameters
from usc_relax.dynamics import run_tunneling_oscillations
from usc_relax.edm import EdmParams, saturation_number, validity_report
from usc_relax.eigen import diagonalize
from usc_relax.lindblad import BathSpec, build_liouvillian, liouvillian_gap
from usc_relax.operators import ModelParams, default_n_fock, rabi_bands
from usc_relax.response import cavity_structure_factor, system_impedance, transmission

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv: str) -> int:
    return main(list(argv))


def read_csv(path):
    """Split a CSV table into metadata lines, column names, and float rows."""
    meta, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("# columns:"):
            columns = line.removeprefix("# columns:").strip().split(",")
        elif line.startswith("# "):
            meta.append(line[2:])
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def _src_env() -> dict[str, str]:
    """The environment with this checkout's src first on PYTHONPATH, for subprocesses."""
    src = str(Path(usc_relax.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_cli_import_loads_no_heavy_scipy_subpackages():
    # every CLI run pays for its imports: scipy.special, .integrate, .optimize
    # and .sparse would each add tens to hundreds of ms to start-up
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, usc_relax.cli; print(*sys.modules)"],
        capture_output=True, text=True, check=True, env=_src_env(),
    ).stdout.split()
    heavy = ("scipy.special", "scipy.integrate", "scipy.optimize", "scipy.sparse")
    assert [m for m in loaded if m.startswith(heavy)] == []


def test_package_binds_only_its_submodules_and_version():
    # each library name has one import path, its module: the package
    # re-exports nothing, so after the CLI's imports it holds only submodules
    package = Path(usc_relax.__file__).parent
    submodules = {info.name for info in pkgutil.iter_modules([str(package)])}
    public = {name for name in vars(usc_relax) if not name.startswith("_")}
    assert "cli" in public
    assert public <= submodules
    assert isinstance(usc_relax.__version__, str)
    assert not hasattr(usc_relax, "__all__")


def test_closed_stdout_is_not_a_refused_run():
    # usc-relax edm-rates | head -2: the reader closes the pipe after two
    # lines while most of the 1601-row table is still to be written
    proc = subprocess.Popen(
        [sys.executable, "-m", "usc_relax.cli", "edm-rates"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    )
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert head[0].startswith(b"# usc-relax ")
    assert err == ""   # no "error:" line


def test_output_write_error_is_still_a_refused_run(tmp_path, capsys):
    assert run_cli("tla", "--output", str(tmp_path / "missing" / "t.csv")) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# one smoke run per subcommand
# ---------------------------------------------------------------------------

def test_spectrum_table(tmp_path):
    out = tmp_path / "spec.csv"
    assert run_cli("spectrum", "--set", "model.g = 0.2", "--output", str(out)) == 0
    meta, columns, rows = read_csv(out)
    assert meta[0].startswith("usc-relax ")
    assert "model.g = 0.2" in meta
    assert columns == ["g", "level_index", "omega_exact", "omega_grwa"]
    assert len(rows) == 6
    for row in rows:
        exact, approx = float(row[2]), float(row[3])
        assert abs(exact - approx) < 5e-3  # weak coupling: closed form is tight


def test_spectrum_grwa_column_is_even_in_epsilon(tmp_path):
    # H(-epsilon) = P H(epsilon) P with P = (-1)^(a^dag a) sigma_z: both columns are even
    rows = {}
    for epsilon in (-2.0, 2.0):
        out = tmp_path / f"spec_{epsilon}.csv"
        argv = ("spectrum", "--set", "model.g = 3.0", "--set", "model.n_fock = 76",
                "--set", f"model.epsilon = {epsilon}", "--output", str(out))
        assert run_cli(*argv) == 0
        rows[epsilon] = read_csv(out)[2]
    assert rows[-2.0] == rows[2.0]
    assert [row[3] for row in rows[2.0]][:2] == ["-1.0000154261065284", "0.0"]
    params = ModelParams(g=3.0, n_fock=76)
    direct = [grwa.levels(replace(params, epsilon=eps), 6) for eps in (-2.0, 2.0)]
    assert direct[0] == direct[1] == [float(row[3]) for row in rows[2.0]]


def test_spectrum_at_a_vanishing_epsilon_uses_the_symmetric_grwa_levels(tmp_path):
    # 0 < |epsilon| < 1e-12 takes the epsilon = 0 gRWA column, not an error
    columns = {}
    for epsilon in ("0.0", "1e-13"):
        out = tmp_path / f"spec_{epsilon}.csv"
        argv = ("spectrum", "--set", f"model.epsilon={epsilon}",
                "--set", "scan = g, 1.0, 1.0, 1", "--output", str(out))
        assert run_cli(*argv) == 0
        columns[epsilon] = [row[3] for row in read_csv(out)[2]]
    assert columns["1e-13"] == columns["0.0"]
    direct = grwa.levels(ModelParams(g=1.0, epsilon=1e-13), 6)
    assert direct == grwa.symmetric_levels(ModelParams(g=1.0), 6)
    assert direct == [float(value) for value in columns["0.0"]]


def test_gap_scan_single_point_matches_direct_call(tmp_path):
    out = tmp_path / "gap.csv"
    code = run_cli(
        "gap-scan",
        "--set", "scan = g, 2.0, 2.0, 1",
        "--set", "bath = cavity, ohmic, 0.02, 1.0",
        "--output", str(out),
    )
    assert code == 0
    meta, columns, rows = read_csv(out)
    assert columns == ["g", "epsilon", "lambda"]
    assert "failed points: 0" in meta
    [row] = rows
    params = ModelParams(g=2.0)
    lv = build_liouvillian(
        diagonalize(rabi_bands(params), 24),
        params,
        (BathSpec(channel="cavity", law="ohmic", strength=0.02, ref_freq=1.0),),
    )
    assert float(row[0]) == 2.0
    assert float(row[2]) == pytest.approx(liouvillian_gap(lv), rel=1e-12)


def test_gap_scan_failures_become_nan_then_json_null(tmp_path):
    out = tmp_path / "gap.json"
    code = run_cli(
        "gap-scan",
        "--set", "scan = g, 1.0, 1.0, 1",
        "--set", "bath = cavity, ohmic, 0.02, 1.0",
        "--set", "model.n_fock = 5",      # 10 levels cannot feed m_levels = 24
        "--format", "json",
        "--output", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["columns"] == ["g", "epsilon", "lambda"]
    assert doc["rows"][0][2] is None
    assert any("failed points: 1" in line for line in doc["metadata"])


def test_evolve_table(tmp_path):
    out = tmp_path / "evolve.csv"
    code = run_cli(
        "evolve",
        "--set", "model.g = 2.0",
        "--set", "evolve.m_levels = 12",
        "--set", "evolve.n_periods = 5.5",
        "--set", "evolve.points_per_period = 24",
        "--output", str(out),
    )
    assert code == 0
    meta, columns, rows = read_csv(out)
    assert columns == ["t", "sx", "sx_rescaled"]
    assert len(rows) == round(5.5 * 24)
    assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-3)
    assert any(line.startswith("fitted omega:") for line in meta)
    assert any(line.startswith("reference omega_(k,k):") for line in meta)


def test_transmission_table(tmp_path):
    out = tmp_path / "trans.csv"
    code = run_cli(
        "transmission",
        "--set", "model.g = 0.1",
        "--set", "response.omega_points = 201",
        "--output", str(out),
    )
    assert code == 0
    _, columns, rows = read_csv(out)
    assert columns == ["epsilon", "omega", "value"]
    assert len(rows) == 201
    vals = np.array([float(r[2]) for r in rows])
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    # two polariton branches: transmission dips at the dressed lines
    assert vals.min() < 0.2


def test_transmission_column_is_scalar_abs_of_each_value():
    config = parse_config(
        "model.g = 2.5\nmodel.n_fock = 64\nscan = epsilon, -1.5, 1.5, 3\n"
        "response.omega_points = 301\ntemperature = 0.2\n"
    )
    blocks, _ = _cmd_transmission(config)
    # one omega grid, and the mirrored blocks share their value array
    assert blocks[0]["omega"] is blocks[1]["omega"] is blocks[2]["omega"]
    assert blocks[0]["value"] is blocks[2]["value"]
    columns = {name: np.concatenate([np.broadcast_to(b[name], (301,)) for b in blocks])
               for name in blocks[0]}
    omegas = config.response.grid()
    eta = config.model.omega_c / config.response.q_factor
    expected = {}
    for eps in (0.0, 1.5):
        params = replace(config.model, epsilon=eps)
        s_c = cavity_structure_factor(
            diagonalize(rabi_bands(params), config.m_levels), params, 0.2, omegas, eta
        )
        t = transmission(system_impedance(s_c), config.response.q_factor)
        expected[eps] = [abs(v) for v in t.values]
    # the -1.5 rows are the +1.5 rows bit for bit: H(-epsilon) = P H(epsilon) P
    assert columns["value"].tolist() == expected[1.5] + expected[0.0] + expected[1.5]
    assert columns["epsilon"].tolist() == [e for e in (-1.5, 0.0, 1.5) for _ in omegas]
    assert columns["omega"].tolist() == omegas.tolist() * 3


def test_dipole_response_table_with_epsilon_scan(tmp_path):
    out = tmp_path / "dresp.csv"
    code = run_cli(
        "dipole-response",
        "--set", "model.g = 1.0",
        "--set", "response.omega_points = 101",
        "--set", "scan = epsilon, 0.0, 1.0, 3",
        "--output", str(out),
    )
    assert code == 0
    _, columns, rows = read_csv(out)
    assert columns == ["epsilon", "omega", "value"]
    assert len(rows) == 3 * 101
    assert sorted({float(r[0]) for r in rows}) == [0.0, 0.5, 1.0]
    assert all(float(r[2]) >= 0.0 for r in rows)


def test_edm_rates_table(tmp_path):
    out = tmp_path / "rates.csv"
    code = run_cli(
        "edm-rates",
        "--set", "scan = omega, -2.0, 2.0, 81",
        "--set", "edm.temperature = 2.0",
        "--output", str(out),
    )
    assert code == 0
    _, columns, rows = read_csv(out)
    assert columns == ["omega", "gamma_T", "gamma_tot", "gamma_tot_over_gamma_d"]
    assert len(rows) == 81
    by_omega = {round(float(r[0]), 9): (float(r[1]), float(r[2])) for r in rows}
    # gamma_tot(w) = gamma_T(w) - gamma_T(-w), so it must be odd in w
    for w, (up, tot) in by_omega.items():
        assert tot == pytest.approx(up - by_omega[round(-w, 9)][0], rel=1e-9, abs=1e-15)


def test_edm_rates_default_axis_is_the_mirror_exact_scan_axis():
    default, _ = _cmd_edm_rates(RunConfig())
    explicit, _ = _cmd_edm_rates(parse_config("scan = omega, -4.0, 4.0, 1601"))
    omegas = default["omega"]
    assert np.array_equal(omegas, -omegas[::-1]) and omegas[800] == 0.0
    for name, column in default.items():
        assert column.tobytes() == explicit[name].tobytes(), name


def test_edm_evolve_table(tmp_path):
    out = tmp_path / "cascade.csv"
    code = run_cli(
        "edm-evolve",
        "--set", "evolve.m0 = 2",
        "--set", "evolve.n_periods = 8",
        "--set", "evolve.points_per_period = 10",
        "--output", str(out),
    )
    assert code == 0
    meta, columns, rows = read_csv(out)
    assert columns == ["t", "excitation"]
    assert len(rows) == 81
    excitation = [float(r[1]) for r in rows]
    assert excitation[0] == pytest.approx(2.0, abs=1e-9)
    assert excitation[-1] < 0.05  # cold bath empties the ladder
    assert any(line.startswith("total rate:") for line in meta)


def test_tla_table_matches_library(tmp_path):
    out = tmp_path / "tla.csv"
    assert run_cli("tla", "--output", str(out)) == 0
    _, columns, rows = read_csv(out)
    assert columns == ["omega_d", "x_10", "epsilon", "gap_ratio", "valid"]
    [row] = rows
    rep = tla_parameters(WellParams())
    assert float(row[0]) == pytest.approx(rep.omega_d, rel=1e-12)
    assert float(row[1]) == pytest.approx(rep.x_10, rel=1e-12)
    assert float(row[2]) == 0.0
    assert float(row[3]) == pytest.approx(rep.gap_ratio, rel=1e-12)
    assert row[4] == "true"


def test_rabi_freq_table_matches_library(tmp_path):
    out = tmp_path / "freq.csv"
    assert run_cli("rabi-freq", "--set", "model.g = 3.0", "--output", str(out)) == 0
    _, columns, rows = read_csv(out)
    assert columns == ["k", "n", "omega_kn"]
    assert len(rows) == 4 * 6
    params = ModelParams(g=3.0)
    for row in rows:
        k, n = int(row[0]), int(row[1])
        assert float(row[2]) == pytest.approx(grwa.rabi_frequency(k, n, params), rel=1e-12)


# ---------------------------------------------------------------------------
# trust diagnostics in the headers
# ---------------------------------------------------------------------------

def header_values(path) -> dict[str, str]:
    """The header's `name: value` lines (the config echo is `key = value`)."""
    meta, _, _ = read_csv(path)
    return dict(line.split(": ", 1) for line in meta if ": " in line)


def test_edm_rates_header_prints_the_saturation_number(tmp_path):
    out = tmp_path / "rates.csv"
    assert run_cli(
        "edm-rates", "--set", "edm.temperature = 2.0", "--set", "scan = omega, -2.0, 2.0, 5",
        "--output", str(out),
    ) == 0
    p = EdmParams(temperature=2.0)
    values = header_values(out)
    assert float(values["saturation number"]) == saturation_number(p)
    report = validity_report(p)
    assert float(values["splitting omega_(k,k)"]) == report.splitting
    assert float(values["thermal reference"]) == report.thermal_reference
    assert int(values["resonance k"]) == report.k == 1


def test_edm_rates_without_net_cooling_prints_none(tmp_path):
    out = tmp_path / "rates.csv"
    assert run_cli(
        "edm-rates", "--set", "edm.epsilon = -1", "--set", "scan = omega, -2.0, 2.0, 5",
        "--output", str(out),
    ) == 0
    assert header_values(out)["saturation number"] == "none"


def test_shipped_cascade_is_outside_the_elimination_regime(tmp_path):
    # gamma = 0.1 at g = 1 lies below Omega_(1,1) = 0.607, and the header says so
    out = tmp_path / "cascade.csv"
    assert run_cli(
        "edm-evolve", "--config", str(ROOT / "experiments" / "edm_cascade.cfg"),
        "--output", str(out),
    ) == 0
    meta, _, _ = read_csv(out)
    values = header_values(out)
    assert values["adiabatic elimination ok"] == "false"
    assert values["usc ok"] == "true"
    [warning] = [line for line in meta if line.startswith("validity warning: ")]
    assert "adiabatic elimination of the cavity is not justified" in warning


def test_evolve_header_prints_the_gates_collapse_deviation(tmp_path):
    out = tmp_path / "evolve.csv"
    assert run_cli("evolve", "--set", "model.g = 3.0", "--output", str(out)) == 0
    _, columns, rows = read_csv(out)
    values = header_values(out)
    table = np.array(rows, dtype=float)
    times, rescaled = table[:, columns.index("t")], table[:, columns.index("sx_rescaled")]
    omega = float(values["fitted omega"])
    # the benchmark gate's criterion-6 collapse, from the table alone
    mask = times <= 3.0 * 2.0 * math.pi / omega
    collapse = float(np.max(np.abs(rescaled[mask] - np.cos(omega * times[mask]) / 2.0)))
    assert float(values["collapse deviation"]) == collapse
    assert collapse < 0.1


# ---------------------------------------------------------------------------
# plumbing: formats, overrides, errors, stdout
# ---------------------------------------------------------------------------

def test_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run_cli("spectrum", "--set", "model.g = 1.0", "--output", str(path)) == 0
    assert a.read_text() == b.read_text()


def test_json_format_round_trips_rows(tmp_path):
    out = tmp_path / "spec.json"
    assert run_cli("spectrum", "--format", "json", "--output", str(out)) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"metadata", "columns", "rows"}
    assert doc["columns"] == ["g", "level_index", "omega_exact", "omega_grwa"]
    assert len(doc["rows"]) == 6
    assert all(isinstance(v, (int, float)) for row in doc["rows"] for v in row)


def test_config_file_plus_set_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.g = 0.5\nmodel.epsilon = 0.1\n")
    out = tmp_path / "spec.csv"
    code = run_cli(
        "spectrum", "--config", str(cfg), "--set", "model.epsilon = 0.0",
        "--output", str(out),
    )
    assert code == 0
    meta, _, rows = read_csv(out)
    assert "model.g = 0.5" in meta
    assert "model.epsilon = 0.0" in meta
    assert float(rows[0][0]) == 0.5


def test_set_coupling_resolves_the_files_auto_cutoff(tmp_path):
    # --set lines are the file's last lines: its n_fock = auto follows the
    # overriding g, as in one file holding both
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.g = 2.5\nmodel.n_fock = auto\n")
    joined = tmp_path / "joined.cfg"
    joined.write_text(cfg.read_text() + "model.g = 4.0\n")
    split, one = tmp_path / "split.csv", tmp_path / "one.csv"
    assert run_cli(
        "rabi-freq", "--config", str(cfg), "--set", "model.g = 4.0", "--output", str(split)
    ) == 0
    assert run_cli("rabi-freq", "--config", str(joined), "--output", str(one)) == 0
    assert f"model.n_fock = {default_n_fock(4.0)}" in read_csv(split)[0]
    assert split.read_text() == one.read_text().replace(str(one), str(split))


def test_writes_to_stdout_by_default(capsys):
    assert run_cli("tla") == 0
    captured = capsys.readouterr()
    assert "# columns: omega_d,x_10,epsilon,gap_ratio,valid" in captured.out


def test_invalid_config_content_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert run_cli("spectrum", "--config", str(cfg)) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert run_cli("spectrum", "--config", str(tmp_path / "absent.cfg")) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bad_override_exits_2(capsys):
    assert run_cli("spectrum", "--set", "model.coupling = 1") == 2
    assert "no field" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["transmission", "--set", "temperature = nan", "--set", "scan = epsilon, 0, 0, 1"],
     "temperature: expected a finite number"),
    (["gap-scan", "--set", "temperature = nan", "--set", "scan = g, 1, 2, 2",
      "--set", "bath = cavity, ohmic, 0.05, 1.0"], "temperature: expected a finite number"),
    (["gap-scan", "--set", "scan = g, 1, 2, 2", "--set", "bath = cavity, ohmic, nan, 1.0"],
     "bath: expected a finite number"),
    (["evolve", "--set", "model.g = nan"], "model.g: expected a finite number"),
    (["evolve", "--set", "model.g = inf"], "model.g: expected a finite number"),
    (["gap-scan", "--set", "scan = T, -1, 1, 3", "--set", "bath = cavity, ohmic, 0.05, 1.0"],
     "temperature must be >= 0"),
    (["gap-scan", "--set", "temperature = -1", "--set", "scan = g, 1, 2, 2",
      "--set", "bath = cavity, ohmic, 0.05, 1.0"], "temperature must be >= 0"),
], ids=["transmission-T-nan", "gap-T-nan", "gap-bath-nan", "evolve-g-nan", "evolve-g-inf",
        "gap-T-axis-negative", "gap-T-negative"])
def test_non_finite_or_negative_temperature_input_exits_2(argv, key, capsys):
    # each used to print a table: 0.0 or NaN cells, or an unrelated failure
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and key in captured.err


def test_wrong_scan_axis_exits_2(capsys):
    assert run_cli("spectrum", "--set", "scan = T, 0, 1, 3") == 2
    assert "only a g scan axis" in capsys.readouterr().err


@pytest.mark.parametrize("command, axes", [
    ("evolve", ["g, 1, 3, 3"]),
    ("edm-evolve", ["g, 1, 3, 3"]),
    ("tla", ["g, 1, 3, 3"]),
    ("rabi-freq", ["epsilon, 0, 1, 2"]),
    ("transmission", ["g, 1, 3, 3"]),
    ("dipole-response", ["T, 0, 1, 3"]),
    ("edm-rates", ["g, 1, 3, 3"]),
    ("gap-scan", ["omega, 0, 1, 3"]),
    ("spectrum", ["g, 1, 2, 2", "g, 3, 4, 2"]),
], ids=lambda v: v if isinstance(v, str) else "+".join(a.split(",")[0] for a in v))
def test_every_subcommand_rejects_scan_axes_it_does_not_run(command, axes, capsys):
    # a scan that never ran must not be echoed in a table header
    argv = [command, "--set", "bath = cavity, ohmic, 0.02, 1.0"]
    for axis in axes:
        argv += ["--set", f"scan = {axis}"]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{command} " in captured.err and "scan ax" in captured.err


def test_gap_scan_over_temperature_has_a_temperature_column(tmp_path):
    out = tmp_path / "gap.csv"
    code = run_cli(
        "gap-scan",
        "--set", "model.g = 1.0",
        "--set", "scan = T, 0.05, 0.3, 3",
        "--set", "bath = cavity, ohmic, 0.02, 1.0",
        "--output", str(out),
    )
    assert code == 0
    _, columns, rows = read_csv(out)
    assert columns == ["g", "epsilon", "T", "lambda"]
    assert [float(r[2]) for r in rows] == [0.05, 0.175, 0.3]
    assert len({r[3] for r in rows}) == 3   # the gap moves with the bath temperature


def test_evolve_runs_the_configured_model(tmp_path):
    # omega_d and omega_c reach the run: the resonance sits at epsilon = k omega_c
    fitted = {}
    for omega_c, omega_d in ((1.0, 1.0), (1.0, 0.5), (1.5, 1.0)):
        out = tmp_path / f"evolve_{omega_c}_{omega_d}.csv"
        code = run_cli(
            "evolve",
            "--set", "model.g = 2.0",
            "--set", f"model.omega_c = {omega_c}",
            "--set", f"model.omega_d = {omega_d}",
            "--set", "evolve.m_levels = 12",
            "--set", "evolve.points_per_period = 24",
            "--output", str(out),
        )
        assert code == 0
        meta, _, _ = read_csv(out)
        values = dict(line.split(": ", 1) for line in meta if ": " in line)
        params = ModelParams(omega_c=omega_c, omega_d=omega_d, g=2.0, epsilon=omega_c)
        assert float(values["reference omega_(k,k)"]) == abs(grwa.rabi_frequency(1, 1, params))
        fitted[omega_c, omega_d] = float(values["fitted omega"])
    assert len(set(fitted.values())) == 3


def test_evolve_header_says_how_the_run_was_made(tmp_path):
    # the config echo keeps the requested epsilon = 0 and n_fock = 40; the run
    # used epsilon = k omega_c and the coupling's n_fock, and the header says so
    out = tmp_path / "evolve.csv"
    code = run_cli(
        "evolve",
        "--set", "model.g = 2.0",
        "--set", "evolve.k = 2",
        "--set", "evolve.m_levels = 12",
        "--set", "evolve.points_per_period = 24",
        "--output", str(out),
    )
    assert code == 0
    meta, _, _ = read_csv(out)
    assert "model.epsilon = 0.0" in meta and "model.n_fock = 40" in meta
    values = dict(line.split(": ", 1) for line in meta if ": " in line)
    assert float(values["run epsilon"]) == 2.0
    assert int(values["run n_fock"]) == default_n_fock(2.0)
    run = run_tunneling_oscillations(
        k=2, params=ModelParams(g=2.0, n_fock=default_n_fock(2.0)),
        m_levels=12, points_per_period=24,
    )
    assert float(values["projection deficit"]) == run.projection_deficit
    assert 0.0 < run.projection_deficit < 1e-3


def test_gap_scan_requires_bath(capsys):
    assert run_cli("gap-scan", "--set", "scan = g, 1, 2, 2") == 2
    assert "bath" in capsys.readouterr().err



# ---------------------------------------------------------------------------
# one Hamiltonian path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("gap-scan", "--set", "scan = g, 1.0, 2.0, 2", "--set", "bath = cavity, ohmic, 0.02, 1.0"),
    ("spectrum", "--set", "model.g = 1.5"),
    ("evolve", "--set", "model.g = 2.0", "--set", "evolve.m_levels = 12",
     "--set", "evolve.n_periods = 5.5", "--set", "evolve.points_per_period = 24"),
    ("transmission", "--set", "model.g = 0.5", "--set", "response.omega_points = 201"),
    ("dipole-response", "--set", "model.g = 0.5", "--set", "response.omega_points = 201"),
], ids=lambda argv: argv[0])
def test_subcommands_run_no_dense_hamiltonian_solve(argv, tmp_path, monkeypatch):
    # every production solve goes through the band solver for the retained levels
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigh called on a CLI path")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    assert run_cli(*argv, "--output", str(tmp_path / "out.csv")) == 0


def test_gap_scan_runs_no_general_eigensolve(tmp_path, monkeypatch):
    # the gap comes from the symmetrized rate matrix; a failing point would
    # turn into a NaN row, so the run must also report no failed point
    def refuse(*args, **kwargs):
        raise AssertionError("non-symmetric eigensolve called on the gap path")

    for module in (np.linalg, scipy.linalg):
        monkeypatch.setattr(module, "eig", refuse)
        monkeypatch.setattr(module, "eigvals", refuse)
    out = tmp_path / "gap.csv"
    argv = ("gap-scan", "--set", "scan = g, 1.0, 2.0, 2", "--set", "temperature = 0.1",
            "--set", "bath = cavity, ohmic, 0.02, 1.0", "--output", str(out))
    assert run_cli(*argv) == 0
    meta, _, rows = read_csv(out)
    assert "failed points: 0" in meta
    assert all(float(row[2]) < 0.0 for row in rows)


@pytest.mark.parametrize(("argv", "points"), [
    (("gap-scan", "--set", "scan = g, 1.0, 2.0, 2", "--set", "bath = cavity, ohmic, 0.02, 1.0"), 2),
    (("spectrum", "--set", "scan = g, 0.5, 1.5, 3"), 3),
    (("evolve", "--set", "model.g = 2.0", "--set", "evolve.m_levels = 12",
      "--set", "evolve.n_periods = 5.5", "--set", "evolve.points_per_period = 24"), 1),
    # a response map solves each distinct |epsilon| once
    (("transmission", "--set", "model.g = 0.5", "--set", "response.omega_points = 201",
      "--set", "scan = epsilon, -0.5, 0.5, 2"), 1),
    (("dipole-response", "--set", "model.g = 0.5", "--set", "response.omega_points = 201",
      "--set", "scan = epsilon, 0.0, 1.0, 3"), 3),
    (("dipole-response", "--set", "model.g = 0.5", "--set", "response.omega_points = 201",
      "--set", "scan = epsilon, -1.0, 1.0, 3"), 2),
], ids=lambda v: v[0] if isinstance(v, tuple) else None)
def test_every_point_is_one_certified_solve(argv, points, tmp_path, monkeypatch):
    calls = []
    certify = eigen.certified_eigensystem

    def spy(*args, **kwargs):
        calls.append(args)
        return certify(*args, **kwargs)

    # rebind the name in every module that imported it
    for module in (cli, dynamics, scan):
        assert module.certified_eigensystem is certify
        monkeypatch.setattr(module, "certified_eigensystem", spy)
    assert run_cli(*argv, "--output", str(tmp_path / "out.csv")) == 0
    assert len(calls) == points


@pytest.mark.parametrize("command", ["spectrum", "transmission", "dipole-response"])
def test_undertruncated_point_exits_2(command, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = (command, "--set", "model.g = 3.0", "--set", "model.n_fock = 12")
    assert run_cli(*argv, "--output", str(out)) == 2
    assert "increase the truncation" in capsys.readouterr().err
    assert not out.exists()


def test_gap_scan_undertruncated_points_are_nan(tmp_path):
    out = tmp_path / "gap.csv"
    code = run_cli(
        "gap-scan",
        "--set", "scan = g, 2.5, 3.0, 2",
        "--set", "bath = cavity, ohmic, 0.05, 1.0",
        "--set", "model.n_fock=14",
        "--output", str(out),
    )
    assert code == 0
    meta, _, rows = read_csv(out)
    assert "failed points: 2" in meta
    assert [row[2] for row in rows] == ["nan", "nan"]


# ---------------------------------------------------------------------------
# the flat parser
# ---------------------------------------------------------------------------

def _subparser_reference() -> argparse.ArgumentParser:
    """The earlier layout: one subparser per subcommand, each with the same options."""
    parser = argparse.ArgumentParser(prog="usc-relax")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in cli._COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--output")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--verbose", action="store_true")
    return parser


@pytest.mark.parametrize("argv", [
    ("gap-scan", "--set", "scan = g, 1, 2, 2", "--set", "bath = cavity, ohmic, 0.02, 1.0",
     "--format", "json", "--output", "gap.json"),
    ("spectrum", "--config", "run.cfg", "--set", "model.g=3.0"),
    ("evolve", "--verbose", "--set", "evolve.k = 2"),
    ("transmission", "--format", "csv"),
    ("dipole-response", "--output", "dr.csv", "--verbose"),
    ("edm-rates", "--set", "scan = omega, -1, 1, 5", "--set", "edm.x = 1.5"),
    ("edm-evolve",),
    ("tla", "--set", "well.tilt = 0.01", "--config", "well.cfg", "--format", "json"),
    ("rabi-freq", "--set=model.g=2.0"),
], ids=lambda argv: argv[0])
def test_flat_parser_matches_the_subparser_layout(argv):
    assert cli.build_parser().parse_args(argv) == _subparser_reference().parse_args(argv)


@pytest.mark.parametrize("argv", [[], ["gap_scan"], ["--verbose"], ["tla", "--format", "tsv"]])
def test_parser_rejects_a_missing_or_unknown_command_with_status_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "usage: usc-relax" in capsys.readouterr().err
