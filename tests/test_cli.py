"""End-to-end CLI checks: every subcommand, both table formats, overrides."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from usc_relax import cli, dynamics, eigen, grwa, scan
from usc_relax.cli import _cmd_transmission, main
from usc_relax.config import RunConfig, parse_config
from usc_relax.dipole import WellParams, tla_parameters
from usc_relax.dynamics import run_tunneling_oscillations
from usc_relax.eigen import diagonalize
from usc_relax.lindblad import BathSpec, build_liouvillian, liouvillian_gap
from usc_relax.operators import ModelParams, build_rabi, default_n_fock, rabi_bands
from usc_relax.response import cavity_structure_factor, system_impedance, transmission


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
        diagonalize(build_rabi(params), 24),
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
    columns, _ = _cmd_transmission(config)
    omegas = config.response.grid()
    eta = config.model.omega_c / config.response.q_factor
    expected = []
    for eps in (-1.5, 0.0, 1.5):
        params = replace(config.model, epsilon=eps)
        s_c = cavity_structure_factor(
            diagonalize(rabi_bands(params), config.m_levels), params, 0.2, omegas, eta
        )
        t = transmission(system_impedance(s_c), config.response.q_factor)
        expected.extend(abs(v) for v in t.values)
    assert columns["value"].tolist() == expected
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
# plumbing: formats, overrides, errors, stdout
# ---------------------------------------------------------------------------

def test_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run_cli("spectrum", "--set", "model.g = 1.0", "--output", str(path)) == 0
    strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("# output")]
    assert strip(a) == strip(b)  # identical up to the echoed output path


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
    assert float(values["projection deficit"]) == run.trajectory.projection_deficit
    assert 0.0 < run.trajectory.projection_deficit < 1e-3


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


@pytest.mark.parametrize(("argv", "points"), [
    (("gap-scan", "--set", "scan = g, 1.0, 2.0, 2", "--set", "bath = cavity, ohmic, 0.02, 1.0"), 2),
    (("spectrum", "--set", "scan = g, 0.5, 1.5, 3"), 3),
    (("evolve", "--set", "model.g = 2.0", "--set", "evolve.m_levels = 12",
      "--set", "evolve.n_periods = 5.5", "--set", "evolve.points_per_period = 24"), 1),
    (("transmission", "--set", "model.g = 0.5", "--set", "response.omega_points = 201",
      "--set", "scan = epsilon, -0.5, 0.5, 2"), 2),
    (("dipole-response", "--set", "model.g = 0.5", "--set", "response.omega_points = 201",
      "--set", "scan = epsilon, 0.0, 1.0, 3"), 3),
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
