"""End-to-end CLI checks: every subcommand, both table formats, overrides."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from usc_relax import grwa
from usc_relax.cli import _cmd_transmission, main
from usc_relax.config import RunConfig, parse_config
from usc_relax.dipole import WellParams, tla_parameters
from usc_relax.eigen import diagonalize
from usc_relax.lindblad import BathSpec, build_liouvillian, liouvillian_gap
from usc_relax.operators import ModelParams, build_rabi, rabi_bands
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
        diagonalize(build_rabi(params)),
        params,
        (BathSpec(channel="cavity", law="ohmic", strength=0.02, ref_freq=1.0),),
        m_levels=24,
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
            diagonalize(rabi_bands(params), config.m_levels), params, 0.2, omegas, eta,
            m_levels=config.m_levels,
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


def test_gap_scan_requires_bath(capsys):
    assert run_cli("gap-scan", "--set", "scan = g, 1, 2, 2") == 2
    assert "bath" in capsys.readouterr().err

