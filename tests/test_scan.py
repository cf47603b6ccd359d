"""Gap scans: shared operator caches, band solves, per-point logging; table emission."""

from __future__ import annotations

import io
import json
import logging
import math
import sys

import numpy as np
import pytest

from usc_relax.cli import main
from usc_relax.config import parse_config
from usc_relax.eigen import diagonalize
from usc_relax.lindblad import _coupling_operator, build_liouvillian, liouvillian_gap
from usc_relax.operators import ModelParams, rabi_bands
from usc_relax.scan import CHUNK_ROWS, gap_scan, scan_points, write_table

_SCAN_3X3 = """
scan = g, 0.5, 2.0, 3
scan = epsilon, 0.0, 1.0, 3
bath = cavity, ohmic, 0.05, 1.0
bath = dipole, radiative, 0.2, 1.0, 3.0
temperature = 0.1
m_levels = 12
model.n_fock = 40
"""


def test_gap_scan_is_unchanged_by_operator_cache_and_matches_direct_calls():
    config = parse_config(_SCAN_3X3)
    warm = gap_scan(config).values
    _coupling_operator.cache_clear()
    cold = gap_scan(config).values
    assert np.array_equal(warm, cold)
    for point, value in zip(scan_points(config.scan), cold.reshape(-1)):
        params = ModelParams(g=point["g"], epsilon=point["epsilon"], n_fock=40)
        lv = build_liouvillian(
            diagonalize(rabi_bands(params), 12), params, config.baths,
            temperature=0.1, m_levels=12,
        )
        assert value == liouvillian_gap(lv)


def test_gap_scan_never_builds_the_dense_rabi_matrix(monkeypatch):
    calls = []

    def dense_build(params):
        calls.append(params)
        raise AssertionError("gap_scan built the dense Rabi matrix")

    # rebind build_rabi wherever the package holds it, module attribute or import
    for name, module in list(sys.modules.items()):
        if name.startswith("usc_relax") and hasattr(module, "build_rabi"):
            monkeypatch.setattr(module, "build_rabi", dense_build)
    result = gap_scan(parse_config(_SCAN_3X3))
    assert calls == []
    assert result.failures == ()
    assert np.all(np.isfinite(result.values))


def test_verbose_gap_scan_logs_one_info_line_per_point(caplog, capsys):
    argv = [
        "gap-scan",
        "--set", "scan = g, 1.0, 2.0, 2",
        "--set", "scan = epsilon, 0.5, 0.5, 1",
        "--set", "bath = cavity, ohmic, 0.02, 1.0",
        "--set", "m_levels = 12",
    ]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    caplog.set_level(logging.INFO, logger="usc_relax.scan")
    assert main([*argv, "--verbose"]) == 0
    loud = capsys.readouterr()
    records = [r for r in caplog.records if r.name == "usc_relax.scan"]
    assert [r.levelno for r in records] == [logging.INFO, logging.INFO]
    for record, g in zip(records, ("1", "2")):
        message = record.getMessage()
        assert f"g={g}, epsilon=0.5" in message
        assert "n_fock=40" in message
        assert message.endswith(" s")
    assert loud.out == quiet.out


@pytest.mark.parametrize(
    "command, axis, values",
    [
        ("spectrum", "g", ("1", "2")),
        ("transmission", "epsilon", ("0.25", "0.5")),
        ("dipole-response", "epsilon", ("0.25", "0.5")),
    ],
)
def test_verbose_maps_log_one_info_line_per_point(command, axis, values, caplog, capsys):
    argv = [command, "--set", f"scan = {axis}, {values[0]}, {values[1]}, 2"]
    if command != "spectrum":
        argv += ["--set", "model.g = 0.5", "--set", "response.omega_points = 21"]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    caplog.set_level(logging.INFO, logger="usc_relax")
    assert main([*argv, "--verbose"]) == 0
    loud = capsys.readouterr()
    records = [r for r in caplog.records if r.name.startswith("usc_relax")]
    assert [r.levelno for r in records] == [logging.INFO, logging.INFO]
    for record, value in zip(records, values):
        message = record.getMessage()
        assert message.startswith(f"{command} point ({axis}={value}): ")
        assert "n_fock=40" in message
        assert message.endswith(" s")
    assert loud.out == quiet.out


def _row_table(stream, metadata, columns, rows, fmt):
    """Reference: the per-cell writer, rows of Python scalars."""
    def cell(value):
        if isinstance(value, float):
            return "nan" if math.isnan(value) else repr(value)
        return str(value)

    if fmt == "csv":
        for line in metadata:
            stream.write(f"# {line}\n")
        stream.write(f"# columns: {','.join(columns)}\n")
        for row in rows:
            stream.write(",".join(cell(v) for v in row) + "\n")
    else:
        clean = [[None if isinstance(v, float) and math.isnan(v) else v for v in row] for row in rows]
        json.dump({"metadata": list(metadata), "columns": columns, "rows": clean}, stream, indent=2)
        stream.write("\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_table_by_column_matches_per_cell_writer(fmt):
    n = 2 * CHUNK_ROWS + 7   # crosses two chunk boundaries
    rng = np.random.default_rng(5)
    special = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, 0.1]
    mixed = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n)
    mixed[rng.integers(0, n, size=400)] = rng.choice(special, size=400)
    mixed[CHUNK_ROWS - 1:CHUNK_ROWS + 1] = [-0.0, 0.0]
    repeated = np.repeat(np.linspace(-0.5, 0.5, 3), n // 3 + 1)[:n]
    index = np.arange(n) % 7 - 3
    valid = np.where(np.arange(n) % 2 == 0, "true", "false")
    columns = {"mixed": mixed, "repeated": repeated, "index": index, "valid": valid}
    rows = list(zip(mixed.tolist(), repeated.tolist(), index.tolist(), valid.tolist()))
    metadata = ("usc-relax test", "seed = 5")
    new, ref = io.StringIO(), io.StringIO()
    write_table(new, metadata, columns, fmt)
    _row_table(ref, metadata, list(columns), rows, fmt)
    lines = new.getvalue().split("\n")
    assert lines == ref.getvalue().split("\n")
    if fmt == "csv":
        body = lines[3:-1]
        assert len(body) == n
        assert body[CHUNK_ROWS - 1].startswith("-0.0,") and body[CHUNK_ROWS].startswith("0.0,")


def test_write_table_rejects_ragged_columns():
    with pytest.raises(ValueError, match="equal length"):
        write_table(io.StringIO(), (), {"a": [1.0, 2.0], "b": [1.0]})
