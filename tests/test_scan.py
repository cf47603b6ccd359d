"""Point maps: gap scans, band solves, per-point logging, scan-order joins; table emission."""

from __future__ import annotations

import io
import json
import logging
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from usc_relax import eigen, scan
from usc_relax.cli import main
from usc_relax.config import parse_config
from usc_relax.eigen import diagonalize
from usc_relax.lindblad import build_liouvillian, liouvillian_gap
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


def test_gap_scan_matches_direct_calls():
    config = parse_config(_SCAN_3X3)
    values = gap_scan(config)[0]["lambda"]
    for point, value in zip(scan_points(config.scan), values, strict=True):
        params = ModelParams(g=point["g"], epsilon=point["epsilon"], n_fock=40)
        lv = build_liouvillian(
            diagonalize(rabi_bands(params), 12), params, config.baths,
            temperature=0.1,
        )
        assert value == liouvillian_gap(lv)


def test_gap_scan_on_folded_solves_matches_the_unsplit_solves(monkeypatch):
    # gap_map's grid corners and baths, each point's levels solved on the
    # rows they occupy against the same points solved on all 178 rows
    config = parse_config(
        "scan = g, 0.5, 3.5, 4\n"
        "scan = epsilon, 0.0, 3.0, 4\n"
        "bath = cavity, ohmic, 0.05, 1.0\n"
        "bath = dipole, radiative, 0.2, 1.0, 3.0\n"
        "temperature = 0.1\n"
        "m_levels = 24\n"
        "model.n_fock = 89\n"
    )
    folded = gap_scan(config)[0]["lambda"]
    monkeypatch.setattr(eigen, "_first_split", lambda bands, count: (bands.shape[1], math.inf))
    unsplit = gap_scan(config)[0]["lambda"]
    assert np.array_equal(np.isnan(folded), np.isnan(unsplit))
    kept = ~np.isnan(unsplit)
    assert np.count_nonzero(kept) >= 12
    assert np.all(np.abs(folded[kept] - unsplit[kept]) <= 1e-10 * np.abs(unsplit[kept]))


def test_gap_scan_refuses_gaps_below_the_float64_floor():
    # gap_map's baths at epsilon = 0, T = 0.1: the g = 5 gap is 2.8e4 eps ||S||,
    # those at g = 6 and 7 are below one eps ||S||
    config = parse_config(
        "scan = g, 5.0, 7.0, 3\n"
        "bath = cavity, ohmic, 0.05, 1.0\n"
        "bath = dipole, radiative, 0.2, 1.0, 3.0\n"
        "temperature = 0.1\n"
        "model.n_fock = 236\n"
    )
    columns, failures = gap_scan(config)
    assert columns["g"].tolist() == [5.0, 6.0, 7.0]
    assert columns["lambda"][0] == pytest.approx(-3.99048e-12, rel=1e-5)
    assert np.all(np.isnan(columns["lambda"][1:]))
    assert len(failures) == 2
    assert all("below the float64 floor" in reason for reason in failures)
    assert failures[0].startswith("(g=6)") and failures[1].startswith("(g=7)")


_GAP_ARGV = ("gap-scan", "--set", "scan = g, 1.0, 2.0, 2", "--set", "bath = cavity, ohmic, 0.02, 1.0",
             "--set", "m_levels = 12")


def test_gap_scan_programming_error_ends_the_scan(tmp_path, monkeypatch):
    # only a ValueError, the type of every declared refusal, becomes a NaN row
    def broken(lv):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(scan, "liouvillian_gap", broken)
    out = tmp_path / "gap.csv"
    with pytest.raises(TypeError, match="unsupported operand"):
        main([*_GAP_ARGV, "--output", str(out)])
    assert not out.exists()


def test_gap_scan_missing_stationary_mode_exits_2(tmp_path, monkeypatch, capsys):
    # a rate matrix with no stationary mode means the assembly broke: no NaN row
    def no_stationary_mode(lv):
        raise RuntimeError("no stationary eigenvalue found (largest population eigenvalue 1.0e-3)")

    monkeypatch.setattr(scan, "liouvillian_gap", no_stationary_mode)
    out = tmp_path / "gap.csv"
    assert main([*_GAP_ARGV, "--output", str(out)]) == 2
    assert "no stationary eigenvalue" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.xfail(
    strict=True,
    reason="the band solve mixes the exactly degenerate pair {|1, dn>, |0, up>} at g = 0, "
    "so secular rank-one cavity rates relax the decoupled qubit: -4.99e-3 where the gap is 0",
)
def test_decoupled_qubit_has_no_cavity_relaxation_gap():
    # the dense product basis gives the true gap, 0, which the float64 floor
    # now refuses; the band solve prints -4.99e-3 at n_fock = 40, -1.21e-2 at 80
    config = parse_config("scan = g, 0.0, 0.0, 1\nbath = cavity, ohmic, 0.05, 1.0\n")
    [value] = gap_scan(config)[0]["lambda"]
    assert math.isnan(value) or abs(value) <= 1e-12


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


def test_verbose_logs_under_a_root_logger_that_already_has_handlers(caplog, capsys):
    # basicConfig does nothing when the root logger has handlers (pytest's
    # here, an embedding application's elsewhere); --verbose must still log,
    # and leave the package's level as it found it
    assert logging.getLogger().handlers
    package_log = logging.getLogger("usc_relax")
    before = package_log.level
    argv = [
        "gap-scan",
        "--set", "scan = g, 1.0, 2.0, 2",
        "--set", "bath = cavity, ohmic, 0.02, 1.0",
        "--set", "m_levels = 12",
        "--verbose",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    records = [r for r in caplog.records if r.name == "usc_relax.scan"]
    assert [r.levelno for r in records] == [logging.INFO, logging.INFO]
    assert package_log.level == before


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


@pytest.mark.parametrize(
    "command, axis, values, fixed",
    [
        # n_fock = 20 certifies g = 1 but not g = 3: one finite row, one NaN row
        ("gap-scan", "g", ("1.0", "3.0"),
         ("bath = cavity, ohmic, 0.05, 1.0", "model.epsilon = 0.5", "model.n_fock = 20",
          "m_levels = 12")),
        ("gap-scan", "T", ("0.05", "0.3"),
         ("bath = cavity, ohmic, 0.02, 1.0", "model.g = 1.0", "m_levels = 12")),
        ("spectrum", "g", ("1.0", "2.0"), ()),
        ("transmission", "epsilon", ("-0.5", "0.5"),
         ("model.g = 0.5", "response.omega_points = 21")),
        ("dipole-response", "epsilon", ("-0.5", "0.5"),
         ("model.g = 0.5", "response.omega_points = 21")),
    ],
)
def test_two_point_scan_is_its_one_point_runs_joined(command, axis, values, fixed, tmp_path):
    def body(*scan):
        out = tmp_path / "table.csv"
        argv = [command, "--output", str(out)]
        for assignment in (*fixed, *scan):
            argv += ["--set", assignment]
        assert main(argv) == 0
        return [line for line in out.read_text().splitlines() if not line.startswith("#")]

    joined = body(f"scan = {axis}, {values[0]}, {values[1]}, 2")
    singles = [body(f"scan = {axis}, {v}, {v}, 1") for v in values]
    assert joined == singles[0] + singles[1]
    assert len(singles[0]) == len(singles[1]) > 0
    if command == "gap-scan" and axis == "g":
        assert [row.split(",")[-1] == "nan" for row in joined] == [False, True]


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
    metadata = ("usc-relax test", "m_levels = 5")
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


def test_write_table_rejects_blocks_with_other_columns():
    with pytest.raises(ValueError, match="same columns"):
        write_table(io.StringIO(), (), [{"a": [1.0], "b": [2.0]}, {"b": [2.0], "a": [1.0]}])


def _block_rows(blocks):
    """Reference: each block's rows as Python scalars, a scalar repeated down its block."""
    rows = []
    for block in blocks:
        lists = [v.tolist() if isinstance(v, np.ndarray) else v for v in block.values()]
        n = max((len(v) for v in lists if isinstance(v, list)), default=1)
        rows += [tuple(v[r] if isinstance(v, list) else v for v in lists) for r in range(n)]
    return rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_table_by_block_matches_per_cell_writer(fmt):
    rng = np.random.default_rng(7)
    omega = np.linspace(-1.0, 1.0, 9)   # one grid, shared by every map block
    omega[4:6] = [-0.0, 0.0]
    values = {abs(e): rng.normal(size=9) for e in (0.0, 0.5)}
    values[0.5][[2, 3]] = [math.nan, -0.0]
    long = rng.normal(size=CHUNK_ROWS + 5) * 10.0 ** rng.integers(-20, 20, size=CHUNK_ROWS + 5)
    long[CHUNK_ROWS - 1:CHUNK_ROWS + 1] = [0.0, -0.0]
    index = np.arange(9)

    def map_block(eps):   # mirrored blocks share their value array
        value = values[abs(eps)]
        return {"epsilon": eps, "tag": "map", "omega": omega, "value": value, "n": index}

    blocks = [
        *(map_block(eps) for eps in (-0.5, -0.0, 0.0)),
        # one-row points that share nothing, mixed into the map
        *({"epsilon": e, "tag": t, "omega": [w], "value": [v], "n": [k]}
          for e, t, w, v, k in ((0.25, "a", math.nan, -0.0, -3), (0.3, "b", 0.0, 1e300, 4))),
        map_block(0.5),
        # blocks longer than CHUNK_ROWS, two sharing an array and one not
        {"epsilon": 1.0, "tag": "long", "omega": long, "value": long[::-1].copy(), "n": 7},
        {"epsilon": 2.0, "tag": "long", "omega": long, "value": long, "n": 8},
        {"epsilon": 3.0, "tag": "once", "omega": long.copy(), "value": long * 2.0, "n": 9},
        # blocks of no rows, sharing their arrays
        *[{"epsilon": 4.0, "tag": "", "omega": long[:0], "value": long[:0], "n": index[:0]}] * 2,
    ]
    metadata = ("usc-relax test", "m_levels = 5")
    new, ref = io.StringIO(), io.StringIO()
    write_table(new, metadata, blocks, fmt)
    _row_table(ref, metadata, list(blocks[0]), _block_rows(blocks), fmt)
    assert new.getvalue().split("\n") == ref.getvalue().split("\n")
    if fmt == "json":   # the JSON of a block table is that of its concatenation
        joined = io.StringIO()
        columns = dict(zip(blocks[0], map(np.array, zip(*_block_rows(blocks)))))
        write_table(joined, metadata, columns, fmt)
        assert joined.getvalue() == new.getvalue()


def test_transmission_map_table_peak_memory(tmp_path):
    # a 41 x 801 transmission map: the mirrored value arrays and the shared
    # omega grid are formatted once, and no concatenated column is built
    # (1.87 MB when the blocks were concatenated and written in row chunks)
    config = Path(__file__).resolve().parents[1] / "experiments" / "transmission_weak.cfg"
    argv = ["transmission", "--config", str(config), "--output", str(tmp_path / "t.csv")]
    assert main(argv) == 0   # first calls of numpy and scipy paths allocate once
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = [line for line in (tmp_path / "t.csv").read_text().splitlines() if line[0] != "#"]
    assert len(rows) == 41 * 801
    assert peak < 1.6e6
