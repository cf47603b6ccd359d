"""Gap scans: shared operator caches, band solves, per-point logging."""

from __future__ import annotations

import logging
import sys

import numpy as np
import pytest

from usc_relax.cli import main
from usc_relax.config import parse_config
from usc_relax.eigen import diagonalize
from usc_relax.lindblad import _coupling_operator, build_liouvillian, liouvillian_gap
from usc_relax.operators import ModelParams, rabi_bands
from usc_relax.scan import gap_scan, scan_points

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
