"""Gap scans: shared operator caches, per-point logging."""

from __future__ import annotations

import logging

import numpy as np

from usc_relax.cli import main
from usc_relax.config import parse_config
from usc_relax.eigen import diagonalize
from usc_relax.lindblad import _coupling_operator, build_liouvillian, liouvillian_gap
from usc_relax.operators import ModelParams, _rabi_terms, build_rabi
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


def _clear_operator_caches():
    _rabi_terms.cache_clear()
    _coupling_operator.cache_clear()


def test_gap_scan_is_unchanged_by_operator_cache_and_matches_direct_calls():
    config = parse_config(_SCAN_3X3)
    warm = gap_scan(config).values
    _clear_operator_caches()
    cold = gap_scan(config).values
    assert np.array_equal(warm, cold)
    for point, value in zip(scan_points(config.scan), cold.reshape(-1)):
        params = ModelParams(g=point["g"], epsilon=point["epsilon"], n_fock=40)
        lv = build_liouvillian(
            diagonalize(build_rabi(params)), params, config.baths, temperature=0.1, m_levels=12
        )
        assert value == liouvillian_gap(lv)


def test_fixed_truncation_scan_builds_rabi_terms_once():
    config = parse_config(_SCAN_3X3)
    _rabi_terms.cache_clear()
    gap_scan(config)
    info = _rabi_terms.cache_info()
    assert info.misses == 1
    assert info.hits == 8


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
